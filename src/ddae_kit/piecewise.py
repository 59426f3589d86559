"""Vector-valued piecewise polynomials in the monomial or Chebyshev basis.

One container owns the domain logic (validation, locating a time,
evaluation, differentiation, matrix application, shifting, restriction,
breakpoint alignment, addition, stacking); a small kernel per basis
supplies the per-piece arithmetic: eval, der, restrict and the trim after
an addition (tidy).

Data functions (history and inhomogeneity) use the monomial basis of the
local variable ``t - start``, so evaluation, differentiation, shifting and
restriction are exact up to floating point roundoff and derivative
information of any order is available without numerical differentiation.
The solver's trajectories use the Chebyshev basis on each piece [a, b];
trailing coefficients are trimmed after additions so that polynomial
content keeps a low-degree, differentiation-friendly form.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .cheb import cgl_nodes, trim_coeffs, values_to_coeffs
from .errors import DimensionMismatch, OutOfDomain

DEGREE_CAP = 64
DEGREE_WARN = 24

_BOUNDARY_RTOL = 1e-9


def _as_coeff_array(coeffs, n=None):
    """Normalize coefficient data to a 2-D array of shape (deg+1, n)."""
    c = np.asarray(coeffs)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2 or c.shape[0] == 0:
        raise DimensionMismatch("piece needs a (deg+1, n) coefficient array")
    if n is not None and c.shape[1] != n:
        raise DimensionMismatch(
            f"coefficient vectors have dimension {c.shape[1]}, expected {n}"
        )
    return c.astype(complex if np.iscomplexobj(c) else float)


def _shift_coeffs(c, delta):
    """Taylor shift: return coefficients of p(u + delta) given those of p(u)."""
    m = c.shape[0]
    out = c.copy()
    if delta == 0.0 or m == 1:
        return out
    for j in range(m - 1):
        for k in range(m - 2, j - 1, -1):
            out[k] = out[k] + delta * out[k + 1]
    return out


def _merge_breaks(points, tol):
    """Sorted breakpoints with near-duplicates (closer than tol) collapsed."""
    merged = []
    for t in sorted(points):
        if not merged or t - merged[-1] > tol:
            merged.append(t)
    return merged


def _stacked(ca, cb):
    """Coefficients [ca | cb] of two pieces on one interval, the shorter
    one padded with zero rows."""
    c = np.zeros((max(len(ca), len(cb)), ca.shape[1] + cb.shape[1]),
                 dtype=np.result_type(ca, cb))
    c[: len(ca), : ca.shape[1]] = ca
    c[: len(cb), ca.shape[1] :] = cb
    return c


Basis = namedtuple("Basis", ["name", "eval", "der", "derivs", "restrict", "tidy"])
Basis.__doc__ = """Per-piece kernel of one basis; each op gets the piece [a, b].

eval(c, a, b, t): values at t (a scalar or an array of times);
der(c, a, b, m): coefficients of the m-th derivative;
derivs(c, a, b, t, top): derivatives 0..top at t, shape (top+1, n) for
    a scalar t and (len(t), top+1, n) for a 1-D array of times, each row
    bit-identical to eval(der(c, a, b, j), a, b, t) and zero above the
    degree;
restrict(c, a, b, lo, hi): coefficients on the subinterval [lo, hi];
tidy(c): trim applied to the coefficients of a sum.
"""


def _monomial_derivs(c, a, b, t, top):
    """All derivative orders at t from one coefficient stack.

    Row j of the stack is polyder(c, m=j) with its products in polyder's
    order (the * 1 is polyder's scale step, which can flip the sign of a
    complex zero), padded with zeros above its degree; one Horner sweep
    with polyval's steps then evaluates every row at every time at once.
    Leading zero padding leaves Horner's result unchanged bit for bit.
    """
    m, n = c.shape
    k = min(top, m - 1) + 1
    stack = np.zeros((k, m, n), dtype=c.dtype)
    stack[0] = c
    for j in range(1, k):
        factors = np.arange(1, m - j + 1)[:, None]
        stack[j, : m - j] = factors * (stack[j - 1, 1 : m - j + 1] * 1)
    x = np.reshape(t - a, np.shape(t) + (1, 1))
    val = stack[:, -1] + x * 0
    for i in range(2, m + 1):
        val = stack[:, -i] + val * x
    out = np.zeros(np.shape(t) + (top + 1, n), dtype=c.dtype)
    out[..., :k, :] = val
    return out


def _cheb_eval(c, a, b, t):
    return C.chebval((2.0 * t - a - b) / (b - a), c)


def _cheb_derivs(c, a, b, t, top):
    """Differentiate one order at a time: the arithmetic of chebder(m=j)."""
    out = np.zeros(np.shape(t) + (top + 1, c.shape[1]), dtype=c.dtype)
    for j in range(min(top, c.shape[0] - 1) + 1):
        if j:
            c = CHEBYSHEV.der(c, a, b, 1)
        out[..., j, :] = _cheb_eval(c, a, b, t).T
    return out


def _cheb_restrict(c, a, b, lo, hi):
    """Exact re-expansion on [lo, hi] by interpolation at its CGL nodes."""
    deg = c.shape[0] - 1
    if deg == 0:
        return c.copy()
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * cgl_nodes(deg)
    vals = np.ascontiguousarray(_cheb_eval(c, a, b, nodes).T)
    return trim_coeffs(values_to_coeffs(vals))


# coeffs[k] multiplies (t - a)**k on the piece [a, b]
MONOMIAL = Basis(
    "monomial",
    eval=lambda c, a, b, t: P.polyval(t - a, c),
    der=lambda c, a, b, m: P.polyder(c, m=m, axis=0),
    derivs=_monomial_derivs,
    restrict=lambda c, a, b, lo, hi: _shift_coeffs(np.array(c), lo - a),
    tidy=lambda c: c,
)

# coeffs[k] multiplies T_k of the piece [a, b] mapped onto [-1, 1]
CHEBYSHEV = Basis(
    "chebyshev",
    eval=_cheb_eval,
    der=lambda c, a, b, m: C.chebder(c, m=m, scl=2.0 / (b - a), axis=0),
    derivs=_cheb_derivs,
    restrict=_cheb_restrict,
    tidy=trim_coeffs,
)

Piece = namedtuple("Piece", ["a", "b", "coef"])
Piece.__doc__ = "One piece [a, b] with coefficient array coef of shape (deg+1, n)."


class PiecewisePolynomial:
    """Piecewise polynomial function from an interval into F^n.

    Attributes:
        pieces: tuple of Piece(a, b, coef) triples, coef of shape
            (deg+1, n) holding the coefficients in the basis of [a, b].
        n: value dimension.
        basis: MONOMIAL (coeffs[k] multiplies (t - start)**k) or
            CHEBYSHEV.
    """

    def __init__(self, pieces, n=None, basis=MONOMIAL):
        norm_pieces = []
        for start, end, coeffs in pieces:
            start = float(start)
            end = float(end)
            if not end > start:
                raise DimensionMismatch(f"empty piece [{start}, {end}]")
            c = _as_coeff_array(coeffs, n)
            if n is None:
                n = c.shape[1]
            if basis is MONOMIAL and c.shape[0] - 1 > DEGREE_CAP:
                raise DimensionMismatch(
                    f"piece degree {c.shape[0] - 1} exceeds cap {DEGREE_CAP}"
                )
            if basis is MONOMIAL and c.shape[0] - 1 > DEGREE_WARN:
                warnings.warn(
                    f"piece degree {c.shape[0] - 1} above {DEGREE_WARN}; "
                    "monomial conditioning may degrade",
                    stacklevel=2,
                )
            c.setflags(write=False)
            norm_pieces.append(Piece(start, end, c))
        if not norm_pieces:
            raise DimensionMismatch("piecewise polynomial needs at least one piece")
        norm_pieces.sort(key=lambda p: p[0])
        span = norm_pieces[-1][1] - norm_pieces[0][0]
        for left, right in zip(norm_pieces, norm_pieces[1:]):
            if abs(left[1] - right[0]) > _BOUNDARY_RTOL * span:
                raise DimensionMismatch(
                    f"pieces not contiguous at t={left[1]} vs t={right[0]}"
                )
        self.pieces = tuple(norm_pieces)
        self.n = n
        self.basis = basis

    def _with(self, pieces, n=None, basis=None):
        """Unvalidated result built from pieces derived from this function."""
        out = PiecewisePolynomial.__new__(PiecewisePolynomial)
        out.pieces = tuple(pieces)
        out.n = self.n if n is None else n
        out.basis = basis or self.basis
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, start, end):
        value = np.atleast_1d(np.asarray(value))
        return cls([(start, end, value[None, :])])

    @classmethod
    def zero(cls, n, start, end, complex_field=False, basis=MONOMIAL):
        dtype = complex if complex_field else float
        return cls([(start, end, np.zeros((1, n), dtype=dtype))], basis=basis)

    def to_chebyshev(self):
        """Exact conversion to the Chebyshev basis (interpolation at CGL nodes)."""
        if self.basis is CHEBYSHEV:
            return self
        pieces = []
        for a, b, c in self.pieces:
            deg = c.shape[0] - 1
            if deg == 0:
                pieces.append(Piece(a, b, np.array(c)))
                continue
            u_nodes = (b - a) * 0.5 * (cgl_nodes(deg) + 1.0)
            vals = P.polyval(u_nodes, c).T
            pieces.append(Piece(a, b, trim_coeffs(values_to_coeffs(vals))))
        return self._with(pieces, basis=CHEBYSHEV)

    # -- basic queries ------------------------------------------------

    @property
    def start(self):
        return self.pieces[0][0]

    @property
    def end(self):
        return self.pieces[-1][1]

    @property
    def breakpoints(self):
        return [self.pieces[0][0]] + [p[1] for p in self.pieces]

    @property
    def max_degree(self):
        return max(p[2].shape[0] - 1 for p in self.pieces)

    @property
    def is_complex(self):
        return any(np.iscomplexobj(p[2]) for p in self.pieces)

    def _tol(self):
        return _BOUNDARY_RTOL * (self.end - self.start)

    def _locate(self, t, side="right"):
        tol = self._tol()
        if t < self.start - tol or t > self.end + tol:
            raise OutOfDomain(f"t={t} outside [{self.start}, {self.end}]")
        for k, (_, b, _) in enumerate(self.pieces):
            if (t <= b + tol) if side == "left" else (t < b - tol):
                return k
        return len(self.pieces) - 1

    def evaluate(self, t, order=0, side="right"):
        """Evaluate the order-th derivative at time t.

        At interior knots the right limit is taken unless side="left".
        Differentiation acts on the coefficients; orders above the local
        degree give the zero vector.
        """
        t = float(t)
        a, b, c = self.pieces[self._locate(t, side=side)]
        if order:
            if order >= c.shape[0]:
                return np.zeros(self.n, dtype=c.dtype)
            c = self.basis.der(c, a, b, order)
        return self.basis.eval(c, a, b, t)

    def derivatives(self, t, orders, side="right"):
        """Stack of derivatives 0..orders at t, shape (orders+1, n); for a
        1-D array of times, one stack per time, shape (len(t), orders+1, n).

        Same values, bit for bit, as evaluate(t, order=j) for each j: each
        time is located once, and each piece's basis kernel produces every
        order at all the times it holds; rows above the local degree are
        zero.
        """
        if np.ndim(t) == 0:
            t = float(t)
            a, b, c = self.pieces[self._locate(t, side=side)]
            return self.basis.derivs(c, a, b, t, orders)
        times = np.asarray(t, dtype=float)
        where = np.array([self._locate(s, side=side) for s in times], dtype=int)
        dtype = np.result_type(*(c for _, _, c in self.pieces))
        out = np.zeros((len(times), orders + 1, self.n), dtype=dtype)
        for k in np.unique(where):
            a, b, c = self.pieces[k]
            held = where == k
            out[held] = self.basis.derivs(c, a, b, times[held], orders)
        return out

    def sup_bound(self):
        """Upper bound for sup_t max_j |f_j(t)| via coefficient sums."""
        best = 0.0
        for a, b, c in self.pieces:
            weights = np.abs(c)
            if self.basis is MONOMIAL:  # |(t - a)^k| <= (b - a)^k; |T_k| <= 1
                weights = weights * ((b - a) ** np.arange(c.shape[0]))[:, None]
            best = max(best, float(np.max(np.sum(weights, axis=0))))
        return best

    # -- calculus and algebra -------------------------------------------

    def derivative(self, order=1):
        pieces = []
        for a, b, c in self.pieces:
            if order >= c.shape[0]:
                d = np.zeros((1, self.n), dtype=c.dtype)
            else:
                d = self.basis.der(c, a, b, order)
            pieces.append(Piece(a, b, d))
        return self._with(pieces)

    def apply_matrix(self, M):
        M = np.asarray(M)
        if M.shape[1] != self.n:
            raise DimensionMismatch("matrix columns must match value dimension")
        return self._with([Piece(a, b, c @ M.T) for a, b, c in self.pieces], M.shape[0])

    def __mul__(self, scalar):
        return self._with([Piece(a, b, c * scalar) for a, b, c in self.pieces])

    __rmul__ = __mul__

    def shift(self, delta):
        """Time shift: returns s with s(t) = self(t - delta)."""
        return self._with([Piece(a + delta, b + delta, c) for a, b, c in self.pieces])

    def restrict(self, a, b):
        """Exact restriction to the window [a, b] (a subset of the domain)."""
        tol = self._tol()
        if a < self.start - tol or b > self.end + tol:
            raise OutOfDomain(f"window [{a}, {b}] not contained in domain")
        pieces = []
        for pa, pb, c in self.pieces:
            lo = max(pa, a)
            hi = min(pb, b)
            if hi - lo <= tol:
                continue
            pieces.append(Piece(lo, hi, self.basis.restrict(c, pa, pb, lo, hi)))
        return self._with(pieces)

    def split_at(self, points):
        """Insert interior breakpoints (exact re-expansion of cut pieces)."""
        tol = self._tol()
        pieces = []
        for pa, pb, c in self.pieces:
            cuts = sorted(t for t in points if pa + tol < t < pb - tol)
            if not cuts:
                pieces.append(Piece(pa, pb, c))
                continue
            for lo, hi in zip([pa] + cuts, cuts + [pb]):
                pieces.append(Piece(lo, hi, self.basis.restrict(c, pa, pb, lo, hi)))
        return self._with(pieces)

    def aligned_with(self, other):
        """Both functions re-cut at the union of their breakpoints."""
        if other.basis is not self.basis:
            raise DimensionMismatch(
                f"cannot combine {self.basis.name} and {other.basis.name} pieces"
            )
        tol = self._tol()
        if abs(other.start - self.start) > tol or abs(other.end - self.end) > tol:
            raise OutOfDomain("piecewise polynomials live on different domains")
        cuts = _merge_breaks(self.breakpoints + other.breakpoints, tol)
        return self.split_at(cuts), other.split_at(cuts)

    def split_sum(self, other, k):
        """The sum self + other as two functions, components [0, k) and
        [k, n), each trimmed on its own scale as if summed separately."""
        if other.n != self.n:
            raise DimensionMismatch("value dimensions differ")
        left, right = self.aligned_with(other)
        head, tail = [], []
        for (a, b, ca), (_, _, cb) in zip(left.pieces, right.pieces):
            c = np.zeros((max(ca.shape[0], cb.shape[0]), self.n),
                         dtype=np.result_type(ca.dtype, cb.dtype))
            c[: ca.shape[0]] += ca
            c[: cb.shape[0]] += cb
            head.append(Piece(a, b, self.basis.tidy(c[:, :k])))
            tail.append(Piece(a, b, self.basis.tidy(c[:, k:])))
        return self._with(head, k), self._with(tail, self.n - k)

    def __add__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self.split_sum(other, self.n)[0]

    def __sub__(self, other):
        return self + (-1.0) * other

    def stack(self, other):
        """Concatenate value components: result(t) = [self(t); other(t)]."""
        left, right = self.aligned_with(other)
        pieces = [Piece(a, b, _stacked(ca, cb))
                  for (a, b, ca), (_, _, cb) in zip(left.pieces, right.pieces)]
        return self._with(pieces, self.n + other.n)

    def components(self, idx):
        """Project onto a subset of value components."""
        idx = list(idx)
        return self._with([Piece(a, b, c[:, idx]) for a, b, c in self.pieces], len(idx))

    def __repr__(self):
        return (
            f"PiecewisePolynomial(n={self.n}, pieces={len(self.pieces)}, "
            f"basis={self.basis.name}, domain=[{self.start}, {self.end}], "
            f"max_degree={self.max_degree})"
        )
