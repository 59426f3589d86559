"""Vector-valued piecewise polynomials in the monomial or Chebyshev basis.

One container owns the domain logic (validation, locating a time,
evaluation, differentiation, matrix application, shifting, restriction,
breakpoint alignment, addition, stacking) and cuts every piece to a
subinterval through one rule: _overlaps finds the parts, _cut re-expands
them.  A small kernel per basis supplies the per-piece arithmetic:
differentiation (der), point values of every derivative order (derivs)
and the trim after an addition (trim).  Every operation here takes and
returns coefficient stacks (pieces is a view for other readers); those
that touch every piece take the pieces of one coefficient length together
(_group), one stacked product per group, so zero padding never enters a
sum and a function of many pieces costs a few numpy calls per length.

Data functions (history and inhomogeneity) use the monomial basis of the
local variable ``t - start``, so evaluation, differentiation, shifting and
restriction are exact up to floating point roundoff and derivative
information of any order is available without numerical differentiation.
The solver's trajectories use the Chebyshev basis on each piece [a, b];
trailing coefficients are trimmed after additions so that polynomial
content keeps a low-degree, differentiation-friendly form.
"""

from __future__ import annotations

import bisect
import warnings
from collections import namedtuple
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .cheb import cgl_nodes, trim_stack, values_to_coeffs
from .errors import DimensionMismatch, OutOfDomain
from .pencil import frozen

DEGREE_CAP = 64
DEGREE_WARN = 24

# span-relative tolerance of every domain boundary (model, problemfile too)
DOMAIN_RTOL = 1e-9


def _as_coeff_array(coeffs, n=None):
    """Coefficient data as a 2-D array of shape (deg+1, n), not copied."""
    c = np.asarray(coeffs)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2 or c.shape[0] == 0:
        raise DimensionMismatch("piece needs a (deg+1, n) coefficient array")
    if n is not None and c.shape[1] != n:
        raise DimensionMismatch(
            f"coefficient vectors have dimension {c.shape[1]}, expected {n}"
        )
    return c


def _padded(coefs, dtype):
    """The coefficient arrays (deg+1, n) zero-padded into one stack
    (K, longest length, n) of the given dtype, and their lengths; a lone
    array of that dtype is viewed, not copied."""
    lengths = [len(c) for c in coefs]
    if len(coefs) == 1:
        return np.asarray(coefs[0], dtype=dtype)[None], np.array(lengths)
    stack = np.zeros((len(coefs), max(lengths), coefs[0].shape[1]), dtype=dtype)
    for k, c in enumerate(coefs):
        stack[k, : len(c)] = c
    return stack, np.array(lengths)


def _shift_coeffs(c, delta):
    """Taylor shift: coefficients of p(u + delta) given those of p(u), for
    a stack c (K, m, n) of pieces of length m with one delta per piece; a
    piece whose delta is 0 is returned as is.
    """
    out = np.array(c)
    delta = np.asarray(delta, dtype=float)
    moved = np.flatnonzero(delta != 0.0)
    m = out.shape[1]
    if m == 1 or not moved.size:
        return out
    sub, d = out[moved], delta[moved, None]
    for j in range(m - 1):
        for k in range(m - 2, j - 1, -1):
            sub[:, k] = sub[:, k] + d * sub[:, k + 1]
    out[moved] = sub
    return out


def _check_order(order):
    if order < 0:
        raise DimensionMismatch(f"derivative order must be non-negative, not {order!r}")


def _merge_breaks(points, tol):
    """Sorted breakpoints with near-duplicates (closer than tol) collapsed."""
    merged = []
    for t in sorted(points):
        if not merged or t - merged[-1] > tol:
            merged.append(t)
    return merged


def _stacked(ca, cb):
    """Coefficients [ca | cb] of two pieces on one interval, the shorter
    one padded with zero rows; ca and cb may also be stacks (K, m, n) of
    K pairs."""
    (la, na), (lb, nb) = ca.shape[-2:], cb.shape[-2:]
    c = np.zeros(ca.shape[:-2] + (max(la, lb), na + nb), dtype=np.result_type(ca, cb))
    c[..., :la, :na] = ca
    c[..., :lb, na:] = cb
    return c


Basis = namedtuple("Basis", ["name", "der", "derivs", "trim"])
Basis.__doc__ = """Per-piece kernel of one basis: der and derivs get the piece [a, b].

der(c, a, b, m): coefficients of the m-th derivative, also of the pieces
    c (m, K, n) of one length with ends a, b of shape (K, 1);
derivs(c, a, b, t, top): derivatives 0..top at t, shape (top+1, n) for
    a scalar t and (len(t), top+1, n) for a 1-D array of times, zero
    above the degree: the one point evaluator;
trim(stack, lengths): a zero-padded stack (K, m, n) of series of the
    given lengths after a sum, and the lengths they keep: as they are,
    or trimmed by cheb.trim_stack for Chebyshev pieces.
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


def _cheb_derivs(c, a, b, t, top):
    """Differentiate one order at a time: the arithmetic of chebder(m=j)."""
    out = np.zeros(np.shape(t) + (top + 1, c.shape[1]), dtype=c.dtype)
    x = (2.0 * t - a - b) / (b - a)
    for j in range(min(top, c.shape[0] - 1) + 1):
        if j:
            c = CHEBYSHEV.der(c, a, b, 1)
        out[..., j, :] = C.chebval(x, c).T
    return out


def _group(keys):
    """Indices of items by key, in order: _group(lengths.tolist()) gathers
    the pieces of a stack that one stacked product can take."""
    keys = list(keys)
    if keys and keys.count(keys[0]) == len(keys):
        return {keys[0]: list(range(len(keys)))}
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups


def _width_groups(a, b, span, *keys):
    """Indices of the pieces [a[k], b[k]] by (keys[0][k], ..., width key):
    the width relative to span, rounded so that cuts that differ only by
    roundoff, such as 0.3 and 1.0 - 0.7, share one key, so that the
    pieces of one group share the operators built for their width."""
    if len(a) == 1:  # one piece, one group: without numpy's per-call cost
        return {(*(k[0] for k in keys), round(float(b[0] - a[0]) / span, 13)): [0]}
    return _group(zip(*keys, ((b - a) / span).round(13).tolist()))


# coeffs[k] multiplies (t - a)**k on the piece [a, b]
MONOMIAL = Basis(
    "monomial",
    der=lambda c, a, b, m: P.polyder(c, m=m, axis=0),
    derivs=_monomial_derivs,
    trim=lambda stack, lengths: (stack, lengths),
)

# coeffs[k] multiplies T_k of the piece [a, b] mapped onto [-1, 1]
CHEBYSHEV = Basis(
    "chebyshev",
    der=lambda c, a, b, m: C.chebder(c, m=m, scl=2.0 / (b - a), axis=0),
    derivs=_cheb_derivs,
    trim=trim_stack,
)


def cgl_samples(stack, windows=None, floor=1, basis=CHEBYSHEV):
    """The pieces of a stack (a, b, coefs, lengths) of one basis, each
    sampled at the CGL nodes of its own degree, at least floor, mapped onto
    its window (lo, hi), by default [a, b]: the nodes of all pieces in
    order (rows,), the values there (rows, n) and the rows of each piece.

    The pieces of one coefficient length are evaluated by one chebval
    (Clenshaw) of their stacked coefficients, or for monomial pieces one
    polyval (Horner) at the offsets (lo - a) + (hi - lo)(x + 1)/2 of the
    nodes x; both are elementwise, so every value is bit for bit what its
    piece alone gives.
    """
    ends, coefs, lengths = np.array(stack[:2]), stack[2], stack[3]
    spans = ends if windows is None else np.asarray(windows, dtype=float).T
    counts = np.maximum(lengths, floor + 1)
    first = np.cumsum(counts) - counts
    nodes = np.empty(int(counts.sum()))
    values = np.empty((len(nodes), coefs.shape[2]), dtype=coefs.dtype)
    for m, ks in _group(lengths.tolist()).items():
        (a, b), (lo, hi) = ends[:, ks, None], spans[:, ks, None]
        x = cgl_nodes(max(m - 1, floor))
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        rows = first[ks, None] + np.arange(t.shape[1])
        nodes[rows] = t
        c = coefs[ks, :m].transpose(1, 0, 2)[..., None]
        if basis is MONOMIAL:
            at, val = (lo - a) + (hi - lo) * 0.5 * (x + 1.0), P.polyval
        else:
            at, val = (2.0 * t - a - b) / (b - a), C.chebval
        values[rows] = val(at[:, None], c, tensor=False).transpose(0, 2, 1)
    return nodes, values, counts


def _interpolants(stack, windows=None, basis=CHEBYSHEV):
    """Chebyshev coefficients on each piece's window of the interpolant at
    the CGL nodes of the piece's degree, one values_to_coeffs per length
    into one zero stack, trimmed once: the stack and the trimmed lengths."""
    _, values, counts = cgl_samples(stack, windows, 0, basis)
    lengths, first = stack[3], np.cumsum(counts) - counts
    coefs = np.zeros((len(lengths), lengths.max(), values.shape[1]), dtype=values.dtype)
    for m, ks in _group(lengths.tolist()).items():
        coefs[ks, :m] = values_to_coeffs(values[first[ks, None] + np.arange(m)])
    return trim_stack(coefs, lengths)


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

    A function holds one store, _stack = (a, b, coefs, lengths): piece k
    is [a[k], b[k]] with coefficients coefs[k, :lengths[k]], coefs of
    shape (pieces, longest length, n) zero-padded and of one dtype
    (complex when any piece is), read-only when validated.  The library
    reads only the stack; pieces is its view for other readers.
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
            norm_pieces.append((start, end, c))
        if not norm_pieces:
            raise DimensionMismatch("piecewise polynomial needs at least one piece")
        norm_pieces.sort(key=lambda p: p[0])
        span = norm_pieces[-1][1] - norm_pieces[0][0]
        for left, right in zip(norm_pieces, norm_pieces[1:]):
            if abs(left[1] - right[0]) > DOMAIN_RTOL * span:
                raise DimensionMismatch(
                    f"pieces not contiguous at t={left[1]} vs t={right[0]}"
                )
        a, b, coefs = zip(*norm_pieces)
        dtype = complex if any(map(np.iscomplexobj, coefs)) else float
        if len(coefs) == 1:  # the stack views the one copy
            coefs = [frozen(coefs[0], dtype)]
        self._stack = (np.array(a), np.array(b), *_padded(coefs, dtype))
        for x in self._stack:
            x.setflags(write=False)
        self.n = n
        self.basis = basis

    def _with_stack(self, stack, n=None, basis=None):
        """Unvalidated result built from a stack (see _stack) derived from
        this function."""
        out = PiecewisePolynomial.__new__(PiecewisePolynomial)
        out._stack = stack
        out.n = self.n if n is None else n
        out.basis = basis or self.basis
        return out

    @cached_property
    def pieces(self):
        """The pieces as views of the stack, made on first use."""
        a, b, coefs, lengths = self._stack
        heads = [coefs[k, :m] for k, m in enumerate(lengths.tolist())]
        return tuple(map(Piece, a.tolist(), b.tolist(), heads))

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
        return self._with_stack((*self._stack[:2], *_interpolants(self._stack, basis=MONOMIAL)),
                                basis=CHEBYSHEV)

    def windows(self, lows, highs):
        """The function on each window [lows[w], highs[w]], moved to start
        at 0, in Chebyshev form; each window bit for bit
        restrict(lo, hi).shift(-lo).to_chebyshev().

        All windows are cut at once by _cut, and every cut monomial piece
        is sampled and interpolated by one pass of cgl_samples.
        """
        lows = np.asarray(lows, dtype=float)
        win, src, lo, hi = self._overlaps(lows, highs)
        a, b, (_, _, coefs, lengths) = lo - lows[win], hi - lows[win], self._cut(src, lo, hi)
        if self.basis is MONOMIAL:
            coefs, lengths = _interpolants((a, b, coefs, lengths), basis=MONOMIAL)
        first = np.searchsorted(win, np.arange(len(lows)))
        runs = zip(first.tolist(), [*first[1:].tolist(), len(win)],
                   np.maximum.reduceat(lengths, first).tolist())
        return [self._with_stack((a[i:j], b[i:j], coefs[i:j, :m], lengths[i:j]), basis=CHEBYSHEV)
                for i, j, m in runs]

    # -- basic queries ------------------------------------------------

    @property
    def start(self):
        return float(self._stack[0][0])

    @property
    def end(self):
        return float(self._stack[1][-1])

    @property
    def breakpoints(self):
        return [self.start] + self._stack[1].tolist()

    @property
    def max_degree(self):
        return self._stack[2].shape[1] - 1

    @property
    def is_complex(self):
        return np.iscomplexobj(self._stack[2])

    def _tol(self):
        return DOMAIN_RTOL * (self.end - self.start)

    @cached_property
    def _cuts(self):
        """The domain ends widened by the tolerance, and the interior piece
        ends shifted by it for each side, as an array and as a tuple: built
        on first use, since a function never changes (and _with_stack
        skips __init__)."""
        tol = self._tol()
        ends = self._stack[1][:-1]
        cuts = {"right": ends - tol, "left": ends + tol}
        return (self.start - tol, self.end + tol,
                {side: (c, tuple(c.tolist())) for side, c in cuts.items()})

    def _locate(self, t, side="right"):
        """Index of the piece holding t (a float or an array of times):
        the first piece whose end b has t < b - tol (t <= b + tol for
        side="left"), else the last piece, which also takes NaN.  A float
        is located by bisect on the tuple of cuts, an array by
        np.searchsorted."""
        lo, hi, cuts = self._cuts
        if side not in cuts:
            raise DimensionMismatch(f"side must be 'left' or 'right', not {side!r}")
        array, points = cuts[side]
        if isinstance(t, float):
            if t < lo or t > hi:
                raise OutOfDomain(f"t={t} outside [{self.start}, {self.end}]")
            if side == "right" or t != t:  # bisect_left would send NaN to piece 0
                return bisect.bisect_right(points, t)
            return bisect.bisect_left(points, t)
        t = np.asarray(t, dtype=float)
        outside = (t < lo) | (t > hi)
        if outside.any():
            raise OutOfDomain(f"t={t[outside].flat[0]} outside [{self.start}, {self.end}]")
        return np.searchsorted(array, t, side=side)

    def evaluate(self, t, order=0, side="right"):
        """Evaluate the order-th derivative at time t: row order of
        derivatives(t, order, side).

        At interior knots the right limit is taken unless side="left";
        orders above the local degree give the zero vector.
        """
        return self.derivatives(float(t), order, side)[order]

    def derivatives(self, t, orders, side="right"):
        """Stack of derivatives 0..orders at t, shape (orders+1, n); for a
        1-D array of times, one stack per time, shape (len(t), orders+1, n).

        Each time is located once, and each piece's basis kernel produces
        every order at all the times it holds; rows above the local degree
        are zero.  Negative orders raise DimensionMismatch.
        """
        _check_order(orders)
        a, b, coefs, lengths = self._stack
        if np.ndim(t) == 0:
            t = float(t)
            k = self._locate(t, side=side)
            return self.basis.derivs(coefs[k, : lengths[k]], a[k], b[k], t, orders)
        times = np.asarray(t, dtype=float)
        where = self._locate(times, side=side)
        out = np.zeros((len(times), orders + 1, self.n), dtype=coefs.dtype)
        for k in np.unique(where).tolist():
            held = where == k
            out[held] = self.basis.derivs(coefs[k, : lengths[k]], a[k], b[k], times[held], orders)
        return out

    def sup_bound(self):
        """Upper bound for sup_t max_j |f_j(t)| via coefficient sums, NaN on NaN data."""
        a, b, coefs, lengths = self._stack
        weights = np.abs(coefs)
        if self.basis is MONOMIAL:  # |(t - a)^k| <= (b - a)^k, k 0 on padded rows; |T_k| <= 1
            k = np.arange(coefs.shape[1])
            weights *= ((b - a)[:, None] ** np.where(k < lengths[:, None], k, 0))[..., None]
        return float(np.max(weights.sum(axis=1)))

    # -- calculus and algebra -------------------------------------------

    def derivative(self, order=1):
        """The order-th derivative: one der per group of pieces of one length."""
        _check_order(order)
        a, b, coefs, lengths = self._stack
        out = np.zeros((len(a), max(coefs.shape[1] - order, 1), self.n), dtype=coefs.dtype)
        for m, ks in _group(lengths.tolist()).items():
            if m > order:  # else the piece's derivative is zero
                d = self.basis.der(coefs[ks, :m].swapaxes(0, 1), a[ks, None], b[ks, None], order)
                out[ks, : m - order] = d.swapaxes(0, 1)
        return self._with_stack((a, b, out, np.maximum(lengths - order, 1)))

    def apply_matrix(self, M):
        M = np.asarray(M)
        if M.shape[1] != self.n:
            raise DimensionMismatch("matrix columns must match value dimension")
        a, b, coefs, lengths = self._stack
        return self._with_stack((a, b, coefs @ M.T, lengths), M.shape[0])

    def __mul__(self, scalar):
        a, b, coefs, lengths = self._stack
        return self._with_stack((a, b, coefs * scalar, lengths))

    __rmul__ = __mul__

    def shift(self, delta):
        """Time shift: returns s with s(t) = self(t - delta)."""
        a, b, coefs, lengths = self._stack
        return self._with_stack((a + delta, b + delta, coefs, lengths))

    def _overlaps(self, lows, highs):
        """(window, piece, lo, hi) arrays of every part [lo, hi] of a piece
        inside a window [lows[w], highs[w]] longer than the tolerance,
        window by window, pieces in order.  A window outside the domain,
        or holding no such part, raises OutOfDomain."""
        tol = self._tol()
        lows = np.asarray(lows, dtype=float)[:, None]
        highs = np.asarray(highs, dtype=float)[:, None]
        pa, pb = self._stack[:2]
        # max(pa, lo) and min(pb, hi), ties going to the piece
        lo = np.where(pa >= lows, pa, lows)
        hi = np.where(pb <= highs, pb, highs)
        kept = hi - lo > tol
        outside = (lows[:, 0] < self.start - tol) | (highs[:, 0] > self.end + tol)
        for w in np.flatnonzero(outside | ~kept.any(axis=1))[:1]:
            why = "not contained in domain" if outside[w] else "holds no piece"
            raise OutOfDomain(f"window [{lows[w, 0]}, {highs[w, 0]}] {why}")
        win, src = np.nonzero(kept)
        return win, src, lo[win, src], hi[win, src]

    def _cut(self, src, lo, hi):
        """The pieces src[k] on their subintervals [lo[k], hi[k]] (arrays)
        as a stack: monomial pieces get one stacked Taylor shift per
        coefficient length, Chebyshev pieces one _interpolants pass at the
        CGL nodes of their subintervals."""
        a, b, coefs, lengths = (x[src] for x in self._stack)  # copies of the pieces
        if self.basis is CHEBYSHEV:
            return lo, hi, *_interpolants((a, b, coefs, lengths), np.column_stack([lo, hi]))
        for m, ks in _group(lengths.tolist()).items():
            coefs[ks, :m] = _shift_coeffs(coefs[ks, :m], lo[ks] - a[ks])
        return lo, hi, coefs[:, : lengths.max()], lengths

    def restrict(self, a, b):
        """Exact restriction to the window [a, b] (a subset of the domain)."""
        _, src, lo, hi = self._overlaps([a], [b])
        return self._with_stack(self._cut(src, lo, hi))

    def split_at(self, points):
        """Insert interior breakpoints (exact re-expansion of cut pieces);
        the function itself when no point cuts a piece.  The points that
        cut each piece, more than the tolerance inside its ends, are found
        by bisect in the sorted points."""
        tol = self._tol()
        points = sorted(points)
        a, b, coefs, lengths = self._stack
        rows, lo, hi = [], [], []  # the piece of each result row and its ends
        for j, (pa, pb) in enumerate(zip(a.tolist(), b.tolist())):
            cuts = points[bisect.bisect_right(points, pa + tol):
                          bisect.bisect_left(points, pb - tol)]
            rows += [j] * (len(cuts) + 1)
            lo += [pa, *cuts]
            hi += [*cuts, pb]
        if len(rows) == len(a):
            return self
        rows, lo, hi = np.array(rows), np.array(lo), np.array(hi)
        at = np.flatnonzero((lo != a[rows]) | (hi != b[rows]))  # the rows of cut pieces
        _, _, cut, cut_lengths = self._cut(rows[at], lo[at], hi[at])
        coefs, lengths = coefs[rows], lengths[rows]
        coefs[at], lengths[at] = 0.0, cut_lengths
        coefs[at, : cut.shape[1]] = cut
        return self._with_stack((lo, hi, coefs[:, : lengths.max()], lengths))

    def aligned_with(self, other):
        """Both functions re-cut at the union of their breakpoints."""
        if other.basis is not self.basis:
            raise DimensionMismatch(
                f"cannot combine {self.basis.name} and {other.basis.name} pieces"
            )
        tol = self._tol()
        if abs(other.start - self.start) > tol or abs(other.end - self.end) > tol:
            raise OutOfDomain("piecewise polynomials live on different domains")
        mine, theirs = self.breakpoints, other.breakpoints
        if len(mine) == len(theirs) and all(abs(s - t) <= tol for s, t in zip(mine, theirs)):
            return self, other  # no breakpoint cuts either function
        cuts = _merge_breaks(mine + theirs, tol)
        return self.split_at(cuts), other.split_at(cuts)

    def split_sum(self, other, k):
        """The sum self + other as two functions, components [0, k) and
        [k, n), each trimmed on its own scale as if summed separately:
        one stacked sum and one trim per part, elementwise as each pair
        of pieces alone."""
        if other.n != self.n:
            raise DimensionMismatch("value dimensions differ")
        left, right = self.aligned_with(other)
        a, b, ca, la = left._stack
        _, _, cb, lb = right._stack
        c = np.zeros((len(a), max(ca.shape[1], cb.shape[1]), self.n),
                     dtype=np.result_type(ca, cb))
        c[:, : ca.shape[1]] += ca
        c[:, : cb.shape[1]] += cb
        lengths = np.maximum(la, lb)
        head, tail = c[..., :k], c[..., k:]
        return (left._with_stack((a, b, *self.basis.trim(head, lengths)), k),
                left._with_stack((a, b, *self.basis.trim(tail, lengths)), self.n - k))

    def __add__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self.split_sum(other, self.n)[0]

    def __sub__(self, other):
        return self + (-1.0) * other

    def stack(self, other):
        """Concatenate value components: result(t) = [self(t); other(t)]."""
        left, right = self.aligned_with(other)
        a, b, ca, la = left._stack
        _, _, cb, lb = right._stack
        return left._with_stack((a, b, _stacked(ca, cb), np.maximum(la, lb)), self.n + other.n)

    def components(self, idx):
        """Project onto a subset of value components."""
        idx = list(idx)
        a, b, coefs, lengths = self._stack
        return self._with_stack((a, b, coefs[..., idx], lengths), len(idx))

    def __repr__(self):
        return (
            f"PiecewisePolynomial(n={self.n}, pieces={len(self._stack[0])}, "
            f"basis={self.basis.name}, domain=[{self.start}, {self.end}], "
            f"max_degree={self.max_degree})"
        )
