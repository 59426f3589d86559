"""Seeded inputs for the four benchmark workloads.

Every case is a problem file (plain JSON in the ddae-kit schema), the CLI
arguments to run on it, and the answers known from its construction.
Systems are built in quasi-Weierstrass coordinates, where the structure
is exact (differential size n_d, algebraic size n_a, index nu, the delay
blocks B_d1, B_d2, B_a1, B_a2), and then mixed by random well-conditioned
transforms, so the program has to recover that structure from the mixed
matrices.  Generation uses numpy only and never calls the program.

The stability workload draws its systems from the stored pool in
references.json, because its reference abscissae come from a 240x240
grid search that is too slow to repeat per run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TAU = 1.0
WORKLOADS = ("solve-ode", "solve-dae", "stability", "analyze")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references():
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- small numeric helpers -------------------------------------------


def well_conditioned(rng, n):
    """Random invertible matrix with singular values in [0.5, 2]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q2


def shift_nilpotent(n_a, nu):
    """n_a x n_a nilpotent matrix: one shift chain of length nu, rest zero."""
    N = np.zeros((n_a, n_a))
    for i in range(max(nu - 1, 0)):
        N[i, i + 1] = 1.0
    return N


def nilpotency_index(M):
    """Smallest k with M^k = 0 for the exactly structured blocks built here."""
    m = M.shape[0]
    if m == 0:
        return 0
    P = np.eye(m)
    for k in range(m + 1):
        if np.max(np.abs(P)) <= 1e-12:
            return k
        P = P @ M
    return None


def _pieces(pieces):
    return [
        {"start": float(a), "end": float(b), "coeffs": [[float(v) for v in row] for row in c]}
        for a, b, c in pieces
    ]


def problem_dict(E, A, D, M, history, inhomogeneity):
    """Problem file contents; history / inhomogeneity are (start, end, coeffs) lists."""
    n = np.asarray(E).shape[0]
    mat = lambda X: [[float(v) for v in row] for row in np.asarray(X, dtype=float)]
    return {
        "dimension": n,
        "field": "real",
        "E": mat(E),
        "A": mat(A),
        "D": mat(D),
        "tau": TAU,
        "horizon_intervals": int(M),
        "history": _pieces(history),
        "inhomogeneity": _pieces(inhomogeneity),
    }


def dump_json(payload):
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# -- systems from quasi-Weierstrass blocks ---------------------------


def smoothing_blocks(rng, n_d, n_a, nu):
    """Delay blocks with N B_a = 0 and B_a2 nilpotent (neutral, smoothing).

    Only row 0 of B_a (the head of the shift chain) is nonzero when
    nu >= 2; B_a2 = e_0 r^T with r_0 = 0 then has nilpotency index 2.
    A derivative jump then returns to the slow part every second knot
    scaled by c = B_a1[0] . B_d2[:, 0]; |c| is held in [0.3, 0.6] so that
    the jumps the ledger theory predicts stay far above the solver's
    relative jump tolerance over the compared orders.
    For nu = 1 (N = 0) B_a1 is full and B_a2 strictly upper triangular.
    """
    B_d1 = 0.6 * rng.standard_normal((n_d, n_d))
    B_d2 = 0.6 * rng.standard_normal((n_d, n_a))
    B_a1 = np.zeros((n_a, n_d))
    B_a2 = np.zeros((n_a, n_a))
    if nu <= 1:
        B_a1 = 0.6 * rng.standard_normal((n_a, n_d))
        B_a2 = np.triu(0.6 * rng.standard_normal((n_a, n_a)), 1)
    else:
        u = rng.choice([-1.0, 1.0], n_d) * rng.uniform(0.4, 0.8, n_d)
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.6)
        B_d2[:, 0] = u
        B_a1[0] = c * u / (u @ u)
        B_a2[0, 1:] = 0.6 * rng.standard_normal(n_a - 1)
    return B_d1, B_d2, B_a1, B_a2


def invariant_blocks(rng, n_d, n_a, nu):
    """N B_a = 0 but B_a2 not nilpotent (neutral, discontinuity invariant)."""
    B_d1, B_d2, B_a1, B_a2 = smoothing_blocks(rng, n_d, n_a, nu)
    B_a2[0, 0] = 0.8
    return B_d1, B_d2, B_a1, B_a2


def retarded_blocks(rng, n_d, n_a, nu):
    """B_a = 0: the algebraic part ignores the delayed state."""
    return (
        0.6 * rng.standard_normal((n_d, n_d)),
        0.6 * rng.standard_normal((n_d, n_a)),
        np.zeros((n_a, n_d)),
        np.zeros((n_a, n_a)),
    )


def advanced_blocks(rng, n_d, n_a, nu):
    """Full B_a with nu >= 2, so N B_a != 0 (advanced, de-smoothing)."""
    return tuple(0.6 * rng.standard_normal(s) for s in
                 ((n_d, n_d), (n_d, n_a), (n_a, n_d), (n_a, n_a)))


BLOCKS = {
    "retarded": retarded_blocks,
    "smoothing": smoothing_blocks,
    "invariant": invariant_blocks,
    "advanced": advanced_blocks,
}


def structure_truth(n_d, n_a, nu, blocks, M):
    """Index, both classifications and nu_D as the theory gives them."""
    B_d1, B_d2, B_a1, B_a2 = blocks
    N = shift_nilpotent(n_a, nu)
    B_a = np.hstack([B_a1, B_a2]) if n_a else np.zeros((0, n_d))
    zero = lambda X: X.size == 0 or np.max(np.abs(X)) == 0.0
    first_violating = None
    P = N.copy()
    for k in range(1, nu):
        if not zero(P @ B_a):
            first_violating = k
            break
        P = P @ N
    nu_D = nilpotency_index(B_a2)
    if first_violating is not None:
        kind = "de_smoothing"
    elif nu_D is not None and nu_D < M:
        kind = "smoothing"
    else:
        kind = "discontinuity_invariant"
    if zero(B_a):
        legacy = "retarded"
    elif zero(N @ B_a):
        legacy = "neutral"
    else:
        legacy = "advanced"
    SDT = np.block([[B_d1, B_d2], [B_a1, B_a2]])
    return {
        "n_d": n_d, "n_a": n_a, "index": nu,
        "propagation": kind, "legacy": legacy,
        "nu_D": nu_D if kind != "de_smoothing" else None,
        "first_violating_k": first_violating,
        "backward_regular": bool(np.linalg.matrix_rank(SDT) == n_d + n_a),
    }


def qw_system(rng, n_d, n_a, nu, kind, M, admissible=True):
    """Random system of a prescribed structure with its history.

    The history is built in quasi-Weierstrass coordinates (psi, eta):
    psi and eta are random cubics, and eta receives a correction
    delta * ((t + tau) / tau)^(nu + 1), which leaves the derivatives at
    -tau up to order nu untouched and moves eta(0) onto the consistent
    value w(0) = -sum_{k<nu} N^k q_f^(k)(0), q_f = B_a1 psi(. - tau) +
    B_a2 eta(. - tau) + h.  An inadmissible history misses it by a unit
    vector.  Returns (problem dict, truth dict).
    """
    n = n_d + n_a
    blocks = BLOCKS[kind](rng, n_d, n_a, nu)
    B_d1, B_d2, B_a1, B_a2 = blocks
    # a decaying slow part keeps long horizons bounded, so the jumps the
    # ledger theory predicts stay above the solver's relative jump tolerance
    J = -1.5 * np.eye(n_d) + 0.3 * rng.standard_normal((n_d, n_d))
    N = shift_nilpotent(n_a, nu)
    E0 = np.zeros((n, n))
    E0[:n_d, :n_d] = np.eye(n_d)
    E0[n_d:, n_d:] = N
    A0 = np.zeros((n, n))
    A0[:n_d, :n_d] = J
    A0[n_d:, n_d:] = np.eye(n_a)
    SDT = np.block([[B_d1, B_d2], [B_a1, B_a2]])
    S_inv = well_conditioned(rng, n)
    T_inv = well_conditioned(rng, n)
    T = np.linalg.inv(T_inv)

    gh = 0.3 * rng.standard_normal((3, n))     # [g; h] = S f, quadratic
    deg = max(3, nu + 1)
    Y = np.zeros((deg + 1, n))
    Y[:4] = 0.5 * rng.standard_normal((4, n))
    if n_a:
        fact = np.array([math.factorial(k) for k in range(deg + 1)], dtype=float)
        psi_d = Y[:, :n_d] * fact[:, None]          # psi^(k)(-tau)
        eta_d = Y[:, n_d:] * fact[:, None]          # eta^(k)(-tau)
        h_d = np.zeros((deg + 1, n_a))
        h_d[:3] = gh[:, n_d:] * fact[:3, None]
        target = np.zeros(n_a)
        Nk = np.eye(n_a)
        for k in range(max(nu, 1)):
            q_k = B_a1 @ psi_d[k] + B_a2 @ eta_d[k] + h_d[k]
            target -= Nk @ q_k
            Nk = Nk @ N
        eta0 = np.array([np.polyval(Y[::-1, n_d + j], TAU) for j in range(n_a)])
        delta = target - eta0
        if not admissible:
            delta = delta + np.eye(n_a)[0]
        Y[nu + 1, n_d:] += delta / TAU ** (nu + 1)
    history = [(-TAU, 0.0, Y @ T.T)]
    inhom = [(0.0, M * TAU, gh @ S_inv.T)]
    problem = problem_dict(S_inv @ E0 @ T_inv, S_inv @ A0 @ T_inv,
                           S_inv @ SDT @ T_inv, M, history, inhom)
    truth = structure_truth(n_d, n_a, nu, blocks, M)
    truth["admissible"] = bool(admissible or n_a == 0)
    # consistency scale used to read the admissibility residual as digits
    truth["phi0_norm"] = float(np.linalg.norm(T @ np.array(
        [np.polyval(Y[::-1, j], TAU) for j in range(n)])))
    return problem, truth


def retarded_ode(rng, n, M, breakpoints=()):
    """E x' = A x + D x(t - tau) + f with E invertible (index 0).

    With breakpoints (fractions of tau) the inhomogeneity is piecewise
    linear with jumps inside every delay interval.
    """
    E = well_conditioned(rng, n)
    A = rng.standard_normal((n, n)) / math.sqrt(n)
    D = 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
    history = [(-TAU, 0.0, 0.5 * rng.standard_normal((3, n)))]
    if breakpoints:
        cuts = sorted({0.0, M * TAU} | {(i + b) * TAU for i in range(M) for b in breakpoints})
        inhom = [(a, b, 0.5 * rng.standard_normal((2, n))) for a, b in zip(cuts, cuts[1:])]
    else:
        inhom = [(0.0, M * TAU, 0.5 * rng.standard_normal((2, n)))]
    return problem_dict(E, A, D, M, history, inhom)


def scalar_ode(lam, M=2):
    """x' = lam x, x = 1 on the history: the exact solution is exp(lam t)."""
    return problem_dict([[1.0]], [[float(lam)]], [[0.0]], M,
                        [(-TAU, 0.0, np.array([[1.0]]))],
                        [(0.0, M * TAU, np.array([[0.0]]))])


# -- worked examples -------------------------------------------------


def example_neutral(M=4):
    """0 = x + x(t-1) + 1 with history t (neutral, discontinuity invariant)."""
    return problem_dict([[0.0]], [[1.0]], [[1.0]], M,
                        [(-1.0, 0.0, np.array([[-1.0], [1.0]]))],
                        [(0.0, float(M), np.array([[1.0]]))])


def example_advanced(M=4):
    """Index 2; x2(t) = x2'(t-1), so one derivative is lost per knot."""
    coeffs = np.array([[1 / 3, -1 / 3], [0.0, -1.0], [-1.0, 0.0], [1 / 3, 1 / 3]])
    return problem_dict(np.diag([1.0, 0.0]), [[0.0, 1.0], [1.0, 0.0]],
                        np.diag([0.0, -1.0]), M, [(-1.0, 0.0, coeffs)],
                        [(0.0, float(M), np.zeros((1, 2)))])


def example_slow_smoothing(M=5):
    """Index 1, hiding the delay 2 tau: x1'(t) = x1(t-2)."""
    return problem_dict(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                        [[0.0, 1.0], [-1.0, 0.0]], M,
                        [(-1.0, 0.0, np.array([[-1.0, -1.0], [1.0, 0.0]]))],
                        [(0.0, float(M), np.zeros((1, 2)))])


def example_backward_desmoothing(M=3):
    """Index 2 (E D != 0) whose backward companion also de-smooths."""
    return problem_dict([[0.0, 1.0], [0.0, 0.0]], np.eye(2),
                        [[1.0, 1.0], [0.0, 1.0]], M,
                        [(-1.0, 0.0, np.zeros((1, 2)))],
                        [(0.0, float(M), np.zeros((1, 2)))])


def _hermite(left, right):
    """Monomial coefficients in s on [0, 1] with prescribed derivatives.

    left[k] = p^(k)(0), right[k] = p^(k)(1).
    """
    deg = len(left) + len(right) - 1
    rows, rhs = [], []
    for at, derivs in ((0.0, left), (1.0, right)):
        for k, value in enumerate(derivs):
            row = [math.factorial(j) / math.factorial(j - k) * at ** (j - k) if j >= k else 0.0
                   for j in range(deg + 1)]
            rows.append(row)
            rhs.append(value)
    return np.linalg.solve(np.array(rows), np.array(rhs))


def example_weak_desmoothing(rng, M=6):
    """Index-3 de-smoothing system whose history meets both splicing conditions.

    In quasi-Weierstrass coordinates (S = T = I, f = 0):
        v'    = v/4 + 0.4 v(t-1) + w0(t-1),
        w2    = 0,  w1 = -v(t-1),  w0 = -v'(t-1) - w0(t-1)/2.
    The history is a Hermite interpolant whose Taylor data at 0 equal the
    solution's right-hand Taylor data up to order 2; the free data at -1
    (and v(0)) are random.
    """
    J, b_d1, b_w = 0.25, 0.4, 0.5
    p = rng.standard_normal(4)          # psi^(k)(-1), k = 0..3
    e = rng.standard_normal(3)          # eta0^(k)(-1), k = 0..2
    e2 = rng.standard_normal(3)         # eta2^(k)(-1)
    e1 = rng.standard_normal(3)         # eta1^(k)(-1)
    v0 = rng.standard_normal()
    v1 = J * v0 + b_d1 * p[0] + e[0]
    v2 = J * v1 + b_d1 * p[1] + e[1]
    psi = _hermite(list(p), [v0, v1, v2])
    eta0 = _hermite(list(e), [-p[k + 1] - b_w * e[k] for k in range(3)])
    eta1 = _hermite(list(e1), [-p[k] for k in range(3)])
    eta2 = _hermite(list(e2), [0.0, 0.0, 0.0])
    parts = [psi, eta0, eta1, eta2]
    coeffs = np.zeros((max(len(c) for c in parts), len(parts)))
    for j, c in enumerate(parts):
        coeffs[: len(c), j] = c
    n = 4
    N = shift_nilpotent(3, 3)
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    E[1:, 1:] = N
    A = np.diag([J, 1.0, 1.0, 1.0])
    D = np.zeros((n, n))
    D[0, 0], D[0, 1] = b_d1, 1.0
    D[2, 0] = 1.0
    D[1, 1] = b_w
    return problem_dict(E, A, D, M, [(-1.0, 0.0, coeffs)],
                        [(0.0, float(M), np.zeros((1, n)))])


# -- workload assembly -----------------------------------------------


def _case(cid, command, problem, expect):
    return {"id": cid, "command": command, "problem": problem, "expect": expect}


def ode_orders(M, coupled=True):
    """Ledger first-jump orders of an index-0 system with a generic history.

    A history that matches in value but not in slope jumps at order 1 at
    t = 0; the delay carries a jump of order k at knot i to order k + 1
    at knot i + 1, so knot i jumps at order i + 1 while that is within
    the compared depth k_max = 2.  Without delay coupling nothing
    propagates past t = 0.
    """
    orders = [1]
    for i in range(1, M):
        orders.append(i + 1 if coupled and i + 1 <= 2 else None)
    return orders


def smoothing_dae_orders(M, nu):
    """First-jump orders of a smoothing system built by smoothing_blocks, nu >= 2.

    With N B_a = 0 the fast part w(t) = -B_a y(t - tau) - ... jumps at
    knot i at the slow part's order p_{i-1} of knot i - 1, and only in
    direction e_0, which B_a2 = e_0 r^T (r_0 = 0) does not pass on.  The
    slow part v' = J v + B_d y(t - tau) + ... then jumps at order
    p_i = min(p_{i-1}, p_{i-2}) + 1.  From order 1 in every component at
    t = 0 (p_0 = 1, p_1 = 2) knot i jumps at order min(p_i, p_{i-1}) =
    1 + floor(i / 2), compared up to k_max = nu + 2.
    """
    k_max = nu + 2
    return [1 + i // 2 if 1 + i // 2 <= k_max else None for i in range(M)]


def build_solve_ode(seed):
    rng = np.random.default_rng([seed, 1])
    cases = []
    # two draws per size, so no single draw's cost sets a percentile
    for k, (n, M) in enumerate(((8, 10), (12, 10), (4, 20)) * 2):
        cases.append(_case(f"ode-{k}-n{n}-M{M}", "solve", retarded_ode(rng, n, M),
                           {"exit": 0, "orders": ode_orders(M), "segments": M}))
    cases.append(_case("ode-breakpoints-n4-M10", "solve",
                       retarded_ode(rng, 4, 10, breakpoints=(0.3, 0.7)),
                       {"exit": 0, "orders": ode_orders(10), "segments": 10}))
    for lam in (-1000, -200, 30):
        cases.append(_case(f"ode-scalar-lam{lam}", "solve", scalar_ode(lam),
                           {"exit": 0, "orders": ode_orders(2, coupled=False),
                            "segments": 2}))
    return cases


def build_solve_dae(seed, refs):
    rng = np.random.default_rng([seed, 2])
    cases = []
    # twelve long-horizon systems and four short examples per pass: the
    # median invocation falls inside the long group, not in the gap between
    # the groups, and twelve random draws average out their cost spread
    for n_d, n_a, nu, M in ((1, 3, 2, 40), (2, 4, 3, 30), (1, 6, 3, 36), (2, 5, 2, 32),
                            (1, 4, 3, 34), (2, 3, 2, 38), (1, 5, 2, 30), (2, 6, 3, 40),
                            (1, 3, 3, 36), (2, 4, 2, 34), (1, 5, 3, 32), (2, 5, 3, 38)):
        problem, _ = qw_system(rng, n_d, n_a, nu, "smoothing", M)
        cases.append(_case(f"dae-nd{n_d}-na{n_a}-nu{nu}-M{M}", "solve", problem,
                           {"exit": 0, "orders": smoothing_dae_orders(M, nu),
                            "segments": M}))
    ex = refs["solve_examples"]
    for name, problem in (
        ("neutral", example_neutral(M=20)),
        ("slow_smoothing", example_slow_smoothing(M=5)),
        ("weak_desmoothing", example_weak_desmoothing(rng, M=6)),
        ("advanced", example_advanced(M=4)),
    ):
        cases.append(_case(f"example-{name}", "solve", problem, ex[name]))
    return cases


def build_stability(seed, refs):
    """Pool members drawn by seed in a fixed composition.

    Each run takes four n=4 systems the 80-grid search resolves and two
    it misses (the seed program's miss rate on n=4 is about one in
    three), one n=8 system of each kind, the marginal neutral example and
    a de-smoothing gate case.  The miss labels only steer the draw; the
    reference for every member is its 240-grid answer.
    """
    rng = np.random.default_rng([seed, 3])
    pool = refs["stability_pool"]
    take = []
    for n, hard, count in ((4, False, 4), (4, True, 2), (8, False, 1), (8, True, 1)):
        group = [m for m in pool if m["n"] == n and m["missed_at_grid80"] == hard
                 and not m["reference_incomplete"]]
        picks = rng.choice(len(group), size=count, replace=False)
        take += [group[int(i)] for i in sorted(picks)]
    cases = []
    for m in take:
        n = m["n"]
        problem = problem_dict(m["E"], m["A"], m["D"], 2,
                               [(-TAU, 0.0, np.ones((1, n)))],
                               [(0.0, 2 * TAU, np.zeros((1, n)))])
        cases.append(_case(f"stab-pool{m['id']}-n{n}", "stability", problem, {
            "exit": 0, "verdict": m["verdict_ref"], "alpha": m["alpha_ref"],
            "gate": "applicable"}))
    ex = refs["stability_examples"]
    cases.append(_case("stab-example-neutral", "stability", example_neutral(M=4),
                       ex["neutral"]))
    cases.append(_case("stab-example-advanced", "stability", example_advanced(M=4),
                       ex["advanced"]))
    return cases


# (n, n_a, nu, kind) for the analyze workload: n runs over 2..12 and the
# list covers every index 0..4 with every class that index admits.
ANALYZE_STRUCTURES = [
    (2, 0, 0, "retarded"), (3, 1, 1, "retarded"), (4, 2, 1, "smoothing"),
    (5, 3, 2, "smoothing"), (6, 2, 2, "invariant"), (7, 3, 2, "advanced"),
    (8, 4, 3, "smoothing"), (9, 4, 3, "advanced"), (10, 5, 4, "invariant"),
    (11, 0, 0, "retarded"), (12, 6, 4, "smoothing"),
    (2, 1, 1, "invariant"), (3, 2, 2, "advanced"), (4, 3, 3, "smoothing"),
    (5, 2, 1, "invariant"), (6, 4, 4, "advanced"), (7, 2, 1, "retarded"),
    (8, 3, 3, "invariant"), (9, 5, 2, "smoothing"), (10, 4, 2, "advanced"),
    (11, 5, 3, "retarded"), (12, 4, 1, "smoothing"),
    (2, 2, 2, "advanced"), (3, 3, 3, "invariant"), (4, 0, 0, "retarded"),
    (5, 4, 4, "smoothing"), (6, 3, 1, "smoothing"), (7, 4, 4, "invariant"),
    (8, 5, 3, "advanced"), (9, 3, 2, "retarded"), (10, 6, 3, "smoothing"),
    (11, 4, 2, "invariant"), (12, 5, 4, "advanced"),
    (3, 2, 1, "smoothing"), (4, 2, 2, "invariant"), (5, 3, 3, "advanced"),
    (6, 0, 0, "retarded"), (7, 5, 2, "smoothing"), (8, 2, 2, "retarded"),
    (9, 6, 4, "invariant"), (10, 3, 3, "advanced"), (11, 6, 2, "smoothing"),
    (12, 7, 3, "invariant"), (6, 5, 1, "invariant"),
]

ANALYZE_COMMANDS = ("analyze", "check-history", "hidden-delays")


def build_analyze(seed, refs):
    rng = np.random.default_rng([seed, 4])
    systems = []
    for k, (n, n_a, nu, kind) in enumerate(ANALYZE_STRUCTURES):
        # every fourth system with an algebraic part gets an inadmissible history
        admissible = not (n_a and k % 4 == 3)
        problem, truth = qw_system(rng, n - n_a, n_a, nu, kind, 4, admissible=admissible)
        systems.append((f"pencil{k:02d}-n{n}-na{n_a}-nu{nu}-{kind}", problem, truth))
    ex = refs["analyze_examples"]
    for name, problem in (
        ("neutral", example_neutral(M=4)),
        ("advanced", example_advanced(M=4)),
        ("slow_smoothing", example_slow_smoothing(M=5)),
        ("backward_desmoothing", example_backward_desmoothing(M=3)),
        ("weak_desmoothing", example_weak_desmoothing(rng, M=6)),
    ):
        systems.append((f"example-{name}", problem, ex[name]))
    cases = []
    for sid, problem, truth in systems:
        for command in ANALYZE_COMMANDS:
            cases.append(_case(f"{sid}-{command}", command, problem, dict(truth, exit=0)))
    return cases


def build(workload, seed, refs=None):
    """The case list of one workload for one seed, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    refs = refs if refs is not None else load_references()
    if workload == "solve-ode":
        return build_solve_ode(seed)
    if workload == "solve-dae":
        return build_solve_dae(seed, refs)
    if workload == "stability":
        return build_stability(seed, refs)
    return build_analyze(seed, refs)


def write_problems(cases, directory):
    """Write one problem file per distinct problem; returns total bytes."""
    total = 0
    written = {}
    for case in cases:
        text = dump_json(case["problem"])
        path = written.get(text)
        if path is None:
            path = os.path.join(directory, case["id"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written[text] = path
            total += len(text)
        case["problem_path"] = path
    return total
