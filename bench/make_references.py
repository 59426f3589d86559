"""Regenerate bench/references.json, the stored reference answers.

    python3 bench/make_references.py

Stability: a fixed pool of random retarded systems (E well conditioned,
A and D standard normal) drawn from fixed generator seeds.  Each member's
reference abscissa is the largest real part among the roots that 240x240
and 320x320 grid searches find and that pass the residual filter; the
verdict is the one of the search with that root.  The default 80x80
answer is recorded next to it only to label the members the coarse grid
misses, which the stability workload draws in a fixed proportion.  A
member whose coarse answer lies to the right of the reference shows that
the fine grids missed a root too; it is marked reference_incomplete and
never drawn.

Worked examples: ledgers, exit codes and structure follow from the
classification theory and are written out below by hand.  Every
benchmark run checks the program against them; a disagreement is a
failure of the program's output, never a reason to edit a reference.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import ddae_kit as dk  # noqa: E402
from ddae_kit.problemfile import problem_from_dict  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 20240917
POOL_SIZES = {4: 30, 8: 14}
REFERENCE_GRIDS = (240, 320)
ALPHA_RTOL = 1e-6

# Ledger first-jump orders from the theory (None: matched through k_max).
SOLVE_EXAMPLES = {
    # 0 = x + x(t-1) + 1, history t: x' flips sign across every knot and
    # the jump x'(i+) - x'(i-) = +-2 never moves (discontinuity invariant).
    "neutral": {"exit": 0, "orders": [1] * 20, "jump_norm": 2.0, "segments": 20},
    # x1' = x1(t-2) through x2 = x1(t-1): a jump of order k at knot i
    # reappears at order k at knot i+1 in x2 and at order k+1 in x1, so
    # knot i jumps at order 1 + floor(i/2) (k_max = nu + 2 = 3).
    "slow_smoothing": {"exit": 0, "orders": [1, 1, 2, 2, 3], "segments": 5},
    # History spliced to order 2: knot 0 jumps at order 3; w0 = -v'(t-1)
    # - w0(t-1)/2 loses one order once, after which w0 keeps order 2
    # (N^2 B_a = 0), so the sweep completes.
    "weak_desmoothing": {"exit": 0, "orders": [3, 2, 2, 2, 2, 2], "segments": 6},
    # x2(t) = x2'(t-1): the order drops by one per knot from 3 until the
    # restart at t = 3 is inconsistent (exit code 2, partial outputs).
    "advanced": {"exit": 2, "orders": [3, 2, 1, 0], "inconsistent_at": 3,
                 "jump_norm_last": 2.0, "segments": 3},
}

# Structure of the worked examples (index, both classes, nu_D, witness).
ANALYZE_EXAMPLES = {
    "neutral": {"n_d": 0, "n_a": 1, "index": 1, "propagation": "discontinuity_invariant",
                "legacy": "neutral", "nu_D": None, "first_violating_k": None,
                "backward_regular": True, "admissible": True, "phi0_norm": 0.0},
    "advanced": {"n_d": 0, "n_a": 2, "index": 2, "propagation": "de_smoothing",
                 "legacy": "advanced", "nu_D": None, "first_violating_k": 1,
                 "backward_regular": False, "admissible": True, "phi0_norm": 1.0540925533894598},
    "slow_smoothing": {"n_d": 1, "n_a": 1, "index": 1, "propagation": "smoothing",
                       "legacy": "neutral", "nu_D": 1, "first_violating_k": None,
                       "backward_regular": True, "admissible": True,
                       "phi0_norm": 1.0},
    "backward_desmoothing": {"n_d": 0, "n_a": 2, "index": 2, "propagation": "de_smoothing",
                             "legacy": "advanced", "nu_D": None, "first_violating_k": 1,
                             "backward_regular": True, "admissible": True, "phi0_norm": 0.0},
    "weak_desmoothing": {"n_d": 1, "n_a": 3, "index": 3, "propagation": "de_smoothing",
                         "legacy": "advanced", "nu_D": None, "first_violating_k": 1,
                         "backward_regular": False, "admissible": True, "phi0_norm": None},
}


def _stability(problem, grid):
    sys_ = problem_from_dict(problem)
    report = dk.spectral_abscissa(sys_, grid=grid)
    verdict = dk.assess_exponential_stability(sys_, dk.build_split(sys_), report)
    return report, verdict.value


def _stability_problem(E, A, D):
    n = len(E)
    return wl.problem_dict(E, A, D, 2, [(-1.0, 0.0, np.ones((1, n)))],
                           [(0.0, 2.0, np.zeros((1, n)))])


def _misses(alpha, verdict, alpha_ref, verdict_ref):
    if verdict != verdict_ref:
        return True
    if alpha_ref is None or alpha is None:
        return alpha_ref != alpha
    return abs(alpha - alpha_ref) > ALPHA_RTOL * (1.0 + abs(alpha_ref))


def stability_pool():
    pool = []
    for n, count in POOL_SIZES.items():
        for k in range(count):
            rng = np.random.default_rng([POOL_SEED, n, k])
            E = wl.well_conditioned(rng, n)
            A = rng.standard_normal((n, n))
            D = rng.standard_normal((n, n))
            problem = _stability_problem(E, A, D)
            fine = [_stability(problem, g) + (g,) for g in REFERENCE_GRIDS]
            ref, verdict_ref, grid_ref = max(
                fine, key=lambda r: -np.inf if r[0].alpha is None else r[0].alpha)
            coarse, verdict80 = _stability(problem, 80)
            missed = _misses(coarse.alpha, verdict80, ref.alpha, verdict_ref)
            incomplete = coarse.alpha is not None and (
                ref.alpha is None
                or coarse.alpha > ref.alpha + ALPHA_RTOL * (1.0 + abs(ref.alpha)))
            member = {
                "id": len(pool), "n": n,
                "E": problem["E"], "A": problem["A"], "D": problem["D"],
                "alpha_ref": ref.alpha, "verdict_ref": verdict_ref,
                "reference_grid": grid_ref,
                "alpha_by_grid": {str(g): r.alpha for r, _, g in fine},
                "alpha_grid80": coarse.alpha, "verdict_grid80": verdict80,
                "missed_at_grid80": missed,
                "reference_incomplete": incomplete,
            }
            print(f"pool {member['id']:2d} n={n} alpha_ref={ref.alpha:+.6f} "
                  f"{verdict_ref:<18} grid80 alpha={coarse.alpha:+.6f} {verdict80:<18}"
                  f"{' MISS' if missed else ''}{' INCOMPLETE' if incomplete else ''}", file=sys.stderr)
            pool.append(member)
    return pool


def stability_examples():
    ref, verdict = _stability(wl.example_neutral(M=4), REFERENCE_GRIDS[0])
    return {
        # roots i*pi*(2k+1) on the imaginary axis
        "neutral": {"exit": 0, "verdict": "marginal", "alpha": 0.0, "gate": "applicable",
                    "alpha_grid240": ref.alpha, "verdict_grid240": verdict},
        # de-smoothing: the gate refuses to judge by the abscissa
        "advanced": {"exit": 0, "verdict": "inconclusive_de_smoothing", "alpha": None,
                     "gate": "not_applicable_de_smoothing"},
    }


def main():
    refs = {
        "schema": "ddae-kit-bench/1",
        "alpha_rtol": ALPHA_RTOL,
        "stability_pool": stability_pool(),
        "stability_examples": stability_examples(),
        "solve_examples": SOLVE_EXAMPLES,
        "analyze_examples": ANALYZE_EXAMPLES,
    }
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    pool = refs["stability_pool"]
    for n in POOL_SIZES:
        members = [m for m in pool if m["n"] == n]
        print(f"n={n}: {sum(m['missed_at_grid80'] for m in members)} of "
              f"{len(members)} missed at grid 80", file=sys.stderr)


if __name__ == "__main__":
    main()
