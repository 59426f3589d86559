"""Reference checks of CLI outputs and the solve accuracy probe.

Every output gets one of three outcomes:

* ``hard`` failure: the invocation raised, returned another exit code
  than expected, wrote a malformed output, or contradicts an exact
  structural answer (index, class, admissibility, ledger orders, the
  ledger of an independent re-solve).  The seed program has none; any
  hard failure makes the run incorrect.
* reference ``miss``: the output is well formed but a number or verdict
  disagrees with the stored reference beyond its tolerance (solve
  residual above RESIDUAL_TOL, abscissa or stability verdict off the
  fine-grid reference).  The seed program has known misses; they count in
  fail_rate, not in correctness.
* pass.

Each outcome also carries the accuracy in digits where the output has
one (see ``digits``).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

RESIDUAL_TOL = 1e-8
DIGITS_CAP = 16.0
# Off-node fractions of a delay interval at which the accuracy probe
# evaluates the DAE residual; none is a collocation node or a breakpoint.
PROBE_FRACTIONS = (0.1234567, 0.3183099, 0.5772157, 0.6931472, 0.8862269)


class HardFailure(Exception):
    pass


def digits(rel_error):
    """-log10 of a relative error, clipped to [0, DIGITS_CAP]."""
    if not rel_error > 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(rel_error)))


def _expect(cond, message):
    if not cond:
        raise HardFailure(message)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HardFailure(f"unreadable output {path}: {exc}") from exc


# -- analyze / check-history / hidden-delays -------------------------


def check_analyze(case, payload):
    t = case["expect"]
    _expect(payload.get("schema") == "ddae-kit/1", "schema tag")
    _expect(payload["regularity"]["regular"] is True, "regularity")
    dec = payload["decomposition"]
    got = (dec["n_d"], dec["n_a"], dec["index"])
    _expect(got == (t["n_d"], t["n_a"], t["index"]), f"n_d/n_a/index {got}")
    prop = payload["propagation"]
    _expect(prop["kind"] == t["propagation"], f"propagation {prop['kind']}")
    _expect(payload["legacy"] == t["legacy"], f"legacy {payload['legacy']}")
    _expect(prop["first_violating_k"] == t["first_violating_k"], "first_violating_k")
    if t["propagation"] != "de_smoothing":
        _expect(prop["nu_D"] == t["nu_D"], f"nu_D {prop['nu_D']}")
    _expect(payload["cross_check"] is True, "cross check")
    hidden = payload["hidden_delays"]
    if t["propagation"] == "smoothing":
        _expect(hidden is not None and hidden["nu_D"] == t["nu_D"]
                and hidden["delay_count"] == t["nu_D"] + 1, "hidden delays")
    else:
        _expect(hidden is None, "hidden delays on a non-smoothing system")
    _expect(payload["backward"]["regular"] == t["backward_regular"], "backward regularity")
    return _check_history_block(case, payload["history_checks"])


def _check_history_block(case, block):
    t = case["expect"]
    _expect(block["admissible"] == t["admissible"], f"admissible {block['admissible']}")
    if t["admissible"] and t.get("phi0_norm") is not None:
        return False, digits(block["admissible_residual"] / (1.0 + t["phi0_norm"]))
    return False, None


def check_history(case, payload):
    _expect(payload.get("schema") == "ddae-kit/1", "schema tag")
    return _check_history_block(case, payload)


def check_hidden(case, payload):
    t = case["expect"]
    _expect(payload.get("schema") == "ddae-kit/1", "schema tag")
    smoothing = t["propagation"] == "smoothing"
    _expect(payload["applicable"] is smoothing, f"applicable {payload['applicable']}")
    if smoothing:
        _expect(payload["nu_D"] == t["nu_D"], "nu_D")
        _expect(len(payload["delays"]) == t["nu_D"] + 1, "delay list")
        _expect(len(payload["D"]) == t["nu_D"] + 1, "delay matrices")
        n_d = t["n_d"]
        _expect(len(payload["J"]) == n_d, "J shape")
    return False, None


# -- stability -------------------------------------------------------


def check_stability(case, payload, alpha_rtol):
    t = case["expect"]
    _expect(payload.get("schema") == "ddae-kit/1", "schema tag")
    _expect(payload["grid"] == [80, 80], "default grid")
    _expect(payload["gate"] == t["gate"], f"gate {payload['gate']}")
    if t["gate"] != "applicable":
        _expect(payload["verdict"] == t["verdict"], f"verdict {payload['verdict']}")
        return False, None
    for root in payload["roots"]:
        _expect(len(root["lambda"]) == 2 and root["residual"] >= 0.0, "root record")
    alpha = payload["alpha"]
    if alpha is None:
        return True, 0.0
    err = abs(alpha - t["alpha"]) / (1.0 + abs(t["alpha"]))
    miss = payload["verdict"] != t["verdict"] or err > alpha_rtol
    return miss, digits(err)


# -- solve -----------------------------------------------------------


def check_ledger(case, ledger):
    t = case["expect"]
    _expect(ledger.get("schema") == "ddae-kit/1", "schema tag")
    knots = ledger["knots"]
    orders = [k["first_jump_order"] for k in knots]
    _expect(orders == t["orders"], f"ledger orders {orders} != {t['orders']}")
    _expect([k["knot_index"] for k in knots] == list(range(len(knots))), "knot indices")
    bad = [k["knot_index"] for k in knots if k["inconsistent_restart"]]
    if "inconsistent_at" in t:
        _expect(bad == [t["inconsistent_at"]], f"inconsistent restarts {bad}")
        _expect(abs(knots[-1]["jump_norm"] - t["jump_norm_last"]) <= 1e-8, "breakdown jump")
    else:
        _expect(not bad, f"inconsistent restarts {bad}")
    if "jump_norm" in t:
        norms = [k["jump_norm"] for k in knots]
        _expect(all(abs(v - t["jump_norm"]) <= 1e-8 for v in norms), "jump norms")


def check_trajectory_csv(case, path, n, t_final):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    _expect(header == ["t"] + [f"x_{j}" for j in range(1, n + 1)] + ["side"], "csv header")
    body = rows[1:]
    values = np.array([[float(v) for v in r[:-1]] for r in body])
    _expect(values.shape[1] == n + 1 and np.all(np.isfinite(values)), "csv values")
    ts = values[:, 0]
    _expect(np.all(np.diff(ts) >= 0.0) and ts[0] == 0.0 and ts[-1] <= t_final * (1 + 1e-12),
            "csv time column")
    starts = sum(1 for r in body if r[-1] == "R")
    _expect(starts == case["expect"]["segments"], f"segments in csv {starts}")


def probe_solve(case, ledger_payload):
    """Re-solve in-process, match the CLI ledger, return the max relative residual.

    The residual ||E x' - A x - D x(t - tau) - f|| / sum of the term norms
    is evaluated at PROBE_FRACTIONS of every solved delay interval, off
    the collocation nodes.
    """
    from ddae_kit.problemfile import load_problem
    from ddae_kit.solver import method_of_steps

    sys_ = load_problem(case["problem_path"])
    traj, ledger = method_of_steps(sys_)
    mine = [(e.knot_index, e.time, e.matched_order, e.first_jump_order, e.jump_norm,
             e.inconsistent_restart) for e in ledger.entries]
    theirs = [(k["knot_index"], k["time"], k["matched_order"], k["first_jump_order"],
               k["jump_norm"], k["inconsistent_restart"]) for k in ledger_payload["knots"]]
    _expect(mine == theirs, "re-solve ledger differs from the CLI ledger")
    tau = sys_.tau
    worst = 0.0
    for i in range(1, len(traj.segments) + 1):
        for frac in PROBE_FRACTIONS:
            t = (i - 1 + frac) * tau
            x = traj.evaluate(t)
            xp = traj.evaluate(t, order=1)
            xd = sys_.phi.evaluate(t - tau) if i == 1 else traj.evaluate(t - tau)
            terms = [sys_.E @ xp, sys_.A @ x, sys_.D @ xd, sys_.f.evaluate(t)]
            resid = terms[0] - terms[1] - terms[2] - terms[3]
            scale = sum(float(np.linalg.norm(v)) for v in terms)
            if scale > 0.0:
                worst = max(worst, float(np.linalg.norm(resid)) / scale)
    return worst


def check_solve(case, ledger_path, csv_path):
    ledger = _read_json(ledger_path)
    check_ledger(case, ledger)
    problem = case["problem"]
    check_trajectory_csv(case, csv_path, problem["dimension"],
                         problem["tau"] * problem["horizon_intervals"])
    resid = probe_solve(case, ledger)
    return resid > RESIDUAL_TOL, digits(resid)


def check_outputs(case, outputs, alpha_rtol):
    """(miss, digits) for a finished invocation; raises HardFailure."""
    command = case["command"]
    if command == "solve":
        return check_solve(case, outputs[1], outputs[0])
    payload = _read_json(outputs[0])
    if command == "analyze":
        return check_analyze(case, payload)
    if command == "check-history":
        return check_history(case, payload)
    if command == "hidden-delays":
        return check_hidden(case, payload)
    return check_stability(case, payload, alpha_rtol)
