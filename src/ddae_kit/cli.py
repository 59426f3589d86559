"""Command-line workflow: analyze / solve / stability / hidden-delays /
check-history / probe.

All reports are JSON tagged with "schema": "ddae-kit/1"; trajectories
are CSV with knot rows emitted twice (side column L and R) so primary
discontinuities stay visible in plots.  stdout carries no diagnostics;
errors go to stderr and are signalled through the exit code:

    0  success
    2  inconsistent restart (partial outputs written)
    3  irregular pencil
    4  malformed input: the problem file, the command line, or an output
       path that cannot be written
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from dataclasses import asdict, fields, replace

import numpy as np

from .classify import PropagationKind, build_backward_system, classify
from .errors import (
    DdaeKitError,
    InconsistentRestart,
    NotSmoothingType,
    SingularPencil,
)
from .history import check_index3_uniqueness, construct_probe_history, splicing_report
from .model import build_split, split_matrices
from .problemfile import _encode_matrix, _encode_pieces, _encode_scalar, load_problem
from .reform import expand_hidden_delays
from .solver import LedgerEntry, SolverConfig, method_of_steps
from .stability import (SearchBox, assess_exponential_stability, default_box,
                        spectral_abscissa)
from .cheb import cgl_nodes

SCHEMA = "ddae-kit/1"

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_IRREGULAR = 3
EXIT_MALFORMED = 4


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _analyze_payload(sys):
    split = build_split(sys)
    M = sys.horizon_intervals
    report = classify(split, M)
    verdict = sys.regularity
    idx3 = check_index3_uniqueness(split)
    splice = splicing_report(sys, split)

    backward = build_backward_system(sys)
    bw = {
        "regular": bool(backward.regularity.regular),
        "det_D": _encode_scalar(backward.det_D, np.iscomplexobj(backward.det_D)),
        "propagation": None,
        "legacy": None,
    }
    if backward.system is not None:
        bw_sys = backward.system
        bw_split = split_matrices(bw_sys.qwf, bw_sys.D)
        bw_report = classify(bw_split, M)
        bw["propagation"] = bw_report.propagation.kind.value
        bw["legacy"] = bw_report.legacy.kind.value

    hidden = None
    if report.propagation.kind is PropagationKind.SMOOTHING:
        exp = expand_hidden_delays(sys, split)
        hidden = {
            "nu_D": exp.nu_D,
            "delay_count": len(exp.D_delays),
            "delays": exp.delays,
        }

    return {
        "schema": SCHEMA,
        "regularity": {
            "regular": bool(verdict.regular),
            "witness": verdict.witness,
            "det_magnitude": verdict.det_magnitude,
        },
        "decomposition": {
            "n_d": split.n_d,
            "n_a": split.n_a,
            "index": split.nu,
            "rank_ambiguous": bool(split.qwf.rank_ambiguous),
        },
        "propagation": {
            **asdict(report.propagation),
            "kind": report.propagation.kind.value,
        },
        "legacy": report.legacy.kind.value,
        "evidence": report.evidence,
        "cross_check": bool(report.consistency_flag),
        "index3_uniqueness": asdict(idx3),
        "backward": bw,
        "hidden_delays": hidden,
        "history_checks": asdict(splice),
    }


def cmd_analyze(args):
    sys_ = load_problem(args.problem)
    _write_json(args.out, _analyze_payload(sys_))
    return EXIT_OK


def _write_trajectory_csv(path, sys_, trajectory):
    """Each piece sampled at the CGL nodes of its own degree (at least its
    two ends), so the rows of a piece determine it exactly.

    A segment's rows are evaluated into one array and written with one
    row format; a knot shared by two pieces appears once, and the first
    and last rows of a segment carry the side markers R and L.
    """
    parts = {"_re": np.real, "_im": np.imag} if sys_.is_complex else {"": np.real}
    cols = [f"x_{j}{suffix}" for j in range(1, sys_.n + 1) for suffix in parts]
    row = ",".join(["%.17g"] * (1 + len(cols))) + ",%s\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t"] + cols + ["side"]) + "\n")
        for seg in trajectory.segments:
            offset = (seg.index - 1) * trajectory.tau
            times, values = [], []
            for p_idx, (a, b, coef) in enumerate(seg.pieces.pieces):
                unit_nodes = cgl_nodes(max(coef.shape[0] - 1, 1))
                nodes = 0.5 * (a + b) + 0.5 * (b - a) * unit_nodes
                skip = 1 if p_idx else 0  # shared knot: already the last row
                times.append(nodes[skip:])
                values.append(seg.pieces.basis.eval(coef, a, b, nodes).T[skip:])
            v = np.concatenate(values)
            columns = np.stack([part(v) for part in parts.values()], axis=2)
            table = np.column_stack(
                [offset + np.concatenate(times), columns.reshape(len(v), -1)]
            )
            sides = [""] * len(table)
            sides[-1] = "L"
            sides[0] = "R"
            fh.write("".join(row % (*r, side)
                             for r, side in zip(table.tolist(), sides)))


def _ledger_payload(ledger, tau):
    # not asdict, which would deep-copy each jump_vector only to drop it
    names = [f.name for f in fields(LedgerEntry) if f.name != "jump_vector"]
    return {
        "schema": SCHEMA,
        "tau": float(tau),
        "knots": [{k: getattr(e, k) for k in names} for e in ledger.entries],
    }


def cmd_solve(args):
    sys_ = load_problem(args.problem)
    config = SolverConfig(k_max=args.kmax, on_inconsistent=args.on_inconsistent)
    if args.degree is not None:
        config = replace(config, degree=args.degree)
    # a hard stop (--on-inconsistent stop) raises before any output is written
    trajectory, ledger = method_of_steps(sys_, config=config)
    _write_trajectory_csv(args.out_csv, sys_, trajectory)
    _write_json(args.ledger_out, _ledger_payload(ledger, sys_.tau))
    if ledger.has_inconsistent:
        print("warning: inconsistent restart; partial outputs written",
              file=_sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_stability(args):
    sys_ = load_problem(args.problem)
    split = build_split(sys_)
    box = None
    if args.re_min is not None or args.re_max is not None or args.im_max is not None:
        base = default_box(sys_.E, sys_.A, sys_.D, sys_.tau)
        box = SearchBox(
            re_min=args.re_min if args.re_min is not None else base.re_min,
            re_max=args.re_max if args.re_max is not None else base.re_max,
            im_max=args.im_max if args.im_max is not None else base.im_max,
        )
    report = spectral_abscissa(sys_, box=box, grid=args.grid)
    verdict = assess_exponential_stability(sys_, split, report)
    payload = {
        "schema": SCHEMA,
        "alpha": report.alpha,
        "roots": [
            {"lambda": [lam.real, lam.imag], "residual": res}
            for lam, res in report.rightmost_roots
        ],
        "box": asdict(report.box),
        "grid": list(report.grid),
        "box_limited": report.box_limited,
        "no_roots": report.no_roots,
        "gate": report.gate,
        "verdict": verdict.value,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_hidden_delays(args):
    sys_ = load_problem(args.problem)
    split = build_split(sys_)
    try:
        exp = expand_hidden_delays(sys_, split)
    except NotSmoothingType as exc:
        _write_json(
            args.out,
            {"schema": SCHEMA, "applicable": False, "reason": str(exc)},
        )
        return EXIT_OK
    payload = {
        "schema": SCHEMA,
        "applicable": True,
        "nu_D": exp.nu_D,
        "delays": exp.delays,
        "J": _encode_matrix(exp.J, np.iscomplexobj(exp.J)),
        "D": [_encode_matrix(Dk, np.iscomplexobj(Dk)) for Dk in exp.D_delays],
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_check_history(args):
    sys_ = load_problem(args.problem)
    split = build_split(sys_)
    splice = splicing_report(sys_, split)
    _write_json(args.out, {"schema": SCHEMA, **asdict(splice)})
    return EXIT_OK


def cmd_probe(args):
    sys_ = load_problem(args.problem)
    split = build_split(sys_)
    dim = split.n_d if args.side == "slow" else split.n_a
    if dim == 0:
        print(f"error: system has no {args.side} part", file=_sys.stderr)
        return EXIT_MALFORMED
    target = np.zeros(dim)
    target[0] = 1.0
    try:
        if args.target:
            target = np.array([float(v) for v in args.target.split(",")])
            if not np.all(np.isfinite(target)):
                raise ValueError("--target values must be finite")
        phi = construct_probe_history(sys_, split, args.order, target, side=args.side)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_MALFORMED
    payload = {
        "schema": SCHEMA,
        "order": args.order,
        "side": args.side,
        "target": [float(v) for v in np.real(target)],
        "history": _encode_pieces(phi, np.iscomplexobj(phi.pieces[0][2])),
    }
    _write_json(args.out, payload)
    return EXIT_OK


class UsageError(DdaeKitError):
    """The command line was rejected by the argument parser."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print
    the usage and exit 2, the exit code of an inconsistent restart."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call reuses it."""
    parser = _Parser(
        prog="ddae-kit",
        description="Analyze and solve linear delay differential-algebraic equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full structural report")
    p.add_argument("problem")
    p.add_argument("out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="method-of-steps trajectory and jump ledger")
    p.add_argument("problem")
    p.add_argument("out_csv")
    p.add_argument("ledger_out")
    p.add_argument("--degree", type=int, default=None,
                   help="top collocation degree: pieces that degree 16 does not "
                        "resolve are solved again at D (default: "
                        "SolverConfig.degree)")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument(
        "--on-inconsistent", choices=("stop", "record"), default="record",
        dest="on_inconsistent",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stability", help="spectral abscissa and verdict")
    p.add_argument("problem")
    p.add_argument("out")
    p.add_argument("--re-min", type=float, default=None, dest="re_min")
    p.add_argument("--re-max", type=float, default=None, dest="re_max")
    p.add_argument("--im-max", type=float, default=None, dest="im_max")
    p.add_argument("--grid", type=int, default=80)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("hidden-delays", help="retarded multi-delay reformulation")
    p.add_argument("problem")
    p.add_argument("out")
    p.set_defaults(func=cmd_hidden_delays)

    p = sub.add_parser("check-history", help="admissibility and splicing checks")
    p.add_argument("problem")
    p.add_argument("out")
    p.set_defaults(func=cmd_check_history)

    p = sub.add_parser("probe", help="construct a worst-case probe history")
    p.add_argument("problem")
    p.add_argument("out")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--side", choices=("slow", "fast"), default="slow")
    p.add_argument("--target", type=str, default=None)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SingularPencil as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IRREGULAR
    except InconsistentRestart as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INCONSISTENT
    except (DdaeKitError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
