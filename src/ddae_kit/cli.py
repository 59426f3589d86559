"""Command-line workflow: analyze / solve / stability / hidden-delays /
check-history / probe.

`main` parses the command line, loads the problem and splits its pencil
once, and hands both to the command, `cmd_<name>(args, sys, split)`.
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
import sys as _sys
from dataclasses import asdict, fields

import numpy as np

from .classify import PropagationKind, build_backward_system, classify
from .errors import (
    DdaeKitError,
    NotSmoothingType,
    SingularPencil,
)
from .history import check_index3_uniqueness, construct_probe_history, splicing_report
from .model import build_split, split_matrices
from .piecewise import _padded, cgl_samples
from .problemfile import (_encode_matrix, _encode_pieces, _encode_scalar, load_problem,
                          write_json)
from .reform import expand_hidden_delays
from .solver import LedgerEntry, SolverConfig, method_of_steps
from .stability import (StabilityVerdict, assess_exponential_stability, default_box,
                        spectral_abscissa)

SCHEMA = "ddae-kit/1"

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_IRREGULAR = 3
EXIT_MALFORMED = 4


def _write_report(path, payload):
    """Write one JSON report, tagged with the schema."""
    write_json(path, {"schema": SCHEMA, **payload})


def cmd_analyze(args, sys_, split):
    M = sys_.horizon_intervals
    report = classify(split, M)
    verdict = sys_.regularity
    idx3 = check_index3_uniqueness(split)
    splice = splicing_report(sys_, split)

    backward = build_backward_system(sys_)
    bw = {
        "regular": bool(backward.regularity.regular),
        "det_D": _encode_scalar(backward.det_D, np.iscomplexobj(backward.det_D)),
        "propagation": None,
        "legacy": None,
    }
    if backward.qwf is not None:
        bw_report = classify(split_matrices(backward.qwf, backward.D), M)
        bw["propagation"] = bw_report.propagation.kind.value
        bw["legacy"] = bw_report.legacy.kind.value

    hidden = None
    if report.propagation.kind is PropagationKind.SMOOTHING:
        exp = expand_hidden_delays(sys_, split)
        hidden = {
            "nu_D": exp.nu_D,
            "delay_count": len(exp.D_delays),
            "delays": exp.delays,
        }

    _write_report(args.out, {
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
    })
    return EXIT_OK


# the trajectory CSV is formatted in chunks of whole segments of about
# this many rows, so the values, Python floats and text it holds at once
# stay bounded whatever the horizon
CSV_CHUNK_ROWS = 4096


def _write_trajectory_csv(path, sys_, trajectory):
    """Each piece sampled at the CGL nodes of its own degree (at least its
    two ends), so the rows of a piece determine it exactly.

    A knot shared by two pieces of a segment appears once, and the first
    and last rows of a segment carry the side markers R and L.  Whole
    segments are written in chunks of about CSV_CHUNK_ROWS rows; the
    pieces of a chunk are sampled at once (piecewise.cgl_samples, bit for
    bit one evaluation per piece) and formatted by one format call.
    """
    parts = {"_re": np.real, "_im": np.imag} if sys_.is_complex else {"": np.real}
    cols = [f"x_{j}{suffix}" for j in range(1, sys_.n + 1) for suffix in parts]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t"] + cols + ["side"]) + "\n")
        chunk, rows = [], 0
        for seg in trajectory.segments:
            chunk.append(seg)
            rows += int(np.maximum(seg.pieces._stack[3], 2).sum())
            if rows >= CSV_CHUNK_ROWS or seg is trajectory.segments[-1]:
                fh.write(_segment_rows(chunk, trajectory.tau, parts))
                chunk, rows = [], 0


def _segment_rows(segs, tau, parts):
    """The CSV rows of one or more segments."""
    a, b, coefs, lengths = zip(*(seg.pieces._stack for seg in segs))
    per_seg = np.array(list(map(len, a)))
    stack, _ = _padded([c for seg in coefs for c in seg], np.result_type(*coefs))
    nodes, values, counts = cgl_samples((np.concatenate(a), np.concatenate(b), stack,
                                         np.concatenate(lengths)))
    offsets = np.repeat([(seg.index - 1) * tau for seg in segs], per_seg)
    times = np.repeat(offsets, counts) + nodes
    # the first row of a piece after a segment's first is the knot it
    # shares with the piece before
    opens = np.zeros(len(counts), dtype=bool)
    opens[np.cumsum(per_seg) - per_seg] = True
    keep = np.ones(len(nodes), dtype=bool)
    keep[(np.cumsum(counts) - counts)[~opens]] = False
    times, values = times[keep], values[keep]
    columns = np.stack([part(values) for part in parts.values()], axis=2)
    table = np.column_stack([times, columns.reshape(len(times), -1)])
    row = ",".join(["%.17g"] * table.shape[1])
    template = "".join(f"{row},R\n" + f"{row},\n" * (r - 2) + f"{row},L\n"
                       for r in np.add.reduceat(counts - ~opens, np.flatnonzero(opens)).tolist())
    return template % tuple(table.ravel().tolist())


def _ledger_payload(ledger, tau):
    # not asdict, which would deep-copy each jump_vector only to drop it
    names = [f.name for f in fields(LedgerEntry) if f.name != "jump_vector"]
    return {
        "tau": float(tau),
        "knots": [{k: getattr(e, k) for k in names} for e in ledger.entries],
        "unresolved_pieces": [list(run) for run in ledger.unresolved_pieces],
    }


def cmd_solve(args, sys_, split):
    trajectory, ledger = method_of_steps(sys_, split, SolverConfig(k_max=args.kmax))
    _write_trajectory_csv(args.out_csv, sys_, trajectory)
    _write_report(args.ledger_out, _ledger_payload(ledger, sys_.tau))
    if ledger.unresolved_pieces:
        print(f"warning: {len(ledger.unresolved_pieces)} run(s) of pieces failed the "
              "collocation certificate at the width floor; see unresolved_pieces",
              file=_sys.stderr)
    if ledger.has_inconsistent:
        print("warning: inconsistent restart; partial outputs written",
              file=_sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_stability(args, sys_, split):
    given = {k: getattr(args, k) for k in ("re_min", "re_max", "im_max")
             if getattr(args, k) is not None}
    box = default_box(sys_.E, sys_.A, sys_.D, sys_.tau, **given)
    report = spectral_abscissa(sys_, box=box, grid=args.grid)
    verdict = assess_exponential_stability(sys_, split, report)
    gated = verdict is StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
    _write_report(args.out, {
        "alpha": report.alpha,
        "roots": [
            {"lambda": [lam.real, lam.imag], "residual": res}
            for lam, res in report.rightmost_roots
        ],
        "box": asdict(report.box),
        "grid": list(report.grid),
        "box_limited": report.box_limited,
        "no_roots": report.no_roots,
        "gate": "not_applicable_de_smoothing" if gated else "applicable",
        "verdict": verdict.value,
    })
    return EXIT_OK


def cmd_hidden_delays(args, sys_, split):
    try:
        exp = expand_hidden_delays(sys_, split)
    except NotSmoothingType as exc:
        _write_report(args.out, {"applicable": False, "reason": str(exc)})
        return EXIT_OK
    _write_report(args.out, {
        "applicable": True,
        "nu_D": exp.nu_D,
        "delays": exp.delays,
        "J": _encode_matrix(exp.J, np.iscomplexobj(exp.J)),
        "D": [_encode_matrix(Dk, np.iscomplexobj(Dk)) for Dk in exp.D_delays],
    })
    return EXIT_OK


def cmd_check_history(args, sys_, split):
    _write_report(args.out, asdict(splicing_report(sys_, split)))
    return EXIT_OK


def cmd_probe(args, sys_, split):
    # a side without components gets an empty target, which
    # construct_probe_history rejects by name
    target = np.zeros(split.n_d if args.side == "slow" else split.n_a)
    target[:1] = 1.0
    try:
        if args.target is not None:
            target = np.array([float(v) for v in args.target.split(",")])
            if not np.all(np.isfinite(target)):
                raise ValueError("--target values must be finite")
        phi = construct_probe_history(sys_, split, args.order, target, side=args.side)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_report(args.out, {
        "order": args.order,
        "side": args.side,
        "target": [float(v) for v in np.real(target)],
        "history": _encode_pieces(phi, phi.is_complex),
    })
    return EXIT_OK


class UsageError(DdaeKitError):
    """The command line was rejected: by the argument parser, or by a
    command's check of an option value."""


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
    # every command reads one problem file, its first positional
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, outs=("out",)):
        p = sub.add_parser(name, parents=[problem], help=help)
        for out in outs:
            p.add_argument(out)
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "full structural report")

    p = command("solve", cmd_solve, "method-of-steps trajectory and jump ledger",
                ("out_csv", "ledger_out"))
    p.add_argument("--kmax", type=int, default=None)

    p = command("stability", cmd_stability, "spectral abscissa and verdict")
    p.add_argument("--re-min", type=float, default=None, dest="re_min")
    p.add_argument("--re-max", type=float, default=None, dest="re_max")
    p.add_argument("--im-max", type=float, default=None, dest="im_max")
    p.add_argument("--grid", type=int, default=80)

    command("hidden-delays", cmd_hidden_delays, "retarded multi-delay reformulation")
    command("check-history", cmd_check_history, "admissibility and splicing checks")

    p = command("probe", cmd_probe, "construct a worst-case probe history")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--side", choices=("slow", "fast"), default="slow")
    p.add_argument("--target", type=str, default=None)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # each problem is loaded, and its pencil decomposed, once per run
        sys_ = load_problem(args.problem)
        return args.func(args, sys_, build_split(sys_))
    except SingularPencil as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IRREGULAR
    except (DdaeKitError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
