"""One outcome and four hashes per benchmark case: which CLI outputs a change alters.

    python3 tools/output_digests.py SRC [--seed S ...] [--workload W ...] > digests.txt
    python3 tools/output_digests.py SRC [--seed S ...] [--workload W ...] --against BASE_LIST

Builds the cases of every workload in bench/workloads.py for seeds 1-4
(the bench directory next to this script, read and never changed), runs
each case through ``ddae_kit.cli.main`` imported from the directory SRC
(a ``src`` tree holding the ``ddae_kit`` package), with the output file
names and exception handling of bench/run.py, and prints one line per
case:

    <workload> <seed> <case id> <outcome> <sha256 of the output files> <decisions> <layout> <stderr>

The bench never runs ``probe``, so each problem file of the analyze
workload is also run as ``probe --order {1,2} --side {slow,fast}``; these
lines carry ``probe`` in the workload column and the id
``<problem file stem>-probe-o<order>-<side>``.

--seed and --workload keep only the named seeds and workloads (the probe
variants are the workload ``probe``), so a change to one layer can be
checked on the cases that reach it; with neither, every case runs.

The outcome is two words, ``exit N`` or ``raised <exception type>``, so
every tree prints one line per case, in the same order, and a crash
shows up as a changed outcome rather than a missing line.

The decisions column is a sha256 over what rounding leaves alone in the
JSON outputs (reports and ledgers): each with every finite float leaf
dropped, so its verdicts, orders, counts and flags remain, and so does
a NaN or Infinity.  The layout column is a sha256 over each CSV's row
count and side column.  They are apart because a CSV row count follows
the trimmed length of a piece, which a coefficient within rounding of
its trim tolerance decides, while a JSON decision is a verdict.

The stderr column is a sha256 of what the case wrote to Python's
sys.stderr (its error, warning and breakdown lines), with the case's own
directory replaced by a fixed word, so that two runs in different
temporary directories hash alike.  Messages that a native library
writes past Python are not in it: OpenBLAS's LAPACK error handler, for
one, prints its "On entry to DLASCL parameter number ..." line to C's
stdout.

Running it on two source trees with the same bench directory gives two
lists in the same order; the cases whose outcome column differs are the
ones whose exit changed, those with the same outcome and another
decisions hash are the ones whose reported decisions changed, those
with the same outcome and another layout hash the ones whose CSV rows
changed (whatever their decisions did), and those with all three equal
and another sha256 are the ones whose output bytes changed only; the
stderr column tells apart the cases whose messages changed, whatever
their outputs did.  --against BASE_LIST does that comparison: it runs
SRC's cases, reads BASE_LIST (this tool's lines for the base tree, same
options) and prints these five groups instead of the lines, each as a
count of all cases and one line per case; it exits 1 when the two lists
do not name the same cases in the same order.  Each
tree needs its own process, because the package is imported once.  BLAS runs on one
thread, as in bench/run.py, so the digests do not depend on thread
scheduling.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEEDS = (1, 2, 3, 4)
PROBE_ORDERS = (1, 2)
PROBE_SIDES = ("slow", "fast")


def _finite_float(node):
    return isinstance(node, float) and math.isfinite(node)


def _drop_floats(node):
    """A parsed JSON value without its finite float leaves, in dicts and
    lists; NaN and Infinity stay, so a number that turns non-finite is a
    changed decision."""
    if isinstance(node, dict):
        return {k: _drop_floats(v) for k, v in node.items() if not _finite_float(v)}
    if isinstance(node, list):
        return [_drop_floats(v) for v in node if not _finite_float(v)]
    return node


def decisions(path, data):
    """The part of one output file that rounding leaves alone, as bytes: a
    CSV's row count and side column (its layout), or a JSON file without
    its floats (its decisions)."""
    if path.endswith(".csv"):
        rows = data.decode("utf-8").splitlines()
        return "\n".join([str(len(rows))] + [r.rsplit(",", 1)[-1] for r in rows]).encode()
    return json.dumps(_drop_floats(json.loads(data)), sort_keys=True).encode()


def case_digest(run, cli, case, out_dir, options=()):
    """Run one case, options appended to its argv; its outcome, the
    sha256 over its output files in order, the sha256 over the decisions
    of its JSON files, the sha256 over the layout of its CSV files and
    the sha256 over its stderr."""
    run.prepare_argv(case, out_dir)
    case["argv"] += options
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, error, _ = run.invoke(cli, case)
    stderr = err.getvalue().replace(os.path.dirname(out_dir), "CASE_DIR").encode()
    outcome = f"exit {rc}" if error is None else f"raised {type(error).__name__}"
    digest, decided, layout = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for path in case["outputs"]:
        kept = layout if path.endswith(".csv") else decided
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            kept.update(decisions(path, data) + b"\n")
            os.remove(path)
        else:
            digest.update(b"missing\n")
            kept.update(b"missing\n")
    return (outcome, digest.hexdigest(), decided.hexdigest(), layout.hexdigest(),
            hashlib.sha256(stderr).hexdigest())


def probe_cases(cases):
    """(case, options) for every probe variant of each distinct problem file."""
    paths = dict.fromkeys(case["problem_path"] for case in cases)
    for path in paths:
        sid = os.path.splitext(os.path.basename(path))[0]
        for order in PROBE_ORDERS:
            for side in PROBE_SIDES:
                case = {"id": f"{sid}-probe-o{order}-{side}", "command": "probe",
                        "problem_path": path}
                yield case, ["--order", str(order), "--side", side]


def load(src):
    """ddae_kit.cli imported from the directory src, and the bench's run
    and workloads modules."""
    if not os.path.isfile(os.path.join(src, "ddae_kit", "cli.py")):
        raise SystemExit(f"no ddae_kit package under {src}")
    sys.path[:0] = [src, BENCH]
    import ddae_kit.cli as cli
    import run
    import workloads as wl

    return cli, run, wl


def bench_cases(run, wl, seeds=SEEDS, names=None):
    """(workload, seed, case, output directory, options) for every case of
    every workload, seeds 1-4, and every probe variant of the analyze
    problem files; seeds and names (workload names, ``probe`` for the
    probe variants; None for all) keep only those.  The problem files are
    written to a temporary directory that lives while the generator runs."""
    def kept(name):
        return names is None or name in names

    refs = wl.load_references()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in wl.WORKLOADS:
                probes = workload == "analyze" and kept("probe")
                if not (kept(workload) or probes):
                    continue
                cases = wl.build(workload, seed, refs)
                case_dir = os.path.join(tmp, f"{workload}-{seed}")
                # outputs apart from the problem files: a stability or
                # analyze output has the same name as its problem file
                out_dir = os.path.join(case_dir, "out")
                os.makedirs(out_dir)
                wl.write_problems(cases, case_dir)
                runs = [(workload, case, ()) for case in cases] if kept(workload) else []
                if probes:
                    runs += [("probe", case, options)
                             for case, options in probe_cases(cases)]
                for name, case, options in runs:
                    yield name, seed, case, out_dir, options


def add_filters(parser):
    """The --seed and --workload options of this tool and of traffic_lines."""
    parser.add_argument("--seed", type=int, action="append", choices=SEEDS,
                        help="run only this seed")
    parser.add_argument("--workload", action="append", help="run only this workload")


def filtered_cases(args, run, wl):
    """bench_cases kept to the parsed --seed and --workload options; an
    unknown workload name is an error, not an empty list."""
    unknown = set(args.workload or ()) - {*wl.WORKLOADS, "probe"}
    if unknown:
        raise SystemExit(f"unknown workload {sorted(unknown)[0]!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}, probe")
    return bench_cases(run, wl, args.seed or SEEDS, args.workload)


def compare(base, head):
    """The report lines of --against for two lists of split digest lines
    (workload, seed, id, outcome as two words, sha256, decisions, layout,
    stderr), paired in order: the cases whose outcome differs, those with
    the same outcome and other decisions, those with the same outcome and
    another CSV layout, those with the same decisions and layout and
    other bytes, and those whose stderr differs."""
    groups = {"whose outcome differs from the base": [],
              "with the same outcome and other decisions": [],
              "with the same outcome and another CSV layout": [],
              "with the same decisions and layout and other output bytes": [],
              "whose stderr differs": []}
    outcome, decided, layout, output, stderr = groups.values()
    for old, new in zip(base, head):
        case = " ".join(new[:3])
        if old[3:5] != new[3:5]:
            outcome.append(f"{case}: {' '.join(old[3:5])} -> {' '.join(new[3:5])}")
        else:
            if old[6] != new[6]:
                decided.append(case)
            if old[7] != new[7]:
                layout.append(case)
            if old[6:8] == new[6:8] and old[5] != new[5]:
                output.append(case)
        if old[8] != new[8]:
            stderr.append(case)
    lines = []
    for title, cases in groups.items():
        lines.append(f"bench cases {title}: {len(cases)} of {len(head)}")
        lines += [f"- {case}" for case in cases]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="directory holding the ddae_kit package")
    add_filters(p)
    p.add_argument("--against", metavar="BASE_LIST",
                   help="compare with this tool's output for the base tree")
    args = p.parse_args(argv)
    cli, run, wl = load(os.path.abspath(args.src))
    head = []
    for name, seed, case, out_dir, options in filtered_cases(args, run, wl):
        outcome, *digests = case_digest(run, cli, case, out_dir, options)
        head.append([name, str(seed), case["id"], *outcome.split(), *digests])
        if not args.against:
            print(*head[-1])
    if not args.against:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        base = [line.split() for line in fh if line.strip()]
    if {len(row) for row in base} - {len(head[0]) if head else 0}:
        print(f"{args.against} has lines of another column count (another version of this"
              " tool?)", file=sys.stderr)
        return 1
    if [row[:3] for row in base] != [row[:3] for row in head]:
        print(f"{args.against} does not list the cases of {args.src} in order",
              file=sys.stderr)
        return 1
    print("\n".join(compare(base, head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
