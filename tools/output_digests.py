"""One sha256 per benchmark case: which CLI outputs a change alters.

    python3 tools/output_digests.py SRC > digests.txt

Builds the cases of every workload in bench/workloads.py for seeds 1-4
(the bench directory next to this script, read and never changed), runs
each case through ``ddae_kit.cli.main`` imported from the directory SRC
(a ``src`` tree holding the ``ddae_kit`` package), with the output file
names and exception handling of bench/run.py, and prints one line per
case:

    <workload> <seed> <case id> <sha256 of the exit code and output files>

A case that raises gets the exception's type in place of the exit code,
so every tree prints one line per case, in the same order, and a crash
shows up as a changed digest rather than a missing line.

Running it on two source trees with the same bench directory gives two
lists in the same order; the cases whose digests differ are the ones
whose outputs changed.  Each tree needs its own process, because the
package is imported once.  BLAS runs on one thread, as in bench/run.py,
so the digests do not depend on thread scheduling.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEEDS = (1, 2, 3, 4)


def case_digest(run, cli, case, out_dir):
    """Run one case; sha256 over its outcome and its output files in order."""
    run.prepare_argv(case, out_dir)
    rc, error, _ = run.invoke(cli, case)
    outcome = f"exit {rc}" if error is None else f"raised {type(error).__name__}"
    digest = hashlib.sha256(f"{outcome}\n".encode())
    for path in case["outputs"]:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
            os.remove(path)
        else:
            digest.update(b"missing\n")
    return digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="directory holding the ddae_kit package")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "ddae_kit", "cli.py")):
        p.error(f"no ddae_kit package under {src}")
    sys.path[:0] = [src, BENCH]
    import ddae_kit.cli as cli
    import run
    import workloads as wl

    refs = wl.load_references()
    real_stderr = sys.stderr
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        for seed in SEEDS:
            for workload in wl.WORKLOADS:
                cases = wl.build(workload, seed, refs)
                case_dir = os.path.join(tmp, f"{workload}-{seed}")
                # outputs apart from the problem files: a stability or
                # analyze output has the same name as its problem file
                out_dir = os.path.join(case_dir, "out")
                os.makedirs(out_dir)
                wl.write_problems(cases, case_dir)
                for case in cases:
                    # the CLI reports breakdowns on stderr by design
                    sys.stderr = devnull
                    try:
                        digest = case_digest(run, cli, case, out_dir)
                    finally:
                        sys.stderr = real_stderr
                    print(workload, seed, case["id"], digest)


if __name__ == "__main__":
    main()
