"""ddae-kit benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload solve-ode --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from ./src.  One
client in one process calls ``ddae_kit.cli.main`` in-process, and the
next invocation starts only after the previous one returned.  Inputs
come from the seed (bench/workloads.py); the program only sees the
problem files.  Every output is checked against the stored references
(bench/refcheck.py) between invocations, outside the timed region.

A run: import the program, generate and write the inputs SETUP_REPS
times (median), one untimed warm-up pass over all cases whose outputs
get the full check, then whole passes over the cases until the summed
invocation time reaches --seconds and at least MIN_SAMPLES invocations
ran.  With --trace 1 passes alternate between untraced and traced
(bench/spans.py) and the per-layer numbers come from the traced ones.

Host-speed correction: on a shared machine the same invocation runs up
to 1.8x slower for tens of seconds at a time, longer than a run, so no
statistic over one run's samples removes it.  Between passes the run
times a fixed calibration kernel (numpy small-matrix work like the CLI's
hot loops, independent of the program) and scales each pass's times by
CALIBRATION_REF / kernel time.  Reported times are therefore seconds at
the speed where the kernel takes CALIBRATION_REF; the raw wall-clock
values are in the report next to them.

The last stdout line is one JSON object: correct, attempted, failed and
the end-to-end (--trace 0) or per-layer (--trace 1) metrics.  The lines
above it are the human-readable report, which also goes, with the
environment and per-case outcomes, to .bench_out/.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the benchmark measures one client on a small machine,
# and threaded BLAS on tiny matrices only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-ode", "solve-dae", "stability", "analyze")
SETUP_REPS = 3
# the tail percentile p90 needs at least ten samples beyond it
MIN_SAMPLES = 100
# a run stops after this much invocation time even if MIN_SAMPLES is not
# reached, so it always ends well within three minutes
MAX_BUSY_S = 120.0
# calibration kernel time on an uncontended core of the 2-vCPU x86-64 VM
# the benchmark was defined on; corrected times are expressed at this speed
CALIBRATION_REF = 0.0075
# seconds of invocation time between kernel samples inside a pass
PROBE_EVERY = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_rate": "ratio",
    "accuracy_digits_p50": "digits",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = (
    "cli", "problemfile.load", "pencil.regularity", "pencil.qwf", "model.split",
    "classify.classify", "classify.backward", "history.splicing", "history.index3",
    "history.admissible", "reform.expand", "solver.steps", "solver.segment",
    "solver.ledger", "stability.abscissa", "stability.assess",
)
LAYER_CALLS = {
    "pencil.regularity_calls": "pencil.regularity",
    "pencil.qwf_calls": "pencil.qwf",
    "solver.segments": "solver.segment",
}
LAYER_COUNTERS = (
    "problemfile.bytes_in", "solver.pieces", "solver.colloc_unknowns",
    "solver.breakdowns", "stability.grid_evals", "stability.roots",
    "stability.box_limited",
)


def layer_metric_name(span_name):
    return "cli.self_ms" if span_name == "cli" else span_name + "_ms"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program(root):
    """Import ddae_kit from ./src and time it (numpy included)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ddae_kit", "cli.py")):
        die(f"no ddae_kit sources under {src}; run from the repository root")
    if not os.path.isfile(os.path.join(HERE, "references.json")):
        die("bench/references.json is missing")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import ddae_kit.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        die(f"imported {cli.__file__} instead of the checkout's sources")
    return cli, import_s


def environment(seed):
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


# -- invocations -----------------------------------------------------


def prepare_argv(case, out_dir):
    base = os.path.join(out_dir, case["id"])
    if case["command"] == "solve":
        outputs = [base + ".csv", base + ".ledger.json"]
    else:
        outputs = [base + ".json"]
    case["outputs"] = outputs
    case["argv"] = [case["command"], case["problem_path"], *outputs]


def invoke(cli, case):
    for path in case["outputs"]:
        if os.path.exists(path):
            os.remove(path)
    t0 = time.perf_counter()
    try:
        rc, error = cli.main(case["argv"]), None
    except (Exception, SystemExit) as exc:
        rc, error = None, exc
    return rc, error, time.perf_counter() - t0


def evaluate(refcheck, case, rc, error, alpha_rtol):
    """Outcome of one invocation: hard failure, reference miss, digits, bytes."""
    out = {"hard": None, "miss": False, "digits": None, "bytes_out": 0}
    if error is not None:
        out["hard"] = f"raised {type(error).__name__}: {error}"
        return out
    if rc != case["expect"]["exit"]:
        out["hard"] = f"exit code {rc}, expected {case['expect']['exit']}"
        return out
    digest = hashlib.sha256()
    for path in case["outputs"]:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            out["hard"] = f"missing output: {exc}"
            return out
        out["bytes_out"] += len(data)
        digest.update(data)
    out["hash"] = digest.hexdigest()
    base = case.get("baseline")
    if base is not None and base.get("hash") == out["hash"]:
        # byte-identical to a fully checked output: same verdict
        out.update(hard=base["hard"], miss=base["miss"], digits=base["digits"])
        return out
    try:
        out["miss"], out["digits"] = refcheck.check_outputs(case, case["outputs"], alpha_rtol)
    except Exception as exc:  # any defect in an output is a hard failure of that invocation
        out["hard"] = f"{type(exc).__name__}: {exc}"
    return out


def calibration_kernel():
    """Fixed work independent of the program: small complex det/solve in a Python loop."""
    import numpy as np

    M = np.array([[1.0, 0.2, 0.1, 0.0], [0.3, 2.0, 0.5, 0.1],
                  [0.0, 0.4, 1.5, 0.2], [0.1, 0.0, 0.3, 1.2]])
    eye = np.eye(4)
    t0 = time.perf_counter()
    for j in range(300):
        lam = complex(0.01 * j, 0.02 * j)
        A = lam * eye - M - np.exp(-lam) * M.T
        np.linalg.det(A)
        np.linalg.solve(A, M)
    return time.perf_counter() - t0


def host_time():
    """Median of three kernel timings: the machine's current speed."""
    return statistics.median(calibration_kernel() for _ in range(3))


def run_passes(cli, refcheck, cases, seconds, min_samples, alpha_rtol, host_before,
               on_pass=None):
    """Whole passes until the summed invocation time reaches `seconds`.

    Returns (records, factors, host_after): records are (case, latency,
    outcome, pass index); factors[k] = CALIBRATION_REF / mean kernel time
    over the samples taken before, during (every PROBE_EVERY) and after
    pass k; host_after is the last kernel time.
    """
    records, factors = [], []
    busy = 0.0
    k = 0
    while True:
        if on_pass is not None:
            on_pass(k, True)
        host = [host_before]
        since_probe = 0.0
        for case in cases:
            rc, error, dt = invoke(cli, case)
            busy += dt
            records.append((case, dt, evaluate(refcheck, case, rc, error, alpha_rtol), k))
            since_probe += dt
            if since_probe >= PROBE_EVERY:
                host.append(calibration_kernel())
                since_probe = 0.0
        if on_pass is not None:
            on_pass(k, False)
        host_before = host_time()
        host.append(host_before)
        factors.append(CALIBRATION_REF / statistics.fmean(host))
        k += 1
        if busy >= seconds and len(records) >= min_samples:
            break
        if busy >= MAX_BUSY_S:
            break
    return records, factors, host_before


# -- metrics ---------------------------------------------------------


def latency_stats(lat):
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * p90,
    }, sum(1 for v in lat if v > p90)


def end_to_end(records, factors, setup_s, setup_raw_s):
    raw = [dt for _, dt, _, _ in records]
    corrected = [dt * factors[k] for _, dt, _, k in records]
    outs = [o for _, _, o, _ in records]
    timing, beyond = latency_stats(corrected)
    raw_timing, _ = latency_stats(raw)
    dig = [o["digits"] for o in outs if o["digits"] is not None]
    passed = sum(1 for o in outs if o["hard"] is None and not o["miss"])
    values = {
        "setup_s": setup_s,
        **timing,
        "pass_rate": passed / len(outs),
        "accuracy_digits_p50": statistics.median(dig) if dig else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_values = dict(raw_timing, setup_s=setup_raw_s)
    samples = {
        "setup_s": SETUP_REPS,
        "ops_per_s": len(raw),
        "latency_p50_ms": len(raw),
        "latency_p90_ms": len(raw),
        "pass_rate": len(outs),
        "accuracy_digits_p50": len(dig),
        "peak_rss_mb": 1,
    }
    extra = {
        "beyond_p90": beyond,
        "fail_rate": (len(outs) - passed) / len(outs),
        "failures": len(outs) - passed,
        "hard_failures": sum(1 for o in outs if o["hard"] is not None),
        "reference_misses": sum(1 for o in outs if o["hard"] is None and o["miss"]),
        "host_factor_per_pass": factors,
    }
    return values, raw_values, samples, extra


def per_layer(spans_mod, tracer, records, factors):
    """Per traced invocation; times host-corrected like the end-to-end ones."""
    traced = [r for r in records if r[3] % 2 == 1]
    untraced = [r for r in records if r[3] % 2 == 0]
    n = len(traced)
    self_s = spans_mod.self_times(tracer.spans, lambda span: factors[span["tag"]])
    calls = spans_mod.span_counts(tracer.spans)
    values = {layer_metric_name(s): 1e3 * self_s.get(s, 0.0) / n for s in LAYER_TIMES}
    for metric, span_name in LAYER_CALLS.items():
        values[metric] = calls.get(span_name, 0) / n
    for name in LAYER_COUNTERS:
        values[name] = tracer.counters.get(name, 0.0) / n
    values["cli.bytes_out"] = sum(o["bytes_out"] for _, _, o, _ in traced) / n

    def mean(recs):
        return sum(dt * factors[k] for _, dt, _, k in recs) / len(recs)

    values["trace.overhead_ms"] = 1e3 * (mean(traced) - mean(untraced))
    return values, len(traced), len(untraced)


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_in") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


# -- one workload ----------------------------------------------------


def run_workload(args):
    root = os.getcwd()
    cli, import_s = import_program(root)
    import refcheck
    import spans as spans_mod
    import workloads as wl

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(root, ".bench_out")
    os.makedirs(results_dir, exist_ok=True)
    devnull = open(os.devnull, "w")
    real_stderr = sys.stderr
    try:
        host_import = host_time()
        gen_times = []
        for r in range(SETUP_REPS):
            d = os.path.join(work, f"setup{r}")
            os.makedirs(d)
            t0 = time.perf_counter()
            refs = wl.load_references()
            cases = wl.build(args.workload, args.seed, refs)
            wl.write_problems(cases, d)
            gen_times.append(time.perf_counter() - t0)
        alpha_rtol = refs["alpha_rtol"]
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        for case in cases:
            prepare_argv(case, out_dir)

        # the CLI reports breakdowns on stderr by design; keep the report readable
        sys.stderr = devnull
        warm, (warm_factor,), host_warm = run_passes(cli, refcheck, cases, 0.0, 0,
                                                     alpha_rtol, host_import)
        for case, _, outcome, _ in warm:
            case["baseline"] = outcome
        warmup_s = sum(dt for _, dt, _, _ in warm)
        setup_raw_s = import_s + statistics.median(gen_times) + warmup_s
        setup_s = ((import_s + statistics.median(gen_times)) * CALIBRATION_REF / host_import
                   + warmup_s * warm_factor)

        tracer = None
        if args.trace:
            tracer = spans_mod.Tracer()
            state = {}

            def on_pass(k, starting):
                # odd passes traced, even passes untraced, so drift hits both
                if k % 2 == 1:
                    if starting:
                        tracer.tag = k
                        state["undo"] = spans_mod.install(tracer)
                    else:
                        state.pop("undo")()

            # at least two passes, so at least one is traced
            records, factors, _ = run_passes(cli, refcheck, cases, args.seconds,
                                             2 * len(cases), alpha_rtol, host_warm, on_pass)
        else:
            records, factors, _ = run_passes(cli, refcheck, cases, args.seconds, MIN_SAMPLES,
                                             alpha_rtol, host_warm)
        sys.stderr = real_stderr

        values, raw_values, samples, extra = end_to_end(records, factors, setup_s, setup_raw_s)
        hard = [(c["id"], o["hard"]) for c, _, o, _ in warm + records if o["hard"]]
        attempted = len(records)
        failed = sum(1 for _, _, o, _ in records if o["hard"] is not None)
        correct = not hard
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(args.seed),
            "setup": {"import_s": import_s, "generate_write_s": gen_times,
                      "warmup_s": warmup_s, "host_kernel_s": host_import,
                      "warmup_host_factor": warm_factor},
            "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k],
                               "samples": samples[k], "raw": raw_values.get(k)}
                           for k, v in values.items()},
            "details": extra,
            "cases": case_summary(warm + records),
            "latencies": [[c["id"], k, dt] for c, dt, _, k in records],
        }
        lines = format_report(report, cases)
        if args.trace:
            layers, n_traced, n_untraced = per_layer(spans_mod, tracer, records, factors)
            report["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            report["trace_samples"] = {"traced": n_traced, "untraced": n_untraced,
                                       "spans": len(tracer.spans)}
            span_path = os.path.join(results_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_jsonl(span_path)
            lines += format_layers(report, os.path.relpath(span_path, root))
            metrics = report["per_layer"]
        else:
            metrics = {k: {"value": v["value"], "unit": v["unit"]}
                       for k, v in report["end_to_end"].items()}
        with open(os.path.join(results_dir, f"result-{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        for cid, message in hard[:20]:
            print(f"bench: HARD FAILURE {cid}: {message}", file=sys.stderr)
    finally:
        sys.stderr = real_stderr
        devnull.close()
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def case_summary(records):
    out = {}
    for case, dt, o, _ in records:
        s = out.setdefault(case["id"], {"runs": 0, "hard": 0, "miss": 0, "digits": None,
                                        "total_s": 0.0})
        s["runs"] += 1
        s["total_s"] += dt
        s["hard"] += o["hard"] is not None
        s["miss"] += bool(o["miss"]) and o["hard"] is None
        s["digits"] = o["digits"]
    return out


def format_report(report, cases):
    env = report["environment"]
    d = report["details"]
    factors = d["host_factor_per_pass"]
    lines = [
        f"ddae-kit benchmark  workload={report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']}",
        "environment  " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"cases per pass {len(cases)}, passes {len(factors)}; closed loop, 1 client, "
        f"in-process CLI; host factor per pass {min(factors):.3f}..{max(factors):.3f}",
        f"{'metric':<22}{'value':>14}  {'unit':<8}{'samples':>8}{'raw wall':>14}",
    ]
    for name, m in report["end_to_end"].items():
        raw = "" if m["raw"] is None else f"{m['raw']:>14.6g}"
        lines.append(f"{name:<22}{m['value']:>14.6g}  {m['unit']:<8}{m['samples']:>8}{raw}")
    n = report["end_to_end"]["pass_rate"]["samples"]
    lines.append(f"{'fail_rate':<22}{d['fail_rate']:>14.6g}  {'ratio':<8}{n:>8}"
                 f"  ({d['failures']} of {n}: {d['hard_failures']} hard, "
                 f"{d['reference_misses']} reference misses)")
    lines.append(f"latency_p90_ms has {d['beyond_p90']} samples beyond it")
    for cid, s in report["cases"].items():
        if s["hard"] or s["miss"]:
            lines.append(f"  {cid}: {s['hard']} hard, {s['miss']} misses of {s['runs']}"
                         f" (digits {s['digits']})")
    return lines


def format_layers(report, span_path):
    ts = report["trace_samples"]
    lines = [f"traced invocations {ts['traced']}, untraced {ts['untraced']}, "
             f"spans {ts['spans']} -> {span_path}",
             f"{'per-layer (per invocation)':<30}{'value':>14}  unit"]
    for name, m in report["per_layer"].items():
        lines.append(f"{name:<30}{m['value']:>14.6g}  {m['unit']}")
    return lines


# -- all workloads ---------------------------------------------------


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            die(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        print()
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
