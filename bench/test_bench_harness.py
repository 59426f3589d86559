"""Tests of the benchmark's own machinery: spans, reference checks, inputs.

Run from the repository root: PYTHONPATH=src python -m pytest bench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import ddae_kit.cli as cli  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return wl.load_references()


def _run(case, tmp_path):
    wl.write_problems([case], str(tmp_path))
    base = os.path.join(str(tmp_path), case["id"])
    outputs = [base + ".csv", base + ".ledger.json"] if case["command"] == "solve" \
        else [base + ".json"]
    rc = cli.main([case["command"], case["problem_path"], *outputs])
    assert rc == case["expect"]["exit"]
    return outputs


def _case(cases, prefix):
    return next(c for c in cases if c["id"].startswith(prefix))


def test_spans_nest_and_children_fit(refs, tmp_path):
    tracer = spans.Tracer()
    original = cli.build_split
    undo = spans.install(tracer)
    try:
        assert cli.build_split is not original
        _run(_case(wl.build("analyze", 3, refs), "pencil07"), tmp_path)
        _run(_case(wl.build("solve-dae", 3, refs), "example-advanced"), tmp_path)
    finally:
        undo()
    assert cli.build_split is original

    by_id = {s["id"]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli", "cli"]
    assert {s["invocation"] for s in tracer.spans} == {1, 2}
    names = {s["name"] for s in tracer.spans}
    assert {"problemfile.load", "pencil.qwf", "model.split", "classify.classify",
            "solver.segment", "solver.ledger", "history.admissible"} <= names
    children = {}
    for s in tracer.spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["invocation"] == s["invocation"]
            children.setdefault(parent["id"], []).append(s)
    for pid, kids in children.items():
        parent = by_id[pid]
        assert sum(k["end"] - k["start"] for k in kids) <= parent["end"] - parent["start"]
    selfs = spans.self_times(tracer.spans)
    assert all(v >= 0.0 for v in selfs.values())
    total = sum(s["end"] - s["start"] for s in roots)
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    # the advanced example breaks down once, inside solve_segment
    assert tracer.counters["solver.breakdowns"] == 1


def test_reference_check_rejects_corrupted_outputs(refs, tmp_path):
    rtol = refs["alpha_rtol"]

    analyze = _case(wl.build("analyze", 5, refs), "pencil05")
    [out] = _run(analyze, tmp_path)
    payload = json.load(open(out))
    assert refcheck.check_analyze(analyze, payload)[0] is False
    payload["propagation"]["kind"] = "smoothing"
    with pytest.raises(refcheck.HardFailure):
        refcheck.check_analyze(analyze, payload)

    solve = _case(wl.build("solve-dae", 5, refs), "example-neutral")
    csv_path, ledger_path = _run(solve, tmp_path)
    assert refcheck.check_solve(solve, ledger_path, csv_path)[0] is False
    ledger = json.load(open(ledger_path))
    ledger["knots"][3]["first_jump_order"] = 2
    with pytest.raises(refcheck.HardFailure):
        refcheck.check_ledger(solve, ledger)
    ledger = json.load(open(ledger_path))
    ledger["knots"][3]["jump_norm"] *= 1.5
    with pytest.raises(refcheck.HardFailure):
        refcheck.probe_solve(solve, ledger)

    stab = _case(wl.build("stability", 5, refs), "stab-example-neutral")
    [out] = _run(stab, tmp_path)
    payload = json.load(open(out))
    miss, digits = refcheck.check_stability(stab, payload, rtol)
    assert miss is False and digits > 8
    payload["verdict"] = "stable"
    assert refcheck.check_stability(stab, payload, rtol)[0] is True
    payload["gate"] = "not_applicable_de_smoothing"
    with pytest.raises(refcheck.HardFailure):
        refcheck.check_stability(stab, payload, rtol)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_fixed_seed_gives_identical_problem_files(refs, tmp_path, workload):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        wl.write_problems(wl.build(workload, seed, refs), str(d))
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = files(11, "a")
    assert first == files(11, "b")
    assert first != files(12, "c")
