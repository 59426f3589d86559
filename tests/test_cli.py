import csv
import importlib
import json
import pkgutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit import cli, solver
from ddae_kit.cheb import cgl_nodes
from ddae_kit.cli import main

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    random_smoothing_blocks,
    random_system_from_blocks,
)


def write_problem(tmp_path, sys_, name="problem.json"):
    path = tmp_path / name
    dk.dump_problem(sys_, path)
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestProblemFile:
    def test_round_trip_bit_identical(self, tmp_path):
        sys_ = example_advanced()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dk.dump_problem(sys_, p1)
        sys_2 = dk.load_problem(p1)
        dk.dump_problem(sys_2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_complex_round_trip(self, tmp_path):
        f = dk.PiecewisePolynomial.zero(1, 0.0, 1.0, complex_field=True)
        phi = dk.PiecewisePolynomial.constant([1.0 + 2.0j], -1.0, 0.0)
        sys_ = dk.DdaeSystem(E=[[1.0 + 0j]], A=[[-1.0 + 0.5j]], D=[[0.0j]],
                             tau=1.0, horizon_intervals=1, f=f, phi=phi)
        p1 = tmp_path / "c.json"
        dk.dump_problem(sys_, p1)
        data = read_json(p1)
        assert data["field"] == "complex"
        sys_2 = dk.load_problem(p1)
        assert np.allclose(sys_2.A, sys_.A)
        assert np.allclose(sys_2.phi.evaluate(-0.5), [1.0 + 2.0j])

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1}')
        with pytest.raises(dk.MalformedProblem):
            dk.load_problem(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        sys_ = example_neutral()
        data = dk.problem_to_dict(sys_)
        data["E"] = [[0.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(dk.MalformedProblem):
            dk.load_problem(str(path))

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("analyze", "tau", float("inf")),
            ("stability", "D", [[float("inf")]]),
            ("analyze", "E", [[float("nan")]]),
            ("analyze", "horizon_intervals", 2.5),
            ("analyze", "dimension", 1.7),
            ("analyze", "tau", True),
            ("analyze", "tau", "1"),
            ("analyze", "dimension", "1"),
            ("analyze", "horizon_intervals", "2"),
            ("analyze", "E", [[10**400]]),
            ("analyze", "history", [{"start": -10**400, "end": 0.0, "coeffs": [[0.0]]}]),
            ("analyze", "E", [[["a", 0.0]]]),
        ],
    )
    def test_bad_numbers_exit_malformed(self, tmp_path, capsys, command, key, value):
        # without the checks these crashed, exited 4 for the wrong reason,
        # or were silently truncated to integers
        data = dk.problem_to_dict(example_neutral(horizon=2))
        if np.ndim(value) == 3:
            # [re, im] pairs: a complex file, where E is decoded first
            data["field"] = "complex"
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path), str(tmp_path / "out.json")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and key in err
        assert len(err.strip().splitlines()) == 1


class TestOptionValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--grid", "-5"],
            ["stability", "--grid", "0"],
            ["stability", "--im-max", "inf"],
            ["stability", "--re-max", "inf"],
            ["solve", "--kmax", "-1"],
            ["probe", "--order", "2", "--target", "abc"],
            ["probe", "--order", "2", "--target", "nan"],
            ["solve", "--kmax", "1000000000"],
            ["solve", "--degree", "100000"],
            ["stability", "--grid", "100000"],
            ["solve", "--kmax", "three"],
            ["stability", "--grid", "abc"],
            ["analyze", "--frobnicate"],
        ],
        ids=["grid-negative", "grid-zero", "im-max-inf", "re-max-inf",
             "kmax-negative", "target-text", "target-nan", "kmax-huge",
             "degree-huge", "grid-huge", "kmax-text", "grid-text", "unknown-flag"],
    )
    def test_bad_option_exit_malformed(self, tmp_path, capsys, argv):
        # without the checks these crashed, searched nothing, wrote
        # non-JSON Infinity/NaN, or reported a false inconsistent restart;
        # argparse's own exit code, 2, would read as an inconsistent restart
        problem = write_problem(tmp_path, example_slow_smoothing())
        outs = [str(tmp_path / "out.json")]
        if argv[0] == "solve":
            outs.insert(0, str(tmp_path / "out.csv"))
        assert main([argv[0], problem, *outs, *argv[1:]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "solve", "stability"])
    def test_unwritable_output_exit_malformed(self, tmp_path, capsys, command):
        # an output that cannot be written is malformed input: one line
        problem = write_problem(tmp_path, example_slow_smoothing())
        outs = [str(tmp_path / "missing" / "out.json")]
        if command == "solve":
            outs.insert(0, str(tmp_path / "missing" / "out.csv"))
        assert main([command, problem, *outs]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_stream_bound(self, tmp_path, capsys):
        # the bound is on the stream a sweep carries, k_max + M nu +
        # max(nu, 1) orders: a k_max of 65 solves, a horizon that makes the
        # stream longer than MAX_STREAM_ORDERS exits 4 before allocating
        problem = write_problem(tmp_path, example_slow_smoothing())
        outs = [str(tmp_path / "out.csv"), str(tmp_path / "out.json")]
        assert main(["solve", problem, *outs, "--kmax", "65"]) == 0
        long_ = example_slow_smoothing(horizon=solver.MAX_STREAM_ORDERS)
        problem = write_problem(tmp_path, long_)
        assert main(["solve", problem, *outs]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "orders exceed" in err
        assert len(err.strip().splitlines()) == 1


class TestParserReuse:
    def test_repeated_calls_give_identical_outputs(self, tmp_path, capsys):
        # one parser serves every main call, an argparse rejection included
        problem = write_problem(tmp_path, example_slow_smoothing())

        def run(round_):
            outs = {}
            for argv in (["analyze"], ["solve", "--kmax", "3"], ["check-history"]):
                paths = [str(tmp_path / f"{argv[0]}-{round_}-{k}") for k in range(2)]
                if argv[0] != "solve":
                    paths = paths[:1]
                assert main([argv[0], problem, *paths, *argv[1:]]) == 0
                outs[argv[0]] = [Path(p).read_bytes() for p in paths]
            return outs

        first = run(0)
        assert main(["solve", problem, *[str(tmp_path / k) for k in "ab"],
                     "--kmax", "three"]) == 4
        assert run(1) == first
        assert "Traceback" not in capsys.readouterr().err


class TestOneDecisionPerPencil:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["analyze"], 2),
            (["check-history"], 1),
            (["hidden-delays"], 1),
            (["stability", "--grid", "20"], 1),
        ],
        ids=["analyze", "check-history", "hidden-delays", "stability"],
    )
    def test_each_pencil_decomposed_once(self, tmp_path, monkeypatch, argv, expected):
        # the neutral example's backward pencil is regular, so analyze
        # decomposes two pencils and every other command one
        problem = write_problem(tmp_path, example_neutral())
        modules = [dk] + [importlib.import_module(f"ddae_kit.{info.name}")
                          for info in pkgutil.iter_modules(dk.__path__)]
        counts = {"check_regularity": 0, "compute_qwf": 0}
        for name in counts:
            original = getattr(dk.pencil, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert main([argv[0], problem, str(tmp_path / "out.json"), *argv[1:]]) == 0
        assert counts == {"check_regularity": expected, "compute_qwf": expected}


class TestNoDataTransforms:
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["check-history"], ["hidden-delays"], ["stability", "--grid", "20"]],
        ids=["analyze", "check-history", "hidden-delays", "stability"],
    )
    def test_commands_transform_no_data(self, tmp_path, monkeypatch, argv):
        # the split holds matrices only: these commands read f and phi
        # directly or not at all, so no piecewise function is transformed
        problem = write_problem(tmp_path, example_slow_smoothing())
        calls = []
        original = dk.PiecewisePolynomial.apply_matrix

        def counted(self, M):
            calls.append(np.shape(M))
            return original(self, M)

        monkeypatch.setattr(dk.PiecewisePolynomial, "apply_matrix", counted)
        assert main([argv[0], problem, str(tmp_path / "out.json"), *argv[1:]]) == 0
        assert calls == []


class TestAnalyzeCommand:
    def test_neutral_example_report(self, tmp_path):
        problem = write_problem(tmp_path, example_neutral())
        out = str(tmp_path / "report.json")
        assert main(["analyze", problem, out]) == 0
        report = read_json(out)
        assert report["schema"] == "ddae-kit/1"
        assert report["decomposition"]["index"] == 1
        assert report["propagation"]["kind"] == "discontinuity_invariant"
        assert report["legacy"] == "neutral"
        assert report["cross_check"] is True
        assert report["history_checks"]["admissible"] is True

    def test_advanced_example_report(self, tmp_path):
        problem = write_problem(tmp_path, example_advanced())
        out = str(tmp_path / "report.json")
        assert main(["analyze", problem, out]) == 0
        report = read_json(out)
        assert report["decomposition"]["index"] == 2
        assert report["propagation"]["kind"] == "de_smoothing"
        assert report["propagation"]["first_violating_k"] == 1
        assert report["legacy"] == "advanced"

    def test_smoothing_example_report(self, tmp_path):
        problem = write_problem(tmp_path, example_slow_smoothing())
        out = str(tmp_path / "report.json")
        assert main(["analyze", problem, out]) == 0
        report = read_json(out)
        assert report["propagation"]["kind"] == "smoothing"
        assert report["propagation"]["nu_D"] == 1
        assert report["hidden_delays"]["nu_D"] == 1
        assert report["hidden_delays"]["delays"] == [1.0, 2.0]

    def test_exit_code_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = str(tmp_path / "report.json")
        assert main(["analyze", str(path), out]) == 4

    def test_exit_code_singular(self, tmp_path):
        sys_ = example_neutral()
        data = dk.problem_to_dict(sys_)
        data["E"] = [[0.0]]
        data["A"] = [[0.0]]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / "report.json")
        assert main(["analyze", str(path), out]) == 3


class TestSolveCommand:
    def test_neutral_solution_csv(self, tmp_path):
        problem = write_problem(tmp_path, example_neutral())
        out_csv = str(tmp_path / "traj.csv")
        out_ledger = str(tmp_path / "ledger.json")
        assert main(["solve", problem, out_csv, out_ledger]) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["side"] == "R"
        assert rows[-1]["side"] == "L"
        for row in rows:
            t = float(row["t"])
            def oracle(s):
                while s > 0:
                    return -oracle(s - 1) - 1.0
                return s
            assert float(row["x_1"]) == pytest.approx(oracle(t), abs=1e-10)
        ledger = read_json(out_ledger)
        knots = {e["knot_index"]: e for e in ledger["knots"]}
        for i in (1, 2, 3):
            assert knots[i]["first_jump_order"] == 1
            assert knots[i]["jump_norm"] == pytest.approx(2.0, abs=1e-8)

    def test_knots_emitted_twice(self, tmp_path):
        problem = write_problem(tmp_path, example_neutral())
        out_csv = str(tmp_path / "traj.csv")
        out_ledger = str(tmp_path / "ledger.json")
        main(["solve", problem, out_csv, out_ledger])
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        at_one = [r for r in rows if abs(float(r["t"]) - 1.0) < 1e-12]
        sides = sorted(r["side"] for r in at_one)
        assert sides == ["L", "R"]

    def test_complex_field_csv(self, tmp_path):
        a = -0.4 + 1.1j
        f = dk.PiecewisePolynomial.constant([0.5 + 0.0j], 0.0, 2.0)
        phi = dk.PiecewisePolynomial.constant([1.0 + 0.5j], -1.0, 0.0)
        sys_ = dk.DdaeSystem(E=[[1.0 + 0j]], A=[[a]], D=[[0.0j]], tau=1.0,
                             horizon_intervals=2, f=f, phi=phi)
        problem = write_problem(tmp_path, sys_, "complex.json")
        out_csv = str(tmp_path / "traj.csv")
        out_ledger = str(tmp_path / "ledger.json")
        assert main(["solve", problem, out_csv, out_ledger]) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0].keys()) == {"t", "x_1_re", "x_1_im", "side"}
        x0 = 1.0 + 0.5j
        c = 0.5
        for row in rows[:20]:
            t = float(row["t"])
            expected = np.exp(a * t) * (x0 + c / a) - c / a
            assert float(row["x_1_re"]) == pytest.approx(expected.real, abs=1e-10)
            assert float(row["x_1_im"]) == pytest.approx(expected.imag, abs=1e-10)

    def test_on_inconsistent_stop_writes_nothing(self, tmp_path):
        problem = write_problem(tmp_path, example_advanced())
        out_csv = tmp_path / "traj.csv"
        out_ledger = tmp_path / "ledger.json"
        code = main([
            "solve", problem, str(out_csv), str(out_ledger),
            "--on-inconsistent", "stop",
        ])
        assert code == 2
        assert not out_csv.exists()
        assert not out_ledger.exists()

    def test_stiff_overflow_leaves_stderr_empty(self, tmp_path, capsys):
        # the top stream orders of this index-3 system (slow eigenvalue
        # -1000) overflow; the solve succeeds, and numpy must not report
        # the fenced-off overflow (pytest turns a RuntimeWarning into an
        # error here)
        rng = np.random.default_rng(0)
        blocks = random_smoothing_blocks(rng, 1, 3, 3)
        sys_, _ = random_system_from_blocks(rng, 1, 3, 3, blocks, horizon=40, J=-1000.0)
        problem = write_problem(tmp_path, sys_)
        outs = [str(tmp_path / "traj.csv"), str(tmp_path / "ledger.json")]
        assert main(["solve", problem, *outs]) == 0
        assert capsys.readouterr().err == ""

    def test_admissibility_decided_by_the_restart_rule(self, tmp_path, capsys):
        # phi(0) misses the consistent value x_2 = -f_2(0) = 0 by 1e-6, a
        # defect the solver refuses as a restart; check-history must refuse
        # it too, however large the unused derivative q' is
        f = dk.PiecewisePolynomial([(0.0, 2.0, np.array([[0.0, 0.0], [0.0, 1000.0]]))])
        phi = dk.PiecewisePolynomial.constant([1.0, 1e-6], -1.0, 0.0)
        sys_ = dk.DdaeSystem(E=np.diag([1.0, 0.0]), A=np.eye(2), D=np.zeros((2, 2)),
                             tau=1.0, horizon_intervals=2, f=f, phi=phi)
        problem = write_problem(tmp_path, sys_)
        out = str(tmp_path / "hist.json")
        assert main(["check-history", problem, out]) == 0
        assert read_json(out)["admissible"] is False
        outs = [str(tmp_path / "traj.csv"), str(tmp_path / "ledger.json")]
        assert main(["solve", problem, *outs]) == 4
        assert "not admissible" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [1e-12, 1e-9, 1e-6])
    def test_tiny_delay_solves(self, tmp_path, tau):
        # domain tolerances are relative to the span: with a floor of 1e-9
        # absolute, tau <= 1e-9 dropped every window piece and raised
        # IndexError; x' = -x + x(t - tau) / 2 with phi = 1 jumps at order
        # k + 1 by 2^-(k+1) at knot k, whatever tau
        f = dk.PiecewisePolynomial.zero(1, 0.0, 2 * tau)
        phi = dk.PiecewisePolynomial.constant([1.0], -tau, 0.0)
        sys_ = dk.DdaeSystem(E=[[1.0]], A=[[-1.0]], D=[[0.5]], tau=tau,
                             horizon_intervals=2, f=f, phi=phi)
        problem = write_problem(tmp_path, sys_)
        out_csv, out_ledger = str(tmp_path / "traj.csv"), str(tmp_path / "ledger.json")
        assert main(["solve", problem, out_csv, out_ledger]) == 0
        knots = read_json(out_ledger)["knots"]
        assert [k["first_jump_order"] for k in knots] == [1, 2]
        assert [k["jump_norm"] for k in knots] == pytest.approx([0.5, 0.25], rel=1e-9)
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["t"]) == pytest.approx(2 * tau, rel=1e-12)
        # x(t) = 1/2 + e^-t / 2 on the first segment
        first = [r for r in rows if float(r["t"]) <= tau]
        assert float(first[-1]["x_1"]) == pytest.approx(0.5 + 0.5 * np.exp(-tau), rel=1e-12)

    def test_advanced_exit_code_two(self, tmp_path):
        problem = write_problem(tmp_path, example_advanced())
        out_csv = str(tmp_path / "traj.csv")
        out_ledger = str(tmp_path / "ledger.json")
        assert main(["solve", problem, out_csv, out_ledger]) == 2
        ledger = read_json(out_ledger)
        last = ledger["knots"][-1]
        assert last["inconsistent_restart"] is True
        assert last["time"] == pytest.approx(3.0)
        assert last["jump_norm"] == pytest.approx(2.0, abs=1e-8)
        # partial trajectory still written
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert max(float(r["t"]) for r in rows) == pytest.approx(3.0)


def write_csv_per_value(path, sys_, trajectory):
    """Reference: the trajectory writer with one "%.17g" call per value,
    each piece at the CGL nodes of its own degree (at least its ends)."""
    parts = {"_re": np.real, "_im": np.imag} if sys_.is_complex else {"": np.real}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cols = [f"x_{j}{suffix}" for j in range(1, sys_.n + 1) for suffix in parts]
        fh.write(",".join(["t"] + cols + ["side"]) + "\n")
        for seg in trajectory.segments:
            offset = (seg.index - 1) * trajectory.tau
            rows = []
            for p_idx, (a, b, coef) in enumerate(seg.pieces.pieces):
                deg = max(coef.shape[0] - 1, 1)
                nodes = 0.5 * (a + b) + 0.5 * (b - a) * cgl_nodes(deg)
                values = seg.pieces.basis.eval(coef, a, b, nodes).T
                skip = 1 if p_idx else 0
                rows += [(float(t), v) for t, v in zip(nodes[skip:], values[skip:])]
            for r_idx, (t_loc, value) in enumerate(rows):
                side = ""
                if r_idx == 0:
                    side = "R"
                elif r_idx == len(rows) - 1:
                    side = "L"
                vals = ["%.17g" % part(v) for v in value for part in parts.values()]
                fh.write(",".join(["%.17g" % (offset + t_loc)] + vals + [side]) + "\n")


def kinked_system(field, n=2, M=4):
    """Retarded system whose inhomogeneity has kinks at 0.3 and 0.7 of
    every interval, so every segment is solved in several pieces."""
    rng = np.random.default_rng(8)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field is complex else x

    cuts = sorted({0.0, float(M)} | {i + b for i in range(M) for b in (0.3, 0.7)})
    f = dk.PiecewisePolynomial([(a, b, draw(3, n)) for a, b in zip(cuts, cuts[1:])])
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, draw(2, n))])
    return dk.DdaeSystem(E=np.eye(n), A=-np.eye(n) + 0.3 * draw(n, n),
                         D=0.4 * draw(n, n), tau=1.0, horizon_intervals=M,
                         f=f, phi=phi)


class TestTrajectoryCsv:
    # degree is the solver's top collocation degree; the writer follows
    # the degree of each piece it is given
    @pytest.mark.parametrize("degree", [48, 3])
    @pytest.mark.parametrize("case", ["neutral", "advanced", "kinked-real",
                                      "kinked-complex"])
    def test_matches_per_value_writer(self, tmp_path, case, degree):
        sys_ = {
            "neutral": example_neutral,
            "advanced": example_advanced,  # breaks down: partial trajectory
            "kinked-real": lambda: kinked_system(float),
            "kinked-complex": lambda: kinked_system(complex),
        }[case]()
        traj, _ = dk.method_of_steps(sys_, config=dk.SolverConfig(degree=degree))
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        cli._write_trajectory_csv(got, sys_, traj)
        write_csv_per_value(ref, sys_, traj)
        assert got.read_bytes() == ref.read_bytes()
        rows = got.read_text().splitlines()[1:]
        sides = [r.rsplit(",", 1)[1] for r in rows]
        assert sides.count("R") == sides.count("L") == len(traj.segments)
        degrees = [[max(p.coef.shape[0] - 1, 1) for p in seg.pieces.pieces]
                   for seg in traj.segments]
        assert len(rows) == sum(sum(d) + 1 for d in degrees)
        if case.startswith("kinked"):
            assert min(len(d) for d in degrees) >= 3


class TestStabilityCommand:
    def test_scalar_retarded(self, tmp_path):
        phi = dk.PiecewisePolynomial.constant([1.0], -1.0, 0.0)
        f = dk.PiecewisePolynomial.zero(1, 0.0, 2.0)
        sys_ = dk.DdaeSystem(E=[[1.0]], A=[[-2.0]], D=[[1.0]], tau=1.0,
                             horizon_intervals=2, f=f, phi=phi)
        problem = write_problem(tmp_path, sys_)
        out = str(tmp_path / "stab.json")
        assert main(["stability", problem, out]) == 0
        report = read_json(out)
        assert report["alpha"] == pytest.approx(-0.4428544010, abs=1e-6)
        assert report["verdict"] == "stable"

    def test_de_smoothing_verdict(self, tmp_path):
        problem = write_problem(tmp_path, example_advanced())
        out = str(tmp_path / "stab.json")
        assert main(["stability", problem, out, "--grid", "40"]) == 0
        report = read_json(out)
        assert report["verdict"] == "inconclusive_de_smoothing"

    def test_custom_box(self, tmp_path):
        problem = write_problem(tmp_path, example_neutral())
        out = str(tmp_path / "stab.json")
        code = main([
            "stability", problem, out,
            "--re-min", "-5", "--re-max", "3", "--im-max", "40", "--grid", "60",
        ])
        assert code == 0
        report = read_json(out)
        assert report["box"]["re_max"] == 3.0
        assert report["alpha"] == pytest.approx(0.0, abs=1e-8)

    def test_newton_divergence_is_silent(self, tmp_path, capsys):
        # Newton iterates from the grid run far into the left half-plane,
        # where exp(-lambda tau) overflows; those candidates are dropped
        # without a word on stderr
        sys_ = dk.DdaeSystem(
            E=[[0.0, 1.0], [0.0, 0.0]], A=np.eye(2), D=[[0.0, 0.0], [1e-9, 0.0]],
            tau=1.0, horizon_intervals=3,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 3.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0),
        )
        problem = write_problem(tmp_path, sys_)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["stability", problem, str(tmp_path / "stab.json")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "base, entry, value",
        [(example_neutral, "D", 37.0), (example_advanced, "D", 77.0),
         (example_neutral, "A", 139.0)],
        ids=["logderiv-modulus", "residual-bound", "newton-step"],
    )
    def test_overflowing_moduli_keep_exit_zero(self, tmp_path, capsys, base, entry, value):
        # fuzzed problem files on which a 20 x 20 search raised
        # OverflowError: Python's abs of a complex log-derivative or Newton
        # step, and ||M||^n in the residual bound, overflowed; the lanes and
        # candidates whose moduli leave the float range are dropped, quietly
        sys_ = base()
        M = np.array(getattr(sys_, entry))
        M[0, 0] = value
        problem = write_problem(tmp_path, replace(sys_, **{entry: M}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["stability", problem, str(tmp_path / "stab.json"),
                         "--grid", "20"]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


class TestOverflowingNorms:
    @pytest.mark.parametrize(
        "command, base, entry, index, value",
        [("analyze", example_advanced, "D", (1, 0), 1.7976931348623157e308),
         ("hidden-delays", example_advanced, "D", (1, 0), 1.7976931348623157e308),
         ("analyze", example_neutral, "A", (0, 0), 1.5e230),
         ("stability", example_advanced, "D", (1, 0), -2.05e271)],
        ids=["analyze-advanced-max-float", "hidden-delays-advanced-max-float",
             "analyze-neutral-huge-A", "stability-advanced-huge-D"],
    )
    def test_overflowing_norm_powers_exit_malformed(self, tmp_path, capsys, command,
                                                    base, entry, index, value):
        # fuzzed problem files on which ||N||^k raised OverflowError (Python
        # floats) after the powers of B_a2 overflowed in matmul: a norm that
        # is not finite decides nothing, so the command exits 4, quietly
        sys_ = base()
        M = np.array(getattr(sys_, entry))
        M[index] = value
        problem = write_problem(tmp_path, replace(sys_, **{entry: M}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, problem, str(tmp_path / "out.json")]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOtherCommands:
    def test_hidden_delays_smoothing(self, tmp_path):
        problem = write_problem(tmp_path, example_slow_smoothing())
        out = str(tmp_path / "hd.json")
        assert main(["hidden-delays", problem, out]) == 0
        report = read_json(out)
        assert report["applicable"] is True
        assert report["nu_D"] == 1
        assert report["delays"] == [1.0, 2.0]
        assert report["D"] == [[[0.0]], [[1.0]]]

    def test_hidden_delays_not_applicable(self, tmp_path):
        problem = write_problem(tmp_path, example_neutral())
        out = str(tmp_path / "hd.json")
        assert main(["hidden-delays", problem, out]) == 0
        assert read_json(out)["applicable"] is False

    def test_check_history(self, tmp_path):
        problem = write_problem(tmp_path, example_slow_smoothing())
        out = str(tmp_path / "hist.json")
        assert main(["check-history", problem, out]) == 0
        report = read_json(out)
        assert report["admissible"] is True
        assert report["smooth_c1"] is False
        assert report["kappa_observed"] == 0

    def test_probe_writes_history_fragment(self, tmp_path):
        problem = write_problem(tmp_path, example_slow_smoothing())
        out = str(tmp_path / "probe.json")
        assert main([
            "probe", problem, out, "--order", "2", "--side", "slow",
            "--target", "1.0",
        ]) == 0
        report = read_json(out)
        pieces = report["history"]
        assert pieces[0]["start"] == pytest.approx(-1.0)
        assert pieces[-1]["end"] == pytest.approx(0.0)
        # the fragment is itself a valid history: splice it into the problem
        data = read_json(problem)
        data["history"] = pieces
        patched = tmp_path / "patched.json"
        patched.write_text(json.dumps(data))
        out2 = str(tmp_path / "hist2.json")
        assert main(["check-history", str(patched), out2]) == 0
        rep2 = read_json(out2)
        assert rep2["admissible"] is True
        assert rep2["smooth_c1"] is True
