"""Property suites for the problem file and the command line.

A generated system written with dump_problem, read back and written again
gives the same bytes; a valid problem file with one field dropped or
replaced by an arbitrary JSON value makes every command exit with a code
of the contract (0, 2, 3 or 4) and never raise out of main.  The draws
are derandomized and bounded, so both suites are deterministic and fast.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ddae_kit as dk
from ddae_kit.cli import main

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    random_regular_pencil,
)

EXIT_CODES = {0, 2, 3, 4}
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

coefficients = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@st.composite
def piecewise(draw, n, lo, hi, complex_field):
    """A piecewise polynomial on [lo, hi] with 1..3 pieces of degree <= 3."""
    inner = draw(st.lists(st.floats(0.05, 0.95), max_size=2, unique=True))
    cuts = [lo] + [lo + (hi - lo) * c for c in sorted(inner)] + [hi]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        rows = draw(st.integers(1, 4))
        c = np.array(draw(st.lists(coefficients, min_size=rows * n, max_size=rows * n)))
        if complex_field:
            c = c + 1j * np.array(draw(st.lists(coefficients, min_size=rows * n,
                                                max_size=rows * n)))
        pieces.append((a, b, c.reshape(rows, n)))
    return dk.PiecewisePolynomial(pieces, n)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E, A, _ = random_regular_pencil(rng, n)
    tau = draw(st.floats(1e-6, 1e3))
    M = draw(st.integers(1, 4))
    complex_field = draw(st.booleans())
    return dk.DdaeSystem(E=E, A=A, D=rng.standard_normal((n, n)), tau=tau,
                         horizon_intervals=M,
                         f=draw(piecewise(n, 0.0, M * tau, complex_field)),
                         phi=draw(piecewise(n, -tau, 0.0, False)))


class TestProblemFileRoundTrip:
    @PROPERTY
    @given(systems())
    def test_dump_load_dump_is_byte_identical(self, sys_):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            dk.dump_problem(sys_, first)
            dk.dump_problem(dk.load_problem(first), second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()


BASES = [dk.problem_to_dict(s)
         for s in (example_neutral(), example_advanced(), example_slow_smoothing())]

numbers = st.integers(-100, 100) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=5,
)


def paths(node, prefix=()):
    """Every key or index path into a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_problems(draw):
    """A valid problem file with one field (at any depth) dropped, or
    replaced by a number or by an arbitrary JSON value."""
    data = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    path = draw(st.sampled_from(list(paths(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    how = draw(st.sampled_from(["drop", "number", "value"]))
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(numbers if how == "number" else json_values)
    return data


COMMANDS = [
    ["analyze", "out.json"],
    ["solve", "out.csv", "ledger.json"],
    ["stability", "out.json", "--grid", "20"],
    ["hidden-delays", "out.json"],
    ["check-history", "out.json"],
    ["probe", "out.json", "--order", "1"],
]


class TestCliFuzz:
    @settings(PROPERTY, max_examples=25)
    @given(mutated_problems())
    def test_every_command_keeps_the_exit_contract(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            problem = os.path.join(tmp, "problem.json")
            with open(problem, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            for command, *rest in COMMANDS:
                argv = [command, problem] + [
                    os.path.join(tmp, a) if a.endswith((".json", ".csv")) else a
                    for a in rest]
                assert main(argv) in EXIT_CODES, argv
