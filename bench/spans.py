"""Span recording for the traced benchmark run.

The tracer wraps public functions of ddae_kit from the outside: every
module attribute that holds one of the target functions is replaced by
a wrapper, so callers that look the function up through their own
module namespace (``ddae_kit.cli.build_split``,
``ddae_kit.solver.solve_segment``, ...) enter a span.  Spans carry a
name, start, end, parent id and the id of the CLI invocation they belong
to; they are kept in memory and written as JSONL when the run ends.
Nothing is wrapped unless ``install`` is called, so untraced runs execute
the program unchanged.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import time
from collections import defaultdict

# (defining module, function) -> span name
TARGETS = {
    ("cli", "main"): "cli",
    ("problemfile", "load_problem"): "problemfile.load",
    ("pencil", "check_regularity"): "pencil.regularity",
    ("pencil", "compute_qwf"): "pencil.qwf",
    ("model", "build_split"): "model.split",
    ("classify", "classify"): "classify.classify",
    ("classify", "classify_propagation"): "classify.classify",
    ("classify", "classify_legacy"): "classify.classify",
    ("classify", "build_backward_system"): "classify.backward",
    ("classify", "classify_matrices"): "classify.backward",
    ("history", "splicing_report"): "history.splicing",
    ("history", "check_admissible"): "history.admissible",
    ("history", "check_index3_uniqueness"): "history.index3",
    ("reform", "expand_hidden_delays"): "reform.expand",
    ("solver", "method_of_steps"): "solver.steps",
    ("solver", "solve_segment"): "solver.segment",
    ("solver", "detect_jumps"): "solver.ledger",
    ("stability", "spectral_abscissa"): "stability.abscissa",
    ("stability", "spectral_abscissa_matrices"): "stability.abscissa",
    ("stability", "assess_exponential_stability"): "stability.assess",
}


class Tracer:
    """In-memory span list plus per-name counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.invocation = 0
        self.tag = None         # copied into every span, e.g. the pass index
        self._stack = []

    def wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            # spans exist only inside a CLI invocation, whose root is "cli"
            if not tracer._stack and name != "cli":
                return fn(*args, **kwargs)
            if name == "cli" and not tracer._stack:
                tracer.invocation += 1
            record = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "name": name,
                "invocation": tracer.invocation,
                "tag": tracer.tag,
                "start": time.perf_counter(),
                "end": None,
            }
            tracer.spans.append(record)
            tracer._stack.append(record)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record["end"] = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _load_problem_hook(counters, args, kwargs, result, error):
    path = args[0] if args else kwargs.get("path")
    counters["problemfile.bytes_in"] += os.path.getsize(path)


def _segment_hook(counters, args, kwargs, result, error):
    from ddae_kit.errors import InconsistentRestart
    from ddae_kit.solver import SolverConfig

    if isinstance(error, InconsistentRestart):
        counters["solver.breakdowns"] += 1
    if result is None:
        return
    split = args[0]
    config = args[3] if len(args) > 3 else kwargs.get("config", SolverConfig())
    pieces = len(result.pieces.pieces)
    counters["solver.pieces"] += pieces
    if split.n_d:
        counters["solver.colloc_unknowns"] += pieces * (config.degree + 1) * split.n_d


def _abscissa_hook(counters, args, kwargs, result, error):
    if result is None:
        return
    g_re, g_im = result.grid
    counters["stability.grid_evals"] += g_re * g_im
    counters["stability.roots"] += len(result.rightmost_roots)
    counters["stability.box_limited"] += bool(result.box_limited)


HOOKS = {
    ("problemfile", "load_problem"): _load_problem_hook,
    ("solver", "solve_segment"): _segment_hook,
    ("stability", "spectral_abscissa"): _abscissa_hook,
}


def _package_modules():
    import ddae_kit

    mods = [ddae_kit]
    for info in pkgutil.iter_modules(ddae_kit.__path__):
        mods.append(importlib.import_module(f"ddae_kit.{info.name}"))
    return mods


def install(tracer):
    """Wrap every module attribute bound to a target; returns an undo function."""
    modules = _package_modules()
    by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    wrappers = {}
    for (mod_name, attr), span_name in TARGETS.items():
        fn = getattr(by_module[mod_name], attr)
        wrappers[id(fn)] = tracer.wrap(fn, span_name, HOOKS.get((mod_name, attr)))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and callable(value):
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return uninstall


def self_times(spans, scale=None):
    """Total self time per span name: duration minus the children's durations.

    All spans come from one thread, so children never overlap and their
    durations add up to the part of the parent they cover.  scale(span),
    if given, multiplies each span's self time.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        own = (s["end"] - s["start"]) - child_time[s["id"]]
        out[s["name"]] += own if scale is None else own * scale(s)
    return out


def span_counts(spans):
    out = defaultdict(int)
    for s in spans:
        out[s["name"]] += 1
    return out
