"""Which function-body lines of the library no benchmark case runs.

    python3 tools/traffic_lines.py SRC [--seed S ...] [--workload W ...] [--calls NAME ...]

Runs the benchmark cases exactly as tools/output_digests.py does (every
workload of bench/workloads.py for seeds 1-4, plus the probe variants of
the analyze problem files, each through ``ddae_kit.cli.main`` imported
from the directory SRC) under ``sys.settrace``, and prints, for each
module of the package, how many of its function-body lines ran and the
lines that no case executed, by function:

    ddae_kit/pencil.py: 12 of 180 function-body lines never ran
      wong_sequences: 292-295

--seed and --workload keep only the named seeds and workloads (the probe
variants are the workload ``probe``).  --calls prints how often each named
function (a qualified name such as ``PiecewisePolynomial._cut`` or
``SlowCollocation.integrate``) was called over the cases run; a name that
is not a function of the package is reported before any case runs, and
the tool exits 1, so that a misspelled name does not read as a function
that is never called.

A function-body line is a line of a function's body, after its
docstring, that holds bytecode; lines of a nested function belong to the
nested one.  The tracer sees only Python frames of the package, and it
slows the cases down several times, so this is a tool for reading
traffic, not for timing it.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import output_digests  # noqa: E402


def _code_lines(code):
    """Lines holding bytecode in code and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _functions(tree):
    """(qualified name, first body line, last body line) of every function
    and lambda, outer ones before the ones nested in them."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                body = child.body if isinstance(child.body, list) else [child.body]
                if (len(body) > 1 and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]  # the docstring
                out.append((name, body[0].lineno, child.end_lineno))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def body_lines(path):
    """{line: qualified name of the innermost function whose body holds
    it} for every function-body line of the module at path."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = _code_lines(compile(source, path, "exec"))
    owner = {}
    for name, first, last in _functions(ast.parse(source)):
        for line in range(first, last + 1):
            if line in executable:
                owner[line] = name  # nested functions come later and win
    return owner


def _ranges(lines):
    """'3-5, 9' for the sorted lines [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="directory holding the ddae_kit package")
    output_digests.add_filters(p)
    p.add_argument("--calls", action="append", default=[], metavar="NAME",
                   help="print the number of calls of this function")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    cli, run, wl = output_digests.load(src)
    package = os.path.join(src, "ddae_kit") + os.sep
    modules = [os.path.join(package, m) for m in sorted(os.listdir(package)) if m.endswith(".py")]
    owners = {path: body_lines(path) for path in modules}
    known = {name for owner in owners.values() for name in owner.values()}
    unknown = [name for name in args.calls if name not in known]
    for name in unknown:
        print(f"calls {name}: not a function of ddae_kit")
    if unknown:
        return 1
    ran, calls = set(), Counter()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        calls[code.co_qualname.replace(".<locals>", "")] += 1
        return local

    for name, seed, case, out_dir, options in output_digests.filtered_cases(args, run, wl):
        sys.settrace(tracer)
        try:
            output_digests.case_digest(run, cli, case, out_dir, options)
        finally:
            sys.settrace(None)

    for path, owner in owners.items():
        missed = sorted(line for line in owner if (path, line) not in ran)
        print(f"ddae_kit/{os.path.basename(path)}: {len(missed)} of {len(owner)}"
              " function-body lines never ran")
        by_function = {}
        for line in missed:
            by_function.setdefault(owner[line], []).append(line)
        for function, lines in by_function.items():
            print(f"  {function}: {_ranges(lines)}")
    for function in args.calls:
        print(f"calls {function}: {calls[function]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
