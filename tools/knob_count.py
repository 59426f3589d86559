"""Count the knobs a user can turn: SolverConfig fields plus the options
of each CLI subcommand (flags only: positionals and --help are not knobs).

    PYTHONPATH=src python3 tools/knob_count.py [--max N]

prints one line, ``<total> (SolverConfig fields <f>, CLI options <o>)``,
and with --max exits 1 when the total exceeds N: a change that adds a
knob raises the ceiling in its own diff.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

from ddae_kit.cli import build_parser
from ddae_kit.solver import SolverConfig


def knob_counts():
    """(SolverConfig fields, options summed over the CLI subcommands)."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = sum(1 for command in sub.choices.values() for action in command._actions
                  if action.option_strings and not isinstance(action, argparse._HelpAction))
    return len(fields(SolverConfig)), options


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count the user-settable knobs.")
    parser.add_argument("--max", type=int, help="exit 1 when the total exceeds this ceiling")
    ceiling = parser.parse_args(argv).max
    config, options = knob_counts()
    total = config + options
    print(f"{total} (SolverConfig fields {config}, CLI options {options})")
    return 1 if ceiling is not None and total > ceiling else 0


if __name__ == "__main__":
    raise SystemExit(main())
