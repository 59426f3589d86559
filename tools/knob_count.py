"""Count the knobs a user can turn: SolverConfig fields plus the options
of each CLI subcommand (flags only: positionals and --help are not knobs).

    PYTHONPATH=src python3 tools/knob_count.py

prints one line, ``<total> (SolverConfig fields <f>, CLI options <o>)``.
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


def main():
    config, options = knob_counts()
    print(f"{config + options} (SolverConfig fields {config}, CLI options {options})")


if __name__ == "__main__":
    main()
