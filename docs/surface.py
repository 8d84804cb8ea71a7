#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, dataclass fields on the ``*Config`` /
``*Spec`` classes (each an independently settable value; ``Scenario``
counts as one where it still exists), the hand-kept campaign cell-param
whitelist, CLI flags and subcommands, so CHANGES.md can quote parent and
change instead of a hand count::

    python docs/surface.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def option_classes() -> dict[str, int]:
    """``module.Class`` -> field count of every *Config / *Spec dataclass
    (and of ``Scenario``, the third run description PR 18 folded away)."""
    import repro

    found: dict[str, int] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if ((name.endswith(("Config", "Spec")) or name == "Scenario")
                    and isinstance(obj, type)
                    and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                found[f"{info.name}.{name}"] = len(dataclasses.fields(obj))
    return found


def whitelist_entries() -> int:
    """Names on ``campaign.cells.SCENARIO_PARAMS`` (0 once it is derived)."""
    from repro.campaign import cells

    return len(getattr(cells, "SCENARIO_PARAMS", ()))


def subcommands(parser: argparse.ArgumentParser) -> int:
    """Top-level ``python -m repro <command>`` choices."""
    return sum(len(action.choices) for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))


def cli_flags(parser: argparse.ArgumentParser) -> int:
    """Optional flags of *parser* and all its subcommands (not ``-h``)."""
    total = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            total += sum(cli_flags(p) for p in set(action.choices.values()))
        elif action.option_strings and action.dest != "help":
            total += 1
    return total


if __name__ == "__main__":
    from repro.cli import build_parser

    classes = option_classes()
    print("src python lines:   ", sum(len(p.read_bytes().splitlines())
                                      for p in SRC.rglob("*.py")))
    print("config/spec fields: ", sum(classes.values()),
          "on", len(classes), "classes")
    print("whitelist entries:  ", whitelist_entries())
    parser = build_parser()
    print("cli flags:          ", cli_flags(parser))
    print("cli subcommands:    ", subcommands(parser))
    for name, n in sorted(classes.items()):
        print(f"  {n:3d}  {name}")
