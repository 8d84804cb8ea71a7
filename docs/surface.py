#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, dataclass fields on the ``*Config`` /
``*Spec`` classes (each an independently settable value; ``Scenario``
counts as one where it still exists), how many of those fields nothing
in the repository sets, the hand-kept campaign cell-param whitelist, CLI
flags and subcommands, so CHANGES.md can quote parent and change instead
of a hand count::

    python docs/surface.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import pkgutil
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Where an option counts as set (see :func:`never_set`).
SET_IN = ("src", "tests", "bench", "benchmarks", "examples", "README.md",
          "EXPERIMENTS.md", "DESIGN.md")


def option_classes() -> dict[str, list[str]]:
    """``module.Class`` -> field names of every *Config / *Spec dataclass
    (and of ``Scenario``, the third run description PR 18 folded away)."""
    import repro

    found: dict[str, list[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if ((name.endswith(("Config", "Spec")) or name == "Scenario")
                    and isinstance(obj, type)
                    and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                found[f"{info.name}.{name}"] = [
                    f.name for f in dataclasses.fields(obj)]
    return found


def never_set(classes: dict[str, list[str]]) -> list[str]:
    """``Class.field`` for every option no line of the repository sets:
    nothing under :data:`SET_IN` matches ``\\b<field>\\s*=``, as a keyword
    argument or an assignment would.  One value in use means a constant."""
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for root in SET_IN
        for path in ([ROOT / root] if (ROOT / root).is_file()
                     else sorted((ROOT / root).rglob("*.py"))))
    return [f"{cls.rsplit('.', 1)[1]}.{field}"
            for cls, fields in sorted(classes.items()) for field in fields
            if not re.search(rf"\b{field}\s*=", text)]


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
    print("config/spec fields: ", sum(map(len, classes.values())),
          "on", len(classes), "classes")
    unset = never_set(classes)
    print("never-set fields:   ", len(unset), *unset)
    print("whitelist entries:  ", whitelist_entries())
    parser = build_parser()
    print("cli flags:          ", cli_flags(parser))
    print("cli subcommands:    ", subcommands(parser))
    for name, fields in sorted(classes.items()):
        print(f"  {len(fields):3d}  {name}")
