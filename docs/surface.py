#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, dataclass fields on the ``*Config`` /
``*Spec`` classes (each an independently settable value), how many of
those fields nothing in the repository sets, CLI flags and subcommands,
and how many of those flags nothing in the repository invokes, so
CHANGES.md can quote parent and change instead of a hand count::

    python docs/surface.py
    python docs/surface.py --check    # exit 1 on a never-set field or
                                      # a never-used flag (the CI gate)
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
#: Where a CLI flag counts as invoked (see :func:`never_used`).
USED_IN = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/protocol.md",
           ".github", ".claude", "tests", "bench", "benchmarks", "examples")
#: Deployment addresses stay configurable whether or not a recipe sets them.
DEPLOYMENT_FLAGS = ("--host", "--bind")


def option_classes() -> dict[str, list[str]]:
    """``module.Class`` -> field names of every *Config / *Spec dataclass."""
    import repro

    found: dict[str, list[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if (name.endswith(("Config", "Spec"))
                    and isinstance(obj, type)
                    and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                found[f"{info.name}.{name}"] = [
                    f.name for f in dataclasses.fields(obj)]
    return found


def _text(roots: tuple[str, ...], pattern: str) -> str:
    """Every file among *roots*, and every *pattern* file under the
    directories among them, as one string to search."""
    return "\n".join(
        path.read_text(encoding="utf-8", errors="ignore")
        for root in roots
        for path in ([ROOT / root] if (ROOT / root).is_file()
                     else sorted((ROOT / root).rglob(pattern)))
        if path.is_file() and path.suffix != ".pyc")


def never_set(classes: dict[str, list[str]]) -> list[str]:
    """``Class.field`` for every option no line of the repository sets:
    nothing under :data:`SET_IN` matches ``\\b<field>\\s*=``, as a keyword
    argument or an assignment would.  One value in use means a constant."""
    text = _text(SET_IN, "*.py")
    return [f"{cls.rsplit('.', 1)[1]}.{field}"
            for cls, fields in sorted(classes.items()) for field in fields
            if not re.search(rf"\b{field}\s*=", text)]


def subcommands(parser: argparse.ArgumentParser) -> int:
    """Top-level ``python -m repro <command>`` choices."""
    return sum(len(action.choices) for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))


def cli_flags(parser: argparse.ArgumentParser,
              command: str = "") -> list[tuple[str, str]]:
    """``(command, --flag)`` for every optional flag of *parser* and all
    its subcommands (not ``-h``)."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += cli_flags(sub, f"{command} {name}".strip())
        elif action.option_strings and action.dest != "help":
            found.append((command, action.option_strings[-1]))
    return found


def never_used(flags: list[tuple[str, str]]) -> list[str]:
    """``command --flag`` for every flag whose spelling appears in no doc,
    CI step, skill, test, example or bench under :data:`USED_IN`: nothing
    shows it working, so it is a library parameter, not a CLI surface."""
    text = _text(USED_IN, "*")
    return [f"{command} {flag}".strip() for command, flag in sorted(flags)
            if flag not in DEPLOYMENT_FLAGS
            and not re.search(rf"{flag}(?![\w-])", text)]


if __name__ == "__main__":
    from repro.cli import build_parser

    classes = option_classes()
    print("src python lines:   ", sum(len(p.read_bytes().splitlines())
                                      for p in SRC.rglob("*.py")))
    print("config/spec fields: ", sum(map(len, classes.values())),
          "on", len(classes), "classes")
    unset = never_set(classes)
    print("never-set fields:   ", len(unset), *unset)
    parser = build_parser()
    flags = cli_flags(parser)
    print("cli flags:          ", len(flags))
    unused = never_used(flags)
    print("never-used flags:   ", len(unused), ", ".join(unused))
    print("cli subcommands:    ", subcommands(parser))
    for name, fields in sorted(classes.items()):
        print(f"  {len(fields):3d}  {name}")
    if "--check" in sys.argv[1:] and (unset or unused):
        sys.exit("surface: an option or a flag nothing uses (see above)")
