#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, the ``src`` modules none of whose
functions :data:`ENTRY_POINTS` call, dataclass fields on the
``*Config`` / ``*Spec`` classes (each an independently settable value),
how many of those fields nothing in the repository sets, CLI flags and
subcommands, how many of those flags nothing in the repository invokes,
the campaign cell kinds, the functions that build campaign cells and the
builtin grid names, so CHANGES.md can quote parent and change instead of
a hand count::

    python docs/surface.py
    python docs/surface.py --check    # exit 1 on an unreached module, a
                                      # never-set field or a never-used
                                      # flag (the CI gate)
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import sys
import tempfile
import threading
import time
import typing as _t
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


def grid_builders() -> list[str]:
    """Functions of :mod:`repro.experiments.grids` that construct campaign
    cells themselves (every other grid function delegates to one)."""
    from repro.experiments import grids

    return [name for name, fn in vars(grids).items()
            if inspect.isfunction(fn) and fn.__module__ == grids.__name__
            and "CampaignCell(" in inspect.getsource(fn)]


def grid_names() -> list[str]:
    """The builtin grid names, as ``campaign --list-grids`` prints them."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["campaign", "--list-grids"])
    return [line.split()[0] for line in out.getvalue().splitlines()]


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


def _cli(*argv: object) -> None:
    """``python -m repro *argv*`` in this process."""
    from repro.cli import main

    code = main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"repro {' '.join(map(str, argv))}: exit {code}")


def _simulated_runs(scratch: Path) -> None:
    """``repro run``: BOINC-MR with the run summary and a CSV trace,
    original BOINC with a Chrome trace, and a chaos plan audited into a
    summary file."""
    small = ("--nodes", 8, "--maps", 8, "--reducers", 2, "--input-gb", 0.1)
    _cli("run", "--list-plans")
    _cli("run", "--mr", *small, "--summary",
         "--trace-out", scratch / "run.csv", "--trace-format", "csv")
    _cli("run", *small, "--trace-out", scratch / "run.json")
    _cli("run", "--mr", *small, "--faults", "flaky-network",
         "--summary-out", scratch / "faults.json")


def _real_runtime(scratch: Path) -> None:
    """``repro wordcount`` on real bytes."""
    _cli("wordcount", "--size-mb", 0.1, "--maps", 4, "--reducers", 2)


def _paper_grid(scratch: Path) -> None:
    """The paper grid, every cell inline, rendered into EXPERIMENTS.md's
    study blocks as ``docs/gen_experiments.py`` does; then the same store
    read by ``repro campaign --aggregate``, and ``--list-grids``."""
    import gen_experiments
    from repro import experiments
    from repro.campaign import run_campaign

    store = str(scratch / "paper.jsonl")
    run_campaign(experiments.paper_grid(), store, workers=0)
    gen_experiments.render_document(
        gen_experiments.DOCUMENT.read_text(encoding="utf-8"), store)
    _cli("campaign", "--aggregate", store)
    _cli("campaign", "--list-grids")


def _campaign_work(scratch: Path) -> None:
    """``repro campaign work`` against an in-process coordinator, on its
    own thread, serving one cell."""
    from repro.campaign import (CampaignCell, CampaignCoordinator,
                                CampaignGrid, ResultStore)

    grid = CampaignGrid(name="probe", cells=(CampaignCell(
        kind="sleep", seed=0, params={"duration_s": 0.0}),))
    coordinator = CampaignCoordinator(
        grid, ResultStore(scratch / "work.jsonl"), spawn=0, heartbeat_s=0.2)
    served = threading.Thread(target=coordinator.run, daemon=True)
    served.start()
    while not coordinator.port:
        time.sleep(0.01)
    _cli("campaign", "work", f"127.0.0.1:{coordinator.port}")
    served.join()


def _live_gateway(scratch: Path) -> None:
    """A self-hosted ``repro loadgen``, then one job per
    :data:`~repro.gateway.APP_REGISTRY` app on a live gateway, run by two
    ``repro volunteer`` threads."""
    from repro.gateway import APP_REGISTRY, GatewayClient, GatewayServer

    _cli("loadgen", "--clients", 8, "--duration", 1, "--maps", 4,
         "--reducers", 2, "--out", scratch / "load.json")
    gateway = GatewayServer.in_thread()
    client = GatewayClient(gateway.address)
    try:
        for app in APP_REGISTRY:
            client.submit_job(app, app, 20_000, 1, 4, 2)
        volunteers = [threading.Thread(target=_cli, args=(
            "volunteer", "--address", gateway.address, "--name", f"probe{k}",
            "--idle-limit", 25)) for k in range(2)]
        for thread in volunteers:
            thread.start()
        for app in APP_REGISTRY:
            while client.job_status(app)["state"] == "running":
                if not any(thread.is_alive() for thread in volunteers):
                    raise RuntimeError(f"probe job {app!r} left unfinished")
                time.sleep(0.01)
            client.job_output(app)
        for thread in volunteers:
            thread.join()
    finally:
        client.close()
        gateway.close()


#: What the reachability probe runs, each in this process and in order.
ENTRY_POINTS = (_simulated_runs, _real_runtime, _paper_grid, _campaign_work,
                _live_gateway)


def _defines_functions(path: Path) -> bool:
    """Whether the module at *path* has a function, method or lambda."""
    stack = [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        nested = [c for c in code.co_consts if inspect.iscode(c)]
        if any(c.co_flags & inspect.CO_NEWLOCALS for c in nested):
            return True
        stack += nested
    return False


def unreached_modules() -> list[str]:
    """``src`` modules none of whose functions :data:`ENTRY_POINTS` call.

    Their standard output is dropped, and every thread runs under a
    profile hook that notes each function code object entered; a module
    counts as reached when one of them is its own.  A module body is not a function, so an import alone reaches
    nothing; a function called while importing (``col`` building a
    study's columns) does, so call this before anything imports
    ``repro``.  Work done in a child process (``--spawn``, a worker's
    forked cell) is not seen, which is why the paper grid runs inline."""
    seen: set = set()

    def hook(frame: _t.Any, event: str, _arg: _t.Any) -> None:
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with (tempfile.TemporaryDirectory() as scratch,
              contextlib.redirect_stdout(io.StringIO())):
            for entry in ENTRY_POINTS:
                entry(Path(scratch))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {code.co_filename for code in seen
               if code.co_flags & inspect.CO_NEWLOCALS}
    return [str(path.relative_to(SRC / "repro"))
            for path in sorted(SRC.rglob("*.py"))
            if str(path) not in reached and _defines_functions(path)]


if __name__ == "__main__":
    unreached = unreached_modules()

    from repro.cli import build_parser

    classes = option_classes()
    print("src python lines:   ", sum(len(p.read_bytes().splitlines())
                                      for p in SRC.rglob("*.py")))
    print("src modules no entry point reaches:", len(unreached), *unreached)
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
    from repro.campaign import CELL_KINDS

    print("campaign cell kinds:", len(CELL_KINDS), ", ".join(CELL_KINDS))
    builders = grid_builders()
    print("grid builders:      ", len(builders), ", ".join(builders))
    grids = grid_names()
    print("builtin grids:      ", len(grids), ", ".join(grids))
    for name, fields in sorted(classes.items()):
        print(f"  {len(fields):3d}  {name}")
    if "--check" in sys.argv[1:] and (unreached or unset or unused):
        sys.exit("surface: a module, an option or a flag nothing uses "
                 "(see above)")
