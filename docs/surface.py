#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, the ``src`` modules none of whose
functions :data:`ENTRY_POINTS` call, the ``src`` functions none of them
enter and how many of those :data:`PINNED` keeps, the fields ``src``
stores and never reads and how many of those :data:`FIELD_PINS` keeps,
the parameters no body reads and how many of those :data:`UNREAD_PINS`
keeps, the module-level imports of ``src`` and
``tests`` nothing uses (none may stay), dataclass fields on the
``*Config`` / ``*Spec`` classes (each an independently settable value),
the :func:`census` of those fields and of every defaulted parameter of a
public ``src`` function (nothing sets it, only tests set it, the product
sets it only to its default: each one value in use) and how many of the
parameters :data:`PARAM_PINS` keeps, CLI
flags and subcommands, how many of those flags nothing in the repository
invokes, the campaign cell kinds, the functions that build campaign cells
and the builtin grid names, so CHANGES.md can quote parent and change
instead of a hand count::

    python docs/surface.py
    python docs/surface.py --check    # exit 1 on an unreached module, an
                                      # unreached function, a write-only
                                      # field or an unread parameter not
                                      # pinned, an unused import, a stale
                                      # pin, a config or spec field or
                                      # parameter with one value in use
                                      # not pinned or a never-used flag
                                      # (the CI gate)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import socket
import sys
import tempfile
import threading
import time
import typing as _t
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Where a config field counts as set by the product (see :func:`census`).
PRODUCT_IN = ("src", "bench", "benchmarks")
#: Where a test or an example sets one.
TESTS_IN = ("tests", "examples")
#: Where a CLI flag counts as invoked (see :func:`never_used`).
USED_IN = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/protocol.md",
           ".github", ".claude", "tests", "bench", "benchmarks", "examples")
#: Deployment addresses stay configurable whether or not a recipe sets them.
DEPLOYMENT_FLAGS = ("--host", "--bind")


def option_classes() -> dict[str, type]:
    """``module.Class`` -> every *Config / *Spec dataclass of ``repro``."""
    import repro

    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if (name.endswith(("Config", "Spec"))
                    and isinstance(obj, type)
                    and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                found[f"{info.name}.{name}"] = obj
    return found


class Knob(_t.NamedTuple):
    """One value a caller can set: a field of a ``*Config`` / ``*Spec``
    class (:func:`census_fields`) or a defaulted parameter of a public
    ``src`` function (:func:`parameters`)."""

    #: The keyword that sets it.
    name: str
    #: The called name whose calls set it: its function's, or its class's
    #: for a field or an ``__init__`` parameter.
    call: str
    #: Its index among a call's positional arguments; None if keyword-only.
    position: int | None
    #: Its default: a value, or the expression a ``def`` gives.
    default: object
    #: A dataclass field, which ``replace(...)`` also sets.
    field: bool = False


def census_fields(classes: dict[str, type]) -> dict[str, Knob]:
    """``Class.field`` -> :class:`Knob`, for every field of every
    *Config / *Spec class in *classes* (:func:`option_classes`)."""
    found = {}
    for cls in classes.values():
        positional = [field.name for field in dataclasses.fields(cls)
                      if field.init and not field.kw_only]
        for field in dataclasses.fields(cls):
            found[f"{cls.__name__}.{field.name}"] = Knob(
                field.name, cls.__name__,
                positional.index(field.name) if field.name in positional
                else None, field.default, field=True)
    return found


def parameters(sources: dict[str, str] | None = None) -> dict[str, Knob]:
    """``module:qualname(name)`` -> :class:`Knob`, for every defaulted
    parameter of a public function, method or constructor in *sources*
    (module name -> text; default every ``src`` file): a ``def`` at
    module or class level whose name and classes do not begin with
    ``_``, or an ``__init__``.  A parameter whose own name begins with
    ``_`` is left out."""
    if sources is None:
        sources = {_module_name(str(path)): path.read_text(encoding="utf-8")
                   for path in sorted(SRC.rglob("*.py"))}
    found: dict[str, Knob] = {}

    def visit(module: str, body: list[ast.stmt], prefix: str,
              owner: str | None) -> None:
        for node in body:
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")):
                visit(module, node.body, f"{prefix}{node.name}.", node.name)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (not node.name.startswith("_")
                       or (node.name == "__init__" and owner))):
                init = node.name == "__init__"
                args = node.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and "staticmethod" not in {
                    getattr(d, "id", None) for d in node.decorator_list}
                defaulted = [
                    (arg, index - bound, default) for index, (arg, default)
                    in enumerate(zip(positional, [None] * (
                        len(positional) - len(args.defaults))
                        + args.defaults))
                    if default is not None] + [
                    (arg, None, default) for arg, default
                    in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                for arg, position, default in defaulted:
                    if not arg.arg.startswith("_"):
                        found[f"{module}:{prefix}{node.name}({arg.arg})"] = (
                            Knob(arg.arg, owner if init else node.name,
                                 position, default))

    for module, text in sources.items():
        visit(module, ast.parse(text).body, "", None)
    return found


def _sources(roots: tuple[str, ...], pattern: str = "*.py") -> list[str]:
    """The text of every file among *roots* and of every *pattern* file
    under the directories among them."""
    return [path.read_text(encoding="utf-8", errors="ignore")
            for root in roots
            for path in ([ROOT / root] if (ROOT / root).is_file()
                         else sorted((ROOT / root).rglob(pattern)))
            if path.is_file() and path.suffix != ".pyc"]


def _called(func: ast.expr) -> str | None:
    """The name a call to *func* goes by: ``f`` or ``<expr>.f``."""
    return getattr(func, "id", getattr(func, "attr", None))


def _calls(tree: ast.AST) -> _t.Iterator[
        tuple[str | None, list[ast.expr], list[ast.keyword]]]:
    """``(called name, positional arguments, keywords)`` of every call in
    *tree*.  A ``cls(...)`` inside a class body calls that class, and a
    ``super().__init__(...)`` its first base; ``partial(f, ...)`` and
    ``Thread`` / ``Process(target=f, args=(...), kwargs={...})`` also
    call ``f``."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if getattr(call.func, "id", None) == "cls":
                    owners[id(call)] = node.name
                elif (getattr(call.func, "attr", None) == "__init__"
                      and getattr(call.func.value, "func", None) is not None
                      and getattr(call.func.value.func, "id", None)
                      == "super" and node.bases):
                    owners[id(call)] = _called(node.bases[0])
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = owners.get(id(call)) or _called(call.func)
        yield name, call.args, call.keywords
        if name == "partial" and call.args:
            yield _called(call.args[0]), call.args[1:], call.keywords
        elif name in ("Thread", "Process"):
            given = {keyword.arg: keyword.value for keyword in call.keywords}
            if "target" in given:
                args = given.get("args", ast.Tuple([]))
                kwargs = given.get("kwargs", ast.Dict([], []))
                yield (_called(given["target"]),
                       getattr(args, "elts", [ast.Starred(args)]),
                       [ast.keyword(ast.literal_eval(key), value)
                        for key, value in zip(kwargs.keys, kwargs.values)]
                       if isinstance(kwargs, ast.Dict) else [])


def setters(knobs: dict[str, Knob],
            sources: list[str]) -> dict[str, list[ast.expr]]:
    """Key of each of *knobs* -> the value of every argument in *sources*
    that sets it: a keyword of its name, or a positional argument (before
    any ``*args``) at its position, in a call by name or attribute to
    its :attr:`~Knob.call` (:func:`_calls`); and for a field, a keyword
    of its name in any ``replace(...)`` (which sets the field of that name
    on every class that has one).  A keyword of the same name on any
    other call sets nothing, nor does a ``**mapping``."""
    by_call: dict[str | None, list[str]] = {}
    for key, knob in knobs.items():
        by_call.setdefault(knob.call, []).append(key)
    fields = [key for key, knob in knobs.items() if knob.field]
    found: dict[str, list[ast.expr]] = {}
    for source in sources:
        for name, args, keywords in _calls(ast.parse(source)):
            given = {keyword.arg: keyword.value for keyword in keywords}
            positional = list(_until_starred(args))
            for key in by_call.get(name, ()):
                knob = knobs[key]
                if knob.name in given:
                    found.setdefault(key, []).append(given[knob.name])
                elif (knob.position is not None
                      and knob.position < len(positional)):
                    found.setdefault(key, []).append(
                        positional[knob.position])
            if name == "replace":
                for key in fields:
                    if knobs[key].name in given:
                        found.setdefault(key, []).append(
                            given[knobs[key].name])
    return found


def _until_starred(args: list[ast.expr]) -> _t.Iterator[ast.expr]:
    """The positional arguments before the first ``*args``."""
    for arg in args:
        if isinstance(arg, ast.Starred):
            return
        yield arg


def _is_default(value: ast.expr, knob: Knob) -> bool:
    """True when *value* is *knob*'s default: the same expression as a
    ``def`` gives, or a literal equal to it."""
    default = knob.default
    if isinstance(default, ast.expr):
        if ast.dump(value) == ast.dump(default):
            return True
        try:
            default = ast.literal_eval(default)
        except (ValueError, TypeError, SyntaxError):
            return False
    try:
        return ast.literal_eval(value) == default
    except (ValueError, TypeError, SyntaxError):
        return False


def cell_params() -> set[str]:
    """``Class.field`` of every *Spec field a ``scenario`` cell admits: a
    TOML grid, input from outside the program, sets it."""
    from repro.campaign.cells import _scalar_fields
    from repro.core import CloudSpec, MapReduceJobSpec

    return {f"{cls.__name__}.{name}" for cls in (CloudSpec, MapReduceJobSpec)
            for name in _scalar_fields(cls)}


def census(knobs: dict[str, Knob],
           product: list[str] | None = None,
           tests: list[str] | None = None,
           outside: _t.Iterable[str] | None = None
           ) -> tuple[list[str], list[str], list[str]]:
    """The *knobs* (:func:`census_fields`, :func:`parameters`) nothing
    sets, those only *tests* set and those *product* sets only to their
    default, by :func:`setters` over the ``.py`` files of *product*
    (default: under :data:`PRODUCT_IN`) and *tests* (default: under
    :data:`TESTS_IN`).  The *outside* keys (default :func:`cell_params`)
    count as set by the product.  Each is one value in use, so a
    constant, not a knob."""
    product = setters(knobs, _sources(PRODUCT_IN)
                      if product is None else product)
    outside = set(cell_params() if outside is None else outside)
    tested = setters(knobs, _sources(TESTS_IN) if tests is None else tests)
    return ([key for key in knobs if key not in product
             and key not in outside and key not in tested],
            [key for key in knobs if key not in product
             and key not in outside and key in tested],
            [key for key, values in product.items() if key not in outside
             and all(_is_default(value, knobs[key]) for value in values)])


#: Why a parameter with one value in use (:func:`census`) may stay one.
PIN_REASONS = {
    "fake": "a test substitutes a fake through it",
    "bound": "it bounds a wait or a loop",
    "entry": "it is the program's entry",
    "bench": "a benchmark workload passes it, and the benchmark's files "
             "change only with the benchmark",
}

#: ``module:qualname(parameter)`` -> (the test that sets it, one of
#: :data:`PIN_REASONS`), for each parameter with one value in use that
#: stays a parameter.
PARAM_PINS: dict[str, tuple[str, str]] = {
    "net.flows:FlowNetwork.__init__(allocator)": (
        "tests/test_scale_experiment.py::TestScaleStudy::"
        "test_scale_out_agrees_with_reference_allocator", "fake"),
    "sim.engine:Simulator.run(max_steps)": (
        "tests/sim/test_engine.py::test_max_steps_detects_livelock", "bound"),
    "campaign.runner:run_campaign(timeout_s)": (
        "tests/campaign/test_runner.py::TestLocalRuns::test_retries_counted",
        "bound"),
    "campaign.coordinator:CampaignCoordinator.__init__(wall_limit_s)": (
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_exception_in_run_reaps_the_fleet", "bound"),
    "gateway.client:GatewayClient.__init__(timeout_s)": (
        "tests/gateway/test_batch_differential.py::"
        "test_download_all_is_downloads_one_by_one", "bound"),
    "cli:main(argv)": (
        "tests/test_cli.py::TestCommands::test_run_command", "entry"),
    # bench/workloads.py passes spans=True, the default and every caller's.
    "core.system:VolunteerCloud.attach_observability(spans)": (
        "bench/test_selfcheck.py::test_every_workload_runs_clean", "bench"),
}


def param_problems(found: dict[str, str], params: _t.Iterable[str],
                   pins: dict[str, tuple[str, str]] | None = None
                   ) -> list[str]:
    """One line per parameter or spec field with one value in use
    (*found*: key -> why, from :func:`census`) that *pins* (default
    :data:`PARAM_PINS`) leaves out, and per stale pin: its parameter is
    not among *params* (:func:`parameters`) or the product sets it, its
    reason is not one of :data:`PIN_REASONS`, or it names a file or
    anything but an existing test (:func:`_pin_problem`)."""
    pins = PARAM_PINS if pins is None else pins
    params = set(params)
    problems = [f"{key}: {why}, and it is not pinned"
                for key, why in found.items() if key not in pins]
    for key, (by, reason) in pins.items():
        if key not in params:
            problems.append(f"{key}: pinned, but no such parameter")
        elif key not in found:
            problems.append(f"{key}: pinned, but the product sets it")
        elif reason not in PIN_REASONS:
            problems.append(f"{key}: pinned for {reason!r}, which is not "
                            f"one of {', '.join(PIN_REASONS)}")
        elif "::" not in by:
            problems.append(f"{key}: pinned by {by}, a file: pin a test "
                            "in it (path::test)")
        elif problem := _pin_problem(key, by):
            problems.append(f"{key}: pinned by {by}, but {problem}")
    return problems


#: Fields ``src`` stores and never reads (:func:`write_only_fields`),
#: each with the test or file outside ``src`` that reads it.
FIELD_PINS = {
    # The RPC differential's oracle compares it.
    "net.transfer:SimSemaphore.cancelled_total":
        "tests/boinc/test_rpc_differential.py::"
        "test_rpc_matches_the_process_it_replaced",
    "gateway.client:VolunteerStats.idle_polls": "bench/workloads.py",
    # Exception payloads: the code that catches them reads them.
    "sim.process:Interrupted.cause":
        "tests/sim/test_process.py::test_interrupt_raises_interrupted",
    "gateway.client:GatewayError.code":
        "tests/gateway/test_server.py::TestBasics::"
        "test_scheduler_unknown_host",
}


def write_only_fields(sources: dict[str, str] | None = None) -> list[str]:
    """``module:Class.name`` of every attribute ``src`` stores and never
    loads, in *sources* (module name -> text; default every ``src``
    file): a ``<expr>.<name> = ...`` or ``+= ...`` store, or a
    ``<expr>.<name>[key] = ...`` store, whose ``<name>`` none of them
    loads as an attribute (the base of a subscript store is no load) or
    mentions as a string (a ``getattr`` name, a payload key; a
    ``__slots__`` string is no mention).  The class is the one whose body
    declares ``name`` or whose methods assign ``self.name``, in the
    storing module first."""
    if sources is None:
        sources = {_module_name(str(path)): path.read_text(encoding="utf-8")
                   for path in sorted(SRC.rglob("*.py"))}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    owners: dict[str, dict[str, str]] = {}   # module -> name -> owner key
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                names = [stmt.target.id for stmt in cls.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)]
                names += [node.attr for node in ast.walk(cls)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and getattr(node.value, "id", None) == "self"]
                for name in names:
                    owners.setdefault(module, {}).setdefault(
                        name, f"{module}:{cls.name}.{name}")
    declared: dict[str, str] = {}
    for found in owners.values():
        for name, key in found.items():
            declared.setdefault(name, key)
    loads: set[str] = set()
    fields: dict[str, str] = {}   # module:Class.name -> name
    for module, tree in trees.items():
        local = owners.get(module, {})
        stored: list[str] = []
        not_loads: set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)):
                not_loads.add(id(node.value))
                stored.append(node.value.attr)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                    getattr(target, "id", None) == "__slots__"
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])):
                not_loads.update(id(c) for c in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append(node.attr)
                elif id(node) not in not_loads:
                    loads.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in not_loads):
                loads.add(node.value)
        for name in stored:
            key = local.get(name) or declared.get(name) or f"{module}:{name}"
            fields.setdefault(key, name)
    return [key for key, name in fields.items() if name not in loads]


def field_problems(fields: list[str],
                   pins: dict[str, str] | None = None) -> list[str]:
    """One line per write-only field (:func:`write_only_fields`) *pins*
    (default :data:`FIELD_PINS`) leaves out, and per stale pin: ``src``
    reads its field or no longer stores it, or its test or file cannot
    pin it (:func:`_pin_problem`)."""
    pins = FIELD_PINS if pins is None else pins
    problems = [f"{name}: src stores it, never reads it, and it is not "
                "pinned" for name in fields if name not in pins]
    for name, by in pins.items():
        if name not in fields:
            problems.append(f"{name}: pinned, but src reads it or no longer "
                            "stores it")
        elif problem := _pin_problem(name, by):
            problems.append(f"{name}: pinned by {by}, but {problem}")
    return problems


def _stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body that is a docstring and ``...`` or ``raise
    NotImplementedError`` alone: a declared signature, not an
    implementation."""
    body = [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str))]
    return all((isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)
               or (isinstance(stmt, ast.Raise)
                   and getattr(stmt.exc, "id", None) == "NotImplementedError")
               for stmt in body)


def unread_parameters(sources: dict[str, str] | None = None) -> list[str]:
    """``module:qualname(name)`` of every parameter of a ``def`` in
    *sources* (module name -> text; default every ``src`` file) that its
    body, nested functions included, never reads.  Left out: a method's
    ``self`` or ``cls``, a parameter whose name begins with ``_``, a
    :func:`_stub`, a method of a ``Protocol``, and a method whose name a
    base class of *sources* also defines (that base fixes the signature).
    A base is one of *sources* when its module defines it or imports it
    from ``repro`` by a bare name."""
    if sources is None:
        sources = {_module_name(str(path)): path.read_text(encoding="utf-8")
                   for path in sorted(SRC.rglob("*.py"))}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    #: Class name -> the names its body defines, for every class.
    defines: dict[str, set[str]] = {}
    #: Class name -> the names of its bases that are classes of *sources*.
    bases: dict[str, list[str]] = {}
    for tree in trees.values():
        classes = {node.name: node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        local = set(classes) | {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("repro"))
            for alias in node.names}
        for name, cls in classes.items():
            defines.setdefault(name, set()).update(
                target.id for stmt in cls.body
                for target in ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                               else getattr(stmt, "targets", []))
                if isinstance(target, ast.Name))
            defines[name].update(
                stmt.name for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))
            bases.setdefault(name, []).extend(
                base.id for base in cls.bases
                if isinstance(base, ast.Name) and base.id in local)

    def inherited(cls: str, name: str) -> bool:
        return any(name in defines.get(base, ()) or inherited(base, name)
                   for base in bases.get(cls, ()) if base != cls)

    found: list[str] = []

    def visit(module: str, body: list[ast.stmt], prefix: str,
              owner: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, f"{prefix}{node.name}.", node)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualname = f"{prefix}{node.name}"
            visit(module, node.body, f"{qualname}.<locals>.", None)
            if _stub(node) or owner is not None and (
                    any(getattr(base, "id", getattr(base, "attr", None))
                        == "Protocol" for base in owner.bases)
                    or inherited(owner.name, node.name)):
                continue
            args = node.args
            names = [arg.arg for arg in (args.posonlyargs + args.args
                                         + args.kwonlyargs)]
            names += [arg.arg for arg in (args.vararg, args.kwarg) if arg]
            if owner is not None and "staticmethod" not in {
                    getattr(d, "id", None) for d in node.decorator_list}:
                names = names[1:]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            found.extend(f"{module}:{qualname}({name})" for name in names
                         if not name.startswith("_") and name not in read)

    for module, tree in trees.items():
        visit(module, tree.body, "", None)
    return found


#: Parameters no body reads (:func:`unread_parameters`) that stay, each
#: with the caller that fixes its signature.
UNREAD_PINS = {
    "core.jobtracker:JobTracker._on_assimilated(canonical)":
        "the scheduler's assimilate_handler hook hands every handler the "
        "canonical result",
    "faults.injector:FaultInjector._apply_dataserver_outage(spec)":
        "FaultInjector dispatches every _apply_<kind> with the fault's spec",
    "faults.injector:FaultInjector._apply_server_crash(spec)":
        "FaultInjector dispatches every _apply_<kind> with the fault's spec",
    "obs.probes:SelfProfiler._observe(args)":
        "the simulator's dispatch hook hands every hook the callback's "
        "arguments",
    "gateway.jobs:JobSignal.trigger(value)":
        "it mirrors sim Event.trigger(value), the signal the simulated "
        "job tracker fires",
}


def unread_problems(unread: list[str],
                    pins: dict[str, str] | None = None) -> list[str]:
    """One line per unread parameter (:func:`unread_parameters`) *pins*
    (default :data:`UNREAD_PINS`) leaves out, and per stale pin: a body
    now reads its parameter, or the parameter is gone."""
    pins = UNREAD_PINS if pins is None else pins
    problems = [f"{key}: no body reads it, and it is not pinned"
                for key in unread if key not in pins]
    problems += [f"{key}: pinned, but a body reads it or it is gone"
                 for key in pins if key not in unread]
    return problems


#: Where :func:`unused_imports` looks.
IMPORTS_IN = ("src", "tests")


def unused_imports(sources: dict[str, str] | None = None) -> list[str]:
    """``path:name`` of every name a module-level import binds that its
    module never loads and does not list in ``__all__``, in *sources*
    (path -> text; default every file under :data:`IMPORTS_IN`).  Imports
    inside a module-level ``if`` or ``try`` count, imports inside a
    ``def`` or ``class`` do not, ``from m import x as x`` is an explicit
    re-export, and a name in a string annotation (``"Span | None"``) is
    a load."""
    if sources is None:
        sources = {str(path.relative_to(ROOT)): path.read_text(
                       encoding="utf-8")
                   for root in IMPORTS_IN
                   for path in sorted((ROOT / root).rglob("*.py"))}
    found = []
    for path, text in sources.items():
        tree = ast.parse(text)
        used: set[str] = set()
        notes: list[ast.expr | None] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
            notes += (getattr(node, "annotation", None),
                      getattr(node, "returns", None))
        for note in filter(None, notes):
            used.update(_string_names(note))
        found += [f"{path}:{name}" for name in _imported(tree.body)
                  if name not in used]
    return found


def _string_names(note: ast.expr) -> _t.Iterator[str]:
    """The names the strings inside the annotation *note* load."""
    for const in ast.walk(note):
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            with contextlib.suppress(SyntaxError):  # a Literal's text
                yield from (node.id for node in ast.walk(
                    ast.parse(const.value, mode="eval"))
                    if isinstance(node, ast.Name))


def _imported(body: list[ast.stmt]) -> _t.Iterator[str]:
    """The names the imports among *body*, and in its ``if`` and ``try``
    blocks, bind (not ``__future__`` features or re-exports)."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from _imported([*stmt.body, *stmt.orelse,
                                  *getattr(stmt, "finalbody", ()),
                                  *(inner for handler in getattr(
                                      stmt, "handlers", ())
                                    for inner in handler.body)])
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*" and alias.asname != alias.name:
                    yield alias.asname or alias.name.split(".")[0]


def import_problems(imports: list[str]) -> list[str]:
    """One line per unused import (:func:`unused_imports`): none is
    pinned, so each fails ``--check``."""
    return [f"{name}: imported and never used" for name in imports]


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
    text = "\n".join(_sources(USED_IN, "*"))
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
    original BOINC with a Chrome trace, and every builtin chaos plan
    audited into a summary file with a JSONL trace."""
    from repro.faults import BUILTIN_PLANS

    small = ("--nodes", 8, "--maps", 8, "--reducers", 2, "--input-gb", 0.1)
    _cli("run", "--list-plans")
    _cli("run", "--mr", *small, "--summary",
         "--trace-out", scratch / "run.csv", "--trace-format", "csv")
    _cli("run", *small, "--trace-out", scratch / "run.json")
    for plan in BUILTIN_PLANS:
        _cli("run", "--mr", *small, "--faults", plan,
             "--summary-out", scratch / f"{plan}.json",
             "--trace-out", scratch / f"{plan}.jsonl",
             "--trace-format", "jsonl")


def _real_runtime(scratch: Path) -> None:
    """``repro wordcount`` on real bytes."""
    _cli("wordcount", "--seed", 1, "--size-mb", 0.1, "--maps", 4,
         "--reducers", 2)


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
    own thread, serving one cell.  Every probe cell sleeps 0 s under a 30 s
    heartbeat, so none heartbeats however slow the box: what the probe
    reaches does not depend on timing."""
    from repro.campaign import (CampaignCell, CampaignCoordinator,
                                CampaignGrid, ResultStore)

    grid = CampaignGrid(name="probe", cells=(CampaignCell(
        kind="sleep", seed=0, params={"duration_s": 0.0}),))
    coordinator = CampaignCoordinator(
        grid, ResultStore(scratch / "work.jsonl"), spawn=0, heartbeat_s=30)
    served = threading.Thread(target=coordinator.run, daemon=True)
    served.start()
    while not coordinator.port:
        time.sleep(0.01)
    _cli("campaign", "work", f"127.0.0.1:{coordinator.port}")
    served.join()


def _distributed_campaign(scratch: Path) -> None:
    """``repro campaign coordinate`` over a TOML ``sleep`` grid (two seeds
    in one group) with one spawned worker writing a shard, then ``campaign
    merge`` of the shards and ``campaign diff`` of the merged store against
    the coordinator's, as CI's control-plane job runs them."""
    grid = scratch / "grid.toml"
    grid.write_text('name = "probe"\ndescription = "probe sleep grid"\n'
                    '[[cell]]\nkind = "sleep"\nseeds = [1, 2]\n'
                    'params = { duration_s = 0.0 }\n', encoding="utf-8")
    shards = scratch / "shards"
    _cli("campaign", "coordinate", "--grid", grid, "--spawn", 1,
         "--heartbeat", 30, "--shard-dir", shards,
         "--out", scratch / "dist.jsonl",
         "--summary-out", scratch / "summary.json")
    _cli("campaign", "merge", *sorted(shards.iterdir()),
         "--out", scratch / "merged.jsonl")
    _cli("campaign", "diff", scratch / "dist.jsonl", scratch / "merged.jsonl")


def _serve(scratch: Path) -> None:
    """``repro serve`` on its own thread, scraped once on ``GET /metrics``
    while it is up."""
    from repro.gateway import GatewayClient

    with socket.socket() as free:
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
    served = threading.Thread(target=_cli, args=(
        "serve", "--host", "127.0.0.1", "--port", port, "--duration", 2))
    served.start()
    while True:  # a refused connect until the port is open
        if not served.is_alive():
            raise RuntimeError("probe: repro serve exited before serving")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            break
        except ConnectionRefusedError:
            time.sleep(0.01)
    client = GatewayClient(f"127.0.0.1:{port}")
    try:
        client.request("GET", "/metrics")
    finally:
        client.close()
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
                _distributed_campaign, _live_gateway, _serve)

#: ``module:qualname`` -> what keeps a function no entry point reaches:
#: a test node id, or a README, ``bench/`` or ``benchmarks/`` file that
#: calls it.
#: Anything else no entry point reaches is deleted with its own tests.
PINNED: dict[str, str] = {
    # bench/ calls it.
    "sim.engine:Simulator.timeout": "bench/workloads.py",
    "sim.engine:Simulator.peak_pending": "bench/workloads.py",
    "gateway.client:GatewayClient.health": "bench/workloads.py",
    "gateway.client:GatewayClient.download": "bench/workloads.py",
    "gateway.client:GatewayClient.upload": "bench/workloads.py",
    "gateway.jobs:decode_payload": "bench/workloads.py",
    "experiments.grids:table1_grid": "bench/workloads.py",
    "obs.export:chrome_trace_json": "bench/workloads.py",
    "sim.events:Timeout.__init__":
        "tests/sim/test_events.py::test_timeout_fires_at_delay",
    "sim.events:Timeout._fire":
        "tests/sim/test_events.py::test_timeout_fires_at_delay",
    # benchmarks/ calls it.
    "experiments.scaling:scale_out": "benchmarks/test_scale.py",
    "experiments.scaling:build_scale_cloud": "benchmarks/test_scale.py",
    # A README doctest calls it.
    "volunteers.traces:AvailabilityTrace.periods": "README.md",
    # A test oracle or differential calls it.
    "sim.engine:Simulator.any_of":
        "tests/boinc/test_rpc_differential.py::"
        "test_volunteers_match_the_anyof_wait_and_the_rpc_process",
    "sim.events:AnyOf._child_fired":
        "tests/boinc/test_rpc_differential.py::"
        "test_volunteers_match_the_anyof_wait_and_the_rpc_process",
    "sim.engine:Simulator.step":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "sim.engine:Simulator.peek":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "sim.engine:Simulator.stop":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "gateway.client:GatewayClient._once":
        "tests/gateway/test_client_differential.py::"
        "test_a_whole_reply_keeps_the_socket_open_for_the_next",
    "net.flows:Flow.rate":
        "tests/net/test_coalescing.py::"
        "test_every_read_and_completion_equals_the_eager_oracle",
    "obs.spans:Span.duration":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "obs.spans:SpanBuilder.open_count":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "runtime.apps.wordcount:WordCount.map":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "runtime.apps.wordcount:WordCount.combine":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "workloads.corpus:tag_documents":
        "tests/test_workloads.py::TestPinnedBytes::test_map_blobs_and_output",
    # It runs only in a forked child, where the profile hook cannot see it.
    "campaign.runner:_child_main":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.worker:worker_entry":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.cells:_execute_sleep":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.runner:_describe":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    # A declared interface: a Protocol or base-class method an app or a
    # strategy implements.
    "boinc.client:InputFetcher.fetch":
        "tests/core/test_policies.py::TestInputFetcher",
    "boinc.client:OutputPolicy.handle":
        "tests/core/test_policies.py::TestOutputPolicy",
    "boinc.client:Executor.execute":
        "tests/boinc/test_client.py::TestFailureRecovery::"
        "test_failed_task_reported_and_replaced",
    "runtime.api:MapReduceApp.map":
        "tests/runtime/test_engine.py::TestGrep::test_matchcount",
    "runtime.api:MapReduceApp.reduce":
        "tests/runtime/test_engine.py::TestGrep::test_matchcount",
    # Live code the probe's inputs do not take: a scenario cell, a resumed
    # campaign and a heartbeat (its cells sleep 0 s under a 30 s heartbeat).
    "campaign.cells:scenario_specs":
        "tests/campaign/test_grids_and_analysis.py::TestScenarioCellParams::"
        "test_every_scalar_spec_field_is_a_cell_param",
    "campaign.cells:_scalar_fields":
        "tests/campaign/test_grids_and_analysis.py::TestScenarioCellParams::"
        "test_every_scalar_spec_field_is_a_cell_param",
    "campaign.cells:_execute_scenario":
        "tests/campaign/test_runner.py::TestDeterminism::"
        "test_payload_matches_direct_execute",
    "campaign.store:ResultStore.completed_keys":
        "tests/campaign/test_store.py::TestResultStore::"
        "test_completed_keys_excludes_failures",
    "campaign.coordinator:CampaignCoordinator._on_heartbeat":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_malformed_messages_get_an_error_reply",
    # Safety code: error replies, failure and recovery paths, cleanup.
    "campaign.coordinator:CampaignCoordinator._quarantine":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.grid:CampaignCell.from_spec":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.grid:CampaignCell.label":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.lease:LeaseTable.touch":
        "tests/campaign/test_lease.py::TestExpiry::"
        "test_expire_reclaims_and_requeues",
    "campaign.lease:LeaseTable.fail_worker":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "campaign.lease:LeaseTable._steal_candidate":
        "tests/campaign/test_lease.py::TestStealing",
    "campaign.lease:LeaseTable.report_error":
        "tests/campaign/test_lease.py::TestRetryAccounting::"
        "test_error_requeues_until_budget_spent",
    "campaign.lease:LeaseTable._revoke":
        "tests/campaign/test_lease.py::TestStealing::"
        "test_first_result_revokes_the_loser",
    "campaign.lease:LeaseTable._lose_lease":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "campaign.lease:LeaseTable._account_loss":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "core.job:MapReduceJob.fail":
        "tests/core/test_job.py::TestJobState::test_fail_after_done_is_noop",
    "core.jobtracker:JobTracker._on_wu_error":
        "tests/core/test_barrier.py::"
        "test_barrier_invariants_hold_after_every_step",
    "gateway.jobs:GatewayJobTracker._on_wu_error":
        "tests/core/test_barrier.py::"
        "test_barrier_invariants_hold_after_every_step",
    "gateway.jobs:JobSignal.fail":
        "tests/gateway/test_server.py::TestBadReportFailsOnlyItsJob",
    "faults.audit:Violation.__str__":
        "tests/test_cli.py::TestChaosCommand::"
        "test_failed_job_becomes_a_diagnosis",
    "faults.injector:FaultInjector._apply_host_fault.<locals>.undo":
        "tests/faults/test_injector.py::TestHostFaults::"
        "test_link_flap_undo_spares_churned_host",
    "faults.injector:FaultInjector._apply_dataserver_slow.<locals>.undo":
        "tests/faults/test_injector.py::TestSingletonFaults::"
        "test_dataserver_slow_factor_restored",
    "faults.plans:load_plan":
        "tests/faults/test_spec.py::TestTomlLoading::test_load_plan",
    "gateway.client:GatewayError.__init__":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:GatewayError.retryable":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:GatewayClient._decode_error":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:retry_delay":
        "tests/boinc/test_client.py::TestBackoff::"
        "test_live_retry_delay_is_the_same_formula",
    "gateway.protocol:error_body":
        "tests/gateway/test_protocol.py::TestErrors::"
        "test_error_body_roundtrip",
    "gateway.server:GatewayServer._error":
        "tests/gateway/test_server.py::TestBasics::test_bad_request_body",
    "gateway.server:GatewayServer._healthz":
        "tests/gateway/test_server.py::TestBasics::test_healthz",
    "gateway.server:_Connection._refuse":
        "tests/gateway/test_server.py::TestSlowDrip::"
        "test_a_drip_past_the_deadline_is_refused_on_time",
    "gateway.server:_Connection._close":
        "tests/gateway/test_framing_differential.py::"
        "test_a_live_server_answers_or_closes_cleanly_whatever_arrives",
    "gateway.server:_Connection.pause_writing":
        "tests/gateway/test_server.py::TestPipeliningAndBackpressure::"
        "test_requests_wait_while_their_replies_are_not_read",
    "gateway.server:_Connection.resume_writing":
        "tests/gateway/test_server.py::TestPipeliningAndBackpressure::"
        "test_requests_wait_while_their_replies_are_not_read",
    "net.topology:Network.flow_hosts":
        "tests/faults/test_audit.py::TestViolationDetection::"
        "test_leaked_flow_detected",
    "net.transfer:SimSemaphore.cancel":
        "tests/net/test_transfer.py::TestSemaphoreSettle::"
        "test_cancel_refuses_granted_event",
    "obs.export:_scalar_json":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "obs.spans:SpanBuilder._on_failed":
        "tests/obs/test_spans.py::TestFailureMarkers::"
        "test_failed_task_emits_error_instant_then_closes_on_report",
    "obs.spans:SpanBuilder._on_timeout":
        "tests/obs/test_spans.py::TestInstants::"
        "test_daemon_events_route_to_daemon_tracks",
    "sim.events:Event.__repr__":
        "tests/sim/test_events.py::test_double_trigger_rejected",
}


#: Code objects no ``def`` names.  3.11 compiles a comprehension to one
#: of its own and 3.12 inlines it, so counting them would make the
#: function count depend on the interpreter.
ANONYMOUS = ("<lambda>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>")


def functions(source: bytes | str, filename: str) -> list[tuple[str, int]]:
    """``(qualname, first line)`` of every function, method and nested
    function or closure that *source* defines, not the :data:`ANONYMOUS`
    ones; the first line is the first decorator's, as the interpreter
    numbers it."""
    found, stack = [], [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        for inner in code.co_consts:
            if inspect.iscode(inner):
                if (inner.co_flags & inspect.CO_NEWLOCALS
                        and inner.co_name not in ANONYMOUS):
                    found.append((inner.co_qualname, inner.co_firstlineno))
                stack.append(inner)
    return sorted(found, key=lambda fn: fn[1])


def probe() -> set[tuple[str, str, int]]:
    """``(file, qualname, first line)`` of every function code object
    :data:`ENTRY_POINTS` enter.

    Their standard output is dropped, and every thread runs under a
    profile hook that notes each code object entered.  A module body is
    not a function, so an import alone reaches nothing; a function called
    while importing (``col`` building a study's columns) does, so call
    this before anything imports ``repro``.  Work done in a child process
    (``--spawn``, a worker's forked cell) is not seen, which is why the
    paper grid runs inline."""
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
    return {(code.co_filename, code.co_qualname, code.co_firstlineno)
            for code in seen if code.co_flags & inspect.CO_NEWLOCALS}


def _modules() -> dict[str, list[tuple[str, int]]]:
    """Each ``src`` file path -> its :func:`functions`."""
    return {str(path): functions(path.read_bytes(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _module_name(path: str) -> str:
    """``sim.engine`` for ``src/repro/sim/engine.py``; ``campaign`` for
    that package's ``__init__.py``."""
    parts = Path(path).relative_to(SRC / "repro").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unreached_modules(reached: set[tuple[str, str, int]]) -> list[str]:
    """``src`` modules that define functions, none of which the
    :func:`probe` that gave *reached* entered."""
    files = {file for file, _, _ in reached}
    return [str(Path(path).relative_to(SRC / "repro"))
            for path, defined in _modules().items()
            if defined and path not in files]


def unreached_functions(reached: set[tuple[str, str, int]]) -> list[str]:
    """``module:qualname`` of every :func:`functions` entry in ``src``
    that the :func:`probe` that gave *reached* never entered."""
    return [f"{_module_name(path)}:{qualname}"
            for path, defined in _modules().items()
            for qualname, line in defined
            if (path, qualname, line) not in reached]


def _pin_problem(name: str, by: str) -> str | None:
    """Why *by* cannot pin function *name*: a test node id
    (``path::Class::test``) naming no test, a path that does not exist
    or never mentions the function, or a ``tests/`` file named without a
    test in it (its test could go and the pin would still hold);
    ``None`` when it can."""
    path, *parts = by.split("::")
    if not (ROOT / path).is_file():
        return f"no file {path}"
    source = (ROOT / path).read_text(encoding="utf-8")
    if not parts:
        short = name.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
        if not re.search(rf"\b{re.escape(short)}\b", source):
            return f"{path} never mentions {short}"
        return (f"{path} is under tests/: pin a test in it "
                "(path::Class::test)" if path.startswith("tests/") else None)
    scope: list = ast.parse(source).body
    for part in parts:
        part = part.split("[", 1)[0]
        node = next((node for node in scope if getattr(node, "name", None)
                     == part), None)
        if node is None:
            return f"no test {by}"
        scope = node.body
    return None


def pin_problems(unreached: list[str],
                 pins: dict[str, str] | None = None) -> list[str]:
    """One line per unreached function *pins* (default :data:`PINNED`)
    leaves out, and per stale pin: its function is reached or gone, or
    its test or file cannot pin it (:func:`_pin_problem`)."""
    pins = PINNED if pins is None else pins
    defined = {f"{_module_name(path)}:{qualname}"
               for path, found in _modules().items()
               for qualname, _ in found}
    problems = [f"{name}: no entry point reaches it and it is not pinned"
                for name in unreached if name not in pins]
    for name, by in pins.items():
        if name not in defined:
            problems.append(f"{name}: pinned, but no such function")
        elif name not in unreached:
            problems.append(f"{name}: pinned, but an entry point reaches it")
        elif problem := _pin_problem(name, by):
            problems.append(f"{name}: pinned by {by}, but {problem}")
    return problems


if __name__ == "__main__":
    reached = probe()
    unreached = unreached_modules(reached)
    dead = unreached_functions(reached)
    problems = pin_problems(dead)
    written = write_only_fields()
    problems += field_problems(written)
    unread = unread_parameters()
    problems += unread_problems(unread)
    imports = unused_imports()
    problems += import_problems(imports)

    from repro.cli import build_parser

    classes = option_classes()
    print("src python lines:   ", sum(len(p.read_bytes().splitlines())
                                      for p in SRC.rglob("*.py")))
    print("src modules no entry point reaches:", len(unreached), *unreached)
    print("src functions no entry point reaches:", len(dead),
          f"(pinned {sum(name in PINNED for name in dead)})")
    print("fields src stores and never reads:", len(written),
          f"(pinned {sum(name in FIELD_PINS for name in written)})")
    print("parameters no body reads:", len(unread),
          f"(pinned {sum(key in UNREAD_PINS for key in unread)})")
    print("unused imports:", len(imports))
    for line in problems:
        print("  ", line)
    print("config/spec fields: ", sum(len(dataclasses.fields(cls))
                                      for cls in classes.values()),
          "on", len(classes), "classes")
    fields, params = census_fields(classes), parameters()
    found = dict(zip(("nothing sets it", "only tests set it",
                      "the product sets it only to its default"),
                     census(fields | params)))
    config = {key for key in fields if key.split(".")[0].endswith("Config")}
    unset, tested, default = ([key for key in keys if key in config]
                              for keys in found.values())
    print("never-set fields:   ", len(unset), *unset)
    print("config fields only tests set:", len(tested), *tested)
    print("config fields the product sets only to their default:",
          len(default), *default)
    values = {key: why for why, keys in found.items()
              for key in keys if key not in config}
    unpinned = [key for key in values if key not in PARAM_PINS]
    print("parameters and spec fields with one value in use:",
          len(unpinned), f"(pinned {len(values) - len(unpinned)})")
    value_problems = param_problems(values, params)
    for line in value_problems:
        print("  ", line)
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
    for name, cls in sorted(classes.items()):
        print(f"  {len(dataclasses.fields(cls)):3d}  {name}")
    if "--check" in sys.argv[1:] and (unreached or problems or unset
                                      or tested or default
                                      or value_problems or unused):
        sys.exit("surface: a module, a function, a field, an import or a "
                 "flag nothing uses, a parameter no body reads, a config "
                 "field, spec field or parameter with one value in use, or "
                 "a stale pin (see above)")
