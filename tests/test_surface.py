"""The per-function reachability gate of ``docs/surface.py``, without its
probe: which code objects count as functions, and which pins ``--check``
refuses."""

from __future__ import annotations

import importlib.util
import pathlib
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent


def _surface():
    spec = importlib.util.spec_from_file_location(
        "surface", REPO / "docs" / "surface.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


surface = _surface()

SOURCE = textwrap.dedent('''
    def top(n):
        def closure():
            return [n + x for x in range(3)]
        return closure, lambda: n

    class Outer:
        @property
        def prop(self):
            return {k: 1 for k in "ab"}, {1 for _ in ()}

        def method(self):
            return (y for y in ())

        class Inner:
            async def deep(self):
                def nested():
                    return dict((k, k) for k in ())
                return nested
    ''')


def test_functions_are_defs_methods_and_closures_not_anonymous_code():
    assert [name for name, _ in surface.functions(SOURCE, "<probe>")] == [
        "top", "top.<locals>.closure", "Outer.prop", "Outer.method",
        "Outer.Inner.deep", "Outer.Inner.deep.<locals>.nested"]


def test_a_decorated_function_starts_at_its_decorator():
    lines = dict(surface.functions(SOURCE, "<probe>"))
    assert SOURCE.splitlines()[lines["Outer.prop"] - 1].strip() == "@property"


PINNED_NAME = "sim.engine:Simulator.timeout"


def test_an_unreached_function_must_be_pinned():
    assert surface.pin_problems([PINNED_NAME], {}) == [
        f"{PINNED_NAME}: no entry point reaches it and it is not pinned"]


def test_a_pin_on_an_existing_unreached_function_holds():
    assert surface.pin_problems([PINNED_NAME],
                                {PINNED_NAME: "bench/workloads.py"}) == []


def test_a_pin_on_a_reached_function_is_stale():
    assert surface.pin_problems([], {PINNED_NAME: "bench/workloads.py"}) == [
        f"{PINNED_NAME}: pinned, but an entry point reaches it"]


def test_a_pin_on_a_deleted_function_is_stale():
    gone = "sim.engine:Simulator.no_such_method"
    assert surface.pin_problems([gone], {gone: "bench/workloads.py"}) == [
        f"{gone}: pinned, but no such function"]


def test_a_pin_naming_a_missing_test_or_a_file_that_never_calls_it():
    for by, why in [
            ("tests/test_surface.py::test_no_such_test",
             "no test tests/test_surface.py::test_no_such_test"),
            ("tests/sim/test_engine.py::TestAtInstantEnd::test_no_such_test",
             "no test tests/sim/test_engine.py::TestAtInstantEnd::"
             "test_no_such_test"),
            ("tests/test_no_such_file.py::test_x",
             "no file tests/test_no_such_file.py"),
            ("tests/reference_corpus.py",
             "tests/reference_corpus.py never mentions timeout")]:
        assert surface.pin_problems([PINNED_NAME], {PINNED_NAME: by}) == [
            f"{PINNED_NAME}: pinned by {by}, but {why}"]


def test_every_pin_names_a_function_and_a_test_or_file_that_exist():
    assert surface.pin_problems(list(surface.PINNED)) == []


def test_option_classes_of_a_type_keeps_only_those_fields():
    switches = surface.option_classes("bool")[
        "repro.boinc.server.ServerConfig"]
    assert "speculative_execution" in switches
    assert "speculative_factor" not in switches


def test_a_switch_only_a_test_sets_is_reported():
    # This file sets it, as a test would: FakeConfig(only_tested=True).
    switches = {"repro.fake.FakeConfig": ["only_tested"]}
    assert surface.tested_switches(switches) == ["FakeConfig.only_tested"]


def test_a_switch_a_product_line_sets_is_not_reported():
    switches = {"repro.fake.FakeConfig": ["only_tested"]}
    assert surface.tested_switches(
        switches, "cfg = FakeConfig(only_tested=True)\n") == []


def test_no_switch_in_src_is_set_only_by_tests():
    assert surface.tested_switches(surface.option_classes("bool")) == []
