"""The gates of ``docs/surface.py``, without its probe: which code objects
count as functions, which pins ``--check`` refuses, and which calls the
census counts as setting a field or a parameter."""

from __future__ import annotations

import dataclasses
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


def test_a_pin_into_tests_must_name_a_test_not_a_file():
    by = "tests/sim/test_process.py"  # mentions timeout, pins no test
    assert surface.pin_problems([PINNED_NAME], {PINNED_NAME: by}) == [
        f"{PINNED_NAME}: pinned by {by}, but {by} is under tests/: pin a "
        "test in it (path::Class::test)"]


def test_every_pin_names_a_function_and_a_test_or_file_that_exist():
    assert surface.pin_problems(list(surface.PINNED)) == []


COUNTED = textwrap.dedent('''
    class Pool:
        def __init__(self):
            self.taken = 0
            self.lent = 0

        def take(self):
            self.taken += 1
            self.lent += 1

        def lend(self, other):
            return other.lent
    ''')


def test_a_counter_only_a_test_reads_is_reported():
    assert surface.write_only_fields({"fake.pool": COUNTED}) == [
        "fake.pool:Pool.taken"]


def test_a_counter_src_reads_in_another_module_is_not_reported():
    assert surface.write_only_fields({
        "fake.pool": COUNTED,
        "fake.report": "def report(pool):\n    return pool.taken\n"}) == []


def test_a_counter_pin_holds_while_only_its_reader_reads_it():
    counters = surface.write_only_fields({"fake.pool": COUNTED})
    assert surface.field_problems(counters, {}) == [
        "fake.pool:Pool.taken: src stores it, never reads it, and it "
        "is not pinned"]
    assert surface.field_problems(counters, {
        "fake.pool:Pool.taken": "tests/test_surface.py::"
        "test_a_counter_pin_holds_while_only_its_reader_reads_it"}) == []


def test_a_counter_pin_src_reads_is_stale():
    assert surface.field_problems([], {
        "fake.pool:Pool.lent": "tests/test_surface.py"}) == [
        "fake.pool:Pool.lent: pinned, but src reads it or no longer stores "
        "it"]


def test_every_write_only_counter_is_pinned_by_its_reader():
    fields = surface.write_only_fields()
    assert sorted(fields) == sorted(surface.FIELD_PINS)
    assert surface.field_problems(fields) == []


INDEXED = textwrap.dedent('''
    class Ledger:
        __slots__ = ("by_day", "by_host")

        def __init__(self):
            self.by_day = {}
            self.by_host = {}

        def book(self, day, host):
            self.by_day[day] = host
            self.by_host[host] = day

        def day_of(self, host):
            return self.by_host[host]
    ''')


def test_a_dict_only_ever_assigned_by_subscript_is_reported():
    # ``self.by_day[day] = ...`` stores into the dict, it does not read
    # it, and naming it in ``__slots__`` is no read either.
    assert surface.write_only_fields({"fake.ledger": INDEXED}) == [
        "fake.ledger:Ledger.by_day"]


UNREAD_BASE = textwrap.dedent('''
    class App:
        def map(self, key, value):
            """Declared, so every app takes both."""
            raise NotImplementedError

    class Event:
        def trigger(self, value=None):
            self.value = value
    ''')

UNREAD = textwrap.dedent('''
    import threading
    import typing as _t

    from .base import App

    class Hook(_t.Protocol):
        def __call__(self, wu, result):
            return None

    class Lines(App):
        def map(self, key, value):
            return [value]

    class Signal(threading.Event):
        def trigger(self, value=None):
            self.set()

    class Table:
        def account(self, key, now):
            return key

        def drop(self, key, _now):
            return key

        def declared(self, key): ...

        @staticmethod
        def decode(status, payload):
            return status

    def outer(a, b):
        def inner():
            return b
        return inner
    ''')


def test_a_parameter_no_body_reads_is_reported():
    """Not ``self``, ``_now``, a ``Protocol``'s, a stub's, an override of
    a base in the sources, nor one a nested function reads; but an
    override of a class the sources do not define is."""
    assert surface.unread_parameters(
        {"fake.base": UNREAD_BASE, "fake.table": UNREAD}) == [
        "fake.table:Signal.trigger(value)", "fake.table:Table.account(now)",
        "fake.table:Table.decode(payload)", "fake.table:outer(a)"]


def test_an_unread_parameter_must_be_pinned_and_a_pin_must_be_unread():
    unread = ["fake.table:Table.account(now)"]
    assert surface.unread_problems(unread, {}) == [
        "fake.table:Table.account(now): no body reads it, and it is not "
        "pinned"]
    assert surface.unread_problems(unread, {unread[0]: "a hook"}) == []
    assert surface.unread_problems([], {unread[0]: "a hook"}) == [
        "fake.table:Table.account(now): pinned, but a body reads it or it "
        "is gone"]


def test_every_unread_parameter_is_pinned():
    unread = surface.unread_parameters()
    assert sorted(unread) == sorted(surface.UNREAD_PINS)
    assert surface.unread_problems(unread) == []


IMPORTS = textwrap.dedent('''
    from __future__ import annotations

    import os, sys as system
    import json.decoder
    import typing as _t
    from .wire import loads as loads
    from .spans import Span, Instant

    if _t.TYPE_CHECKING:
        from .probes import SelfProfiler

    def run(profiler: "SelfProfiler | None") -> list["Span"]:
        import csv
        return system.argv

    __all__ = ["Instant"]
    ''')


def test_an_import_nothing_loads_fails_the_check():
    """Loaded, in a string annotation, in ``__all__`` or re-exported as
    itself is used; inside a ``def`` is not module level."""
    imports = surface.unused_imports({"src/repro/planted.py": IMPORTS})
    assert imports == ["src/repro/planted.py:os",
                       "src/repro/planted.py:json"]
    # Every problem line makes ``--check`` exit 1; none is pinned.
    assert surface.import_problems(imports) == [
        "src/repro/planted.py:os: imported and never used",
        "src/repro/planted.py:json: imported and never used"]


def test_no_module_of_src_or_tests_has_an_unused_import():
    assert surface.unused_imports() == []


def test_the_census_covers_config_fields_and_spec_switches():
    fields = surface.census_fields(surface.option_classes())
    assert "ServerConfig.delay_bound_s" in fields
    assert "CloudSpec.mr_clients" in fields      # a bool: a switch
    assert "CloudSpec.server_link" in fields     # not a scalar either
    assert "MapReduceJobSpec.input_size" in fields


@dataclasses.dataclass
class LoadConfig:
    corpus_bytes: int = 200_000
    n_maps: int = 12
    only_tested: bool = False


FIELDS = surface.census_fields({"fake.LoadConfig": LoadConfig})
#: Sets every field but the switch to a value other than its default.
BOTH_NUMBERS = "LoadConfig(corpus_bytes=size, n_maps=4)\n"


def test_a_switch_only_a_test_sets_is_reported():
    assert surface.census(FIELDS, [BOTH_NUMBERS], [
        "LoadConfig(only_tested=True)\n"]) == (
        [], ["LoadConfig.only_tested"], [])


def test_a_switch_a_product_line_sets_is_not_reported():
    assert surface.census(FIELDS, [
        BOTH_NUMBERS, "cfg = LoadConfig(only_tested=True)\n"], []) == (
        [], [], [])


def test_a_keyword_of_the_same_name_on_another_call_sets_nothing():
    product = ["JobShape(corpus_bytes=1_000_000, n_maps=32)\n"
               "cfg = LoadConfig(n_maps=4, only_tested=True)\n"]
    assert surface.census(FIELDS, product, []) == (
        ["LoadConfig.corpus_bytes"], [], [])


def test_a_cls_call_in_the_class_body_sets_the_field():
    product = ["class LoadConfig:\n"
               "    @classmethod\n"
               "    def small(cls):\n"
               "        return cls(corpus_bytes=20_000, only_tested=True)\n"
               "class Other:\n"
               "    @classmethod\n"
               "    def make(cls):\n"
               "        return cls(n_maps=4)\n"]
    assert surface.census(FIELDS, product, []) == (
        ["LoadConfig.n_maps"], [], [])


def test_a_field_the_product_sets_only_to_its_default_is_reported():
    product = ["LoadConfig(corpus_bytes=200_000, n_maps=4)\n",
               "dataclasses.replace(cfg, corpus_bytes=200000, "
               "only_tested=True)\n"]
    assert surface.census(FIELDS, product, []) == (
        [], [], ["LoadConfig.corpus_bytes"])


def test_every_config_field_and_spec_switch_has_two_values_in_use():
    assert surface.census(surface.census_fields(
        surface.option_classes())) == ([], [], [])


PUBLIC = textwrap.dedent('''
    def load(path, retries=3, *, echo=None, _depth=0):
        pass

    def _private(flag=False):
        pass

    class Pool:
        def __init__(self, size=4):
            pass

        def grow(self, by=1):
            def inner(step=2):
                pass

        @staticmethod
        def make(size=4):
            pass

    class _Hidden:
        def run(self, fast=True):
            pass
    ''')
PARAMS = surface.parameters({"fake.pool": PUBLIC})


def test_parameters_are_the_defaulted_ones_of_public_defs():
    assert sorted(PARAMS) == [
        "fake.pool:Pool.__init__(size)", "fake.pool:Pool.grow(by)",
        "fake.pool:Pool.make(size)", "fake.pool:load(echo)",
        "fake.pool:load(retries)"]


#: Sets every parameter of :data:`PUBLIC` to a value other than its
#: default, by keyword or by position.
EVERY_PARAM = ("load(p, 5, echo=print)\n"
               "pool = Pool(8)\npool.grow(by=2)\nPool.make(size=2)\n")


def test_a_parameter_only_a_test_passes_is_reported():
    product = EVERY_PARAM.replace("pool.grow(by=2)", "pool.grow()")
    assert surface.census(PARAMS, [product], ["pool.grow(3)\n"]) == (
        [], ["fake.pool:Pool.grow(by)"], [])
    assert surface.census(PARAMS, [product], []) == (
        ["fake.pool:Pool.grow(by)"], [], [])


def test_a_partial_keyword_and_a_positional_argument_set_it():
    product = EVERY_PARAM.replace("load(p, 5, echo=print)",
                                  "loader = functools.partial(load, echo=e)")
    assert surface.census(PARAMS, [product], []) == (
        ["fake.pool:load(retries)"], [], [])
    product += "threading.Thread(target=load, args=(p, 9)).start()\n"
    assert surface.census(PARAMS, [product], []) == ([], [], [])
    # A method's positions start after self.
    product = EVERY_PARAM.replace("pool.grow(by=2)", "pool.grow(2)")
    assert surface.census(PARAMS, [product], []) == ([], [], [])


def test_a_parameter_the_product_passes_only_at_its_default_is_reported():
    product = EVERY_PARAM.replace("Pool(8)", "Pool(size=4)")
    assert surface.census(PARAMS, [product], []) == (
        [], [], ["fake.pool:Pool.__init__(size)"])


def test_a_scenario_cell_scalar_counts_as_set():
    real = surface.census_fields(surface.option_classes())
    knobs = {key: real[key] for key in (
        "CloudSpec.byzantine_rate", "CloudSpec.server_link")}
    assert "CloudSpec.byzantine_rate" in surface.cell_params()
    # A grid sets the scalar; nothing sets the LinkSpec.
    assert surface.census(knobs, [], []) == (["CloudSpec.server_link"], [], [])
    assert surface.census(knobs, [], [], outside=()) == (
        ["CloudSpec.byzantine_rate", "CloudSpec.server_link"], [], [])


@dataclasses.dataclass(frozen=True)
class RunSpec:
    seed: int = 0
    link: tuple = (100e6, 100e6)


def test_a_non_scalar_spec_field_only_tests_set_is_reported():
    fields = surface.census_fields({"fake.RunSpec": RunSpec})
    assert surface.census(fields, ["RunSpec(seed=seed)\n"], [
        "RunSpec(link=(1e6, 1e6))\n"]) == ([], ["RunSpec.link"], [])


ONE_VALUE = {"sim.engine:Simulator.run(max_steps)": "only tests set it"}
ENGINE_PARAMS = ["sim.engine:Simulator.run(max_steps)",
                 "sim.engine:Simulator.run(until)"]
MAX_STEPS_TEST = "tests/sim/test_engine.py::test_max_steps_detects_livelock"


def test_a_pinned_parameter_with_a_test_and_a_reason_holds():
    pins = {"sim.engine:Simulator.run(max_steps)": (MAX_STEPS_TEST, "bound")}
    assert surface.param_problems(ONE_VALUE, ENGINE_PARAMS, pins) == []
    assert surface.param_problems(ONE_VALUE, ENGINE_PARAMS, {}) == [
        "sim.engine:Simulator.run(max_steps): only tests set it, and it is "
        "not pinned"]


def test_a_stale_param_pin_is_a_problem():
    gone = {"sim.engine:Simulator.run(budget)": (MAX_STEPS_TEST, "bound")}
    set_by_product = {
        "sim.engine:Simulator.run(until)": (MAX_STEPS_TEST, "bound")}
    a_file = {"sim.engine:Simulator.run(max_steps)": (
        "tests/sim/test_engine.py", "bound")}
    no_test = {"sim.engine:Simulator.run(max_steps)": (
        "tests/sim/test_engine.py::test_gone", "bound")}
    no_reason = {"sim.engine:Simulator.run(max_steps)": (
        MAX_STEPS_TEST, "handy")}
    assert [surface.param_problems(ONE_VALUE, ENGINE_PARAMS, pins)[-1]
            for pins in (gone, set_by_product, a_file, no_test, no_reason)
            ] == [
        "sim.engine:Simulator.run(budget): pinned, but no such parameter",
        "sim.engine:Simulator.run(until): pinned, but the product sets it",
        "sim.engine:Simulator.run(max_steps): pinned by "
        "tests/sim/test_engine.py, a file: pin a test in it (path::test)",
        "sim.engine:Simulator.run(max_steps): pinned by "
        "tests/sim/test_engine.py::test_gone, but no test "
        "tests/sim/test_engine.py::test_gone",
        "sim.engine:Simulator.run(max_steps): pinned for 'handy', which is "
        "not one of fake, bound, entry, bench"]


def test_every_parameter_and_spec_field_has_two_values_in_use_or_a_pin():
    fields = surface.census_fields(surface.option_classes())
    params = surface.parameters()
    found = dict(zip(("nothing sets it", "only tests set it",
                      "the product sets it only to its default"),
                     surface.census(fields | params)))
    values = {key: why for why, keys in found.items() for key in keys}
    assert sorted(values) == sorted(surface.PARAM_PINS)
    assert surface.param_problems(values, params) == []


def test_src_lines_above_the_ceiling_fail_the_check():
    assert surface.ceiling_problems(100, 100) == []
    assert surface.ceiling_problems(101, 100) == [
        "src python lines: 101, above the pinned ceiling 100: raise "
        "SRC_LINES_CEILING in the same diff and say why"]


def test_src_holds_its_line_ceiling():
    assert surface.ceiling_problems(surface.src_lines()) == []
