"""The compiled schema checks against the walker they replaced.

``reference_validate`` is the parent's interpretive ``validate`` verbatim;
``protocol.validate`` dispatches to one check per schema, generated and
compiled at import.  Hypothesis draws payloads — recursive values keyed by
every schema field name plus ``kind`` and ``zz``, and payloads shaped
after a schema with fields missing, extra, or of the wrong kind — and
both must return the same problem list: the same strings in the same
order.  The leaves include what ``isinstance`` sees differently from
``type() is``: bools where ints are expected, an ``IntEnum``, an ``int``
subclass, NaN and the infinities.
"""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.gateway import protocol

from . import reference_validate

NAMES = sorted(protocol.SCHEMAS)
KEYS = sorted({field for spec in protocol.SCHEMAS.values() for field in spec}
              | {"kind", "zz"})


class Level(enum.IntEnum):
    LOW = 1


class Count(int):
    pass


ODD_INTS = st.sampled_from([True, False, Level.LOW, Count(3), 2**70, -1, 0])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), ODD_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(max_size=4))
ANY = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=16)

PRIMITIVE = {
    "null": st.none(),
    "str": st.text(max_size=4),
    "bool": st.booleans(),
    "int": st.integers() | ODD_INTS,
    "number": st.integers() | st.floats(allow_nan=True, allow_infinity=True),
    "dict": st.dictionaries(st.text(max_size=3), ANY, max_size=2),
}


def _value_of(kind):
    """A value of *kind* as declared: right at the top, anything inside."""
    if kind in protocol.SCHEMAS:
        return _shaped(kind)
    if kind.startswith("list["):
        return st.lists(_value_of(kind[5:-1]) | ANY, max_size=3)
    return PRIMITIVE[kind]


@st.composite
def _shaped(draw, schema):
    """A payload for *schema*: each field missing, of a declared kind or
    of any kind, and unknown keys among them, in any order."""
    items = []
    for field, (kinds, _required) in protocol.SCHEMAS[schema].items():
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue
        value = draw(ANY if choice == 1
                     else _value_of(draw(st.sampled_from(kinds))))
        items.append((field, value))
    items += draw(st.lists(st.tuples(st.sampled_from(KEYS), ANY), max_size=2))
    return dict(draw(st.permutations(items)))


@st.composite
def _cases(draw):
    schema = draw(st.sampled_from(NAMES))
    payload = draw(st.one_of(ANY, _shaped(schema),
                             st.sampled_from(NAMES).flatmap(_shaped)))
    where = draw(st.sampled_from(["", "Outer.field[2]"]))
    return schema, payload, where


@settings(max_examples=600, deadline=None)
@given(_cases())
@example(("WorkRequest", {"host_id": True, "work_req_s": float("nan"),
                          "reports": [{"result_id": Level.LOW, "zz": 1,
                                       "output_files": [{"size": None}, 7]},
                                      "x"]}, ""))
@example(("Task", {"job": None, "kind": None, "index": None,
                   "n_maps": Count(2), "input_files": [1, None, "a"]}, ""))
@example(("JobRequest", {"corpus": 5}, ""))
@example(("StatusReply", [], ""))
@example(("RegisterRequest", {"flops": float("-inf"), "name": None}, "X"))
def test_same_problems_as_the_interpretive_walker(case):
    schema, payload, where = case
    assert protocol.validate(schema, payload, where) == \
        reference_validate.validate(schema, payload, where)


def test_the_walker_is_gone_from_the_product():
    assert not hasattr(protocol, "_kind_ok")
    with pytest.raises(KeyError):
        protocol.validate("NoSuchSchema", {})


def test_an_unknown_kind_fails_at_compile_time():
    with pytest.raises(ValueError, match="unknown schema kind 'float'"):
        wire.compile_checks({**protocol.SCHEMAS,
                             "Broken": {"x": (("float",), True)}})
