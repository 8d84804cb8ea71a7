"""The trace row form: a key tuple shared by every row with the same field
names in the same order, and a value tuple per row.  A hypothesis
differential holds it to the dict-per-row record it replaced, and a
tracemalloc budget holds what a row costs."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Tracer


class DictRecord:
    """The row form before key tuples: the ``**fields`` dict itself."""

    def __init__(self, time, kind, fields):
        self.time, self.kind, self.fields = time, kind, fields

    def __getitem__(self, key):
        return self.fields[key]

    def get(self, key, default=None):
        return self.fields.get(key, default)


#: Field names, ``kind`` and ``time`` among them: a payload field may
#: share a name with the row's own attributes.
NAMES = st.sampled_from(["kind", "time", "host", "result", "work_req",
                         "n_reports", "no_work", "delay", "count", "a_b"])
VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=False), st.text(max_size=4),
                   st.tuples(st.integers()))
FIELDS = st.dictionaries(NAMES, VALUES, max_size=6)
_MISSING = object()


def _lookups(row, ref, key):
    """``[]``, ``get`` and ``get`` with a default agree for *key*."""
    try:
        want = ref[key]
    except KeyError:
        try:
            row[key]
        except KeyError:
            pass
        else:
            raise AssertionError(f"{key!r} found in the row, not the dict")
    else:
        assert row[key] == want
    assert row.get(key) == ref.get(key)
    assert row.get(key, "absent") == ref.get(key, "absent")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["sched.rpc", "task.ready"]),
                               FIELDS), min_size=1, max_size=8),
       probes=st.lists(NAMES, max_size=4))
def test_a_row_reads_as_the_dict_it_was_given(rows, probes):
    tracer = Tracer()
    refs = []
    for time, (kind, fields) in enumerate(rows):
        tracer.record(float(time), kind, **fields)
        refs.append(DictRecord(float(time), kind, dict(fields)))
    for row, ref in zip(tracer.records, refs):
        assert (row.time, row.kind) == (ref.time, ref.kind)
        assert row.fields == ref.fields
        assert list(row.fields) == list(ref.fields)  # the order given
        for key in [*ref.fields, *probes]:
            _lookups(row, ref, key)
    for kind in {kind for kind, _ in rows}:
        for name, value in rows[0][1].items():
            assert tracer.select(kind, **{name: value}) == [
                row for row, ref in zip(tracer.records, refs)
                if ref.kind == kind
                and ref.fields.get(name, _MISSING) == value]


def test_a_field_named_kind_is_a_field_not_the_rows_kind():
    tracer = Tracer()
    tracer.record(1.0, "sched.assign", kind="map", time=7)
    row = tracer.records[0]
    assert (row.kind, row["kind"], row.time, row["time"]) == (
        "sched.assign", "map", 1.0, 7)
    assert tracer.select("sched.assign", kind="map") == [row]


def test_rows_share_a_key_tuple_per_field_order():
    tracer = Tracer()
    tracer.record(1.0, "a", host="h0", result=1)
    tracer.record(2.0, "b", host="h1", result=2)
    tracer.record(3.0, "a", result=3, host="h2")
    first, same, swapped = tracer.records
    assert first.keys is same.keys
    assert swapped.keys is not first.keys
    assert list(swapped.fields) == ["result", "host"]
    assert swapped.fields == {"host": "h2", "result": 3}
    assert (swapped["host"], swapped.get("result")) == ("h2", 3)


def test_changing_fields_read_from_a_row_changes_nothing_in_it():
    tracer = Tracer()
    tracer.record(1.0, "a", host="h0")
    row = tracer.records[0]
    row.fields["host"] = "h9"
    assert row["host"] == "h0" and row.fields == {"host": "h0"}


#: A dict-per-row record cost 305 B per ``sched.rpc`` row.
ROW_BUDGET_B = 200
ROWS = 20_000


def test_a_sched_rpc_row_costs_at_most_its_budget():
    tracer = Tracer()
    hosts = [f"host{i}" for i in range(100)]
    # The first row of a kind builds its index list and its key tuple.
    tracer.record(0.0, "sched.rpc", host=hosts[0], work_req=0.0, n_reports=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(ROWS):
            tracer.record(i * 0.5, "sched.rpc", host=hosts[i % 100],
                          work_req=i * 0.25, n_reports=i % 3)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / ROWS
    finally:
        tracemalloc.stop()
    assert per_row <= ROW_BUDGET_B, f"{per_row:.0f} B per row"
