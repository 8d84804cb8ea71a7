"""The product's tuple span store and Chrome writer against the ones they
replaced.

``reference_export`` is the parent's ``SpanBuilder`` and Chrome exporter
verbatim.  Both builders tap one tracer, so they see the same records; the
product must then read back equal ``spans`` / ``instants`` / ``leaked`` /
``tracks()`` and write a byte-identical Chrome document.  The streams mix
every handled kind with daemon and unknown kinds, payloads that json
writes in every way it can (NaN / infinities, non-ASCII and control
characters, bools, an ``IntEnum``, objects written as their ``repr``),
timestamps drawn from a few values so that sort ties are common, and
result / RPC / fault spans left open for ``finish`` to close as leaks.
"""

import enum

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import chrome_trace_json
from repro.obs.spans import SpanBuilder
from repro.sim import Tracer

from . import reference_export


class Phase(enum.IntEnum):
    MAP = 1
    REDUCE = 2


class Opaque:
    """Not a JSON scalar: both exporters must write its repr string."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque({self.tag!r})"


#: Every kind the builder handles, daemon kinds it routes by prefix, and
#: kinds that are no part of the timeline.
HANDLED = sorted(reference_export.SpanBuilder._HANDLERS)
GENERIC = ["sched.rpc", "validator.validated", "assimilator.done",
           "server.wu_submitted", "jobtracker.map_done", "flow.start",
           "dataserver.download", "fault", "fault.injected",
           "transitioner.tick", "peer.fetched", "client.other", "nodot", ""]

TIMES = st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25, 1e-7]),
                  st.integers(0, 3),
                  st.floats(0.0, 1e7, allow_nan=False))
TEXT = st.text(max_size=6)
SCALARS = st.one_of(
    st.integers(-2**70, 2**70), st.floats(), TEXT, st.booleans(), st.none(),
    st.sampled_from([Phase.MAP, Phase.REDUCE, float("nan"), float("inf"),
                     -float("inf"), -0.0, "é \x00\"\\", "%s%%"]))
VALUES = st.one_of(
    SCALARS, st.builds(Opaque, TEXT), st.lists(st.integers(), max_size=3),
    st.tuples(st.integers()), st.dictionaries(TEXT, st.integers(), max_size=2))
#: Payload keys, among them ``kind`` (a workunit's map/reduce kind rides
#: beside the record kind) and ``leaked`` (set again on a leaked span).
KEYS = st.sampled_from(["kind", "host", "count", "delay", "work_req",
                        "n_assignments", "no_work", "success", "job",
                        "index", "target", "leaked", "é", "%d", "a b", ""])
HOSTS = st.sampled_from(["h0", "h1", "h10", "hé", "h\x01", "zz"])
RESULTS = st.sampled_from([0, 1, 2, 3])
FAULTS = st.sampled_from([1, 2, "f1"])
OPENERS = st.sampled_from(["client.rpc_start", "sched.assign", "fault.begin"])


@st.composite
def records(draw):
    """One ``(time, kind, fields)``; the fields a handler indexes exist.
    Half the records open a span, so most streams leave some open."""
    kind = draw(st.one_of(st.sampled_from(HANDLED + GENERIC), OPENERS))
    fields = draw(st.dictionaries(KEYS, VALUES, max_size=4))
    if kind.startswith(("client.", "task.", "sched.")):
        fields["host"] = draw(HOSTS)
    if kind.startswith("task.") or kind in ("sched.assign", "sched.report",
                                            "transitioner.timeout"):
        fields["result"] = draw(RESULTS)
    if kind == "task.compute_start":
        fields["runtime"] = draw(st.one_of(
            st.none(), st.floats(0.0, 10.0), st.integers(0, 3)))
    if kind.startswith("fault."):
        fields["fault"] = draw(FAULTS)
    return draw(TIMES), kind, fields


STREAMS = st.lists(records(), max_size=60)


def _feed_both(stream, now, after=()):
    tracer = Tracer()
    product = SpanBuilder(tracer)
    reference = reference_export.SpanBuilder(tracer)
    for time, kind, fields in stream:
        tracer.record(time, kind, **fields)
    assert product.finish(now) == reference.finish(now)
    for time, kind, fields in after:  # records that arrive after finish
        tracer.record(time, kind, **fields)
    return product, reference


def _assert_same(product, reference):
    assert product.spans == reference.spans
    assert product.instants == reference.instants
    assert product.leaked == reference.leaked
    assert product.tracks() == reference.tracks()
    assert product.open_result_ids() == reference.open_result_ids()
    assert product.open_count == reference.open_count
    assert chrome_trace_json(product) == \
        reference_export.chrome_trace_json(reference)


@settings(deadline=None, max_examples=300)
@given(STREAMS, TIMES, st.lists(records(), max_size=5))
@example([(1.0, "client.rpc_start", {"host": "h0", "work_req": 5.0}),
          (1.0, "client.rpc_done", {"host": "h0", "n_assignments": 0}),
          (1.0, "client.rpc_start", {"host": "h0"}),
          (1.0, "client.rpc_done", {"host": "h0", "no_work": True}),
          (1.0, "client.rpc_start", {"host": "h0", "work_req": Phase.MAP})],
         0.5, [])
@example([(1.0, "client.rpc_start", {"host": "h1"}),
          (1.0, "client.rpc_start", {"host": "h0"})], 0.0, [])
@example([(2.0, "fault.begin", {"fault": 1, "kind": "partition",
                                "target": "h1", "leaked": Opaque("x")}),
          (2.0, "fault.begin", {"fault": "f1", "leaked": float("nan")}),
          (2.0, "sched.assign", {"host": "h1", "result": 3,
                                 "kind": "map", "job": "wc", "index": 0}),
          (2.0, "validator.validated", {"é": "\x7f", "%d": -0.0})],
         1.0, [(3.0, "client.rpc_done", {"host": "h9"})])
def test_same_records_same_spans_and_same_bytes(stream, now, after):
    _assert_same(*_feed_both(stream, now, after))

