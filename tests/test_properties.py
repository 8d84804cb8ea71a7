"""Property-based tests (hypothesis) on core invariants.

These pin down the load-bearing guarantees: deterministic simulation,
conservation in the bandwidth allocator, exactness of the MapReduce
pipeline, and soundness of quorum validation.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, Link
from repro.obs import MetricsRegistry
from repro.runtime import LocalRunner, default_partition, split_text
from repro.runtime.apps import WordCount
from repro.sim import RngRegistry, Simulator, Tracer

# ---------------------------------------------------------------------------
# Simulator determinism
# ---------------------------------------------------------------------------

delays = st.lists(st.floats(min_value=0.0, max_value=1e4,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=40)


@given(delays)
def test_engine_executes_all_and_monotonically(ds):
    sim = Simulator()
    seen = []
    for d in ds:
        sim.schedule(d, lambda d=d: seen.append(sim.now))
    sim.run()
    assert len(seen) == len(ds)
    assert seen == sorted(seen)
    assert sim.now == max(ds)


@given(delays, st.integers(min_value=0, max_value=2**31 - 1))
def test_rng_streams_reproducible(ds, seed):
    def draw(seed):
        reg = RngRegistry(seed)
        return [reg.stream(f"s{i % 3}").random() for i in range(len(ds))]

    assert draw(seed) == draw(seed)


# ---------------------------------------------------------------------------
# Max-min fairness invariants
# ---------------------------------------------------------------------------

flow_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # src link index
        st.integers(min_value=4, max_value=7),   # dst link index
        st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
        st.one_of(st.none(), st.floats(min_value=1e3, max_value=1e7)),
    ),
    min_size=1, max_size=15,
)


@given(flow_specs)
@settings(max_examples=60)
def test_maxmin_conservation_and_caps(specs):
    sim = Simulator()
    net = FlowNetwork(sim, MetricsRegistry())
    links = [Link(f"l{i}", 8 * 10e6) for i in range(8)]  # 10 MB/s each
    flows = []
    for i, (a, b, size, cap) in enumerate(specs):
        flows.append(net.start_flow(f"f{i}", [links[a], links[b]], size,
                                    max_rate=cap))
    active = [f for f in flows if not f.finished]
    # 1. No link over capacity.
    for link in links:
        used = sum(f.rate for f in active if link in f.links)
        assert used <= link.capacity * (1 + 1e-6)
    # 2. No flow above its cap.
    for f in active:
        if f.max_rate is not None:
            assert f.rate <= f.max_rate * (1 + 1e-6)
    # 3. Every active flow gets a positive rate (no starvation).
    for f in active:
        assert f.rate > 0
    # 4. Max-min property: a flow below its cap must have a saturated link
    #    on which it has a maximal rate (else it could be raised).
    for f in active:
        if f.max_rate is not None and f.rate >= f.max_rate * (1 - 1e-6):
            continue
        bottlenecked = False
        for link in f.links:
            used = sum(g.rate for g in active if link in g.links)
            if used >= link.capacity * (1 - 1e-6):
                peers = [g.rate for g in active if link in g.links]
                if f.rate >= max(peers) * (1 - 1e-6):
                    bottlenecked = True
                    break
        assert bottlenecked, f"flow {f.name} could be raised"


@given(flow_specs)
@settings(max_examples=30)
def test_all_flows_eventually_complete(specs):
    sim = Simulator()
    net = FlowNetwork(sim, metrics=MetricsRegistry())
    links = [Link(f"l{i}", 8 * 10e6) for i in range(8)]
    flows = []
    for i, (a, b, size, cap) in enumerate(specs):
        flows.append(net.start_flow(f"f{i}", [links[a], links[b]], size,
                                    max_rate=cap))
    sim.run(max_steps=100_000)
    assert all(f.finished for f in flows)
    total = sum(size for _a, _b, size, _c in specs)
    delivered = net.metrics.counter("net.bytes_delivered_total").value
    assert delivered == pytest.approx(total, rel=1e-6)


# ---------------------------------------------------------------------------
# MapReduce pipeline exactness
# ---------------------------------------------------------------------------

words = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=6),
    min_size=0, max_size=300,
)


@given(words, st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_wordcount_equals_counter(ws, n_maps, n_reducers):
    lines = []
    for i in range(0, len(ws), 7):
        lines.append(" ".join(ws[i:i + 7]))
    data = ("\n".join(lines) + "\n").encode() if lines else b""
    report = LocalRunner(WordCount(), n_maps, n_reducers).run(data)
    assert report.output == dict(collections.Counter(data.split()))


@given(st.binary(min_size=0, max_size=2000),
       st.integers(min_value=1, max_value=12))
def test_split_text_partitions_input(data, n):
    chunks = split_text(data, n)
    assert b"".join(chunks) == data
    assert len(chunks) == n


@given(st.text(min_size=0, max_size=30), st.integers(min_value=1, max_value=64))
def test_partitioner_stable_and_bounded(key, n_reducers):
    p1 = default_partition(key, n_reducers)
    p2 = default_partition(key, n_reducers)
    assert p1 == p2
    assert 0 <= p1 < n_reducers


# ---------------------------------------------------------------------------
# Quorum validation soundness
# ---------------------------------------------------------------------------

digest_lists = st.lists(st.sampled_from(["good", "bad1", "bad2"]),
                        min_size=2, max_size=6)


@given(digest_lists, st.integers(min_value=2, max_value=3))
@settings(max_examples=60)
def test_quorum_never_validates_minority(digests, quorum):
    quorum = min(quorum, len(digests))  # replication must cover the quorum
    from repro.boinc import (
        FileRef,
        OutputData,
        ProjectServer,
        ReportedResult,
        SchedulerRequest,
        Workunit,
        WorkunitState,
    )
    from repro.net import Network, SERVER_LINK

    sim = Simulator()
    net = Network(sim, MetricsRegistry())
    server = ProjectServer(sim, net, net.add_host("server", SERVER_LINK),
                           Tracer(), MetricsRegistry(),
                           RngRegistry(0).stream("server"))
    wu = server.submit_workunit(Workunit(
        id=server.db.new_wu_id(), app_name="a",
        input_files=(FileRef("in", 1.0),), flops=1.0,
        target_nresults=len(digests), min_quorum=quorum,
        max_total_results=len(digests)))
    server._feeder_pass()
    for i, digest in enumerate(digests):
        host = server.register_host(f"h{i}", 1.0)
        proc = server.scheduler_rpc(SchedulerRequest(
            host_id=host.id, work_req_s=10.0))
        sim.run(until_event=proc)
        reply = proc.value
        if not reply.assignments:
            continue
        rid = reply.assignments[0].result_id
        proc = server.scheduler_rpc(SchedulerRequest(
            host_id=host.id, work_req_s=0.0,
            reports=[ReportedResult(rid, True, OutputData(digest), 1.0)]))
        sim.run(until_event=proc)
    server._transitioner_pass()
    server._validator_pass()
    counts = collections.Counter(digests)
    if wu.state is WorkunitState.VALIDATED:
        canonical = server.db.results[wu.canonical_result_id]
        # Whatever validated must have had at least `quorum` agreeing
        # replicas available.
        assert counts[canonical.output.digest] >= quorum
    else:
        # No digest reached the quorum among assigned replicas.
        assigned = min(len(digests), counts.total())
        assert all(c < quorum for c in counts.values()) or \
            wu.state is WorkunitState.ACTIVE
