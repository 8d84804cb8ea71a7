"""One MapReduce barrier, checked on both of its wirings.

``simulated`` is what :class:`VolunteerCloud` builds: a
:class:`ProjectServer` with the base :class:`JobTracker` (bytes are
cost-model sizes).  ``live`` is what :class:`GatewayState` builds, minus
the sockets: a bare :class:`SchedulerCore` on an injected clock, a
:class:`BlobStore`, and :class:`GatewayJobTracker` (bytes are blobs).
Assimilation is driven by hand, one workunit at a time, so the barrier's
invariants can be checked after every step.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc import ProjectServer
from repro.boinc.dataserver import FileMissing
from repro.boinc.model import ResultOutcome, ResultState, WorkunitState
from repro.boinc.server import SchedulerCore
from repro.core import JobPhase, MapReduceJobSpec
from repro.core.jobtracker import JobTracker
from repro.gateway.files import BlobStore
from repro.gateway.jobs import (
    GatewayJobTracker,
    decode_payload,
    partition_blob_name,
    reduce_blob_name,
)
from repro.net import SERVER_LINK, Network
from repro.sim import Simulator

from .test_jobtracker import force_validate

WIRINGS = ("simulated", "live")
CORPUS = b"".join(b"line %d of the corpus\n" % i for i in range(64))


class Wiring:
    """One scheduler core + tracker pair, and how its transport lands bytes."""

    def __init__(self, kind: str) -> None:
        self.lost: set[tuple[int, int]] = set()
        if kind == "simulated":
            sim = Simulator()
            net = Network(sim)
            self.core = ProjectServer(sim, net,
                                      net.add_host("server", SERVER_LINK))
            self.store = None
            self.tracker = JobTracker(self.core, sim.event)
        else:
            self.core = SchedulerCore(clock=lambda: 0.0)
            self.store = BlobStore()
            self.core.publish_input = self.store.publish
            self.tracker = GatewayJobTracker(self.core, self.store)

    def submit(self, n_maps, n_reducers, replication, quorum):
        if self.store is None:
            return self.tracker.submit(MapReduceJobSpec(
                "j", n_maps, n_reducers, input_size=1e6 * n_maps,
                replication=replication, quorum=quorum))
        return self.tracker.submit_data("j", "wordcount", CORPUS, n_maps,
                                        n_reducers, replication, quorum)

    def lose_partition(self, i: int, r: int) -> None:
        """Map *i*'s output for reducer *r* will not be where it should."""
        if self.store is not None:
            self.lost.add((i, r))  # finish() below never uploads it
            return
        found = self.tracker.reduce_input

        def reduce_input(spec, reducer):
            if reducer == r:
                raise FileMissing(spec.map_output_file(i, r))
            return found(spec, reducer)

        self.tracker.reduce_input = reduce_input

    def finish(self, wu) -> None:
        """*wu*'s replicas upload (live), report, validate and assimilate."""
        if self.store is not None and wu.mr_kind == "map":
            for r in range(self.tracker.spec("j").n_reducers):
                if (wu.mr_index, r) not in self.lost:
                    self.store.put(partition_blob_name("j", wu.mr_index, r),
                                   b"partition")
        elif self.store is not None:
            self.store.put(reduce_blob_name("j", wu.mr_index),
                           pickle.dumps({wu.mr_index: "reduced"}))
        force_validate(self.core, wu, [f"h{wu.id}_{k}"
                                       for k in range(wu.target_nresults)])

    def error_out(self, wu) -> None:
        """Every replica of *wu* errors until the transitioner gives up."""
        host = self.core.register_host(f"bad{wu.id}", 1.0)
        while wu.state is WorkunitState.ACTIVE:
            for res in self.core.db.results_for_wu(wu.id):
                if res.state is ResultState.UNSENT:
                    self.core.db.mark_sent(res, host, self.core.now, 1e9)
                    res.state = ResultState.OVER
                    res.outcome = ResultOutcome.CLIENT_ERROR
                    res.reported_at = self.core.now
            self.core._dirty_wus.add(wu.id)
            self.core._transitioner_pass()

    def workunits(self, kind=None):
        return self.core.db.workunits_by_job("j", kind)

    def trace_kinds(self):
        return [rec.kind for rec in self.core.tracer.records
                if rec.kind.startswith("jobtracker.")]


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 2, 2, 2), (4, 3, 3, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_both_wirings_run_the_same_barrier(shape):
    """Same job shape and completion order: same ``jobtracker.*`` trace
    kinds, same workunit creation order, same final job record."""
    n_maps, n_reducers, _replication, _quorum = shape
    seen = {}
    for kind in WIRINGS:
        wiring = Wiring(kind)
        job = wiring.submit(*shape)
        for wu in reversed(wiring.workunits("map")):
            wiring.finish(wu)
        for wu in wiring.workunits("reduce"):
            wiring.finish(wu)
        assert job.phase is JobPhase.DONE
        seen[kind] = (wiring.trace_kinds(),
                      [(wu.mr_kind, wu.mr_index, wu.target_nresults,
                        wu.min_quorum) for wu in wiring.workunits()],
                      sorted(job.map_tasks), sorted(job.reduce_done))
    assert seen["simulated"] == seen["live"]
    assert seen["live"][0] == (
        ["jobtracker.submitted"] + ["jobtracker.map_done"] * n_maps
        + ["jobtracker.reduce_created"]
        + ["jobtracker.reduce_done"] * n_reducers + ["jobtracker.job_done"])
    # What only the live wiring adds: the sealed, merged output.
    assert decode_payload(wiring.tracker.outputs["j"]) == {
        r: "reduced" for r in range(n_reducers)}
    assert wiring.tracker.status(job)["state"] == "done"


@st.composite
def scenarios(draw):
    n_maps = draw(st.integers(1, 4))
    n_reducers = draw(st.integers(1, 3))
    replication, quorum = draw(st.sampled_from([(1, 1), (2, 2), (3, 2)]))
    fault = draw(st.one_of(
        st.none(),
        st.tuples(st.just("map_error"), st.integers(0, n_maps - 1)),
        st.tuples(st.just("reduce_error"), st.integers(0, n_reducers - 1)),
        st.tuples(st.just("lost"), st.integers(0, n_maps - 1),
                  st.integers(0, n_reducers - 1))))
    return ((n_maps, n_reducers, replication, quorum),
            draw(st.permutations(range(n_maps))),
            draw(st.permutations(range(n_reducers))), fault)


@pytest.mark.parametrize("kind", WIRINGS)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_barrier_invariants_hold_after_every_step(kind, scenario):
    """Random completion orders with at most one workunit error or lost
    map partition: the barrier never opens early, opens all or nothing,
    and a job ends exactly once with nothing created after it ended."""
    shape, map_order, reduce_order, fault = scenario
    n_maps, n_reducers = shape[:2]
    wiring = Wiring(kind)
    job = wiring.submit(*shape)
    phases = [job.phase]
    created_when_finished = None

    def check():
        nonlocal created_when_finished
        if job.phase is not phases[-1]:
            phases.append(job.phase)
        n_reduce_wus = len(wiring.workunits("reduce"))
        assert n_reduce_wus in (0, n_reducers)
        if n_reduce_wus:
            assert job.maps_completed == n_maps
            assert sorted(job.reduce_wu_ids) == list(range(n_reducers))
        if job.finished:
            if created_when_finished is None:
                created_when_finished = len(wiring.core.db.workunits)
            assert len(wiring.core.db.workunits) == created_when_finished

    if fault is not None and fault[0] == "lost":
        wiring.lose_partition(fault[1], fault[2])
    maps = {wu.mr_index: wu for wu in wiring.workunits("map")}
    for i in map_order:
        if fault == ("map_error", i):
            wiring.error_out(maps[i])
        else:
            wiring.finish(maps[i])
        check()
    reduces = {wu.mr_index: wu for wu in wiring.workunits("reduce")}
    for r in reduce_order:
        if r in reduces:
            if fault == ("reduce_error", r):
                wiring.error_out(reduces[r])
            else:
                wiring.finish(reduces[r])
            check()

    # Terminal exactly once: phases only ever move forward, and end.
    expected_end = JobPhase.DONE if fault is None else JobPhase.FAILED
    assert phases[-1] is expected_end
    assert phases.count(expected_end) == 1
    assert phases == [p for p in (JobPhase.MAP, JobPhase.REDUCE, expected_end)
                      if p in phases]
    assert job.done.exception is None if fault is None else (
        isinstance(job.done.exception, RuntimeError))
    if fault is not None and fault[0] in ("map_error", "lost"):
        assert wiring.workunits("reduce") == []
