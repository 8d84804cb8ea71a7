"""Unit tests for the JobTracker server module."""

import pytest

from repro.boinc import ProjectServer, Workunit
from repro.boinc.model import FileRef, OutputData, ResultState, ValidateState
from repro.core import BoincMRConfig, JobPhase, MapReduceJobSpec
from repro.core.jobtracker import JobTracker
from repro.net import Network, SERVER_LINK
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("server", SERVER_LINK)
    server = ProjectServer(sim, net, host)
    tracker = JobTracker(server, sim.event, config=BoincMRConfig(
        upload_map_outputs=True))
    return sim, server, tracker


def spec(**kwargs):
    defaults = dict(name="j", n_maps=3, n_reducers=2, input_size=3e6)
    defaults.update(kwargs)
    return MapReduceJobSpec(**defaults)


def force_validate(server, wu, host_names, supports_mr=True):
    """Manually drive a WU to assimilation via given hosts."""
    for name in host_names:
        rec = next((h for h in server.db.hosts.values() if h.name == name),
                   None)
        if rec is None:
            rec = server.register_host(name, 1.0, supports_mr=supports_mr)
    results = server.db.results_for_wu(wu.id)
    for res, name in zip(results, host_names):
        rec = next(h for h in server.db.hosts.values() if h.name == name)
        server.db.mark_sent(res, rec, server.now, 1e9)
        res.state = ResultState.OVER
        from repro.boinc.model import ResultOutcome
        res.outcome = ResultOutcome.SUCCESS
        res.output = OutputData(digest=f"wu{wu.id}")
        res.reported_at = server.now
    server._dirty_wus.add(wu.id)
    server._transitioner_pass()
    server._validator_pass()
    server._assimilator_pass()


class TestSubmission:
    def test_creates_map_wus_with_tags(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        maps = server.db.workunits_by_job("j", "map")
        assert len(maps) == 3
        assert {wu.mr_index for wu in maps} == {0, 1, 2}
        assert all(wu.target_nresults == 2 for wu in maps)

    def test_map_inputs_published(self, setup):
        _sim, server, tracker = setup
        tracker.submit(spec())
        assert server.dataserver.has("j_map0_in")
        assert server.dataserver.files["j_map0_in"].size == pytest.approx(1e6)

    def test_duplicate_name_rejected(self, setup):
        _sim, _server, tracker = setup
        tracker.submit(spec())
        with pytest.raises(ValueError):
            tracker.submit(spec())


class TestPhaseTransition:
    def test_reduce_wus_created_after_all_maps(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        maps = server.db.workunits_by_job("j", "map")
        for wu in maps[:-1]:
            force_validate(server, wu, [f"h{wu.mr_index}a", f"h{wu.mr_index}b"])
            assert server.db.workunits_by_job("j", "reduce") == []
        force_validate(server, maps[-1], ["hza", "hzb"])
        reduces = server.db.workunits_by_job("j", "reduce")
        assert len(reduces) == 2
        assert job.phase is JobPhase.REDUCE

    def test_reduce_inputs_not_published(self, setup):
        _sim, server, tracker = setup
        tracker.submit(spec())
        for wu in server.db.workunits_by_job("j", "map"):
            force_validate(server, wu, [f"h{wu.mr_index}a", f"h{wu.mr_index}b"])
        # Reduce input files exist as references only, not on the server.
        assert not server.dataserver.has("j_m0_r0")

    def test_reduce_wu_geometry(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        for wu in server.db.workunits_by_job("j", "map"):
            force_validate(server, wu, [f"h{wu.mr_index}a", f"h{wu.mr_index}b"])
        reduces = server.db.workunits_by_job("j", "reduce")
        # Each reduce WU has one input per mapper.
        assert all(len(wu.input_files) == 3 for wu in reduces)

    def test_holders_are_mr_hosts_only(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        wu = server.db.workunits_by_job("j", "map")[0]
        # one MR host, one legacy host
        server.register_host("mr_host", 1.0, supports_mr=True)
        server.register_host("old_host", 1.0, supports_mr=False)
        force_validate(server, wu, ["mr_host", "old_host"])
        assert job.map_tasks[wu.mr_index].holders == ["mr_host"]

    def test_job_done_event(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        for wu in server.db.workunits_by_job("j", "map"):
            force_validate(server, wu, [f"h{wu.mr_index}a", f"h{wu.mr_index}b"])
        for wu in server.db.workunits_by_job("j", "reduce"):
            force_validate(server, wu, [f"r{wu.mr_index}a", f"r{wu.mr_index}b"])
        assert job.phase is JobPhase.DONE
        assert job.done.triggered


class TestLocateReduceInputs:
    def prepared(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        for wu in server.db.workunits_by_job("j", "map"):
            force_validate(server, wu, [f"h{wu.mr_index}a", f"h{wu.mr_index}b"])
        reduce_wu = server.db.workunits_by_job("j", "reduce")[0]
        return server, tracker, job, reduce_wu

    def test_mr_host_gets_locations(self, setup):
        server, tracker, _job, reduce_wu = self.prepared(setup)
        mr_host = server.register_host("asker", 1.0, supports_mr=True)
        locs = tracker.locate_reduce_inputs(reduce_wu, mr_host)
        assert set(locs) == {0, 1, 2}
        assert locs[0] == ["h0a", "h0b"]

    def test_legacy_host_gets_nothing(self, setup):
        server, tracker, _job, reduce_wu = self.prepared(setup)
        legacy = server.register_host("old", 1.0, supports_mr=False)
        assert tracker.locate_reduce_inputs(reduce_wu, legacy) == {}

    def test_peers_disabled_gets_nothing(self, setup):
        server, tracker, _job, reduce_wu = self.prepared(setup)
        tracker.config.reduce_from_peers = False
        mr_host = server.register_host("asker", 1.0, supports_mr=True)
        assert tracker.locate_reduce_inputs(reduce_wu, mr_host) == {}

    def test_unknown_job_gets_nothing(self, setup):
        server, tracker, _job, _reduce_wu = self.prepared(setup)
        alien = Workunit(id=server.db.new_wu_id(), app_name="x",
                         input_files=(), flops=1.0, mr_job="ghost",
                         mr_kind="reduce", mr_index=0)
        mr_host = server.register_host("asker", 1.0, supports_mr=True)
        assert tracker.locate_reduce_inputs(alien, mr_host) == {}


class TestEarlyReduceCreation:
    def test_threshold_creates_early(self, setup):
        sim, server, _old = setup
        # fresh tracker with fraction 0.5 over 4 maps -> create at 2
        tracker = JobTracker(server, sim.event, config=BoincMRConfig(
            upload_map_outputs=True, reduce_creation_fraction=0.5))
        job = tracker.submit(spec(name="early", n_maps=4))
        maps = server.db.workunits_by_job("early", "map")
        force_validate(server, maps[0], ["a0", "b0"])
        assert server.db.workunits_by_job("early", "reduce") == []
        force_validate(server, maps[1], ["a1", "b1"])
        assert len(server.db.workunits_by_job("early", "reduce")) == 2
        assert job.phase is JobPhase.MAP  # maps still outstanding


class TestWuErrorPropagation:
    def test_map_wu_error_fails_job(self, setup):
        _sim, server, tracker = setup
        job = tracker.submit(spec())
        wu = server.db.workunits_by_job("j", "map")[0]
        # simulate the transitioner calling the hook
        wu.error_reason = "too many errors"
        tracker._on_wu_error(wu)
        assert job.phase is JobPhase.FAILED
        with pytest.raises(RuntimeError, match="map workunit 0"):
            job.done.value
