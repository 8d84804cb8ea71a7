"""Unit tests for job specs and runtime job state."""

import pytest

from repro.core import JobPhase, MapReduceJobSpec
from repro.core.job import MapReduceJob
from repro.sim import Simulator


def spec(**kwargs):
    defaults = dict(name="j", n_maps=4, n_reducers=2, input_size=4e6)
    defaults.update(kwargs)
    return MapReduceJobSpec(**defaults)


class TestSpecValidation:
    def test_valid(self):
        assert spec().chunk_size == pytest.approx(1e6)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            spec(n_maps=0)
        with pytest.raises(ValueError):
            spec(n_reducers=0)

    def test_bad_input_size(self):
        with pytest.raises(ValueError):
            spec(input_size=0)

    def test_replication_quorum(self):
        with pytest.raises(ValueError):
            spec(replication=1, quorum=2)
        with pytest.raises(ValueError):
            spec(quorum=0)

    def test_file_naming_is_consistent(self):
        s = spec()
        assert s.map_input_file(3) == "j_map3_in"
        assert s.map_output_file(3, 1) == "j_m3_r1"
        assert s.reduce_output_file(1) == "j_out1"

    def test_derived_flops_positive(self):
        s = spec()
        assert s.map_flops > 0
        assert s.reduce_flops > 0

    def test_map_output_size(self):
        s = spec()
        assert s.map_output_size() == pytest.approx(
            s.cost.map_output_bytes(s.chunk_size, s.n_reducers))


class TestJobState:
    def make(self):
        sim = Simulator()
        return sim, MapReduceJob(spec(), sim.now, sim.event)

    def test_initial_phase(self):
        _sim, job = self.make()
        assert job.phase is JobPhase.MAP
        assert not job.finished
        assert job.makespan() is None

    def test_map_phase_completes_after_all_maps(self):
        _sim, job = self.make()
        for i in range(4):
            assert job.phase is JobPhase.MAP
            job.record_map_validated(i, holders=[f"h{i}"])
        assert job.phase is JobPhase.REDUCE
        assert job.maps_completed == 4

    def test_duplicate_map_rejected(self):
        _sim, job = self.make()
        job.record_map_validated(0, [])
        with pytest.raises(ValueError):
            job.record_map_validated(0, [])

    def test_job_completes_after_all_reduces(self):
        _sim, job = self.make()
        for i in range(4):
            job.record_map_validated(i, [])
        job.record_reduce_validated(0, 50.0)
        assert not job.finished
        job.record_reduce_validated(1, 60.0)
        assert job.phase is JobPhase.DONE
        assert job.done.triggered
        assert job.makespan() == 60.0

    def test_duplicate_reduce_rejected(self):
        _sim, job = self.make()
        for i in range(4):
            job.record_map_validated(i, [])
        job.record_reduce_validated(0, 5.0)
        with pytest.raises(ValueError):
            job.record_reduce_validated(0, 6.0)

    def test_fail_marks_failed_and_fails_event(self):
        sim, job = self.make()
        job.fail("validator gave up", now=7.0)
        assert job.phase is JobPhase.FAILED
        assert job.finished
        assert job.finished_at == 7.0
        with pytest.raises(RuntimeError, match="validator gave up"):
            job.done.value

    def test_fail_after_done_is_noop(self):
        _sim, job = self.make()
        for i in range(4):
            job.record_map_validated(i, [])
        for r in range(2):
            job.record_reduce_validated(r, 2.0)
        job.fail("too late", now=3.0)
        assert job.phase is JobPhase.DONE

    def test_holders_recorded(self):
        _sim, job = self.make()
        job.record_map_validated(2, ["a", "b"])
        assert job.map_tasks[2] == ["a", "b"]
