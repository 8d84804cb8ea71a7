"""Tests for availability-trace replay."""

import numpy as np
import pytest

from repro.boinc.server import ServerConfig
from repro.core import (
    BoincMRConfig,
    CloudSpec,
    JobPhase,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.volunteers import ChurnController
from repro.volunteers.traces import AvailabilityTrace, diurnal_trace

from .test_volunteers import ChurnCases


class TestAvailabilityTrace:
    def test_valid(self):
        tr = AvailabilityTrace("h", ((0.0, 10.0), (20.0, 30.0)))
        assert tr.available_at(5.0)
        assert not tr.available_at(15.0)
        assert not tr.available_at(10.0)  # half-open
        assert tr.total_available == 20.0

    def test_availability_fraction(self):
        tr = AvailabilityTrace("h", ((0.0, 10.0), (20.0, 30.0)))
        assert tr.availability_fraction(40.0) == pytest.approx(0.5)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            AvailabilityTrace("h", ((0.0, 10.0), (5.0, 20.0)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AvailabilityTrace("h", ((5.0, 5.0),))


class TestPeriods:
    """A trace as the controller reads it: alternating ON/OFF lengths."""

    def test_gaps_become_off_periods_and_the_trace_ends_online(self):
        tr = AvailabilityTrace("h", ((0.0, 100.0), (400.0, 1000.0)))
        assert list(tr.periods()) == [100.0, 300.0, 600.0]

    def test_trace_that_starts_offline_opens_with_a_zero_on(self):
        tr = AvailabilityTrace("h", ((50.0, 100.0),))
        assert list(tr.periods()) == [0.0, 50.0, 50.0]

    def test_back_to_back_intervals_are_one_on_period(self):
        tr = AvailabilityTrace("h", ((0.0, 10.0), (10.0, 30.0), (40.0, 50.0)))
        assert list(tr.periods()) == [30.0, 10.0, 10.0]

    def test_periods_from_a_later_now_skip_the_past(self):
        tr = AvailabilityTrace("h", ((0.0, 100.0), (200.0, 300.0),
                                     (400.0, 500.0)))
        assert list(tr.periods(now=250.0)) == [50.0, 100.0, 100.0]
        assert list(tr.periods(now=150.0)) == [0.0, 50.0, 100.0, 100.0, 100.0]
        assert list(tr.periods(now=600.0)) == [0.0]


class TestDiurnal:
    def test_one_interval_per_day(self):
        rng = np.random.default_rng(0)
        tr = diurnal_trace("h", days=14, rng=rng)
        assert len(tr.intervals) == 14

    def test_weekends_longer(self):
        rng = np.random.default_rng(0)
        tr = diurnal_trace("h", days=14, rng=rng, jitter_h=0.0)
        lengths = [e - s for s, e in tr.intervals]
        weekday = lengths[0]
        weekend = lengths[5]
        assert weekend > weekday

    def test_deterministic(self):
        a = diurnal_trace("h", 7, rng=np.random.default_rng(3))
        b = diurnal_trace("h", 7, rng=np.random.default_rng(3))
        assert a.intervals == b.intervals

    def test_invalid_days(self):
        with pytest.raises(ValueError):
            diurnal_trace("h", 0, rng=np.random.default_rng(0))


class TestTraceReplay(ChurnCases):
    """Periods read off an :class:`AvailabilityTrace`: a square wave of
    ``on_s`` up / ``off_s`` down, each host a little out of phase."""

    def periods(self, cloud, index, on_s, off_s):
        end = on_s * (0.5 + index / len(cloud.clients))
        intervals = [(0.0, end)]
        for _ in range(40):
            intervals.append((end + off_s, end + off_s + on_s))
            end += off_s + on_s
        return AvailabilityTrace(f"h{index}", tuple(intervals)).periods()

    def test_client_goes_down_and_up_per_trace(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=1,
            mr_config=BoincMRConfig(upload_map_outputs=True),
            server_config=ServerConfig(delay_bound_s=600.0)))
        clients = cloud.add_volunteers(6, mr=True)
        cloud.start()
        controller = ChurnController(cloud.sim, tracer=cloud.tracer)
        # First client offline during [100, 400).
        controller.manage(clients[0], AvailabilityTrace(
            clients[0].name, ((0.0, 100.0), (400.0, 1e6))).periods())
        cloud.sim.run(until=500.0)
        off = cloud.tracer.times("churn.offline", host=clients[0].name)
        on = cloud.tracer.times("churn.online", host=clients[0].name)
        assert off and off[0] == pytest.approx(100.0)
        assert on and on[0] == pytest.approx(400.0)
        assert controller.transitions == 2

    def test_end_of_trace_is_a_departure(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        late, brief = cloud.add_volunteers(2, mr=True)
        cloud.start()
        controller = ChurnController(cloud.sim, tracer=cloud.tracer)
        controller.manage(late, AvailabilityTrace(
            late.name, ((50.0, 1e6),)).periods())
        controller.manage(brief, AvailabilityTrace(
            brief.name, ((0.0, 80.0),)).periods())
        cloud.sim.run(until=10.0)
        assert late.offline and not brief.offline
        cloud.sim.run(until=100.0)
        assert not late.offline and brief.offline
        assert controller.departed == {brief.name}
        assert [r["permanent"] for r in cloud.tracer.select(
            "churn.offline")] == [False, True]

    def test_job_completes_under_trace_churn(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=4,
            mr_config=BoincMRConfig(upload_map_outputs=True),
            server_config=ServerConfig(delay_bound_s=900.0)))
        clients = cloud.add_volunteers(10, mr=True)
        cloud.start()
        controller = ChurnController(cloud.sim, tracer=cloud.tracer)
        for i, client in enumerate(clients[:5]):
            # Staggered early outages across half the cluster.
            start = 60.0 + 60.0 * i
            controller.manage(client, AvailabilityTrace(
                client.name, ((0.0, start), (start + 300.0, 1e7))).periods())
        job = cloud.run_job(MapReduceJobSpec(
            "traced", n_maps=8, n_reducers=2, input_size=80e6),
            timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        # The sim stops at job completion; every outage scheduled before
        # that must have fired and been survived.
        offline = cloud.tracer.times("churn.offline")
        assert offline and all(t < job.finished_at for t in offline)
        assert len(offline) >= 3
