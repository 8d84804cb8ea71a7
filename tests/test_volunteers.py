"""Unit and integration tests for availability/churn modelling."""

import numpy as np
import pytest

from repro.core import (
    BoincMRConfig,
    CloudSpec,
    JobPhase,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.boinc.server import ServerConfig
from repro.sim import Simulator, Tracer
from repro.volunteers import AvailabilityModel, ChurnController


class TestAvailabilityModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            AvailabilityModel(mean_on_s=0)
        with pytest.raises(ValueError):
            AvailabilityModel(mean_off_s=-1)
        with pytest.raises(ValueError):
            AvailabilityModel(departure_prob=1.5)

    def test_draws_positive_and_seeded(self):
        model = AvailabilityModel(mean_on_s=100.0, mean_off_s=10.0)
        rng = np.random.default_rng(0)
        draws = [model.draw_on(rng) for _ in range(100)]
        assert all(d >= 0 for d in draws)
        assert np.mean(draws) == pytest.approx(100.0, rel=0.5)
        rng2 = np.random.default_rng(0)
        assert model.draw_on(rng2) == pytest.approx(draws[0])


def churn_cloud(seed=1, **model_kwargs):
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed,
        mr_config=BoincMRConfig(upload_map_outputs=True),
        server_config=ServerConfig(delay_bound_s=900.0)))
    cloud.add_volunteers(12, mr=True)
    model = AvailabilityModel(**model_kwargs)
    controller = ChurnController(cloud.sim, cloud.rngs.stream("churn"),
                                 model, tracer=cloud.tracer)
    return cloud, controller


class TestChurnController:
    def test_transitions_recorded(self):
        cloud, controller = churn_cloud(mean_on_s=300.0, mean_off_s=100.0)
        cloud.start()
        controller.manage_all(cloud.clients)
        cloud.sim.run(until=3600.0)
        offline = cloud.tracer.select("churn.offline")
        online = cloud.tracer.select("churn.online")
        assert len(offline) > 5
        assert len(online) > 0
        assert controller.transitions == len(offline) + len(online)

    def test_offline_host_drops_flows(self):
        cloud, controller = churn_cloud(mean_on_s=120.0, mean_off_s=60.0)
        cloud.start()
        controller.manage_all(cloud.clients)
        job = cloud.submit(MapReduceJobSpec(
            "churny", n_maps=6, n_reducers=2, input_size=120e6))
        cloud.sim.run(until=600.0)
        # At least one host must have gone offline while transferring or
        # computing; its tasks show up as failed or its results time out.
        assert len(cloud.tracer.select("churn.offline")) > 0

    def test_departure_is_permanent(self):
        cloud, controller = churn_cloud(mean_on_s=60.0, mean_off_s=30.0,
                                        departure_prob=1.0)
        cloud.start()
        controller.manage_all(cloud.clients)
        cloud.sim.run(until=2000.0)
        # Every host departs on its first OFF transition.
        assert len(controller.departed) == len(cloud.clients)
        onlines = cloud.tracer.select("churn.online")
        assert onlines == []

    def test_job_completes_under_churn(self):
        cloud, controller = churn_cloud(seed=4, mean_on_s=1200.0,
                                        mean_off_s=300.0)
        cloud.start()
        controller.manage_all(cloud.clients)
        job = cloud.run_job(MapReduceJobSpec(
            "survivor", n_maps=6, n_reducers=2, input_size=60e6),
            timeout=24 * 3600.0)
        assert job.phase is JobPhase.DONE

    def test_work_lost_to_churn_is_replaced(self):
        cloud, controller = churn_cloud(seed=6, mean_on_s=400.0,
                                        mean_off_s=300.0)
        cloud.start()
        controller.manage_all(cloud.clients)
        job = cloud.run_job(MapReduceJobSpec(
            "replaced", n_maps=8, n_reducers=2, input_size=160e6),
            timeout=24 * 3600.0)
        assert job.phase is JobPhase.DONE
        # Deadline timeouts / failures forced the transitioner to create
        # replacement results beyond the initial replication.
        n_results = len(cloud.server.db.results)
        initial = (8 + 2) * 2
        assert n_results > initial

    def test_client_resumes_pull_loop_after_outage(self):
        cloud, controller = churn_cloud(seed=2, mean_on_s=200.0,
                                        mean_off_s=100.0)
        cloud.start()
        controller.manage(cloud.clients[0])
        cloud.sim.run(until=2000.0)
        back = cloud.tracer.select("churn.online", host=cloud.clients[0].name)
        if back:  # it came back at least once: it must have RPC'd afterwards
            after = [r for r in cloud.tracer.select(
                "sched.rpc", host=cloud.clients[0].name)
                if r.time > back[0].time]
            assert after


class TestPermanentDeparture:
    """The departure path under load: lost results must be recovered."""

    def test_departed_work_recovered_by_deadline_timeout(self):
        cloud, controller = churn_cloud(seed=3, mean_on_s=250.0,
                                        mean_off_s=100.0, departure_prob=1.0)
        cloud.start()
        # Churn only a third of the fleet: the survivors finish the job.
        for client in cloud.clients[:4]:
            controller.manage(client)
        job = cloud.run_job(MapReduceJobSpec(
            "departures", n_maps=8, n_reducers=2, input_size=160e6),
            timeout=24 * 3600.0)
        assert job.phase is JobPhase.DONE
        assert controller.departed, "nobody departed — scenario too gentle"
        # Departed hosts never rejoin: no online transition afterwards.
        for name in controller.departed:
            assert cloud.tracer.select("churn.online", host=name) == []
        # Their in-flight results were recovered by deadline timeout, not
        # silently lost — and the end state passes the full audit.
        timeouts = cloud.tracer.select("transitioner.timeout")
        assert timeouts, "no deadline timeout fired for departed hosts' work"
        report = cloud.audit(job)
        assert report.ok, report.render()

    def test_departed_results_not_reassigned_to_departed_hosts(self):
        cloud, controller = churn_cloud(seed=3, mean_on_s=250.0,
                                        mean_off_s=100.0, departure_prob=1.0)
        cloud.start()
        for client in cloud.clients[:4]:
            controller.manage(client)
        cloud.run_job(MapReduceJobSpec(
            "departures2", n_maps=8, n_reducers=2, input_size=160e6),
            timeout=24 * 3600.0)
        departed_at = {}
        for rec in cloud.tracer.select("churn.offline"):
            departed_at.setdefault(rec.get("host"), rec.time)
        for rec in cloud.tracer.select("sched.assign"):
            host = rec.get("host")
            if host in controller.departed:
                assert rec.time <= departed_at[host]
