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

    def test_periods_draw_lazily_in_stream_order(self):
        """ON length, permanence, OFF length — each only when asked for, so
        hosts sharing one stream interleave their draws by simulated time."""
        model = AvailabilityModel(mean_on_s=100.0, mean_off_s=10.0)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        a, b = model.periods(rng), model.periods(rng)
        assert next(a) == model.draw_on(twin)
        assert next(b) == model.draw_on(twin)
        for host in (b, a, a, b, b, a):  # whoever's period elapses next
            twin.random()  # permanence is drawn even at departure_prob 0
            assert next(host) == model.draw_off(twin)
            assert next(host) == model.draw_on(twin)

    def test_certain_departure_ends_after_one_on_period(self):
        model = AvailabilityModel(departure_prob=1.0)
        assert len(list(model.periods(np.random.default_rng(0)))) == 1


def churn_cloud(seed=1):
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed,
        mr_config=BoincMRConfig(upload_map_outputs=True),
        server_config=ServerConfig(delay_bound_s=900.0)))
    cloud.add_volunteers(12, mr=True)
    return cloud, ChurnController(cloud.sim, tracer=cloud.tracer)


class ChurnCases:
    """What the one controller does whatever its period source; a subclass
    says where host *index*'s ON/OFF lengths come from (``on_s`` / ``off_s``
    are the source's time scale: means for the model, lengths for a trace).
    """

    def periods(self, cloud, index, on_s, off_s):
        raise NotImplementedError

    def churn(self, cloud, controller, clients, on_s, off_s, **source_kwargs):
        for client in clients:
            controller.manage(client, self.periods(
                cloud, cloud.clients.index(client), on_s, off_s,
                **source_kwargs))

    def test_transitions_recorded(self):
        cloud, controller = churn_cloud()
        cloud.start()
        self.churn(cloud, controller, cloud.clients, 300.0, 100.0)
        cloud.sim.run(until=3600.0)
        offline = cloud.tracer.select("churn.offline")
        online = cloud.tracer.select("churn.online")
        assert len(offline) > 5
        assert len(online) > 0
        assert controller.transitions == len(offline) + len(online)

    def test_offline_host_drops_flows(self):
        cloud, controller = churn_cloud()
        cloud.start()
        self.churn(cloud, controller, cloud.clients, 120.0, 60.0)
        # 1 GB per map input through a 100 Mbit server link: every host is
        # still downloading whenever it leaves.
        cloud.submit(MapReduceJobSpec(
            "churny", n_maps=6, n_reducers=2, input_size=6e9))
        cloud.sim.run(until=600.0)
        assert cloud.net.flownet.flows_aborted > 0
        down = [c for c in cloud.clients if c.offline]
        assert down
        for client in down:
            assert not client.host.online
            assert cloud.net.flownet.flows_using(
                [client.host.uplink, client.host.downlink]) == []

    def test_job_completes_under_churn(self):
        cloud, controller = churn_cloud(seed=4)
        cloud.start()
        self.churn(cloud, controller, cloud.clients, 1200.0, 300.0)
        job = cloud.run_job(MapReduceJobSpec(
            "survivor", n_maps=6, n_reducers=2, input_size=60e6),
            timeout=24 * 3600.0)
        assert job.phase is JobPhase.DONE

    def test_client_resumes_pull_loop_after_outage(self):
        cloud, controller = churn_cloud(seed=2)
        cloud.start()
        victim = cloud.clients[0]
        self.churn(cloud, controller, [victim], 200.0, 100.0)
        cloud.sim.run(until=2000.0)
        gone = cloud.tracer.times("churn.offline", host=victim.name)
        back = cloud.tracer.times("churn.online", host=victim.name)
        assert gone and back and gone[0] < back[0]
        # It came back: it must have RPC'd afterwards.
        assert [r for r in cloud.tracer.select("sched.rpc", host=victim.name)
                if r.time > back[0]]
        assert victim.offline == (len(gone) > len(back))
        assert victim.host.online != victim.offline


class TestChurnController(ChurnCases):
    """Periods drawn from an :class:`AvailabilityModel` on the shared
    ``churn`` stream."""

    def periods(self, cloud, index, on_s, off_s, departure_prob=0.0):
        model = AvailabilityModel(mean_on_s=on_s, mean_off_s=off_s,
                                  departure_prob=departure_prob)
        return model.periods(cloud.rngs.stream("churn"))

    def test_departure_is_permanent(self):
        cloud, controller = churn_cloud()
        cloud.start()
        self.churn(cloud, controller, cloud.clients, 60.0, 30.0,
                   departure_prob=1.0)
        cloud.sim.run(until=2000.0)
        # Every host departs on its first OFF transition.
        assert len(controller.departed) == len(cloud.clients)
        onlines = cloud.tracer.select("churn.online")
        assert onlines == []

    def test_work_lost_to_churn_is_replaced(self):
        cloud, controller = churn_cloud(seed=6)
        cloud.start()
        self.churn(cloud, controller, cloud.clients, 400.0, 300.0)
        job = cloud.run_job(MapReduceJobSpec(
            "replaced", n_maps=8, n_reducers=2, input_size=160e6),
            timeout=24 * 3600.0)
        assert job.phase is JobPhase.DONE
        # Deadline timeouts / failures forced the transitioner to create
        # replacement results beyond the initial replication.
        n_results = len(cloud.server.db.results)
        initial = (8 + 2) * 2
        assert n_results > initial


class TestPermanentDeparture:
    """The departure path under load: lost results must be recovered."""

    @staticmethod
    def departing_third():
        cloud, controller = churn_cloud(seed=3)
        cloud.start()
        model = AvailabilityModel(mean_on_s=250.0, mean_off_s=100.0,
                                  departure_prob=1.0)
        # Churn only a third of the fleet: the survivors finish the job.
        for client in cloud.clients[:4]:
            controller.manage(client,
                              model.periods(cloud.rngs.stream("churn")))
        return cloud, controller

    def test_departed_work_recovered_by_deadline_timeout(self):
        cloud, controller = self.departing_third()
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
        cloud, controller = self.departing_third()
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
