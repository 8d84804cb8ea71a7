"""Unit-level tests for the BOINC-MR client strategies."""

from repro.boinc.client import ClientTask
from repro.boinc.model import FileRef, OutputData, Workunit
from repro.boinc.server import Assignment
from repro.core import (
    BoincMRConfig,
    CloudSpec,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.core import interclient
from repro.core.policies import ClientDirectory
from repro.net import TransferFailed


class TestClientDirectory:
    def test_resolve_with_port(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        client = cloud.add_volunteer("alpha", mr=True)
        assert cloud.directory.resolve("alpha:31416") is client
        assert cloud.directory.resolve("alpha") is client

    def test_resolve_unknown(self):
        assert ClientDirectory().resolve("ghost:1") is None


def harness(mr_config=None, n=3):
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=1, mr_config=mr_config))
    clients = cloud.add_volunteers(n, mr=True)
    spec = MapReduceJobSpec("j", n_maps=2, n_reducers=2, input_size=2e6)
    job = cloud.jobtracker.submit(spec)
    return cloud, clients, spec, job


def make_reduce_task(cloud, spec, reduce_index, peer_locations):
    wu = Workunit(
        id=cloud.server.db.new_wu_id(), app_name="r",
        input_files=tuple(
            FileRef(spec.map_output_file(i, reduce_index),
                    spec.map_output_size())
            for i in range(spec.n_maps)),
        flops=1.0, mr_job=spec.name, mr_kind="reduce",
        mr_index=reduce_index)
    assignment = Assignment(result_id=999, wu=wu, est_runtime_s=1.0,
                            deadline=1e9, peer_locations=peer_locations)
    return ClientTask(assignment=assignment)


def make_map_task(cloud, spec, map_index, result_id=998):
    wu = Workunit(
        id=cloud.server.db.new_wu_id(), app_name="m",
        input_files=(FileRef(spec.map_input_file(map_index),
                             spec.chunk_size),),
        flops=1.0, mr_job=spec.name, mr_kind="map", mr_index=map_index)
    assignment = Assignment(result_id=result_id, wu=wu, est_runtime_s=1.0,
                            deadline=1e9)
    task = ClientTask(assignment=assignment)
    task.output = OutputData(
        digest="d",
        files=tuple(FileRef(spec.map_output_file(map_index, r),
                            spec.map_output_size())
                    for r in range(spec.n_reducers)))
    return task


class TestOutputPolicy:
    def test_mr_map_serves_without_upload(self):
        cloud, clients, spec, _job = harness()  # hash-only default
        task = make_map_task(cloud, spec, 0)
        proc = cloud.sim.process(
            clients[0].output_policy.handle(clients[0], task))
        cloud.sim.run(until_event=proc)
        for r in range(spec.n_reducers):
            assert clients[0].peer_store.available(spec.map_output_file(0, r))
            assert not cloud.server.dataserver.has(spec.map_output_file(0, r))

    def test_mr_map_uploads_when_configured(self):
        cloud, clients, spec, _job = harness(
            BoincMRConfig(upload_map_outputs=True))
        task = make_map_task(cloud, spec, 0)
        proc = cloud.sim.process(
            clients[0].output_policy.handle(clients[0], task))
        cloud.sim.run(until_event=proc)
        cloud.sim.run(until=cloud.sim.now + 60)  # let uploads land
        assert clients[0].peer_store.available(spec.map_output_file(0, 0))
        assert cloud.server.dataserver.has(spec.map_output_file(0, 0))

    def test_map_result_is_ready_only_after_its_uploads(self):
        """A map's fallback uploads land before the result is ready to report.

        BOINC's client reports a result once its output files are uploaded,
        so no map output upload is still running when reducers start
        fetching that map's partitions from peers.
        """
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=3, mr_config=BoincMRConfig(upload_map_outputs=True)))
        cloud.add_volunteers(6, mr=True)
        spec = MapReduceJobSpec("j", n_maps=6, n_reducers=2, input_size=60e6)
        cloud.run_job(spec, timeout=24 * 3600)
        db = cloud.server.db
        uploads = cloud.tracer.select("dataserver.upload")
        checked = 0
        for ready in cloud.tracer.select("task.ready"):
            wu = db.workunits[db.results[ready["result"]].wu_id]
            if wu.mr_kind != "map":
                continue
            outputs = {spec.map_output_file(wu.mr_index, r)
                       for r in range(spec.n_reducers)}
            landed = [up.time for up in uploads
                      if up["frm"] == ready["host"] and up["file"] in outputs]
            assert len(landed) == spec.n_reducers, ready
            assert max(landed) <= ready.time, ready
            checked += 1
        assert checked >= spec.n_maps

    def test_missing_peer_store_raises(self):
        cloud, clients, spec, _job = harness()
        task = make_map_task(cloud, spec, 0)
        clients[0].peer_store = None

        def body():
            try:
                yield from clients[0].output_policy.handle(clients[0], task)
            except RuntimeError as exc:
                return str(exc)

        proc = cloud.sim.process(body())
        cloud.sim.run(until_event=proc)
        assert "no peer store" in proc.value


class TestInputFetcher:
    def serve_all(self, cloud, clients, spec):
        """Make client[0] serve every map partition."""
        for i in range(spec.n_maps):
            for r in range(spec.n_reducers):
                clients[0].peer_store.serve(
                    FileRef(spec.map_output_file(i, r),
                            spec.map_output_size()), job=spec.name)

    def test_peer_fetch_happy_path(self):
        cloud, clients, spec, _job = harness()
        self.serve_all(cloud, clients, spec)
        locations = {i: [clients[0].name] for i in range(spec.n_maps)}
        task = make_reduce_task(cloud, spec, 0, locations)
        fetcher = clients[1].input_fetcher
        proc = cloud.sim.process(fetcher.fetch(clients[1], task))
        cloud.sim.run(until_event=proc)
        assert proc.triggered and proc.exception is None
        assert fetcher.peer_fetches == spec.n_maps

    def test_local_partitions_read_without_transfer(self):
        cloud, clients, spec, _job = harness()
        self.serve_all(cloud, clients, spec)
        locations = {i: [clients[0].name] for i in range(spec.n_maps)}
        task = make_reduce_task(cloud, spec, 0, locations)
        fetcher = clients[0].input_fetcher  # the mapper reduces its own data
        proc = cloud.sim.process(fetcher.fetch(clients[0], task))
        cloud.sim.run(until_event=proc)
        assert proc.triggered and proc.exception is None
        assert fetcher.peer_fetches == 0
        assert len(cloud.tracer.select("peer.local")) == spec.n_maps

    def test_unavailable_peer_falls_back_to_server(self):
        cloud, clients, spec, _job = harness(
            BoincMRConfig(upload_map_outputs=True))
        # Nothing served, but the server holds the partitions.
        for i in range(spec.n_maps):
            cloud.server.dataserver.publish(
                FileRef(spec.map_output_file(i, 0), spec.map_output_size()))
        locations = {i: [clients[0].name] for i in range(spec.n_maps)}
        task = make_reduce_task(cloud, spec, 0, locations)
        fetcher = clients[1].input_fetcher
        proc = cloud.sim.process(fetcher.fetch(clients[1], task))
        cloud.sim.run(until_event=proc)
        assert proc.triggered and proc.exception is None
        assert fetcher.server_fallbacks == spec.n_maps
        assert len(cloud.tracer.select("peer.unavailable")) > 0

    def test_expired_serving_window_counts_as_unavailable(self, pin):
        pin(interclient, SERVE_TIMEOUT_S=10.0)
        cloud, clients, spec, _job = harness(
            BoincMRConfig(upload_map_outputs=True))
        self.serve_all(cloud, clients, spec)
        for i in range(spec.n_maps):
            cloud.server.dataserver.publish(
                FileRef(spec.map_output_file(i, 0), spec.map_output_size()))
        cloud.sim.schedule(100.0, lambda: None)
        cloud.sim.run()  # run past the serving timeout
        locations = {i: [clients[0].name] for i in range(spec.n_maps)}
        task = make_reduce_task(cloud, spec, 0, locations)
        fetcher = clients[1].input_fetcher
        proc = cloud.sim.process(fetcher.fetch(clients[1], task))
        cloud.sim.run(until_event=proc)
        assert proc.triggered and proc.exception is None
        assert fetcher.peer_fetches == 0
        assert fetcher.server_fallbacks == spec.n_maps

    def test_no_peers_no_server_copy_fails(self):
        cloud, clients, spec, _job = harness()  # hash-only: no server copy
        task = make_reduce_task(cloud, spec, 0, {0: ["ghost:1"]})

        def body():
            try:
                yield from clients[1].input_fetcher.fetch(clients[1], task)
            except TransferFailed as exc:
                return f"failed: {exc}"

        proc = cloud.sim.process(body())
        cloud.sim.run(until_event=proc)
        assert "unavailable" in proc.value

    def test_map_task_fetches_from_server(self):
        cloud, clients, spec, _job = harness()
        wu = Workunit(
            id=cloud.server.db.new_wu_id(), app_name="m",
            input_files=(FileRef(spec.map_input_file(0), spec.chunk_size),),
            flops=1.0, mr_job=spec.name, mr_kind="map", mr_index=0)
        task = ClientTask(assignment=Assignment(
            result_id=1000, wu=wu, est_runtime_s=1.0, deadline=1e9))
        proc = cloud.sim.process(
            clients[1].input_fetcher.fetch(clients[1], task))
        cloud.sim.run(until_event=proc)
        assert proc.triggered and proc.exception is None
