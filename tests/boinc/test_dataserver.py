"""Unit tests for the data server."""

import pytest

from repro.boinc import FileRef
from repro.boinc.dataserver import DataServer, FileMissing
from repro.net import EMULAB_LINK, Network, SERVER_LINK
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    net = Network(sim)
    server_host = net.add_host("server", EMULAB_LINK)
    ds = DataServer(sim, net, server_host)
    client = net.add_host("client", EMULAB_LINK)
    return sim, net, ds, client


class TestCatalogue:
    def test_publish_and_has(self, setup):
        _sim, _net, ds, _client = setup
        ds.publish(FileRef("f", 100))
        assert ds.has("f")
        assert not ds.has("g")

    def test_republish_overwrites(self, setup):
        _sim, _net, ds, _client = setup
        ds.publish(FileRef("f", 100))
        ds.publish(FileRef("f", 200))
        assert ds.files["f"].size == 200


class TestDownload:
    def test_download_time_matches_link(self, setup):
        sim, _net, ds, client = setup
        ds.publish(FileRef("f", 12.5e6))
        flow = ds.download("f", client)
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)
        assert ds.bytes_served == 12.5e6

    def test_download_missing_raises(self, setup):
        _sim, _net, ds, client = setup
        with pytest.raises(FileMissing):
            ds.download("nope", client)

    def test_concurrent_downloads_share_server_uplink(self, setup):
        sim, net, ds, client = setup
        other = net.add_host("other", EMULAB_LINK)
        ds.publish(FileRef("f", 12.5e6))
        f1 = ds.download("f", client)
        f2 = ds.download("f", other)
        assert f1.rate == pytest.approx(6.25e6)
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert f2.finished


class TestUpload:
    def test_upload_publishes_on_completion(self, setup):
        sim, _net, ds, client = setup
        ds.upload(FileRef("out", 12.5e6), client)
        assert not ds.has("out")  # not yet
        sim.run()  # drain: publication runs one callback pass after the flow
        assert ds.has("out")
        assert ds.bytes_received == 12.5e6

    def test_upload_callback(self, setup):
        sim, _net, ds, client = setup
        done = []
        ds.upload(FileRef("out", 100), client, on_done=lambda: done.append(1))
        sim.run()
        assert done == [1]

    def test_aborted_upload_leaves_no_file(self, setup):
        sim, net, ds, client = setup
        flow = ds.upload(FileRef("out", 1e9), client)
        sim.run(until=1.0)
        net.flownet.abort_flow(flow, reason="client died")
        sim.run(until=2.0)
        assert not ds.has("out")
        assert ds.bytes_received == 0
