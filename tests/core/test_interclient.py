"""Unit tests for the peer-serving store (Section III.C semantics)."""

import pytest

from repro.boinc import FileRef
from repro.core import PeerStore, interclient
from repro.obs import MetricsRegistry
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def store(sim, pin):
    pin(interclient, SERVE_TIMEOUT_S=100.0)
    return PeerStore(sim)


class TestServing:
    def test_serve_and_get(self, store):
        store.serve(FileRef("f", 10), job="j")
        assert store.available("f")
        ref = store.get("f")
        assert ref.size == 10
        assert store.bytes_served == 10

    def test_unserved_file_unavailable(self, store):
        assert not store.available("nope")
        with pytest.raises(KeyError):
            store.get("nope")

    def test_timeout_expires_serving(self, sim, store):
        store.serve(FileRef("f", 10), job="j")
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert not store.available("f")
        with pytest.raises(KeyError, match="timeout"):
            store.get("f")

    def test_stop_job_withdraws_files(self, store):
        store.serve(FileRef("a", 1), job="j1")
        store.serve(FileRef("b", 1), job="j2")
        assert store.stop_job("j1") == 1
        assert not store.available("a")
        assert store.available("b")

    def test_serving_count_excludes_expired(self, sim, store):
        store.serve(FileRef("a", 1), job="j")
        assert [store.available(name) for name in "ab"] == [True, False]
        sim.schedule(150.0, lambda: None)
        sim.run()
        store.serve(FileRef("b", 1), job="j")
        assert [store.available(name) for name in "ab"] == [False, True]

    def test_reserve_restarts_window(self, sim, store):
        store.serve(FileRef("f", 10), job="j")
        sim.schedule(90.0, lambda: store.serve(FileRef("f", 10), job="j"))
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert store.available("f")  # re-serve at t=90 extends to t=190

    def test_download_counter(self, store):
        store.serve(FileRef("f", 10), job="j")
        store.get("f")
        store.get("f")
        assert store.bytes_served == 20


class TestEviction:
    def test_evict_withdraws_file(self, store):
        store.serve(FileRef("f", 10), job="j")
        assert store.evict("f") is True
        assert not store.available("f")
        with pytest.raises(KeyError):
            store.get("f")
        assert store.stop_job("j") == 0  # nothing left to withdraw

    def test_evict_unknown_or_already_evicted(self, store):
        assert store.evict("nope") is False
        store.serve(FileRef("f", 10), job="j")
        assert store.evict("f") is True
        assert store.evict("f") is False  # concurrent downloader lost the race

    def test_evicted_file_can_be_reserved(self, store):
        """A mapper re-serving after eviction starts a clean window."""
        store.serve(FileRef("f", 10), job="j")
        store.evict("f")
        store.serve(FileRef("f", 10), job="j")
        assert store.available("f")


class TestExpiryRaces:
    def test_expiry_mid_download_does_not_kill_the_transfer(self, sim, store,
                                                              pin):
        """The serving window gates *lookups*, not in-flight transfers: a
        download that called get() just inside the window completes even
        though the timeout expires while its bytes are still moving."""
        from repro.net import (EMULAB_LINK, PUBLIC, ConnectivityPolicy,
                               Network, TransferEndpoint, nat, peer_download)

        net = Network(sim, MetricsRegistry())
        a = net.add_host("mapper", EMULAB_LINK, nat=PUBLIC)
        b = net.add_host("reducer", EMULAB_LINK, nat=PUBLIC)
        src, dst = TransferEndpoint(sim, a), TransferEndpoint(sim, b)
        pin(nat, DIRECT_SETUP_S=0.0)
        policy = ConnectivityPolicy(rng=RngRegistry(0).stream("nat"))
        store.serve(FileRef("part0", 12.5e6), job="j")

        def reducer():
            yield sim.timeout(99.5)        # just inside the 100 s window
            ref = store.get("part0")       # lookup succeeds...
            rec = yield sim.process(peer_download(
                sim, net, policy, src, dst, ref.size))
            return rec

        proc = sim.process(reducer())
        sim.run()
        # ...the window expired mid-flight (the ~1 s transfer crossed
        # t=100), yet the download finished intact.
        assert proc.value.size == 12.5e6
        assert sim.now > 100.0
        assert not store.available("part0")

    def test_expired_entry_still_evictable(self, sim, store):
        store.serve(FileRef("f", 10), job="j")
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert not store.available("f")
        assert store.evict("f") is True  # corrupt + expired: still purged
