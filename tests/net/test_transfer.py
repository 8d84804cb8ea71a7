"""Unit tests for semaphores, endpoints, and peer downloads."""

import numpy as np
import pytest

from repro.net import (
    EMULAB_LINK,
    PUBLIC,
    ConnectivityPolicy,
    NatBox,
    NatType,
    Network,
    SimSemaphore,
    TransferEndpoint,
    TransferFailed,
    TraversalConfig,
    peer_download,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim)


def make_policy(seed=0):
    return ConnectivityPolicy(TraversalConfig(direct_setup_s=0.0),
                              rng=np.random.default_rng(seed))


class TestSimSemaphore:
    def test_acquire_under_capacity_immediate(self, sim):
        sem = SimSemaphore(sim, 2)
        assert sem.acquire().triggered
        assert sem.acquire().triggered
        assert sem.in_use == 2

    def test_acquire_over_capacity_queues(self, sim):
        sem = SimSemaphore(sim, 1)
        sem.acquire()
        third = sem.acquire()
        assert not third.triggered
        assert sem.waiting == 1

    def test_release_wakes_fifo(self, sim):
        sem = SimSemaphore(sim, 1)
        sem.acquire()
        w1 = sem.acquire()
        w2 = sem.acquire()
        sem.release()
        assert w1.triggered and not w2.triggered
        sem.release()
        assert w2.triggered

    def test_release_below_zero_rejected(self, sim):
        sem = SimSemaphore(sim, 1)
        with pytest.raises(RuntimeError):
            sem.release()

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            SimSemaphore(sim, 0)

    def test_slots_conserved_under_churn(self, sim):
        sem = SimSemaphore(sim, 3)
        grants = [sem.acquire() for _ in range(10)]
        for _ in range(10):
            sem.release()
        assert sem.in_use == 0
        assert all(g.triggered for g in grants)


class TestPeerDownload:
    def make_pair(self, sim, net, src_nat=None, dst_nat=None, **ep_kwargs):
        a = net.add_host("src", EMULAB_LINK, nat=src_nat or PUBLIC)
        b = net.add_host("dst", EMULAB_LINK, nat=dst_nat or PUBLIC)
        return (TransferEndpoint(sim, a, **ep_kwargs),
                TransferEndpoint(sim, b, **ep_kwargs))

    def test_successful_download(self, sim, net):
        src, dst = self.make_pair(sim, net)
        proc = sim.process(peer_download(
            sim, net, make_policy(), src, dst, 12.5e6))
        sim.run()
        rec = proc.value
        assert rec.ok
        assert rec.duration == pytest.approx(1.0, rel=0.01)  # + rtt

    def test_traversal_failure_raises(self, sim, net):
        sym = NatBox(nat_type=NatType.SYMMETRIC)
        src, dst = self.make_pair(sim, net, src_nat=sym, dst_nat=sym)
        policy = ConnectivityPolicy(
            TraversalConfig(enable_relay=False, enable_hole_punch=False,
                            enable_reversal=False),
            rng=np.random.default_rng(0))

        def body():
            try:
                yield sim.process(peer_download(sim, net, policy, src, dst, 100))
            except TransferFailed as exc:
                return f"failed: {exc.reason}"

        proc = sim.process(body())
        sim.run()
        assert proc.value.startswith("failed: no connectivity")

    def test_relay_needs_relay_host(self, sim, net):
        sym = NatBox(nat_type=NatType.SYMMETRIC)
        src, dst = self.make_pair(sim, net, src_nat=sym, dst_nat=sym)

        def body():
            try:
                yield sim.process(peer_download(
                    sim, net, make_policy(seed=1), src, dst, 100))
            except TransferFailed as exc:
                return exc.reason

        proc = sim.process(body())
        sim.run()
        assert "relay required" in proc.value

    def test_relayed_download_uses_relay_links(self, sim, net):
        sym = NatBox(nat_type=NatType.SYMMETRIC)
        src, dst = self.make_pair(sim, net, src_nat=sym, dst_nat=sym)
        relay = net.add_host("relay", EMULAB_LINK)
        proc = sim.process(peer_download(
            sim, net, make_policy(seed=1), src, dst, 12.5e6, relay=relay))
        sim.run()
        rec = proc.value
        assert rec.ok and rec.relayed

    def test_connection_limit_serialises_uploads(self, sim, net):
        src_host = net.add_host("server_peer", EMULAB_LINK)
        src = TransferEndpoint(sim, src_host, max_upload_conns=1)
        dsts = []
        for i in range(3):
            h = net.add_host(f"d{i}", EMULAB_LINK)
            dsts.append(TransferEndpoint(sim, h))
        procs = [
            sim.process(peer_download(sim, net, make_policy(), src, d, 12.5e6))
            for d in dsts
        ]
        sim.run()
        ends = sorted(p.value.finished_at for p in procs)
        # One at a time over a 12.5MB/s uplink: finish ~1s apart.
        assert ends[1] - ends[0] == pytest.approx(1.0, rel=0.05)
        assert ends[2] - ends[1] == pytest.approx(1.0, rel=0.05)

    def test_unlimited_connections_share_bandwidth(self, sim, net):
        src_host = net.add_host("server_peer", EMULAB_LINK)
        src = TransferEndpoint(sim, src_host, max_upload_conns=8)
        dsts = []
        for i in range(3):
            h = net.add_host(f"d{i}", EMULAB_LINK)
            dsts.append(TransferEndpoint(sim, h))
        procs = [
            sim.process(peer_download(sim, net, make_policy(), src, d, 12.5e6))
            for d in dsts
        ]
        sim.run()
        ends = [p.value.finished_at for p in procs]
        assert max(ends) == pytest.approx(3.0, rel=0.05)
        assert max(ends) - min(ends) < 0.2

    def test_offline_source_fails_cleanly(self, sim, net):
        src, dst = self.make_pair(sim, net)
        net.set_online(src.host, False)

        def body():
            try:
                yield sim.process(peer_download(
                    sim, net, make_policy(), src, dst, 100))
            except TransferFailed as exc:
                return f"failed: {exc.reason}"

        proc = sim.process(body())
        sim.run()
        assert "offline" in proc.value

    def test_slots_released_after_failure(self, sim, net):
        src, dst = self.make_pair(sim, net)

        def body():
            try:
                yield sim.process(peer_download(
                    sim, net, make_policy(), src, dst, 12.5e6))
            except TransferFailed as exc:
                return f"failed: {exc.reason}"

        proc = sim.process(body())
        # The source goes offline partway through the flow.
        sim.schedule(0.5, net.set_online, src.host, False)
        sim.run()
        assert proc.value.startswith("failed")
        assert src.upload_slots.in_use == 0
        assert dst.download_slots.in_use == 0


class TestSemaphoreSettle:
    """Unwinding acquires from a finally block, whatever state they reached."""

    def test_settle_releases_granted_slot(self, sim):
        sem = SimSemaphore(sim, 1)
        grant = sem.acquire()
        assert grant.triggered
        sem.settle(grant)
        assert sem.in_use == 0
        assert sem.balance == 0

    def test_settle_cancels_queued_waiter(self, sim):
        sem = SimSemaphore(sim, 1)
        sem.acquire()
        waiter = sem.acquire()
        assert not waiter.triggered
        sem.settle(waiter)
        assert sem.waiting == 0
        assert sem.cancelled_total == 1
        # The held slot is untouched and still releasable.
        sem.release()
        assert sem.in_use == 0

    def test_cancel_refuses_granted_event(self, sim):
        sem = SimSemaphore(sim, 1)
        grant = sem.acquire()
        assert sem.cancel(grant) is False

    def test_cancelled_waiter_never_steals_a_slot(self, sim):
        sem = SimSemaphore(sim, 1)
        sem.acquire()
        ghost = sem.acquire()
        sem.cancel(ghost)
        live = sem.acquire()
        sem.release()  # hands the slot to `live`, not the cancelled ghost
        assert live.triggered and not ghost.triggered
        assert sem.in_use == 1

    def test_balance_matches_in_use(self, sim):
        sem = SimSemaphore(sim, 2)
        grants = [sem.acquire() for _ in range(4)]
        sem.settle(grants[3])  # still queued: cancelled
        sem.release()
        assert sem.balance == sem.in_use


class TestPeerDownloadLeaks:
    """Interrupts must return connection slots in every intermediate state."""

    def make_pair(self, sim, net, **ep_kwargs):
        a = net.add_host("src", EMULAB_LINK, nat=PUBLIC)
        b = net.add_host("dst", EMULAB_LINK, nat=PUBLIC)
        return (TransferEndpoint(sim, a, **ep_kwargs),
                TransferEndpoint(sim, b, **ep_kwargs))

    def test_interrupt_while_waiting_for_slot_leaks_nothing(self, sim, net):
        """Regression: a process killed while QUEUED on the grant used to
        leave a phantom waiter that swallowed the next released slot."""
        src, dst = self.make_pair(sim, net, max_upload_conns=1)
        first = sim.process(peer_download(
            sim, net, make_policy(), src, dst, 12.5e6))
        second = sim.process(peer_download(
            sim, net, make_policy(), src, dst, 12.5e6))
        sim.schedule(0.5, second.interrupt, "churn kill while waiting")
        sim.run()
        assert first.value.ok
        assert src.upload_slots.waiting == 0
        assert src.upload_slots.in_use == 0
        assert src.upload_slots.cancelled_total == 1
        # The slot freed by `first` is immediately grantable again.
        assert src.upload_slots.acquire().triggered

    def test_interrupt_mid_flow_aborts_transfer(self, sim, net):
        src, dst = self.make_pair(sim, net)
        proc = sim.process(peer_download(
            sim, net, make_policy(), src, dst, 12.5e6))
        sim.schedule(0.5, proc.interrupt, "churn kill mid-flow")
        sim.run()
        assert not proc.alive
        assert list(net.flownet.active) == []
        assert src.upload_slots.in_use == 0
        assert dst.download_slots.in_use == 0

    def test_corrupt_serving_endpoint_marks_record(self, sim, net):
        src, dst = self.make_pair(sim, net)
        src.corrupt_serves = True
        proc = sim.process(peer_download(
            sim, net, make_policy(), src, dst, 12.5e6))
        sim.run()
        assert proc.value.ok and proc.value.corrupted
