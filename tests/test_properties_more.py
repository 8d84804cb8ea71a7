"""Additional property-based tests: overlay balance, peer-store
invariants, corpus structure."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc.model import FileRef
from repro.core import PeerStore, interclient
from repro.net import EMULAB_LINK, NatBox, NatType, Network, SupernodeOverlay
from repro.obs import MetricsRegistry
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# Supernode overlay invariants
# ---------------------------------------------------------------------------

population = st.lists(st.booleans(), min_size=2, max_size=25).filter(any)


def replayed_loads(overlay, hosts):
    """Attachments per supernode name, replayed in the overlay's order
    (hosts by name, each taking the ``fanout`` least-loaded supernodes).
    Every ordinary host's ``supernodes_of`` must be exactly its step's
    choice.  A supernode serves itself, so what it took at its step is
    not visible; the replay takes it by the same rule."""
    loads = {s.name: 0 for s in overlay.supernodes}
    for host in sorted(hosts, key=lambda h: h.name):
        least = sorted(overlay.supernodes,
                       key=lambda s: (loads[s.name], s.name))[:overlay.fanout]
        if host.name not in loads:
            assert overlay.supernodes_of(host) == least, host.name
        for s in least:
            loads[s.name] += 1
    return loads


@given(population, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=50)
def test_overlay_attachment_invariants(public_flags, n_supernodes, fanout):
    net = Network(Simulator(), MetricsRegistry())
    hosts = []
    for i, is_public in enumerate(public_flags):
        nat = None if is_public else NatBox(nat_type=NatType.SYMMETRIC)
        hosts.append(net.add_host(f"h{i:02d}", EMULAB_LINK, nat=nat))
    overlay = SupernodeOverlay(hosts, n_supernodes=n_supernodes, fanout=fanout)
    # 1. Every supernode is publicly reachable.
    for sn in overlay.supernodes:
        assert sn.nat is None or sn.nat.accepts_inbound()
    # 2. Every host resolves to >= 1 supernode, and relays always resolve.
    for h in hosts:
        assert overlay.supernodes_of(h)
        relay = overlay.pick_relay(h, hosts[0])
        assert relay in overlay.supernodes
    # 3. Attachment load is balanced within one unit.
    counts = replayed_loads(overlay, hosts).values()
    assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# Peer store invariants under arbitrary operation sequences
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["serve", "get", "stop", "advance"]),
              st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=200.0)),
    max_size=60,
)


@mock.patch.object(interclient, "SERVE_TIMEOUT_S", 100.0)
@given(ops)
@settings(max_examples=60)
def test_peer_store_never_serves_expired(operations):
    sim = Simulator()
    store = PeerStore(sim)
    served_at: dict[str, float] = {}
    for op, idx, amount in operations:
        name = f"f{idx}"
        if op == "serve":
            store.serve(FileRef(name, 1.0), job="j")
            served_at[name] = sim.now
        elif op == "get":
            try:
                store.get(name)
                # Success implies within the window of its last serve.
                assert store.available(name)
            except KeyError:
                assert not store.available(name)
        elif op == "stop":
            store.stop_job("j")
            served_at.clear()
        elif op == "advance":
            sim.schedule(amount, lambda: None)
            sim.run()
    for name, t in served_at.items():
        expected = sim.now <= t + 100.0
        assert store.available(name) == expected


# ---------------------------------------------------------------------------
# Corpus generator structure
# ---------------------------------------------------------------------------

@given(st.integers(min_value=100, max_value=30_000),
       st.integers(min_value=1, max_value=500),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_corpus_structure(target, vocab, seed):
    from repro.workloads import corpus as corpus_module
    from repro.workloads import generate_corpus

    with mock.patch.object(corpus_module, "VOCABULARY_SIZE", vocab):
        corpus = generate_corpus(target, seed=seed)
    assert len(corpus) >= target
    assert corpus.endswith(b"\n")
    words = set(corpus.split())
    assert 0 < len(words) <= vocab
