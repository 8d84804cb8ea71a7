"""Additional property-based tests: overlay balance, peer-store
invariants, corpus structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc.model import FileRef
from repro.core import PeerStore
from repro.net import EMULAB_LINK, NatBox, NatType, Network, SupernodeOverlay
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# Supernode overlay invariants
# ---------------------------------------------------------------------------

population = st.lists(st.booleans(), min_size=2, max_size=25).filter(any)


@given(population, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=50)
def test_overlay_attachment_invariants(public_flags, n_supernodes, fanout):
    net = Network(Simulator())
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
    counts = overlay.attachment_counts().values()
    assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# Peer store invariants under arbitrary operation sequences
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["serve", "get", "renew", "stop", "advance"]),
              st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=200.0)),
    max_size=60,
)


@given(ops)
@settings(max_examples=60)
def test_peer_store_never_serves_expired(operations):
    sim = Simulator()
    store = PeerStore(sim, serve_timeout_s=100.0)
    served_at: dict[str, float] = {}
    for op, idx, amount in operations:
        name = f"f{idx}"
        if op == "serve":
            store.serve(FileRef(name, 1.0), job="j")
            served_at[name] = sim.now
        elif op == "get":
            try:
                store.get(name)
                # Success implies within the window of its last serve/renew.
                assert store.available(name)
            except KeyError:
                assert not store.available(name)
        elif op == "renew":
            renewed = store.renew(name)
            assert renewed == (name in store._files)
            if renewed:
                served_at[name] = sim.now
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
    from repro.workloads import generate_corpus

    corpus = generate_corpus(target, vocabulary_size=vocab, seed=seed)
    assert len(corpus) >= target
    assert corpus.endswith(b"\n")
    words = set(corpus.split())
    assert 0 < len(words) <= vocab
