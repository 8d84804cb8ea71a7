"""Unit tests for NAT modelling and the traversal ladder."""

import pytest

from repro.net import (
    PUBLIC,
    ConnectivityPolicy,
    NatBox,
    NatType,
    TraversalConfig,
    TraversalMethod,
    sample_nat_population,
)
from repro.sim import RngRegistry


def policy(seed=0, **cfg):
    made = ConnectivityPolicy(rng=RngRegistry(seed).stream("nat"))
    made.config = TraversalConfig(**cfg)
    return made


SYM = NatBox(nat_type=NatType.SYMMETRIC)
CONE = NatBox(nat_type=NatType.FULL_CONE)
PORT = NatBox(nat_type=NatType.PORT_RESTRICTED)


class TestNatBox:
    def test_public_accepts_inbound(self):
        assert PUBLIC.accepts_inbound()

    def test_default_natbox_blocks_inbound(self):
        assert not NatBox(nat_type=NatType.FULL_CONE).accepts_inbound()

    def test_firewall_blocks_inbound(self):
        assert not NatBox(nat_type=NatType.FIREWALL).accepts_inbound()


class TestLadder:
    def test_direct_when_server_public(self):
        out = policy().establish(client_nat=SYM, server_nat=PUBLIC)
        assert out.ok and out.method is TraversalMethod.DIRECT
        assert not out.relayed

    def test_reversal_when_client_public_server_natted(self):
        out = policy().establish(client_nat=PUBLIC, server_nat=CONE)
        assert out.method is TraversalMethod.REVERSAL

    def test_hole_punch_between_cone_nats(self):
        # cone-cone punch success is 0.85 by default; with many seeds it
        # should essentially always pick HOLE_PUNCH at least once.
        methods = {policy(seed=s).establish(CONE, CONE).method for s in range(30)}
        assert TraversalMethod.HOLE_PUNCH in methods

    def test_symmetric_pair_falls_to_relay(self):
        out = policy(seed=1).establish(SYM, SYM)
        assert out.method is TraversalMethod.RELAY
        assert out.relayed

    def test_relay_disabled_can_fail(self):
        p = policy(seed=1, enable_relay=False, enable_hole_punch=False,
                   enable_reversal=False)
        out = p.establish(SYM, SYM)
        assert not out.ok and out.method is None

    def test_setup_delay_accumulates_down_ladder(self):
        p = policy(seed=1)
        direct = p.establish(SYM, PUBLIC)
        relay = p.establish(SYM, SYM)
        assert relay.setup_delay > direct.setup_delay

    def test_none_nat_treated_as_public(self):
        out = policy().establish(None, None)
        assert out.method is TraversalMethod.DIRECT

    def test_method_counts(self):
        p = policy()
        p.establish(SYM, PUBLIC)
        p.establish(SYM, PUBLIC)
        p.establish(SYM, SYM)
        counts = p.method_counts()
        assert counts["direct"] == 2
        assert counts["relay"] == 1

    def test_deterministic_under_seed(self):
        a = [policy(seed=7).establish(PORT, PORT).method for _ in range(1)]
        b = [policy(seed=7).establish(PORT, PORT).method for _ in range(1)]
        assert a == b


class TestPopulation:
    def test_default_population_size_and_mix(self):
        rng = RngRegistry(0).stream("nats")
        pop = sample_nat_population(rng, 1000)
        assert len(pop) == 1000
        public = sum(1 for b in pop if b.accepts_inbound())
        assert 130 < public < 270  # ~20% public

    def test_custom_mix(self):
        rng = RngRegistry(0).stream("nats")
        pop = sample_nat_population(rng, 50, mix={NatType.SYMMETRIC: 1.0})
        assert all(b.nat_type is NatType.SYMMETRIC for b in pop)

    def test_mix_must_sum_to_one(self):
        rng = RngRegistry(0).stream("nats")
        with pytest.raises(ValueError):
            sample_nat_population(rng, 10, mix={NatType.NONE: 0.4})

    def test_negative_probability_rejected(self):
        rng = RngRegistry(0).stream("nats")
        with pytest.raises(ValueError):
            sample_nat_population(
                rng, 10, mix={NatType.NONE: 1.5, NatType.SYMMETRIC: -0.5})

    def test_deterministic(self):
        a = sample_nat_population(RngRegistry(3).stream("nats"), 20)
        b = sample_nat_population(RngRegistry(3).stream("nats"), 20)
        assert [x.nat_type for x in a] == [x.nat_type for x in b]
