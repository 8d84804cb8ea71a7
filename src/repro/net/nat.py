"""NAT / firewall modelling and the traversal ladder of Section III.D.

The paper's prototype did **not** solve NAT traversal; its future-work
section sketches a tiered strategy — direct connection, connection
reversal, STUN-style hole punching, and finally a TURN-style relay — the
same ladder Skype-era P2P systems used.  This module implements that ladder
as a connectivity model so the benchmarks can quantify how each rung
changes inter-client MapReduce transfer behaviour.

NAT behaviour follows the classical RFC 3489 taxonomy.  Hole-punching
success probabilities per NAT-type pair default to the measured values
reported by Ford, Srisuresh & Kegel (USENIX ATC '05) for TCP, and can be
overridden for sensitivity studies.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing as _t

from ..sim import RandomStream


class NatType(enum.Enum):
    """RFC 3489-style NAT classes (plus NONE for publicly reachable hosts)."""

    NONE = "none"
    FULL_CONE = "full_cone"
    RESTRICTED = "restricted"
    PORT_RESTRICTED = "port_restricted"
    SYMMETRIC = "symmetric"
    #: Inbound-blocking firewall with no NAT (common on campus networks).
    FIREWALL = "firewall"


class TraversalMethod(enum.Enum):
    """The rungs of the traversal ladder, cheapest first."""

    DIRECT = "direct"
    REVERSAL = "reversal"
    HOLE_PUNCH = "hole_punch"
    RELAY = "relay"


@dataclasses.dataclass(frozen=True, slots=True)
class NatBox:
    """NAT/firewall in front of a host."""

    nat_type: NatType = NatType.NONE
    #: Whether the box also drops unsolicited inbound (most consumer NATs do).
    blocks_inbound: bool = True

    def accepts_inbound(self) -> bool:
        """Can an unsolicited inbound connection reach the host directly?"""
        return self.nat_type is NatType.NONE and not self.blocks_inbound


PUBLIC = NatBox(nat_type=NatType.NONE, blocks_inbound=False)


#: TCP hole-punch success probability for (initiator NAT, responder NAT).
#: Symmetric NATs defeat punching because the external port is
#: per-destination; everything else mostly works (Ford et al. report ~64%
#: average for TCP, dominated by symmetric/port-restricted combinations).
DEFAULT_PUNCH_SUCCESS: dict[tuple[NatType, NatType], float] = {}


def _fill_default_punch_matrix() -> None:
    easy = {NatType.NONE, NatType.FULL_CONE, NatType.FIREWALL}
    mid = {NatType.RESTRICTED, NatType.PORT_RESTRICTED}
    for a in NatType:
        for b in NatType:
            if a in easy and b in easy:
                p = 0.95
            elif NatType.SYMMETRIC in (a, b):
                p = 0.05 if (a in easy or b in easy) else 0.0
            elif a in mid and b in mid:
                p = 0.75
            else:
                p = 0.85
            DEFAULT_PUNCH_SUCCESS[(a, b)] = p


_fill_default_punch_matrix()


@dataclasses.dataclass(frozen=True, slots=True)
class TraversalOutcome:
    """Result of attempting to reach a serving peer."""

    ok: bool
    method: TraversalMethod | None
    #: Connection-setup delay in seconds (on top of transfer time).
    setup_delay: float
    #: True when the payload must be relayed through a third party.
    relayed: bool = False


@dataclasses.dataclass(slots=True)
class TraversalConfig:
    """Which rungs of the ladder are available."""

    enable_reversal: bool = True
    enable_hole_punch: bool = True
    enable_relay: bool = True


#: Extra rendezvous round-trips charged for the direct rung, and per later
#: rung attempted.
DIRECT_SETUP_S = 0.1
REVERSAL_SETUP_S = 1.0
HOLE_PUNCH_SETUP_S = 3.0
RELAY_SETUP_S = 2.0


class ConnectivityPolicy:
    """Decides whether and how *client* can download from *server* peer.

    ``server`` here is the peer holding the data (a mapper serving its map
    outputs); ``client`` is the peer initiating the download (a reducer).
    """

    def __init__(self, rng: RandomStream) -> None:
        """Traversal policy with its own rng for probabilistic outcomes,
        every rung of the ladder on (assign :attr:`config` to change)."""
        self.config = TraversalConfig()
        self.rng = rng
        #: Establishments per method value (``"failed"`` when none worked).
        self._methods: collections.Counter[str] = collections.Counter()

    def establish(self, client_nat: NatBox | None,
                  server_nat: NatBox | None) -> TraversalOutcome:
        """Walk the ladder; returns the first rung that succeeds."""
        c = client_nat or PUBLIC
        s = server_nat or PUBLIC
        outcome = self._try_ladder(c, s)
        self._methods[outcome.method.value if outcome.method else "failed"] += 1
        return outcome

    def _try_ladder(self, c: NatBox, s: NatBox) -> TraversalOutcome:
        cfg = self.config
        # Rung 1: direct — server must accept unsolicited inbound.
        cumulative = DIRECT_SETUP_S
        if s.accepts_inbound():
            return TraversalOutcome(True, TraversalMethod.DIRECT, cumulative)
        # Rung 2: connection reversal — works when the *client* is publicly
        # reachable: the NATed server connects out to it (rendezvous via the
        # project server tells it to).
        if cfg.enable_reversal:
            cumulative += REVERSAL_SETUP_S
            if c.accepts_inbound():
                return TraversalOutcome(True, TraversalMethod.REVERSAL, cumulative)
        # Rung 3: simultaneous-open hole punching, probabilistic by NAT pair.
        if cfg.enable_hole_punch:
            cumulative += HOLE_PUNCH_SETUP_S
            p = DEFAULT_PUNCH_SUCCESS.get((c.nat_type, s.nat_type), 0.0)
            if self.rng.random() < p:
                return TraversalOutcome(True, TraversalMethod.HOLE_PUNCH, cumulative)
        # Rung 4: TURN-style relay — always works if enabled, but the payload
        # transits the relay (the caller must route bytes accordingly).
        if cfg.enable_relay:
            cumulative += RELAY_SETUP_S
            return TraversalOutcome(True, TraversalMethod.RELAY, cumulative,
                                    relayed=True)
        return TraversalOutcome(False, None, cumulative)

    def method_counts(self) -> dict[str, int]:
        """How many establishments used each method (plus failures)."""
        return dict(self._methods)


def sample_nat_population(rng: RandomStream, n: int,
                          mix: _t.Mapping[NatType, float] | None = None
                          ) -> list[NatBox]:
    """Draw *n* NAT boxes from a population *mix* (probabilities sum to 1).

    The default mix approximates 2011 volunteer populations: ~20% public,
    the rest behind consumer NATs with symmetric NATs a small minority.
    """
    if mix is None:
        mix = {
            NatType.NONE: 0.20,
            NatType.FULL_CONE: 0.15,
            NatType.RESTRICTED: 0.20,
            NatType.PORT_RESTRICTED: 0.30,
            NatType.SYMMETRIC: 0.10,
            NatType.FIREWALL: 0.05,
        }
    types = list(mix.keys())
    probs = [float(mix[t]) for t in types]
    if min(probs) < 0:
        raise ValueError("mix probabilities must be non-negative")
    total = 0.0
    for p in probs:
        total += p
    # numpy.isclose(total, 1.0)'s default tolerances: atol 1e-8, rtol 1e-5.
    if not abs(total - 1.0) <= 1e-8 + 1e-5:
        raise ValueError(f"mix probabilities must sum to 1, got {total}")
    draws = rng.choice(len(types), size=n, p=[p / total for p in probs])
    out = []
    for i in draws:
        t = types[int(i)]
        out.append(PUBLIC if t is NatType.NONE else NatBox(nat_type=t))
    return out
