"""Volunteer availability and churn modelling.

The paper ran on a dedicated testbed ("we did not consider node failure in
our tests") but the whole point of BOINC-MR is the *unreliable* volunteer
environment, and its fallback mechanisms exist because of churn.  This
module provides the standard two-state availability model used in desktop
grid studies: alternating exponentially distributed ON/OFF periods per
host, plus a permanent-departure hazard.

:class:`ChurnController` drives clients through such ON/OFF periods,
whichever source they come from — this model, drawn lazily, or a recorded
:class:`~repro.volunteers.traces.AvailabilityTrace` — by calling
:meth:`Client.go_offline` and :meth:`Client.come_online`; the server
recovers lost work via deadline timeouts and replica creation.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..boinc.client import Client
from ..sim import RandomStream, Simulator, Tracer


@dataclasses.dataclass(frozen=True, slots=True)
class AvailabilityModel:
    """Two-state ON/OFF availability with optional permanent departure."""

    mean_on_s: float = 4 * 3600.0
    mean_off_s: float = 1 * 3600.0
    #: Probability that an OFF transition is permanent (user uninstalls).
    departure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError("mean durations must be positive")
        if not 0.0 <= self.departure_prob <= 1.0:
            raise ValueError("departure_prob must be in [0, 1]")

    def draw_on(self, rng: RandomStream) -> float:
        """Sample the next ON-period length."""
        return rng.exponential(self.mean_on_s)

    def draw_off(self, rng: RandomStream) -> float:
        """Sample the next OFF-period length."""
        return rng.exponential(self.mean_off_s)

    def periods(self, rng: RandomStream) -> _t.Iterator[float]:
        """Alternating ON, OFF, ON, ... lengths, each drawn from *rng* only
        when asked for (so hosts sharing one stream interleave their draws
        by simulated time); a departure ends the sequence after an ON."""
        while True:
            yield self.draw_on(rng)
            if rng.random() < self.departure_prob:
                return
            yield self.draw_off(rng)


class ChurnController:
    """Takes clients offline and back as their ON/OFF periods elapse.

    Going offline is *abrupt* (:meth:`Client.go_offline`): running tasks
    fail, in-flight transfers are aborted, and peers serving from this host
    lose their source — exactly the failure surface the paper's
    retry/fallback design targets.  A host coming back re-registers
    nothing; its client simply resumes the pull loop.
    """

    def __init__(self, sim: Simulator, tracer: Tracer) -> None:
        """A controller on *sim*; transitions are recorded on *tracer*."""
        self.sim = sim
        self.tracer = tracer
        #: Hosts whose periods ran out while online: they never return.
        self.departed: set[str] = set()
        self.transitions = 0

    def manage(self, client: Client, periods: _t.Iterator[float]) -> None:
        """Drive *client*, online now, through *periods*: alternating ON
        and OFF lengths in seconds, ON first (``model.periods(rng)`` or
        ``trace.periods()``).  A host whose periods end with an ON length
        goes offline after it for good."""
        self.sim.process(self._lifecycle(client, periods),
                         name=f"churn:{client.name}")

    def _lifecycle(self, client: Client,
                   periods: _t.Iterator[float]) -> _t.Generator:
        for on_s in periods:
            yield on_s
            off_s = next(periods, None)
            self.transitions += 1
            self.tracer.record(self.sim.now, "churn.offline",
                               host=client.name, permanent=off_s is None)
            client.go_offline()
            if off_s is None:
                self.departed.add(client.name)
                return
            yield off_s
            self.transitions += 1
            self.tracer.record(self.sim.now, "churn.online",
                               host=client.name)
            client.come_online()
