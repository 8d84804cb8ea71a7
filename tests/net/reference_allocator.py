"""Test oracle: the global full-recompute rate allocator ``repro.net.flows``
shipped through PR 15 as ``FlowNetwork(allocator="full")``, kept verbatim.

Every flow start, abort, completion or capacity change advances and
re-solves *every* active flow, O(F) per event — 1.1x / 1.6x / 2.8x slower
than the component-partitioned :class:`repro.net.IncrementalAllocator` at
100 / 500 / 2,000 volunteers, which is why it is no longer a product
option.  It has no components, no due-scan heap, no cancellable
timers and no end-of-instant batching — every change is solved before
``add`` / ``remove`` / ``refresh`` returns — so it is the simple statement
of what the incremental allocator must be observationally equivalent to:
same rates on the same flow set, read at any point of an instant, same
completions, same link accounting.  ``test_allocators.py``,
``test_flows.py`` and ``tests/test_scale_experiment.py`` inject an instance
through ``FlowNetwork(sim, allocator=FullAllocator())``.

It calls the production ``allocate_rates`` / ``_tally`` on purpose: the
solver has its own oracle (``reference_maxmin.py``); this one checks
*when* and *over what scope* rates are recomputed.
"""

from __future__ import annotations

import math
import typing as _t

from repro.net.flows import (
    _EPSILON_BYTES,
    Flow,
    FlowNetwork,
    Link,
    _tally,
    allocate_rates,
)
from repro.sim import PRIORITY_HIGH


class FullAllocator:
    """The original global strategy: every change reallocates every flow.

    O(all active flows) per flow event, but numerically bit-identical to
    the historical single-``_recompute`` implementation — the reference
    baseline the incremental allocator is property-tested against.
    """

    name = "full"

    def __init__(self) -> None:
        """Unbound allocator; :meth:`bind` attaches it to a network."""
        self.net: FlowNetwork | None = None
        self._version = 0
        self._last_update = 0.0
        self._used: dict[Link, float] = {}

    def bind(self, net: "FlowNetwork") -> None:
        """Attach to *net* and start the global progress clock."""
        self.net = net
        self._last_update = net.sim.now

    # -- protocol -------------------------------------------------------------
    def add(self, flow: Flow) -> None:
        """Globally re-run max-min over every active flow."""
        self._reallocate()

    def remove(self, flow: Flow) -> None:
        """Globally re-run max-min over the survivors."""
        self._reallocate()

    def advance(self, flow: Flow | None = None) -> None:
        """Account progress for every flow (scope is always global here)."""
        net = self.net
        dt = net.sim.now - self._last_update
        if dt > 0:
            for f in net._active:
                sent = min(f.remaining, f.rate * dt)
                f.remaining -= sent
                for link in f.links:
                    link.bytes_carried += sent
        self._last_update = net.sim.now

    def refresh(self) -> None:
        """Globally reallocate after a capacity change."""
        self._reallocate()

    def flush(self) -> None:
        """Nothing waits: every change above was solved at once."""

    def link_used(self, link: Link) -> float:
        """Summed allocated rate over *link* (cached sum, O(1))."""
        return self._used.get(link, 0.0)

    def flows_using(self, links: _t.Sequence[Link]) -> list[Flow]:
        """Scan all active flows for any touching *links*."""
        lset = set(links)
        return [f for f in self.net._active if not lset.isdisjoint(f.links)]

    def component_count(self) -> int:
        """One global domain (or zero when idle)."""
        return 1 if self.net._active else 0

    # -- internals ------------------------------------------------------------
    def _reallocate(self) -> None:
        """Advance progress, refill every rate, schedule the next completion."""
        net = self.net
        self.advance()
        flows = list(net._active)
        allocate_rates(flows)
        self._used = {link: 0.0 for f in flows for link in f.links}
        self._version += 1
        next_eta, _ = _tally(flows, self._used)
        if math.isfinite(next_eta):
            # PRIORITY_HIGH so completion processing at time T runs before
            # ordinary model callbacks at T observe a stale flow set.
            net.sim.schedule(next_eta, self._on_timer, self._version,
                             priority=PRIORITY_HIGH)

    def _on_timer(self, version: int) -> None:
        if version != self._version:
            return  # superseded by a later reallocation
        net = self.net
        self.advance()
        finished = [f for f in net._active if f.remaining <= _EPSILON_BYTES]
        if finished:
            net._finish(finished)
        self._reallocate()
