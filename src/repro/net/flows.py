"""Flow-level network model with max–min fair bandwidth sharing.

Instead of simulating packets, each transfer is a *flow* with a remaining
byte count.  All active flows share the directional capacity of the links
they traverse (a flow from A to B uses A's uplink and B's downlink, plus any
extra shared links such as a project data-server trunk).  Rates are the
classic max–min fair allocation computed by progressive filling, with
optional per-flow rate caps (to model TCP throughput ceilings).

Whenever the flow set changes, progress is advanced, the stale completion
timer is retracted (cancelled, or skipped via version counters) and the
rates are marked for a re-solve, so the model stays correct under
arbitrary churn.  The solve itself waits for the end of the simulated
instant (:meth:`repro.sim.Simulator.at_instant_end`): a wave of k
downloads that start together through one server link costs one solve of
k flows, not k solves of up to k.  Reads never see the wait —
:attr:`Flow.rate`, :meth:`Flow.eta` and :meth:`FlowNetwork.utilisation`
settle pending changes first and return what an immediate solve would.

*Background* flows (the TCP-Nice model from the paper's Section III.D) only
receive capacity left over after all foreground flows are allocated — a
two-pass allocation that captures Nice's "only use spare bandwidth"
behaviour at the flow level.

One solver serves every allocation: :func:`maxmin_rates` keeps a single
scalar fill level (all unfrozen flows rise together), visits only links
that still carry an unfrozen flow and only flows that have a cap, and finds
the flows on a saturated link through a link → flows index.  Solving F
flows costs O(rounds·(live links + capped flows) + F); there is one round
per distinct bottleneck level, so hundreds of transfers squeezed through
one server link settle in a round or two.  Its floats are bit-identical to
the textbook per-flow formulation kept as the test oracle in
``tests/net/reference_maxmin.py``; traces depend on that.

Rate allocation is incremental (:class:`IncrementalAllocator`): the active
flows are partitioned into link-connected components and only the component
touched by a change is reallocated, at most once per instant.  Untouched
components keep their cached rates and completion timers (per-component
version counters + cancellable timers), which is what lets the simulator
scale to thousands of volunteers.
A component keeps its link → flows index, its per-link traversal counts and
its members in start order up to date as flows join and leave, so a solve
neither recounts nor sorts.  A removal walks the component for a split only
when the removed flows leave two or more of their links populated, and the
walk reads each link's member list once.  A link's used rate, which only
:meth:`FlowNetwork.utilisation` reads, is summed on read.  The global
algorithm it replaced (every flow change re-solves every active flow, at
once) is kept as the test oracle in
``tests/net/reference_allocator.py``; :class:`FlowNetwork` accepts an
allocator *instance* so the equivalence tests can inject it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import typing as _t

from ..sim import PRIORITY_HIGH, Event, Simulator, TimerHandle, Tracer

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry

#: Flows with fewer remaining bytes than this are considered complete
#: (coarser than float error accumulated across rate recomputations, finer
#: than the 1-byte granularity of real transfers).
_EPSILON_BYTES = 1e-3


class Link:
    """One direction of a network link with a fixed capacity in bytes/s."""

    __slots__ = ("name", "capacity", "bytes_carried")

    def __init__(self, name: str, capacity_bps: float) -> None:
        """A shared link with *capacity_bps* bytes/s of capacity."""
        if capacity_bps <= 0:
            raise ValueError(f"link {name!r} capacity must be positive")
        self.name = name
        #: Capacity in *bytes* per second.
        self.capacity = capacity_bps / 8.0
        #: Total bytes this link has carried (all flows, all time).
        self.bytes_carried = 0.0


class FlowError(RuntimeError):
    """A flow was aborted; carried by the flow's ``done`` event on failure."""


class Flow:
    """An active bulk transfer.

    Attributes
    ----------
    done:
        Event fired with the flow on completion, or failed with
        :class:`FlowError` when aborted.
    rate:
        Current allocated rate in bytes/s (see the property).
    """

    __slots__ = (
        "name", "links", "size", "remaining", "_rate", "max_rate",
        "background", "done", "started_at", "finished_at", "aborted",
        "corrupted", "seq", "_alloc",
    )

    def __init__(self, sim: Simulator, name: str, links: _t.Sequence[Link],
                 size: float, max_rate: float | None, background: bool) -> None:
        """A transfer of *size* bytes over *links* (internal; see start_flow)."""
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if not links:
            raise ValueError("a flow must traverse at least one link")
        if max_rate is not None and max_rate <= 0:
            raise ValueError("max_rate must be positive when given")
        self.name = name
        self.links = tuple(links)
        self.size = float(size)
        self.remaining = float(size)
        self._rate = 0.0
        self.max_rate = max_rate
        self.background = background
        self.done: Event = sim.event(name=f"flow:{name}")
        self.started_at = sim.now
        self.finished_at: float | None = None
        self.aborted = False
        #: Fault injection: the payload arrives corrupt; the receiver's
        #: checksum validation must reject it and re-download.
        self.corrupted = False
        #: Global start order, assigned by FlowNetwork — the deterministic
        #: tie-breaker allocators use wherever ordering matters.
        self.seq = -1
        #: The allocator that owns the rate, set by FlowNetwork (None for
        #: a flow built outside a network).
        self._alloc: IncrementalAllocator | None = None

    @property
    def rate(self) -> float:
        """Allocated rate in bytes/s, exact at any point of an instant.

        The owning allocator solves a changed component at the end of the
        instant; reading the rate settles pending changes first, so it
        returns what an immediate solve would.
        """
        if self._alloc is not None:
            self._alloc.flush()
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        """Assign the rate, as a solver run outside an allocator does."""
        self._rate = value

    @property
    def finished(self) -> bool:
        """True once the last byte has been accounted."""
        return self.done.triggered

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf if stalled)."""
        if self.remaining <= _EPSILON_BYTES:
            return 0.0
        rate = self.rate
        if rate <= 0:
            return math.inf
        return self.remaining / rate


_by_seq = operator.attrgetter("seq")


def maxmin_rates(flows: _t.Collection[Flow],
                 capacity: _t.Mapping[Link, float] | None = None,
                 adj: _t.Mapping[Link, _t.Iterable[Flow]] | None = None,
                 load: _t.Mapping[Link, int] | None = None,
                 ) -> dict[Flow, float]:
    """Max–min fair rates for *flows* via progressive filling (water-filling).

    Respects per-flow ``max_rate`` caps.  Links are discovered from the
    flows themselves; *capacity*, when given, overrides ``Link.capacity``
    for every link *flows* traverse (the background pass hands in the
    residual left by the foreground).  *adj*, when given, is a ready
    link → flows index over exactly *flows* (a component's adjacency), and
    *load*, when given with it, the number of times *flows* traverse each
    link (a link listed twice counts twice); each saves building one.
    Neither is modified.  Returns rates in bytes/s, keyed in *flows* order.

    All unfrozen flows rise in lockstep, so the fill is one scalar
    ``level`` that a flow takes as its rate in the round it freezes.  A
    round costs O(live links + capped flows + flows it freezes), one call
    O(rounds·(live links + capped flows) + F) — and every float is produced
    by the same operations, in the same order, as the per-flow
    ``rate[f] += increment`` formulation (kept as the test oracle in
    ``tests/net/reference_maxmin.py``), so results are bit-identical to it.
    """
    if not flows:
        return {}
    rate: dict[Flow, _t.Any] = dict.fromkeys(flows)  # None while unfrozen
    #: Unfrozen flow *traversals* per link (a link listed twice counts twice).
    active: dict[Link, int] = {}
    if adj is None:
        index: dict[Link, list[Flow]] = {}
        for f in flows:
            for link in f.links:
                members = index.get(link)
                if members is None:
                    index[link] = [f]
                else:
                    members.append(f)
        active = {link: len(members) for link, members in index.items()}
        adj = index
    elif load is not None:
        active = dict(load)
    else:
        for f in flows:
            for link in f.links:
                active[link] = active.get(link, 0) + 1
    if capacity is None:
        headroom = {link: link.capacity for link in active}
    else:
        headroom = {link: capacity[link] for link in active}
    #: Saturation thresholds, from the same capacities the headroom starts at.
    floor = {link: room * 1e-9 for link, room in headroom.items()}
    live = list(active)
    capped = [f for f in flows if f.max_rate is not None]
    unfrozen = len(rate)
    level = 0.0

    # Progressive filling: raise the level until a link saturates or a flow
    # hits its cap; freeze those flows at the level and repeat.
    for _ in range(2 * len(flows) + 2):  # each round freezes >= 1 flow
        if not unfrozen:
            break
        increment = math.inf
        for link in live:
            share = headroom[link] / active[link]
            if share < increment:
                increment = share
        if capped:
            capped = [f for f in capped if rate[f] is None]
            for f in capped:
                gap = f.max_rate - level
                if gap < increment:
                    increment = gap
        if increment < 0:
            increment = 0.0
        level += increment
        newly_frozen: list[Flow] = []
        for f in capped:
            if level >= f.max_rate * (1 - 1e-9):
                rate[f] = level
                newly_frozen.append(f)
        for link in live:
            room = headroom[link] - increment * active[link]
            headroom[link] = room
            if room <= floor[link]:
                for f in adj[link]:
                    if rate[f] is None:
                        rate[f] = level
                        newly_frozen.append(f)
        if not newly_frozen:
            # Nothing binding (all caps/links satisfied) — allocation final.
            break
        unfrozen -= len(newly_frozen)
        if not unfrozen:
            break  # nobody left to share with: skip the link bookkeeping
        for f in newly_frozen:
            for link in f.links:
                active[link] -= 1
        live = [link for link in live if active[link] > 0]
    if unfrozen:
        for f, r in rate.items():
            if r is None:
                rate[f] = level
    return rate


def _fill_background(foreground: list[Flow], background: list[Flow]) -> None:
    """Nice-style second pass: background flows share leftover capacity."""
    residual: dict[Link, float] = {}
    for f in background:
        for link in f.links:
            residual.setdefault(link, link.capacity)
    for f in foreground:
        for link in f.links:
            if link in residual:
                residual[link] -= f._rate
    # Progressive filling over the residual, floored so a fully used link
    # still divides; the links themselves are never touched.
    rates = maxmin_rates(background, {link: max(room, 1e-9)
                                      for link, room in residual.items()})
    for f, r in rates.items():
        # A starved background flow gets a vanishing sliver from the
        # capacity floor above; treat it as fully stalled.
        f._rate = r if r > 1e-6 else 0.0


def allocate_rates(flows: _t.Collection[Flow],
                   adj: _t.Mapping[Link, _t.Iterable[Flow]] | None = None,
                   load: _t.Mapping[Link, int] | None = None,
                   ) -> None:
    """Two-pass (foreground max–min, then background residual) allocation.

    Sets each flow's rate in place.  Progressive filling is numerically
    order-independent, so allocating a flow set component by component or
    all at once (the test oracle) produces identical rates.  *adj* and
    *load* are an optional link → flows index and link → traversal count
    over exactly *flows*; they serve the foreground pass when there is no
    background flow to split off.
    """
    background = [f for f in flows if f.background]
    if not background:
        for f, r in maxmin_rates(flows, adj=adj, load=load).items():
            f._rate = r
        return
    foreground = [f for f in flows if not f.background]
    rates = maxmin_rates(foreground)
    for f, r in rates.items():
        f._rate = r
    _fill_background(foreground, background)


class _Component:
    """A link-connected island of active flows (incremental allocator)."""

    __slots__ = ("flows", "adj", "load", "seq", "version", "last_update",
                 "next_at", "next_rate", "timer", "due_now")

    def __init__(self, now: float, seq: int) -> None:
        """An empty component created at sim time *now* (internal)."""
        #: Member flows in start order (dict-as-ordered-set).
        self.flows: dict[Flow, None] = {}
        #: Link -> member flows over it, in start order, maintained
        #: incrementally on every add/detach so splits never rebuild
        #: adjacency from scratch.  The key set is exactly the links member
        #: flows touch.
        self.adj: dict[Link, dict[Flow, None]] = {}
        #: Link -> member traversals of it (a link listed twice counts
        #: twice); same key set as :attr:`adj`.
        self.load: dict[Link, int] = {}
        #: Creation order — the deterministic tie-breaker that keeps the
        #: indexed due-scan processing components in the same order the
        #: historical ``_comps`` iteration did.
        self.seq = seq
        #: Bumped on every (re)allocation; retracts stale timers.
        self.version = 0
        #: Sim time progress was last accounted for this component.
        self.last_update = now
        #: Absolute time of the scheduled completion check (None if idle).
        self.next_at: float | None = None
        #: Rate of the earliest-finishing flow at the last allocation.
        self.next_rate = 0.0
        self.timer: TimerHandle | None = None
        #: A member was within the completion epsilon when progress was
        #: last accounted: its completion is due this very instant, so a
        #: change is solved at once rather than at the instant's end
        #: (conservative — it may outlive that flow, never the reverse).
        self.due_now = False


def _link_components(flows: _t.Iterable[Flow],
                     adj: _t.Mapping[Link, _t.Iterable[Flow]],
                     ) -> list[list[Flow]]:
    """Partition *flows* into link-connected groups, each in start order."""
    seen: set[Flow] = set()
    walked: set[Link] = set()  # each link's member list is read once
    groups: list[list[Flow]] = []
    for f in flows:
        if f in seen:
            continue
        seen.add(f)
        group = [f]
        stack = [f]
        while stack:
            cur = stack.pop()
            for link in cur.links:
                if link in walked:
                    continue
                walked.add(link)
                for other in adj[link]:
                    if other not in seen:
                        seen.add(other)
                        group.append(other)
                        stack.append(other)
        group.sort(key=_by_seq)
        groups.append(group)
    return groups


class IncrementalAllocator:
    """Component-partitioned allocation: reallocate only what a change touches.

    Active flows are grouped into link-connected components.  Starting a
    flow merges the components its links touch; an abort or completion
    splits its component if removal disconnected it.  Each component keeps
    its own progress clock, version counter, and cancellable completion
    timer, so churn in one part of the network never reschedules — or even
    inspects — flows elsewhere.  Per-event cost is O(component), not O(F).

    A change only marks its component; :meth:`flush` solves every marked
    component, in the order they were marked, once the simulated instant
    has nothing left to dispatch, or earlier when a rate is read.  So a
    component is solved at most once per instant however many flows join
    or leave it, with the same floats, timers and completions as solving
    after every change.  The one exception is a component holding a flow
    already within the completion epsilon: its completion is due now, and
    it is solved at once, as it always was.

    The :class:`FlowNetwork` keeps flow lifecycle bookkeeping (tracing,
    metrics, ``done`` events) and calls :meth:`bind` once, :meth:`add` /
    :meth:`remove` as flows start and die, :meth:`advance` before it
    mutates a flow so progress at the old rates is not lost,
    :meth:`refresh` after external link-capacity changes and
    :meth:`flush` before it reads a rate sum.
    """

    def __init__(self) -> None:
        """Unbound allocator with no components yet."""
        self.net: FlowNetwork | None = None
        self._comps: dict[_Component, None] = {}
        self._flow_comp: dict[Flow, _Component] = {}
        self._link_comp: dict[Link, _Component] = {}
        self._comp_seq = itertools.count()
        #: Components changed since the last flush, in the order marked.
        self._dirty: dict[_Component, None] = {}
        #: A flush is registered for the end of the current instant.
        self._armed = False
        #: Due-scan index: min-heap of ``(key, comp.seq, comp, version)``
        #: where *key* conservatively under-estimates the earliest sim time
        #: the component could pass the completion-epsilon test.  Replaces
        #: the historical O(components) linear scan on every timer fire;
        #: entries are invalidated lazily via the version counter.
        self._due: list[tuple[float, int, _Component, int]] = []

    def bind(self, net: "FlowNetwork") -> None:
        """Attach to *net*."""
        self.net = net

    # -- called by FlowNetwork ------------------------------------------------
    def add(self, flow: Flow) -> None:
        """Merge the components *flow*'s links touch, then resettle one."""
        now = self.net.sim.now
        comp: _Component | None = None
        for link in flow.links:
            c = self._link_comp.get(link)
            if c is None or c is comp:
                continue
            if comp is None:
                comp = c
                self._advance_comp(comp, now)
            else:
                self._advance_comp(c, now)
                self._merge(comp, c)
        if comp is None:
            comp = _Component(now, next(self._comp_seq))
            self._comps[comp] = None
        comp.flows[flow] = None  # the newest flow: start order holds
        self._flow_comp[flow] = comp
        load = comp.load
        for link in flow.links:
            comp.adj.setdefault(link, {})[flow] = None
            load[link] = load.get(link, 0) + 1
            self._link_comp[link] = comp
        self._settle(comp)

    def remove(self, flow: Flow) -> None:
        """Drop *flow* and split its component if it disconnected."""
        comp = self._flow_comp[flow]
        self._detach(comp, flow)
        self._resettle(comp, (flow,))

    def advance(self, flow: Flow | None = None) -> None:
        """Account progress for *flow*'s component only (or all)."""
        now = self.net.sim.now
        if flow is None:
            for comp in self._comps:
                self._advance_comp(comp, now)
        else:
            self._advance_comp(self._flow_comp[flow], now)

    def refresh(self) -> None:
        """Refill every component; membership is capacity-invariant."""
        # Capacity changes alter rates, never the link→flow structure, so
        # component membership is preserved; every component refills.
        for comp in list(self._comps):
            self._advance_comp(comp, self.net.sim.now)
            self._settle(comp)

    def flush(self) -> None:
        """Solve every component changed since the last flush, oldest first."""
        dirty = self._dirty
        if dirty:
            self._dirty = {}
            for comp in dirty:
                self._solve(comp)

    def link_used(self, link: Link) -> float:
        """Summed allocated rate over *link*, summed on read.

        The link's members are summed in start order, a member listing the
        link twice twice, so the float is the one a per-solve tally made.
        """
        comp = self._link_comp.get(link)
        if comp is None:
            return 0.0
        used = 0.0
        for f in comp.adj[link]:
            for other in f.links:
                if other is link:
                    used += f._rate
        return used

    def flows_using(self, links: _t.Sequence[Link]) -> list[Flow]:
        """Collect flows from only the components touching *links*."""
        lset = set(links)
        out: list[Flow] = []
        seen: set[int] = set()
        for link in links:
            comp = self._link_comp.get(link)
            if comp is None or id(comp) in seen:
                continue
            seen.add(id(comp))
            out.extend(f for f in comp.flows if not lset.isdisjoint(f.links))
        out.sort(key=_by_seq)
        return out

    def component_count(self) -> int:
        """Live link-connected components."""
        return len(self._comps)

    # -- internals ------------------------------------------------------------
    def _advance_comp(self, comp: _Component, now: float) -> None:
        dt = now - comp.last_update
        if dt > 0:
            due_now = False
            for f in comp.flows:
                sent = f._rate * dt
                if sent > f.remaining:
                    sent = f.remaining
                f.remaining -= sent
                for link in f.links:
                    link.bytes_carried += sent
                if f.remaining <= _EPSILON_BYTES:
                    due_now = True
            comp.due_now = due_now
        comp.last_update = now

    def _detach(self, comp: _Component, flow: Flow) -> None:
        """Unlink *flow* from *comp*'s membership and adjacency indexes.

        Links that lose their last traversal are evicted from the
        component's adjacency and load and from the global link index
        eagerly, so :meth:`_resettle` never sees stale links and never
        rebuilds the adjacency map from scratch.
        """
        del comp.flows[flow]
        del self._flow_comp[flow]
        load = comp.load
        for link in flow.links:
            left = load[link] - 1
            if left:
                load[link] = left
                comp.adj[link].pop(flow, None)
            else:
                del load[link]
                del comp.adj[link]
                if self._link_comp.get(link) is comp:
                    del self._link_comp[link]

    def _merge(self, dst: _Component, src: _Component) -> None:
        """Absorb *src* into *dst* (both already advanced to now)."""
        if src.timer is not None:
            src.timer.cancel()
            src.timer = None
        src.version += 1
        self._dirty.pop(src, None)
        dst.due_now = dst.due_now or src.due_now
        for f in src.flows:
            self._flow_comp[f] = dst
        # Two start-ordered runs: timsort merges them in one pass.
        dst.flows = dict.fromkeys(sorted([*dst.flows, *src.flows],
                                         key=_by_seq))
        # Components share no link, so src's entries are new to dst.
        dst.adj.update(src.adj)
        dst.load.update(src.load)
        for link in src.adj:
            if self._link_comp.get(link) is src:
                self._link_comp[link] = dst
        del self._comps[src]

    def _dissolve(self, comp: _Component) -> None:
        """Drop an empty (or about-to-be-split) component and its index entries."""
        if comp.timer is not None:
            comp.timer.cancel()
            comp.timer = None
        comp.version += 1
        self._dirty.pop(comp, None)
        for link in comp.adj:
            if self._link_comp.get(link) is comp:
                del self._link_comp[link]
        self._comps.pop(comp, None)

    def _settle(self, comp: _Component) -> None:
        """Retract *comp*'s completion timer and mark it for :meth:`flush`.

        Timer hygiene lives here: the previous timer is cancelled (O(1))
        rather than left to fire as a stale no-op, so unaffected components
        elsewhere never accumulate superseded queue entries.  The first
        mark of an instant registers the flush for the instant's end.
        """
        if not comp.flows:
            self._dissolve(comp)
            return
        comp.version += 1
        if comp.timer is not None:
            comp.timer.cancel()
            comp.timer = None
        if comp.due_now:
            self._dirty.pop(comp, None)
            self._solve(comp)
            return
        if not self._armed:
            self._armed = True
            self.net.sim.at_instant_end(self._end_instant)
        self._dirty[comp] = None

    def _end_instant(self) -> None:
        self._armed = False
        self.flush()

    def _solve(self, comp: _Component) -> None:
        """Allocate *comp*'s rates and schedule its completion timer."""
        sim = self.net.sim
        allocate_rates(comp.flows, comp.adj, comp.load)
        # The first flow to finish at the new rates; start order breaks ties.
        next_eta = math.inf
        next_rate = 0.0
        for f in comp.flows:
            r = f._rate
            if f.remaining <= _EPSILON_BYTES:
                eta = 0.0
            elif r <= 0:
                continue
            else:
                eta = f.remaining / r
            if eta < next_eta:
                next_eta = eta
                next_rate = r
        if math.isfinite(next_eta):
            comp.next_at = sim.now + next_eta
            comp.next_rate = next_rate
            comp.timer = sim.schedule_cancellable(
                next_eta, self._on_timer, comp, comp.version,
                priority=PRIORITY_HIGH)
            self._index_due(comp)
        else:
            comp.next_at = None
            comp.next_rate = 0.0

    def _index_due(self, comp: _Component) -> None:
        """Insert *comp* into the due-scan heap under a conservative key.

        The exact epsilon test is ``(next_at - now) * next_rate <=
        _EPSILON_BYTES``; rearranged, a component becomes due at real time
        ``next_at - eps/rate``.  The heap key doubles the margin and steps
        two floats down so rounding can never place the key *after* a
        timestamp where the exact test already passes — over-inclusion is
        filtered by re-applying the exact test at pop time, so the index
        changes which components are *inspected*, never which are due.
        """
        if comp.next_rate > 0:
            key = comp.next_at - 2.0 * _EPSILON_BYTES / comp.next_rate
        else:
            key = comp.next_at
        key = math.nextafter(math.nextafter(key, -math.inf), -math.inf)
        heapq.heappush(self._due, (key, comp.seq, comp, comp.version))
        if len(self._due) > 4 * len(self._comps) + 64:
            self._due = [entry for entry in self._due
                         if entry[2].version == entry[3]]
            heapq.heapify(self._due)

    def _resettle(self, comp: _Component, removed: _t.Iterable[Flow]) -> None:
        """After detaching *removed*: split *comp* if disconnected, refill.

        Survivors that were joined only through a removed flow were joined
        through two of its links, so if at most one of the removed flows'
        links still has members (:meth:`_detach` evicts emptied links from
        the adjacency) nothing can have come apart and the connectivity
        walk is skipped — the common case of a transfer between a shared
        server link and a private access link.  Otherwise the walk reuses
        the incrementally maintained adjacency map.
        """
        adj = comp.adj
        populated = {link for f in removed for link in f.links if link in adj}
        if len(populated) < 2:
            groups = []
        else:
            groups = _link_components(comp.flows, adj)
        if len(groups) < 2:
            self._settle(comp)  # which dissolves an emptied component
            return
        now = self.net.sim.now
        self._dissolve(comp)
        for group in groups:
            nc = _Component(now, next(self._comp_seq))
            self._comps[nc] = None
            nc.due_now = comp.due_now
            for f in group:
                nc.flows[f] = None
                self._flow_comp[f] = nc
                for link in f.links:
                    nc.adj.setdefault(link, {})[f] = None
            for link in nc.adj:
                nc.load[link] = comp.load[link]
                self._link_comp[link] = nc
            self._settle(nc)

    def _on_timer(self, comp: _Component, version: int) -> None:
        if comp.version != version:
            return  # superseded (defensive; cancellation makes this rare)
        now = self.net.sim.now
        # Due-scan: finish *every* flow within the completion epsilon at this
        # instant, across all components, exactly as the global allocator
        # does — (next_at - now) * next_rate is the earliest flow's remaining
        # byte count, so the comparison needs no per-flow work.  The heap
        # index surfaces candidates in O(log C) instead of scanning every
        # component; the exact test below decides, so due membership — and
        # with it the trace — is identical to the historical linear scan.
        due: list[_Component] = []
        heap = self._due
        while heap and heap[0][0] <= now:
            _key, _seq, c, ver = heapq.heappop(heap)
            if c.version != ver or c.next_at is None:
                continue  # retracted or resettled since indexing
            if (c.next_at - now) * c.next_rate <= _EPSILON_BYTES:
                due.append(c)
            else:
                # Conservative key over-included it; defer past this
                # instant (nextafter guarantees forward progress).
                heapq.heappush(
                    heap, (math.nextafter(now, math.inf), c.seq, c, ver))
        # Match the historical scan order (= component creation order).
        due.sort(key=lambda c: c.seq)
        finished: list[Flow] = []
        touched: list[tuple[_Component, list[Flow]]] = []
        for c in due:
            self._advance_comp(c, now)
            fin = [f for f in c.flows if f.remaining <= _EPSILON_BYTES]
            c.due_now = False  # every flow that was is in fin
            touched.append((c, fin))
            finished.extend(fin)
        for c, fin in touched:
            if not fin:
                self._settle(c)
                continue
            for f in fin:
                self._detach(c, f)
            self._resettle(c, fin)
        if finished:
            finished.sort(key=_by_seq)
            self.net._finish(finished)


class FlowNetwork:
    """Tracks active flows and keeps their rates max–min fair over time.

    *allocator* is a test seam, not a product option: an allocator instance
    to use in place of a fresh :class:`IncrementalAllocator` (the
    equivalence tests inject ``tests/net/reference_allocator.py``).
    """

    def __init__(self, sim: Simulator, tracer: Tracer | None = None,
                 metrics: "MetricsRegistry | None" = None,
                 allocator: IncrementalAllocator | None = None) -> None:
        """Create an empty network on *sim*."""
        self.sim = sim
        self.tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry` for flow counters
        #: and duration/size histograms.
        self.metrics = metrics
        self._active: dict[Flow, None] = {}
        self._flow_seq = itertools.count()
        #: Total bytes delivered by completed flows (diagnostic).
        self.bytes_delivered = 0.0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.allocator = (IncrementalAllocator() if allocator is None
                          else allocator)
        self.allocator.bind(self)

    @property
    def active(self) -> list[Flow]:
        """Snapshot of in-flight flows, in start order."""
        return list(self._active)

    @property
    def active_count(self) -> int:
        """Number of in-flight flows (O(1); prefer over ``len(active)``)."""
        return len(self._active)

    # -- public API ----------------------------------------------------------
    def start_flow(self, name: str, links: _t.Sequence[Link], size: float,
                   max_rate: float | None = None,
                   background: bool = False) -> Flow:
        """Begin a transfer of *size* bytes across *links*; returns the flow."""
        flow = Flow(self.sim, name, links, size, max_rate, background)
        flow.seq = next(self._flow_seq)
        flow._alloc = self.allocator
        if flow.remaining <= _EPSILON_BYTES:
            flow.finished_at = self.sim.now
            flow.done.trigger(flow)
            self.flows_completed += 1
            return flow
        self._active[flow] = None
        if self.tracer is not None:
            self.tracer.record(self.sim.now, "flow.start", flow=name,
                               size=size, background=background)
        self.allocator.add(flow)
        return flow

    def abort_flow(self, flow: Flow, reason: str = "aborted") -> None:
        """Cancel an in-flight flow; its ``done`` event fails with FlowError."""
        if flow.finished:
            return
        self.allocator.advance(flow)
        del self._active[flow]
        flow.aborted = True
        flow._rate = 0.0
        flow.finished_at = self.sim.now
        self.flows_aborted += 1
        if self.metrics is not None:
            self.metrics.counter("net.flows_aborted_total").inc()
        if self.tracer is not None:
            self.tracer.record(self.sim.now, "flow.abort", flow=flow.name,
                               reason=reason, transferred=flow.size - flow.remaining)
        flow.done.fail(FlowError(f"flow {flow.name}: {reason}"))
        self.allocator.remove(flow)

    def recompute(self) -> None:
        """Re-run rate allocation after an external capacity change.

        The single public entry point for forcing reallocation: call after
        mutating a :class:`Link` capacity (e.g. fault-injected bandwidth
        degradation) so progress up to now is accounted at the old rates and
        every active flow gets a fresh allocation.  Flow start/abort/
        completion reallocate automatically and never need this.
        """
        self.allocator.refresh()

    def utilisation(self, link: Link) -> float:
        """Fraction of *link* capacity currently in use (0..1), summed on read."""
        self.allocator.flush()
        return self.allocator.link_used(link) / link.capacity

    def flows_using(self, links: _t.Sequence[Link]) -> list[Flow]:
        """Active flows traversing any of *links*, in start order."""
        return self.allocator.flows_using(links)

    # -- internals -------------------------------------------------------------
    def _finish(self, flows: _t.Sequence[Flow]) -> None:
        """Complete *flows* (already advanced to zero remaining) at now."""
        now = self.sim.now
        for f in flows:
            del self._active[f]
            f.remaining = 0.0
            f._rate = 0.0
            f.finished_at = now
            self.bytes_delivered += f.size
            self.flows_completed += 1
            if self.metrics is not None:
                self.metrics.counter("net.flows_completed_total").inc()
                self.metrics.counter("net.bytes_delivered_total").inc(f.size)
                self.metrics.histogram("net.flow_duration_s").observe(
                    now - f.started_at)
            if self.tracer is not None:
                self.tracer.record(now, "flow.done", flow=f.name,
                                   size=f.size, duration=now - f.started_at)
            f.done.trigger(f)
