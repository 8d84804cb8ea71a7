"""Test oracle: the progressive-filling solver ``repro.net.flows`` shipped
through PR 11, kept verbatim.

It raises every unfrozen flow's rate one by one each round and re-scans
every flow for every saturated link, O(rounds·L·F) — too slow for the
simulator's hot path, but the arithmetic it performs *is* the definition
of the rates the simulator's traces were recorded with.  The production
solver must return bit-identical floats (``float.hex`` equal), which
``test_maxmin_bitident.py`` asserts.

``allocate_rates`` is the old two-pass foreground/background routine,
including its temporary shrinking of ``Link.capacity`` — the very thing
the production ``_fill_background`` no longer does.
"""

from __future__ import annotations

import math
import typing as _t

from repro.net import Flow, Link


def maxmin_rates(flows: _t.Sequence[Flow]) -> dict[Flow, float]:
    """Max–min fair rates for *flows* via progressive filling.

    Respects per-flow ``max_rate`` caps.  Links are discovered from the
    flows themselves.  Returns rates in bytes/s.
    """
    if not flows:
        return {}
    rate: dict[Flow, float] = {f: 0.0 for f in flows}
    unfrozen: set[Flow] = set(flows)
    headroom: dict[Link, float] = {}
    active: dict[Link, int] = {}
    for f in flows:
        for link in f.links:
            headroom.setdefault(link, link.capacity)
            active[link] = active.get(link, 0) + 1

    # Progressive filling: raise all unfrozen flows' rates in lockstep until
    # a link saturates or a flow hits its cap; freeze and repeat.
    for _ in range(2 * len(flows) + 2):  # each round freezes >= 1 flow
        if not unfrozen:
            break
        increment = math.inf
        for link, count in active.items():
            if count > 0:
                increment = min(increment, headroom[link] / count)
        for f in unfrozen:
            if f.max_rate is not None:
                increment = min(increment, f.max_rate - rate[f])
        if increment < 0:
            increment = 0.0
        newly_frozen: list[Flow] = []
        for f in unfrozen:
            rate[f] += increment
            if f.max_rate is not None and rate[f] >= f.max_rate * (1 - 1e-9):
                newly_frozen.append(f)
        for link in active:
            headroom[link] -= increment * active[link]
        for link, room in headroom.items():
            if room <= link.capacity * 1e-9 and active[link] > 0:
                for f in list(unfrozen):
                    if link in f.links and f not in newly_frozen:
                        newly_frozen.append(f)
        if not newly_frozen:
            # Nothing binding (all caps/links satisfied) — allocation final.
            break
        for f in newly_frozen:
            if f in unfrozen:
                unfrozen.remove(f)
                for link in f.links:
                    active[link] -= 1
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
                residual[link] -= f.rate
    # Reuse progressive filling by temporarily shrinking link capacities.
    saved = {link: link.capacity for link in residual}
    try:
        for link, room in residual.items():
            link.capacity = max(room, 1e-9)
        rates = maxmin_rates(background)
    finally:
        for link, cap in saved.items():
            link.capacity = cap
    for f, r in rates.items():
        # A starved background flow gets a vanishing sliver from the
        # capacity floor above; treat it as fully stalled.
        f.rate = r if r > 1e-6 else 0.0


def allocate_rates(flows: _t.Sequence[Flow]) -> None:
    """Two-pass (foreground max–min, then background residual) allocation."""
    foreground = [f for f in flows if not f.background]
    background = [f for f in flows if f.background]
    rates = maxmin_rates(foreground)
    for f, r in rates.items():
        f.rate = r
    if background:
        _fill_background(foreground, background)
