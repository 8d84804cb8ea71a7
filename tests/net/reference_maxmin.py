"""Test oracle: the progressive-filling solver ``repro.net.flows`` shipped
through PR 11, kept verbatim.

It raises every unfrozen flow's rate one by one each round and re-scans
every flow for every saturated link, O(rounds·L·F) — too slow for the
simulator's hot path, but the arithmetic it performs *is* the definition
of the rates the simulator's traces were recorded with.  The production
solver must return bit-identical floats (``float.hex`` equal), which
``test_maxmin_bitident.py`` asserts.
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
