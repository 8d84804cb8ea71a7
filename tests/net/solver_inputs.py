"""What a component hands ``repro.net.flows.maxmin_rates``, built from scratch.

The product solver takes a component's kept link → flows index and link
traversal counts; a test that solves a loose set of flows builds both here,
the way ``_Component`` would hold them.
"""

import collections

from repro.net import maxmin_rates


def adjacency(flows):
    """What ``_Component.adj`` holds for *flows*: link -> ordered member set."""
    adj = {}
    for flow in flows:
        for link in flow.links:
            adj.setdefault(link, {})[flow] = None
    return adj


def load(flows):
    """What ``_Component.load`` holds for *flows*: link -> traversals."""
    return dict(collections.Counter(link for f in flows for link in f.links))


def solve(flows):
    """``maxmin_rates`` over *flows* as one component."""
    return maxmin_rates(flows, adjacency(flows), load(flows))
