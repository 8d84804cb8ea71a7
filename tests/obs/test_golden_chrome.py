"""Golden Chrome traces: two exports pinned across commits.

The same-seed ≡ same-bytes tests (``test_export.py``,
``tests/faults/test_chaos_plans.py``) compare two runs of one commit, so a
change to the document that is itself deterministic passes them; these
digests do not.  They were recorded at the commit before the span builder
stored RPC spans and instants as tuples and the exporter wrote each event
itself, so they pin the bytes ``json.dumps(doc, sort_keys=True)`` gave.
A change that moves one either changed the export — a bug in a perf-only
change — or changed the model or the format on purpose, in which case
re-record with ``PYTHONPATH=src python -m tests.obs.test_golden_chrome``
and say why.
"""

import hashlib

import pytest

from repro.obs import chrome_trace_json
from tests.faults.test_chaos_plans import chaos_run
from tests.obs.test_export import small_cloud_trace

SCENARIOS = {
    # Six BOINC-MR volunteers, one word count, spans + probes + profiler.
    "small_cloud_seed5": lambda: small_cloud_trace(seed=5).span_builder,
    # Twelve volunteers under every fault kind at once: fault spans,
    # retries, timeouts and leaks on the timeline.
    "kitchen_sink_seed3": lambda: chaos_run("kitchen-sink",
                                            seed=3)[0].span_builder,
}

#: name -> (sha256 of chrome_trace_json, its length in characters).
GOLDEN = {
    "small_cloud_seed5": (
        "63c1c62acf043d5377aa9e20936a61177574976fb17ec7f449365a4bb0ff7a99",
        43882),
    "kitchen_sink_seed3": (
        "87828f261673dccf40da830fb71dafb771f9296d1875028514c6645fcbfd58bf",
        106962),
}


def fingerprint(name: str) -> tuple[str, int]:
    """Export scenario *name*'s timeline; its digest and length."""
    text = chrome_trace_json(SCENARIOS[name]())
    return hashlib.sha256(text.encode()).hexdigest(), len(text)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chrome_trace_is_the_recorded_one(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":  # re-record
    for scenario in SCENARIOS:
        print(f'    "{scenario}": {fingerprint(scenario)!r},')
