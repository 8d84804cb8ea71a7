"""Golden traces: three small runs pinned across commits.

The same-seed ≡ same-run tests cannot see a reordering that is itself
deterministic (two callbacks of one instant swapped on every run); these
digests can.  They were recorded at the commit *before* the event kernel
gained its same-instant FIFO, so they pin the order the single-heap
kernel produced.  A change that moves one either reordered dispatch — a
bug in a perf-only change — or changed the model on purpose, in which
case re-record with ``python tests/test_golden_traces.py`` and say why.
"""

import hashlib

import pytest

from repro.boinc.client import ClientConfig
from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.net import ADSL_LINK, EMULAB_LINK, SERVER_LINK


def _adsl_shuffle():
    """BOINC-MR over ADSL: map outputs travel between the clients."""
    spec = CloudSpec(seed=5, n_nodes=16, mr_clients=True, link=ADSL_LINK,
                     server_link=SERVER_LINK,
                     client_config=ClientConfig(backoff_max_s=120.0))
    return spec, MapReduceJobSpec(name="golden", n_maps=8, n_reducers=8,
                                  input_size=40e6), None


def _server_hub():
    """Original BOINC: every byte crosses the server's one access link."""
    spec = CloudSpec(seed=5, n_nodes=10, link=EMULAB_LINK,
                     server_link=EMULAB_LINK)
    return spec, MapReduceJobSpec(name="golden", n_maps=10, n_reducers=2,
                                  input_size=2e8), None


def _idle_fleet():
    """Far more volunteers than work, run to a horizon: backoff polls."""
    spec = CloudSpec(seed=5, n_nodes=48, mr_clients=True, link=ADSL_LINK,
                     server_link=SERVER_LINK,
                     client_config=ClientConfig(backoff_max_s=60.0))
    return spec, MapReduceJobSpec(name="golden", n_maps=6, n_reducers=2,
                                  input_size=60e6), 900.0


SCENARIOS = {"adsl_shuffle": _adsl_shuffle, "server_hub": _server_hub,
             "idle_fleet": _idle_fleet}

#: name -> (trace sha256, dispatch_count, peak_pending), at the parent of
#: the same-instant-FIFO change.
GOLDEN = {
    "adsl_shuffle": (
        "d8fea58eea548a6e11288d711432e64ba636856d5c838e310c93df502e97ca91",
        3115, 43),
    "server_hub": (
        "cc920a91e2f87c9976b509f7a2cd197abcb049512046d8ffddd8c24bd7426c5d",
        1946, 34),
    "idle_fleet": (
        "221026cc42fa5b58dd99253765d09c9afdcd08311fb9d187e89e7a075d6479d8",
        8790, 72),
}


def fingerprint(name: str) -> tuple[str, int, int]:
    """Run scenario *name*; its trace digest and the kernel's two counts."""
    cloud_spec, job_spec, horizon_s = SCENARIOS[name]()
    cloud = VolunteerCloud.from_spec(cloud_spec)
    job = cloud.submit(job_spec)
    if horizon_s is not None:
        cloud.run_until(cloud.sim.timeout(horizon_s))
    cloud.run_until(job.done)
    digest = hashlib.sha256()
    for rec in cloud.tracer.records:
        digest.update(repr((rec.time, rec.kind,
                            sorted(rec.fields.items()))).encode())
    return digest.hexdigest(), cloud.sim.dispatch_count, cloud.sim.peak_pending


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_and_kernel_counts_are_the_recorded_ones(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":  # re-record
    for scenario in SCENARIOS:
        print(f'    "{scenario}": {fingerprint(scenario)!r},')
