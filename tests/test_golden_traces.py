"""Golden traces: small runs pinned across commits.

The same-seed ≡ same-run tests cannot see a reordering that is itself
deterministic (two callbacks of one instant swapped on every run); these
digests can.  The first three were recorded at the commit *before* the
event kernel gained its same-instant FIFO, so they pin the order the
single-heap kernel produced.  The chaos twelve — every bundled plan, on
BOINC-MR and on original BOINC clients — were recorded before the flow
allocator started settling each component once per instant.  Their
volunteers sit on ADSL links, so transfers are slow enough for the faults
to land on flows in flight: these are the runs that abort flows
(``link_flap``, ``partition``), re-solve live flows after a capacity
change (``bandwidth``) and fail transfers, which the three above do not.
A change that moves one either reordered dispatch — a bug in a perf-only
change — or changed the model on purpose, in which case re-record with
``python tests/test_golden_traces.py`` and say why.
"""

import hashlib

import pytest

from repro.boinc.client import ClientConfig
from repro.core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.faults import BUILTIN_PLANS
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

#: name -> (trace sha256, dispatch_count, peak_pending).  The digests are
#: the ones recorded at the parent of the same-instant-FIFO change.  The
#: counts were re-recorded, and only fell, when the scheduler RPC stopped
#: being a process: gone are the RPC process's start and finish wake-ups,
#: its slot-grant wake-up, the ``Timeout`` hop of every plain-delay wait
#: (RPC service, RTT, compute, retry backoff, NAT setup, fetch poll) and
#: the ``AnyOf`` hop of the client's backoff wait.
GOLDEN = {
    "adsl_shuffle": (
        "d8fea58eea548a6e11288d711432e64ba636856d5c838e310c93df502e97ca91",
        2187, 42),
    "server_hub": (
        "cc920a91e2f87c9976b509f7a2cd197abcb049512046d8ffddd8c24bd7426c5d",
        1197, 33),
    "idle_fleet": (
        "221026cc42fa5b58dd99253765d09c9afdcd08311fb9d187e89e7a075d6479d8",
        4542, 72),
}

#: Client modes of the chaos runs: BOINC-MR, and original BOINC (every
#: byte through the server's link, the shape where a wave of downloads
#: shares one link component).
MODES = ("mr", "boinc")

#: "plan/mode" -> (trace sha256, dispatch_count, peak_pending), at the
#: parent of the once-per-instant allocator; that change lowered one peak.
#: The counts were re-recorded with the ones above (same digests; the
#: events that went are listed there), and two more peaks fell.
CHAOS_GOLDEN = {
    "bad-volunteers/mr": (
        "8866457b44422f3bc8dc76f976c742f26234ce4e825ea6df9d93ecd3dc16a50c",
        2768, 41),
    "bad-volunteers/boinc": (
        "cee449fd7e88a0e656a3cf85ee332113fd66cc2462aa3241250cf468c2ca6921",
        2561, 39),
    "dataserver-degraded/mr": (
        "fcdc832c1562aa7153c82ab9852914ce6ac52e7abfe02d803cdd2293b2068e4d",
        2361, 42),
    "dataserver-degraded/boinc": (
        "d3d39af4ba9f7af6b635bedc2f2fe3e19173848303bf0bd5e7626a6cd445b0ce",
        2333, 40),
    "flaky-network/mr": (  # peak_pending was 51 before those events went
        "1f0d23b70ca08667ba74a91866bf0f793f52fdcf91a4ef6404106948ab5b219d",
        2976, 45),
    "flaky-network/boinc": (
        "d7db9324e2a64f8b86290cccbc48626d7e143955e501557c2a474a25223c6eaa",
        2402, 39),
    "kitchen-sink/mr": (
        "540d13dd69e6b7f0b3539bd5320f5ca50327ec91066a0e32d1e3804705cdcd8d",
        2514, 47),
    "kitchen-sink/boinc": (  # peak_pending was 44: a completion timer
        # the same instant superseded is no longer scheduled at all; then
        # 43, until the RPC and plain-delay events above went
        "3e6d36392c4018f6f32fb3d50896865c427f9f25b1f56f7adddd9a1f224f397e",
        2826, 40),
    "server-chaos/mr": (
        "8b9ef37aea53f9f55735d49c5dd29865c480ec7df4fe8bb87ba74aee51c30ecc",
        2104, 43),
    "server-chaos/boinc": (
        "f6d0320ec7d5c5721cdcd7e110a9efed8c4f155c5aacee374e090ee9b660926a",
        2258, 39),
    "split-brain/mr": (
        "64d0e8dd32786afacdb3486f6e002e4586bdf7d1262458540a2898627771b3cd",
        3224, 42),
    "split-brain/boinc": (
        "1cb8a6729e0d52549706cb77d3aed1139d92587de91091fb1e3a2ccb403d029d",
        2791, 39),
}


def _digest(cloud):
    digest = hashlib.sha256()
    for rec in cloud.tracer.records:
        digest.update(repr((rec.time, rec.kind,
                            sorted(rec.fields.items()))).encode())
    return digest.hexdigest(), cloud.sim.dispatch_count, cloud.sim.peak_pending


def fingerprint(name: str) -> tuple[str, int, int]:
    """Run scenario *name*; its trace digest and the kernel's two counts."""
    cloud_spec, job_spec, horizon_s = SCENARIOS[name]()
    cloud = VolunteerCloud.from_spec(cloud_spec)
    job = cloud.submit(job_spec)
    if horizon_s is not None:
        cloud.run_until(cloud.sim.timeout(horizon_s))
    cloud.run_until(job.done)
    return _digest(cloud)


def chaos_fingerprint(plan: str, mode: str) -> tuple[str, int, int]:
    """Run *plan* on the CI chaos job's shape (12 nodes, 12 maps x 3
    reducers, 0.5 GB, seed 1), with ADSL volunteers and a 1 Gbit server."""
    mr = mode == "mr"
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=1, server_link=SERVER_LINK,
        mr_config=BoincMRConfig() if mr else BoincMRConfig.vanilla_boinc()))
    cloud.add_volunteers(12, mr=mr, link_spec=ADSL_LINK)
    cloud.apply_faults(plan)
    job = cloud.submit(MapReduceJobSpec("job", n_maps=12, n_reducers=3,
                                        input_size=0.5e9))
    cloud.run_until(job.done)
    return _digest(cloud)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_and_kernel_counts_are_the_recorded_ones(name):
    assert fingerprint(name) == GOLDEN[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("plan", sorted(BUILTIN_PLANS))
def test_chaos_trace_and_kernel_counts_are_the_recorded_ones(plan, mode):
    assert chaos_fingerprint(plan, mode) == CHAOS_GOLDEN[f"{plan}/{mode}"]


if __name__ == "__main__":  # re-record
    for scenario in SCENARIOS:
        print(f'    "{scenario}": {fingerprint(scenario)!r},')
    for plan in sorted(BUILTIN_PLANS):
        for mode in MODES:
            print(f'    "{plan}/{mode}": {chaos_fingerprint(plan, mode)!r},')
