"""What one volunteer costs, and the streams it builds only when it draws.

A deployment's size is bounded by its per-volunteer heap, so the heap an
idle volunteer holds has a budget, measured with tracemalloc after
``gc.collect()``: unlike the run's peak RSS it does not move with the
allocator's layout.  Two of a volunteer's three random streams (``exec.``,
``fetch.``) are made at their first draw; these tests hold that they are
not made before it and that making them late moves no draw.
"""

import gc
import tracemalloc

from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.sim import RngRegistry

#: Every volunteer built three numpy streams up front: 5,881 B; one numpy
#: stream, made eagerly, and two on first draw: 3,290 B; one pure-Python
#: stream in their place: 2,539 B.
VOLUNTEER_BUDGET_B = 2_800
VOLUNTEERS = 1_000


def bytes_per_volunteer(n: int = VOLUNTEERS) -> float:
    """Heap growth of ``add_volunteers(n, mr=True)`` per volunteer."""
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
    # The first volunteer pays for the caches every later one shares.
    cloud.add_volunteers(1, mr=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cloud.add_volunteers(n, mr=True)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()


def lazy_streams(cloud: VolunteerCloud) -> list[str]:
    return sorted(name for name in cloud.rngs._streams
                  if name.startswith(("exec.", "fetch.")))


def test_a_volunteer_costs_at_most_its_budget():
    per_volunteer = bytes_per_volunteer()
    assert per_volunteer <= VOLUNTEER_BUDGET_B, \
        f"{per_volunteer:.0f} B per volunteer"


def test_a_built_cloud_holds_no_exec_or_fetch_stream():
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=3, n_nodes=6, mr_clients=True, byzantine_rate=0.5))
    cloud.add_volunteers(4, mr=True, byzantine_rate=0.5)
    assert lazy_streams(cloud) == []
    assert len([n for n in cloud.rngs._streams
                if n.startswith("client.")]) == 10


def test_an_honest_fleet_never_builds_an_exec_stream():
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=3, n_nodes=4,
                                               mr_clients=True))
    cloud.run_job(MapReduceJobSpec("j", n_maps=4, n_reducers=2,
                                   input_size=4e6))
    assert not [n for n in lazy_streams(cloud) if n.startswith("exec.")]


def test_byzantine_draws_equal_a_fresh_stream_of_the_same_name():
    seed, rate = 4, 0.2
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, n_nodes=8, mr_clients=True, byzantine_rate=rate))
    cloud.run_job(MapReduceJobSpec("j", n_maps=6, n_reducers=2,
                                   input_size=6e6))
    drawn = corrupt = 0
    for client in cloud.clients:
        name = f"exec.{client.name}"
        if name not in cloud.rngs._streams:
            assert client.executor._corruptions == 0
            continue
        state = cloud.rngs.stream(name).state
        fresh = RngRegistry(seed).stream(name)
        # One draw per execution: find how many this client made, then
        # check its corruptions are the ones those draws decide.
        draws = []
        while fresh.state != state:
            draws.append(fresh.random())
            assert len(draws) < 1_000, f"{name} is not a fresh stream's"
        assert draws
        assert client.executor._corruptions == sum(d < rate for d in draws)
        drawn += 1
        corrupt += client.executor._corruptions
    assert drawn == len(cloud.clients) and corrupt > 0
