#!/usr/bin/env python3
"""Quickstart: run one MapReduce word-count job on a simulated volunteer cloud.

Builds the paper's 20-node Emulab-style deployment twice — once with
original BOINC clients (all data through the project server) and once with
BOINC-MR clients (inter-client transfers) — runs the same 1 GB word-count
job on each, and prints the paper's Table I metrics side by side.

Run:  python examples/quickstart.py
"""

from repro.analysis import job_metrics
from repro.core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud


def run(label: str, mr: bool) -> None:
    # BOINC-MR: hash-only reporting, peer transfers.
    mr_config = BoincMRConfig() if mr else BoincMRConfig.vanilla_boinc()
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=1, mr_config=mr_config))
    cloud.add_volunteers(20, mr=mr)

    job = cloud.run_job(MapReduceJobSpec(
        name="wordcount", n_maps=20, n_reducers=5, input_size=1e9))

    m = job_metrics(cloud.tracer, "wordcount")
    print(f"\n== {label} ==")
    print(f"  map phase:    mean {m.map_stats.mean:6.1f}s over "
          f"{m.map_stats.n_tasks} results "
          f"[{m.map_stats.mean_discard_slowest:.1f}s without straggler "
          f"{m.map_stats.slowest_host}]")
    print(f"  reduce phase: mean {m.reduce_stats.mean:6.1f}s over "
          f"{m.reduce_stats.n_tasks} results")
    print(f"  total makespan: {m.total:7.1f}s "
          f"(map->reduce dead time {m.transition_gap:.1f}s)")
    print(f"  server served {cloud.server.dataserver.bytes_served / 1e9:.2f} GB, "
          f"received {cloud.server.dataserver.bytes_received / 1e9:.2f} GB")
    peer_bytes = sum(c.peer_store.bytes_served for c in cloud.clients
                     if c.peer_store is not None)
    print(f"  inter-client transfers: {peer_bytes / 1e9:.2f} GB")


def main() -> None:
    print("BOINC-MR quickstart: 20 volunteers, 1 GB word count, "
          "20 maps / 5 reducers, replication 2")
    run("Original BOINC (all data via project server)", mr=False)
    run("BOINC-MR (inter-client map-output transfers)", mr=True)


if __name__ == "__main__":
    main()
