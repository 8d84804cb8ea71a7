"""Benchmark: simulator throughput at 100/500/2,000 volunteers.

The paper's testbed stops at ~40 Emulab nodes; real volunteer platforms
run orders of magnitude more hosts.  This harness measures what bounds
*the simulator* at that scale: events/sec on an internet-style
deployment (1 Gbit project server, ADSL volunteers, one concurrent
250 MB word-count job per 200 volunteers — see
``repro.experiments.build_scale_cloud``).

Emits ``BENCH_scale.json`` with events/sec, wall-clock, and peak event
queue depth per size, plus the ``environment`` they were taken in
(``cpus``, python version, git sha).  Absolute events/sec is
machine-dependent; ``benchmarks/check_scale_regression.py`` gates CI on
it against the checked-in baseline.

Run directly (``python benchmarks/test_scale.py``) or under pytest.
Environment knobs:

- ``SCALE_SIZES``   comma-separated node counts (default ``100,500,2000``)
- ``SCALE_OUT``     output path (default ``BENCH_scale.json``)
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from repro.experiments import SCALE_NODE_COUNTS, scale_out


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("SCALE_SIZES", "")
    if not raw:
        return SCALE_NODE_COUNTS
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def environment() -> dict:
    """Where the numbers were taken: cpus, python version, git sha."""
    def git(*argv: str) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=os.path.dirname(__file__) or ".",
                capture_output=True, text=True, check=False).stdout.strip()
        except OSError:
            return ""
    sha = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"  # measured on uncommitted changes on top of sha
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha}


def run_suite(sizes: tuple[int, ...] | None = None,
              seed: int = 1) -> dict:
    """Run every size and assemble the report."""
    sizes = sizes or _sizes()
    report: dict = {
        "workload": ("wordcount, 50 maps x 50 reducers x 250 MB per job, "
                     "1 job per 200 volunteers; 1 Gbit server, ADSL "
                     "volunteers, BOINC-MR clients"),
        "seed": seed,
        "environment": environment(),
        "sizes": [],
    }
    for n in sizes:
        point = scale_out(n, seed=seed)
        report["sizes"].append({
            "n_nodes": n,
            "events": point.events,
            "wall_s": round(point.wall_s, 3),
            "events_per_s": round(point.events_per_s, 1),
            "makespan_s": round(point.makespan_s, 1),
            "peak_queue_depth": point.peak_queue_depth,
            "n_jobs": point.n_jobs,
        })
        print(f"  n={n:5d} {point.events_per_s:9.0f} events/s  "
              f"wall {point.wall_s:7.2f}s  "
              f"peak queue {point.peak_queue_depth}", flush=True)
    return report


def write_report(report: dict, path: str | None = None) -> str:
    path = path or os.environ.get("SCALE_OUT", "BENCH_scale.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_scale_benchmark():
    """Full suite: run, emit BENCH_scale.json; every size must finish."""
    report = run_suite()
    path = write_report(report)
    print(f"\nwrote {path}")
    for entry in report["sizes"]:
        assert entry["events"] > 0 and entry["events_per_s"] > 0, entry


def main() -> int:
    report = run_suite()
    path = write_report(report)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
