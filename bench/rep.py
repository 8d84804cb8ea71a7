"""One repetition of one workload, in a fresh interpreter.

Started by :mod:`run` as ``python3 bench/rep.py WORKLOAD --seed N
--t-spawn T [--traced] [--quick]``; prints one JSON object as its last
line.  *T* is the parent's ``time.monotonic()`` just before the spawn,
so ``setup_s`` covers interpreter start, ``import repro`` and everything
the workload builds before its timed region.  A :class:`measure.SpeedProbe`
samples the host's speed from the first line to the last.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main(argv: list[str] | None = None) -> int:
    """Run the repetition and print its result line."""
    import measure
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    probe = measure.SpeedProbe()
    probe.start()
    stolen0_s, _ = measure.host_cpu_s()
    workload = workloads.WORKLOADS[args.workload]
    shape = workload.quick if args.quick else workload.shape
    recorder = tracing.SpanRecorder() if args.traced else None
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    result = workloads.RUNNERS[type(shape)](shape, args.seed, recorder, probe)
    probe.halt()
    region = result.pop("region")
    if recorder is not None:
        recorder.write_chrome_trace(
            str(workloads.OUT / f"trace-{args.workload}.json"), region.t0)
    setup_slowdown, _ = probe.slowdown(0.0, region.start_monotonic)
    slowdown = result.pop("slowdown", region.slowdown)
    raw = {"setup_s": region.start_monotonic - args.t_spawn,
           "wall_s": region.wall_s, "cpu_s": result["cpu_s"]}
    # Reported timings are at the host's nominal speed (measure.SpeedProbe).
    result.update(
        setup_s=measure.at_nominal_speed(
            raw["setup_s"], region.stolen0_s - stolen0_s, setup_slowdown),
        wall_s=measure.at_nominal_speed(raw["wall_s"], region.stolen_s,
                                        slowdown,
                                        shape.stall_per_stolen_s),
        cpu_s=measure.at_nominal_speed(raw["cpu_s"], region.stolen_s,
                                       slowdown, measure.SPIN_PER_STOLEN_S),
        raw=raw, steal_share=region.steal_share,
        slowdown={"setup": setup_slowdown, "region": slowdown})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
