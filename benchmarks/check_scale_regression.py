#!/usr/bin/env python3
"""Gate: fail when a benchmark regresses vs a checked-in baseline.

A shared helper for the simulator-throughput and gateway benchmarks:

- ``--kind scale`` (default) compares ``BENCH_scale.json`` (from
  ``benchmarks/test_scale.py``) against
  ``benchmarks/BENCH_scale_baseline.json``: per common size, the run's
  wall-clock seconds must stay within ``--tolerance`` of baseline.
  Wall time, not events/sec: a change that needs fewer events for the
  same run lowers events/sec even when the run gets faster.
- ``--kind gateway`` compares ``BENCH_gateway.json`` (from
  ``repro loadgen --out BENCH_gateway.json``) against
  ``benchmarks/BENCH_gateway_baseline.json``: the live scheduler-RPC p99
  must stay under the absolute ``budget.p99_ms``, the replay must cover
  ``min_clients`` clients, and the correctness gates must be clean (zero
  lost/duplicated results, benchmark job done, reclaimed payload
  byte-equivalent to the simulated LocalRunner oracle).

Absolute wall time varies across machines; regenerate a baseline on the
reference runner with e.g. ``python benchmarks/test_scale.py && cp
BENCH_scale.json benchmarks/BENCH_scale_baseline.json`` when an
intentional change shifts the numbers.

Usage: python benchmarks/check_scale_regression.py [--kind scale|gateway]
       [result] [baseline]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(__file__)

#: Per-kind defaults: (result file, checked-in baseline file).
DEFAULTS = {
    "scale": ("BENCH_scale.json",
              os.path.join(_HERE, "BENCH_scale_baseline.json")),
    "gateway": ("BENCH_gateway.json",
                os.path.join(_HERE, "BENCH_gateway_baseline.json")),
}


def _index(report: dict) -> dict[int, dict]:
    return {entry["n_nodes"]: entry for entry in report.get("sizes", [])}


def check(result: dict, baseline: dict, tolerance: float) -> list[str]:
    """Scale-kind findings: simulator wall time per size (empty = pass)."""
    failures = []
    fresh, base = _index(result), _index(baseline)
    common = sorted(set(fresh) & set(base))
    if not common:
        return ["no common sizes between result and baseline"]
    for n in common:
        got = fresh[n]["wall_s"]
        want = base[n]["wall_s"]
        if got > (1.0 + tolerance) * want:
            failures.append(
                f"n={n}: wall time {got:.2f}s is "
                f"{100 * (got / want - 1):.0f}% above baseline {want:.2f}s")
    return failures


def check_gateway(result: dict, baseline: dict,
                  tolerance: float) -> list[str]:
    """Gateway-kind findings: p99 budget + the zero-loss/oracle gates.

    Unlike the throughput kinds, the latency gate is an absolute budget
    (``baseline["budget"]["p99_ms"]``) rather than a relative tolerance:
    a live server that answers its scheduler RPC slower than the budget
    is a regression regardless of what the last run measured.
    """
    failures = []
    budget = baseline.get("budget", {}).get("p99_ms")
    if budget is None:
        return ["baseline has no budget.p99_ms entry"]
    p99 = result.get("latency_ms", {}).get("p99")
    if p99 is None:
        failures.append("result has no latency_ms.p99 measurement")
    elif p99 > budget:
        failures.append(f"scheduler-RPC p99 {p99:.2f}ms exceeds the "
                        f"{budget:.2f}ms budget")
    min_clients = baseline.get("min_clients", 0)
    if result.get("n_clients", 0) < min_clients:
        failures.append(f"replayed {result.get('n_clients', 0)} clients; "
                        f"the gate requires >= {min_clients}")
    if result.get("job_state") != "done":
        failures.append(f"benchmark job ended {result.get('job_state')!r}, "
                        "not 'done'")
    for gate in ("errors", "lost_results", "duplicated_results"):
        if result.get(gate, 1) != 0:
            failures.append(f"{gate} = {result.get(gate)} (must be 0)")
    if not result.get("equivalent", False):
        failures.append("reclaimed payload is not byte-equivalent to the "
                        "simulated LocalRunner oracle")
    return failures


#: Kind -> checker function.
CHECKERS = {"scale": check, "gateway": check_gateway}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=sorted(CHECKERS),
                        default="scale",
                        help="which benchmark report to validate")
    parser.add_argument("result", nargs="?", default=None)
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    args = parser.parse_args(argv)
    default_result, default_baseline = DEFAULTS[args.kind]
    with open(args.result or default_result, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(args.baseline or default_baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = CHECKERS[args.kind](result, baseline, args.tolerance)
    if failures:
        print(f"{args.kind} benchmark regression:")
        for line in failures:
            print(f"  - {line}")
        return 1
    if args.kind == "gateway":
        print(f"gateway load gates clean: p99 "
              f"{result['latency_ms']['p99']:.2f}ms within the "
              f"{baseline['budget']['p99_ms']:.0f}ms budget, "
              f"{result['n_clients']} clients, zero lost/duplicated "
              f"results, oracle-equivalent output")
    else:
        print(f"{args.kind} benchmark within {args.tolerance:.0%} of "
              f"baseline at sizes "
              f"{sorted(set(_index(result)) & set(_index(baseline)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
