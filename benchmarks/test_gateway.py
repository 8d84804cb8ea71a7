#!/usr/bin/env python3
"""Gateway load benchmark: a live 500-client replay -> BENCH_gateway.json.

Boots an in-process gateway (unless ``GATEWAY_ADDRESS`` points at an
external ``repro serve``), replays the compressed availability schedules
of ``GATEWAY_CLIENTS`` simulated volunteers (default 500) through the
load harness (one thread and one ``GatewayClient`` per client), and writes the ``BENCH_gateway.json`` latency/
correctness report that ``check_scale_regression.py --kind gateway``
gates against ``benchmarks/BENCH_gateway_baseline.json``.

Environment knobs (all optional):

- ``GATEWAY_ADDRESS``  — load an already-running gateway instead of
  self-hosting;
- ``GATEWAY_CLIENTS``  — fleet size (default 500);
- ``GATEWAY_DURATION`` — replay window in seconds (default 8).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.gateway import LoadConfig, run_loadgen, write_report  # noqa: E402


def main() -> int:
    """Run the replay, write BENCH_gateway.json, return an exit status."""
    config = LoadConfig(
        n_clients=int(os.environ.get("GATEWAY_CLIENTS", "500")),
        duration_s=float(os.environ.get("GATEWAY_DURATION", "8.0")),
    )
    report = run_loadgen(address=os.environ.get("GATEWAY_ADDRESS"),
                         config=config, echo=print)
    out = os.environ.get("GATEWAY_OUT", "BENCH_gateway.json")
    write_report(report, out)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(f"wrote {out}")
    if not report.clean:
        print("gateway benchmark: correctness gates FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
