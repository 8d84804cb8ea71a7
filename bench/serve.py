"""``repro serve`` with a speed probe inside.

    python3 bench/serve.py SAMPLES.json [serve arguments...]

Runs exactly what ``python -m repro serve ...`` runs, in this process,
next to a :class:`measure.SpeedProbe`.  On SIGTERM the probe's samples
are written to *SAMPLES.json* and the process exits: the benchmark needs
the slowdown of the vCPU the *server* ran on, which a probe in the load
generator's process cannot see.
"""

from __future__ import annotations

import json
import os
import pathlib
import runpy
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> None:
    """Start the probe, arm the SIGTERM dump, become ``repro serve``."""
    import measure

    samples_path = sys.argv[1]
    probe = measure.SpeedProbe()
    probe.start()

    def dump_and_exit(_signum: int, _frame: object) -> None:
        probe.halt()
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump({"times": probe.times, "samples": probe.samples}, fh)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    sys.argv = ["repro", "serve", *sys.argv[2:]]
    runpy.run_module("repro", run_name="__main__")


if __name__ == "__main__":
    main()
