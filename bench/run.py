"""The repo's benchmark: seven workloads, one command.

    python3 bench/run.py                      # every workload, 5 reps each
    python3 bench/run.py --traced             # ... plus one traced rep each
    python3 bench/run.py --workload gateway_rpc --seed 3 --seconds 10 --trace 0

Each repetition runs in a fresh interpreter (:mod:`rep`), repetitions of
different workloads are interleaved round-robin, every output is checked,
and every metric named in ``BENCHMARK.json`` is printed with its unit.
The last line of standard output is one JSON object per the benchmark
contract (``correct`` / ``attempted`` / ``failed`` / ``metrics``) for the
last workload run; the full record of every repetition goes to
``bench/out/report.json`` for :mod:`compare`.

This file never imports ``repro``: interpreter start and import are part
of what ``setup_s`` measures, inside each repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Repetitions per workload when neither ``--reps`` nor ``--seconds`` is given.
DEFAULT_REPS = 5
#: A time-budgeted run (``--seconds``) never reports on fewer repetitions.
MIN_REPS = 3
#: A repetition is flagged noisy above this share of stolen CPU time ...
NOISY_STEAL = 0.05
#: ... and a workload when its median wall is this far above its best.
NOISY_SPREAD = 0.25
#: The plain twin whose wall time ``obs.on_ratio`` divides by.
OBS_BASELINE = {"sim_idle_fleet_observed": "sim_idle_fleet"}

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
REQUEST_PHASES = ("gateway.parse_us", "gateway.validate_us",
                  "gateway.core_us", "gateway.serialize_us")


def load_contract() -> dict:
    """``BENCHMARK.json`` from the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_rep(workload: str, seed: int, traced: bool, quick: bool) -> dict:
    """One repetition in a fresh interpreter; its parsed result line."""
    cmd = [sys.executable, str(HERE / "rep.py"), workload,
           "--seed", str(seed), "--t-spawn", repr(time.monotonic())]
    cmd += ["--traced"] * traced + ["--quick"] * quick
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170.0, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: repetition exited with code "
                           f"{done.returncode} and no result")
    rep = json.loads(lines[-1])
    rep["noisy"] = rep["steal_share"] > NOISY_STEAL
    return rep


def spread(values: _t.Sequence[float]) -> dict:
    """Best, median and quartiles of one metric's repetitions."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"best": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "reps": list(values)}


def summarise(name: str, reps: list[dict], traced: dict | None,
              baseline_wall_s: float | None) -> dict:
    """Fold one workload's repetitions into its report entry."""
    end_to_end = {metric: spread([rep[metric] for rep in reps])
                  for metric in END_TO_END}
    wall = end_to_end["wall_s"]
    errors = [err for rep in reps for err in rep["errors"]]
    failed = sum(rep["failed"] for rep in reps)
    exact = reps[0]["exact"]
    if any(rep["exact"] != exact for rep in reps):
        errors.append("exact counts differ between repetitions of one seed")
        failed += 1
    layers: dict[str, float] = {}
    if traced is not None:
        layers.update(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / wall["best"]
        errors += traced["errors"]
        failed += traced["failed"]
    for key in reps[0]["layers"]:
        layers[key] = statistics.median(rep["layers"][key] for rep in reps)
    layers.update({key: value for key, value in exact.items()
                   if not isinstance(value, str)})
    if baseline_wall_s is not None:
        layers["obs.on_ratio"] = wall["best"] / baseline_wall_s
    if traced is not None and "gateway.server_cpu_us_per_rpc" in layers:
        # What the subprocess server spends per request outside the four
        # wrapped phases: socket reads and writes, HTTP framing, routing.
        layers["gateway.framing_us"] = (
            layers["gateway.server_cpu_us_per_rpc"]
            - sum(layers[phase] for phase in REQUEST_PHASES))
    return {
        "workload": name, "reps": reps, "traced_rep": traced,
        "end_to_end": end_to_end, "per_layer": layers, "exact": exact,
        "attempted": sum(rep["attempted"] for rep in reps)
                     + (traced["attempted"] if traced else 0),
        "failed": failed, "errors": errors,
        "steal_share": statistics.mean(rep["steal_share"] for rep in reps),
        "slowdown": statistics.mean(rep["slowdown"]["region"]
                                    for rep in reps),
        "noisy": (any(rep["noisy"] for rep in reps)
                  or (wall["median"] - wall["best"]) / wall["best"]
                  > NOISY_SPREAD),
    }


def environment() -> dict:
    """Where and on what the numbers were taken."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=False).stdout.strip()
    except OSError:
        sha = ""
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha or "unknown", "platform": platform.platform()}


def contract_line(entry: dict, contract: dict, trace: bool) -> str:
    """The benchmark contract's result object for one workload."""
    if trace:
        metrics = {m["name"]: {"value": entry["per_layer"].get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def print_table(entry: dict, contract: dict, trace: bool) -> None:
    """Every metric of one workload by name, with its unit."""
    flag = "  [noisy]" if entry["noisy"] else ""
    print(f"== {entry['workload']}: {len(entry['reps'])} reps, "
          f"{entry['failed']} of {entry['attempted']} operations failed, "
          f"steal {entry['steal_share']:.1%}, host slowdown "
          f"{entry['slowdown']:.2f}{flag}")
    for error in entry["errors"][:5]:
        print(f"   ! {error}")
    for m in contract["end_to_end"]:
        s = entry["end_to_end"][m["name"]]
        print(f"   {m['name']:<34}{s['median']:>14.4f} {m['unit']:<6}"
              f" best {s['best']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}")
    if trace:
        for m in contract["per_layer"]:
            if m["name"] in entry["per_layer"]:
                print(f"   {m['name']:<34}"
                      f"{entry['per_layer'][m['name']]:>14.4f} {m['unit']}")
    for key, value in entry["exact"].items():
        if isinstance(value, str):
            print(f"   {key:<34}{value}")


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads; see the module docstring."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    import workloads  # sizes and names only; imports nothing of repro

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default="",
                        help="comma-separated names (default: all seven)")
    parser.add_argument("--seed", type=lambda text: int(text) & 0x7FFFFFFF,
                        default=1, help="workload seed (default 1; folded "
                                        "into 31 bits, CloudSpec wants >= 0)")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"repetitions per workload (default "
                             f"{DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat each workload until this much time "
                             f"has gone (at least {MIN_REPS} repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one plain and one traced repetition per "
                             "workload; print the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (for the self-check)")
    parser.add_argument("--out", default=str(HERE / "out" / "report.json"))
    args = parser.parse_args(argv)

    contract = load_contract()
    names = [n for n in args.workload.split(",") if n] or list(
        workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    if args.reps is not None:
        min_reps, budget_s = args.reps, 0.0
    elif args.seconds is None:
        min_reps, budget_s = DEFAULT_REPS, 0.0
    elif trace:  # a per-layer run is read for its shares, not its spread
        min_reps, budget_s = 1, 0.0
    else:
        min_reps, budget_s = MIN_REPS, args.seconds

    # Round-robin: one repetition of each workload per round, so slow
    # drift of the host lands on every workload alike.
    reps: dict[str, list[dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    todo = list(names)
    while todo:
        for name in list(todo):
            t0 = time.monotonic()
            reps[name].append(run_rep(name, args.seed, False, args.quick))
            spent[name] += time.monotonic() - t0
            if len(reps[name]) >= min_reps and spent[name] >= budget_s:
                todo.remove(name)
    traced = {name: run_rep(name, args.seed, True, args.quick)
              for name in names} if trace else {}
    baselines: dict[str, float] = {}
    for name in names:
        twin = OBS_BASELINE.get(name)
        if trace and twin is not None:
            twin_reps = reps.get(twin) or [
                run_rep(twin, args.seed, False, args.quick)]
            baselines[name] = min(rep["wall_s"] for rep in twin_reps)

    entries = [summarise(name, reps[name], traced.get(name),
                         baselines.get(name)) for name in names]
    report = {"environment": environment(), "seed": args.seed,
              "quick": args.quick, "workloads": entries}
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    for entry in entries:
        print_table(entry, contract, trace)
    print(f"report: {out}")
    for entry in entries:
        if len(entries) > 1:
            print(f"# {entry['workload']}")
        print(contract_line(entry, contract, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
