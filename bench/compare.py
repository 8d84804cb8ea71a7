"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

*A* is the base (parent commit), *B* the change; both are
``bench/out/report.json`` files written by :mod:`run`.  Every pairing of
workload and end-to-end metric gets its own row with the ratio to the
base and a verdict against the bound fixed in ``BENCHMARK.json``:

- ``worse``      — B's median is beyond the bound, and beyond the spread;
- ``unresolved`` — the repetitions spread wider than the bound, so the
  pairing can be called neither worse nor unchanged;
- ``ok``         — within the bound.

The exact simulated counts (events, makespan, trace digest ...) are
diffed as well: a change that only claims speed must leave them equal.
Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def relative_spread(stats: dict) -> float:
    """Interquartile range of the repetitions as a share of their median."""
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(base: dict, new: dict, bound: float, better: str) -> tuple[float, str]:
    """``(ratio to base, verdict)`` for one workload x metric pairing."""
    ratio = new["median"] / base["median"]
    loss = ratio - 1.0 if better == "lower" else 1.0 - ratio
    noise = max(relative_spread(base), relative_spread(new))
    if loss > bound and loss > noise:
        return ratio, "worse"
    if noise > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def compare(base: dict, new: dict, contract: dict) -> tuple[list[str], bool]:
    """Table lines for two reports, and whether any pairing is worse."""
    lines = [f"base {base['environment']['git_sha'][:12]} "
             f"(seed {base['seed']})  vs  "
             f"new {new['environment']['git_sha'][:12]} (seed {new['seed']})",
             f"{'workload':<26}{'metric':<14}{'base':>12}{'new':>12}"
             f"{'new/base':>10}{'bound':>8}  verdict"]
    new_by_name = {entry["workload"]: entry for entry in new["workloads"]}
    any_worse = False
    for entry in base["workloads"]:
        other = new_by_name.get(entry["workload"])
        if other is None:
            lines.append(f"{entry['workload']:<26}missing from the new report")
            continue
        for metric in contract["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            ratio, word = verdict(a, b, metric["bound"], metric["better"])
            any_worse |= word == "worse"
            lines.append(
                f"{entry['workload']:<26}{metric['name']:<14}"
                f"{a['median']:>12.4f}{b['median']:>12.4f}{ratio:>10.3f}"
                f"{metric['bound']:>8.0%}  {word}")
        if other["failed"] > entry["failed"]:
            any_worse = True
            lines.append(f"{entry['workload']:<26}failed operations "
                         f"{entry['failed']} -> {other['failed']}  worse")
        for key in sorted(set(entry["exact"]) | set(other["exact"])):
            left, right = entry["exact"].get(key), other["exact"].get(key)
            if left != right:
                lines.append(f"{entry['workload']:<26}exact {key}: "
                             f"{left} -> {right}  differs")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    """Print the comparison table; exit 1 on any ``worse`` row."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    reports = [json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
               for path in argv]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    lines, any_worse = compare(reports[0], reports[1], contract)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
