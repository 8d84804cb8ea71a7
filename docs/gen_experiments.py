#!/usr/bin/env python
"""Render EXPERIMENTS.md's study sections from a ``paper`` campaign store.

Every study in :data:`repro.experiments.STUDIES` owns one block of
EXPERIMENTS.md, between ``<!-- study:NAME -->`` and
``<!-- /study:NAME -->``: its table, its figure and its claims, each
marked ✓ or ✗.  The blocks are rendered by
:func:`repro.analysis.render_study` from the store and from nothing
else, so no number in them is typed by hand.

Usage::

    python -m repro campaign coordinate --grid paper --out paper.jsonl
    python docs/gen_experiments.py --store paper.jsonl   # rewrite the blocks
    python docs/gen_experiments.py            # the same, running the grid
                                              # inline first (~8 s)
    python docs/gen_experiments.py --check    # exit 1 if a block is stale
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENT = REPO_ROOT / "EXPERIMENTS.md"

sys.path.insert(0, str(REPO_ROOT / "src"))


def render_document(text: str, store: str | None) -> str:
    """*text* with every study block replaced by a fresh render of
    *store* (``None`` runs the ``paper`` grid inline into a temporary
    one).  Raises ``ValueError`` unless blocks and studies match one to
    one."""
    from repro import experiments
    from repro.analysis import render_study, study_payloads
    from repro.campaign import ResultStore, run_campaign

    with tempfile.TemporaryDirectory() as scratch:
        if store is None:
            store = str(Path(scratch) / "paper.jsonl")
            run_campaign(experiments.paper_grid(), store, workers=0)
        payloads = study_payloads(ResultStore(store).load().values())
    studies = {study.name: study for study in experiments.STUDIES}
    marked = re.findall(r"<!-- study:(\w+) -->\n.*?<!-- /study:\1 -->", text,
                        re.DOTALL)
    if sorted(marked) != sorted(studies):
        raise ValueError(
            f"{DOCUMENT.name} has blocks for {sorted(marked)} but "
            f"repro.experiments.STUDIES declares {sorted(studies)}")
    return re.sub(
        r"(<!-- study:(\w+) -->\n).*?(<!-- /study:\2 -->)",
        lambda m: (m[1] + render_study(studies[m[2]], payloads[m[2]]) + "\n"
                   + m[3]),
        text, flags=re.DOTALL)


def main(argv: list[str] | None = None) -> int:
    """Rewrite (or with ``--check`` verify) EXPERIMENTS.md's study blocks."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify instead of writing; exit 1 on drift")
    parser.add_argument("--store", metavar="FILE", default=None,
                        help="render this paper-grid store instead of "
                             "running the grid inline")
    args = parser.parse_args(argv)
    current = DOCUMENT.read_text(encoding="utf-8")
    try:
        fresh = render_document(current, args.store)
    except (ValueError, OSError) as exc:
        print(f"gen_experiments: {exc}", file=sys.stderr)
        return 2
    if fresh == current:
        print(f"{DOCUMENT.name}: study blocks are fresh")
        return 0
    if args.check:
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(keepends=True), fresh.splitlines(keepends=True),
            DOCUMENT.name, f"{DOCUMENT.name} (rendered)"))
        print(f"{DOCUMENT.name}: study blocks are stale — run "
              "python docs/gen_experiments.py")
        return 1
    DOCUMENT.write_text(fresh, encoding="utf-8")
    print(f"{DOCUMENT.name}: study blocks rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
