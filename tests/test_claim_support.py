"""Each claim holds at a pinned set of seeds: a model change shows which
verdicts it moves.

The golden digests pin bytes, and the tie-order and knock-out oracles
check each study at its documented seed only.  A change that moves a
payload needs a third answer: did it move a result?  :data:`PARTIAL`
answers it.  Every claim of every study in ``STUDIES`` holds at each
seed of :data:`SEEDS`, except those listed there, which hold at exactly
the seeds given.  A change to this table is a reviewed line in the diff,
never a side effect.

The whole table costs one run of every study at ten seeds (about 25 s
on two vCPUs), so the tier-1 run checks it at :data:`TIER1_SEEDS` and
the script checks it at every seed (a CI step)::

    PYTHONPATH=src python tests/test_claim_support.py

The script also prints one digest per (study, seed) payload set, so a
change that moves payloads can name the studies and seeds it moved by
diffing the output at the parent and at the change.
"""

from __future__ import annotations

import hashlib
import sys
import typing as _t

import pytest

from repro.experiments import STUDIES, Study
from repro.wire import canonical_json

#: The seeds the table covers.
SEEDS = range(1, 11)
#: The seeds the tier-1 run sweeps.
TIER1_SEEDS = range(1, 4)

#: Claims that do not hold at every seed of :data:`SEEDS`, as
#: ``study:index`` in ``STUDIES`` order: the seeds at which they hold.
PARTIAL: dict[str, frozenset[int]] = {
    "table1:2": frozenset(SEEDS) - {5, 10},
    "fig4:0": frozenset({1}),
    "nat:2": frozenset(SEEDS) - {9},
    "adaptive:1": frozenset(SEEDS) - {10},
}


def support(key: str) -> frozenset[int]:
    """The seeds of :data:`SEEDS` at which claim *key* holds."""
    return PARTIAL.get(key, frozenset(SEEDS))


def run_study(study: Study, seed: int) -> dict[str, dict[str, _t.Any]]:
    """Every variant of *study* at *seed*."""
    return {name: run(seed=seed) for name, run in study.variants.items()}


def sweep(seeds: _t.Iterable[int]) -> dict[tuple[str, int], dict]:
    """``(study, seed) -> payloads`` for every study at each of *seeds*."""
    return {(study.name, seed): run_study(study, seed)
            for study in STUDIES for seed in seeds}


def held(payloads: dict[tuple[str, int], dict], study: Study, n: int,
         seeds: _t.Iterable[int]) -> frozenset[int]:
    """The seeds of *seeds* at which claim *n* of *study* holds."""
    return frozenset(seed for seed in seeds
                     if study.claims[n].holds(payloads[study.name, seed]))


def _claims():
    for study in STUDIES:
        for n in range(len(study.claims)):
            yield pytest.param(study, n, id=f"{study.name}:{n}")


@pytest.fixture(scope="module")
def payloads():
    return sweep(TIER1_SEEDS)


def test_every_partial_claim_exists():
    keys = {f"{study.name}:{n}" for study in STUDIES
            for n in range(len(study.claims))}
    assert set(PARTIAL) <= keys
    assert all(seeds < frozenset(SEEDS) for seeds in PARTIAL.values())


@pytest.mark.parametrize("study,n", _claims())
def test_claim_holds_at_exactly_its_pinned_seeds(study, n, payloads):
    key = f"{study.name}:{n}"
    assert held(payloads, study, n, TIER1_SEEDS) == (
        support(key) & frozenset(TIER1_SEEDS)), study.claims[n].text


def main() -> int:
    """Sweep every study at :data:`SEEDS`, print each payload set's
    digest, and check the whole table; 1 if a claim's seeds moved."""
    payloads = sweep(SEEDS)
    for (name, seed), found in payloads.items():
        digest = hashlib.sha256(canonical_json(found).encode()).hexdigest()
        print(f"{name}@{seed} {digest[:16]}")
    moved = 0
    for study in STUDIES:
        for n in range(len(study.claims)):
            key = f"{study.name}:{n}"
            seeds = held(payloads, study, n, SEEDS)
            if seeds != support(key):
                moved += 1
                print(f"MOVED {key}: holds at {sorted(seeds)}, pinned "
                      f"{sorted(support(key))}")
    print(f"{moved} claim(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
