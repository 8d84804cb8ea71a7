"""Benchmark: regenerate Table I (word-count makespan grid).

Prints the full reproduction table next to the published values.  The
paper's relational claims about it (totals and phase means in band,
discard-slowest <= raw, BOINC-MR reduce faster than vanilla with a
comparable total, map phase dominant) are tier-1 tests:
``tests/test_experiments.py::TestTable1PaperClaims``.
"""

from repro.experiments import PAPER_TABLE1, run_table1
from repro.experiments.table1 import render


def test_table1_full_grid(run_once, benchmark):
    records = run_once(benchmark, run_table1, PAPER_TABLE1, seed=1)
    print()
    print(render(records))
