"""Microbenchmarks of the executable MapReduce runtime.

These are true repeated-timing benchmarks (the only ones here — the
simulation benches run once).  They document the real word-count
throughput of the local engine, the combiner's intermediate-data savings,
and splitter cost — the numbers behind the calibrated cost models.
"""

import collections

import pytest

from repro.runtime import FnApp, LocalRunner, split_text
from repro.runtime.apps import DistributedGrep, WordCount
from repro.workloads import generate_corpus

CORPUS = generate_corpus(400_000, seed=7)


def test_bench_wordcount_run(benchmark):
    runner = LocalRunner(WordCount(), n_maps=8, n_reducers=4)
    report = benchmark(runner.run, CORPUS)
    assert report.output == dict(collections.Counter(CORPUS.split()))
    if benchmark.stats is not None:  # no timings under --benchmark-disable
        throughput = len(CORPUS) / benchmark.stats["mean"]
        print(f"\nreal word-count throughput: {throughput / 1e6:.2f} MB/s "
              f"(simulated pc3001 model: 0.60 MB/s)")


def test_bench_wordcount_map_task(benchmark):
    runner = LocalRunner(WordCount(), n_maps=1, n_reducers=4)
    report, blobs = benchmark(runner.run_map_task, 0, CORPUS)
    assert report.records_in == CORPUS.count(b"\n")
    assert len(blobs) == 4


def test_bench_grep_run(benchmark):
    runner = LocalRunner(DistributedGrep(rb"zu"), n_maps=8, n_reducers=2)
    benchmark(runner.run, CORPUS)


def test_bench_splitter(benchmark):
    chunks = benchmark(split_text, CORPUS, 32)
    assert b"".join(chunks) == CORPUS


def test_combiner_saves_intermediate_bytes():
    plain = FnApp(lambda k, v: ((w, 1) for w in v.split()),
                  lambda k, vs: [sum(vs)], name="wc_nocombine")
    with_comb = LocalRunner(WordCount(), 8, 4).run(CORPUS)
    without = LocalRunner(plain, 8, 4).run(CORPUS)
    saving = 1 - with_comb.intermediate_bytes / without.intermediate_bytes
    print(f"\ncombiner intermediate-data saving: {saving * 100:.1f}% "
          f"({without.intermediate_bytes} -> {with_comb.intermediate_bytes} bytes)")
    assert saving > 0.5  # Zipf corpus: most map outputs collapse locally
