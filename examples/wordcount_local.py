#!/usr/bin/env python3
"""Run the *real* word-count application on real bytes (proof of concept).

Generates a Zipf-distributed text corpus, splits it into chunks exactly as
the BOINC-MR server splits its 1 GB input, runs the actual map ->
hash-partition -> reduce pipeline, verifies
the result against ``collections.Counter``, and demonstrates the
replication/quorum idea on real outputs: two independent executions of the
same chunk produce byte-identical partitions (what BOINC's validator
compares), while a corrupted execution does not.

Run:  python examples/wordcount_local.py [corpus_bytes]
"""

import collections
import pickle
import sys
import time

from repro.runtime import LocalRunner
from repro.runtime.apps import WordCount
from repro.workloads import generate_corpus


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    print(f"generating {size / 1e6:.1f} MB Zipf corpus ...")
    corpus = generate_corpus(size, seed=42)

    runner = LocalRunner(WordCount(), n_maps=16, n_reducers=4)
    t0 = time.perf_counter()
    report = runner.run(corpus)
    elapsed = time.perf_counter() - t0

    truth = collections.Counter(corpus.split())
    assert report.output == dict(truth), "MapReduce result != ground truth"

    total_words = sum(truth.values())
    print(f"counted {total_words} words ({len(truth)} distinct) "
          f"in {elapsed:.2f}s -> {len(corpus) / elapsed / 1e6:.1f} MB/s")
    print(f"intermediate data: {report.intermediate_bytes / 1e3:.1f} kB across "
          f"{len(report.partition_bytes)} (mapper, reducer) partition files")
    top = truth.most_common(5)
    print("top words:", ", ".join(f"{w.decode()}={c}" for w, c in top))

    # --- replication & quorum on real outputs -----------------------------
    chunk = corpus[: len(corpus) // 16]
    _r1, replica_a = runner.run_map_task(0, chunk)
    _r2, replica_b = runner.run_map_task(0, chunk)
    assert all(replica_a[r] == replica_b[r] for r in replica_a), \
        "independent replicas must be byte-identical"
    print("replication check: two executions of the same map task are "
          "byte-identical (quorum of 2 would validate)")

    corrupt = dict(replica_a)
    pairs = pickle.loads(corrupt[0])
    if pairs:
        pairs[0] = (pairs[0][0], pairs[0][1] + 1)  # byzantine +1
    corrupt[0] = pickle.dumps(pairs)
    assert corrupt[0] != replica_b[0]
    print("byzantine check: a tampered replica no longer matches "
          "(quorum rejects it)")


if __name__ == "__main__":
    main()
