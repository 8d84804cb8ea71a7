"""Test oracle: ``repro.workloads.corpus.generate_corpus`` as it was before
the corpus was joined a batch at a time, kept verbatim.

It walks each drawn batch one index at a time and joins each line as it
fills.  The product generator makes the same ``rng.choice`` draws, call
for call, and joins a whole batch at once; it must return the same bytes
for every argument (``test_workloads.py``).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.corpus import make_vocabulary, zipf_weights


def generate_corpus(target_bytes: int, *, vocabulary_size: int = 2000,
                    zipf_s: float = 1.1, words_per_line: int = 12,
                    seed: int = 0) -> bytes:
    """A Zipf-distributed text corpus of roughly *target_bytes* bytes.

    Lines have ``words_per_line`` space-separated words; generation stops
    at the first line boundary at or past the target, so the result is
    within one line of the requested size.
    """
    if target_bytes < 1:
        raise ValueError("target_bytes must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(vocabulary_size, rng)
    weights = zipf_weights(vocabulary_size, zipf_s)
    out = bytearray()
    # Draw in batches to amortise RNG overhead.
    batch = max(1024, words_per_line * 64)
    line: list[bytes] = []
    while len(out) < target_bytes:
        for idx in rng.choice(vocabulary_size, size=batch, p=weights):
            line.append(vocab[int(idx)])
            if len(line) == words_per_line:
                out += b" ".join(line) + b"\n"
                line.clear()
                if len(out) >= target_bytes:
                    break
    return bytes(out)
