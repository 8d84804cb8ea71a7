"""Test oracle: ``repro.workloads.corpus.generate_corpus`` as it was before
the corpus was joined a batch at a time, and ``make_vocabulary`` as it
was before its letters came from bulk draws, both kept verbatim.

The generator walks each ``rng.choice`` batch one index at a time and
joins each line as it fills; the vocabulary makes one scalar
``rng.integers`` call per letter.  The product functions draw in bulk
and join a whole batch at once; they must return the same bytes, and
leave the generator in the same state, for every argument
(``test_workloads.py``).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.corpus import (
    _CONSONANTS,
    _MAX_VOCABULARY,
    _VOWELS,
    zipf_weights,
)


def make_vocabulary(size: int, rng: np.random.Generator) -> list[bytes]:
    """Pronounceable unique pseudo-words, deterministic under *rng*."""
    if size < 1:
        raise ValueError("vocabulary size must be >= 1")
    if size > _MAX_VOCABULARY:
        raise ValueError(f"vocabulary size must be <= {_MAX_VOCABULARY}")
    vocab: list[bytes] = []
    seen: set[bytes] = set()
    while len(vocab) < size:
        n_syll = int(rng.integers(1, 4))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syll)
        ).encode()
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


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
