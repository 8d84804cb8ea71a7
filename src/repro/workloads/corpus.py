"""Synthetic text corpora for the word-count / grep / index examples.

The paper used an unspecified 1 GB text file; natural-language word
frequencies are famously Zipfian, and word-count behaviour (distinct-word
counts, intermediate data skew across reducers) depends on that shape, so
the generator draws words from a Zipf(s) distribution over a synthetic
vocabulary.  Fully deterministic under the seed.

The words are drawn a batch at a time and each batch is joined in one
call, through a table holding every word twice: once followed by a space,
once by the newline that ends a line.  The draws are call for call the
ones a word-at-a-time loop makes, so the bytes are too; the 1 MB corpus
the benchmarks count words in is pinned by digest in
``tests/test_workloads.py``.  The letters and words are bulk draws
mapped as ``rng.integers`` and ``rng.choice`` map theirs: the same bytes,
and the same generator state, without their per-call overhead.
"""

from __future__ import annotations

import itertools

import numpy as np
# With this module, not on the first draw: a built gateway server holds
# its job plane, so no request to it imports a module.
from numpy.random import default_rng

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
#: Distinct pseudo-words of one to three consonant-vowel syllables.
_MAX_VOCABULARY = sum((len(_CONSONANTS) * len(_VOWELS)) ** n for n in (1, 2, 3))
#: The corpus shape :func:`generate_corpus` draws: distinct words, the
#: Zipf exponent of their frequencies, and words per line.
VOCABULARY_SIZE, ZIPF_S, WORDS_PER_LINE = 2000, 1.1, 12


def make_vocabulary(size: int, rng: np.random.Generator) -> list[bytes]:
    """Pronounceable unique pseudo-words, deterministic under *rng*: each
    ``rng.integers(n)`` call it stands for maps one 32-bit word by numpy's
    bounded (Lemire) method, here from bulk draws; then *rng* is rewound
    and advanced by the words used."""
    if size < 1:
        raise ValueError("vocabulary size must be >= 1")
    if size > _MAX_VOCABULARY:
        raise ValueError(f"vocabulary size must be <= {_MAX_VOCABULARY}")
    saved = rng.bit_generator.state
    stream = (word for _ in itertools.count() for word in rng.integers(
        0, 2**32, size=min(8 * size, 1 << 16), dtype=np.uint32).tolist())
    used = 0

    def below(n: int) -> int:
        """What ``int(rng.integers(n))`` returns, from the stream."""
        nonlocal used
        while True:
            used += 1
            m = next(stream) * n
            if m & 0xFFFFFFFF >= (2**32 - n) % n:
                return m >> 32

    vocab: list[bytes] = []
    seen: set[bytes] = set()
    while len(vocab) < size:
        n_syll = 1 + below(3)
        word = "".join(
            _CONSONANTS[below(len(_CONSONANTS))] + _VOWELS[below(len(_VOWELS))]
            for _ in range(n_syll)
        ).encode()
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    rng.bit_generator.state = saved
    rng.integers(0, 2**32, size=used, dtype=np.uint32)
    return vocab


def zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    """Normalised Zipf rank weights (rank 1 most frequent)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s <= 0:
        raise ValueError("s must be positive")
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


def generate_corpus(target_bytes: int, *, seed: int = 0) -> bytes:
    """A Zipf-distributed text corpus of roughly *target_bytes* bytes.

    :data:`VOCABULARY_SIZE` words at Zipf exponent :data:`ZIPF_S`; lines
    have :data:`WORDS_PER_LINE` space-separated words, and generation
    stops at the first line boundary at or past the target, so the
    result is within one line of the requested size.
    """
    vocabulary_size, zipf_s = VOCABULARY_SIZE, ZIPF_S
    words_per_line = WORDS_PER_LINE
    if target_bytes < 1:
        raise ValueError("target_bytes must be >= 1")
    if words_per_line < 1:
        raise ValueError("WORDS_PER_LINE must be >= 1")
    rng = default_rng(seed)
    vocab = make_vocabulary(vocabulary_size, rng)
    # What rng.choice(vocabulary_size, p=weights) builds on every call.
    cdf = zipf_weights(vocabulary_size, zipf_s).cumsum()
    cdf /= cdf[-1]
    # Token t < vocabulary_size is word t and a space; t + vocabulary_size
    # is word t ending its line.
    table = [w + b" " for w in vocab] + [w + b"\n" for w in vocab]
    batch = max(1024, words_per_line * 64)  # part of the stream: keep it
    out = bytearray()
    drawn = 0
    while (end := out.find(b"\n", target_bytes - 1)) < 0:
        tokens = cdf.searchsorted(rng.random(batch), side="right")
        tokens[(words_per_line - 1 - drawn) % words_per_line::words_per_line] \
            += vocabulary_size
        drawn += batch
        out += b"".join(map(table.__getitem__, tokens.tolist()))
    del out[end + 1:]
    return bytes(out)


def tag_documents(corpus: bytes, n_docs: int) -> bytes:
    """Rewrite a corpus as ``doc_id<TAB>line`` records for inverted-index runs."""
    if n_docs < 1:
        raise ValueError("n_docs must be >= 1")
    lines = corpus.splitlines()
    out = bytearray()
    for i, line in enumerate(lines):
        doc = f"doc{(i * n_docs) // max(len(lines), 1):04d}".encode()
        out += doc + b"\t" + line + b"\n"
    return bytes(out)
