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
``tests/test_workloads.py``.
"""

from __future__ import annotations

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
#: Distinct pseudo-words of one to three consonant-vowel syllables.
_MAX_VOCABULARY = sum((len(_CONSONANTS) * len(_VOWELS)) ** n for n in (1, 2, 3))


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


def zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    """Normalised Zipf rank weights (rank 1 most frequent)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s <= 0:
        raise ValueError("s must be positive")
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


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
    if words_per_line < 1:
        raise ValueError("words_per_line must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(vocabulary_size, rng)
    weights = zipf_weights(vocabulary_size, zipf_s)
    # Token t < vocabulary_size is word t and a space; t + vocabulary_size
    # is word t ending its line.
    table = [w + b" " for w in vocab] + [w + b"\n" for w in vocab]
    batch = max(1024, words_per_line * 64)  # part of the stream: keep it
    out = bytearray()
    drawn = 0
    while (end := out.find(b"\n", target_bytes - 1)) < 0:
        tokens = rng.choice(vocabulary_size, size=batch, p=weights)
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
