"""Unit tests for corpus generation."""

import collections
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gateway.jobs import canonical_payload
from repro.runtime import LocalRunner
from repro.runtime.apps import InvertedIndex, WordCount
from repro.runtime.splitter import split_text
from repro.workloads import corpus as corpus_module
from repro.workloads import generate_corpus, make_vocabulary, tag_documents, zipf_weights

from . import reference_corpus


class TestVocabulary:
    def test_size_and_uniqueness(self):
        vocab = make_vocabulary(500, np.random.default_rng(0))
        assert len(vocab) == 500
        assert len(set(vocab)) == 500

    def test_deterministic(self):
        a = make_vocabulary(100, np.random.default_rng(1))
        b = make_vocabulary(100, np.random.default_rng(1))
        assert a == b

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_vocabulary(0, np.random.default_rng(0))

    def test_more_words_than_exist_refused(self):
        # 18 consonants x 5 vowels, one to three syllables: 90 + 90**2 +
        # 90**3 distinct words.  One more could never be drawn.
        with pytest.raises(ValueError, match="<= 737190"):
            make_vocabulary(737_191, np.random.default_rng(0))


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(100)
        assert w.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, s=1.2)
        assert all(w[i] >= w[i + 1] for i in range(49))

    def test_invalid(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, s=0)


class TestCorpus:
    def test_size_close_to_target(self):
        corpus = generate_corpus(50_000, seed=0)
        assert 50_000 <= len(corpus) <= 50_000 + 200

    def test_deterministic(self):
        assert generate_corpus(10_000, seed=4) == generate_corpus(10_000, seed=4)

    def test_seeds_differ(self):
        assert generate_corpus(10_000, seed=1) != generate_corpus(10_000, seed=2)

    def test_line_structure(self, pin):
        pin(corpus_module, WORDS_PER_LINE=8)
        corpus = generate_corpus(20_000, seed=0)
        lines = corpus.splitlines()
        assert all(len(line.split()) == 8 for line in lines)
        assert corpus.endswith(b"\n")

    def test_zipf_skew_visible(self, pin):
        pin(corpus_module, VOCABULARY_SIZE=1000)
        corpus = generate_corpus(200_000, seed=0)
        counts = collections.Counter(corpus.split()).most_common()
        top_share = sum(c for _w, c in counts[:10]) / sum(c for _w, c in counts)
        assert top_share > 0.2  # heavy head, as in natural language

    def test_vocabulary_respected(self, pin):
        pin(corpus_module, VOCABULARY_SIZE=50)
        corpus = generate_corpus(30_000, seed=0)
        assert len(set(corpus.split())) <= 50

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            generate_corpus(0)

    @pytest.mark.parametrize("words_per_line", [0, -3])
    def test_invalid_words_per_line(self, words_per_line, pin):
        # A line that can never fill used to grow without bound.
        pin(corpus_module, WORDS_PER_LINE=words_per_line)
        with pytest.raises(ValueError, match="WORDS_PER_LINE must be >= 1"):
            generate_corpus(100)

    def test_one_word_lines(self, pin):
        pin(corpus_module, WORDS_PER_LINE=1)
        corpus = generate_corpus(5_000, seed=3)
        assert all(len(line.split()) == 1 for line in corpus.splitlines())


@settings(deadline=None, max_examples=60)
@given(target_bytes=st.integers(1, 300_000),
       vocabulary_size=st.integers(1, 3_000),
       words_per_line=st.integers(1, 200),
       zipf_s=st.sampled_from([0.5, 1.1, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(target_bytes=1, vocabulary_size=1, words_per_line=1, zipf_s=1.1, seed=0)
@example(target_bytes=7_200, vocabulary_size=2000, words_per_line=200,
         zipf_s=0.5, seed=5)
def test_corpus_equals_word_at_a_time_reference(target_bytes, vocabulary_size,
                                                words_per_line, zipf_s, seed):
    """The batch-joined corpus is byte for byte the word-at-a-time one."""
    shape = dict(VOCABULARY_SIZE=vocabulary_size, ZIPF_S=zipf_s,
                 WORDS_PER_LINE=words_per_line)
    with mock.patch.multiple(corpus_module, **shape):
        corpus = generate_corpus(target_bytes, seed=seed)
    assert corpus == reference_corpus.generate_corpus(
        target_bytes, vocabulary_size=vocabulary_size, zipf_s=zipf_s,
        words_per_line=words_per_line, seed=seed)


@settings(deadline=None, max_examples=60)
@given(size=st.one_of(st.integers(1, 100), st.integers(1, 3_000),
                      st.integers(1, 20_000)),
       seed=st.integers(0, 2**32 - 1),
       earlier_words=st.integers(0, 5),
       earlier_doubles=st.integers(0, 2))
@example(size=1, seed=0, earlier_words=0, earlier_doubles=0)
@example(size=2000, seed=1, earlier_words=1, earlier_doubles=0)
@example(size=8100, seed=7, earlier_words=3, earlier_doubles=1)
def test_vocabulary_equals_scalar_draw_reference(size, seed, earlier_words,
                                                 earlier_doubles):
    """The bulk-drawn vocabulary is the scalar-drawn one, and the generator
    ends in the same state, pending half-word included (an odd number of
    earlier ``uint32`` draws leaves one).  Sizes stop at 20,000: the
    scalar oracle takes a second there, and the coupon-collector tail
    makes one near ``_MAX_VOCABULARY`` take hours."""
    rngs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        rng.integers(0, 2**32, size=earlier_words, dtype=np.uint32)
        rng.random(earlier_doubles)
        rngs.append(rng)
    product, oracle = rngs
    assert (make_vocabulary(size, product)
            == reference_corpus.make_vocabulary(size, oracle))
    assert product.bit_generator.state == oracle.bit_generator.state


class TestPinnedBytes:
    """The 1 MB word-count input and what the engine makes of it, pinned
    across commits: the corpus, every map blob of a 32 x 8 run
    (concatenated task by task, reducer by reducer) and the
    ``canonical_payload`` of its output."""

    CORPUS = "5795799c3eecf85fb43d4a1bfaa40de3e184d8424679c09ae32f15cf7ebd8234"
    RUNS = {
        "wordcount": (
            "27b5503078302ce716601a604bc85b7c8208f54662b22fd512ad1fd970a7a581",
            "acd9530487579ae1be0cf516edea45fb84ee8a9b49bce573990cf15e1fc5a40c"),
        "invindex": (
            "8340a4d664b0ceed3c28ef935d9c829347e1bd2283350c38cb113fb47f6a2f73",
            "caea8dc22677672073d4df41cb14a52cdccc2e8834b5c2d6942cd8ee7ec9353f"),
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(1_000_000, seed=1)

    def test_corpus(self, corpus):
        assert len(corpus) == 1_000_054
        assert hashlib.sha256(corpus).hexdigest() == self.CORPUS

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_map_blobs_and_output(self, corpus, name):
        app, data = ((WordCount(), corpus) if name == "wordcount"
                     else (InvertedIndex(), tag_documents(corpus, 16)))
        runner = LocalRunner(app, 32, 8)
        blobs = hashlib.sha256()
        for i, chunk in enumerate(split_text(data, 32)):
            _report, task_blobs = runner.run_map_task(i, chunk)
            for r in sorted(task_blobs):
                blobs.update(task_blobs[r])
        output = canonical_payload(runner.run(data).output)
        assert (blobs.hexdigest(), hashlib.sha256(output).hexdigest()) \
            == self.RUNS[name]


class TestTagDocuments:
    def test_tab_separated(self):
        tagged = tag_documents(b"a b\nc d\ne f\ng h\n", n_docs=2)
        lines = tagged.splitlines()
        assert len(lines) == 4
        assert all(b"\t" in line for line in lines)
        docs = {line.split(b"\t")[0] for line in lines}
        assert len(docs) == 2

    def test_invalid_docs(self):
        with pytest.raises(ValueError):
            tag_documents(b"x\n", 0)
