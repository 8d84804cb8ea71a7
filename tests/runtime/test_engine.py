"""Unit tests for the local MapReduce engine and bundled apps."""

import collections

import pytest

from repro.runtime import LocalRunner, MapReduceApp, default_partition
from repro.runtime.apps import InvertedIndex, MatchCount, WordCount
from repro.workloads import generate_corpus, tag_documents

TEXT = b"the quick brown fox jumps over the lazy dog\nthe dog barks loudly\n" * 40


class PlainCount(MapReduceApp):
    """Word count without a combiner."""

    def map(self, offset, line):
        return ((w, 1) for w in line.split())

    def reduce(self, key, values):
        return [sum(values)]


class TestPartitioner:
    def test_deterministic(self):
        assert default_partition(b"word", 5) == default_partition(b"word", 5)

    def test_in_range(self):
        for key in (b"a", b"zz", "unicode", 42, ("tuple", 1)):
            assert 0 <= default_partition(key, 7) < 7

    def test_roughly_uniform(self):
        counts = collections.Counter(
            default_partition(f"key{i}".encode(), 4) for i in range(4000))
        for c in counts.values():
            assert 800 < c < 1200

    def test_invalid_reducers(self):
        with pytest.raises(ValueError):
            default_partition(b"x", 0)


class TestWordCount:
    def test_matches_counter_ground_truth(self):
        runner = LocalRunner(WordCount(), n_maps=5, n_reducers=3)
        report = runner.run(TEXT)
        assert report.output == dict(collections.Counter(TEXT.split()))

    def test_single_map_single_reduce(self):
        runner = LocalRunner(WordCount(), n_maps=1, n_reducers=1)
        report = runner.run(b"a b a\n")
        assert report.output == {b"a": 2, b"b": 1}

    def test_result_independent_of_geometry(self):
        outputs = []
        for n_maps, n_red in [(1, 1), (4, 2), (16, 5), (7, 3)]:
            runner = LocalRunner(WordCount(), n_maps=n_maps, n_reducers=n_red)
            outputs.append(runner.run(TEXT).output)
        assert all(o == outputs[0] for o in outputs)

    def test_combiner_shrinks_intermediate(self):
        plain = PlainCount()
        with_comb = LocalRunner(WordCount(), 4, 2).run(TEXT)
        no_comb = LocalRunner(plain, 4, 2).run(TEXT)
        assert with_comb.output == no_comb.output
        assert with_comb.intermediate_bytes < no_comb.intermediate_bytes
        # On the Zipf corpus the cost models are calibrated from, most map
        # outputs collapse locally: more than half the bytes are saved.
        zipf = generate_corpus(400_000, seed=7)
        saving = 1 - (LocalRunner(WordCount(), 8, 4).run(zipf).intermediate_bytes
                      / LocalRunner(plain, 8, 4).run(zipf).intermediate_bytes)
        assert saving > 0.5

    def test_task_reports(self):
        runner = LocalRunner(WordCount(), n_maps=4, n_reducers=2)
        report = runner.run(TEXT)
        maps = [t for t in report.tasks if t.kind == "map"]
        assert len(maps) == 4
        assert sum(t.kind == "reduce" for t in report.tasks) == 2
        assert sum(t.bytes_in for t in maps) == len(TEXT)
        assert all(t.records_in > 0 for t in maps)

    def test_empty_input(self):
        report = LocalRunner(WordCount(), 3, 2).run(b"")
        assert report.output == {}


class TestGrep:
    def test_grep_no_match(self):
        runner = LocalRunner(MatchCount(rb"zebra"), 4, 2)
        assert runner.run(TEXT).output == {}

    def test_matchcount(self):
        runner = LocalRunner(MatchCount(rb"dog"), 4, 2)
        report = runner.run(TEXT)
        assert report.output == {b"dog": 80}

    def test_grep_intermediate_smaller_than_wordcount(self):
        g = LocalRunner(MatchCount(rb"barks"), 4, 2).run(TEXT)
        w = LocalRunner(PlainCount(), 4, 2).run(TEXT)
        assert g.intermediate_bytes < w.intermediate_bytes


class TestInvertedIndex:
    def test_postings(self):
        data = tag_documents(b"alpha beta\nbeta gamma\nalpha\n", n_docs=3)
        report = LocalRunner(InvertedIndex(), 2, 2).run(data)
        postings = report.output
        assert postings[b"beta"] == sorted(set(postings[b"beta"]))
        docs_with_alpha = postings[b"alpha"]
        assert len(docs_with_alpha) >= 1

    def test_untagged_lines_use_offsets(self):
        report = LocalRunner(InvertedIndex(), 1, 1).run(b"x y\nx\n")
        assert set(report.output[b"x"]) == {b"0", b"4"}
