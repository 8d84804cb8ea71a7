"""A map task that groups while it maps writes the blobs it always wrote.

``LocalRunner.run_map_task`` partitions each distinct key once and, with
a combiner, groups values by key as they are emitted; the oracle
``reference_engine.run_map_task`` partitions every pair and groups each
partition in a second pass.  Hypothesis draws chunks over a small
alphabet (so keys repeat, within a line and across lines), a reducer
count and an app: the bundled word count, inverted index and match count,
and ``FnApp`` apps whose keys are ints and tuples, whose maps emit two
pairs per word, and whose combiners emit several values or none.  The
``(TaskReport, blobs)`` pair must be equal.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import FnApp, LocalRunner
from repro.runtime.apps import InvertedIndex, MatchCount, WordCount

from .reference_engine import run_map_task as reference_map_task


def _mixed_keys(offset, line):
    """Keys of several types, each word yielding two pairs."""
    for word in line.split():
        yield len(word), word
        yield ("w", word[:1].decode()), offset


def _two_values(key, values):
    yield len(values)
    yield values[-1]


APPS = {
    "wordcount": WordCount,
    "wordcount_lower": lambda: WordCount(lowercase=True),
    "invindex": InvertedIndex,
    "matchcount": lambda: MatchCount(rb"[ab]+c?"),
    "fn_plain": lambda: FnApp(_mixed_keys, lambda k, vs: [len(vs)]),
    "fn_combined": lambda: FnApp(_mixed_keys, lambda k, vs: [len(vs)],
                                 combine_fn=_two_values),
    "fn_none_combined": lambda: FnApp(
        lambda k, v: ((w, None) for w in v.split()), lambda k, vs: [len(vs)],
        combine_fn=lambda k, vs: iter(())),
}

_words = st.text("abcAB", min_size=1, max_size=4)
_lines = st.lists(
    st.tuples(st.sampled_from(["", "doc1\t", "doc2\t"]),
              st.lists(_words, max_size=8)),
    max_size=12)


@settings(deadline=None, max_examples=200)
@given(app=st.sampled_from(sorted(APPS)), lines=_lines,
       n_reducers=st.integers(1, 9), map_index=st.integers(0, 40))
@example(app="wordcount", lines=[], n_reducers=3, map_index=0)
@example(app="fn_combined", lines=[("", ["a", "a", "b"]), ("", ["a"])],
         n_reducers=9, map_index=1)
def test_map_task_equals_two_pass_reference(app, lines, n_reducers, map_index):
    chunk = "".join(tag + " ".join(words) + "\n"
                    for tag, words in lines).encode()
    runner = LocalRunner(APPS[app](), n_maps=1, n_reducers=n_reducers)
    expected = reference_map_task(runner, map_index, chunk)
    assert runner.run_map_task(map_index, chunk) == expected


@pytest.mark.parametrize("combined", [True, False])
def test_each_distinct_key_partitioned_once(combined):
    calls = []

    class Counting(WordCount):
        if not combined:
            combine = None

        def partition(self, key, n_reducers):
            calls.append(key)
            return super().partition(key, n_reducers)

    report, blobs = LocalRunner(Counting(), 1, 5).run_map_task(
        0, b"a b a\nb c a\n")
    assert sorted(calls) == [b"a", b"b", b"c"]
    pairs = [pair for blob in blobs.values() for pair in pickle.loads(blob)]
    if combined:
        assert report.records_out == 3
        assert sorted(pairs) == [(b"a", 3), (b"b", 2), (b"c", 1)]
    else:
        assert report.records_out == 6
        assert sorted(pairs) == [(b"a", 1)] * 3 + [(b"b", 1)] * 2 + [(b"c", 1)]


@pytest.mark.parametrize("combine", [None, lambda k, vs: [len(vs)]])
def test_unhashable_key_fails_at_map_time(combine):
    # The reduce side groups keys in a dict, so a key always had to be
    # hashable; a map task now says so itself.
    app = FnApp(lambda k, v: [([1], v)], lambda k, vs: [len(vs)],
                combine_fn=combine)
    with pytest.raises(TypeError, match="unhashable"):
        LocalRunner(app, 1, 2).run_map_task(0, b"x\n")
