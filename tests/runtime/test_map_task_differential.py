"""A map task over ``app.map_chunk`` writes the blobs it always wrote.

``LocalRunner.run_map_task`` partitions the pairs of ``app.map_chunk``,
each distinct key once; word count's ``map_chunk`` counts the whole chunk
in one ``Counter`` pass.  The oracle ``reference_engine.run_map_task``
runs every record through ``map``, partitions every pair and combines
each partition in a second pass.  Hypothesis draws chunks over a small
alphabet (so keys repeat, within a line and across lines) with ASCII and
non-ASCII letters, every ASCII whitespace byte inside lines, ``\n`` and
``\r\n`` line ends, blank lines and a last line that may lack its
``\n``; a reducer count; and an app: the bundled word count, inverted
index and match count, and ``FnApp`` apps whose keys are ints and tuples,
whose maps emit two pairs per word, and whose combiners emit several
values or none.  The ``(TaskReport, blobs)`` pair must be equal.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import FnApp, LocalRunner, default_partition
from repro.runtime.apps import InvertedIndex, MatchCount, WordCount

from .reference_engine import run_map_task as reference_map_task


def _mixed_keys(offset, line):
    """Keys of several types, each word yielding two pairs."""
    for word in line.split():
        yield len(word), word
        yield ("w", word[:1].decode("latin-1")), offset


def _two_values(key, values):
    yield len(values)
    yield values[-1]


APPS = {
    "wordcount": WordCount,
    "invindex": InvertedIndex,
    "matchcount": lambda: MatchCount(rb"[ab]+c?"),
    "fn_plain": lambda: FnApp(_mixed_keys, lambda k, vs: [len(vs)]),
    "fn_combined": lambda: FnApp(_mixed_keys, lambda k, vs: [len(vs)],
                                 combine_fn=_two_values),
    "fn_none_combined": lambda: FnApp(
        lambda k, v: ((w, None) for w in v.split()), lambda k, vs: [len(vs)],
        combine_fn=lambda k, vs: iter(())),
}

# Mixed-case ASCII letters and non-ASCII bytes (0x80-0xff).
_words = st.lists(st.sampled_from(b"abcAB") | st.integers(0x80, 0xFF),
                  min_size=1, max_size=4).map(bytes)
_line = st.tuples(
    st.sampled_from([b"", b"doc1\t", b"doc2\t", b" \t"]),
    # Each word is followed by a run of ASCII whitespace.
    st.lists(st.tuples(_words, st.sampled_from(
        [b" ", b"\t", b"\r", b"\x0b", b"\x0c", b" \t\x0c"])), max_size=8),
    st.sampled_from([b"\n", b"\r\n"]))


def _join(lines):
    return b"".join(tag + b"".join(w + s for w, s in words) + end
                    for tag, words, end in lines)


_chunks = st.builds(
    lambda lines, cut_last: _join(lines)[:-1 if cut_last else None],
    st.lists(_line, max_size=12), st.booleans())


@settings(deadline=None, max_examples=300)
@given(app=st.sampled_from(sorted(APPS)), chunk=_chunks,
       n_reducers=st.integers(1, 9), map_index=st.integers(0, 40))
@example(app="wordcount", chunk=b"", n_reducers=3, map_index=0)
@example(app="fn_combined", chunk=b"a a b\na\n", n_reducers=9, map_index=1)
@example(app="wordcount", chunk=b"\xc9A a\tb\r\n\n \x0bB\xe9 a\x0c",
         n_reducers=4, map_index=2)
def test_map_task_equals_two_pass_reference(app, chunk, n_reducers, map_index):
    runner = LocalRunner(APPS[app](), n_maps=1, n_reducers=n_reducers)
    expected = reference_map_task(runner, map_index, chunk)
    assert runner.run_map_task(map_index, chunk) == expected


def test_wordcount_map_task_runs_map_chunk_alone():
    # The per-record map and combine are word count's definition, not its
    # map task: a subclass whose map and combine raise writes the same blobs.
    class ChunkOnly(WordCount):
        def map(self, key, value):
            raise AssertionError("map called")

        def combine(self, key, values):
            raise AssertionError("combine called")

    chunk = b"a B a\r\n\xe9 b\tc\n\n\x0bA\xc9 b"
    expected = reference_map_task(
        LocalRunner(WordCount(), 1, 4), 3, chunk)
    assert LocalRunner(ChunkOnly(), 1, 4).run_map_task(
        3, chunk) == expected


@pytest.mark.parametrize("combined", [True, False])
def test_each_distinct_key_partitioned_once(combined):
    calls = []
    app = WordCount() if combined else FnApp(
        lambda k, v: ((w, 1) for w in v.split()), lambda k, vs: [sum(vs)])

    def counting(key, n_reducers):
        calls.append(key)
        return default_partition(key, n_reducers)

    app.partition = counting
    report, blobs = LocalRunner(app, 1, 5).run_map_task(0, b"a b a\nb c a\n")
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
