"""Unit tests for input splitting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import iter_records, split_text
from repro.runtime.splitter import count_records


class TestSplitText:
    def test_reassembles_exactly(self):
        data = b"alpha beta\ngamma\ndelta epsilon zeta\neta\n"
        for n in (1, 2, 3, 4, 10):
            assert b"".join(split_text(data, n)) == data

    def test_no_chunk_starts_mid_line(self):
        data = b"".join(f"line{i:04d} word word\n".encode() for i in range(100))
        chunks = split_text(data, 7)
        for chunk in chunks:
            if chunk:
                assert chunk.startswith(b"line")
                assert chunk.endswith(b"\n")

    def test_word_multiset_preserved(self):
        data = b"the quick brown fox\njumps over\nthe lazy dog\n" * 50
        words_before = sorted(data.split())
        chunks = split_text(data, 9)
        words_after = sorted(w for c in chunks for w in c.split())
        assert words_before == words_after

    def test_missing_trailing_newline(self):
        data = b"one two\nthree four"
        chunks = split_text(data, 2)
        assert b"".join(chunks) == data

    def test_giant_single_line(self):
        data = b"x" * 1000 + b"\n"
        chunks = split_text(data, 4)
        assert b"".join(chunks) == data
        # The whole record lands in one chunk.
        assert sum(1 for c in chunks if c) == 1

    def test_empty_input(self):
        chunks = split_text(b"", 3)
        assert b"".join(chunks) == b""
        assert len(chunks) == 3

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            split_text(b"x", 0)


class TestIterRecords:
    def test_offsets_and_records(self):
        chunk = b"aa\nbbb\nc\n"
        records = list(iter_records(chunk))
        assert records == [(0, b"aa"), (3, b"bbb"), (7, b"c")]

    def test_no_trailing_delimiter(self):
        assert list(iter_records(b"ab\ncd")) == [(0, b"ab"), (3, b"cd")]

    def test_empty(self):
        assert list(iter_records(b"")) == []

    def test_empty_lines_preserved(self):
        assert list(iter_records(b"a\n\nb\n")) == [(0, b"a"), (2, b""), (3, b"b")]

    @given(st.binary(max_size=64) | st.text("a\n\r ", max_size=32).map(str.encode))
    def test_count_records_equals_iter_records(self, chunk):
        assert count_records(chunk) == len(list(iter_records(chunk)))
