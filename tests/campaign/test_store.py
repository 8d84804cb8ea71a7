"""Tests for the resumable JSONL result store."""

import pytest

from repro.campaign import CellRecord, ResultStore


def _record(key: str, status: str = "ok", total: float = 1.0) -> CellRecord:
    return CellRecord(key=key, spec={"kind": "sleep", "seed": 0,
                                     "params": {}, "faults": None,
                                     "group": "g"},
                      status=status,
                      result={"total": total} if status == "ok" else None,
                      meta={"wall_s": 0.1, "attempts": 1})


class TestResultStore:
    def test_append_and_load(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(_record("aaa"))
        store.append(_record("bbb"))
        loaded = store.load()
        assert set(loaded) == {"aaa", "bbb"}
        assert loaded["aaa"].ok
        assert loaded["aaa"].result == {"total": 1.0}

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "missing.jsonl").load() == {}

    def test_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(_record("aaa", status="failed"))
        store.append(_record("aaa", status="ok", total=42.0))
        loaded = store.load()
        assert loaded["aaa"].ok
        assert loaded["aaa"].result["total"] == 42.0

    def test_completed_keys_excludes_failures(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(_record("good"))
        store.append(_record("bad", status="failed"))
        assert store.completed_keys() == {"good"}

    def test_truncated_final_line_tolerated(self, tmp_path):
        # The crash-mid-write case: resume must not lose earlier records.
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(_record("aaa"))
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "bbb", "spec": {')  # interrupted write
        loaded = store.load()
        assert set(loaded) == {"aaa"}

    def test_corruption_elsewhere_raises(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.path.write_text("not json at all\n")
        store.append(_record("aaa"))
        with pytest.raises(ValueError, match="corrupt campaign store"):
            store.load()

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(_record("aaa"))
        store.clear()
        assert store.load() == {}
        store.clear()  # idempotent on a missing file
