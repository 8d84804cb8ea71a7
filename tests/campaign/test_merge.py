"""Property tests for multi-writer result-store merging.

The distributed campaign's crash model: several workers append to
per-worker shards, any of them may be SIGKILLed mid-append (leaving a
torn trailing line), records may be duplicated across shards
(reclaimed-then-completed leases), and the same key may carry both
failed attempts and a final success.  :func:`merge_stores` must fold
any such pile back into one store whose ``load()`` view is exactly the
ok-beats-failed / last-record-wins resolution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CellRecord, ResultStore, diff_stores, merge_stores


def _record(key: str, ok: bool, value: int) -> CellRecord:
    return CellRecord(
        key=key, spec={"kind": "sleep", "seed": 0, "params": {},
                       "faults": None, "group": "g"},
        status="ok" if ok else "failed",
        result={"value": value} if ok else None,
        meta={"wall_s": 0.1, "attempts": 1,
              **({} if ok else {"error": "boom"})})


# One shard-event: (key index, shard index, succeeded?).  Values are
# assigned sequentially so every record is distinguishable and "which
# record won" is decidable.
_events = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3), st.booleans()),
    min_size=1, max_size=40)


def _write_shards(tmp_path, events, torn=()):
    shards = [ResultStore(tmp_path / f"shard-{i}.jsonl") for i in range(4)]
    for seq, (key_i, shard_i, ok) in enumerate(events):
        shards[shard_i].append(_record(f"k{key_i}", ok, seq))
    for shard_i in torn:
        shards[shard_i].path.parent.mkdir(exist_ok=True)
        with shards[shard_i].path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "torn", "spec"')  # killed mid-append
    return shards


def _expected(events):
    """Reference fold: ok beats failed, later-encountered wins otherwise.

    Iteration order matches the merge's: shard by shard, records in
    file (= event) order within each shard.
    """
    best = {}
    for shard_i in range(4):
        for seq, (key_i, si, ok) in enumerate(events):
            if si != shard_i:
                continue
            key = f"k{key_i}"
            current = best.get(key)
            if current is None or ok or not current[0]:
                best[key] = (ok, seq)
    return best


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(events=_events)
    def test_merge_matches_reference_fold(self, tmp_path_factory, events):
        tmp_path = tmp_path_factory.mktemp("merge")
        shards = _write_shards(tmp_path, events)
        merged = merge_stores(tmp_path / "out.jsonl", shards)
        expected = _expected(events)
        assert set(merged) == set(expected)
        for key, (ok, seq) in expected.items():
            assert merged[key].ok == ok
            if ok:
                assert merged[key].result == {"value": seq}

    @settings(max_examples=60, deadline=None)
    @given(events=_events,
           torn=st.sets(st.integers(0, 3), max_size=4))
    def test_torn_tails_never_change_the_outcome(self, tmp_path_factory,
                                                 events, torn):
        tmp_path = tmp_path_factory.mktemp("merge")
        clean = merge_stores(
            tmp_path / "clean.jsonl", _write_shards(tmp_path, events))
        torn_merge = merge_stores(
            tmp_path / "torn.jsonl",
            _write_shards(tmp_path / "t", events, torn=torn))
        assert set(clean) == set(torn_merge)
        assert diff_stores(tmp_path / "clean.jsonl",
                           tmp_path / "torn.jsonl") == []

    @settings(max_examples=60, deadline=None)
    @given(events=_events)
    def test_merged_store_roundtrips_through_load(self, tmp_path_factory,
                                                  events):
        # Writing the merged store and loading it back must resolve to
        # the same mapping merge_stores returned (the audit-trail failed
        # records it emits must lose last-record-wins).
        tmp_path = tmp_path_factory.mktemp("merge")
        merged = merge_stores(
            tmp_path / "out.jsonl", _write_shards(tmp_path, events))
        loaded = ResultStore(tmp_path / "out.jsonl").load()
        assert set(loaded) == set(merged)
        for key, record in merged.items():
            assert loaded[key].status == record.status
            assert loaded[key].result == record.result


class TestMergeRefusals:
    def test_refuses_to_merge_into_a_shard(self, tmp_path):
        shard = ResultStore(tmp_path / "shard.jsonl")
        shard.append(_record("k0", True, 1))
        with pytest.raises(ValueError, match="itself"):
            merge_stores(tmp_path / "shard.jsonl", [shard])

    def test_mid_file_corruption_refused(self, tmp_path):
        shard = ResultStore(tmp_path / "shard.jsonl")
        shard.path.write_text("garbage not json\n")
        shard.append(_record("k0", True, 1))
        with pytest.raises(ValueError, match="corrupt campaign store"):
            merge_stores(tmp_path / "out.jsonl", [shard])

    def test_missing_shard_is_empty_not_an_error(self, tmp_path):
        merged = merge_stores(tmp_path / "out.jsonl",
                              [tmp_path / "never-written.jsonl"])
        assert merged == {}

    def test_failed_audit_record_precedes_the_success(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        a.append(_record("k0", False, 0))    # killed worker's attempt
        b.append(_record("k0", True, 1))     # the retry that landed
        merge_stores(tmp_path / "out.jsonl", [b, a])  # order must not matter
        records = ResultStore(tmp_path / "out.jsonl").records()
        assert [r.status for r in records] == ["failed", "ok"]
        assert ResultStore(tmp_path / "out.jsonl").load()["k0"].ok
