"""Unit tests for the BOINC data model."""

import pytest

from repro.boinc import (
    Database,
    FileRef,
    ResultState,
    Workunit,
    WorkunitState,
)


def make_wu(db, **kwargs):
    defaults = dict(app_name="app", input_files=(FileRef("in", 100.0),),
                    flops=10.0)
    defaults.update(kwargs)
    return db.insert_workunit(Workunit(id=db.new_wu_id(), **defaults))


class TestFileRef:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileRef("f", -1)

    def test_frozen(self):
        ref = FileRef("f", 10)
        with pytest.raises(AttributeError):
            ref.size = 20


class TestWorkunitValidation:
    def test_quorum_bounds(self):
        with pytest.raises(ValueError):
            Workunit(id=1, app_name="a", input_files=(), flops=1,
                     min_quorum=0)

    def test_target_below_quorum_rejected(self):
        with pytest.raises(ValueError):
            Workunit(id=1, app_name="a", input_files=(), flops=1,
                     target_nresults=1, min_quorum=2)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            Workunit(id=1, app_name="a", input_files=(), flops=-1)


class TestDatabase:
    def test_insert_workunit_allocates_results_separately(self):
        db = Database()
        wu = make_wu(db)
        assert db.results_for_wu(wu.id) == []

    def test_duplicate_wu_id_rejected(self):
        db = Database()
        wu = make_wu(db)
        with pytest.raises(ValueError):
            db.insert_workunit(wu)

    def test_insert_result_names_are_sequential(self):
        db = Database()
        wu = make_wu(db)
        r0 = db.insert_result(wu)
        r1 = db.insert_result(wu)
        assert r0.name.endswith("_0")
        assert r1.name.endswith("_1")

    def test_unsent_results_fifo(self):
        db = Database()
        wu1 = make_wu(db)
        wu2 = make_wu(db)
        a = db.insert_result(wu1)
        b = db.insert_result(wu2)
        c = db.insert_result(wu1)
        assert [r.id for r in db.unsent_results()] == [a.id, b.id, c.id]

    def test_mark_sent_removes_from_unsent(self):
        db = Database()
        wu = make_wu(db)
        res = db.insert_result(wu)
        host = db.insert_host("h", 1.0)
        db.mark_sent(res, host, now=5.0, deadline=100.0)
        assert res.state is ResultState.IN_PROGRESS
        assert res.host_id == host.id
        assert db.unsent_results() == []
        assert [r for r in db.results.values() if r.host_id == host.id] \
            == [res]

    def test_mark_sent_twice_rejected(self):
        db = Database()
        wu = make_wu(db)
        res = db.insert_result(wu)
        host = db.insert_host("h", 1.0)
        db.mark_sent(res, host, 0.0, 10.0)
        with pytest.raises(ValueError):
            db.mark_sent(res, host, 1.0, 10.0)

    def test_hosts_with_result_of_wu(self):
        db = Database()
        wu = make_wu(db)
        r1, r2 = db.insert_result(wu), db.insert_result(wu)
        h1, h2 = db.insert_host("a", 1.0), db.insert_host("b", 1.0)
        db.mark_sent(r1, h1, 0.0, 10.0)
        assert db.hosts_with_result_of_wu(wu.id) == {h1.id}
        db.mark_sent(r2, h2, 0.0, 10.0)
        assert db.hosts_with_result_of_wu(wu.id) == {h1.id, h2.id}

    def test_in_progress_results(self):
        db = Database()
        wu = make_wu(db)
        res = db.insert_result(wu)
        host = db.insert_host("h", 1.0)
        assert db.in_progress_results() == []
        db.mark_sent(res, host, 0.0, 10.0)
        assert db.in_progress_results() == [res]

    def test_counts(self):
        db = Database()
        wu = make_wu(db)
        db.insert_result(wu)
        db.insert_host("h", 1.0)
        counts = db.counts()
        assert counts == {"workunits": 1, "results": 1, "hosts": 1, "unsent": 1}

    def test_wu_state_starts_active(self):
        db = Database()
        wu = make_wu(db)
        assert wu.state is WorkunitState.ACTIVE
        assert wu.canonical_result_id is None
