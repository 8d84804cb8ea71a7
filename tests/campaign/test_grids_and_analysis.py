"""Tests for the builtin experiment grids and campaign aggregation."""

import hashlib

import pytest

from repro.analysis import (
    aggregate_records,
    aggregate_store,
    render_campaign_table,
)
from repro.campaign import (
    CampaignCell,
    CampaignGrid,
    CellRecord,
    canonical_json,
    execute_cell,
    run_campaign,
)
from repro.experiments import (
    PAPER_TABLE1,
    STUDIES,
    paper_grid,
    resolve_grid,
    study_grid,
    table1_grid,
)


def _keys_digest(grid):
    return hashlib.sha256(
        "".join(c.key for c in grid).encode()).hexdigest()[:16]


class TestBuiltinGrids:
    def test_table1_covers_every_row_and_seed(self):
        grid = table1_grid(seeds=(1, 2))
        assert len(grid) == len(PAPER_TABLE1) * 2
        groups = {c.group for c in grid}
        assert groups == {f"table1/{row.label}" for row in PAPER_TABLE1}

    def test_table1_faults_armed_on_every_cell(self):
        grid = resolve_grid("table1", seeds=(1,), faults="flaky-network")
        assert all(c.faults == "flaky-network" for c in grid)

    def test_churn_grid_runs_both_variants_per_seed(self):
        grid = resolve_grid("churn", seeds=(1, 2))
        assert [(c.group, c.seed) for c in grid] == [
            ("churn/stable", 1), ("churn/stable", 2),
            ("churn/churn", 1), ("churn/churn", 2)]
        assert len(resolve_grid("churn")) == 6

    def test_replication_grid_shape(self):
        grid = resolve_grid("replication", seeds=(1,))
        assert {c.group for c in grid} == {
            "replication/1/1", "replication/2/2", "replication/3/2"}
        assert len(resolve_grid("replication")) == 9

    def test_every_study_resolves_at_the_requested_seeds(self):
        for study in STUDIES:
            grid = resolve_grid(study.name, seeds=(4, 7))
            assert grid.name == study.name
            assert len(grid) == 2 * len(study.variants), study.name
            assert [c.seed for c in grid] == [4, 7] * len(study.variants)
            assert len(resolve_grid(study.name)) == 3 * len(study.variants)
            assert ([c.key for c in grid]
                    == [c.key for c in study_grid(study, (4, 7))])

    def test_cells_carrying_an_allocator_are_rejected(self):
        # Stored grids (TOML or JSONL) written before the knob left.
        scenario = CampaignCell(kind="scenario", seed=1, params={
            "n_nodes": 4, "n_maps": 4, "n_reducers": 2, "allocator": "full"})
        with pytest.raises(ValueError, match=r"unknown scenario params: "
                                             r"\['allocator'\]"):
            execute_cell(scenario.spec())

    def test_retired_kinds_are_refused(self):
        # `table1` rows are `study` cells now; a store row of the old kind
        # is refused by name.
        for kind in ("churn", "replication", "scale_out", "table1"):
            with pytest.raises(ValueError, match="unknown cell kind"):
                CampaignCell(kind=kind, seed=1)
            with pytest.raises(ValueError, match="unknown cell kind"):
                execute_cell({"kind": kind, "seed": 1, "params": {}})
        row = CellRecord(key="k", spec={"kind": "table1", "seed": 1,
                                        "params": {"row": 0}, "faults": None,
                                        "group": "boinc_10n_10m_2r"},
                         status="ok", result={"total": 1.0}, meta={})
        with pytest.raises(ValueError, match="'table1' cells"):
            aggregate_records([row])

    def test_keys_are_pinned(self):
        # Re-recorded once, on purpose, when Table I's rows became `study`
        # cells (params {study, variant}) and the `table1` kind went; the
        # 43 other paper cells kept their keys.  Re-recorded again when the
        # two `nice` cells went: the other 50 keep their keys and order.
        assert len(paper_grid()) == 50
        assert _keys_digest(paper_grid()) == "6bcee26f9c9515ed"
        t1 = table1_grid(seeds=(1, 2, 3))
        assert len(t1) == 27
        assert _keys_digest(t1) == "a219b6b95bea8443"

    def test_paper_grid_is_every_variant_of_every_study(self):
        grid = paper_grid()
        assert len(grid) == sum(len(s.variants) for s in STUDIES) == 50
        assert len({c.key for c in grid}) == 50
        # Table I's nine cells are the table1 grid's, key for key.
        assert [c.key for c in grid][:9] == [
            c.key for c in table1_grid(seeds=(1,))]
        assert {c.kind for c in grid} == {"study"}
        assert all(c.seed == s.seed for s in STUDIES for c in grid
                   if c.group.startswith(f"{s.name}/"))

    def test_unknown_study_variant_is_refused(self):
        for params in ({"study": "nope", "variant": "run"},
                       {"study": "fig4", "variant": "nope"}, {}):
            cell = CampaignCell(kind="study", seed=1, params=params)
            with pytest.raises(ValueError, match="unknown study variant"):
                execute_cell(cell.spec())

    def test_registry_builders_all_construct(self):
        for name in ("paper", *(s.name for s in STUDIES)):
            assert len(resolve_grid(name)) > 0, name


def _table1_cell(row: int, seed: int, faults: str) -> CampaignCell:
    return CampaignCell(kind="study", seed=seed, faults=faults, params={
        "study": "table1", "variant": PAPER_TABLE1[row].label})


class TestPlanOnEveryDeployment:
    @pytest.mark.parametrize("cell,digest,events", [
        (_table1_cell(0, 1, "flaky-network"), "f4461caa6061f30c", 1590),
        (_table1_cell(8, 1, "kitchen-sink"), "15689fc9a6c5baca", 3737),
        (CampaignCell(kind="scenario", seed=3, faults="bad-volunteers",
                      params={"n_nodes": 10, "n_maps": 10,
                              "n_reducers": 2}), "297d9776faf42012", 2323),
    ], ids=["table1-row0-flaky-network", "table1-row8-kitchen-sink",
            "scenario-bad-volunteers"])
    def test_payload_equals_the_pinned_run(self, cell, digest, events):
        # The model's fields, recorded while Table I rows were `table1`
        # cells and only they and scenario cells armed a plan, each in its
        # own executor.  `events` is the kernel's dispatch count, pinned
        # beside the digest so that a kernel-only change re-records a
        # visible count, not a digest.
        payload = execute_cell(cell.spec())
        assert payload["audit_ok"] is True
        assert payload.pop("events") == events
        assert hashlib.sha256(canonical_json(payload).encode()).hexdigest()[
            :16] == digest


class TestResolveGrid:
    def test_builtin_by_name_with_seed_override(self):
        grid = resolve_grid("table1", seeds=(5,))
        assert len(grid) == len(PAPER_TABLE1)
        assert all(c.seed == 5 for c in grid)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown grid"):
            resolve_grid("nope")

    def test_sleep_refuses_a_plan_a_study_grid_takes_one(self):
        # A sleep cell builds no deployment to arm a plan on.
        with pytest.raises(ValueError, match="a 'sleep' cell does not arm"):
            CampaignCell(kind="sleep", seed=1, faults="kitchen-sink")
        for name in ("churn", "table1"):
            grid = resolve_grid(name, seeds=(1,), faults="kitchen-sink")
            assert {c.faults for c in grid} == {"kitchen-sink"}

    def test_paper_grid_has_no_seed_fan_out(self):
        assert len(resolve_grid("paper")) == 50
        with pytest.raises(ValueError, match="does not apply to the paper"):
            resolve_grid("paper", seeds=(1, 2))

    def test_paper_grid_takes_a_plan(self):
        grid = resolve_grid("paper", faults="flaky-network")
        assert len(grid) == 50
        assert {c.faults for c in grid} == {"flaky-network"}

    def test_a_study_grid_under_a_plan_runs_audited(self):
        # Every deployment a study cell builds arms the plan, and the
        # payload carries what it injected and the audit's verdict.
        for cell in resolve_grid("churn", seeds=(1,), faults="flaky-network"):
            payload = execute_cell(cell.spec())
            assert payload["audit_ok"] is True, cell.group
            assert payload["faults_injected"] > 0, cell.group

    def test_toml_path(self, tmp_path):
        path = tmp_path / "g.toml"
        path.write_text('name = "t"\n[[cell]]\nkind = "sleep"\nseed = 1\n')
        assert len(resolve_grid(str(path))) == 1


def _ok(key: str, group: str, kind: str, payload: dict) -> CellRecord:
    return CellRecord(key=key, spec={"kind": kind, "seed": 1, "params": {},
                                     "faults": None, "group": group},
                      status="ok", result=payload, meta={})


class TestAggregation:
    def test_groups_and_summaries(self):
        records = [
            _ok("a1", "rowA", "study", {"total": 100.0, "map_mean": 40.0}),
            _ok("a2", "rowA", "study", {"total": 200.0, "map_mean": 60.0}),
            _ok("b1", "rowB", "study", {"total": 50.0, "map_mean": 25.0}),
        ]
        stats = aggregate_records(records)
        by_group = {s.group: s for s in stats}
        assert by_group["rowA"].n == 2
        assert by_group["rowA"].summary.mean == pytest.approx(150.0)
        assert by_group["rowA"].field_means["map_mean"] == pytest.approx(50.0)
        assert by_group["rowB"].summary.maximum == pytest.approx(50.0)

    def test_failed_cells_counted_not_averaged(self):
        records = [
            _ok("a1", "rowA", "study", {"total": 100.0}),
            CellRecord(key="a2", spec={"kind": "study", "seed": 2,
                                       "params": {}, "faults": None,
                                       "group": "rowA"},
                       status="failed", result=None, meta={"error": "x"}),
        ]
        stats = aggregate_records(records)
        assert stats[0].n == 1 and stats[0].failed == 1

    def test_a_group_without_the_headline_field_is_listed(self):
        # It used to vanish between `coordinate` and `--aggregate`.
        records = [
            _ok("a1", "rowA", "study", {"total": 100.0}),
            _ok("b1", "rowB", "study", {"map_mean": 40.0}),
            CellRecord(key="c1", spec={"kind": "study", "seed": 2,
                                       "params": {}, "faults": None,
                                       "group": "rowC"},
                       status="failed", result=None, meta={"error": "x"}),
        ]
        stats = aggregate_records(records)
        assert [(s.group, s.n, s.failed) for s in stats] == [
            ("rowA", 1, 0), ("rowB", 0, 0), ("rowC", 0, 1)]
        assert stats[1].summary is None
        assert stats[1].field_means == {"map_mean": 40.0}
        *_, row_b, row_c = (
            [c.strip() for c in line.split("|")]
            for line in render_campaign_table(stats).splitlines())
        assert row_b[:5] == ["rowB", "study", "0", "-", "-"]
        assert row_c[0] == "rowC" and row_c[-1] == "1"

    def test_every_group_of_a_paper_store_is_listed(self, paper_store):
        stats = aggregate_store(str(paper_store))
        assert [s.group for s in stats] == [
            c.spec()["group"] for c in paper_grid()]
        assert all(s.n == 1 and s.failed == 0 for s in stats)

    def test_an_unknown_kind_is_a_value_error_naming_it(self):
        # A store written while `churn` was a cell kind.
        records = [_ok("a1", "rowA", "study", {"total": 100.0}),
                   _ok("c1", "churn", "churn", {"total": 9.0})]
        with pytest.raises(ValueError, match="'churn' cells"):
            aggregate_records(records)

    def test_render_table_contains_groups(self):
        records = [_ok("a1", "rowA", "study", {"total": 100.0})]
        text = render_campaign_table(aggregate_records(records))
        assert "rowA" in text and "mean" in text

    def test_render_empty(self):
        assert "no completed cells" in render_campaign_table([])

    def test_aggregate_store_roundtrip(self, tmp_path):
        grid = CampaignGrid(
            name="g",
            cells=tuple(CampaignCell(kind="sleep", seed=s,
                                     params={"duration_s": 0.01},
                                     group="naps") for s in range(3)))
        out = tmp_path / "s.jsonl"
        run_campaign(grid, str(out), workers=0)
        stats = aggregate_store(str(out))
        assert stats[0].group == "naps" and stats[0].n == 3


class TestScenarioCellParams:
    """Flat ``scenario`` cells: accepted names are read off the two specs."""

    BASE = {"n_nodes": 4, "n_maps": 4, "n_reducers": 2}

    @staticmethod
    def _scalar_fields():
        """name -> (owning class, field), derived from resolved type hints
        (the product reads the annotation strings)."""
        import dataclasses
        import typing

        from repro.core import CloudSpec, MapReduceJobSpec

        out = {}
        for cls in (CloudSpec, MapReduceJobSpec):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if hints[f.name] in (bool, int, float, str):
                    out[f.name] = (cls, f)
        del out["seed"]  # the cell's own
        return out

    def test_the_derived_set_is_the_old_whitelist(self):
        # Every existing cell key, TOML grid and store stays valid.
        assert set(self._scalar_fields()) | {"timeout_s"} == {
            "name", "n_nodes", "n_maps", "n_reducers", "mr_clients",
            "input_size", "replication", "quorum", "fast_node_fraction",
            "byzantine_rate", "timeout_s", "app_name"}

    def test_every_scalar_spec_field_is_a_cell_param(self):
        import dataclasses

        from repro.campaign.cells import scenario_specs

        for name, (cls, f) in self._scalar_fields().items():
            value = self.BASE.get(
                name, "x" if f.default is dataclasses.MISSING else f.default)
            specs = scenario_specs({"seed": 3, "params": {**self.BASE,
                                                          name: value}})
            owner = next(s for s in specs if isinstance(s, cls))
            assert getattr(owner, name) == value, name
            assert specs[0].seed == 3
        scenario_specs({"seed": 3, "params": {**self.BASE,
                                              "timeout_s": 60.0}})

    def test_anything_else_is_refused(self):
        from hypothesis import assume, given, strategies as st

        from repro.campaign.cells import scenario_specs

        accepted = set(self._scalar_fields()) | {"timeout_s"}
        scalar = st.one_of(st.integers(), st.booleans(), st.floats(),
                           st.text(max_size=5))
        non_scalar = st.one_of(st.none(), st.lists(st.integers(), max_size=2),
                               st.dictionaries(st.text(max_size=3),
                                               st.integers(), max_size=2))

        def refused(params):
            with pytest.raises(ValueError) as exc:
                scenario_specs({"seed": 1, "params": {**self.BASE, **params}})
            assert str(exc.value) == (
                f"unknown scenario params: {sorted(params)}")

        @given(name=st.one_of(st.text(max_size=12), st.sampled_from(
                   ["seed", "link", "server_link", "nats", "cost",
                    "mr_config", "allocator"])),
               value=st.one_of(scalar, non_scalar))
        def other_names(name, value):
            assume(name not in accepted)
            refused({name: value})

        @given(name=st.sampled_from(sorted(accepted)), value=non_scalar)
        def non_scalar_values(name, value):
            refused({name: value})

        other_names()
        non_scalar_values()

    def test_key_and_payload_equal_the_pinned_cells(self):
        # Recorded at the commit before SCENARIO_PARAMS was deleted; only
        # "events" was re-recorded since: from 1115 and 1172 to 674 and 717
        # when the scheduler RPC and the plain-delay waits stopped
        # dispatching their own events, and to 648 and 690 when the
        # client's backoff wait became its own plain-number sleep.
        mr = CampaignCell(kind="scenario", seed=4, group="g", params={
            "n_nodes": 6, "n_maps": 6, "n_reducers": 2, "mr_clients": True,
            "input_size": 1e8, "fast_node_fraction": 0.5})
        assert mr.key == "886fb808132cb0e0"
        assert execute_cell(mr.spec()) == {
            "total": 363.99116320222316,
            "total_discard_slowest": 338.38837443184553,
            "map_mean": 91.739759221952,
            "map_discard_slowest": 84.01203722878253,
            "reduce_mean": 93.17835222835248,
            "reduce_discard_slowest": 90.35635323086422,
            "transition_gap": 48.82424219403663,
            "events": 648, "sim_end": 370.0}
        vanilla = CampaignCell(kind="scenario", seed=2, group="g", params={
            "n_nodes": 5, "n_maps": 5, "n_reducers": 2, "input_size": 5e7,
            "name": "v", "byzantine_rate": 0.1, "timeout_s": 90000.0})
        assert vanilla.key == "f4c72b480e465fc7"
        payload = execute_cell(vanilla.spec())
        assert (payload["total"], payload["events"], payload["sim_end"]) == (
            463.38139318157556, 690, 470.0)

    def test_removed_names_do_not_import(self):
        with pytest.raises(ImportError):
            from repro.campaign.cells import SCENARIO_PARAMS  # noqa: F401
        for name in ("Scenario", "build_cloud", "job_spec"):
            with pytest.raises(ImportError):
                exec(f"from repro.experiments import {name}")
            with pytest.raises(ImportError):
                exec(f"from repro.experiments.scenario import {name}")

    def test_a_cell_kind_is_declared_once(self):
        # Executor and headline metric live in one table; the kind list
        # and the aggregation derive from it (three parallel tables before).
        from repro.analysis import campaign as aggregation
        from repro.campaign import CELL_KINDS, cells

        assert CELL_KINDS == tuple(cells.KINDS) == (
            "scenario", "study", "sleep")
        assert not hasattr(aggregation, "HEADLINE_METRIC")
        assert not hasattr(cells, "_EXECUTORS")
