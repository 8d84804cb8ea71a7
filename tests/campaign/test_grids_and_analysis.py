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
        assert groups == {row.label for row in PAPER_TABLE1}

    def test_table1_faults_armed_on_every_cell(self):
        grid = table1_grid(seeds=(1,), faults="flaky-network")
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
        for kind in ("churn", "replication", "scale_out"):
            with pytest.raises(ValueError, match="unknown cell kind"):
                CampaignCell(kind=kind, seed=1)
            with pytest.raises(ValueError, match="unknown cell kind"):
                execute_cell({"kind": kind, "seed": 1, "params": {}})

    def test_keys_are_pinned(self):
        # Recorded before study_grid became the one builder: neither the
        # paper store nor a Table I sweep re-runs a cell.
        assert len(paper_grid()) == 52
        assert _keys_digest(paper_grid()) == "ca879205c9e6796f"
        t1 = table1_grid(seeds=(1, 2, 3))
        assert len(t1) == 27
        assert _keys_digest(t1) == "03b744e7b4a4fd9d"

    def test_paper_grid_is_every_variant_of_every_study(self):
        grid = paper_grid()
        assert len(grid) == sum(len(s.variants) for s in STUDIES) == 52
        assert len({c.key for c in grid}) == 52
        # Table I's nine cells are the table1 grid's, key for key.
        assert [c.key for c in grid][:9] == [
            c.key for c in table1_grid(seeds=(1,))]
        assert {c.kind for c in grid.cells[9:]} == {"study"}
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


class TestResolveGrid:
    def test_builtin_by_name_with_seed_override(self):
        grid = resolve_grid("table1", seeds=(5,))
        assert len(grid) == len(PAPER_TABLE1)
        assert all(c.seed == 5 for c in grid)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown grid"):
            resolve_grid("nope")

    def test_faults_on_non_table1_rejected(self):
        # The cell refuses a plan its kind would not arm.
        with pytest.raises(ValueError, match="a 'study' cell does not arm"):
            resolve_grid("churn", faults="kitchen-sink")
        grid = resolve_grid("table1", seeds=(1,), faults="kitchen-sink")
        assert {c.faults for c in grid} == {"kitchen-sink"}

    def test_paper_grid_has_no_seed_fan_out(self):
        assert len(resolve_grid("paper")) == 52
        for kwargs in ({"seeds": (1, 2)}, {"faults": "flaky-network"}):
            with pytest.raises(ValueError, match="do not apply to the paper"):
                resolve_grid("paper", **kwargs)

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
            _ok("a1", "rowA", "table1", {"total": 100.0, "map_mean": 40.0}),
            _ok("a2", "rowA", "table1", {"total": 200.0, "map_mean": 60.0}),
            _ok("b1", "rowB", "table1", {"total": 50.0, "map_mean": 25.0}),
        ]
        stats = aggregate_records(records)
        by_group = {s.group: s for s in stats}
        assert by_group["rowA"].n == 2
        assert by_group["rowA"].summary.mean == pytest.approx(150.0)
        assert by_group["rowA"].field_means["map_mean"] == pytest.approx(50.0)
        assert by_group["rowB"].summary.maximum == pytest.approx(50.0)

    def test_failed_cells_counted_not_averaged(self):
        records = [
            _ok("a1", "rowA", "table1", {"total": 100.0}),
            CellRecord(key="a2", spec={"kind": "table1", "seed": 2,
                                       "params": {}, "faults": None,
                                       "group": "rowA"},
                       status="failed", result=None, meta={"error": "x"}),
        ]
        stats = aggregate_records(records)
        assert stats[0].n == 1 and stats[0].failed == 1

    def test_a_group_without_the_headline_field_is_listed(self):
        # It used to vanish between `coordinate` and `--aggregate`.
        records = [
            _ok("a1", "rowA", "table1", {"total": 100.0}),
            _ok("b1", "rowB", "table1", {"map_mean": 40.0}),
            CellRecord(key="c1", spec={"kind": "table1", "seed": 2,
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
        assert row_b[:5] == ["rowB", "table1", "0", "-", "-"]
        assert row_c[0] == "rowC" and row_c[-1] == "1"

    def test_every_group_of_a_paper_store_is_listed(self, paper_store):
        stats = aggregate_store(str(paper_store))
        assert [s.group for s in stats] == [
            c.spec()["group"] for c in paper_grid()]
        assert all(s.n == 1 and s.failed == 0 for s in stats)

    def test_an_unknown_kind_is_a_value_error_naming_it(self):
        # A store written while `churn` was a cell kind.
        records = [_ok("a1", "rowA", "table1", {"total": 100.0}),
                   _ok("c1", "churn", "churn", {"total": 9.0})]
        with pytest.raises(ValueError, match="'churn' cells"):
            aggregate_records(records)

    def test_render_table_contains_groups(self):
        records = [_ok("a1", "rowA", "table1", {"total": 100.0})]
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
        # "events" was re-recorded since (1115 and 1172), when the scheduler
        # RPC and the plain-delay waits stopped dispatching their own events.
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
            "events": 674, "sim_end": 370.0}
        vanilla = CampaignCell(kind="scenario", seed=2, group="g", params={
            "n_nodes": 5, "n_maps": 5, "n_reducers": 2, "input_size": 5e7,
            "name": "v", "byzantine_rate": 0.1, "timeout_s": 90000.0})
        assert vanilla.key == "f4c72b480e465fc7"
        payload = execute_cell(vanilla.spec())
        assert (payload["total"], payload["events"], payload["sim_end"]) == (
            463.38139318157556, 717, 470.0)

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
            "scenario", "study", "table1", "sleep")
        assert not hasattr(aggregation, "HEADLINE_METRIC")
        assert not hasattr(cells, "_EXECUTORS")
