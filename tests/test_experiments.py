"""Integration tests for the experiment harness (small geometries)."""

import pytest

from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import (
    PAPER_TABLE1,
    nat_scenario,
    run_scenario,
    scenario_for_row,
)
from repro.experiments.table1 import PaperCell


class TestScenario:
    """A run is a (CloudSpec, MapReduceJobSpec) pair."""

    def small(self, name="t", seed=1, **cloud):
        return (CloudSpec(seed=seed, n_nodes=6, **cloud),
                MapReduceJobSpec(name, n_maps=6, n_reducers=2,
                                 input_size=60e6))

    def test_run_produces_metrics(self):
        result = run_scenario(*self.small())
        m = result.metrics
        assert m.total > 0
        assert m.map_stats.n_tasks == 12  # 6 WUs x replication 2
        assert m.reduce_stats.n_tasks == 4
        assert m.map_stats.mean_discard_slowest <= m.map_stats.mean + 1e-9
        assert not hasattr(result, "scenario")

    def test_mr_scenario_runs(self):
        result = run_scenario(*self.small(mr_clients=True))
        assert result.job.finished

    def test_deterministic_per_seed(self):
        a = run_scenario(*self.small(seed=5)).metrics.total
        b = run_scenario(*self.small(seed=5)).metrics.total
        assert a == b

    def test_fast_nodes_shorten_makespan(self):
        slow = run_scenario(*self.small(seed=3)).metrics
        fast = run_scenario(*self.small(seed=3, name="t2",
                                        fast_node_fraction=1.0)).metrics
        assert fast.map_stats.mean < slow.map_stats.mean

    def test_nat_scenario_has_per_node_nats(self):
        cloud, _job = nat_scenario(seed=1)
        assert cloud.nats is not None and len(cloud.nats) == cloud.n_nodes

    def test_nats_length_validated(self):
        with pytest.raises(ValueError):
            self.small(nats=[None])

    def test_a_built_cloud_is_accepted_in_place_of_its_spec(self):
        from repro.core import VolunteerCloud

        spec, job = self.small(seed=5)
        built = VolunteerCloud.from_spec(spec)
        assert run_scenario(built, job).metrics.total == \
            run_scenario(spec, job).metrics.total


class TestTable1Definitions:
    def test_paper_rows_complete(self):
        assert len(PAPER_TABLE1) == 9
        assert sum(1 for r in PAPER_TABLE1 if r.mr) == 1

    def test_paper_values_spotcheck(self):
        r = PAPER_TABLE1[2]  # 15 nodes, 15 maps
        assert (r.nodes, r.n_maps, r.n_reducers) == (15, 15, 3)
        assert r.paper_map.mean == 747 and r.paper_map.discarded == 396

    def test_scenario_for_row(self):
        cloud, job = scenario_for_row(PAPER_TABLE1[0], seed=9)
        assert (cloud.n_nodes, job.n_maps, job.n_reducers) == (10, 10, 2)
        assert cloud.seed == 9 and not cloud.mr_clients
        assert job.name == PAPER_TABLE1[0].label

    def test_cell_text(self):
        assert PaperCell(700, 400).text() == "700 [400]"
        assert PaperCell(383).text() == "383"

    def test_run_and_render_one_small_row(self):
        from repro.analysis import render_study
        from repro.experiments import table1

        # The 20/20/5 pair the cross-row claims read.
        rows = {PAPER_TABLE1[i].label: table1.table1_payload(i, seed=1)
                for i in (4, 8)}
        assert rows["boinc_20n_20m_5r"]["paper_total"] == 1111
        text = render_study(table1.STUDY, rows)
        assert "| Nodes | #Map | #Red | Client | Map (ours) |" in text
        assert ("| 20 | 20 | 5 | BOINC | 372 | 383 | 360 | 455 [341] "
                "| 1132 [1105] | 1111 [997] |") in text
        assert "| 20 | 20 | 5 | BOINC-MR | 326 | 612 | 244 | 318 |" in text
        assert "✗" not in text
