"""Integration tests for the experiment harness (small geometries)."""

import pytest

from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import (
    PAPER_TABLE1,
    Table1Row,
    nat_scenario,
    run_scenario,
    scenario_for_row,
)
from repro.experiments.table1 import PaperCell, render, run_table1


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
        row = Table1Row(6, 6, 2, False, PaperCell(100), PaperCell(100),
                        PaperCell(300))
        records = run_table1([row], seed=1)
        text = render(records)
        assert "Table I" in text
        assert "BOINC" in text
        assert len(records) == 1
        assert records[0].measured_total[0] > 0


@pytest.fixture(scope="module")
def table1_records():
    """The full nine-row grid, once (about a second of CPU)."""
    return run_table1(PAPER_TABLE1, seed=1)


#: (label, map mean, reduce mean, total) of ``run_table1(seed=1)``, recorded
#: at the commit before ``Scenario`` was folded into ``CloudSpec``.
PINNED_TABLE1_SEED1 = [
        ('boinc_10n_10m_2r', 429.36717511806876, 549.3282309196562, 1151.6746034550229),
        ('boinc_10n_20m_2r', 218.82037059602658, 511.2505496306419, 1212.069456084863),
        ('boinc_15n_15m_3r', 410.43606469435633, 343.0500560572705, 1467.9076304284274),
        ('boinc_15n_30m_3r', 325.30008084294093, 321.70364440615623, 1022.5886222502946),
        ('boinc_20n_20m_5r', 372.3684233104223, 360.36268824965896, 1132.4536058965653),
        ('boinc_20n_40m_5r', 313.76096429214306, 361.9022224160235, 1148.513092201701),
        ('boinc_30n_30m_7r', 478.091678538838, 256.5636544719731, 1500.781425246866),
        ('boinc_30n_40m_5r', 398.3980618337847, 323.20803188421496, 1563.0771531851433),
        ('boinc-mr_20n_20m_5r', 325.8247942514067, 244.28229021304196, 928.7905568172083),
]


class TestTable1PaperClaims:
    """Table I's relational claims, so a change that bends the
    reproduction fails tier-1 (Fig. 4's are gated the same way below)."""

    def test_values_equal_the_pinned_run(self, table1_records):
        # from_spec must build exactly what build_cloud built: same
        # nodeNNN names (hence rng streams), flops and call order.
        assert [(r.row.label, r.measured_map[0], r.measured_reduce[0],
                 r.measured_total[0]) for r in table1_records] \
            == PINNED_TABLE1_SEED1

    @staticmethod
    def _mr_and_vanilla(records):
        """The BOINC-MR row and the vanilla row of the same geometry."""
        mr = next(r for r in records if r.row.mr)
        vanilla = next(r for r in records
                       if not r.row.mr and r.row.nodes == mr.row.nodes
                       and r.row.n_maps == mr.row.n_maps)
        assert (mr.row.nodes, mr.row.n_maps, mr.row.n_reducers) == (20, 20, 5)
        return mr, vanilla

    def test_totals_in_paper_band(self, table1_records):
        # Roughly 1000-1800 s for a 1 GB job.
        for rec in table1_records:
            total, _disc = rec.measured_total
            assert 600 < total < 2600, rec.row.label

    def test_phase_means_in_paper_range(self, table1_records):
        for rec in table1_records:
            for mean, _d in (rec.measured_map, rec.measured_reduce):
                assert 100 < mean < 1100, rec.row.label

    def test_discarded_never_exceeds_mean(self, table1_records):
        # Discarding the slowest node is how the paper explains its
        # bracketed values; it can never increase a mean.
        for rec in table1_records:
            assert rec.measured_map[1] <= rec.measured_map[0] + 1e-9
            assert rec.measured_reduce[1] <= rec.measured_reduce[0] + 1e-9
            assert rec.measured_total[1] <= rec.measured_total[0] + 1e-9

    def test_boinc_mr_reduce_faster_than_vanilla(self, table1_records):
        # Inter-client transfers bypass the server.
        mr, vanilla = self._mr_and_vanilla(table1_records)
        assert mr.measured_reduce[0] < vanilla.measured_reduce[0]

    def test_boinc_mr_total_comparable(self, table1_records):
        """Paper: "we can see it can provide the same level of performance"."""
        mr, vanilla = self._mr_and_vanilla(table1_records)
        ratio = mr.measured_total[0] / vanilla.measured_total[0]
        assert 0.6 < ratio < 1.25

    def test_map_phase_dominates(self, table1_records):
        """Map work (2x results, all input bytes) outweighs the reduce
        phase: "the map step took too much of a share of the whole job"."""
        for rec in table1_records:
            m = rec.result.metrics
            map_work = m.map_stats.mean * m.map_stats.n_tasks
            reduce_work = m.reduce_stats.mean * m.reduce_stats.n_tasks
            assert map_work > reduce_work, rec.row.label


class TestFig4:
    def test_fig4_straggler_reproduces(self):
        from repro.experiments import run_fig4

        result = run_fig4(base_seed=1, min_straggler_lag=120.0,
                          max_seed_scans=10)
        assert result.straggler_lag >= 120.0
        # Straggler lag dominates the field (the Fig. 4 visual).
        other = [t.report_lag for t in result.timelines
                 if t.report_lag is not None
                 and t.host != result.straggler_host]
        assert result.straggler_lag > 2 * max(other)
        chart = result.render()
        assert "Fig. 4" in chart and "#" in chart

    def test_fig4_reduce_starts_after_straggler_report(self):
        from repro.experiments import run_fig4

        result = run_fig4(base_seed=1)
        last_map_report = max(t.reported_at for t in result.timelines)
        assert result.reduce_start >= last_map_report


class TestAblations:
    def test_report_immediately_removes_lag(self):
        from repro.experiments import ablate_report_immediately

        out = ablate_report_immediately(seed=1)
        assert out.mitigated_detail["mean_report_lag"] < \
            out.baseline_detail["mean_report_lag"] / 5

    def test_intermediate_downloads_shrink_transition(self):
        from repro.experiments import ablate_intermediate_downloads

        out = ablate_intermediate_downloads(seed=1)
        assert out.mitigated_detail["transition_gap"] < \
            out.baseline_detail["transition_gap"]
        assert out.mitigated_total < out.baseline_total

    def test_concurrent_jobs_remove_backoff_lag(self):
        from repro.experiments import ablate_concurrent_jobs

        out = ablate_concurrent_jobs(seed=1, n_jobs=2)
        assert out.mitigated_detail["mean_report_lag"] < \
            out.baseline_detail["mean_report_lag"] / 5


class TestChurnExperiment:
    def test_churn_outcome_fields(self):
        from repro.experiments import run_churn

        out = run_churn(seed=3, mean_on_s=1800.0, mean_off_s=600.0,
                        departure_prob=0.05)
        assert out.result.job.finished
        assert out.transitions > 0
        assert out.total > 0
