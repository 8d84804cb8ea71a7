"""Tests for cost-model calibration from real runs."""

import pytest

from repro.runtime.apps import DistributedGrep, WordCount
from repro.runtime.calibrate import measure_cost_model, profile_app
from repro.workloads import generate_corpus

CORPUS = generate_corpus(200_000, seed=4)


class TestProfileApp:
    def test_measures_volumes(self):
        m = profile_app(WordCount(), CORPUS, n_maps=4, n_reducers=2)
        assert m.input_bytes == len(CORPUS)
        assert m.intermediate_bytes > 0
        assert m.output_bytes > 0
        assert m.map_seconds > 0 and m.reduce_seconds > 0

    def test_ratios_sane_for_wordcount(self):
        m = profile_app(WordCount(), CORPUS, n_maps=4, n_reducers=2)
        # The combiner collapses the Zipf head, so intermediate < input.
        assert 0.0 < m.intermediate_ratio < 2.0

    def test_grep_intermediate_tiny(self):
        wc = profile_app(WordCount(), CORPUS, n_maps=4, n_reducers=2)
        gr = profile_app(DistributedGrep(rb"qqqq-no-match"), CORPUS,
                         n_maps=4, n_reducers=2)
        assert gr.intermediate_ratio < wc.intermediate_ratio

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            profile_app(WordCount(), b"")


class TestMeasureCostModel:
    def test_anchored_scale(self):
        model = measure_cost_model(WordCount(), CORPUS,
                                   anchor_map_throughput=0.6e6)
        assert model.map_throughput == 0.6e6
        assert model.reduce_throughput > 0
        assert model.intermediate_ratio > 0

    def test_invalid_anchor(self):
        with pytest.raises(ValueError):
            measure_cost_model(WordCount(), CORPUS, anchor_map_throughput=0)

    def test_measured_model_drives_simulation(self):
        from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud

        model = measure_cost_model(WordCount(), CORPUS)
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        cloud.add_volunteers(8, mr=True)
        job = cloud.run_job(MapReduceJobSpec(
            "measured", n_maps=6, n_reducers=2, input_size=60e6, cost=model),
            timeout=48 * 3600)
        assert job.finished

    def test_ratio_preserved_under_anchoring(self, monkeypatch):
        import itertools
        import types

        from repro.runtime import calibrate

        # One fake clock for both profiling runs: the map phase takes 2 s,
        # the reduce phase 0.5 s, whatever the box is doing.
        ticks = itertools.cycle([0.0, 2.0, 2.0, 2.5])
        monkeypatch.setattr(calibrate, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks)))
        m = profile_app(WordCount(), CORPUS, n_maps=4, n_reducers=2)
        assert (m.map_seconds, m.reduce_seconds) == (2.0, 0.5)
        model = measure_cost_model(WordCount(), CORPUS, n_maps=4,
                                   n_reducers=2, anchor_map_throughput=1e6)
        measured_ratio = m.reduce_throughput / m.map_throughput
        model_ratio = model.reduce_throughput / model.map_throughput
        assert model_ratio == pytest.approx(measured_ratio, rel=1e-12)
