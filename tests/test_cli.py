"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "9", "table1"])
        assert args.seed == 9

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert (args.nodes, args.maps, args.reducers) == (20, 20, 5)
        assert not args.mr
        assert args.trace_out is None and args.trace_format == "chrome"

    def test_allocator_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--allocator", "full"])
        assert exc.value.code == 2
        assert "--allocator" in capsys.readouterr().err

    def test_trace_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace-format", "svg"])

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.sample_period == 30.0


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--nodes", "6", "--maps", "6", "--reducers", "2",
                     "--input-gb", "0.06"]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "map" in out

    def test_run_mr_command(self, capsys):
        assert main(["run", "--mr", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06"]) == 0
        assert "total" in capsys.readouterr().out

    def test_wordcount_command(self, capsys):
        assert main(["wordcount", "--size-mb", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "verified against collections.Counter" in out

    def test_fig4_command(self, capsys):
        assert main(["fig4", "--width", "40"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_nat_command(self, capsys):
        assert main(["nat"]) == 0
        out = capsys.readouterr().out
        assert "full_ladder" in out

    def test_churn_command(self, capsys):
        assert main(["--seed", "3", "churn", "--mean-on", "1800",
                     "--mean-off", "600", "--departures", "0.05"]) == 0
        assert "transitions" in capsys.readouterr().out

    def test_planetlab_command(self, capsys):
        assert main(["planetlab"]) == 0
        out = capsys.readouterr().out
        assert "lan_mr" in out and "planetlab_mr" in out

    def test_ablations_command(self, capsys):
        assert main(["ablations"]) == 0
        assert "report_immediately" in capsys.readouterr().out


class TestObservabilityCommands:
    RUN = ["run", "--mr", "--nodes", "6", "--maps", "6", "--reducers", "2",
           "--input-gb", "0.06"]

    def test_run_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main([*self.RUN, "--trace-out", str(out)]) == 0
        assert "wrote chrome trace" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "X", "i"}
        assert any(e["ph"] == "X" and e["cat"] == "result"
                   for e in doc["traceEvents"])

    def test_run_trace_identical_across_same_seed_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["--seed", "4", *self.RUN,
                         "--trace-out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_run_jsonl_and_csv_formats(self, tmp_path):
        import json

        jl = tmp_path / "t.jsonl"
        assert main([*self.RUN, "--trace-out", str(jl),
                     "--trace-format", "jsonl"]) == 0
        first = json.loads(jl.read_text().splitlines()[0])
        assert "kind" in first and "time" in first

        cs = tmp_path / "t.csv"
        assert main([*self.RUN, "--trace-out", str(cs),
                     "--trace-format", "csv"]) == 0
        assert cs.read_text().splitlines()[0].startswith("time,kind")

    def test_metrics_command(self, capsys):
        assert main(["metrics", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06"]) == 0
        out = capsys.readouterr().out
        assert "sched.rpc_total" in out
        assert "daemon.transitioner.backlog" in out
        assert "engine self-profile" in out


class TestSeedHandling:
    """--seed is accepted (and validated) uniformly on every subcommand."""

    COMMANDS = ["table1", "fig4", "ablations", "nat", "churn", "planetlab",
                "run", "metrics", "wordcount", "chaos"]

    def test_every_subcommand_accepts_seed(self):
        for cmd in self.COMMANDS:
            args = build_parser().parse_args([cmd, "--seed", "7"])
            assert args.seed == 7, cmd

    def test_global_seed_reaches_subcommand(self):
        args = build_parser().parse_args(["--seed", "3", "run"])
        assert args.seed == 3

    def test_subcommand_seed_overrides_global(self):
        args = build_parser().parse_args(["--seed", "3", "run", "--seed", "9"])
        assert args.seed == 9

    def test_negative_seed_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--seed", "-2"])

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--seed", "banana", "table1"])


class TestCampaignCommand:
    def _toml_grid(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "naps"\n'
            '[[cell]]\n'
            'kind = "sleep"\n'
            'seeds = [1, 2]\n'
            'group = "naps"\n'
            'params = { duration_s = 0.0 }\n')
        return path

    def test_list_grids(self, capsys):
        assert main(["campaign", "--list-grids"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "churn" in out

    def test_run_resume_and_aggregate(self, tmp_path, capsys):
        grid = self._toml_grid(tmp_path)
        store = tmp_path / "naps.jsonl"
        assert main(["campaign", "coordinate", "--grid", str(grid),
                     "--spawn", "1", "--out", str(store), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 ran, 0 skipped" in out
        assert main(["campaign", "coordinate", "--grid", str(grid),
                     "--spawn", "1", "--out", str(store), "--quiet",
                     "--resume"]) == 0
        assert "0 ran, 2 skipped" in capsys.readouterr().out
        assert main(["campaign", "--aggregate", str(store)]) == 0
        out = capsys.readouterr().out
        assert "naps" in out and "mean" in out

    def test_aggregate_missing_store_errors(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["campaign", "--aggregate", str(missing)]) == 2
        assert "no such store" in capsys.readouterr().err


class TestCampaignControlPlane:
    """The distributed modes: coordinate / work / merge / diff."""

    def _toml_grid(self, tmp_path, n=4):
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "naps"\n'
            '[[cell]]\n'
            'kind = "sleep"\n'
            f'seeds = {list(range(1, n + 1))}\n'
            'group = "naps"\n'
            'params = { duration_s = 0.05 }\n')
        return path

    def test_coordinate_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "coordinate"])
        assert args.mode == "coordinate"
        assert args.spawn == 3 and args.port == 0
        assert args.heartbeat == 0.5 and args.kill_workers == 0
        assert args.steal_after is None

    def test_flag_mode_is_gone(self):
        # 'coordinate' is the one command that runs cells: the old
        # flags are argparse errors, and a bare 'campaign' runs nothing.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--workers", "0"])
        assert main(["campaign"]) == 2

    def test_work_requires_address(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "work"])

    def test_work_rejects_bad_address(self, capsys):
        assert main(["campaign", "work", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_merge_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "merge", "a.jsonl"])

    def test_coordinate_merge_diff_roundtrip(self, tmp_path, capsys):
        grid = self._toml_grid(tmp_path)
        dist = tmp_path / "dist.jsonl"
        seq = tmp_path / "seq.jsonl"
        summary = tmp_path / "summary.json"
        assert main(["campaign", "coordinate", "--grid", str(grid),
                     "--out", str(dist), "--spawn", "2",
                     "--heartbeat", "0.2",
                     "--shard-dir", str(tmp_path / "shards"),
                     "--summary-out", str(summary), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "4 ran" in out and "wrote control-plane summary" in out
        assert main(["campaign", "coordinate", "--grid", str(grid),
                     "--spawn", "1", "--out", str(seq), "--quiet"]) == 0
        capsys.readouterr()

        import json
        doc = json.loads(summary.read_text())
        assert doc["completed"] == 4 and doc["quarantined"] == []

        shards = sorted(str(p)
                        for p in (tmp_path / "shards").glob("*.jsonl"))
        assert len(shards) == 2
        merged = tmp_path / "merged.jsonl"
        assert main(["campaign", "merge", *shards,
                     "--out", str(merged)]) == 0
        assert "merged 2 shard(s)" in capsys.readouterr().out

        assert main(["campaign", "diff", str(dist), str(seq)]) == 0
        assert main(["campaign", "diff", str(merged), str(seq)]) == 0
        out = capsys.readouterr().out
        assert "result-equivalent" in out

    def test_diff_detects_divergence(self, tmp_path, capsys):
        from repro.campaign import CellRecord, ResultStore

        spec = {"kind": "sleep", "seed": 1, "params": {}, "faults": None,
                "group": "g"}
        ResultStore(tmp_path / "a.jsonl").append(CellRecord(
            key="k0", spec=spec, status="ok",
            result={"value": 1}, meta={}))
        ResultStore(tmp_path / "b.jsonl").append(CellRecord(
            key="k0", spec=spec, status="ok",
            result={"value": 2}, meta={}))
        assert main(["campaign", "diff", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 1
        assert "payloads differ" in capsys.readouterr().out

    def test_merge_refuses_self_merge(self, tmp_path, capsys):
        from repro.campaign import CellRecord, ResultStore

        shard = tmp_path / "shard.jsonl"
        ResultStore(shard).append(CellRecord(
            key="k0", spec={"kind": "sleep", "seed": 1, "params": {},
                            "faults": None, "group": "g"},
            status="ok", result={}, meta={}))
        assert main(["campaign", "merge", str(shard),
                     "--out", str(shard)]) == 2
        assert "itself" in capsys.readouterr().err


class TestChaosCommand:
    def test_list_plans(self, capsys):
        assert main(["chaos", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "kitchen-sink" in out and "dataserver-degraded" in out

    def test_plan_required(self, capsys):
        assert main(["chaos"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            main(["chaos", "no-such-plan"])

    def test_chaos_run_green(self, capsys, tmp_path):
        summary = tmp_path / "summary.json"
        trace = tmp_path / "trace.json"
        assert main(["chaos", "flaky-network", "--seed", "1",
                     "--summary-out", str(summary),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "fault(s) injected" in out

        import json
        doc = json.loads(summary.read_text())
        assert doc["audit"]["ok"] is True
        assert doc["job_done"] is True
        assert doc["faults"]
        assert trace.read_text().startswith("{")

    def test_run_with_faults_flag(self, capsys):
        assert main(["run", "--mr", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06",
                     "--faults", "flaky-network", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out and "audit" in out
