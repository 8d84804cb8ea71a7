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
        args = build_parser().parse_args(["--seed", "9", "run"])
        assert args.seed == 9

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert (args.nodes, args.maps, args.reducers) == (20, 20, 5)
        assert not args.mr
        assert args.trace_out is None and args.trace_format == "chrome"
        assert args.faults is None and args.summary_out is None

    def test_allocator_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--allocator", "full"])
        assert exc.value.code == 2
        assert "--allocator" in capsys.readouterr().err

    def test_trace_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace-format", "svg"])

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["run"])
        assert not args.summary and not args.list_plans
        # One sampling period is in use (attach_observability's default).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--sample-period", "30"])

    @pytest.mark.parametrize("command", [
        "chaos", "metrics",
        "table1", "fig4", "ablations", "nat", "churn", "planetlab"])
    def test_folded_commands_are_gone(self, command, capsys):
        """`run` is the one command that runs one simulated job and
        `campaign coordinate --grid paper` the one that regenerates the
        paper's artefacts: no alias, no accepted-and-ignored flag."""
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--nodes", "6", "--maps", "6", "--reducers", "2",
                     "--input-gb", "0.06"]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "map" in out

    def test_run_stdout_equals_the_pinned_run(self, capsys):
        # Recorded at the commit before `run` absorbed chaos and metrics.
        assert main(["run", "--nodes", "6", "--maps", "6", "--reducers", "2",
                     "--input-gb", "0.1", "--seed", "3"]) == 0
        # Every run is audited: the pinned line, then the audit.
        assert capsys.readouterr().out == (
            "map 95.3s [88.5s]  reduce 102.8s  total 406.3s"
            "  transition gap 49.9s\n"
            "audit at t=515: OK\n"
            "  flow: 0 checked\n  job: 1 checked\n  result: 16 checked\n"
            "  semaphore: 19 checked\n  span: 0 checked\n"
            "  workunit: 8 checked\n")

    def test_run_mr_command(self, capsys):
        assert main(["run", "--mr", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06"]) == 0
        assert "total" in capsys.readouterr().out

    def test_wordcount_command(self, capsys):
        assert main(["wordcount", "--size-mb", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "verified against collections.Counter" in out


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

    def test_chrome_file_is_the_export_of_the_same_run(self, tmp_path):
        # The file is streamed piece by piece; its bytes must be the string
        # chrome_trace_json returns for the same run built through the API.
        from repro.core import (BoincMRConfig, CloudSpec, MapReduceJobSpec,
                                VolunteerCloud)
        from repro.obs import chrome_trace_json

        out = tmp_path / "trace.json"
        assert main(["--seed", "4", *self.RUN, "--trace-out", str(out)]) == 0
        cloud = VolunteerCloud.from_spec(
            CloudSpec(seed=4, mr_config=BoincMRConfig()))
        cloud.add_volunteers(6, mr=True)
        cloud.attach_observability(spans=True, probes=False)
        job = cloud.submit(MapReduceJobSpec(
            "job", n_maps=6, n_reducers=2, input_size=0.06 * 1e9))
        cloud.run_until(job.done)
        cloud.audit(job)  # every run is audited before its trace is written
        expected = chrome_trace_json(cloud.finish_observability())
        assert out.read_bytes() == expected.encode()

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
        from tests.gateway.test_server import SAMPLE_LINE

        assert main([*self.RUN, "--summary"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("map ")
        assert "engine self-profile" in out
        # The metrics section is the Prometheus text GET /metrics serves:
        # every non-comment line is a sample, as CI checks a scrape.
        section = out.split("-- metrics --\n")[1].split("\n-- engine")[0]
        samples = [line for line in section.splitlines()
                   if not line.startswith("#")]
        for line in samples:
            assert SAMPLE_LINE.fullmatch(line), line
        names = {line.partition(" ")[0] for line in samples}
        assert {"sched_rpc_total", "daemon_transitioner_backlog",
                'client_task_compute_s_bucket{le="+Inf"}'} <= names


class TestRunRecord:
    """``run``, ``campaign coordinate`` and ``loadgen`` write one shape."""

    def test_three_commands_write_one_record_shape(self, tmp_path, pin,
                                                   capsys):
        import json

        from repro.gateway import loadgen
        from repro.wire import RECORD_SCHEMAS, compile_checks

        grid = tmp_path / "grid.toml"
        grid.write_text('name = "naps"\n[[cell]]\nkind = "sleep"\n'
                        'seeds = [1, 2]\nparams = { duration_s = 0.0 }\n')
        pin(loadgen, CORPUS_BYTES=20_000, REPLICATION=1, QUORUM=1,
            DRAIN_S=10.0)
        small = ["--nodes", "6", "--maps", "6", "--reducers", "2",
                 "--input-gb", "0.06"]
        commands = {
            "run": ["run", *small],
            "chaos": ["run", "--mr", *small, "--faults", "flaky-network"],
            "campaign": ["campaign", "coordinate", "--grid", str(grid),
                         "--spawn", "1", "--out", str(tmp_path / "c.jsonl"),
                         "--quiet"],
            "loadgen": ["loadgen", "--clients", "8", "--duration", "1",
                        "--maps", "4", "--reducers", "2"],
        }
        check = compile_checks(RECORD_SCHEMAS)["RunRecord"]
        keys = set()
        for name, argv in commands.items():
            path = tmp_path / f"{name}.json"
            flag = "--out" if name == "loadgen" else "--summary-out"
            assert main([*argv, flag, str(path)]) == 0, name
            doc = json.loads(path.read_text())
            assert check(doc, name) == [], name
            assert doc["ok"] is True, name
            keys.add(frozenset(doc))
        capsys.readouterr()
        assert keys == {frozenset(RECORD_SCHEMAS["RunRecord"])}


class TestSeedHandling:
    """--seed is accepted (and validated) uniformly on every subcommand."""

    COMMANDS = ["run", "wordcount"]

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
            build_parser().parse_args(["run", "--seed", "-2"])

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--seed", "banana", "run"])


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
        assert "paper         50 cells" in out

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

    def test_aggregate_of_a_retired_kind_exits_2(self, tmp_path, capsys):
        from repro.campaign import CellRecord, ResultStore

        store = tmp_path / "old.jsonl"
        ResultStore(store).append(CellRecord(
            key="k1", spec={"kind": "replication", "seed": 1, "params": {},
                            "faults": None, "group": "repl2q2"},
            status="ok", result={"total": 1.0}, meta={}))
        assert main(["campaign", "--aggregate", str(store)]) == 2
        assert "'replication' cells" in capsys.readouterr().err
        # Resuming into that store still runs the grid; only its table is
        # replaced by the message.
        assert main(["campaign", "coordinate", "--grid",
                     str(self._toml_grid(tmp_path)), "--spawn", "1",
                     "--out", str(store), "--quiet", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "'replication' cells" in captured.err
        assert "2 ran, 0 skipped" in captured.out


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
        assert args.handler.__name__ == "_cmd_campaign_coordinate"
        assert args.spawn == 3 and args.port == 0
        assert args.heartbeat == 0.5 and args.kill_workers == 0

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

    def test_work_against_a_closed_port_is_one_line(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["campaign", "work", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"campaign work: cannot reach 127.0.0.1:{port}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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
        assert "4 ran" in out and "wrote run record" in out
        assert main(["campaign", "coordinate", "--grid", str(grid),
                     "--spawn", "1", "--out", str(seq), "--quiet"]) == 0
        capsys.readouterr()

        import json
        doc = json.loads(summary.read_text())
        assert doc["ok"] and doc["command"] == "campaign"
        assert doc["outcome"]["completed"] == 4
        assert doc["outcome"]["quarantined"] == []

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
    """`run --faults`: what the chaos subcommand did."""

    CHAOS = ["run", "--mr", "--nodes", "12", "--maps", "12",
             "--reducers", "3", "--input-gb", "0.5"]

    def test_list_plans(self, capsys):
        assert main(["run", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "kitchen-sink" in out and "dataserver-degraded" in out

    def test_summary_out_without_a_plan_writes_a_record(self, tmp_path):
        import json

        summary = tmp_path / "summary.json"
        assert main(["run", "--nodes", "6", "--maps", "6", "--reducers",
                     "2", "--input-gb", "0.1", "--seed", "3",
                     "--summary-out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["ok"] and doc["faults"] == [] and doc["audit"]["ok"]
        assert doc["spec"]["faults"] is None
        # The Table I cells of the pinned run (TestCommands).
        assert round(doc["outcome"]["total"], 1) == 406.3
        assert round(doc["outcome"]["transition_gap"], 1) == 49.9
        assert doc["outcome"]["job_done"] and doc["outcome"]["events"] > 0

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            main(["run", "--faults", "no-such-plan"])

    def test_chaos_run_green(self, capsys, tmp_path):
        summary = tmp_path / "summary.json"
        trace = tmp_path / "trace.json"
        assert main([*self.CHAOS, "--faults", "flaky-network", "--seed", "1",
                     "--summary-out", str(summary),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "fault(s) injected" in out

        import json
        doc = json.loads(summary.read_text())
        assert doc["ok"] is True and doc["audit"]["ok"] is True
        assert doc["outcome"]["job_done"] is True
        assert doc["faults"]
        assert trace.read_text().startswith("{")

    #: What `repro chaos <plan> --seed S --summary-out F` wrote at the
    #: commit before the fold (its defaults were CHAOS's geometry):
    #: faults as (kind, target, begin, end), then the audit time.
    PARENT_CHAOS = {
        ("flaky-network", 1): ([
            ("link_flap", "host004,host005", 150.0, 350.0),
            ("bandwidth", "host001,host006,host010", 500.0, 1100.0),
            ("link_flap", "host003", 900.0, 1050.0)], 975.0),
        ("split-brain", 7): ([
            ("partition", "host002,host003,host006", 200.0, 700.0),
            ("partition", "host002,host004", 1000.0, 1300.0)], 2355.0),
    }
    PARENT_CHECKS = {"job": 1, "workunit": 15, "result": 30, "flow": 0,
                     "semaphore": 37, "span": 0}

    @pytest.mark.parametrize("plan,seed", sorted(PARENT_CHAOS))
    def test_run_faults_equals_the_chaos_command(self, plan, seed, tmp_path):
        import json

        summary = tmp_path / "summary.json"
        assert main([*self.CHAOS, "--faults", plan, "--seed", str(seed),
                     "--summary-out", str(summary)]) == 0
        faults, audit_at = self.PARENT_CHAOS[plan, seed]
        doc = json.loads(summary.read_text())
        assert (doc["spec"]["faults"], doc["seed"]) == (plan, seed)
        assert doc["faults"] == [
            {"fault": f"f{i}", "kind": kind, "target": target,
             "begin": begin, "end": end}
            for i, (kind, target, begin, end) in enumerate(faults)]
        assert doc["outcome"]["job_done"] is True
        assert doc["outcome"]["diagnosis"] is None
        assert doc["audit"] == {"ok": True, "at": audit_at,
                                "checks": self.PARENT_CHECKS,
                                "violations": []}

    def test_failed_job_becomes_a_diagnosis(self, capsys, tmp_path):
        import json

        plan = tmp_path / "doom.toml"
        plan.write_text('name = "doom"\n[[fault]]\nkind = "byzantine"\n'
                        'at = 0.0\nduration = 1e6\ntarget = "all"\n')
        summary = tmp_path / "summary.json"
        assert main(["run", "--mr", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06",
                     "--faults", str(plan),
                     "--summary-out", str(summary)]) == 1
        out = capsys.readouterr().out
        assert "job failed with diagnosis: SimulationError" in out
        assert "FAIL [job]" in out
        doc = json.loads(summary.read_text())
        assert doc["ok"] is False and doc["audit"]["ok"] is False
        assert doc["outcome"]["job_done"] is False
        assert doc["outcome"]["diagnosis"].startswith("SimulationError")

    def test_failed_job_without_faults_still_raises(self, monkeypatch):
        from repro.core import VolunteerCloud
        from repro.sim import SimulationError

        def never_done(cloud, event):
            raise SimulationError("job never finished")

        monkeypatch.setattr(VolunteerCloud, "run_until", never_done)
        with pytest.raises(SimulationError):
            main(["run", "--nodes", "2", "--maps", "2", "--reducers", "1",
                  "--input-gb", "0.01"])

    @pytest.mark.parametrize("nodes", [0, 1])
    def test_fewer_nodes_than_replicas_is_a_usage_error(self, nodes, capsys):
        # Replication 2 on fewer hosts can never reach quorum: refused
        # before anything is simulated.
        assert main(["run", "--nodes", str(nodes), "--maps", "2",
                     "--reducers", "1", "--input-gb", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err == ("run: need at least 2 nodes (the replication) to "
                       f"reach quorum, got {nodes}\n")

    def test_run_with_faults_flag(self, capsys):
        assert main(["run", "--mr", "--nodes", "6", "--maps", "6",
                     "--reducers", "2", "--input-gb", "0.06",
                     "--faults", "flaky-network", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "fault(s) injected" in out and "audit" in out
