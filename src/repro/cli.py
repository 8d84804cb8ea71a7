"""Command-line interface: ``python -m repro <command>``.

``run`` runs one simulated job and ``wordcount`` the real runtime;
``campaign`` runs whole grids on leased workers — ``campaign coordinate
--grid paper`` regenerates every table, figure and claim in
EXPERIMENTS.md (declared in :mod:`repro.experiments`, rendered by
``docs/gen_experiments.py``); ``serve`` / ``volunteer`` / ``loadgen``
operate the live gateway.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import typing as _t


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    from .analysis import job_metrics, trace_to_csv
    from .core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
    from .experiments.scenario import metrics_payload
    from .faults import BUILTIN_PLANS
    from .obs import run_summary, trace_to_jsonl, write_chrome_trace
    from .wire import write_record

    if args.list_plans:
        for name in sorted(BUILTIN_PLANS):
            plan = BUILTIN_PLANS[name]
            print(f"{name:22s} {len(plan.faults):2d} faults  "
                  f"{plan.description}")
        return 0
    try:
        spec = MapReduceJobSpec("job", args.maps, args.reducers,
                                args.input_gb * 1e9)
        spec.require_hosts(args.nodes)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    mr_config = (BoincMRConfig() if args.mr
                 else BoincMRConfig.vanilla_boinc())
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=args.seed, mr_config=mr_config))
    cloud.add_volunteers(args.nodes, mr=args.mr)
    if args.summary or args.trace_out or args.faults:
        cloud.attach_observability(spans=True, probes=args.summary,
                                   profile=args.summary)
    faults = cloud.apply_faults(args.faults).events if args.faults else []
    job = cloud.submit(spec)
    outcome: dict[str, _t.Any] = {"job_done": True, "diagnosis": None}
    try:
        cloud.run_until(job.done)
    except Exception as exc:  # noqa: BLE001 — under faults, a diagnosis
        if not args.faults:
            raise
        outcome.update(job_done=False,
                       diagnosis=f"{type(exc).__name__}: {exc}")
        print(f"job failed with diagnosis: {outcome['diagnosis']}")
    else:
        m = job_metrics(cloud.tracer, "job")
        outcome.update(metrics_payload(m))
        print(f"map {m.map_stats.mean:.1f}s "
              f"[{m.map_stats.mean_discard_slowest:.1f}s]"
              f"  reduce {m.reduce_stats.mean:.1f}s"
              f"  total {m.total:.1f}s  transition gap {m.transition_gap:.1f}s")
    outcome["events"] = cloud.sim.dispatch_count
    report = cloud.audit(job)
    builder = cloud.finish_observability()
    if args.summary:
        print(run_summary(cloud.tracer, metrics=cloud.metrics,
                          builder=builder, profiler=cloud.profiler))
    if args.trace_out:
        if args.trace_format == "chrome":
            write_chrome_trace(builder, args.trace_out)
        else:
            text = (trace_to_jsonl(cloud.tracer)
                    if args.trace_format == "jsonl"
                    else trace_to_csv(cloud.tracer))
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"wrote {args.trace_format} trace to {args.trace_out} "
              f"({len(cloud.tracer)} records, {len(builder.leaked)} "
              f"leaked spans)")
    if args.faults:
        print(f"plan {args.faults!r}: {len(faults)} fault(s) injected")
    for ev in faults:
        print(f"  {ev['fault']:>4s}  {ev['kind']:18s} "
              f"t={ev['begin']:7.1f}..{ev['end']:7.1f}  {ev['target']}")
    print(report.render())
    ok = outcome["job_done"] and report.ok
    if args.summary_out:
        write_record(args.summary_out, {
            "command": "run", "seed": args.seed,
            "wall_s": time.monotonic() - started, "ok": ok,
            "spec": {key: getattr(args, key) for key in (
                "nodes", "maps", "reducers", "input_gb", "mr", "faults")},
            "outcome": outcome, "audit": report.to_dict(), "faults": faults})
        print(f"wrote run record to {args.summary_out}")
    return 0 if ok else 1


def _resolve_campaign_grid(args: argparse.Namespace) -> _t.Any:
    """Resolve ``--grid``/``--seeds``/``--faults`` into a grid (or raise)."""
    from .experiments import resolve_grid

    seeds = None
    if args.seeds:
        try:
            seeds = tuple(_seed_type(tok) for tok in args.seeds.split(","))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"bad --seeds value: {exc}") from exc
    return resolve_grid(args.grid, seeds=seeds, faults=args.faults)


def _cmd_campaign_coordinate(args: argparse.Namespace) -> int:
    from .analysis import aggregate_store, render_campaign_table
    from .campaign import CampaignCoordinator, ResultStore
    from .wire import write_record

    try:
        grid = _resolve_campaign_grid(args)
    except (ValueError, OSError) as exc:
        print(f"campaign coordinate: {exc}", file=sys.stderr)
        return 2
    coordinator = CampaignCoordinator(
        grid, ResultStore(args.out), spawn=args.spawn, host=args.bind,
        port=args.port, retries=args.retries, resume=args.resume,
        heartbeat_s=args.heartbeat, shard_dir=args.shard_dir,
        chaos_kills=args.kill_workers,
        chaos_interval_s=args.kill_interval,
        echo=None if args.quiet else print)
    report = coordinator.run()
    print(report.render())
    if report.ran or report.skipped:
        try:
            print(render_campaign_table(
                aggregate_store(args.out),
                title=f"campaign {grid.name!r} — headline metric by group"))
        except ValueError as exc:  # a resumed store holding a retired kind
            print(f"campaign coordinate: {exc}", file=sys.stderr)
    if args.summary_out:
        write_record(args.summary_out, report.record(args.seed))
        print(f"wrote run record to {args.summary_out}")
    print(f"results in {args.out} "
          f"(resume with --resume to skip completed cells)")
    return 0 if report.ok else 1


def _cmd_campaign_work(args: argparse.Namespace) -> int:
    from .campaign import CampaignWorker, ResultStore

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        print(f"campaign work: address must be HOST:PORT, "
              f"got {args.address!r}", file=sys.stderr)
        return 2
    worker = CampaignWorker(
        host, int(port), worker_id=args.id,
        shard=ResultStore(args.shard) if args.shard else None)
    try:
        completed = worker.run()
    except OSError as exc:  # the first connect; later losses end run()
        print(f"campaign work: cannot reach {args.address}: {exc}",
              file=sys.stderr)
        return 2
    print(f"worker {worker.worker_id}: completed {completed} cell(s)")
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from .campaign import merge_stores

    try:
        merged = merge_stores(args.out, args.shards)
    except (ValueError, OSError) as exc:
        print(f"campaign merge: {exc}", file=sys.stderr)
        return 2
    ok = sum(1 for r in merged.values() if r.ok)
    print(f"merged {len(args.shards)} shard(s) into {args.out}: "
          f"{len(merged)} cell(s), {ok} ok, {len(merged) - ok} failed")
    return 0


def _cmd_campaign_diff(args: argparse.Namespace) -> int:
    from .campaign import diff_stores

    try:
        mismatches = diff_stores(args.left, args.right)
    except (ValueError, OSError) as exc:
        print(f"campaign diff: {exc}", file=sys.stderr)
        return 2
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"{len(mismatches)} mismatch(es) between "
              f"{args.left} and {args.right}")
        return 1
    print(f"stores {args.left} and {args.right} are result-equivalent")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis import aggregate_store, render_campaign_table
    from .experiments import STUDIES, resolve_grid

    if args.list_grids:
        for name in ("paper", *(s.name for s in STUDIES)):
            grid = resolve_grid(name)
            print(f"{name:12s} {len(grid):3d} cells  {grid.description}")
        return 0
    if args.aggregate:
        if not pathlib.Path(args.aggregate).exists():
            print(f"campaign: no such store: {args.aggregate}",
                  file=sys.stderr)
            return 2
        try:
            groups = aggregate_store(args.aggregate)
        except (ValueError, OSError) as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        print(render_campaign_table(
            groups, title=f"campaign store {args.aggregate} — "
                          f"headline metric by group"))
        return 0
    print("campaign: nothing to do — pass --list-grids, --aggregate FILE "
          "or a MODE ('coordinate' runs a grid)", file=sys.stderr)
    return 2


def _cmd_wordcount(args: argparse.Namespace) -> int:
    import collections

    from .runtime import LocalRunner
    from .runtime.apps import WordCount
    from .workloads import generate_corpus

    corpus = generate_corpus(int(args.size_mb * 1e6), seed=args.seed)
    report = LocalRunner(WordCount(), n_maps=args.maps,
                         n_reducers=args.reducers).run(corpus)
    assert report.output == dict(collections.Counter(corpus.split()))
    print(f"{sum(report.output.values())} words, "
          f"{len(report.output)} distinct, "
          f"{report.intermediate_bytes / 1e3:.1f} kB intermediate — "
          "verified against collections.Counter")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    from .gateway import GatewayConfig, GatewayServer

    async def _serve() -> None:
        server = GatewayServer(GatewayConfig(
            host=args.host, port=args.port,
            daemon_period_s=args.daemon_period,
            delay_bound_s=args.delay_bound))
        await server.start()
        print(f"gateway serving on {server.address} "
              f"(protocol docs/protocol.md; ctrl-c to stop)", flush=True)
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                while True:
                    await asyncio.sleep(3600)
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("gateway stopped")
    return 0


def _cmd_volunteer(args: argparse.Namespace) -> int:
    import os

    from .gateway import run_volunteer

    name = args.name or f"vol-{os.getpid()}"
    stats = run_volunteer(args.address, name=name,
                          idle_limit=args.idle_limit)
    print(f"{name}: {stats.tasks_done} tasks done, "
          f"{stats.tasks_failed} failed, {stats.rpcs} scheduler RPCs; "
          f"{stats.requests} requests, {stats.retries} retries, "
          f"{stats.bytes_sent} bytes sent, "
          f"{stats.bytes_received} bytes received")
    return 0 if stats.tasks_failed == 0 else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .gateway import LoadConfig, run_loadgen
    from .wire import write_record

    config = LoadConfig(
        n_clients=args.clients, duration_s=args.duration, seed=args.seed,
        n_maps=args.maps, n_reducers=args.reducers)
    report = run_loadgen(address=args.address, config=config, echo=print)
    write_record(args.out, report.record())
    lat = report.latency_ms
    print(f"{report.rpcs} scheduler RPCs from {config.n_clients} clients "
          f"in {report.wall_s:.1f}s — "
          f"p50 {lat['p50']:.2f}ms  p90 {lat['p90']:.2f}ms  "
          f"p99 {lat['p99']:.2f}ms  max {lat['max']:.2f}ms")
    print(f"job {report.job_state}; lost={report.lost_results} "
          f"duplicated={report.duplicated_results} "
          f"equivalent={report.equivalent} -> {args.out}")
    if not report.ok:
        print("loadgen: correctness gates FAILED", file=sys.stderr)
        return 1
    return 0


def _seed_type(text: str) -> int:
    """Validate a ``--seed`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _add_campaign_modes(p: argparse.ArgumentParser,
                        common: argparse.ArgumentParser) -> None:
    """Attach the ``coordinate`` / ``work`` / ``merge`` / ``diff`` modes
    under ``campaign``; ``coordinate`` is the one that runs cells."""
    csub = p.add_subparsers(
        metavar="MODE",
        help="coordinate runs a grid; work / merge / diff attach "
             "workers and reconcile their shards")

    pc = csub.add_parser(
        "coordinate", parents=[common],
        help="serve a grid to worker processes under lease discipline "
             "(spawns local workers, accepts external ones)")
    pc.add_argument("--grid", default="table1",
                    help="builtin grid name (see 'campaign --list-grids') "
                         "or a declarative TOML grid path (default table1)")
    pc.add_argument("--seeds", default=None, metavar="S1,S2,...",
                    help="comma-separated seed fan-out "
                         "(default: the grid's own, typically 1,2,3)")
    pc.add_argument("--faults", metavar="PLAN", default=None,
                    help="arm a chaos plan on every deployment of "
                         "every cell (not on sleep cells)")
    pc.add_argument("--out", default="campaign.jsonl", metavar="FILE",
                    help="authoritative JSONL result store "
                         "(default campaign.jsonl)")
    pc.add_argument("--spawn", type=int, default=3,
                    help="local worker processes to fork "
                         "(0 = external workers only; default 3)")
    pc.add_argument("--bind", default="127.0.0.1", metavar="HOST",
                    help="control-socket bind address (default 127.0.0.1)")
    pc.add_argument("--port", type=int, default=0,
                    help="control-socket port (default 0 = pick a free one)")
    pc.add_argument("--heartbeat", type=float, default=0.5,
                    metavar="SECONDS",
                    help="worker heartbeat cadence; a worker silent for "
                         "3x this is declared dead (default 0.5)")
    pc.add_argument("--retries", type=int, default=1,
                    help="extra attempts before quarantining a cell "
                         "(default 1)")
    pc.add_argument("--resume", action="store_true",
                    help="skip cells already completed in --out")
    pc.add_argument("--shard-dir", metavar="DIR", default=None,
                    help="give each spawned worker a per-worker JSONL "
                         "shard in DIR (merge with 'campaign merge')")
    pc.add_argument("--kill-workers", type=int, default=0, metavar="N",
                    help="fault hook: SIGKILL N spawned workers mid-cell "
                         "and respawn replacements (default 0)")
    pc.add_argument("--kill-interval", type=float, default=1.0,
                    metavar="SECONDS",
                    help="spacing between --kill-workers kills (default 1)")
    pc.add_argument("--summary-out", metavar="FILE", default=None,
                    help="write the JSON run record (leases granted/"
                         "expired/reclaimed/stolen, worker failures, "
                         "chaos kills)")
    pc.add_argument("--quiet", action="store_true",
                    help="suppress per-cell progress lines")
    pc.set_defaults(handler=_cmd_campaign_coordinate)

    pw = csub.add_parser(
        "work", parents=[common],
        help="run cells for a coordinator at HOST:PORT until it "
             "shuts the campaign down")
    pw.add_argument("address", metavar="HOST:PORT",
                    help="coordinator control-socket address")
    pw.add_argument("--id", default=None, metavar="NAME",
                    help="worker id (default <hostname>-<pid>)")
    pw.add_argument("--shard", metavar="FILE", default=None,
                    help="also append every outcome to this per-worker "
                         "JSONL shard")
    pw.set_defaults(handler=_cmd_campaign_work)

    pm = csub.add_parser(
        "merge", parents=[common],
        help="fold per-worker JSONL shards into one resumable store "
             "(ok beats failed per key, last record wins otherwise)")
    pm.add_argument("shards", nargs="+", metavar="SHARD",
                    help="per-worker shard files to merge")
    pm.add_argument("--out", required=True, metavar="FILE",
                    help="merged store to write (must not be a SHARD)")
    pm.set_defaults(handler=_cmd_campaign_merge)

    pd = csub.add_parser(
        "diff", parents=[common],
        help="compare the successful per-key payloads of two stores "
             "(exit 1 on any mismatch)")
    pd.add_argument("left", metavar="STORE")
    pd.add_argument("right", metavar="STORE")
    pd.set_defaults(handler=_cmd_campaign_diff)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOINC-MR reproduction: simulated jobs, campaign "
                    "grids (the paper's evaluation is --grid paper) and "
                    "the live gateway.")
    parser.add_argument("--seed", type=_seed_type, default=1,
                        help="experiment seed (default 1)")
    # Every subcommand also accepts --seed after the command name; a value
    # there overrides the global one (SUPPRESS keeps the global default).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed_type, default=argparse.SUPPRESS,
                        help="experiment seed (overrides the global --seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common],
                       help="run one simulated MapReduce job")
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--maps", type=int, default=20)
    p.add_argument("--reducers", type=int, default=5)
    p.add_argument("--input-gb", type=float, default=1.0)
    p.add_argument("--mr", action="store_true",
                   help="use BOINC-MR clients (default: original BOINC)")
    p.add_argument("--faults", metavar="PLAN", default=None,
                   help="inject a chaos plan (builtin name or TOML path) "
                        "and audit the end state with RunAuditor; a job "
                        "that fails under it becomes a diagnosis")
    p.add_argument("--list-plans", action="store_true",
                   help="list the bundled chaos plans and exit")
    p.add_argument("--summary-out", metavar="FILE", default=None,
                   help="write the JSON run record (Table I cells, "
                        "audit report, fault log)")
    p.add_argument("--summary", action="store_true",
                   help="run with the full observability stack and print "
                        "the metrics/self-profile summary")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write the run's trace to FILE")
    p.add_argument("--trace-format", choices=("chrome", "jsonl", "csv"),
                   default="chrome",
                   help="chrome = Perfetto/chrome://tracing timeline "
                        "(default), jsonl = raw records, csv = flat table")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("wordcount", parents=[common],
                       help="run REAL word count on real bytes")
    p.add_argument("--size-mb", type=float, default=2.0)
    p.add_argument("--maps", type=int, default=8)
    p.add_argument("--reducers", type=int, default=4)
    p.set_defaults(handler=_cmd_wordcount)

    p = sub.add_parser(
        "campaign", parents=[common],
        help="run a whole experiment grid (scenario x seed x fault-plan "
             "cells) on leased workers, into a resumable result store "
             "('campaign coordinate')")
    p.add_argument("--list-grids", action="store_true",
                   help="list the builtin campaign grids and exit")
    p.add_argument("--aggregate", metavar="FILE", default=None,
                   help="render the aggregated table of an existing result "
                        "store and exit (runs nothing)")
    p.set_defaults(handler=_cmd_campaign)
    _add_campaign_modes(p, common)

    p = sub.add_parser(
        "serve", parents=[common],
        help="run the live asyncio gateway (real volunteers dial in over "
             "HTTP; see docs/protocol.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8523,
                   help="listen port (0 = OS-assigned; default 8523)")
    p.add_argument("--daemon-period", type=float, default=0.02,
                   metavar="SECONDS",
                   help="wall-clock cadence of the feeder/transitioner/"
                        "validator/assimilator pipeline tick (default 0.02)")
    p.add_argument("--delay-bound", type=float, default=10.0,
                   metavar="SECONDS",
                   help="result lease deadline; expired leases are "
                        "reissued by the transitioner (default 10)")
    p.add_argument("--duration", type=float, default=0.0, metavar="SECONDS",
                   help="serve for this long then exit (0 = forever)")
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "volunteer", parents=[common],
        help="run one real volunteer process against a live gateway")
    p.add_argument("--address", required=True, metavar="HOST:PORT")
    p.add_argument("--name", default=None,
                   help="host name to register as (default vol-<pid>)")
    p.add_argument("--idle-limit", type=int, default=100,
                   help="consecutive no-work polls before exiting")
    p.set_defaults(handler=_cmd_volunteer)

    p = sub.add_parser(
        "loadgen", parents=[common],
        help="replay simulated client schedules against a live gateway "
             "and emit BENCH_gateway.json with the p99 latency report")
    p.add_argument("--address", default=None, metavar="HOST:PORT",
                   help="gateway to load (default: self-host one in-process)")
    p.add_argument("--clients", type=int, default=500)
    p.add_argument("--duration", type=float, default=8.0, metavar="SECONDS",
                   help="wall-clock replay window for the compressed "
                        "availability schedules (default 8)")
    p.add_argument("--maps", type=int, default=12)
    p.add_argument("--reducers", type=int, default=6)
    p.add_argument("--out", default="BENCH_gateway.json", metavar="FILE",
                   help="the JSON run record; the exit status is 1 unless "
                        "its correctness gates hold (zero lost/duplicated "
                        "results, oracle-equivalent output, job done)")
    p.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Entry point: parse *argv* and run the subcommand's handler."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
