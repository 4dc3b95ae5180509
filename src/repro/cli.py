"""Command-line interface for the rule-placement toolkit.

Subcommands mirror the operational workflow:

* ``generate`` -- synthesize a benchmark instance (fat-tree + routing +
  ClassBench-style policies) to a JSON file;
* ``solve``    -- run the ILP (or SAT) engine on an instance file and
  write the placement JSON;
* ``verify``   -- exact verification of a placement against its
  instance (exit code 1 on violation);
* ``report``   -- operator report: utilization, spread, accounting;
* ``export-lp``-- dump the exact CPLEX LP file of the encoding;
* ``chaos``    -- deploy a placement and storm its control plane with
  seeded fault schedules, checking convergence and the fail-closed
  invariant (exit code 1 on any failing seed);
* ``serve``    -- run the placement daemon (NDJSON over TCP or stdio):
  content-addressed result cache, admission control, crash-isolated
  workers, Prometheus-style metrics; ``--shards N`` runs a consistent-
  hash sharded cluster behind one asyncio front-end;
* ``ping``     -- liveness probe against a running daemon;
* ``loadgen``  -- replay the seeded mixed workload against a daemon or
  cluster (``--cluster``) and write a report;
* ``churn``    -- run the traffic-driven rule-caching loop (seeded
  Zipf/flash-crowd stream, promotion/eviction deltas) across a seed
  matrix and gate on the caching correctness oracle (exit code 1 on
  any verdict/closure violation or shadow digest mismatch);
* ``lint``     -- run the project static analyzer (fork-safety, async-
  blocking, lock-order, determinism, protocol wiring); exit code 1 on
  any non-baselined finding, ``--explain RULE-ID`` for rule docs.

Example::

    python -m repro.cli generate --k 4 --paths 32 --rules 20 \
        --capacity 40 -o instance.json
    python -m repro.cli solve instance.json -o placement.json --merging
    python -m repro.cli verify instance.json placement.json
    python -m repro.cli report instance.json placement.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from . import io as repro_io
from .core.ilp import build_encoding
from .core.objectives import NAMED_OBJECTIVES, TotalRules, apply_objective
from .core.placement import PlacerConfig, RulePlacer
from .core.report import instance_report, placement_report
from .core.satenc import SatPlacer
from .core.verify import verify_placement
from .experiments.generators import ExperimentConfig, build_instance
from .milp.lpfile import write_lp_file

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ILP/SAT rule placement for SDN firewalls (DSN 2014 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a benchmark instance")
    gen.add_argument("--k", type=int, default=4, help="fat-tree arity (even)")
    gen.add_argument("--paths", type=int, default=32, help="total routed paths")
    gen.add_argument("--rules", type=int, default=20, help="rules per policy")
    gen.add_argument("--capacity", type=int, default=100,
                     help="uniform switch capacity")
    gen.add_argument("--ingresses", type=int, default=None,
                     help="policies to attach (default: one per edge switch)")
    gen.add_argument("--blacklist", type=int, default=0,
                     help="shared mergeable blacklist rules")
    gen.add_argument("--slice", action="store_true", dest="flow_slicing",
                     help="annotate paths with flow descriptors")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="instance JSON path")

    solve = sub.add_parser("solve", help="place rules for an instance")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("-o", "--output", required=True,
                       help="placement JSON path")
    solve.add_argument("--engine", choices=["ilp", "sat"], default="ilp")
    solve.add_argument("--backend",
                       choices=["highs", "bnb", "portfolio"], default="highs",
                       help="ILP backend, or 'portfolio' to race every "
                            "exact engine and take the first proven answer")
    solve.add_argument("--merging", action="store_true",
                       help="enable cross-policy rule merging")
    solve.add_argument("--objective", choices=list(NAMED_OBJECTIVES),
                       default="rules")
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument("--deadline", type=float, default=None,
                       help="shared wall-clock budget in seconds; on expiry "
                            "the best incumbent is returned (status "
                            "time_limit)")
    solve.add_argument("--engines", default=None,
                       help="comma-separated portfolio engines "
                            "(default: highs,bnb,satopt)")

    verify = sub.add_parser("verify", help="exactly verify a placement")
    verify.add_argument("instance")
    verify.add_argument("placement")
    verify.add_argument("--simulate", action="store_true",
                        help="also replay sampled packets in the simulator")

    report = sub.add_parser("report", help="operator report")
    report.add_argument("instance")
    report.add_argument("placement", nargs="?", default=None,
                        help="optional placement JSON (instance-only otherwise)")

    export = sub.add_parser("export-lp", help="write the CPLEX LP file")
    export.add_argument("instance")
    export.add_argument("-o", "--output", required=True, help="LP file path")
    export.add_argument("--merging", action="store_true")

    policies = sub.add_parser(
        "policies", help="print an instance's policies in text form"
    )
    policies.add_argument("instance")
    policies.add_argument("--ingress", default=None,
                          help="limit output to one ingress policy")

    chaos = sub.add_parser(
        "chaos",
        help="storm a deployed placement with seeded control-plane faults",
    )
    chaos.add_argument("instance", help="instance JSON path")
    chaos.add_argument("placement", nargs="?", default=None,
                       help="placement JSON (default: solve with the "
                            "portfolio first)")
    chaos.add_argument("--seeds", type=int, default=20,
                       help="number of seeded fault schedules to run")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed of the range")
    chaos.add_argument("--horizon", type=int, default=30,
                       help="storm length in channel rounds")
    chaos.add_argument("--drop", type=float, default=0.15,
                       help="baseline drop rate during the storm")
    chaos.add_argument("--duplicate", type=float, default=0.1)
    chaos.add_argument("--reorder", type=float, default=0.1)
    chaos.add_argument("--no-fail-secure", action="store_true",
                       help="disable fail-secure reboots (demonstrates "
                            "the fail-closed violation they prevent)")

    serve = sub.add_parser(
        "serve",
        help="run the placement daemon (NDJSON over TCP or stdio)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve NDJSON on stdin/stdout instead of TCP")
    serve.add_argument("--shards", type=int, default=1,
                       help="run N placement shards behind a "
                            "consistent-hash router (1 = single "
                            "daemon)")
    serve.add_argument("--vnodes", type=int, default=64,
                       help="virtual nodes per shard on the hash ring")
    serve.add_argument("--workers", type=int, default=4,
                       help="max concurrently live solver workers")
    serve.add_argument("--dispatchers", type=int, default=2,
                       help="broker dispatcher threads")
    serve.add_argument("--queue", type=int, default=64,
                       help="admission queue bound (OVERLOADED beyond it)")
    serve.add_argument("--executor", choices=["process", "inline"],
                       default="process",
                       help="worker isolation (inline: no crash isolation)")
    serve.add_argument("--cache-entries", type=int, default=256)
    serve.add_argument("--cache-bytes", type=int, default=None)
    serve.add_argument("--journal-dir", default=None,
                       help="directory for the write-ahead journal; "
                            "enables crash recovery on restart")
    serve.add_argument("--durability",
                       choices=["fsync", "flush", "none"], default="fsync",
                       help="journal durability mode (default fsync)")
    serve.add_argument("--snapshot-every", type=int, default=256,
                       help="compact the journal every N records")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to drain in-flight work on "
                            "SIGTERM/SIGINT before forcing shutdown")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(solves that have one never coalesce)")

    ping_cmd = sub.add_parser("ping", help="probe a running daemon")
    ping_cmd.add_argument("--host", default="127.0.0.1")
    ping_cmd.add_argument("--port", type=int, default=7421)
    ping_cmd.add_argument("--timeout", type=float, default=5.0)
    ping_cmd.add_argument("--deep", action="store_true",
                          help="full health probe: journal lag, worker "
                               "liveness, queue depth, session probes")

    loadgen = sub.add_parser(
        "loadgen",
        help="replay the seeded mixed workload against a daemon or "
             "cluster and write a report",
    )
    loadgen.add_argument("-o", "--output", default="loadgen_report.json",
                         help="report JSON path")
    loadgen.add_argument("--address", default=None,
                         help="host:port of a running daemon or cluster "
                              "front-end (default: fresh in-process "
                              "target)")
    loadgen.add_argument("--cluster", action="store_true",
                         help="cluster workload: delta traffic over "
                              "--deployments named deployments and, "
                              "without --address, --shards in-process "
                              "shards")
    loadgen.add_argument("--shards", type=int, default=3,
                         help="in-process shards when --cluster runs "
                              "without --address")
    loadgen.add_argument("--deployments", type=int, default=3,
                         help="named deployments receiving delta "
                              "traffic in --cluster mode")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--instances", type=int, default=None,
                         help="distinct instances (cold solves)")
    loadgen.add_argument("--repeats", type=int, default=None,
                         help="cache-hit repeats per instance")
    loadgen.add_argument("--deltas", type=int, default=None,
                         help="delta ops per deployment")
    loadgen.add_argument("--clients", type=int, default=None,
                         help="concurrent client threads")
    loadgen.add_argument("--quick", action="store_true",
                         help="small workload")

    churn = sub.add_parser(
        "churn",
        help="run the traffic-driven rule-caching churn loop",
    )
    churn.add_argument("-o", "--output", default="churn_report.json",
                       help="report JSON path")
    churn.add_argument("--seeds", type=int, default=None,
                       help="seed-matrix width (default 8, 3 with "
                            "--quick)")
    churn.add_argument("--seed", type=int, default=0,
                       help="first seed of the matrix")
    churn.add_argument("--ticks", type=int, default=None,
                       help="traffic ticks per run (default 96)")
    churn.add_argument("--budget", type=int, default=None,
                       help="cached rules per ingress (default 12)")
    churn.add_argument("--strategy", default="popularity",
                       choices=["popularity", "lru", "lfu", "static"],
                       help="cache scoring strategy")
    churn.add_argument("--compare", action="store_true",
                       help="run every strategy and report the "
                            "hit-rate comparison")
    churn.add_argument("--service", action="store_true",
                       help="drive deltas through an in-process "
                            "service (journal + sessions see the "
                            "churn) with a digest-checked shadow")
    churn.add_argument("--quick", action="store_true",
                       help="small matrix")

    lint = sub.add_parser(
        "lint",
        help="run the project static analyzer (fork/async/lock/seed/"
             "proto invariants)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to scan (default: "
                           "src/repro under --root)")
    lint.add_argument("--root", default=".",
                      help="project root paths are reported relative to")
    lint.add_argument("--format", choices=["human", "json"],
                      default="human")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="findings baseline path, relative to --root")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline (report every finding)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record current findings as the new baseline")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default all)")
    lint.add_argument("--explain", metavar="RULE-ID", default=None,
                      help="print a rule's invariant, examples, and the "
                           "incident that motivated it, then exit")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        k=args.k, num_paths=args.paths, rules_per_policy=args.rules,
        capacity=args.capacity, num_ingresses=args.ingresses,
        blacklist_rules=args.blacklist, flow_slicing=args.flow_slicing,
        seed=args.seed,
    )
    instance = build_instance(config)
    repro_io.save_instance(instance, args.output)
    print(f"wrote {args.output}: {instance.summary()}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = repro_io.load_instance(args.instance)
    if args.engine == "sat":
        placement = SatPlacer(enable_merging=args.merging).place(instance)
    else:
        config = PlacerConfig(
            objective=NAMED_OBJECTIVES[args.objective],
            enable_merging=args.merging,
            backend=args.backend,
            time_limit=args.time_limit,
            deadline=args.deadline,
        )
        if args.engines:
            config.engines = tuple(
                name.strip() for name in args.engines.split(",") if name.strip()
            )
        placement = RulePlacer(config).place(instance)
    print(placement.summary())
    compile_stats = placement.solver_stats.get("compile")
    if isinstance(compile_stats, dict):
        print(
            "compile: depgraph {:.1f}ms, encode {:.1f}ms, "
            "{} component(s), parallel speedup {:.2f}x".format(
                compile_stats.get("depgraph_ms", 0.0),
                compile_stats.get("encode_ms", 0.0),
                compile_stats.get("components", 1),
                compile_stats.get("parallel_speedup", 1.0),
            )
        )
    if placement.winner is not None:
        portfolio = placement.solver_stats["portfolio"]
        engines = portfolio.get("engines", {})
        outcomes = ", ".join(
            f"{name}={record.get('outcome')}"
            f" ({record.get('wall_seconds', 0.0):.2f}s)"
            for name, record in engines.items()
        )
        print(f"portfolio winner: {placement.winner} [{outcomes}]")
    repro_io.save_placement(placement, args.output)
    print(f"wrote {args.output}")
    return 0 if placement.is_feasible else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = repro_io.load_instance(args.instance)
    placement = repro_io.load_placement(args.placement, instance)
    result = verify_placement(placement, simulate=args.simulate)
    if result.ok:
        print(f"OK: {result.paths_checked} paths, "
              f"{result.switches_checked} switches verified")
        return 0
    for error in result.errors:
        print(f"VIOLATION: {error}", file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    instance = repro_io.load_instance(args.instance)
    print(instance_report(instance))
    if args.placement:
        placement = repro_io.load_placement(args.placement, instance)
        print()
        print(placement_report(placement))
    return 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    instance = repro_io.load_instance(args.instance)
    encoding = build_encoding(instance, enable_merging=args.merging)
    apply_objective(encoding, TotalRules())
    write_lp_file(encoding.model, args.output)
    print(f"wrote {args.output}: {encoding.model.num_variables()} variables, "
          f"{encoding.model.num_constraints()} constraints")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from .policy.textfmt import format_policy

    instance = repro_io.load_instance(args.instance)
    for policy in instance.policies:
        if args.ingress is not None and policy.ingress != args.ingress:
            continue
        print(format_policy(policy))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import run_chaos

    instance = repro_io.load_instance(args.instance)
    if args.placement:
        placement = repro_io.load_placement(args.placement, instance)
    else:
        placement = RulePlacer(
            PlacerConfig(backend="portfolio", executor="inline")
        ).place(instance)
    if not placement.is_feasible:
        print("no feasible placement to storm", file=sys.stderr)
        return 2
    failures = 0
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        report = run_chaos(
            instance, placement, seed=seed,
            horizon=args.horizon, drop_rate=args.drop,
            duplicate_rate=args.duplicate, reorder_rate=args.reorder,
            fail_secure=not args.no_fail_secure,
        )
        verdict = ("ok" if report.converged and report.fail_closed_held
                   else "FAIL")
        if verdict == "FAIL":
            failures += 1
        print(f"seed {seed}: {verdict} stage={report.final_stage.value} "
              f"violations={len(report.violations)} "
              f"digest={report.digest[:12]}")
        for violation in report.violations[:3]:
            print(f"  {violation}", file=sys.stderr)
    print(f"{args.seeds - failures}/{args.seeds} schedules converged "
          f"fail-closed")
    return 1 if failures else 0


def _shard_config(args: argparse.Namespace,
                  journal_dir: Optional[str]):
    from .service import ServiceConfig

    return ServiceConfig(
        max_queue=args.queue,
        dispatchers=args.dispatchers,
        max_workers=args.workers,
        executor=args.executor,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        default_deadline=args.deadline,
        journal_dir=journal_dir,
        durability=args.durability,
        snapshot_every=args.snapshot_every,
    )


def _print_recovery(name: str, recovery) -> None:
    if recovery:
        prefix = f"{name}: " if name else ""
        print(f"{prefix}recovered from journal: {recovery['records']} "
              f"records, {recovery['deployments']} deployments, "
              f"{recovery['deltas']} deltas, {recovery['sessions']} "
              f"session workers forked", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import faulthandler
    import os
    import signal
    import threading

    from .service import PlacementService
    from .service.daemon import serve_stdio
    from .service.frontend import AsyncFrontend
    from .service.protocol import checked_deadline

    # SIGUSR1 dumps every thread's stack to stderr and serving goes on:
    # how an operator sees where a wedged daemon is stuck.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 and args.stdio:
        print("--shards > 1 requires the TCP front-end (no --stdio)",
              file=sys.stderr)
        return 2
    try:
        checked_deadline(args.deadline)
    except ValueError as exc:
        print(f"--deadline: {exc}", file=sys.stderr)
        return 2

    # Assemble the backend: one service, or N shards + a router.
    cluster = None
    if args.shards > 1:
        from .service.cluster import LocalCluster

        def factory(name: str):
            journal = (os.path.join(args.journal_dir, name)
                       if args.journal_dir else None)
            return _shard_config(args, journal)

        cluster = LocalCluster(shards=args.shards, vnodes=args.vnodes,
                               config_factory=factory)
        for name, shard in sorted(cluster.shards.items()):
            _print_recovery(name, shard.service.last_recovery)
        backend = cluster.router

        def close_backend(drain: bool) -> None:
            for shard in cluster.shards.values():
                shard.service.close(drain=drain,
                                    drain_timeout=args.drain_timeout)
            cluster.close()
    else:
        service = PlacementService(_shard_config(args, args.journal_dir))
        _print_recovery("", service.last_recovery)
        if args.stdio:
            try:
                return serve_stdio(service, sys.stdin, sys.stdout)
            finally:
                service.close(drain=True,
                              drain_timeout=args.drain_timeout)
        backend = service

        def close_backend(drain: bool) -> None:
            service.close(drain=drain, drain_timeout=args.drain_timeout)

    # Assemble the front-end; it never closes the backend itself.
    frontend = AsyncFrontend(backend, host=args.host, port=args.port)
    frontend.start()
    address = frontend.address
    print(f"repro {__version__} serving on "
          f"{address[0]}:{address[1]} "
          f"(frontend=async, shards={args.shards}, "
          f"executor={args.executor}, workers={args.workers}, "
          f"queue={args.queue}, "
          f"journal={args.journal_dir or 'off'})",
          flush=True)

    # SIGTERM/SIGINT -> graceful drain.  The handler must not block
    # itself: shutdown joins server threads and waits on in-flight
    # handlers, and blocking inside a signal handler on the main thread
    # would deadlock the very work being drained.  Hand off to a
    # one-shot drainer thread instead.
    done = threading.Event()
    stop_lock = threading.Lock()
    stopped = [False]

    def _stop_once(drain: bool) -> None:
        with stop_lock:
            if stopped[0]:
                return
            stopped[0] = True
        frontend.shutdown(drain=drain, drain_timeout=args.drain_timeout)
        close_backend(drain)

    def _drain_and_exit(signum: int, _frame: object) -> None:
        name = signal.Signals(signum).name

        def _worker() -> None:
            print(f"{name}: draining (timeout "
                  f"{args.drain_timeout:.0f}s)...", flush=True)
            _stop_once(drain=True)
            done.set()

        threading.Thread(target=_worker, name="repro-drainer",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _drain_and_exit)
    signal.signal(signal.SIGINT, _drain_and_exit)
    try:
        # Timed waits keep the main thread responsive to signals on
        # every platform (an untimed Event.wait can defer delivery).
        while not done.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        _stop_once(drain=False)
    print("drained; journal is durable", flush=True)
    return 0


def _cmd_ping(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceUnavailable
    from .service.protocol import HealthRequest, PingRequest

    try:
        with ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout,
                           connect_timeout=args.timeout,
                           retries=0) as client:
            response = client.call(HealthRequest(deep=True) if args.deep
                                   else PingRequest())
    except (ServiceUnavailable, OSError) as exc:
        print(f"ping {args.host}:{args.port} failed: {exc}",
              file=sys.stderr)
        return 1
    if args.deep:
        result = response.result or {}
        journal = result.get("journal") or {}
        print(f"health from {args.host}:{args.port}: "
              f"{'healthy' if result.get('healthy') else 'UNHEALTHY'}")
        print(f"  queue depth {result.get('queue_depth')}, busy workers "
              f"{result.get('busy_workers')}, live workers "
              f"{result.get('live_workers')}")
        print(f"  journal lag {journal.get('lag_records', 'n/a')} records, "
              f"{journal.get('bytes', 'n/a')} bytes, "
              f"{journal.get('records_since_snapshot', 'n/a')} since "
              f"snapshot")
        for name, digest in sorted(
                (result.get("state_digests") or {}).items()):
            print(f"  deployment {name}: {digest[:16]}")
        for name, probe in sorted(
                (result.get("session_probes") or {}).items()):
            print(f"  session {name}: {probe}")
        if result.get("dead_sessions"):
            print(f"  dead sessions: {result['dead_sessions']}",
                  file=sys.stderr)
        return 0 if result.get("healthy") else 1
    if not response.ok:
        print(f"ping unhealthy: {response.status} {response.error}",
              file=sys.stderr)
        return 1
    result = response.result or {}
    print(f"pong from {args.host}:{args.port}: "
          f"version {result.get('version')}, "
          f"deployments {result.get('deployments', [])}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .service.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(seed=args.seed, address=args.address)
    if args.cluster:
        config.shards = args.shards
        config.deployments = args.deployments
    if args.quick:
        config.unique_instances = 3
        config.repeats = 2
        config.deltas = 2
        config.clients = 2
        config.burst = 3
        config.num_paths = 6
        config.rules_per_policy = 6
    if args.instances is not None:
        config.unique_instances = args.instances
    if args.repeats is not None:
        config.repeats = args.repeats
    if args.deltas is not None:
        config.deltas = args.deltas
    if args.clients is not None:
        config.clients = args.clients

    report = run_loadgen(config)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    totals = report["totals"]
    print(f"{totals['requests']} requests in "
          f"{totals['wall_seconds']:.2f}s "
          f"({totals['throughput_rps']:.1f} req/s), "
          f"{totals['failures']} failed, {totals['shed']} shed")
    if "cluster" in report:
        spread = report["cluster"]["requests_by_shard"]
        affinity = report["cluster"]["warm_affinity"]
        print(f"shard spread: "
              + ", ".join(f"{name}={count}"
                          for name, count in spread.items()))
        print(f"warm affinity: {affinity['digests']} digests, "
              f"{len(affinity['violations'])} violation(s)")
    print(f"wrote {args.output}")
    return 0 if totals["failures"] == 0 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project static analyzer; exit 0 only when clean."""
    from pathlib import Path

    from .analysis import (AnalysisConfig, render_human, render_json,
                           rule_registry, run_analysis)
    from .analysis.baseline import write_baseline

    if args.explain:
        rules = rule_registry()
        info = rules.get(args.explain)
        if info is None:
            known = ", ".join(sorted(rules))
            print(f"unknown rule {args.explain!r}; known rules: {known}",
                  file=sys.stderr)
            return 2
        print(info.explain())
        return 0

    root = Path(args.root)
    baseline_path = root / args.baseline
    config = AnalysisConfig(
        root=root,
        paths=tuple(Path(p) for p in args.paths),
        rules=tuple(r.strip() for r in args.rules.split(",")
                    if r.strip()) if args.rules else (),
        baseline=None if args.no_baseline else baseline_path,
    )
    result = run_analysis(config)
    for path, error in result.parse_errors:
        print(f"{path}: parse error: {error}", file=sys.stderr)
    if args.write_baseline:
        count = write_baseline(baseline_path,
                               result.active + result.baselined)
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0
    renderer = render_json if args.format == "json" else render_human
    print(renderer(result.active, result.suppressed, result.baselined,
                   result.files_scanned))
    return result.exit_code


def _cmd_churn(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from .traffic.harness import ChurnConfig, run_churn, run_churn_matrix

    seeds = args.seeds if args.seeds is not None else (3 if args.quick else 8)
    ticks = args.ticks if args.ticks is not None else (48 if args.quick else 96)
    budget = args.budget if args.budget is not None else 12
    config = ChurnConfig(ticks=ticks, budget=budget,
                         strategy=args.strategy, service=args.service)

    seed_range = range(args.seed, args.seed + seeds)
    report = run_churn_matrix(config, seeds=seed_range)
    violations = report["total_violations"]
    mismatches = report["digest_mismatches"]
    print(f"matrix[{args.strategy}]: {report['seeds']} seeds, "
          f"mean hit-rate {report['mean_hit_rate']:.3f}, "
          f"{violations} violations")

    if args.compare:
        comparison = {}
        for strategy in ("popularity", "lru", "lfu", "static"):
            rates = []
            for seed in seed_range:
                run = run_churn(replace(config, seed=seed,
                                        strategy=strategy))
                rates.append(run["hit_rate"])
                violations += (run["verdict_violations"]
                               + run["closure_violations"])
                mismatches += run.get("digest_mismatches", 0)
            comparison[strategy] = sum(rates) / len(rates)
            print(f"  {strategy:>10}: hit-rate "
                  f"{comparison[strategy]:.3f}")
        report["comparison"] = comparison

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if violations or mismatches:
        print(f"FAIL: {violations} oracle violations, "
              f"{mismatches} digest mismatches")
        return 1
    print("oracle clean: every hit verdict matched the full policy")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "export-lp": _cmd_export_lp,
    "policies": _cmd_policies,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "ping": _cmd_ping,
    "loadgen": _cmd_loadgen,
    "churn": _cmd_churn,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output piped to a closed reader (e.g. `| head`): exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
