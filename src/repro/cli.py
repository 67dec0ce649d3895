"""Command-line interface for the reproduction.

Three subcommands cover the common workflows without writing any code:

``python -m repro demo``
    Outsource a synthetic dataset under either scheme (``--scheme sae`` or
    ``--scheme tom``), run one verified query, then show that a tampered
    result is rejected.

``python -m repro experiments``
    Regenerate the paper's figures (5-8) at a chosen scale and print the
    tables; ``--figure`` selects a single figure, ``--figure head-to-head``
    runs the SAE-vs-TOM comparison on the modern pipeline and ``--figure
    scaling --scheme tom`` sweeps the sharded TOM deployment.

``python -m repro attack-gallery``
    Run the drop / inject / modify attack gallery against every registered
    scheme and print the verdicts; ``--key-bits`` / ``--seed`` configure
    the signing key material instead of being hardcoded.

``python -m repro serve``
    Serve a deployment over TCP: an asyncio server speaking the
    length-prefixed wire protocol of :mod:`repro.network.wire`, driven by
    the async client SDK (:class:`repro.network.client.RemoteSchemeClient`).
    With ``--data-dir`` the trees are routed through the paged storage tier
    (``--pool-pages`` bounds resident memory), a snapshot is written after
    setup, and a restart against the same directory **warm-restarts** from
    that snapshot -- same data, same signatures, no rebuild.

``python -m repro bench run-load``
    Drive one deployment (``--scheme {sae,tom}``) from N concurrent
    closed-loop clients and report throughput and p50/p95/p99 latency, per
    dispatch mode.  ``--shards N`` runs the sharded scatter-gather
    deployment of either scheme; ``--transport tcp`` serves the deployment
    on a localhost socket and drives it over real connections.

``python -m repro bench smoke``
    Run the quick benchmark suite, write machine-readable
    ``BENCH_throughput.json`` / ``BENCH_scaling.json`` /
    ``BENCH_head_to_head.json`` and fail on >20 % regression of any gated
    metric against ``benchmarks/baseline.json``; ``--write-baseline``
    refreshes that baseline (refused when gated metrics regressed).

``python -m repro bench profile``
    Wall-clock profiling pass for one scheme: cold/warm verified-query
    passes under ``cProfile``, per-stage spans (encode, digest, tree walk,
    VT/VO build, verify, wire) and the codec / memoization / verify-cache
    micro-benches, written to ``BENCH_profile.json``.

``python -m repro tune``
    Offline physical-design advisor: replay a receipt trace (recorded with
    ``bench run-load --record-trace``) through the cost model, search cut
    points / page size / pool pages / batch size, and write the cheapest
    candidate as a ``design.json`` for ``--design`` on ``serve`` /
    ``serve-fleet`` / ``bench run-load``.

``python -m repro migrate``
    Live re-shard an existing fleet to a tuned design: diff the serving
    :class:`~repro.core.design.PhysicalDesign` against ``--design``,
    bulk-move the affected key ranges through the signed update path under
    fleet-wide epoch barriers, and atomically flip the manifest so live
    routers adopt the new cut points without reconnecting.  Resumes an
    interrupted migration from its journal; a no-op plan exits 0 without
    touching the fleet.

Deployment-shaping flags (``--shards``, ``--replicas``, ``--pool-pages``,
``--batch-size``) act as *overrides* on top of ``--design`` when both are
given; a design file that cannot absorb the overrides (or cannot be read)
exits with code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import (
    DropAttack,
    InjectAttack,
    ModifyAttack,
    NoAttack,
    OutsourcedDB,
    available_schemes,
)
from repro.experiments import (
    ExperimentConfig,
    figure5_rows,
    figure6_rows,
    figure7_rows,
    figure8_rows,
    format_figure5,
    format_figure6,
    format_figure7,
    format_figure8,
)
from repro.workloads import build_dataset


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Separating Authentication from Query Execution "
                    "in Outsourced Databases' (ICDE 2009)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    schemes = available_schemes()

    demo = subparsers.add_parser("demo", help="outsource, query, verify, detect tampering")
    demo.add_argument("--records", type=int, default=5_000, help="dataset cardinality")
    demo.add_argument("--distribution", choices=["uniform", "zipf"], default="uniform")
    demo.add_argument("--scheme", choices=schemes, default="sae",
                      help="authentication scheme to deploy")
    demo.add_argument("--key-bits", type=int, default=1024,
                      help="RSA modulus size for schemes that sign (TOM)")
    demo.add_argument("--seed", type=int, default=7,
                      help="seed shared by the dataset and the key material")

    experiments = subparsers.add_parser("experiments", help="regenerate the paper's figures")
    experiments.add_argument("--scale", choices=["quick", "default", "paper"], default="quick")
    experiments.add_argument("--figure",
                             choices=["5", "6", "7", "8", "scaling", "head-to-head",
                                      "storage-tier", "all"],
                             default="all")
    experiments.add_argument("--shards", default="1,2,4,8",
                             help="comma-separated shard counts for --figure scaling")
    experiments.add_argument("--scheme", choices=schemes, default="sae",
                             help="scheme swept by --figure scaling")

    serve = subparsers.add_parser(
        "serve", help="serve a deployment over TCP (length-prefixed wire protocol)"
    )
    serve.add_argument("--records", type=_positive_int, default=10_000,
                       help="dataset cardinality")
    serve.add_argument("--distribution", choices=["uniform", "zipf"], default="uniform")
    serve.add_argument("--scheme", choices=schemes, default="sae",
                       help="authentication scheme to serve")
    serve.add_argument("--key-bits", type=int, default=1024,
                       help="RSA modulus size for schemes that sign (TOM)")
    serve.add_argument("--seed", type=int, default=7,
                       help="seed shared by the dataset and the key material")
    serve.add_argument("--shards", type=int, default=None,
                       help="number of SP/TE shards (>= 1; default 1 = classic "
                            "deployment; overrides --design)")
    serve.add_argument("--replicas", type=_positive_int, default=None,
                       help="replicas per shard (primary + N-1 warm standbys "
                            "with transparent failover; in-memory storage only; "
                            "default 1; overrides --design)")
    serve.add_argument("--design", default=None, metavar="FILE",
                       help="serve the physical design in FILE (a design.json "
                            "from 'repro tune'); explicit flags override it")
    serve.add_argument("--replica-of", default=None, metavar="DIR",
                       help="serve a standby restored from another deployment's "
                            "snapshot directory (snapshot shipping: the primary "
                            "snapshots, the standby restores the shipped copy; "
                            "clients detect a lagging standby via min_epoch)")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=9009,
                       help="TCP port to listen on (0 picks a free port)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="publish the bound 'host port' pair to FILE once "
                            "listening (how a fleet manager discovers --port 0)")
    serve.add_argument("--max-in-flight", type=_positive_int, default=64,
                       help="bounded admission: concurrent requests before queueing")
    serve.add_argument("--storage", choices=["memory", "paged"], default="memory",
                       help="storage tier: in-memory trees, or trees routed "
                            "through a buffer pool over page files")
    serve.add_argument("--data-dir", default=None,
                       help="directory for page files and snapshots (implies "
                            "--storage paged; an existing snapshot warm-restarts)")
    serve.add_argument("--pool-pages", type=_positive_int, default=None,
                       help="buffer-pool capacity (pages) per paged component "
                            "(default 128; overrides --design and snapshots)")

    fleet = subparsers.add_parser(
        "serve-fleet",
        help="serve a multi-process shard fleet: one supervised 'repro serve' "
             "child per shard (times replicas), restored from shipped snapshots",
    )
    fleet.add_argument("--data-dir", required=True,
                       help="fleet base directory (reused when it already holds "
                            "a fleet, built from a fresh dataset otherwise)")
    fleet.add_argument("--shards", type=_positive_int, default=None,
                       help="shard child processes (default 2 for a new fleet; "
                            "must match an existing fleet; overrides --design)")
    fleet.add_argument("--replicas", type=_positive_int, default=None,
                       help="replica children per shard (primary + N-1 standbys, "
                            "each serving its own snapshot copy; default 1; "
                            "overrides --design)")
    fleet.add_argument("--design", default=None, metavar="FILE",
                       help="build the fleet to the physical design in FILE "
                            "(explicit cut points included); explicit flags "
                            "override it; must match an existing fleet")
    fleet.add_argument("--records", type=_positive_int, default=10_000,
                       help="dataset cardinality when building a new fleet")
    fleet.add_argument("--distribution", choices=["uniform", "zipf"], default="uniform")
    fleet.add_argument("--scheme", choices=schemes, default="sae",
                       help="authentication scheme when building a new fleet")
    fleet.add_argument("--key-bits", type=int, default=1024,
                       help="RSA modulus size for schemes that sign (TOM)")
    fleet.add_argument("--seed", type=int, default=7,
                       help="seed shared by the dataset and the key material")
    fleet.add_argument("--host", default="127.0.0.1",
                       help="interface the children bind (each picks a free port)")
    fleet.add_argument("--pool-pages", type=_positive_int, default=None,
                       help="buffer-pool capacity (pages) per child component "
                            "(default 128; overrides --design)")
    fleet.add_argument("--max-in-flight", type=_positive_int, default=64,
                       help="bounded admission per child")
    fleet.add_argument("--no-restart", action="store_true",
                       help="do not restart crashed children (default: supervise)")

    gallery = subparsers.add_parser("attack-gallery",
                                    help="run the attack gallery against every scheme")
    gallery.add_argument("--records", type=int, default=3_000, help="dataset cardinality")
    gallery.add_argument("--key-bits", type=int, default=512,
                         help="RSA modulus size for schemes that sign (TOM)")
    gallery.add_argument("--seed", type=int, default=17,
                         help="seed shared by the dataset and the key material")

    bench = subparsers.add_parser("bench", help="performance benchmarks")
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    load = bench_commands.add_parser(
        "run-load",
        help="closed-loop multi-client load driver (throughput + latency percentiles)",
    )
    load.add_argument("--records", type=_positive_int, default=10_000,
                      help="dataset cardinality")
    load.add_argument("--queries", type=_positive_int, default=200, help="workload size")
    load.add_argument("--scheme", choices=schemes, default="sae",
                      help="authentication scheme to drive")
    load.add_argument("--key-bits", type=int, default=1024,
                      help="RSA modulus size for schemes that sign (TOM)")
    load.add_argument("--clients", type=int, default=4,
                      help="number of concurrent clients (>= 1)")
    load.add_argument("--shards", type=int, default=None,
                      help="number of SP/TE shards (>= 1; default 1 = classic "
                           "deployment; overrides --design)")
    load.add_argument("--replicas", type=int, default=None,
                      help="replicas per shard (>= 1; default 1 = primary only; "
                           "overrides --design)")
    load.add_argument("--design", default=None, metavar="FILE",
                      help="deploy the physical design in FILE (a design.json "
                           "from 'repro tune'); explicit flags override it")
    load.add_argument("--record-trace", default=None, metavar="FILE",
                      help="record every query's receipt to FILE as a JSONL "
                           "trace for 'repro tune' (needs a single --mode)")
    load.add_argument("--mode", choices=["per-query", "batched", "both"], default="both",
                      help="dispatch mode ('both' compares the two)")
    load.add_argument("--transport", choices=["inproc", "tcp", "fleet"], default="inproc",
                      help="drive the scheme in-process, over localhost sockets, "
                           "or against a multi-process shard fleet")
    load.add_argument("--workers", type=int, default=None,
                      help="load-generating worker processes (fleet transport "
                           "only; each runs --clients closed-loop clients)")
    load.add_argument("--batch-size", type=int, default=None,
                      help="queries per query_many() call in batched mode "
                           "(default 25, or the --design file's batch size)")
    load.add_argument("--extent", type=float, default=0.005,
                      help="query extent as a fraction of the key domain")
    load.add_argument("--distribution", choices=["uniform", "zipf"], default="uniform")
    load.add_argument("--seed", type=int, default=7)
    load.add_argument("--no-verify", action="store_true",
                      help="skip client verification (execution-only load)")

    smoke = bench_commands.add_parser(
        "smoke",
        help="quick benchmarks -> BENCH_*.json, gated against benchmarks/baseline.json",
    )
    smoke.add_argument("--out", default=".", help="directory for the BENCH_*.json files")
    smoke.add_argument("--baseline", default="benchmarks/baseline.json",
                       help="committed baseline to gate against")
    smoke.add_argument("--no-check", action="store_true",
                       help="record the numbers without gating")
    smoke.add_argument("--tolerance", type=float, default=None,
                       help="allowed relative regression (default 0.20)")
    smoke.add_argument("--inject-regression", type=float, default=None, metavar="FACTOR",
                       help="degrade gated metrics by FACTOR (CI's gate-trips proof)")
    smoke.add_argument("--reuse", default=None, metavar="DIR",
                       help="reuse BENCH_*.json from DIR instead of re-benchmarking")
    smoke.add_argument("--write-baseline", action="store_true",
                       help="rewrite the --baseline file from this run (refused when "
                            "gated metrics regressed against the committed baseline)")

    prof = bench_commands.add_parser(
        "profile",
        help="wall-clock profiling pass: per-stage spans, cProfile hotspots and "
             "codec/memo/verify-cache micro-benches -> BENCH_profile.json",
    )
    prof.add_argument("--scheme", choices=schemes, default="sae",
                      help="authentication scheme to profile")
    prof.add_argument("--records", type=_positive_int, default=4_000,
                      help="dataset cardinality")
    prof.add_argument("--queries", type=_positive_int, default=60, help="workload size")
    prof.add_argument("--key-bits", type=int, default=512,
                      help="RSA modulus size for schemes that sign (TOM)")
    prof.add_argument("--clients", type=_positive_int, default=4,
                      help="concurrent clients for the wall-qps pass")
    prof.add_argument("--seed", type=int, default=7)
    prof.add_argument("--top", type=_positive_int, default=12,
                      help="cProfile functions to report")
    prof.add_argument("--out", default=".",
                      help="directory for the BENCH_profile.json document")

    tune = subparsers.add_parser(
        "tune",
        help="offline physical-design advisor: replay a receipt trace through "
             "the cost model and emit a recommended design.json",
    )
    tune.add_argument("--trace", required=True, metavar="FILE",
                      help="receipt trace recorded with "
                           "'bench run-load --record-trace FILE'")
    tune.add_argument("--out", default="design.json", metavar="FILE",
                      help="where to write the recommended design")
    tune.add_argument("--report", default=None, metavar="FILE",
                      help="also write the human-readable advisor report to FILE")
    tune.add_argument("--baseline", default=None, metavar="FILE",
                      help="design file to compare against (default: the design "
                           "the trace was recorded under)")
    tune.add_argument("--shards", type=_positive_int, default=None,
                      help="design for this shard count instead of the "
                           "baseline's (a capacity decision, not searched)")
    tune.add_argument("--rounds", type=_positive_int, default=2,
                      help="coordinate-descent passes over the knobs")

    migrate = subparsers.add_parser(
        "migrate",
        help="live re-shard an existing fleet to a tuned physical design "
             "(bulk-moves key ranges under epoch barriers, then flips the "
             "manifest so routers adopt the new cuts without reconnecting)",
    )
    migrate.add_argument("--design", required=True, metavar="FILE",
                         help="target physical design (a design.json from "
                              "'repro tune'; sharded targets need explicit "
                              "cut points)")
    migrate.add_argument("--fleet-dir", required=True, metavar="DIR",
                         help="base directory of the fleet to migrate "
                              "(built by 'repro serve-fleet')")
    migrate.add_argument("--host", default="127.0.0.1",
                         help="interface the shard children bind during the "
                              "migration")
    migrate.add_argument("--move-chunk", type=_positive_int, default=64,
                         help="records moved per epoch barrier (smaller = "
                              "finer-grained progress, more barriers)")
    migrate.add_argument("--checkpoint-every", type=_positive_int, default=8,
                         help="barriers between shard checkpoints (bounds "
                              "journal replay after a crash)")
    migrate.add_argument("--quiet", action="store_true",
                         help="suppress per-phase progress lines")
    return parser


def _config_for(scale: str) -> ExperimentConfig:
    if scale == "paper":
        return ExperimentConfig.paper()
    if scale == "default":
        return ExperimentConfig.default()
    return ExperimentConfig.quick()


def _bench_load_problem(args: argparse.Namespace) -> Optional[str]:
    """A human-readable reason the run-load arguments are unusable, or None.

    The load driver and the deployment would raise ``ValueError`` deep in
    the stack; catching the misconfiguration here turns a bare traceback
    into an actionable one-line message and exit code 2.
    """
    if args.clients < 1:
        return f"--clients must be at least 1, got {args.clients}"
    if args.shards is not None and args.shards < 1:
        return f"--shards must be at least 1, got {args.shards}"
    if args.replicas is not None and args.replicas < 1:
        return f"--replicas must be at least 1, got {args.replicas}"
    if (
        args.batch_size is not None
        and args.mode in ("batched", "both")
        and args.batch_size < 1
    ):
        return f"--batch-size must be at least 1 in batched mode, got {args.batch_size}"
    if args.workers is not None and args.transport != "fleet":
        return (f"--workers only applies to --transport fleet "
                f"(got --transport {args.transport}); the inproc/tcp transports "
                "drive from this process")
    if args.workers is not None and args.workers < 1:
        return f"--workers must be at least 1, got {args.workers}"
    if args.record_trace is not None and args.mode == "both":
        return ("--record-trace records one run into one trace file, which "
                "contradicts --mode both (two runs); pick --mode per-query "
                "or --mode batched")
    return None


def _command_design(path: Optional[str], default=None, **overrides):
    """The one design a command deploys, with explicitly-set flags folded on.

    ``path`` is the ``--design`` file; without one the command's ``default``
    design (else the stock :class:`~repro.core.design.PhysicalDesign`)
    stands in.  Returns ``(design, None)`` or ``(None, error_message)``: an
    unreadable or malformed file, or an override combination the design
    cannot absorb (a :class:`~repro.core.design.DesignError`), is the CLI's
    exit-2 case.
    """
    from repro.core.design import DesignError, PhysicalDesign

    try:
        base = PhysicalDesign.load(path) if path is not None else default or PhysicalDesign()
        return base.with_overrides(**overrides), None
    except DesignError as exc:
        return None, f"--design {path}: {exc}" if path is not None else str(exc)


def _run_bench_smoke(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.benchgate import GATE_TOLERANCE, run_smoke

    if args.inject_regression is not None and args.inject_regression <= 0:
        print(f"error: --inject-regression must be positive, got "
              f"{args.inject_regression}", file=sys.stderr)
        return 2
    return run_smoke(
        out_dir=Path(args.out),
        baseline_path=Path(args.baseline),
        check=not args.no_check,
        regression_factor=args.inject_regression,
        tolerance=args.tolerance if args.tolerance is not None else GATE_TOLERANCE,
        reuse_dir=Path(args.reuse) if args.reuse is not None else None,
        write_baseline=args.write_baseline,
    )


def _run_bench_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.benchgate import metrics_document, profile_gate_metrics, write_bench_file
    from repro.experiments.profile import ProfileError, format_profile, run_profile

    try:
        report = run_profile(
            scheme=args.scheme,
            cardinality=args.records,
            num_queries=args.queries,
            seed=args.seed,
            key_bits=args.key_bits,
            num_clients=args.clients,
            top=args.top,
        )
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_profile(report))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    document = metrics_document(
        profile_gate_metrics(report),
        meta={"suite": "profile", "scheme": args.scheme, "scale": "cli"},
    )
    path = out_dir / "BENCH_profile.json"
    write_bench_file(path, document)
    print(f"wrote {path}")
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    dataset = build_dataset(args.records, distribution=args.distribution, seed=args.seed)
    system = OutsourcedDB(
        dataset, scheme=args.scheme, key_bits=args.key_bits, seed=args.seed
    ).setup()
    with system:
        low, high = 2_000_000, 2_050_000
        outcome = system.query(low, high)
        print(f"dataset {dataset.name}: {dataset.cardinality} records, "
              f"scheme {system.scheme_name}")
        print(f"query [{low}, {high}]: {outcome.cardinality} records, "
              f"verified={outcome.verified}, auth={outcome.auth_bytes} bytes")
        system.provider.attack = DropAttack(count=1, seed=1)
        tampered = system.query(low, high)
        print(f"after the provider drops one record: verified={tampered.verified}")
    return 0 if outcome.verified and not tampered.verified else 1


def _run_experiments(args: argparse.Namespace) -> int:
    config = _config_for(args.scale)
    figures = {
        "5": (figure5_rows, format_figure5),
        "6": (figure6_rows, format_figure6),
        "7": (figure7_rows, format_figure7),
        "8": (figure8_rows, format_figure8),
    }
    selected = list(figures) if args.figure == "all" else [args.figure]
    if args.figure in ("scaling", "head-to-head", "storage-tier"):
        selected = []
    for number in selected:
        rows_fn, format_fn = figures[number]
        print(format_fn(rows_fn(config)))
        print()
    if args.figure in ("scaling", "all"):
        from repro.experiments.scaling import format_scaling, scaling_rows

        try:
            shard_counts = tuple(int(part) for part in args.shards.split(","))
        except ValueError:
            print(f"error: --shards must be a comma-separated list of integers, "
                  f"got {args.shards!r}", file=sys.stderr)
            return 2
        if not shard_counts or any(count < 1 for count in shard_counts):
            print(f"error: every shard count must be >= 1, got {args.shards!r}",
                  file=sys.stderr)
            return 2
        points = scaling_rows(scale=args.scale, shard_counts=shard_counts,
                              scheme=args.scheme)
        print(format_scaling(points))
        print()
    if args.figure == "storage-tier":
        from repro.experiments.storage_tier import format_storage_tier, run_storage_tier

        all_points = []
        for scheme_name in ("sae", "tom"):
            points = run_storage_tier(scheme=scheme_name)
            all_points.extend(points)
        print(format_storage_tier(all_points))
        print()
        if not all(p.parity_ok and p.all_verified for p in all_points):
            return 1
    if args.figure in ("head-to-head", "all"):
        from repro.experiments.head_to_head import (
            format_head_to_head,
            format_update_costs,
            head_to_head_rows,
        )

        result = head_to_head_rows(scale=args.scale)
        print(format_head_to_head(result.points))
        print()
        print(format_update_costs(result.update_points))
        print()
        verified = all(point.all_verified for point in result.points) and all(
            point.all_verified_after for point in result.update_points
        )
        if not verified:
            return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.core.scheme import has_snapshot, restore_deployment
    from repro.network.fleet import has_fleet
    from repro.network.server import run_server

    if args.shards is not None and args.shards < 1:
        print(f"error: --shards must be at least 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.design is not None and args.replica_of is not None:
        print("error: --design contradicts --replica-of (a standby serves "
              "the design its primary's shipped snapshot was built with)",
              file=sys.stderr)
        return 2
    design, problem = _command_design(
        args.design,
        shards=args.shards,
        replicas=args.replicas,
        pool_pages=args.pool_pages,
    )
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    for option, value in (("--data-dir", args.data_dir), ("--replica-of", args.replica_of)):
        if value is not None and has_fleet(value):
            print(f"error: {value} holds a multi-process fleet, which a single "
                  f"'repro serve' cannot host; use 'repro serve-fleet --data-dir "
                  f"{value}' (or point {option} at one of its shard"
                  f" subdirectories)", file=sys.stderr)
            return 2
    if args.replica_of is not None:
        if args.data_dir is not None:
            print("error: --replica-of and --data-dir are mutually exclusive "
                  "(a standby serves the primary's shipped snapshot read-only)",
                  file=sys.stderr)
            return 2
        if not has_snapshot(args.replica_of):
            print(f"error: no deployment snapshot at {args.replica_of} "
                  "(ship the primary's snapshot directory first)", file=sys.stderr)
            return 2
        system = restore_deployment(args.replica_of, pool_pages=args.pool_pages)
        dataset = system.dataset
        print(f"standby of {args.replica_of}: {dataset.cardinality} records, "
              f"scheme {system.scheme_name}, {system.num_shards} shard(s), "
              f"update epoch {system.current_epoch}")
        with system:
            run_server(system, host=args.host, port=args.port,
                       max_in_flight=args.max_in_flight, port_file=args.port_file)
        return 0
    if design.replicas > 1 and args.data_dir is not None:
        print("error: --replicas > 1 serves from memory; per-primary snapshots "
              "ship to standbys via --replica-of instead", file=sys.stderr)
        return 2
    storage = "paged" if args.data_dir is not None else args.storage
    if storage == "paged" and args.data_dir is None:
        print("error: --storage paged requires --data-dir", file=sys.stderr)
        return 2

    if args.data_dir is not None and has_snapshot(args.data_dir):
        if args.design is not None:
            print(f"error: --design contradicts the existing snapshot at "
                  f"{args.data_dir} (its physical design is baked into the "
                  "page files); rebuild in a fresh directory to change it",
                  file=sys.stderr)
            return 2
        # Warm restart: reopen the page files and the snapshot state.  No
        # dataset generation, no tree build, no re-signing.
        system = restore_deployment(args.data_dir, pool_pages=args.pool_pages)
        dataset = system.dataset
        print(f"warm restart from {args.data_dir}: {dataset.cardinality} records, "
              f"scheme {system.scheme_name}, {system.num_shards} shard(s), "
              f"pool {system.design.pool_pages} pages")
    else:
        dataset = build_dataset(args.records, distribution=args.distribution,
                                seed=args.seed)
        system = OutsourcedDB(
            dataset,
            scheme=args.scheme,
            design=design,
            key_bits=args.key_bits,
            seed=args.seed,
            storage=storage,
            data_dir=args.data_dir,
        ).setup()
        print(f"dataset {dataset.name}: {dataset.cardinality} records, "
              f"scheme {system.scheme_name}, {system.num_shards} shard(s) x "
              f"{system.num_replicas} replica(s), storage {storage}")
        if args.data_dir is not None:
            path = system.snapshot()
            print(f"snapshot written to {path} (restarts will warm-start)")
    with system:
        run_server(
            system,
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            port_file=args.port_file,
        )
    return 0


def _run_serve_fleet(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.core.design import PhysicalDesign
    from repro.network.fleet import (
        FleetError,
        FleetManager,
        FleetManifest,
        build_fleet,
        has_fleet,
    )

    design, problem = _command_design(
        args.design,
        PhysicalDesign(shards=2),
        shards=args.shards,
        replicas=args.replicas,
        pool_pages=args.pool_pages,
    )
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    if has_fleet(args.data_dir):
        manifest = FleetManifest.load(args.data_dir)
        served = manifest.physical_design()
        if args.design is not None:
            mismatched = [
                name
                for name in ("shards", "replicas", "pool_pages", "page_size")
                if getattr(design, name) != getattr(served, name)
            ]
            if design.cut_points is not None and design.cut_points != served.cut_points:
                mismatched.append("cut_points")
            if mismatched:
                print(f"error: {args.data_dir} was built with design "
                      f"[{served.describe()}], which contradicts --design "
                      f"{args.design} on {', '.join(mismatched)}; a fleet's "
                      "physical design is baked in at build time -- build a "
                      "new fleet in a fresh directory", file=sys.stderr)
                return 2
        if args.shards is not None and args.shards != manifest.num_shards:
            print(f"error: {args.data_dir} holds a {manifest.num_shards}-shard "
                  f"fleet but --shards {args.shards} was requested; serve it "
                  f"with --shards {manifest.num_shards} or build a new fleet "
                  "in a fresh directory", file=sys.stderr)
            return 2
        if args.replicas is not None and args.replicas != manifest.replicas:
            print(f"error: {args.data_dir} was built with {manifest.replicas} "
                  f"replica(s) per shard but --replicas {args.replicas} was "
                  "requested; replica snapshots are shipped at build time",
                  file=sys.stderr)
            return 2
        print(f"existing fleet at {args.data_dir}: scheme {manifest.scheme}, "
              f"{manifest.num_shards} shard(s) x {manifest.replicas} replica(s), "
              f"{manifest.cardinality} records, design [{served.describe()}]")
    else:
        dataset = build_dataset(args.records, distribution=args.distribution,
                                seed=args.seed)
        try:
            manifest = build_fleet(
                dataset,
                args.data_dir,
                scheme=args.scheme,
                design=design,
                key_bits=args.key_bits,
                seed=args.seed,
            )
        except FleetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"built fleet at {args.data_dir}: scheme {manifest.scheme}, "
              f"{manifest.num_shards} shard(s) x {manifest.replicas} replica(s), "
              f"{manifest.cardinality} records, design "
              f"[{manifest.physical_design().describe()}]")

    manager = FleetManager(
        args.data_dir,
        host=args.host,
        max_in_flight=args.max_in_flight,
        restart=not args.no_restart,
    )
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    try:
        try:
            manager.start()
        except FleetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for shard, replicas in enumerate(manager.endpoints()):
            for replica, (host, port) in enumerate(replicas):
                child = manager.child(shard, replica)
                print(f"  shard{shard}.r{replica} -> {host}:{port} (pid {child.pid})")
        print(f"fleet up: {manifest.num_shards * manifest.replicas} child "
              "process(es); SIGTERM or Ctrl-C drains and stops", flush=True)
        stop.wait()
        print("stopping fleet (graceful drain)", flush=True)
        codes = manager.stop()
        print(f"fleet stopped; child exit codes {codes}")
        return 0 if all(code == 0 for code in codes) else 1
    finally:
        manager.stop(grace_s=1.0)
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _run_attack_gallery(args: argparse.Namespace) -> int:
    from repro.core import StaleReplicaAttack
    from repro.core.updates import UpdateBatch

    dataset = build_dataset(args.records, record_size=200, seed=args.seed)
    systems = {
        name: OutsourcedDB(
            dataset, scheme=name, key_bits=args.key_bits, seed=args.seed
        ).setup()
        for name in available_schemes()
    }
    attacks = [
        ("honest", NoAttack()),
        ("drop 1", DropAttack(count=1, seed=1)),
        ("inject 1", InjectAttack(count=1)),
        ("modify 1", ModifyAttack(count=1, seed=2)),
    ]
    failures = 0
    header = f"{'attack':<14} " + " ".join(f"{name.upper():<10}" for name in systems)
    print(header)
    for name, attack in attacks:
        honest = isinstance(attack, NoAttack)
        verdicts = []
        for system in systems.values():
            system.provider.attack = attack
            accepted = system.query(1_000_000, 1_400_000).verified
            verdicts.append("accepted" if accepted else "REJECTED")
            if accepted != honest:
                failures += 1
        print(f"{name:<14} " + " ".join(f"{verdict:<10}" for verdict in verdicts))
    # The stale-replica attack is special: the SP answers *honestly* from a
    # captured old state, so every digest checks out against that state and
    # only the signed update epoch exposes it.  Capture each deployment,
    # advance its epoch with an idempotent modify, replay the capture, and
    # require the distinct freshness verdict (not a generic tamper).
    verdicts = []
    for system in systems.values():
        stale = StaleReplicaAttack.capture(system)
        record = system.dataset.records[0]
        system.provider.attack = NoAttack()
        system.apply_updates(UpdateBatch().modify(tuple(record)))
        system.provider.attack = stale
        outcome = system.query(1_000_000, 1_400_000)
        flagged = bool(outcome.verification.details.get("freshness_violation"))
        if outcome.verified or not flagged:
            verdicts.append("accepted" if outcome.verified else "REJECTED")
            failures += 1
        else:
            verdicts.append("STALE")
    print(f"{'stale replica':<14} " + " ".join(f"{verdict:<10}" for verdict in verdicts))
    for system in systems.values():
        system.close()
    return 1 if failures else 0


def _run_bench_load(args: argparse.Namespace) -> int:
    from repro.experiments.throughput import format_load_reports, run_load
    from repro.workloads.queries import RangeQueryWorkload

    problem = _bench_load_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    design, problem = _command_design(
        args.design,
        shards=args.shards,
        replicas=args.replicas,
        batch_size=args.batch_size,
    )
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    dataset = build_dataset(args.records, distribution=args.distribution, seed=args.seed)
    workload = RangeQueryWorkload(
        extent_fraction=args.extent,
        count=args.queries,
        seed=args.seed + 1,
        attribute=dataset.schema.key_column,
    )
    bounds = [(query.low, query.high) for query in workload]
    verify = not args.no_verify
    modes = ["per-query", "batched"] if args.mode == "both" else [args.mode]
    if args.transport == "fleet":
        return _run_bench_load_fleet(args, dataset, bounds, modes, verify, design)
    reports = []
    for mode in modes:
        system = OutsourcedDB(
            dataset,
            scheme=args.scheme,
            design=design,
            key_bits=args.key_bits,
            seed=args.seed,
        ).setup()
        with system:
            reports.append(
                run_load(
                    system,
                    bounds,
                    num_clients=args.clients,
                    mode=mode,
                    batch_size=design.batch_size,
                    verify=verify,
                    transport=args.transport,
                )
            )
    title = (f"load driver [{args.scheme}/{args.transport}]: {args.records} records, "
             f"{args.queries} queries, {args.clients} clients, {design.shards} shard(s) x "
             f"{design.replicas} replica(s)")
    print(format_load_reports(reports, title=title))
    if args.record_trace is not None and reports:
        from repro.workloads.trace import entries_from_outcomes, write_trace

        count = write_trace(
            args.record_trace,
            _trace_meta(args, dataset, design, modes[0]),
            entries_from_outcomes(reports[0].outcomes),
        )
        print(f"recorded {count} queries to {args.record_trace}")
    if args.transport == "tcp":
        for report in reports:
            print(f"server qps [{report.mode}]: {report.server_qps:.1f}")
    if len(reports) == 2 and reports[0].throughput_qps > 0:
        speedup = reports[1].throughput_qps / reports[0].throughput_qps
        print(f"\nbatched vs per-query speedup: {speedup:.2f}x")
    if not all(report.receipts_consistent for report in reports):
        print("error: merged receipts != sum of shard legs", file=sys.stderr)
        return 1
    if verify and not all(report.all_verified for report in reports):
        return 1
    return 0


def _trace_meta(args: argparse.Namespace, dataset, design, mode: str) -> dict:
    """The trace header: enough context for ``repro tune`` to replay it."""
    return {
        "scheme": args.scheme,
        "transport": args.transport,
        "mode": mode,
        "dataset": dataset.name,
        "cardinality": dataset.cardinality,
        "distribution": args.distribution,
        "seed": args.seed,
        "design": design.to_json_dict(),
    }


def _run_bench_load_fleet(
    args: argparse.Namespace,
    dataset,
    bounds,
    modes: List[str],
    verify: bool,
    design,
) -> int:
    """The fleet transport: real shard processes, real worker processes."""
    import tempfile

    from repro.experiments.distributed_load import (
        DistributedLoadError,
        format_distributed_reports,
        run_distributed_load,
    )
    from repro.network.fleet import FleetError, FleetManager, build_fleet

    workers = args.workers if args.workers is not None else 2
    reports = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as base_dir:
            manifest = build_fleet(
                dataset,
                base_dir,
                scheme=args.scheme,
                design=design,
                key_bits=args.key_bits,
                seed=args.seed,
            )
            with FleetManager(base_dir) as manager:
                endpoints = manager.endpoints()
                for mode in modes:
                    reports.append(
                        run_distributed_load(
                            base_dir,
                            endpoints,
                            bounds,
                            num_workers=workers,
                            clients_per_worker=args.clients,
                            mode=mode,
                            batch_size=design.batch_size,
                            verify=verify,
                            scheme=args.scheme,
                            num_shards=manifest.num_shards,
                            record_trace=args.record_trace is not None,
                        )
                    )
    except (FleetError, DistributedLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    title = (f"distributed load [{args.scheme}/fleet]: {args.records} records, "
             f"{args.queries} queries, {workers} worker(s) x {args.clients} "
             f"client(s), {manifest.num_shards} shard process(es) x "
             f"{manifest.replicas} replica(s)")
    print(format_distributed_reports(reports, title=title))
    if args.record_trace is not None and reports:
        from repro.workloads.trace import write_trace

        count = write_trace(
            args.record_trace,
            _trace_meta(args, dataset, manifest.physical_design(), modes[0]),
            reports[0].trace_entries,
        )
        print(f"recorded {count} queries to {args.record_trace}")
    if len(reports) == 2 and reports[0].throughput_qps > 0:
        speedup = reports[1].throughput_qps / reports[0].throughput_qps
        print(f"\nbatched vs per-query speedup: {speedup:.2f}x")
    if not all(report.receipts_consistent for report in reports):
        print("error: merged fleet receipts != sum of shard legs", file=sys.stderr)
        return 1
    if verify and not all(report.all_verified for report in reports):
        return 1
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.design import DesignError, PhysicalDesign
    from repro.experiments.tuning import (
        TuningError,
        format_tuning_report,
        tune_design,
    )
    from repro.workloads.trace import TraceError, load_trace

    try:
        trace = load_trace(args.trace)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = PhysicalDesign.load(args.baseline)
        except DesignError as exc:
            print(f"error: --baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    try:
        result = tune_design(
            trace, baseline=baseline, shards=args.shards, rounds=args.rounds
        )
    except (TuningError, DesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = format_tuning_report(result)
    print(report)
    result.recommended.save(args.out)
    print(f"\nwrote recommended design to {args.out}")
    if args.report is not None:
        Path(args.report).write_text(report + "\n")
        print(f"wrote report to {args.report}")
    return 0


def _fleet_served_elsewhere(base_dir) -> Optional[str]:
    """The ``host:port`` of a live child if another process serves the fleet.

    The migrator launches its own :class:`FleetManager`; two supervisors
    over the same directory would fight over crashed children and port
    files.  A child that still answers PING on a published port means the
    fleet is up under someone else -- the CLI's exit-2 case.
    """
    from pathlib import Path

    from repro.network.fleet import PORT_FILE, _sync_ping

    for port_file in sorted(Path(base_dir).glob(f"shard*/{PORT_FILE}")):
        try:
            host, port_text = port_file.read_text().split()
            _sync_ping(host, int(port_text))
        except Exception:  # noqa: BLE001 - stale port file: not being served
            continue
        return f"{host}:{port_text} ({port_file.parent.name})"
    return None


def _run_migrate(args: argparse.Namespace) -> int:
    from repro.core.design import DesignError, PhysicalDesign
    from repro.core.migration import (
        FleetMigrator,
        MigrationError,
        MigrationPlan,
        journal_path,
    )
    from repro.network.fleet import FleetError, FleetManager, FleetManifest, has_fleet

    try:
        design = PhysicalDesign.load(args.design)
    except DesignError as exc:
        print(f"error: --design {args.design}: {exc}", file=sys.stderr)
        return 2
    if not has_fleet(args.fleet_dir):
        print(f"error: no fleet at {args.fleet_dir} (build one with "
              f"'repro serve-fleet --data-dir {args.fleet_dir}')", file=sys.stderr)
        return 2
    manifest = FleetManifest.load(args.fleet_dir)
    try:
        plan = MigrationPlan.compute(manifest.physical_design(), design)
    except (MigrationError, DesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if plan.is_noop and not journal_path(args.fleet_dir).exists():
        print(f"{args.fleet_dir} already serves [{design.describe()}]; "
              "nothing to migrate")
        return 0
    served_at = _fleet_served_elsewhere(args.fleet_dir)
    if served_at is not None:
        print(f"error: the fleet at {args.fleet_dir} is already being served "
              f"(a child answered at {served_at}); stop that 'repro "
              "serve-fleet' first -- the migrator supervises the children "
              "itself for the duration", file=sys.stderr)
        return 2

    def on_event(event) -> None:
        if not args.quiet:
            print(f"[{event.phase}] epoch {event.epoch}: {event.detail}",
                  flush=True)

    print(plan.describe())
    try:
        with FleetManager(args.fleet_dir, host=args.host, restart=True) as manager:
            migrator = FleetMigrator(
                manager,
                design,
                move_chunk=args.move_chunk,
                checkpoint_every=args.checkpoint_every,
                on_event=on_event,
            )
            report = migrator.run()
    except (FleetError, MigrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "serve-fleet":
        return _run_serve_fleet(args)
    if args.command == "attack-gallery":
        return _run_attack_gallery(args)
    if args.command == "tune":
        return _run_tune(args)
    if args.command == "migrate":
        return _run_migrate(args)
    if args.command == "bench":
        if args.bench_command == "smoke":
            return _run_bench_smoke(args)
        if args.bench_command == "profile":
            return _run_bench_profile(args)
        return _run_bench_load(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
