"""Live re-sharding benchmark: tune on a skewed trace, migrate under load.

The end-to-end proof behind ``BENCH_migration.json``: a 2-shard fleet of
real child processes serves a Zipf-skewed workload, its receipts are
recorded as a trace, the offline advisor (:mod:`repro.experiments.tuning`)
recommends a re-sharded design, and :class:`~repro.core.migration.FleetMigrator`
executes the move *while concurrent clients keep querying*.

Hard requirements raise instead of becoming metrics:

* zero failed and zero unverified queries during the migration,
* zero freshness/tamper false positives (every receipt verifies and
  satisfies ``matches_leg_sums``),
* the post-migration fleet serves the full relation, in key order, from
  the target shard count.

The gated axes are deterministic: the dataset, the workload and the trace
are seeded, the advisor's search is a pure function of the trace, so the
plan (records moved, barriers) and the post-migration cost-model numbers
(SP accesses, model qps over the same bounds) reproduce bit-for-bit.
Wall-clock duration and the number of queries that landed mid-migration
are recorded for trend plots but never gated.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from typing import Any, Dict, List, Tuple

from repro.core.design import PhysicalDesign
from repro.core.migration import FleetMigrator
from repro.core.sharding import ShardRouter
from repro.experiments.scaling import model_response_ms
from repro.experiments.tuning import tune_design
from repro.network.fleet import FleetManager, build_fleet
from repro.workloads import build_dataset
from repro.workloads.distributions import ZipfKeyGenerator
from repro.workloads.trace import Trace, entries_from_outcomes


def _query_all(manager: FleetManager, bounds) -> List[Any]:
    """One sequential verified pass over ``bounds`` (deterministic receipts)."""

    async def drive():
        outcomes = []
        async with manager.router() as router:
            for low, high in bounds:
                outcomes.append(await router.query(low, high))
        return outcomes

    return asyncio.run(drive())


async def _migrate_under_load(
    manager: FleetManager, migrator: FleetMigrator, bounds
) -> Tuple[Dict[str, int], Any]:
    """Run the migrator in a worker thread while async clients keep querying."""
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    stats = {"queries": 0, "failed": 0, "unverified": 0, "inconsistent": 0}

    async def load():
        async with manager.router(
            leg_retry_rounds=40, retry_backoff_s=0.25, consistency_retries=200
        ) as router:
            index = 0
            while not done.is_set():
                low, high = bounds[index % len(bounds)]
                try:
                    outcome = await router.query(low, high)
                except Exception:  # noqa: BLE001 - any failure is the metric
                    stats["failed"] += 1
                else:
                    stats["queries"] += 1
                    if not outcome.verified:
                        stats["unverified"] += 1
                    if not outcome.receipt.matches_leg_sums():
                        stats["inconsistent"] += 1
                index += 1
                await asyncio.sleep(0.01)

    async def migrate():
        try:
            return await loop.run_in_executor(None, migrator.run)
        finally:
            done.set()

    load_task = asyncio.create_task(load())
    report = await migrate()
    await load_task
    return stats, report


def run_migration_bench(
    records: int = 600,
    trace_queries: int = 40,
    shards: int = 3,
    seed: int = 11,
) -> Dict[str, Any]:
    """Tune-then-migrate-under-load against a real child-process fleet."""
    domain = (0, 1_000_000)
    dataset = build_dataset(
        records, distribution="uniform", domain=domain, seed=seed, name="migr-unf"
    )
    generator = ZipfKeyGenerator(theta=1.1, domain=domain, seed=seed + 1)
    extent = (domain[1] - domain[0]) // 20
    bounds = [
        (low, min(domain[1], low + extent))
        for low in generator.sample_many(trace_queries)
    ]
    key_index = dataset.schema.key_index

    with tempfile.TemporaryDirectory(prefix="repro-migration-") as base:
        build_fleet(
            dataset, base, scheme="sae", design=PhysicalDesign(shards=2), seed=seed
        )
        with FleetManager(base, restart=True, health_interval_s=0.2) as manager:
            pre_outcomes = _query_all(manager, bounds)
            trace = Trace(
                meta={
                    "design": manager.manifest.physical_design().to_json_dict(),
                    "cardinality": dataset.cardinality,
                },
                entries=tuple(entries_from_outcomes(pre_outcomes)),
            )
            tuned = tune_design(trace, shards=shards)
            target = tuned.recommended
            if target.cut_points is None:
                # The advisor kept balanced cuts; a live migration needs
                # them spelled out (clients must agree on the boundaries).
                target = dataclasses.replace(
                    target,
                    cut_points=tuple(
                        ShardRouter.from_dataset(dataset, shards).boundaries
                    ),
                )
            migrator = FleetMigrator(manager, target)
            plan = migrator.plan
            stats, report = asyncio.run(
                _migrate_under_load(manager, migrator, bounds)
            )
            if stats["failed"] or stats["unverified"] or stats["inconsistent"]:
                raise RuntimeError(
                    f"migration bench: load saw {stats['failed']} failed, "
                    f"{stats['unverified']} unverified, "
                    f"{stats['inconsistent']} receipt-inconsistent queries"
                )
            post_outcomes = _query_all(manager, bounds)
            for outcome in post_outcomes:
                if not outcome.verified or not outcome.receipt.matches_leg_sums():
                    raise RuntimeError(
                        "migration bench: a post-migration receipt failed"
                    )
            keys = sorted(dataset.keys())
            scan = _query_all(manager, [(keys[0], keys[-1])])[0]
    if not scan.verified or not scan.receipt.matches_leg_sums():
        raise RuntimeError("migration bench: the final full scan failed to verify")
    if len(scan.records) != dataset.cardinality:
        raise RuntimeError(
            f"migration bench: the migrated fleet serves {len(scan.records)} "
            f"of {dataset.cardinality} records"
        )
    scanned_keys = [record[key_index] for record in scan.records]
    if scanned_keys != sorted(scanned_keys):
        raise RuntimeError("migration bench: the merged full scan is out of order")
    if len(scan.receipt.legs) != shards:
        raise RuntimeError(
            f"migration bench: expected {shards} legs after the flip, "
            f"got {len(scan.receipt.legs)}"
        )

    def model_qps(outcomes) -> float:
        total_ms = sum(model_response_ms(outcome) for outcome in outcomes)
        return 1000.0 * len(outcomes) / total_ms if total_ms > 0 else 0.0

    def mean_accesses(outcomes) -> float:
        return sum(outcome.sp_accesses for outcome in outcomes) / len(outcomes)

    return {
        "records": records,
        "queries": trace_queries,
        "shards": shards,
        "target_design": target.describe(),
        "plan": plan.describe(),
        "moved_records": report.moved_records,
        "barriers": report.barriers,
        "checkpoints": report.checkpoints,
        "recoveries": report.recoveries,
        "epoch_final": report.epoch_final,
        "duration_s": round(report.duration_s, 3),
        "queries_during_migration": stats["queries"],
        "replay_improvement_pct": round(tuned.improvement_pct, 3),
        "model_qps_pre": round(model_qps(pre_outcomes), 6),
        "model_qps_post": round(model_qps(post_outcomes), 6),
        "mean_sp_accesses_pre": round(mean_accesses(pre_outcomes), 4),
        "mean_sp_accesses_post": round(mean_accesses(post_outcomes), 4),
    }
