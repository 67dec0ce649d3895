"""Failover drill: kill a shard's primary mid-load, nothing fails.

The tentpole claim of the replication layer: with warm standbys per shard,
losing a primary while concurrent clients are querying costs *zero* failed
queries -- every retried leg lands on a standby, every receipt still
verifies and still satisfies ``matches_leg_sums``, and the failovers are
visible on the merged receipts (``ShardLegReceipt.failed_replicas``), not
silently absorbed.
"""

import threading

import pytest

from repro.core import OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.experiments.throughput import run_load
from repro.metrics.collector import MetricsCollector
from repro.workloads.queries import RangeQueryWorkload

SCHEME_KWARGS = {"sae": {}, "tom": {"key_bits": 512, "seed": 7}}

#: Outcomes recorded before the primary is pulled (the drill must overlap
#: real traffic on both sides of the kill).
KILL_AFTER_OUTCOMES = 10


@pytest.mark.parametrize("scheme", ["sae", "tom"])
def test_kill_shard_primary_mid_load(small_dataset, scheme):
    system = OutsourcedDB(
        small_dataset,
        scheme=scheme,
        design=PhysicalDesign(shards=2, replicas=2),
        **SCHEME_KWARGS[scheme],
    ).setup()
    workload = RangeQueryWorkload(
        count=120, seed=13, attribute=small_dataset.schema.key_column
    )
    bounds = [(query.low, query.high) for query in workload]
    collector = MetricsCollector()
    latency = collector.series("latency_ms[per-query]")

    # The client thread that records the KILL_AFTER_OUTCOMES-th outcome
    # pulls the primary itself, so the kill lands mid-load by construction
    # instead of depending on when a polling thread gets scheduled.
    record_lock = threading.Lock()
    killed = threading.Event()
    record = latency.record

    def record_then_kill(x, value):
        with record_lock:
            record(x, value)
            if latency.count(x) == KILL_AFTER_OUTCOMES:
                system.kill_replica(0, shard_id=0)
                killed.set()

    latency.record = record_then_kill
    with system:
        report = run_load(
            system, bounds, num_clients=4, mode="per-query", collector=collector
        )
        assert killed.is_set()
        system.revive_replica(0, shard_id=0)

    assert report.num_queries == len(bounds)
    assert report.failed_queries == 0
    assert report.all_verified
    assert report.receipts_consistent

    retried = [
        leg
        for outcome in report.outcomes
        for leg in outcome.receipt.legs
        if leg.failed_replicas
    ]
    assert retried, "no failover was recorded on any merged receipt"
    for leg in retried:
        assert leg.shard == 0  # only shard 0's primary was killed
        assert leg.replica == 1  # the standby served the leg
        assert leg.failed_replicas == (0,)
    for outcome in report.outcomes:
        assert outcome.receipt.matches_leg_sums()
