"""Shard-scaling benchmark: the scatter-gather deployment must pay off.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -q -s``.

The headline check mirrors the acceptance criterion of the sharding PR at
CI-friendly scale: on a scan-heavy workload the 4-shard deployment must
reach at least 2x the cost-model qps of the single-shard deployment, while
returning byte-identical results, keeping every per-query charge equal to
the sum of its shard legs, and still detecting a tampered shard.  The
cost-model speedup is deterministic (simulated I/O only), so this benchmark
cannot flake on a loaded runner.
"""

import pytest

from repro.core import SaeScheme
from repro.experiments.scaling import model_response_ms, run_scaling
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload

RECORDS = 5_000
NUM_QUERIES = 30
SEED = 7
EXTENT = 0.6  # scan-heavy: ranges span several shards (see scaling.py)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(RECORDS, record_size=128, seed=SEED)


@pytest.fixture(scope="module")
def bounds(dataset):
    workload = RangeQueryWorkload(
        extent_fraction=EXTENT,
        count=NUM_QUERIES,
        seed=SEED + 1,
        attribute=dataset.schema.key_column,
    )
    return [(query.low, query.high) for query in workload]


def test_four_shards_reach_2x_model_qps(dataset, bounds):
    single = SaeScheme(dataset).setup()
    sharded = SaeScheme(dataset, shards=4).setup()

    reference = single.query_many(bounds)
    scattered = sharded.query_many(bounds)

    # Byte-identical results and verdicts.
    assert [outcome.records for outcome in reference] == [
        outcome.records for outcome in scattered
    ]
    assert all(outcome.verified for outcome in scattered)
    # Merged charges equal the sum of the shard legs, per query.
    for outcome in scattered:
        legs = outcome.receipt.legs
        assert outcome.sp_accesses == sum(leg.sp.node_accesses for leg in legs)
        assert outcome.te_accesses == sum(leg.te.node_accesses for leg in legs)
        assert outcome.auth_bytes == sum(leg.auth_bytes for leg in legs)
        assert outcome.result_bytes == sum(leg.result_bytes for leg in legs)

    single_ms = sum(model_response_ms(outcome) for outcome in reference) / len(bounds)
    sharded_ms = sum(model_response_ms(outcome) for outcome in scattered) / len(bounds)
    speedup = single_ms / sharded_ms
    print(f"\nmodel response: 1 shard {single_ms:9.1f} ms | "
          f"4 shards {sharded_ms:9.1f} ms | speedup {speedup:.2f}x")
    assert speedup >= 2.0, (
        f"4-shard scatter-gather reached only {speedup:.2f}x the single-shard "
        f"cost-model throughput"
    )


def test_scaling_sweep_trend(dataset):
    points = run_scaling(
        cardinality=2_000,
        shard_counts=(1, 2, 4, 8),
        num_queries=10,
        record_size=128,
    )
    qps = [point.qps_model for point in points]
    assert qps == sorted(qps), "model qps must not degrade as shards are added"
    assert points[-1].speedup > points[1].speedup
    for point in points:
        assert point.receipts_consistent
        assert point.tampers_detected


def test_sharded_query_many_benchmark(benchmark, dataset, bounds):
    """pytest-benchmark timing of the 4-shard scatter-gather (trajectory)."""
    system = SaeScheme(dataset, shards=4).setup()
    sample = bounds[:10]
    benchmark(lambda: system.query_many(sample))
