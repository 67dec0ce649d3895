"""Throughput of the batched query pipeline vs the sequential per-query loop.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q -s``.

The headline check: on a 10k-record workload, :meth:`SaeScheme.query_many`
(parallel SP/TE dispatch, batched VT generation, shared verification caches)
must reach at least 1.5x the queries/sec of calling :meth:`SaeScheme.query`
once per query -- while producing identical verification verdicts and
identical per-query node-access counts, so the batching never changes what
the paper's cost model reports.
"""

import statistics
import time

import pytest

from repro.core import SaeScheme
from repro.experiments.throughput import format_load_reports, run_load
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload

RECORDS = 10_000
NUM_QUERIES = 200
REPETITIONS = 5
SEED = 7


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(RECORDS, seed=SEED)


@pytest.fixture(scope="module")
def bounds(dataset):
    workload = RangeQueryWorkload(
        count=NUM_QUERIES, seed=SEED + 1, attribute=dataset.schema.key_column
    )
    return [(query.low, query.high) for query in workload]


def _median_runtime(run, repetitions=REPETITIONS):
    """Median wall-clock seconds of ``run()`` (one warmup call first)."""
    run()
    samples = []
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_query_many_beats_sequential_loop_by_1_5x(dataset, bounds):
    sequential_system = SaeScheme(dataset).setup()
    batched_system = SaeScheme(dataset).setup()

    sequential = [sequential_system.query(low, high) for low, high in bounds]
    batched = batched_system.query_many(bounds)

    # Identical semantics: verdicts, per-query node accesses, byte accounting.
    assert [outcome.verified for outcome in sequential] == \
           [outcome.verified for outcome in batched]
    assert all(outcome.verified for outcome in batched)
    assert [outcome.sp_accesses for outcome in sequential] == \
           [outcome.sp_accesses for outcome in batched]
    assert [outcome.te_accesses for outcome in sequential] == \
           [outcome.te_accesses for outcome in batched]
    assert [outcome.auth_bytes for outcome in sequential] == \
           [outcome.auth_bytes for outcome in batched]
    assert [outcome.result_bytes for outcome in sequential] == \
           [outcome.result_bytes for outcome in batched]

    sequential_s = _median_runtime(
        lambda: [sequential_system.query(low, high) for low, high in bounds]
    )
    batched_s = _median_runtime(lambda: batched_system.query_many(bounds))

    sequential_qps = len(bounds) / sequential_s
    batched_qps = len(bounds) / batched_s
    speedup = batched_qps / sequential_qps
    print(f"\nsequential loop: {sequential_qps:8.0f} qps "
          f"({sequential_s * 1000:.1f} ms / {len(bounds)} queries)")
    print(f"query_many:      {batched_qps:8.0f} qps "
          f"({batched_s * 1000:.1f} ms / {len(bounds)} queries)")
    print(f"speedup:         {speedup:.2f}x")
    assert speedup >= 1.5, (
        f"query_many() reached only {speedup:.2f}x the sequential loop "
        f"({batched_qps:.0f} vs {sequential_qps:.0f} qps)"
    )


def test_load_driver_closed_loop(dataset, bounds):
    """The multi-client driver serves the whole mix, verified, in both modes."""
    reports = []
    for mode in ("per-query", "batched"):
        system = SaeScheme(dataset).setup()
        with system:
            reports.append(
                run_load(system, bounds, num_clients=4, mode=mode, batch_size=25)
            )
    print("\n" + format_load_reports(reports))
    for report in reports:
        assert report.all_verified
        assert report.num_queries == len(bounds)
        assert report.throughput_qps > 0
        assert report.latency_p50_ms <= report.latency_p95_ms <= report.latency_p99_ms


def test_query_benchmark_sequential(benchmark, dataset, bounds):
    """pytest-benchmark timing of the per-query loop (for the bench trajectory)."""
    system = SaeScheme(dataset).setup()
    sample = bounds[:50]
    benchmark(lambda: [system.query(low, high) for low, high in sample])


def test_query_benchmark_batched(benchmark, dataset, bounds):
    """pytest-benchmark timing of query_many on the same slice."""
    system = SaeScheme(dataset).setup()
    sample = bounds[:50]
    benchmark(lambda: system.query_many(sample))
