"""Fleet benchmark leg: wall-clock qps vs. shard *process* count.

The first benchmark in the repo measured in real seconds rather than model
time: for each process count it builds a fleet
(:func:`~repro.network.fleet.build_fleet`), launches the shard children
under a :class:`~repro.network.fleet.FleetManager`, and drives them with
the coordinator/worker harness
(:func:`~repro.experiments.distributed_load.run_distributed_load`) --
real processes on both sides of the sockets, so the GIL of any single
interpreter no longer caps the measured throughput.

Two classes of result come out of a sweep:

* **hard requirements** -- every query verified and every merged receipt
  equal to the sum of its shard-leg receipts *across process boundaries*;
  a violation raises :class:`FleetBenchError` (the bench leg fails, no
  number is recorded);
* **measurements** -- wall-clock qps per process count (the headline,
  meaningful on multi-core hosts; on a single-core runner the children
  time-share one CPU and the curve stays flat), plus the deterministic
  cost-model qps and mean SP accesses that the CI gate can safely compare
  across runs (see :mod:`repro.experiments.benchgate` for the gating
  philosophy: wall-clock numbers are recorded but never gated).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.design import PhysicalDesign
from repro.experiments.distributed_load import run_distributed_load
from repro.metrics.reporting import format_table
from repro.network.fleet import FleetManager, build_fleet
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload


class FleetBenchError(RuntimeError):
    """A fleet bench run violated a hard requirement (verification, receipts)."""


@dataclass(frozen=True)
class FleetBenchPoint:
    """One measured (scheme, process count) cell of the fleet sweep."""

    scheme: str
    processes: int
    workers: int
    clients_per_worker: int
    num_queries: int
    wall_qps: float
    model_qps: float
    mean_sp_accesses: float
    latency_p95_ms: float
    all_verified: bool
    receipts_consistent: bool


def run_fleet_bench(
    scheme: str = "sae",
    cardinality: int = 1_200,
    num_queries: int = 36,
    process_counts: Sequence[int] = (1, 2, 4),
    num_workers: int = 2,
    clients_per_worker: int = 2,
    batch_size: int = 6,
    record_size: int = 128,
    seed: int = 7,
    key_bits: int = 512,
) -> List[FleetBenchPoint]:
    """Sweep shard-process counts over one fixed workload.

    Every point serves the *same dataset and query workload*, so the only
    thing that varies along the sweep is how many real processes share the
    work.  Raises :class:`FleetBenchError` on any unverified query or any
    merged receipt that stops matching its leg sums.
    """
    dataset = build_dataset(cardinality, record_size=record_size, seed=seed)
    workload = RangeQueryWorkload(
        extent_fraction=0.01,
        count=num_queries,
        seed=seed + 1,
        attribute=dataset.schema.key_column,
    )
    bounds = [(query.low, query.high) for query in workload]
    points: List[FleetBenchPoint] = []
    for processes in process_counts:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as base_dir:
            build_fleet(
                dataset,
                base_dir,
                scheme=scheme,
                design=PhysicalDesign(shards=processes),
                key_bits=key_bits,
                seed=seed,
            )
            with FleetManager(base_dir, restart=False) as manager:
                report = run_distributed_load(
                    base_dir,
                    manager.endpoints(),
                    bounds,
                    num_workers=num_workers,
                    clients_per_worker=clients_per_worker,
                    mode="batched",
                    batch_size=batch_size,
                    verify=True,
                    scheme=scheme,
                    num_shards=processes,
                )
        if not report.all_verified:
            raise FleetBenchError(
                f"{scheme} fleet at {processes} process(es): "
                f"{report.failed_queries} of {report.num_queries} queries "
                "failed verification"
            )
        if not report.receipts_consistent:
            raise FleetBenchError(
                f"{scheme} fleet at {processes} process(es): merged receipts "
                "no longer equal the sum of their shard legs"
            )
        points.append(
            FleetBenchPoint(
                scheme=scheme,
                processes=processes,
                workers=report.num_workers,
                clients_per_worker=report.clients_per_worker,
                num_queries=report.num_queries,
                wall_qps=report.throughput_qps,
                model_qps=report.model_qps,
                mean_sp_accesses=(
                    report.total_sp_accesses / report.num_queries
                    if report.num_queries
                    else 0.0
                ),
                latency_p95_ms=report.latency_p95_ms,
                all_verified=report.all_verified,
                receipts_consistent=report.receipts_consistent,
            )
        )
    return points


def format_fleet_bench(points: Sequence[FleetBenchPoint]) -> str:
    """Render a fleet sweep as an aligned table."""
    headers = [
        "scheme", "processes", "workers", "queries", "wall qps", "model qps",
        "sp acc/q", "p95 ms", "verified", "receipts=sum(legs)",
    ]
    rows = [
        [
            point.scheme,
            point.processes,
            point.workers,
            point.num_queries,
            point.wall_qps,
            point.model_qps,
            point.mean_sp_accesses,
            point.latency_p95_ms,
            "yes" if point.all_verified else "NO",
            "yes" if point.receipts_consistent else "NO",
        ]
        for point in points
    ]
    return format_table(
        headers, rows, title="fleet: wall-clock qps vs shard process count"
    )
