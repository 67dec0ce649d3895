"""Coordinator/worker distributed load harness for the multi-process fleet.

The in-process load driver (:mod:`repro.experiments.throughput`) generates
all of its load from one Python process, so the *driver* hits the GIL wall
at the same time the served deployment does.  This module splits it into
the coordinator/worker shape of mongodb-d4's experiment harness: the
**coordinator** partitions the workload round-robin across N **worker
processes**, each worker runs its own closed-loop asyncio clients against
its own :class:`~repro.network.fleet.FleetRouter` (its own sockets, its
own event loop, its own core), and the coordinator aggregates per-worker
throughput and latency percentiles into one
:class:`DistributedLoadReport`.

Measurement discipline:

* workers synchronise on a barrier *after* interpreter start-up, imports
  and fleet connection warm-up, so the measured window contains only
  driving (python process spawn costs hundreds of milliseconds and must
  not pollute qps);
* every worker times its own drive loop; fleet-wide qps is total queries
  over the *slowest* worker's window (the closed-loop convention: the run
  is over when the last client finishes);
* workers return their outcomes' aggregate verification and receipt
  verdicts, so a fleet run hard-fails on any unverified query or any
  merged receipt that stops matching its leg sums.

Workers are spawned with the ``spawn`` start method: the coordinator may
live in a process that already runs threads (a
:class:`~repro.network.fleet.FleetManager` monitor, a test harness), and
forking a threaded interpreter is undefined behaviour waiting to happen.
Everything a worker needs travels either through the fleet's on-disk
manifest or as small picklable arguments.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.experiments.throughput import drive_closed_loop
from repro.metrics.reporting import format_table


class DistributedLoadError(RuntimeError):
    """Raised when the coordinator cannot complete a distributed run."""


@dataclass
class WorkerResult:
    """One worker process's self-timed slice of the run."""

    worker_id: int
    num_queries: int = 0
    duration_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    verified_queries: int = 0
    failed_queries: int = 0
    receipts_consistent: bool = True
    total_sp_accesses: int = 0
    total_te_accesses: int = 0
    model_ms_total: float = 0.0
    #: JSON dicts of recorded trace entries (only when trace recording was
    #: requested): outcomes themselves are too heavy to ship back through
    #: the result queue, the compact projection is not.
    trace_entries: List[dict] = field(default_factory=list)
    error: str = ""

    @property
    def throughput_qps(self) -> float:
        """This worker's own closed-loop throughput."""
        if self.duration_s <= 0:
            return 0.0
        return self.num_queries / self.duration_s


@dataclass
class DistributedLoadReport:
    """Aggregate of one coordinator/worker run against a fleet."""

    mode: str
    num_workers: int
    clients_per_worker: int
    num_queries: int
    duration_s: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    all_verified: bool
    failed_queries: int
    receipts_consistent: bool
    total_sp_accesses: int
    total_te_accesses: int
    model_ms_total: float
    scheme: str
    num_shards: int
    worker_qps: List[float] = field(default_factory=list)
    transport: str = "fleet"
    #: Recorded trace entries (JSON dicts, worker order) when the run was
    #: asked to capture a receipt trace; empty otherwise.
    trace_entries: List[dict] = field(default_factory=list)

    @property
    def model_qps(self) -> float:
        """Deterministic throughput under the paper's cost model.

        One closed-loop client working through the workload would spend
        ``model_ms_total`` modeled milliseconds; this is the matching qps.
        Unlike :attr:`throughput_qps` it does not depend on the host, so
        it is the figure the benchmark gate can compare across runs.
        """
        if self.model_ms_total <= 0:
            return 0.0
        return 1000.0 * self.num_queries / self.model_ms_total


def _percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile (matches the load collector's convention)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(percent / 100.0 * len(ordered)) - 1))
    return ordered[rank]


# --------------------------------------------------------------------- worker
def _worker_entry(
    worker_id: int,
    base_dir: str,
    endpoints: List[List[Tuple[str, int]]],
    bounds: List[Tuple[Any, Any]],
    num_clients: int,
    mode: str,
    batch_size: int,
    verify: bool,
    min_epoch: int,
    record_trace: bool,
    start_barrier: Any,
    result_queue: Any,
) -> None:
    """Worker process main: warm up, wait for the barrier, drive, report.

    Top-level (picklable) by construction -- the ``spawn`` start method
    re-imports this module in the child.  Never raises: failures travel
    back to the coordinator as a :class:`WorkerResult` with ``error`` set.
    """
    result = WorkerResult(worker_id=worker_id)
    try:
        from repro.experiments.scaling import model_response_ms
        from repro.network.fleet import FleetManifest, FleetRouter

        manifest = FleetManifest.load(base_dir)

        async def _run() -> WorkerResult:
            router = FleetRouter(
                manifest,
                endpoints,
                pool_size=max(2, num_clients),
                min_epoch=min_epoch,
            )
            try:
                # Warm-up: one PING per shard opens the sockets and proves
                # the fleet is reachable before the measured window starts.
                await router.ping_all()
                start_barrier.wait()
                latencies: List[float] = []
                outcomes, duration_s = await drive_closed_loop(
                    router, bounds, num_clients, mode, batch_size, verify,
                    latencies.append,
                )
            finally:
                await router.aclose()
            verified = sum(1 for outcome in outcomes if outcome.verified)
            trace_entries: List[dict] = []
            if record_trace:
                from repro.workloads.trace import entry_from_outcome

                trace_entries = [
                    entry_from_outcome(outcome).to_json_dict()
                    for outcome in outcomes
                ]
            return WorkerResult(
                worker_id=worker_id,
                num_queries=len(outcomes),
                duration_s=duration_s,
                latencies_ms=latencies,
                verified_queries=verified,
                failed_queries=len(outcomes) - verified if verify else 0,
                receipts_consistent=all(
                    outcome.receipt is not None and outcome.receipt.matches_leg_sums()
                    for outcome in outcomes
                ),
                total_sp_accesses=sum(outcome.sp_accesses for outcome in outcomes),
                total_te_accesses=sum(outcome.te_accesses for outcome in outcomes),
                model_ms_total=sum(model_response_ms(outcome) for outcome in outcomes),
                trace_entries=trace_entries,
            )

        result = asyncio.run(_run())
    except BaseException:  # noqa: BLE001 - must reach the coordinator
        result.error = traceback.format_exc()
        try:
            start_barrier.abort()  # release the coordinator if we die pre-barrier
        except Exception:  # pragma: no cover - barrier already broken
            pass
    result_queue.put(result)


# ----------------------------------------------------------------- coordinator
def run_distributed_load(
    base_dir: str,
    endpoints: List[List[Tuple[str, int]]],
    bounds: Sequence[Tuple[Any, Any]],
    num_workers: int = 2,
    clients_per_worker: int = 2,
    mode: str = "per-query",
    batch_size: int = 25,
    verify: bool = True,
    min_epoch: int = 0,
    scheme: str = "",
    num_shards: int = 0,
    start_timeout_s: float = 60.0,
    record_trace: bool = False,
) -> DistributedLoadReport:
    """Partition ``bounds`` over worker processes and aggregate their runs.

    ``base_dir`` is a built fleet directory (workers load the manifest from
    disk rather than having it pickled to them); ``endpoints`` is the
    endpoint table of the running fleet, usually
    ``FleetManager.endpoints()``.  Raises :class:`DistributedLoadError`
    when a worker dies or reports an error, with the worker's traceback.
    """
    if num_workers < 1:
        raise DistributedLoadError(
            f"need at least one worker process, got {num_workers}"
        )
    if clients_per_worker < 1:
        raise DistributedLoadError(
            f"need at least one client per worker, got {clients_per_worker}"
        )
    if mode not in ("per-query", "batched"):
        raise DistributedLoadError(f"unknown dispatch mode {mode!r}")
    bounds = list(bounds)
    context = multiprocessing.get_context("spawn")
    start_barrier = context.Barrier(num_workers + 1)
    result_queue: Any = context.Queue()
    workers = [
        context.Process(
            target=_worker_entry,
            args=(
                worker_id,
                str(base_dir),
                endpoints,
                bounds[worker_id::num_workers],
                clients_per_worker,
                mode,
                batch_size,
                verify,
                min_epoch,
                record_trace,
                start_barrier,
                result_queue,
            ),
            name=f"load-worker-{worker_id}",
            daemon=True,
        )
        for worker_id in range(num_workers)
    ]
    for worker in workers:
        worker.start()
    results: List[WorkerResult] = []
    try:
        try:
            start_barrier.wait(timeout=start_timeout_s)
        except threading.BrokenBarrierError:
            # A worker died (or errored) before it was ready; its result --
            # if it managed to write one -- carries the traceback.
            pass
        deadline = time.monotonic() + start_timeout_s + 600.0
        while len(results) < num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DistributedLoadError(
                    f"timed out waiting for worker results "
                    f"({len(results)}/{num_workers} reported)"
                )
            try:
                results.append(result_queue.get(timeout=min(1.0, remaining)))
            except queue_module.Empty:
                dead = [
                    worker.name
                    for worker in workers
                    if not worker.is_alive() and worker.exitcode not in (0, None)
                ]
                if dead:
                    raise DistributedLoadError(
                        f"worker process(es) died without reporting: {dead}"
                    )
    finally:
        for worker in workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join()
    failed = [result for result in results if result.error]
    if failed:
        raise DistributedLoadError(
            f"worker {failed[0].worker_id} failed:\n{failed[0].error}"
        )
    results.sort(key=lambda result: result.worker_id)
    latencies = [value for result in results for value in result.latencies_ms]
    total_queries = sum(result.num_queries for result in results)
    duration_s = max((result.duration_s for result in results), default=0.0)
    return DistributedLoadReport(
        mode=mode,
        num_workers=num_workers,
        clients_per_worker=clients_per_worker,
        num_queries=total_queries,
        duration_s=duration_s,
        throughput_qps=total_queries / duration_s if duration_s > 0 else 0.0,
        latency_mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50_ms=_percentile(latencies, 50),
        latency_p95_ms=_percentile(latencies, 95),
        latency_p99_ms=_percentile(latencies, 99),
        all_verified=(
            verify
            and total_queries == len(bounds)
            and total_queries > 0
            and all(result.failed_queries == 0 for result in results)
        ),
        failed_queries=sum(result.failed_queries for result in results),
        receipts_consistent=all(result.receipts_consistent for result in results),
        total_sp_accesses=sum(result.total_sp_accesses for result in results),
        total_te_accesses=sum(result.total_te_accesses for result in results),
        model_ms_total=sum(result.model_ms_total for result in results),
        scheme=scheme,
        num_shards=num_shards,
        worker_qps=[result.throughput_qps for result in results],
        trace_entries=[
            entry for result in results for entry in result.trace_entries
        ],
    )


def format_distributed_reports(
    reports: Sequence[DistributedLoadReport], title: str = "distributed load"
) -> str:
    """Render distributed-load reports as an aligned table."""
    headers = [
        "scheme", "mode", "workers", "clients/w", "shards", "queries", "qps",
        "p50 ms", "p95 ms", "p99 ms", "verified", "receipts=sum(legs)",
    ]
    rows = [
        [
            report.scheme or "?",
            report.mode,
            report.num_workers,
            report.clients_per_worker,
            report.num_shards,
            report.num_queries,
            report.throughput_qps,
            report.latency_p50_ms,
            report.latency_p95_ms,
            report.latency_p99_ms,
            "yes" if report.all_verified else "NO",
            "yes" if report.receipts_consistent else "NO",
        ]
        for report in reports
    ]
    return format_table(headers, rows, title=title)
