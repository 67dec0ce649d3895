"""Closed-loop multi-client load driver for the unified query pipeline.

The paper's motivation for separating authentication from execution is
keeping response time low under load; this module measures exactly that on
the re-entrant pipeline.  ``N`` concurrent clients replay a
:mod:`repro.workloads` query mix against one shared
:class:`~repro.core.scheme.AuthScheme` deployment -- SAE or TOM, sharded or
not -- in a closed loop (each client issues its next request as soon as the
previous one completes) and the driver reports:

* throughput (verified queries per second of wall-clock time),
* latency percentiles (p50/p95/p99, through :mod:`repro.metrics`),
* a correctness roll-up (every outcome's verification verdict), and
* the scatter-gather receipt invariant: every merged per-request
  :class:`~repro.core.pipeline.QueryReceipt` must equal the sum of its
  shard legs (:meth:`~repro.core.pipeline.QueryReceipt.matches_leg_sums`).

Two dispatch modes are supported, mirroring the scheme interface:

* ``per-query`` -- every client calls :meth:`AuthScheme.query`;
* ``batched`` -- every client drains a slice of the workload and calls
  :meth:`AuthScheme.query_many`, exercising the batched dispatch paths
  (shared XB-tree walks for SAE, pooled SP legs for TOM).

And two transports:

* ``inproc`` -- clients are threads calling the scheme directly (the
  historical behaviour);
* ``tcp`` -- the deployment is served by a
  :class:`~repro.network.server.ServerThread` on a localhost socket and the
  clients are asyncio tasks driving a pooled
  :class:`~repro.network.client.RemoteSchemeClient` through the
  length-prefixed wire protocol.  Outcomes come back as
  :class:`~repro.network.wire.RemoteQueryOutcome` objects carrying the full
  :class:`~repro.core.pipeline.QueryReceipt`, so the verification roll-up
  and the ``matches_leg_sums`` invariant are checked on *served* receipts.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.scheme import AuthScheme
from repro.metrics.collector import MetricsCollector
from repro.metrics.reporting import format_table

#: Dispatch modes understood by :func:`run_load`.
MODES = ("per-query", "batched")

#: Transports understood by :func:`run_load`.
TRANSPORTS = ("inproc", "tcp")


@dataclass
class LoadReport:
    """Aggregate result of one closed-loop load run."""

    mode: str
    num_clients: int
    num_queries: int
    duration_s: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    all_verified: bool
    failed_queries: int
    total_sp_accesses: int
    total_te_accesses: int
    num_shards: int = 1
    scheme: str = "sae"
    transport: str = "inproc"
    receipts_consistent: bool = True
    server_qps: float = 0.0
    collector: MetricsCollector = field(repr=False, default_factory=MetricsCollector)
    outcomes: List[Any] = field(repr=False, default_factory=list)

    def as_row(self) -> List[Any]:
        """One table row (pairs with :func:`format_load_reports`)."""
        return [
            self.scheme,
            self.transport,
            self.mode,
            self.num_clients,
            self.num_shards,
            self.num_queries,
            self.throughput_qps,
            self.latency_p50_ms,
            self.latency_p95_ms,
            self.latency_p99_ms,
            "yes" if self.all_verified else "NO",
            "yes" if self.receipts_consistent else "NO",
        ]


def format_load_reports(reports: Sequence[LoadReport], title: str = "load driver") -> str:
    """Render load reports as an aligned table."""
    headers = ["scheme", "transport", "mode", "clients", "shards", "queries", "qps",
               "p50 ms", "p95 ms", "p99 ms", "verified", "receipts=sum(legs)"]
    return format_table(headers, [report.as_row() for report in reports], title=title)


def _run_load_threads(
    system: AuthScheme,
    bounds: Sequence[Tuple[Any, Any]],
    num_clients: int,
    mode: str,
    batch_size: int,
    verify: bool,
    latency: Any,
) -> Tuple[List[Any], float]:
    """The in-process transport: one closed-loop thread per client.

    Each client takes the next contiguous slice of ``bounds`` under a lock,
    so batch composition does not depend on thread scheduling, and every
    outcome lands at its query's index: the result is in ``bounds`` order
    whatever the client count.
    """
    work = list(bounds)
    outcomes: List[Any] = [None] * len(work)
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    errors: List[BaseException] = []

    def drain(limit: int) -> Tuple[int, List[Tuple[Any, Any]]]:
        with cursor_lock:
            start = cursor["next"]
            taken = work[start:start + limit]
            cursor["next"] = start + len(taken)
        return start, taken

    def client_loop() -> None:
        try:
            while True:
                if mode == "per-query":
                    start, batch = drain(1)
                    if not batch:
                        return
                    started = time.perf_counter()
                    outcomes[start] = system.query(batch[0][0], batch[0][1], verify=verify)
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    latency.record(num_clients, elapsed_ms)
                else:
                    start, batch = drain(batch_size)
                    if not batch:
                        return
                    started = time.perf_counter()
                    outcomes[start:start + len(batch)] = system.query_many(
                        batch, verify=verify
                    )
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    for _ in batch:
                        latency.record(num_clients, elapsed_ms)
        except BaseException as exc:  # surface worker failures to the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, name=f"load-client-{slot}")
        for slot in range(num_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - started
    if errors:
        raise errors[0]
    return outcomes, duration_s


async def drive_closed_loop(
    client: Any,
    bounds: Sequence[Tuple[Any, Any]],
    num_clients: int,
    mode: str,
    batch_size: int,
    verify: bool,
    record: Callable[[float], None],
) -> Tuple[List[Any], float]:
    """One closed-loop asyncio task per client, all sharing ``client``.

    ``client`` is any async query client (a pooled
    :class:`~repro.network.client.RemoteSchemeClient`, a fleet router);
    ``record(ms)`` receives every served query's latency.  Outcomes come
    back in ``bounds`` order whatever the client count, the order a
    recorded trace keeps.
    """
    work: List[Tuple[Any, Any]] = list(bounds)
    cursor = {"next": 0}

    def drain(limit: int) -> Tuple[int, List[Tuple[Any, Any]]]:
        start = cursor["next"]
        taken = work[start:start + limit]
        cursor["next"] = start + len(taken)
        return start, taken

    outcomes: List[Any] = [None] * len(work)

    async def client_loop() -> None:
        while True:
            if mode == "per-query":
                start, batch = drain(1)
                if not batch:
                    return
                started = time.perf_counter()
                outcomes[start] = await client.query(batch[0][0], batch[0][1], verify=verify)
                record((time.perf_counter() - started) * 1000.0)
            else:
                start, batch = drain(batch_size)
                if not batch:
                    return
                started = time.perf_counter()
                outcomes[start:start + len(batch)] = await client.query_many(
                    batch, verify=verify
                )
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                for _ in batch:
                    record(elapsed_ms)

    started = time.perf_counter()
    tasks = [asyncio.ensure_future(client_loop()) for _ in range(num_clients)]
    try:
        await asyncio.gather(*tasks)
    except BaseException:
        # Cancel the siblings before the client is torn down, so their
        # aborted sockets don't surface as unhandled shutdown errors
        # burying the first (real) failure.
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise
    duration_s = time.perf_counter() - started
    return outcomes, duration_s


async def _drive_tcp(
    host: str,
    port: int,
    bounds: Sequence[Tuple[Any, Any]],
    num_clients: int,
    mode: str,
    batch_size: int,
    verify: bool,
    latency: Any,
) -> Tuple[List[Any], float]:
    """The TCP transport: the closed loop over one pooled client.

    The :class:`RemoteSchemeClient`'s admission semaphore equals the client
    count, so at most ``num_clients`` requests are ever in flight -- the
    same concurrency the thread transport offers.
    """
    from repro.network.client import RemoteSchemeClient

    async with RemoteSchemeClient(
        host, port, pool_size=num_clients, max_in_flight=num_clients
    ) as client:
        return await drive_closed_loop(
            client, bounds, num_clients, mode, batch_size, verify,
            functools.partial(latency.record, num_clients),
        )


def run_load(
    system: AuthScheme,
    bounds: Sequence[Tuple[Any, Any]],
    num_clients: int = 4,
    mode: str = "per-query",
    batch_size: int = 25,
    verify: bool = True,
    collector: Optional[MetricsCollector] = None,
    transport: str = "inproc",
) -> LoadReport:
    """Replay ``bounds`` from ``num_clients`` concurrent closed-loop clients.

    Every client repeatedly takes the next slice of the workload until it
    is drained: one query at a time in ``per-query`` mode, up to
    ``batch_size`` queries at a time in ``batched`` mode.  ``outcomes`` are
    in ``bounds`` order whatever the client count.  Per-query latency
    is the wall-clock time of the call that served it (so in batched mode
    every query in a batch observes the batch's latency, which is what a
    client waiting on the batch would see).

    ``transport="tcp"`` serves ``system`` over a localhost socket for the
    duration of the run and drives it through the async client SDK; the
    report then also carries the server's own queries-per-second counter
    (``server_qps``).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
    if num_clients < 1:
        raise ValueError("the load driver needs at least one client")
    if mode == "batched" and batch_size < 1:
        raise ValueError("batch_size must be positive")

    collector = collector or MetricsCollector()
    latency = collector.series(f"latency_ms[{mode}]")
    latency.observations[num_clients]  # materialise the bucket before the clients race

    server_qps = 0.0
    if transport == "tcp":
        from repro.network.server import ServerThread

        with ServerThread(system, max_in_flight=num_clients) as server:
            outcomes, duration_s = asyncio.run(
                _drive_tcp(
                    server.host, server.port, bounds, num_clients, mode,
                    batch_size, verify, latency,
                )
            )
            if duration_s > 0:
                server_qps = server.stats.queries_served / duration_s
    else:
        outcomes, duration_s = _run_load_threads(
            system, bounds, num_clients, mode, batch_size, verify, latency
        )
    served = len(outcomes)
    failed = sum(1 for outcome in outcomes if verify and not outcome.verified)
    consistent = all(
        outcome.receipt is not None and outcome.receipt.matches_leg_sums()
        for outcome in outcomes
    )
    return LoadReport(
        mode=mode,
        num_clients=num_clients,
        num_shards=getattr(system, "num_shards", 1),
        scheme=getattr(system, "scheme_name", "sae"),
        transport=transport,
        server_qps=server_qps,
        receipts_consistent=consistent,
        num_queries=served,
        duration_s=duration_s,
        throughput_qps=served / duration_s if duration_s > 0 else 0.0,
        latency_mean_ms=latency.mean(num_clients),
        latency_p50_ms=latency.percentile(num_clients, 50),
        latency_p95_ms=latency.percentile(num_clients, 95),
        latency_p99_ms=latency.percentile(num_clients, 99),
        all_verified=verify and failed == 0 and served == len(bounds) and served > 0,
        failed_queries=failed,
        total_sp_accesses=sum(outcome.sp_accesses for outcome in outcomes),
        total_te_accesses=sum(outcome.te_accesses for outcome in outcomes),
        collector=collector,
        outcomes=outcomes,
    )
