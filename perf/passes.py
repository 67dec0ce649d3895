"""The passes of a run: checked calls, closed-loop clients, a paced writer.

Every pass is written once, as coroutines over ``Deployment.call`` /
``Deployment.update``; ``Deployment.run`` decides whether the clients are
tasks of one loop (served) or threads of their own (in-process).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.network.client import RemoteSchemeError

from perf.tracing import Recorder
from perf.workloads import (
    DOMAIN,
    TRACED_QUERIES_PER_UPDATE,
    WRITER_PERIOD_S,
    Bounds,
    Change,
    Deployment,
    Oracle,
    to_update_batch,
)

#: The timed pass is cut into this many windows; medians are taken over them.
WINDOWS = 10
#: Records a single-client pass keeps for the codec micro-probes.
RECORD_SAMPLE = 2000
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: Sequence[int]) -> float:
    """User+system CPU of this process and of every served child so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


@dataclass
class Tally:
    """What one client saw during one pass."""

    wall_s: float = 0.0  # time spent in the traced operations of ``sequence``
    attempted: int = 0  # operations: queries, and update batches
    good_queries: int = 0
    failed: int = 0
    error_frames: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # one per good query
    calls: List[Tuple[float, float, int]] = field(default_factory=list)  # begun, done, good answers
    cpu_samples: List[Tuple[float, float]] = field(default_factory=list)  # time, CPU seconds so far
    call_ms: List[float] = field(default_factory=list)  # one per call, per query
    update_ms: List[float] = field(default_factory=list)  # from the due time
    lateness_ms: List[float] = field(default_factory=list)
    auth_bytes: int = 0
    errors: List[str] = field(default_factory=list)
    # Kept by ``sequence`` only, and only this much: holding every answer of a
    # pass alive slows the collector, and with it the program under test.
    receipts: List[List[Any]] = field(default_factory=list)  # per call
    records_returned: int = 0
    record_sample: List[Any] = field(default_factory=list)  # at most RECORD_SAMPLE

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)


def merge(tallies: Sequence[Tally]) -> Tally:
    """Sum the clients of one pass (or the passes of one run)."""
    merged = Tally()
    for tally in tallies:
        merged.attempted += tally.attempted
        merged.good_queries += tally.good_queries
        merged.failed += tally.failed
        merged.error_frames += tally.error_frames
        merged.auth_bytes += tally.auth_bytes
        for name in ("latencies_ms", "calls", "cpu_samples", "call_ms", "update_ms",
                     "lateness_ms", "errors"):
            getattr(merged, name).extend(getattr(tally, name))
    return merged


def windowed(tally: Tally) -> Tuple[List[float], List[float]]:
    """Per-window good answers per second, and CPU seconds per 1000 of them.

    The window edges are the times at which CPU use was sampled.  A call's
    good answers are spread evenly over its own service interval, so a window
    is credited with the share of each call that fell inside it: a batched
    call that returns 25 answers at once does not make one window look busy
    and the next one idle, and nothing is lost at the deadline.
    """
    rates: List[float] = []
    cpu_per_kquery: List[float] = []
    for (start, cpu_start), (end, cpu_end) in zip(tally.cpu_samples, tally.cpu_samples[1:]):
        work = sum(
            good * (min(done, end) - max(begun, start)) / (done - begun)
            for begun, done, good in tally.calls
            if done > start and begun < end and done > begun
        )
        if end > start and work > 0:
            rates.append(work / (end - start))
            cpu_per_kquery.append((cpu_end - cpu_start) / work * 1000.0)
    return rates, cpu_per_kquery


# ---------------------------------------------------------------------- checking
def check_call(
    tally: Tally,
    oracle: Oracle,
    bounds: Sequence[Bounds],
    outcomes: Sequence[Any],
    applied_before: int,
    latency_ms: float,
) -> None:
    """Count each answer of one call as good or failed; never raises."""
    tally.attempted += len(bounds)
    if len(outcomes) != len(bounds):
        tally.fail(len(bounds), f"{len(outcomes)} outcomes for {len(bounds)} queries")
        return
    for (low, high), outcome in zip(bounds, outcomes):
        receipt = outcome.receipt
        if not outcome.verified:
            tally.fail(1, f"unverified answer for [{low}, {high}]: {getattr(outcome, 'reason', '')}")
        elif receipt is None or not receipt.matches_leg_sums():
            tally.fail(1, f"receipt of [{low}, {high}] does not match its leg sums")
        elif not oracle.matches(outcome.records, low, high, applied_before):
            tally.fail(1, f"answer for [{low}, {high}] differs from the oracle")
        else:
            tally.good_queries += 1
            tally.auth_bytes += receipt.auth_bytes
            tally.latencies_ms.append(latency_ms)


async def issue(
    deployment: Deployment, oracle: Oracle, tally: Tally, bounds: Sequence[Bounds]
) -> Optional[List[Any]]:
    """One checked call; a raised or refused call is a failed operation."""
    applied_before = oracle.applied
    begun = time.perf_counter()
    try:
        outcomes = await deployment.call(bounds)
    except Exception as exc:  # noqa: BLE001 - the loop must go on and report it
        tally.attempted += len(bounds)
        tally.error_frames += isinstance(exc, RemoteSchemeError)
        tally.fail(len(bounds), f"{type(exc).__name__}: {exc}")
        return None
    done = time.perf_counter()
    latency_ms = (done - begun) * 1000.0
    tally.call_ms.append(latency_ms / len(bounds))
    good_before = tally.good_queries
    check_call(tally, oracle, bounds, outcomes, applied_before, latency_ms)
    tally.calls.append((begun, done, tally.good_queries - good_before))
    return outcomes


async def send_update(
    deployment: Deployment, oracle: Oracle, tally: Tally, changes: Sequence[Change], due: float
) -> None:
    tally.attempted += 1
    tally.lateness_ms.append((time.perf_counter() - due) * 1000.0)
    batch = to_update_batch(changes)
    oracle.stage(changes)
    try:
        await deployment.update(batch)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        tally.error_frames += isinstance(exc, RemoteSchemeError)
        tally.fail(1, f"update failed: {type(exc).__name__}: {exc}")
        return
    oracle.applied = oracle.version
    tally.update_ms.append((time.perf_counter() - due) * 1000.0)


# ---------------------------------------------------------------------- passes
async def reader(
    deployment: Deployment, oracle: Oracle, tally: Tally,
    ops: Sequence[Tuple[Bounds, ...]], cursor: Iterator[int], deadline: float,
    sample_every: float = 0.0,
) -> None:
    """A closed-loop client: the next call is sent when the last one returned.

    With ``sample_every`` this client also notes, between two of its calls,
    the CPU seconds used so far -- the edges of the windows of ``windowed``.
    """
    pids = deployment.child_pids()
    now = next_sample = time.perf_counter()
    while True:
        if sample_every and (now >= next_sample or now >= deadline):
            tally.cpu_samples.append((now, cpu_seconds(pids)))
            next_sample += sample_every
        if now >= deadline:
            return
        await issue(deployment, oracle, tally, ops[next(cursor) % len(ops)])
        now = time.perf_counter()


async def writer(
    deployment: Deployment, oracle: Oracle, tally: Tally,
    batches: Iterator[Sequence[Change]], deadline: float,
) -> None:
    """A paced writer: one batch per period, latency taken from the due time."""
    start = time.perf_counter()
    for tick in itertools.count():
        due = start + tick * WRITER_PERIOD_S
        if due >= deadline:
            return
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await send_update(deployment, oracle, tally, next(batches), due)


def closed_loop(
    deployment: Deployment, oracle: Oracle, ops: Sequence[Tuple[Bounds, ...]],
    cursor: Iterator[int], batches: Iterator[Sequence[Change]], seconds: float,
) -> Tally:
    """Two clients for ``seconds``: two readers, or a reader and the writer."""
    workload = deployment.workload
    tallies = [Tally() for _ in range(2)]
    deadline = time.perf_counter() + seconds
    clients = [
        reader(deployment, oracle, tallies[i], ops, cursor, deadline,
               sample_every=seconds / WINDOWS if i == 0 else 0.0)
        for i in range(workload.clients)
    ]
    if workload.writer:
        clients.append(writer(deployment, oracle, tallies[1], batches, deadline))
    deployment.run(*clients)
    return merge(tallies)


def sweep(deployment: Deployment, oracle: Oracle, tally: Tally) -> None:
    """Twenty 5 % tiles over the domain: touches every leaf and heap page."""
    low, high = DOMAIN
    step = (high - low) // 20
    batch = deployment.workload.batch

    async def go() -> None:
        tiles = [(start, min(high, start + step - 1)) for start in range(low, high, step)]
        for i in range(0, len(tiles), batch):
            await issue(deployment, oracle, tally, tuple(tiles[i:i + batch]))

    deployment.run(go())


def sequence(
    deployment: Deployment, oracle: Oracle, ops: Sequence[Tuple[Bounds, ...]],
    batches: Optional[Iterator[Sequence[Change]]], recorder: Recorder, prefix: str,
    reference_ops: Sequence[Tuple[Bounds, ...]] = (),
) -> Tuple[Tally, Tally]:
    """One client runs ``ops`` in order, each a traced request of ``recorder``.

    Every traced operation is followed by one of ``reference_ops`` with the
    recorder switched off: the host's speed drifts by a fifth within a minute,
    so only calls taken side by side can tell what tracing costs.  On the
    writer workload an update follows every few traced queries, so that a
    single client sees both kinds of operation and the counts still repeat.
    Returns the traced and the reference tally.
    """
    traced, reference = Tally(), Tally()

    def keep(outcomes: Optional[List[Any]]) -> None:
        outcomes = outcomes or []
        traced.receipts.append([o.receipt for o in outcomes if o.receipt is not None])
        for outcome in outcomes:
            traced.records_returned += len(outcome.records)
            room = RECORD_SAMPLE - len(traced.record_sample)
            traced.record_sample.extend(outcome.records[:max(0, room)])

    async def go() -> None:
        for index, bounds in enumerate(ops):
            begun = time.perf_counter()
            with recorder.request(f"{prefix}:{index}"):
                keep(await issue(deployment, oracle, traced, bounds))
            if batches is not None and (index + 1) % TRACED_QUERIES_PER_UPDATE == 0:
                with recorder.request(f"{prefix}:u{index}"):
                    await send_update(deployment, oracle, traced, next(batches), time.perf_counter())
            traced.wall_s += time.perf_counter() - begun
            if index < len(reference_ops):
                recorder.enabled = False
                try:
                    await issue(deployment, oracle, reference, reference_ops[index])
                finally:
                    recorder.enabled = True

    deployment.run(go())
    return traced, reference
