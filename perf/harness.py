"""One workload run: set-up, warm-up, traced pass, timed pass, final checks.

The shape is the same on every commit (``perf/README.md`` has the rationale):

1. *set-up*, timed as ``setup_s`` from ``build_dataset`` to the first verified
   answer, repeated at both ends of the run and averaged;
2. *warm-up*: a sweep over the whole key domain, then (before the timed pass)
   the closed loop itself, untimed, so pools and memos fill;
3. with ``--trace 1`` only, the *traced pass*: one client, the first N
   operations of the list, spans on -- it runs on the freshly swept
   deployment so its counts repeat exactly -- each followed by one of the
   next N with spans off (tracing overhead), then the by-difference probes;
4. the tamper canary (in-process workloads);
5. the *timed pass*: closed loop, tracing off, the only source of the
   end-to-end metrics;
6. on the writer workload, snapshot -> restore -> full-range answer equal to
   the oracle, so every acknowledged write survives a restart.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import DropAttack

from perf import probes
from perf.passes import Tally, closed_loop, issue, merge, sweep, windowed
from perf.tracing import Recorder
from perf.workloads import (
    DOMAIN,
    Bounds,
    Change,
    Deployment,
    InProcess,
    Oracle,
    Scale,
    Workload,
    build_deployment,
    make_ops,
    make_update_batches,
)

class BenchmarkFailure(RuntimeError):
    """The run cannot be trusted (canary silent, restart lost a write, ...)."""


# ---------------------------------------------------------------------- canary
def tamper_canary(deployment: InProcess, oracle: Oracle) -> None:
    """A provider that drops a record must be REJECTED, or the run is void."""
    provider = getattr(deployment.db, "provider", None)
    if provider is None or not hasattr(provider, "attack"):
        raise BenchmarkFailure("tamper canary: the provider exposes no attack hook")
    (low, high), = deployment.first_bounds()[:1]
    provider.attack = DropAttack(count=1)
    try:
        tampered = deployment.db.query(low, high)
    finally:
        provider.attack = None
    if tampered.verified:
        raise BenchmarkFailure("tamper canary: a dropped record was accepted as verified")
    honest = deployment.db.query(low, high)
    if not (honest.verified and oracle.matches(honest.records, low, high, oracle.applied)):
        raise BenchmarkFailure("tamper canary: the honest answer no longer verifies")


# ---------------------------------------------------------------------- resources
def peak_rss_mb(pids: Sequence[int]) -> float:
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


# ---------------------------------------------------------------------- the run
@dataclass
class RunResult:
    workload: str
    seed: int
    scale: str
    seconds: float
    design: Dict[str, Any]
    sizes: Dict[str, Any]
    attempted: int
    failed: int
    correct: bool
    canary: str
    errors: List[str]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    notes: List[str]
    samples: Dict[str, int]


def timed_setup(workload: Workload, scale: Scale, workdir: str) -> Tuple[Deployment, float]:
    """Build one deployment; seconds from ``build_dataset`` to the first verified answer."""
    deployment = build_deployment(workload, scale, workdir)
    begun = time.perf_counter()
    try:
        deployment.setup()
    except BaseException:
        deployment.close()
        raise
    return deployment, time.perf_counter() - begun


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, scale: Scale,
    workroot: str, recorder: Optional[Recorder] = None,
) -> RunResult:
    ops = make_ops(workload, seed)
    batches = itertools.cycle(make_update_batches(seed, scale.records)) if workload.writer else None
    workdir = os.path.join(workroot, workload.name)

    # (1) set-up, several times.  This host's speed moves by a third in phases
    # of several seconds -- longer than a set-up -- so repeats taken back to
    # back all land in one phase and their median is one of two values.  The
    # repeats are therefore taken at both ends of the run and averaged.
    repeats = 1 if trace else scale.setup_repeats
    setup_times: List[float] = []
    for attempt in range(repeats - 2):
        deployment, elapsed = timed_setup(workload, scale, f"{workdir}-{attempt}")
        deployment.close()
        setup_times.append(elapsed)
    deployment, elapsed = timed_setup(workload, scale, workdir)
    setup_times.append(elapsed)
    try:
        result = _measure(
            deployment, workload, seed, seconds, trace, scale, workdir, ops, batches, recorder
        )
    finally:
        deployment.close()
    if repeats > 1:
        deployment, elapsed = timed_setup(workload, scale, f"{workdir}-after")
        deployment.close()
        setup_times.append(elapsed)
    result.end_to_end = {"setup_s": statistics.fmean(setup_times), **result.end_to_end}
    return result


def _measure(
    deployment: Deployment, workload: Workload, seed: int, seconds: float, trace: bool,
    scale: Scale, workdir: str, ops: Sequence[Tuple[Bounds, ...]],
    batches: Optional[Iterator[Sequence[Change]]], recorder: Optional[Recorder],
) -> RunResult:
    schema = deployment.dataset.schema
    oracle = Oracle(deployment.dataset.records, schema.key_index, schema.id_index)
    report = deployment.storage_report()
    user_bytes = report["dataset_bytes"]
    stored = report.get("sp_bytes", 0) + report.get("te_bytes", 0)

    # (2) warm-up sweep.
    warm = Tally()
    sweep(deployment, oracle, warm)
    counted = [warm]

    # (3) traced pass and probes; N counts queries, so a batched call is 25.
    traced_calls = max(1, scale.traced_ops // workload.batch)
    per_layer: Dict[str, float] = {}
    notes: List[str] = []
    if trace:
        recorder = recorder or Recorder()
        per_layer, notes, traced = probes.traced_ladder(
            deployment, oracle, ops[:traced_calls], ops[traced_calls:2 * traced_calls],
            batches, recorder, workdir, scale,
        )
        counted.extend(traced)

    # (4) the check is checked.
    canary = "not applicable (served)"
    if isinstance(deployment, InProcess):
        tamper_canary(deployment, oracle)
        canary = "rejected"

    # (5) closed loop: untimed, then timed with tracing off.
    cursor = itertools.count(2 * traced_calls)
    counted.append(closed_loop(deployment, oracle, ops, cursor, batches, scale.warmup_s))
    timed = closed_loop(deployment, oracle, ops, cursor, batches, seconds)
    rss = peak_rss_mb(deployment.child_pids())
    rates, cpu_per_kquery = windowed(timed)
    counted.append(timed)

    # (6) every acknowledged write survives a restart.
    if workload.writer:
        deployment.restart()
        final = Tally()
        deployment.run(issue(deployment, oracle, final, (DOMAIN,)))
        counted.append(final)
        if final.failed:
            raise BenchmarkFailure(f"restart lost or corrupted writes: {final.errors}")

    total = merge(counted)
    good = max(1, timed.good_queries)
    end_to_end = {
        "query_qps": probes.median(rates),
        "query_p50_ms": percentile(timed.latencies_ms, 0.50),
        "query_p95_ms": percentile(timed.latencies_ms, 0.95),
        "auth_bytes_per_query": timed.auth_bytes / good,
        "storage_bytes_per_user_byte": stored / user_bytes,
        "cpu_s_per_kquery": probes.median(cpu_per_kquery),
        "peak_rss_mb": rss,
    }
    if trace:
        per_layer.update({
            "loadgen.ops_attempted": float(timed.attempted),
            "loadgen.query_p99_ms": percentile(timed.latencies_ms, 0.99),
            "network.server.error_frames": float(total.error_frames),
            "host.calibration_score": probes.calibration_score(),
        })
        if workload.writer:
            per_layer.update({
                "loadgen.update_p50_ms": percentile(timed.update_ms, 0.50),
                "loadgen.update_p90_ms": percentile(timed.update_ms, 0.90),
                "loadgen.writer_lateness_p50_ms": percentile(timed.lateness_ms, 0.50),
            })
    return RunResult(
        workload=workload.name,
        seed=seed,
        scale=scale.name,
        seconds=seconds,
        design=workload.design.to_json_dict(),
        sizes={
            "records": scale.records,
            "dataset_bytes": user_bytes,
            "storage": "paged (children)" if workload.served else workload.storage,
            "clients": 2,
            "extent": workload.extent,
            "batch": workload.batch,
        },
        attempted=total.attempted,
        failed=total.failed,
        correct=total.failed == 0 and timed.good_queries > 0,
        canary=canary,
        errors=total.errors[:5],
        end_to_end=end_to_end,
        per_layer=per_layer,
        notes=notes,
        samples={"queries": len(timed.latencies_ms), "updates": len(timed.update_ms)},
    )
