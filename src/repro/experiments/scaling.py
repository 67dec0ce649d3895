"""Shard-scaling sweep: throughput of the scatter-gather deployment.

Separating authentication (TE) from execution (SP) lets the execution tier
scale horizontally: the relation is range-partitioned across ``N`` shards
and every range query touches only the shards its range overlaps, as
independent parallel legs.  Since the scheme layer unified SAE and TOM the
sweep runs against either (``scheme="sae"`` / ``"tom"``): TOM shards carry
one MB-tree each, so the same sweep quantifies how much of the paper's
baseline cost the fleet can parallelise away.  This module sweeps the shard
count (1/2/4/8 by default) over a fixed workload and reports, per point:

* ``qps_model`` -- throughput of one closed-loop client under the paper's
  cost model (10 ms of simulated I/O per node access): each query's
  response time is the *critical path* over its parallel shard legs
  (:attr:`~repro.core.pipeline.QueryReceipt.critical_path_ms`), so the
  deterministic speedup the sharding buys is visible regardless of the
  Python interpreter's single-core wall-clock behaviour;
* ``wall_qps`` -- measured wall-clock throughput of ``query_many`` for the
  same workload (informational: the pure-Python engine is GIL-bound);
* the receipt invariant -- every merged per-query charge (node accesses at
  SP and TE, auth bytes, result bytes) must equal the **sum of its shard
  legs**, verified for every query;
* the attack gallery -- drop / inject / modify on a *single* shard must be
  rejected by the client while the untouched shards still verify.

``python -m repro experiments --figure scaling`` prints the table; the
CI bench gate consumes :func:`run_scaling` through
:mod:`repro.experiments.benchgate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core import DropAttack, InjectAttack, ModifyAttack, OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.core.scheme import AuthScheme
from repro.metrics.reporting import format_table
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload

#: Shard counts swept by default.
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class ScalingPoint:
    """One (cardinality, shard count) measurement of the sweep."""

    records: int
    shards: int
    num_queries: int
    qps_model: float
    speedup: float
    wall_qps: float
    mean_response_ms: float
    mean_sp_accesses: float
    mean_te_accesses: float
    receipts_consistent: bool
    tampers_detected: bool
    scheme: str = "sae"

    def as_row(self) -> List[Any]:
        """One table row (pairs with :func:`format_scaling`)."""
        return [
            self.scheme,
            self.records,
            self.shards,
            f"{self.qps_model:.4f}",
            f"{self.speedup:.2f}x",
            self.wall_qps,
            self.mean_response_ms,
            self.mean_sp_accesses,
            self.mean_te_accesses,
            "yes" if self.receipts_consistent else "NO",
            "yes" if self.tampers_detected else "NO",
        ]


def format_scaling(points: Sequence[ScalingPoint], title: str = "shard scaling") -> str:
    """Render scaling points as an aligned table."""
    headers = [
        "scheme",
        "records",
        "shards",
        "qps (model)",
        "speedup",
        "qps (wall)",
        "resp ms",
        "SP acc",
        "TE acc",
        "receipts=sum(legs)",
        "tampers detected",
    ]
    return format_table(headers, [point.as_row() for point in points], title=title)


def model_response_ms(outcome: Any) -> float:
    """Deterministic cost-model response time of one query (no measured CPU).

    Parallel shard legs: the client waits for the slowest leg's simulated
    I/O, where each leg's SP and TE proceed independently.  Excluding the
    measured CPU share keeps the number bit-for-bit reproducible, which is
    what lets CI gate on it with a tight tolerance.
    """
    receipt = outcome.receipt
    if receipt is None:
        return 0.0
    if receipt.legs:
        return max(max(leg.sp.io_cost_ms, leg.te.io_cost_ms) for leg in receipt.legs)
    return max(receipt.sp.io_cost_ms, receipt.te.io_cost_ms)


def receipts_match_leg_sums(outcomes: Sequence[Any]) -> bool:
    """Whether every merged receipt equals the sum of its shard legs.

    For unsharded outcomes (no legs) this is trivially true; for scattered
    ones it pins the tentpole invariant: scatter-gather must not change what
    the paper's cost model charges.
    """
    return all(
        outcome.receipt is not None and outcome.receipt.matches_leg_sums()
        for outcome in outcomes
    )


def tampers_all_detected(system: AuthScheme, low: Any, high: Any) -> bool:
    """Run the attack gallery against one (possibly sharded) deployment.

    Every attack is attached to a *single* shard (the middle one) when the
    deployment is sharded, which is the hardest case: the other legs still
    verify and only the corrupted leg may flag the tampering.  The system is
    restored to honest behaviour afterwards.
    """
    provider = system.provider
    victim = system.num_shards // 2
    attacks = (
        DropAttack(count=1, seed=1),
        InjectAttack(count=1),
        ModifyAttack(count=1, seed=2),
    )
    detected = True
    try:
        for attack in attacks:
            provider.shard(victim).attack = attack
            outcome = system.query(low, high)
            if outcome.verified:
                detected = False
            shard_verdicts = outcome.verification.details.get("shards", {})
            others_ok = all(
                result.ok
                for shard, result in shard_verdicts.items()
                if shard != victim
            )
            if not others_ok:
                detected = False
    finally:
        provider.attack = None
    honest = system.query(low, high)
    return detected and honest.verified


def run_scaling(
    cardinality: int = 50_000,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    num_queries: int = 100,
    record_size: int = 500,
    extent_fraction: float = 0.6,
    distribution: str = "uniform",
    seed: int = 7,
    check_tampers: bool = True,
    domain: Optional[Tuple[int, int]] = None,
    scheme: str = "sae",
    key_bits: int = 512,
) -> List[ScalingPoint]:
    """Sweep the shard count over one fixed workload.

    The dataset and the query mix are built once and replayed against every
    deployment shape, so any throughput difference is attributable to the
    sharding alone.  The first entry of ``shard_counts`` is the speedup
    baseline (use 1 to compare against the classic deployment).

    Sharding is an *intra-query* parallelism axis: a query only scatters if
    its range overlaps several shards.  The paper's selective 0.5 %-extent
    point lookups fit inside a single shard (and correctly see ~1.0x), so
    this sweep defaults to scan-heavy queries spanning 60 % of the key
    domain -- the workload shape a horizontally scaled SP tier exists for.
    At 4 shards such a range always covers at least one *full* interior
    shard, so the slowest leg carries at most 25/60 of the records and the
    modelled speedup lands around 2.4x (and keeps growing with the fleet).
    """
    kwargs = {} if domain is None else {"domain": domain}
    dataset = build_dataset(
        cardinality,
        distribution=distribution,
        record_size=record_size,
        seed=seed,
        **kwargs,
    )
    workload = RangeQueryWorkload(
        extent_fraction=extent_fraction,
        count=num_queries,
        seed=seed + 1,
        attribute=dataset.schema.key_column,
        **kwargs,
    )
    bounds = [(query.low, query.high) for query in workload]
    domain_low, domain_high = workload.domain

    points: List[ScalingPoint] = []
    baseline_qps: Optional[float] = None
    for shards in shard_counts:
        design = PhysicalDesign.default_for(dataset, shards=shards)
        system = OutsourcedDB(
            dataset, scheme=scheme, design=design, key_bits=key_bits, seed=seed
        ).setup()
        with system:
            started = time.perf_counter()
            outcomes = system.query_many(bounds)
            wall_s = time.perf_counter() - started
            if not all(outcome.verified for outcome in outcomes):
                raise RuntimeError(
                    f"scaling sweep: {shards}-shard {scheme} deployment failed verification"
                )
            response_times = [model_response_ms(outcome) for outcome in outcomes]
            mean_response = sum(response_times) / len(response_times)
            qps_model = 1000.0 / mean_response if mean_response > 0 else 0.0
            if baseline_qps is None:
                baseline_qps = qps_model
            tampers = (
                tampers_all_detected(system, domain_low, domain_high)
                if check_tampers
                else True
            )
            points.append(
                ScalingPoint(
                    scheme=scheme,
                    records=cardinality,
                    shards=shards,
                    num_queries=len(bounds),
                    qps_model=qps_model,
                    speedup=qps_model / baseline_qps if baseline_qps else 0.0,
                    wall_qps=len(bounds) / wall_s if wall_s > 0 else 0.0,
                    mean_response_ms=mean_response,
                    mean_sp_accesses=sum(o.sp_accesses for o in outcomes) / len(outcomes),
                    mean_te_accesses=sum(o.te_accesses for o in outcomes) / len(outcomes),
                    receipts_consistent=receipts_match_leg_sums(outcomes),
                    tampers_detected=tampers,
                )
            )
    return points


def scaling_rows(
    scale: str = "default",
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    scheme: str = "sae",
) -> List[ScalingPoint]:
    """Preset-sized sweeps for the CLI (`--figure scaling`).

    ``quick`` runs in seconds (CI smoke); ``default`` is the 50k-record
    acceptance workload; ``paper`` scales to 100k records.  ``scheme``
    picks the deployment to sweep (any registered scheme name).
    """
    if scale == "quick":
        return run_scaling(
            cardinality=4_000,
            shard_counts=shard_counts,
            num_queries=25,
            record_size=128,
            scheme=scheme,
        )
    if scale == "paper":
        return run_scaling(cardinality=100_000, shard_counts=shard_counts, scheme=scheme)
    return run_scaling(shard_counts=shard_counts, scheme=scheme)
