"""The paper's SAE-vs-TOM head-to-head, rerun on the modern pipeline.

The paper's evaluation is a comparison between separated authentication
(SAE: SP + TE, constant-size XB-tree verification tokens) and the unified
baseline (TOM: MB-tree, per-query verification objects) along three axes --
query cost, authentication bytes (VT vs VO) and update cost -- swept over
query selectivity.  Since the scheme layer put both schemes behind one
:class:`~repro.core.scheme.OutsourcedDB` orchestrator, the comparison runs
through exactly the pipeline production traffic uses (re-entrant contexts,
batched dispatch, per-request :class:`~repro.core.pipeline.QueryReceipt`\\ s)
instead of the toy demo path:

* per (selectivity, scheme): mean SP node accesses and simulated I/O ms,
  mean authentication bytes, cost-model throughput, wall client CPU ms;
* per scheme: the node-access cost of one mixed update batch
  (inserts + deletes + modifies), covering every serving party (SP and --
  for SAE -- the TE).

All gated numbers come from the deterministic node-access cost model, so
``bench smoke`` writes them to ``BENCH_head_to_head.json`` and CI gates
them against ``benchmarks/baseline.json`` -- a regression in *either*
scheme now fails the pipeline.

Run it from the CLI::

    python -m repro experiments --figure head-to-head --scale quick
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.core import OutsourcedDB, UpdateBatch
from repro.core.dataset import Dataset
from repro.experiments.scaling import model_response_ms
from repro.metrics.reporting import format_table
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload

#: Selectivities swept by default (fraction of the key domain per query).
DEFAULT_SELECTIVITIES: Tuple[float, ...] = (0.001, 0.01, 0.1)

#: Schemes compared by default (the paper's head-to-head).
DEFAULT_SCHEMES: Tuple[str, ...] = ("sae", "tom")


@dataclass(frozen=True)
class HeadToHeadPoint:
    """One (scheme, selectivity) measurement of the comparison."""

    scheme: str
    selectivity: float
    records: int
    num_queries: int
    mean_cardinality: float
    mean_sp_accesses: float
    mean_sp_io_ms: float
    mean_auth_bytes: float
    mean_client_cpu_ms: float
    model_qps: float
    all_verified: bool

    def as_row(self) -> List[Any]:
        """One table row (pairs with :func:`format_head_to_head`)."""
        return [
            self.scheme,
            f"{self.selectivity:.3%}",
            round(self.mean_cardinality, 1),
            round(self.mean_sp_accesses, 2),
            round(self.mean_sp_io_ms, 1),
            round(self.mean_auth_bytes, 1),
            f"{self.model_qps:.4f}",
            round(self.mean_client_cpu_ms, 3),
            "yes" if self.all_verified else "NO",
        ]


@dataclass(frozen=True)
class UpdateCostPoint:
    """Node-access cost of one mixed update batch under one scheme."""

    scheme: str
    num_operations: int
    provider_accesses: int
    te_accesses: int
    all_verified_after: bool

    @property
    def total_accesses(self) -> int:
        """Accesses across every serving party (SP fleet + TE for SAE)."""
        return self.provider_accesses + self.te_accesses

    @property
    def accesses_per_op(self) -> float:
        """Total accesses divided by the number of operations."""
        if self.num_operations == 0:
            return 0.0
        return self.total_accesses / self.num_operations

    def as_row(self) -> List[Any]:
        """One table row (pairs with :func:`format_update_costs`)."""
        return [
            self.scheme,
            self.num_operations,
            self.provider_accesses,
            self.te_accesses,
            round(self.accesses_per_op, 2),
            "yes" if self.all_verified_after else "NO",
        ]


@dataclass(frozen=True)
class HeadToHeadResult:
    """The full comparison: query sweep plus update costs."""

    points: Tuple[HeadToHeadPoint, ...]
    update_points: Tuple[UpdateCostPoint, ...]


def format_head_to_head(points: Sequence[HeadToHeadPoint],
                        title: str = "SAE vs TOM head-to-head") -> str:
    """Render the query sweep as an aligned table."""
    headers = ["scheme", "selectivity", "|RS|", "SP acc", "SP io ms",
               "auth bytes", "qps (model)", "client ms", "verified"]
    return format_table(headers, [point.as_row() for point in points], title=title)


def format_update_costs(points: Sequence[UpdateCostPoint],
                        title: str = "update cost (one mixed batch)") -> str:
    """Render the update-cost comparison as an aligned table."""
    headers = ["scheme", "ops", "SP acc", "TE acc", "acc/op", "verified after"]
    return format_table(headers, [point.as_row() for point in points], title=title)


def _mixed_update_batch(dataset, num_operations: int) -> UpdateBatch:
    """A deterministic insert/delete/modify mix derived from the dataset.

    One third of the operations delete existing records, one third modify
    existing records in place (fresh payload, same key), one third insert
    brand-new records with ids above the current range -- the same shape
    for every scheme, so the cost comparison is apples to apples.
    """
    records = list(dataset.records)
    schema = dataset.schema
    # The payload is whichever column is neither the id nor the query key.
    payload_index = next(
        position
        for position in range(len(schema.columns))
        if position not in (schema.id_index, schema.key_index)
    )
    per_kind = max(1, min(num_operations // 3, len(records) // 2))
    batch = UpdateBatch()
    # Interleave the victims (even slots delete, odd slots modify) so the
    # two sets are disjoint by construction; record order is unrelated to
    # key order, so the touched keys spread across the whole tree anyway.
    for victim in records[0:2 * per_kind:2]:
        batch.delete(victim[schema.id_index])
    for target in records[1:2 * per_kind:2]:
        fields = list(target)
        fields[payload_index] = b"modified:" + bytes(str(target[schema.id_index]), "ascii")
        batch.modify(tuple(fields))
    next_id = max(record[schema.id_index] for record in records) + 1
    domain_keys = sorted(dataset.keys())
    stride = max(1, len(domain_keys) // (per_kind + 1))
    for position in range(per_kind):
        fields = [None] * len(schema.columns)
        fields[schema.id_index] = next_id + position
        fields[schema.key_index] = domain_keys[(position * stride + 3) % len(domain_keys)] + 1
        fields[payload_index] = b"inserted:" + bytes(str(position), "ascii")
        batch.insert(tuple(fields))
    return batch


def _accesses(party) -> int:
    """Cumulative node accesses of a party, summed over its shards."""
    return sum(
        party.shard(shard_id).counter.node_accesses
        for shard_id in range(party.num_shards)
    )


def _party_accesses(system: OutsourcedDB) -> int:
    """Summed cumulative node accesses of every serving party."""
    return _accesses(system.provider) + _te_accesses(system)


def _te_accesses(system: OutsourcedDB) -> int:
    """Cumulative node accesses at the TE (0 for schemes without one)."""
    trusted_entity = getattr(system.system, "trusted_entity", None)
    return 0 if trusted_entity is None else _accesses(trusted_entity)


def run_head_to_head(
    cardinality: int = 4_000,
    selectivities: Sequence[float] = DEFAULT_SELECTIVITIES,
    num_queries: int = 20,
    record_size: int = 128,
    seed: int = 7,
    key_bits: int = 512,
    num_update_ops: int = 30,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
) -> HeadToHeadResult:
    """Run the paper's comparison over one shared dataset and workload.

    Every scheme is deployed over its own *copy* of the same dataset (a
    deployment's data owner mutates its dataset on updates, so sharing one
    object would let the first scheme's update batch contaminate the
    second's state); every selectivity replays the *same* query mix through
    ``query_many`` on each deployment; the update phase applies the *same*
    mixed batch -- derived once from the pristine dataset -- to each.  Any
    cost difference is therefore attributable to the scheme alone.
    """
    dataset = build_dataset(cardinality, record_size=record_size, seed=seed)
    systems: Dict[str, OutsourcedDB] = {
        name: OutsourcedDB(
            Dataset(
                schema=dataset.schema,
                records=[tuple(record) for record in dataset.records],
                name=f"{dataset.name}/{name}",
            ),
            scheme=name,
            key_bits=key_bits,
            seed=seed,
        ).setup()
        for name in schemes
    }
    points: List[HeadToHeadPoint] = []
    try:
        for selectivity in selectivities:
            workload = RangeQueryWorkload(
                extent_fraction=selectivity,
                count=num_queries,
                seed=seed + 1,
                attribute=dataset.schema.key_column,
            )
            bounds = [(query.low, query.high) for query in workload]
            for name, system in systems.items():
                outcomes = system.query_many(bounds)
                count = float(len(outcomes))
                mean_response = sum(
                    model_response_ms(outcome) for outcome in outcomes
                ) / count
                points.append(
                    HeadToHeadPoint(
                        scheme=name,
                        selectivity=selectivity,
                        records=cardinality,
                        num_queries=len(outcomes),
                        mean_cardinality=sum(o.cardinality for o in outcomes) / count,
                        mean_sp_accesses=sum(o.sp_accesses for o in outcomes) / count,
                        mean_sp_io_ms=sum(o.receipt.sp.io_cost_ms for o in outcomes) / count,
                        mean_auth_bytes=sum(o.auth_bytes for o in outcomes) / count,
                        mean_client_cpu_ms=sum(o.client_cpu_ms for o in outcomes) / count,
                        model_qps=1000.0 / mean_response if mean_response > 0 else 0.0,
                        all_verified=all(o.verified for o in outcomes),
                    )
                )

        update_points: List[UpdateCostPoint] = []
        probe = sorted(dataset.keys())
        probe_bounds = (probe[len(probe) // 4], probe[(3 * len(probe)) // 4])
        # One batch, derived from the pristine dataset, applied to every
        # deployment -- the like-for-like contract the docstring promises.
        batch = _mixed_update_batch(dataset, num_update_ops)
        for name, system in systems.items():
            before = _party_accesses(system)
            te_before = _te_accesses(system)
            system.apply_updates(batch)
            provider_accesses = _party_accesses(system) - before - (
                _te_accesses(system) - te_before
            )
            te_accesses = _te_accesses(system) - te_before
            after = system.query(*probe_bounds)
            update_points.append(
                UpdateCostPoint(
                    scheme=name,
                    num_operations=len(batch),
                    provider_accesses=provider_accesses,
                    te_accesses=te_accesses,
                    all_verified_after=after.verified,
                )
            )
    finally:
        for system in systems.values():
            system.close()
    return HeadToHeadResult(points=tuple(points), update_points=tuple(update_points))


def head_to_head_rows(scale: str = "quick") -> HeadToHeadResult:
    """Preset-sized comparisons for the CLI (``--figure head-to-head``)."""
    if scale == "paper":
        return run_head_to_head(cardinality=100_000, num_queries=50, record_size=500,
                                key_bits=1024, num_update_ops=90)
    if scale == "default":
        return run_head_to_head(cardinality=50_000, num_queries=50, record_size=500,
                                num_update_ops=60)
    return run_head_to_head()
