"""Shared measurement machinery for the figure experiments.

For one (distribution, cardinality) point the runner:

1. builds the dataset (UNF or SKW),
2. sets up a complete SAE deployment and, unless disabled, a complete TOM
   deployment over the *same* dataset,
3. runs the fixed-extent query workload through both, verifying every result,
4. aggregates per-query averages for every metric any of the four figures
   needs (authentication bytes, SP/TE node accesses and simulated cost,
   client CPU time, result cardinality) together with the storage report.

Because the four figure modules all consume the same
:class:`PointMeasurement`, the whole evaluation costs a single pass per
point; measurements are cached per configuration so that, e.g., generating
Figure 5 and Figure 7 back to back does not rebuild a 100K-record system
twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.protocol import SaeScheme
from repro.crypto.digest import get_scheme
from repro.experiments.config import ExperimentConfig
from repro.tom.scheme import TomScheme
from repro.workloads.datasets import build_dataset
from repro.workloads.queries import RangeQueryWorkload

_MEGABYTE = 1024.0 * 1024.0


@dataclass
class PointMeasurement:
    """Averaged metrics for one (distribution, cardinality) configuration."""

    distribution: str
    cardinality: int
    num_queries: int
    avg_result_cardinality: float = 0.0
    # --- Figure 5: authentication communication overhead (bytes)
    sae_auth_bytes: float = 0.0
    tom_auth_bytes: float = 0.0
    # --- Figure 6: query processing cost (simulated ms and node accesses)
    sae_sp_index_accesses: float = 0.0
    sae_sp_total_accesses: float = 0.0
    tom_sp_index_accesses: float = 0.0
    tom_sp_total_accesses: float = 0.0
    te_accesses: float = 0.0
    sae_sp_ms: float = 0.0
    tom_sp_ms: float = 0.0
    te_ms: float = 0.0
    # --- Figure 7: client verification time (measured CPU ms)
    sae_client_ms: float = 0.0
    tom_client_ms: float = 0.0
    # --- Figure 8: storage (MB)
    sae_sp_storage_mb: float = 0.0
    tom_sp_storage_mb: float = 0.0
    te_storage_mb: float = 0.0
    # --- sanity
    all_verified: bool = True
    details: dict = field(default_factory=dict)


_CACHE: Dict[Tuple, PointMeasurement] = {}


def clear_cache() -> None:
    """Drop every cached measurement (used by tests and ablations)."""
    _CACHE.clear()


def measure_point(config: ExperimentConfig, distribution: str, cardinality: int,
                  use_cache: bool = True) -> PointMeasurement:
    """Measure one (distribution, cardinality) point of the evaluation."""
    key = config.cache_key(distribution, cardinality)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    scheme = get_scheme(config.digest_scheme)
    dataset = build_dataset(
        cardinality,
        distribution=distribution,
        record_size=config.record_size,
        domain=config.domain,
        seed=config.seed,
    )
    workload = RangeQueryWorkload(
        extent_fraction=config.extent_fraction,
        count=config.num_queries,
        domain=config.domain,
        seed=config.seed + 1,
        attribute=dataset.schema.key_column,
    )

    sae = SaeScheme(
        dataset,
        scheme=scheme,
        page_size=config.page_size,
        node_access_ms=config.node_access_ms,
    ).setup()
    tom: Optional[TomScheme] = None
    if config.include_tom:
        tom = TomScheme(
            dataset,
            scheme=scheme,
            page_size=config.page_size,
            node_access_ms=config.node_access_ms,
            key_bits=config.rsa_key_bits,
            seed=config.seed,
        ).setup()

    measurement = PointMeasurement(
        distribution=distribution,
        cardinality=cardinality,
        num_queries=config.num_queries,
    )

    queries = workload.queries()
    for query in queries:
        outcome = sae.query(query.low, query.high)
        measurement.all_verified = measurement.all_verified and outcome.verified
        measurement.avg_result_cardinality += outcome.cardinality
        measurement.sae_auth_bytes += outcome.auth_bytes
        measurement.sae_sp_total_accesses += outcome.sp_accesses
        measurement.te_accesses += outcome.te_accesses
        measurement.te_ms += outcome.te_cost_ms
        measurement.sae_client_ms += outcome.client_cpu_ms

        # Index-only accesses (Figure 6's headline SP cost): re-run the query
        # path without fetching the records from the data file, so the B+-tree
        # vs MB-tree fanout effect is isolated from the (identical) record
        # retrieval cost.  See EXPERIMENTS.md for the discussion.
        measurement.sae_sp_index_accesses += sae.provider.index_only_accesses(query)

        if tom is not None:
            tom_outcome = tom.query(query.low, query.high)
            measurement.all_verified = measurement.all_verified and tom_outcome.verified
            measurement.tom_auth_bytes += tom_outcome.auth_bytes
            measurement.tom_client_ms += tom_outcome.client_cpu_ms

            measurement.tom_sp_index_accesses += tom.provider.index_only_accesses(query)

            before = tom.provider.counter.node_accesses
            tom.provider.query_only(query)
            measurement.tom_sp_total_accesses += tom.provider.counter.node_accesses - before

    count = float(len(queries))
    measurement.avg_result_cardinality /= count
    measurement.sae_auth_bytes /= count
    measurement.tom_auth_bytes /= count
    measurement.sae_sp_index_accesses /= count
    measurement.sae_sp_total_accesses /= count
    measurement.tom_sp_index_accesses /= count
    measurement.tom_sp_total_accesses /= count
    measurement.te_accesses /= count
    measurement.te_ms /= count
    measurement.sae_client_ms /= count
    measurement.tom_client_ms /= count

    measurement.sae_sp_ms = measurement.sae_sp_index_accesses * config.node_access_ms
    measurement.tom_sp_ms = measurement.tom_sp_index_accesses * config.node_access_ms

    storage = sae.storage_report()
    measurement.sae_sp_storage_mb = storage["sp_bytes"] / _MEGABYTE
    measurement.te_storage_mb = storage["te_bytes"] / _MEGABYTE
    if tom is not None:
        measurement.tom_sp_storage_mb = tom.storage_report()["sp_bytes"] / _MEGABYTE

    measurement.details = {
        "dataset_bytes": dataset.size_bytes(),
        "avg_record_bytes": dataset.average_record_bytes(),
        "sae_sp_fetch_accesses": measurement.sae_sp_total_accesses - measurement.sae_sp_index_accesses,
        "tom_sp_fetch_accesses": measurement.tom_sp_total_accesses - measurement.tom_sp_index_accesses,
    }

    if use_cache:
        _CACHE[key] = measurement
    return measurement
