"""Ablation studies beyond the paper's figures.

These quantify the design decisions DESIGN.md calls out:

* :func:`te_index_ablation` -- how much the XB-tree buys over the naive
  alternative the paper dismisses ("the TE could perform a sequential scan
  of T"): node accesses per VT generation with and without the index.
* :func:`page_size_ablation` -- effect of the page size (hence fanout) on
  the SP cost gap between SAE and TOM and on the TE cost.
* :func:`digest_scheme_ablation` -- effect of the digest algorithm (SHA-1
  vs SHA-256) on token/VO size and client verification time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import ExecutionContext
from repro.core.protocol import SaeScheme
from repro.core.trusted_entity import TrustedEntity
from repro.crypto.digest import get_scheme
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import measure_point
from repro.workloads.datasets import build_dataset
from repro.workloads.queries import RangeQueryWorkload


def te_index_ablation(config: Optional[ExperimentConfig] = None,
                      cardinality: Optional[int] = None) -> List[Dict]:
    """Compare VT generation with the XB-tree against a sequential scan of ``T``."""
    config = config or ExperimentConfig.quick()
    cardinality = cardinality or max(config.cardinalities)
    scheme = get_scheme(config.digest_scheme)
    rows: List[Dict] = []
    for distribution in config.distributions:
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
        )
        indexed = TrustedEntity(scheme=scheme, page_size=config.page_size,
                                node_access_ms=config.node_access_ms, use_index=True)
        indexed.receive_dataset(dataset)
        scanning = TrustedEntity(scheme=scheme, page_size=config.page_size,
                                 node_access_ms=config.node_access_ms, use_index=False)
        scanning.receive_dataset(dataset)

        indexed_accesses = 0.0
        scan_accesses = 0.0
        for query in workload:
            indexed_ctx = ExecutionContext(query=query)
            scan_ctx = ExecutionContext(query=query)
            token_indexed = indexed.generate_vt(query, indexed_ctx)
            indexed_accesses += indexed_ctx.te.node_accesses
            token_scan = scanning.generate_vt(query, scan_ctx)
            scan_accesses += scan_ctx.te.node_accesses
            if token_indexed != token_scan:
                raise AssertionError("XB-tree and sequential scan disagree on the VT")
        count = float(len(workload))
        rows.append(
            {
                "dataset": config.dataset_label(distribution),
                "n": cardinality,
                "xbtree_accesses": indexed_accesses / count,
                "scan_accesses": scan_accesses / count,
                "xbtree_ms": indexed_accesses / count * config.node_access_ms,
                "scan_ms": scan_accesses / count * config.node_access_ms,
                "speedup": (scan_accesses / indexed_accesses) if indexed_accesses else 0.0,
            }
        )
    return rows


def page_size_ablation(config: Optional[ExperimentConfig] = None,
                       page_sizes: Sequence[int] = (1024, 2048, 4096, 8192),
                       cardinality: Optional[int] = None) -> List[Dict]:
    """Sweep the page size and report the SP cost gap and the TE cost."""
    config = config or ExperimentConfig.quick()
    cardinality = cardinality or max(config.cardinalities)
    rows: List[Dict] = []
    for page_size in page_sizes:
        swept = replace(config, page_size=page_size, label=f"{config.label}-page{page_size}")
        point = measure_point(swept, "uniform", cardinality, use_cache=False)
        reduction = 0.0
        if point.tom_sp_ms:
            reduction = 1.0 - point.sae_sp_ms / point.tom_sp_ms
        rows.append(
            {
                "page_size": page_size,
                "n": cardinality,
                "sae_sp_ms": point.sae_sp_ms,
                "tom_sp_ms": point.tom_sp_ms,
                "sp_reduction": reduction,
                "te_ms": point.te_ms,
                "te_storage_mb": point.te_storage_mb,
            }
        )
    return rows


def digest_scheme_ablation(config: Optional[ExperimentConfig] = None,
                           schemes: Sequence[str] = ("sha1", "sha256"),
                           cardinality: Optional[int] = None) -> List[Dict]:
    """Sweep the digest scheme and report token/VO sizes and client time."""
    config = config or ExperimentConfig.quick()
    cardinality = cardinality or max(config.cardinalities)
    rows: List[Dict] = []
    for scheme_name in schemes:
        swept = replace(config, digest_scheme=scheme_name,
                        label=f"{config.label}-{scheme_name}")
        point = measure_point(swept, "uniform", cardinality, use_cache=False)
        rows.append(
            {
                "scheme": scheme_name,
                "n": cardinality,
                "sae_auth_bytes": point.sae_auth_bytes,
                "tom_auth_bytes": point.tom_auth_bytes,
                "sae_client_ms": point.sae_client_ms,
                "tom_client_ms": point.tom_client_ms,
                "te_storage_mb": point.te_storage_mb,
            }
        )
    return rows
