"""The unified physical-design descriptor every layer consumes.

Before this module the knobs that shape a deployment's physical layout --
shard count, shard cut points, replicas per shard, buffer-pool pages, tree
page size (which fixes the B+/XB/MB fanout through
:class:`~repro.btree.node.NodeLayout`), query batch size, and the memo /
verifier cache capacities -- were scattered across constructor keyword
arguments, CLI flags and hard-coded defaults.  :class:`PhysicalDesign`
gathers them into one frozen, JSON-serialisable value that

* the schemes (:class:`~repro.core.protocol.SaeScheme`,
  :class:`~repro.tom.scheme.TomScheme`) consume via their ``design=``
  parameter, the only way to lay a deployment out;
* the sharding layer consumes through :meth:`PhysicalDesign.router` --
  *explicit* (possibly unbalanced) cut points, where ``None`` keeps the
  historical balanced-from-dataset behaviour;
* the multi-process fleet persists inside its manifest
  (:class:`~repro.network.fleet.FleetManifest`), so ``serve-fleet`` serves
  exactly the design the fleet was built with;
* the CLI loads from a ``design.json`` file (``--design``), with explicit
  flags acting as overrides on top;
* the offline advisor (:mod:`repro.experiments.tuning`, ``repro tune``)
  searches over and emits as its recommendation.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.storage.constants import DEFAULT_PAGE_SIZE

#: Default buffer-pool capacity (pages) per paged component.
DEFAULT_POOL_PAGES = 128

#: Default queries per ``query_many`` call in batched drivers.
DEFAULT_BATCH_SIZE = 25

#: Default capacity of a TOM deployment's record encoding/digest memo (the
#: SAE query path has none: its SP ships stored bytes).
DEFAULT_MEMO_CAPACITY = 65536

#: Default capacity of the cached signature verifier.
DEFAULT_VERIFIER_CACHE = 256

#: Version tag written into every serialised design document.
DESIGN_FORMAT = "repro-design/1"


class DesignError(ValueError):
    """Raised for invalid physical designs or contradictory overrides."""


@dataclass(frozen=True)
class PhysicalDesign:
    """One deployment's complete physical layout, as a single frozen value.

    ``cut_points`` are the router's inclusive upper shard boundaries
    (``shards - 1`` of them, sorted); ``None`` means "derive balanced cuts
    from the dataset at install time", which is the historical behaviour
    and keeps the SP and TE routers deterministic in the dataset alone.
    ``page_size`` fixes the tree fanout: node capacities are derived from
    it through :class:`~repro.btree.node.NodeLayout`.
    """

    shards: int = 1
    cut_points: Optional[Tuple[Any, ...]] = None
    replicas: int = 1
    pool_pages: int = DEFAULT_POOL_PAGES
    page_size: int = DEFAULT_PAGE_SIZE
    batch_size: int = DEFAULT_BATCH_SIZE
    memo_capacity: int = DEFAULT_MEMO_CAPACITY
    verifier_cache: int = DEFAULT_VERIFIER_CACHE

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise DesignError(f"a design needs at least one shard, got {self.shards}")
        if self.replicas < 1:
            raise DesignError(
                f"a design needs at least one replica, got {self.replicas}"
            )
        if self.pool_pages < 1:
            raise DesignError(
                f"pool_pages must be at least 1, got {self.pool_pages}"
            )
        if self.page_size < 256:
            raise DesignError(
                f"page_size must be at least 256 bytes, got {self.page_size}"
            )
        if self.batch_size < 1:
            raise DesignError(
                f"batch_size must be at least 1, got {self.batch_size}"
            )
        if self.memo_capacity < 1:
            raise DesignError(
                f"memo_capacity must be at least 1, got {self.memo_capacity}"
            )
        if self.verifier_cache < 1:
            raise DesignError(
                f"verifier_cache must be at least 1, got {self.verifier_cache}"
            )
        if self.cut_points is not None:
            cuts = tuple(self.cut_points)
            object.__setattr__(self, "cut_points", cuts)
            if len(cuts) != self.shards - 1:
                raise DesignError(
                    f"{self.shards} shard(s) need {self.shards - 1} cut point(s), "
                    f"got {len(cuts)}"
                )
            if list(cuts) != sorted(cuts):
                raise DesignError("cut points must be sorted")

    # ------------------------------------------------------------------ construction
    @classmethod
    def default_for(
        cls, dataset: Any, shards: int = 1, replicas: int = 1
    ) -> "PhysicalDesign":
        """The baseline design for ``dataset``: balanced cuts, stock knobs.

        The cut points are made *explicit* (the balanced quantile cuts
        :meth:`~repro.core.sharding.ShardRouter.from_dataset` would derive),
        so the design round-trips through JSON and the fleet manifest
        without needing the dataset again.
        """
        from repro.core.sharding import ShardRouter

        cuts: Optional[Tuple[Any, ...]] = None
        if shards > 1:
            cuts = tuple(ShardRouter.from_dataset(dataset, shards).boundaries)
        return cls(shards=shards, cut_points=cuts, replicas=replicas)

    def with_overrides(self, **overrides: Any) -> "PhysicalDesign":
        """A copy with the given fields replaced (``None`` values ignored).

        Changing ``shards`` away from the length implied by existing
        explicit ``cut_points`` drops the cuts back to ``None`` (balanced)
        only when the caller overrides ``shards`` *without* supplying
        matching cuts -- silently keeping stale cuts would mis-route.
        """
        effective = {
            key: value for key, value in overrides.items() if value is not None
        }
        unknown = sorted(set(effective) - {f.name for f in dataclasses.fields(self)})
        if unknown:
            raise DesignError(f"unknown design field(s): {', '.join(unknown)}")
        if (
            "shards" in effective
            and "cut_points" not in effective
            and self.cut_points is not None
            and int(effective["shards"]) != self.shards
        ):
            effective["cut_points"] = None
        return dataclasses.replace(self, **effective)

    def shard_local(self) -> "PhysicalDesign":
        """The single-shard, single-replica variant of this design.

        What each child of a multi-process fleet runs: the fleet-level
        sharding/replication is handled by the manifest and the router, so
        the per-child deployment keeps only the per-node knobs.
        """
        return dataclasses.replace(
            self, shards=1, cut_points=None, replicas=1
        )

    # ------------------------------------------------------------------ consumers
    def router(self, dataset: Any = None):
        """The :class:`~repro.core.sharding.ShardRouter` this design implies.

        Explicit cut points build the router directly; otherwise balanced
        cuts are derived from ``dataset`` (required in that case).
        """
        from repro.core.sharding import ShardRouter

        if self.cut_points is not None:
            return ShardRouter(list(self.cut_points), self.shards)
        if self.shards == 1:
            return ShardRouter([], 1)  # unsharded: no cuts to derive
        if dataset is None:
            raise DesignError(
                "this design has no explicit cut points; a dataset is needed "
                "to derive balanced cuts"
            )
        return ShardRouter.from_dataset(dataset, self.shards)

    # ------------------------------------------------------------------ serialisation
    def to_json_dict(self) -> dict:
        """A plain-JSON representation (round-trips via :meth:`from_json_dict`)."""
        return {
            "format": DESIGN_FORMAT,
            "shards": self.shards,
            "cut_points": list(self.cut_points) if self.cut_points is not None else None,
            "replicas": self.replicas,
            "pool_pages": self.pool_pages,
            "page_size": self.page_size,
            "batch_size": self.batch_size,
            "memo_capacity": self.memo_capacity,
            "verifier_cache": self.verifier_cache,
        }

    @classmethod
    def from_json_dict(cls, document: dict) -> "PhysicalDesign":
        """Rebuild a design from :meth:`to_json_dict` output."""
        if not isinstance(document, dict):
            raise DesignError(f"a design document must be an object, got {document!r}")
        tag = document.get("format")
        if tag != DESIGN_FORMAT:
            raise DesignError(
                f"unsupported design format {tag!r} (expected {DESIGN_FORMAT})"
            )
        known = {
            "format", "shards", "cut_points", "replicas", "pool_pages",
            "page_size", "batch_size", "memo_capacity", "verifier_cache",
        }
        unknown = sorted(set(document) - known)
        if unknown:
            raise DesignError(f"unknown design field(s): {', '.join(unknown)}")
        cuts = document.get("cut_points")
        return cls(
            shards=int(document.get("shards", 1)),
            cut_points=tuple(cuts) if cuts is not None else None,
            replicas=int(document.get("replicas", 1)),
            pool_pages=int(document.get("pool_pages", DEFAULT_POOL_PAGES)),
            page_size=int(document.get("page_size", DEFAULT_PAGE_SIZE)),
            batch_size=int(document.get("batch_size", DEFAULT_BATCH_SIZE)),
            memo_capacity=int(document.get("memo_capacity", DEFAULT_MEMO_CAPACITY)),
            verifier_cache=int(document.get("verifier_cache", DEFAULT_VERIFIER_CACHE)),
        )

    def save(self, path: Any) -> None:
        """Write the design as a ``design.json`` document."""
        from pathlib import Path

        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: Any) -> "PhysicalDesign":
        """Load a design written by :meth:`save`.

        Raises :class:`DesignError` for unreadable or malformed documents.
        """
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError as exc:
            raise DesignError(f"cannot read design file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DesignError(f"design file {path} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(document)

    def describe(self) -> str:
        """One-line human summary (CLI banners and tuning reports)."""
        cuts = (
            "balanced"
            if self.cut_points is None
            else f"cuts={list(self.cut_points)}"
        )
        return (
            f"{self.shards} shard(s) ({cuts}) x {self.replicas} replica(s), "
            f"pool {self.pool_pages} pages, page {self.page_size} B, "
            f"batch {self.batch_size}"
        )


def design_from_snapshot_params(params: dict, pool_pages: Optional[int]) -> PhysicalDesign:
    """Rebuild the design a snapshotted deployment was created with.

    Post-design snapshots embed the full design document; older snapshots
    carry only ``shards`` / ``page_size``, which seed an otherwise-default
    design.  ``pool_pages`` (the restore-time serving knob, e.g. ``repro
    serve --pool-pages``) overrides the snapshotted value when given --
    cache sizing is a property of the serving host, not of the data.
    """
    document = params.get("design")
    if document is not None:
        design = PhysicalDesign.from_json_dict(document)
    else:
        design = PhysicalDesign(
            shards=int(params.get("shards", 1)),
            page_size=int(params.get("page_size", DEFAULT_PAGE_SIZE)),
        )
    if pool_pages is not None and pool_pages != design.pool_pages:
        design = design.with_overrides(pool_pages=pool_pages)
    return design
