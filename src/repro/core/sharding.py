"""Range partitioning of the outsourced relation across SP/TE shards.

The paper's central design decision -- authentication (TE) is separated from
query execution (SP) -- means the execution tier can be scaled *horizontally*
without touching the trust machinery: each shard holds a contiguous key range
of the relation, with its own heap file and B+-tree at the SP and its own
XB-tree slice at the TE.  A range query is scattered to the shards whose key
ranges overlap it, the shard legs execute independently, and the client
gathers the partial results together with one verification token per leg.
Because the token is an XOR aggregate, the merged token of a query is simply
the XOR of its shard-leg tokens, and the per-query cost charges (node
accesses, bytes) are the sums over the legs.

This module holds the pieces shared by both parties:

* :class:`ShardRouter` -- the pure routing function: key -> shard, and
  range -> overlapping shards.  It is built *deterministically* from the
  outsourced dataset (balanced cuts of the sorted key multiset), so the SP
  and the TE derive identical routers independently, with no coordination
  message beyond the dataset transfer they already receive.
* :func:`partition_dataset` -- split a dataset into per-shard sub-datasets
  according to a router.

The sharded parties themselves live next to their single-shard versions:
:class:`~repro.core.provider.ShardedServiceProvider` and
:class:`~repro.core.trusted_entity.ShardedTrustedEntity`.  A single-shard
party mixes in :class:`SingleShard`, so an unsharded deployment answers the
same fleet calls as a fleet of one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch


class ShardingError(ValueError):
    """Raised for invalid shard configurations or routing requests."""


class ShardRouter:
    """Maps keys and key ranges to range-partition shards.

    The router is defined by ``num_shards - 1`` *inclusive upper boundaries*:
    shard ``i`` owns every key ``k`` with ``boundaries[i-1] < k <=
    boundaries[i]`` (the first shard is unbounded below, the last unbounded
    above).  A key that lands exactly on a boundary therefore belongs to the
    shard whose upper bound it is -- the property the boundary-key tests pin
    down.  Boundaries may repeat, in which case the shards between two equal
    boundaries are empty; routing stays total and deterministic.
    """

    def __init__(self, boundaries: Sequence[Any], num_shards: int):
        if num_shards < 1:
            raise ShardingError(f"need at least one shard, got {num_shards}")
        if len(boundaries) != num_shards - 1:
            raise ShardingError(
                f"{num_shards} shards need {num_shards - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        boundary_list = list(boundaries)
        if boundary_list != sorted(boundary_list):
            raise ShardingError("shard boundaries must be sorted")
        self._boundaries = boundary_list
        self._num_shards = num_shards

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_keys(cls, keys: Sequence[Any], num_shards: int) -> "ShardRouter":
        """Build a router with balanced cuts of the sorted key multiset.

        Shard ``i``'s upper boundary is the key at the ``(i+1)/num_shards``
        quantile, so every shard receives roughly ``len(keys)/num_shards``
        records.  Duplicate keys may make neighbouring boundaries equal,
        which simply leaves the shards in between empty.  An empty key set
        degenerates to ``num_shards`` empty shards with identical boundaries.
        """
        if num_shards == 1:
            return cls([], 1)
        ordered = sorted(keys)
        if not ordered:
            return cls([0] * (num_shards - 1), num_shards)
        boundaries = []
        for cut in range(1, num_shards):
            position = (cut * len(ordered)) // num_shards
            boundaries.append(ordered[max(0, position - 1)])
        return cls(boundaries, num_shards)

    @classmethod
    def from_dataset(cls, dataset: Dataset, num_shards: int) -> "ShardRouter":
        """Derive the router from a dataset's query-attribute values.

        Deterministic in the dataset alone: the SP and the TE each call this
        on the dataset they receive from the DO and obtain identical routers.
        """
        return cls.from_keys(dataset.keys(), num_shards)

    # ------------------------------------------------------------------ routing
    @property
    def num_shards(self) -> int:
        """Number of shards this router partitions into."""
        return self._num_shards

    @property
    def boundaries(self) -> List[Any]:
        """The inclusive upper boundaries (one fewer than the shard count)."""
        return list(self._boundaries)

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key`` (boundary keys go to the lower shard)."""
        return bisect.bisect_left(self._boundaries, key)

    def shards_for_range(self, low: Any, high: Any) -> List[int]:
        """Shard ids whose key ranges overlap ``[low, high]``, in key order."""
        first = self.shard_of(low)
        last = self.shard_of(high)
        if last < first:  # degenerate (low > high): route to one shard
            last = first
        return list(range(first, last + 1))

    def describe(self) -> str:
        """Human-readable shard map, e.g. ``0:(-inf..17] 1:(17..+inf)``."""
        if self._num_shards == 1:
            return "0:(-inf..+inf)"
        parts = []
        for shard in range(self._num_shards):
            low = "-inf" if shard == 0 else repr(self._boundaries[shard - 1])
            if shard == self._num_shards - 1:
                parts.append(f"{shard}:({low}..+inf)")
            else:
                parts.append(f"{shard}:({low}..{self._boundaries[shard]!r}]")
        return " ".join(parts)


@dataclass(frozen=True)
class KeySegment:
    """A contiguous key interval with constant (old, new) shard ownership.

    The interval is ``(low, high]``: exclusive below, inclusive above --
    matching the router's inclusive-upper-boundary convention.  ``low is
    None`` means unbounded below (``-inf``), ``high is None`` unbounded
    above (``+inf``).  ``old_shard`` / ``new_shard`` are the owners under
    the two routers being diffed.
    """

    low: Any
    high: Any
    old_shard: int
    new_shard: int

    def contains(self, key: Any) -> bool:
        """Whether ``key`` falls inside this ``(low, high]`` interval."""
        if self.low is not None and not (key > self.low):
            return False
        if self.high is not None and not (key <= self.high):
            return False
        return True

    @property
    def moves(self) -> bool:
        """Whether keys in this segment change owner between the routers."""
        return self.old_shard != self.new_shard

    def describe(self) -> str:
        """Human-readable interval, e.g. ``(17..42]: shard 0 -> 2``."""
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        arrow = (
            f"shard {self.old_shard} -> {self.new_shard}"
            if self.moves
            else f"shard {self.old_shard} (stays)"
        )
        return f"({low}..{high}]: {arrow}"


def boundary_segments(
    old_router: ShardRouter, new_router: ShardRouter
) -> List[KeySegment]:
    """Partition the key domain into segments of constant (old, new) owner.

    The segmentation is the sorted union of both routers' boundaries: no
    boundary of either router falls strictly inside a segment, so every key
    in a segment ``(low, high]`` has the same owner under each router as the
    segment's upper endpoint does (the final segment is open above and owned
    by each router's last shard).  Together the segments cover the whole key
    domain exactly once -- the property the migration plan's "every key
    moves exactly once" guarantee rests on.
    """
    points = sorted(set(old_router.boundaries) | set(new_router.boundaries))
    segments: List[KeySegment] = []
    previous: Optional[Any] = None
    for upper in points:
        segments.append(
            KeySegment(
                low=previous,
                high=upper,
                old_shard=old_router.shard_of(upper),
                new_shard=new_router.shard_of(upper),
            )
        )
        previous = upper
    segments.append(
        KeySegment(
            low=previous,
            high=None,
            old_shard=old_router.num_shards - 1,
            new_shard=new_router.num_shards - 1,
        )
    )
    return segments


def route_update_batch(
    batch: UpdateBatch,
    router: ShardRouter,
    shard_by_id: Dict[Any, int],
    key_index: int,
    id_index: int,
) -> List[UpdateBatch]:
    """Split an update batch into one ordered sub-batch per owning shard.

    ``shard_by_id`` (record id -> shard) is the caller's ownership map; it is
    updated in place so that later operations in the same batch observe
    earlier ones.  A modification whose new key falls into a different shard
    is rewritten as a delete on the old shard plus an insert on the new one
    -- the only cross-shard case range partitioning creates.
    """
    per_shard = [UpdateBatch() for _ in range(router.num_shards)]
    for operation in batch:
        if isinstance(operation, InsertRecord):
            shard = router.shard_of(operation.fields[key_index])
            per_shard[shard].add(operation)
            shard_by_id[operation.fields[id_index]] = shard
        elif isinstance(operation, DeleteRecord):
            shard = shard_by_id.pop(operation.record_id, None)
            if shard is None:
                raise ShardingError(
                    f"no shard owns record id {operation.record_id!r}"
                )
            per_shard[shard].add(operation)
        elif isinstance(operation, ModifyRecord):
            record_id = operation.fields[id_index]
            old_shard = shard_by_id.get(record_id)
            if old_shard is None:
                raise ShardingError(f"no shard owns record id {record_id!r}")
            new_shard = router.shard_of(operation.fields[key_index])
            if new_shard == old_shard:
                per_shard[old_shard].add(operation)
            else:
                per_shard[old_shard].add(DeleteRecord(record_id=record_id))
                per_shard[new_shard].add(InsertRecord(fields=operation.fields))
                shard_by_id[record_id] = new_shard
        else:
            raise ShardingError(f"unknown update operation {operation!r}")
    return per_shard


def partition_dataset(dataset: Dataset, router: ShardRouter) -> List[Dataset]:
    """Split ``dataset`` into one sub-dataset per shard, preserving the schema.

    Record order within a shard follows the input dataset; shards that own no
    keys come back empty (still valid datasets over the same schema).
    """
    buckets: List[List[Any]] = [[] for _ in range(router.num_shards)]
    key_index = dataset.schema.key_index
    for record in dataset.records:
        buckets[router.shard_of(record[key_index])].append(record)
    return [
        Dataset(
            schema=dataset.schema,
            records=bucket,
            name=f"{dataset.name}/shard{shard}",
        )
        for shard, bucket in enumerate(buckets)
    ]


class ShardMap:
    """The shard-local bookkeeping both sharded parties share.

    Owns the router, the record-ownership map and the dataset schema, and
    provides the two dataset-shaped operations every sharded party performs:
    splitting the outsourced relation into per-shard slices
    (:meth:`install`) and routing an update batch to the owning shards
    (:meth:`route`).  Keeping this in one place guarantees the SP and the TE
    can never drift apart in how they assign records to shards.
    """

    def __init__(self, num_shards: int, cut_points: Optional[Sequence[Any]] = None):
        if num_shards < 1:
            raise ShardingError(f"need at least one shard, got {num_shards}")
        if cut_points is not None:
            # Validate eagerly (length, sortedness) -- a bad cut list must
            # fail at construction, not at install time.
            ShardRouter(list(cut_points), num_shards)
        self.num_shards = num_shards
        self.cut_points = tuple(cut_points) if cut_points is not None else None
        self.router: Optional[ShardRouter] = None
        self.shard_by_id: Dict[Any, int] = {}
        self.schema = None

    @property
    def ready(self) -> bool:
        """Whether a dataset has been installed."""
        return self.router is not None

    def install(self, dataset: Dataset) -> List[Dataset]:
        """Install the router and return ``dataset``'s shard slices.

        Explicit cut points (a tuned design) win; otherwise balanced cuts
        are derived from the dataset, as always.
        """
        self.schema = dataset.schema
        if self.cut_points is not None:
            self.router = ShardRouter(list(self.cut_points), self.num_shards)
        else:
            self.router = ShardRouter.from_dataset(dataset, self.num_shards)
        key_index = dataset.schema.key_index
        id_index = dataset.schema.id_index
        self.shard_by_id = {
            record[id_index]: self.router.shard_of(record[key_index])
            for record in dataset.records
        }
        return partition_dataset(dataset, self.router)

    def route(self, batch: UpdateBatch, schema=None) -> List[UpdateBatch]:
        """Split ``batch`` into per-shard sub-batches (ownership map updated)."""
        effective = schema or self.schema
        return route_update_batch(
            batch,
            self.require_router(),
            self.shard_by_id,
            key_index=effective.key_index if effective is not None else 1,
            id_index=effective.id_index if effective is not None else 0,
        )

    def shards_for(self, low: Any, high: Any) -> List[int]:
        """Shard ids overlapping ``[low, high]``."""
        return self.require_router().shards_for_range(low, high)

    def require_router(self) -> ShardRouter:
        """The router, or :class:`ShardingError` before :meth:`install`."""
        if self.router is None:
            raise ShardingError("no dataset has been installed yet")
        return self.router

    def snapshot_state(self) -> dict:
        """Picklable router/ownership bookkeeping for deployment snapshots."""
        return {
            "num_shards": self.num_shards,
            "boundaries": self.router.boundaries if self.router is not None else None,
            "shard_by_id": dict(self.shard_by_id),
            "schema": self.schema,
        }

    def restore_state(self, state: dict) -> None:
        """Re-install bookkeeping captured by :meth:`snapshot_state`."""
        if int(state["num_shards"]) != self.num_shards:
            raise ShardingError(
                f"snapshot was taken with {state['num_shards']} shards, "
                f"this deployment has {self.num_shards}"
            )
        boundaries = state["boundaries"]
        self.router = (
            ShardRouter(boundaries, self.num_shards) if boundaries is not None else None
        )
        self.shard_by_id = dict(state["shard_by_id"])
        self.schema = state["schema"]


class SingleShard:
    """The fleet surface of a party that is its deployment's only shard.

    An unsharded deployment is the one-shard case of the scatter path: the
    scheme asks a party for ``num_shards``, ``shard(shard_id)`` and
    ``shards_for(query)`` exactly as it asks a :class:`ShardedFleet`, and a
    lone party answers as shard 0 of a fleet of one.
    """

    num_shards = 1

    def shard(self, shard_id: int) -> "SingleShard":
        """The party itself, which is shard 0."""
        if shard_id != 0:
            raise ShardingError(f"an unsharded party has no shard {shard_id}")
        return self

    def shards_for(self, query: Any) -> List[int]:
        """Every query lands on shard 0."""
        return [0]


class ShardedFleet:
    """Shared plumbing of a fleet of single-shard parties behind one facade.

    Every sharded party -- SAE's SP and TE fleets, TOM's SP fleet -- owns a
    :class:`ShardMap` plus one single-shard party per shard and exposes the
    same surface over them (shard lookup, router access, dataset
    partitioning, storage roll-up).  Keeping that surface here means the
    fleets cannot drift apart; subclasses call :meth:`_init_fleet` from
    their constructor and add only their party-specific operations.
    """

    #: Exception type raised when the fleet is used before a dataset arrives.
    not_ready_error: type = ShardingError
    #: Message of that exception (matches the single-shard party's wording).
    not_ready_message: str = "no dataset has been received yet"

    def _init_fleet(
        self,
        num_shards: int,
        shard_factory: Callable[[int], Any],
        cut_points: Optional[Sequence[Any]] = None,
    ) -> None:
        """Create the shard map and one single-shard party per shard.

        ``shard_factory`` receives the shard id, so per-shard resources
        (e.g. the paged storage tier's backing files) get distinct names.
        ``cut_points`` pins explicit shard boundaries (``None`` = balanced).
        """
        self._map = ShardMap(num_shards, cut_points=cut_points)
        self._shards = [shard_factory(shard_id) for shard_id in range(num_shards)]

    @property
    def num_shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self._shards)

    def shard(self, shard_id: int) -> Any:
        """The underlying single-shard party with id ``shard_id``."""
        return self._shards[shard_id]

    @property
    def router(self) -> ShardRouter:
        """The key router (available once a dataset was received)."""
        if not self._map.ready:
            raise self.not_ready_error(self.not_ready_message)
        return self._map.require_router()

    def shards_for(self, query: Any) -> List[int]:
        """Ids of the shards whose key ranges overlap ``query``."""
        return self.router.shards_for_range(query.low, query.high)

    def receive_dataset(self, dataset: Dataset) -> None:
        """Partition the relation and load every shard's party."""
        for shard, sub_dataset in zip(self._shards, self._map.install(dataset)):
            shard.receive_dataset(sub_dataset)

    def storage_bytes(self) -> int:
        """Total storage footprint across the fleet."""
        return sum(shard.storage_bytes() for shard in self._shards)

    # ------------------------------------------------------------------ persistence
    def flush_storage(self) -> None:
        """Flush every shard's paged store(s) (no-op under memory storage)."""
        for shard in self._shards:
            shard.flush_storage()

    def close_storage(self) -> None:
        """Flush and close every shard's paged store(s) (idempotent)."""
        for shard in self._shards:
            shard.close_storage()

    def snapshot_state(self) -> dict:
        """Picklable fleet state: per-shard party states plus the shard map.

        The matching ``restore_state`` lives on each concrete fleet -- its
        signature differs per party (the SP needs the schema, TOM's SP the
        dataset slices, the TE nothing).
        """
        return {
            "shards": [shard.snapshot_state() for shard in self._shards],
            "map": self._map.snapshot_state(),
        }


class AttackableFleet(ShardedFleet):
    """A fleet whose shards may individually misbehave (service providers)."""

    def receive_epoch_stamp(self, stamp) -> None:
        """Broadcast the owner's signed update-epoch stamp to every shard."""
        for shard in self._shards:
            shard.receive_epoch_stamp(stamp)

    def current_epoch_stamp(self):
        """The stamp shard 0 would answer with (fleet-wide diagnostics)."""
        return self._shards[0].current_stamp()

    @property
    def attack(self):
        """The fleet-wide attack (of shard 0; shards may diverge via
        :meth:`set_shard_attack`)."""
        return self._shards[0].attack

    @attack.setter
    def attack(self, value) -> None:
        for shard in self._shards:
            shard.attack = value

    def set_shard_attack(self, shard_id: int, value) -> None:
        """Corrupt a single shard (the others keep their behaviour)."""
        self._shards[shard_id].attack = value

    @property
    def is_honest(self) -> bool:
        """True when no shard misbehaves."""
        return all(shard.is_honest for shard in self._shards)
