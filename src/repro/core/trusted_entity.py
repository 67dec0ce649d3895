"""The trusted entity (TE).

The TE stores, for each outsourced record, only the slim tuple
``<id, key, digest>`` and indexes these tuples with the XB-tree.  When a
client wants to verify a result, the TE runs ``GenerateVT`` over the query
range and returns the resulting token -- a single digest, regardless of the
result size -- in two root-to-leaf traversals' worth of node accesses.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.pipeline import CostReceipt, ExecutionContext
from repro.core.sharding import ShardedFleet, SingleShard
from repro.core.tuples import TETuple, digest_record, make_te_tuples
from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch
from repro.crypto.digest import (
    Digest,
    DigestScheme,
    MemoStats,
    RecordMemo,
    default_scheme,
)
from repro.dbms.query import RangeQuery
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter, CostModel
from repro.storage.node_store import NodeStore, PagedNodeStore, PoolStats, StorageConfig
from repro.xbtree import XBTree
from repro.xbtree.node import XBTreeLayout


class TrustedEntityError(RuntimeError):
    """Raised when the TE is used before receiving a dataset."""


def _apportion(total: int, weights: Sequence[int]) -> List[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder rounding: the parts always sum to ``total`` exactly,
    which keeps the scatter-gather receipt invariant (merged = sum of legs)
    intact for the batched TE path's physical pool counters.
    """
    if not weights:
        return []
    weight_sum = sum(weights)
    if weight_sum <= 0:
        parts = [total // len(weights)] * len(weights)
        parts[0] += total - sum(parts)
        return parts
    exact = [total * weight / weight_sum for weight in weights]
    parts = [int(value) for value in exact]
    remainder = total - sum(parts)
    order = sorted(
        range(len(weights)), key=lambda i: exact[i] - parts[i], reverse=True
    )
    for i in order[:remainder]:
        parts[i] += 1
    return parts


class TrustedEntity(SingleShard):
    """The authentication party of SAE.

    ``storage`` selects the XB-tree's storage tier (see
    :class:`~repro.storage.node_store.StorageConfig`); ``component`` names
    the backing file under the config's data directory.
    """

    def __init__(
        self,
        scheme: Optional[DigestScheme] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        use_index: bool = True,
        storage: Optional[StorageConfig] = None,
        component: str = "sae-te",
    ):
        self._scheme = scheme or default_scheme()
        self._counter = AccessCounter()
        self._cost_model = CostModel(counter=self._counter)
        if node_access_ms is not None:
            self._cost_model.node_access_ms = node_access_ms
        self._page_size = page_size
        self._use_index = use_index
        self._storage = storage or StorageConfig()
        self._store: NodeStore = self._storage.node_store(component)
        self._memo = RecordMemo(self._scheme)
        self._xbtree: Optional[XBTree] = None
        self._tuples_by_id: dict = {}
        self._ready = False

    # ------------------------------------------------------------------ meta
    @property
    def scheme(self) -> DigestScheme:
        """Digest scheme used for the stored digests and tokens."""
        return self._scheme

    @property
    def counter(self) -> AccessCounter:
        """Node-access counter of the XB-tree."""
        return self._counter

    @property
    def cost_model(self) -> CostModel:
        """The simulated-I/O cost model."""
        return self._cost_model

    @property
    def xbtree(self) -> Optional[XBTree]:
        """The underlying XB-tree (``None`` before setup or with ``use_index=False``)."""
        return self._xbtree

    @property
    def uses_index(self) -> bool:
        """Whether VT generation uses the XB-tree (vs. a sequential scan of ``T``)."""
        return self._use_index

    @property
    def record_memo(self) -> RecordMemo:
        """The TE's cross-batch memo over record encodings and digests."""
        return self._memo

    @property
    def num_tuples(self) -> int:
        """Number of tuples in the TE's set ``T``."""
        return len(self._tuples_by_id)

    @property
    def tuples(self) -> List[TETuple]:
        """The TE's tuple set ``T`` (a copy, in no particular order)."""
        return list(self._tuples_by_id.values())

    # ------------------------------------------------------------------ data management
    def receive_dataset(self, dataset: Dataset) -> None:
        """Derive the tuple set ``T`` from the dataset and index it."""
        te_tuples = make_te_tuples(dataset, self._scheme, memo=self._memo)
        self._tuples_by_id = {t.record_id: t for t in te_tuples}
        if self._use_index:
            layout = XBTreeLayout(page_size=self._page_size, digest_size=self._scheme.digest_size)
            self._xbtree = XBTree(layout=layout, scheme=self._scheme, counter=self._counter,
                                  store=self._store)
            sorted_triples = sorted(
                ((t.key, t.record_id, t.digest) for t in te_tuples),
                key=lambda triple: (triple[0], str(triple[1])),
            )
            self._xbtree.bulk_load(sorted_triples)
        self._ready = True

    def apply_updates(self, batch: UpdateBatch, dataset_schema=None) -> None:
        """Apply an update batch: recompute digests and maintain the XB-tree.

        The TE derives the new tuples exactly as during setup: it hashes the
        binary representation of each inserted/modified record.  For
        modifications the old tuple is removed first (XOR makes removal as
        cheap as insertion).
        """
        self._require_ready()
        for operation in batch:
            if isinstance(operation, InsertRecord):
                self._insert_record(operation.fields, dataset_schema)
            elif isinstance(operation, DeleteRecord):
                self._delete_record(operation.record_id)
            elif isinstance(operation, ModifyRecord):
                record_id = self._record_id_of(operation.fields, dataset_schema)
                self._delete_record(record_id)
                self._insert_record(operation.fields, dataset_schema)
            else:
                raise TrustedEntityError(f"unknown update operation {operation!r}")

    def _record_id_of(self, fields, dataset_schema) -> Any:
        id_index = dataset_schema.id_index if dataset_schema is not None else 0
        return fields[id_index]

    def _key_of(self, fields, dataset_schema) -> Any:
        key_index = dataset_schema.key_index if dataset_schema is not None else 1
        return fields[key_index]

    def _insert_record(self, fields, dataset_schema) -> None:
        record_id = self._record_id_of(fields, dataset_schema)
        key = self._key_of(fields, dataset_schema)
        digest = digest_record(fields, self._scheme, memo=self._memo)
        self._tuples_by_id[record_id] = TETuple(record_id=record_id, key=key, digest=digest)
        if self._xbtree is not None:
            self._xbtree.insert(key, record_id, digest)

    def _delete_record(self, record_id: Any) -> None:
        te_tuple = self._tuples_by_id.pop(record_id, None)
        if te_tuple is None:
            raise TrustedEntityError(f"the TE has no tuple for record id {record_id!r}")
        if self._xbtree is not None:
            self._xbtree.delete(te_tuple.key, record_id)

    def _require_ready(self) -> None:
        if not self._ready:
            raise TrustedEntityError("the trusted entity has not received a dataset yet")

    # ------------------------------------------------------------------ token generation
    def generate_vt(self, query: RangeQuery, ctx: Optional[ExecutionContext] = None) -> Digest:
        """Produce the verification token ``VT = RS⊕`` for ``query``.

        With the XB-tree this takes ``O(log n)`` node accesses; without it
        (``use_index=False``, used by the ablation benchmark) the TE scans
        ``T`` sequentially and is charged one access per tuple "page".  The
        per-request cost is returned as a :class:`CostReceipt` on ``ctx.te``;
        the method is safe to call concurrently.
        """
        self._require_ready()
        with self._counter.scoped() as tally, self._store.scoped_stats() as pool, \
                self._memo.scoped_stats() as memo:
            started = time.perf_counter()
            if self._xbtree is not None:
                token = self._xbtree.generate_vt(query.low, query.high)
            else:
                token = self._sequential_scan_vt(query)
            cpu_ms = (time.perf_counter() - started) * 1000.0
        receipt = self._make_receipt(tally.node_accesses, cpu_ms, pool, memo)
        if ctx is not None:
            ctx.te = receipt
        return token

    def generate_vt_batch(
        self,
        queries: Sequence[RangeQuery],
        contexts: Optional[Sequence[Optional[ExecutionContext]]] = None,
    ) -> List[Digest]:
        """Produce the tokens for many queries in one shared XB-tree walk.

        The queries are sorted by range inside the walk so overlapping
        requests traverse shared upper-level nodes together; tokens and
        per-query node-access charges are identical to calling
        :meth:`generate_vt` per query.  Measured CPU time is apportioned to
        the receipts proportionally to each query's node accesses.
        """
        self._require_ready()
        if contexts is not None and len(contexts) != len(queries):
            raise ValueError("contexts must be parallel to queries")
        ranges = [(query.low, query.high) for query in queries]
        with self._store.scoped_stats() as pool, self._memo.scoped_stats() as memo:
            started = time.perf_counter()
            if self._xbtree is not None:
                tokens, counts = self._xbtree.generate_vt_batch(ranges)
            else:
                tokens, counts = [], []
                for query in queries:
                    with self._counter.scoped() as tally:
                        tokens.append(self._sequential_scan_vt(query))
                    counts.append(tally.node_accesses)
            cpu_ms = (time.perf_counter() - started) * 1000.0
        total_accesses = sum(counts)
        # One shared walk produced the whole batch's physical pool traffic
        # and memo activity; apportion both to the receipts proportionally
        # to each query's logical accesses (largest-remainder, so the parts
        # sum exactly).
        pool_shares = [
            _apportion(total, counts) for total in
            (pool.hits, pool.misses, pool.evictions)
        ]
        memo_shares = [
            _apportion(total, counts) for total in (memo.hits, memo.misses)
        ]
        for position, count in enumerate(counts):
            share = count / total_accesses if total_accesses else 1.0 / max(1, len(counts))
            receipt = self._make_receipt(
                count,
                cpu_ms * share,
                PoolStats(
                    hits=pool_shares[0][position],
                    misses=pool_shares[1][position],
                    evictions=pool_shares[2][position],
                ),
                MemoStats(
                    hits=memo_shares[0][position],
                    misses=memo_shares[1][position],
                ),
            )
            if contexts is not None and contexts[position] is not None:
                contexts[position].te = receipt
        return tokens

    def _make_receipt(
        self,
        node_accesses: int,
        cpu_ms: float,
        pool: Optional[PoolStats] = None,
        memo: Optional[MemoStats] = None,
    ) -> CostReceipt:
        pool = pool or PoolStats()
        memo = memo or MemoStats()
        return CostReceipt(
            node_accesses=node_accesses,
            cpu_ms=cpu_ms,
            io_cost_ms=self._cost_model.io_cost_ms(node_accesses),
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            pool_evictions=pool.evictions,
            memo_hits=memo.hits,
            memo_misses=memo.misses,
        )

    def _sequential_scan_vt(self, query: RangeQuery) -> Digest:
        token = self._scheme.zero()
        tuple_bytes = 8 + 4 + self._scheme.digest_size
        tuples_per_page = max(1, self._page_size // tuple_bytes)
        for position, te_tuple in enumerate(self._tuples_by_id.values()):
            if position % tuples_per_page == 0:
                self._counter.record_node_access()
            if query.low <= te_tuple.key <= query.high:
                token = token ^ te_tuple.digest
        return token

    # ------------------------------------------------------------------ persistence
    def flush_storage(self) -> None:
        """Flush the paged node store (no-op under memory storage)."""
        self._store.flush()

    def close_storage(self) -> None:
        """Flush and close the paged node store (idempotent)."""
        self._store.close()

    def snapshot_state(self) -> dict:
        """Picklable TE state for deployment snapshots."""
        self._require_ready()
        state: dict = {
            "tuples_by_id": dict(self._tuples_by_id),
            "use_index": self._use_index,
        }
        if self._xbtree is not None:
            state["xbtree"] = self._xbtree.tree_state()
        if isinstance(self._store, PagedNodeStore):
            state["store"] = self._store.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the TE from a snapshot (store files already reopened)."""
        if isinstance(self._store, PagedNodeStore):
            self._store.restore_state(state["store"])
        self._tuples_by_id = dict(state["tuples_by_id"])
        if self._use_index and "xbtree" in state:
            layout = XBTreeLayout(
                page_size=self._page_size, digest_size=self._scheme.digest_size
            )
            self._xbtree = XBTree(layout=layout, scheme=self._scheme,
                                  counter=self._counter, store=self._store)
            self._xbtree.adopt_state(state["xbtree"])
        self._ready = True

    # ------------------------------------------------------------------ reporting
    def pool_stats(self) -> PoolStats:
        """Lifetime buffer-pool stats of the TE's node store."""
        return self._store.stats

    def memo_stats(self) -> MemoStats:
        """Lifetime record-memo stats of the TE (setup + update digesting)."""
        return self._memo.stats

    def storage_bytes(self) -> int:
        """The TE's storage footprint (XB-tree pages + packed L pages)."""
        self._require_ready()
        if self._xbtree is not None:
            return self._xbtree.size_bytes()
        tuple_bytes = 8 + 4 + self._scheme.digest_size
        total = len(self._tuples_by_id) * tuple_bytes
        pages = (total + self._page_size - 1) // self._page_size
        return pages * self._page_size


class ShardedTrustedEntity(ShardedFleet):
    """One :class:`TrustedEntity` slice per shard behind the TE interface.

    Each shard keeps its own XB-tree over the tuples whose keys fall in the
    shard's range.  The shard map is the same
    :class:`~repro.core.sharding.ShardRouter` the sharded SP derives -- both
    parties compute it deterministically from the dataset the DO transmits,
    so no extra coordination round is needed.  Because the verification
    token is an XOR aggregate, the token of a scattered query is the XOR of
    its shard-leg tokens: ``VT = VT_0 ⊕ ... ⊕ VT_k`` equals the XOR of the
    digests of *all* records in the range, exactly as in the single-shard
    deployment.  The fleet has no merged ``generate_vt``: the scheme facade
    asks each overlapping slice (:meth:`shards_for`) for its leg's token.
    """

    not_ready_error = TrustedEntityError
    not_ready_message = "the trusted entity has not received a dataset yet"

    def __init__(
        self,
        num_shards: int,
        scheme: Optional[DigestScheme] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        use_index: bool = True,
        storage: Optional[StorageConfig] = None,
        cut_points=None,
    ):
        self._scheme = scheme or default_scheme()
        self._init_fleet(
            num_shards,
            lambda shard_id: TrustedEntity(
                scheme=self._scheme,
                page_size=page_size,
                node_access_ms=node_access_ms,
                use_index=use_index,
                storage=storage,
                component=f"sae-te{shard_id}",
            ),
            cut_points=cut_points,
        )

    # ------------------------------------------------------------------ meta
    @property
    def scheme(self) -> DigestScheme:
        """Digest scheme shared by every shard slice."""
        return self._scheme

    @property
    def num_tuples(self) -> int:
        """Number of tuples in ``T`` across all slices."""
        return sum(shard.num_tuples for shard in self._shards)

    @property
    def tuples(self) -> List[TETuple]:
        """The union of every slice's tuple set (a copy)."""
        return [t for shard in self._shards for t in shard.tuples]

    # ------------------------------------------------------------------ data management
    def apply_updates(self, batch: UpdateBatch, dataset_schema=None) -> None:
        """Route each operation to the slice owning the record."""
        if not self._map.ready:
            raise TrustedEntityError("the trusted entity has not received a dataset yet")
        for shard, shard_batch in zip(
            self._shards, self._map.route(batch, schema=dataset_schema)
        ):
            if len(shard_batch):
                shard.apply_updates(shard_batch, dataset_schema=dataset_schema)

    # ------------------------------------------------------------------ persistence
    def restore_state(self, state: dict) -> None:
        """Rebuild the fleet from a snapshot (store files already reopened)."""
        self._map.restore_state(state["map"])
        for shard, shard_state in zip(self._shards, state["shards"]):
            shard.restore_state(shard_state)

    # ------------------------------------------------------------------ reporting
    def tuples_per_shard(self) -> List[int]:
        """Tuple counts by slice (balance diagnostics)."""
        return [shard.num_tuples for shard in self._shards]
