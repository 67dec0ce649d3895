"""The SAE service provider.

The SP "only stores the DO's dataset and computes the query results using a
conventional DBMS".  It holds the relation in either the package's own
heap-file/B+-tree engine (the default, which supports the paper's node-access
cost accounting) or in sqlite3 (to demonstrate the unmodified-DBMS claim).
A malicious SP is modelled by attaching an attack from
:mod:`repro.core.attacks`; the attack only corrupts what leaves the SP, never
its stored data, exactly like a cheating provider would.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.attacks import AttackModel, NoAttack
from repro.core.dataset import Dataset
from repro.core.pipeline import CostReceipt, ExecutionContext, ZERO_RECEIPT
from repro.core.sharding import AttackableFleet
from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch
from repro.crypto.encoding import decode_record, encode_record
from repro.dbms.query import RangeQuery
from repro.dbms.sqlite_backend import SQLiteTable
from repro.dbms.table import Table
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter, CostModel
from repro.storage.node_store import NodeStore, PagedNodeStore, StorageConfig


class ProviderError(RuntimeError):
    """Raised when the SP is used before receiving a dataset."""


class ServiceProvider:
    """The query-execution party of SAE (possibly malicious).

    ``storage`` selects the storage tier: under the default in-memory
    config the B+-tree is a plain object graph; under ``mode="paged"`` the
    index routes through a buffer pool (``component`` names the backing
    files under the config's data directory) and the heap file itself goes
    on a durable pager when a data directory is configured.
    """

    def __init__(
        self,
        backend: str = "heap",
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        storage: Optional[StorageConfig] = None,
        component: str = "sae-sp",
    ):
        if backend not in ("heap", "sqlite"):
            raise ValueError(f"unknown backend {backend!r}; expected 'heap' or 'sqlite'")
        self._backend = backend
        self._page_size = page_size
        self._index_fill_factor = index_fill_factor
        self._counter = AccessCounter()
        self._cost_model = CostModel(counter=self._counter)
        if node_access_ms is not None:
            self._cost_model.node_access_ms = node_access_ms
        self._attack: AttackModel = attack or NoAttack()
        self._storage = storage or StorageConfig()
        self._component = component
        self._store: NodeStore = self._storage.node_store(component)
        self._heap_pager = (
            self._storage.heap_pager(component) if backend == "heap" else None
        )
        self._table: Optional[Table] = None
        self._sqlite: Optional[SQLiteTable] = None
        self._dataset_schema = None
        self._epoch_stamp = None

    # ------------------------------------------------------------------ configuration
    @property
    def backend(self) -> str:
        """Either ``"heap"`` or ``"sqlite"``."""
        return self._backend

    @property
    def attack(self) -> AttackModel:
        """The currently configured (mis)behaviour."""
        return self._attack

    @attack.setter
    def attack(self, value: Optional[AttackModel]) -> None:
        self._attack = value or NoAttack()

    @property
    def counter(self) -> AccessCounter:
        """Node-access counter of the heap backend."""
        return self._counter

    @property
    def cost_model(self) -> CostModel:
        """The simulated-I/O cost model (10 ms per node access by default)."""
        return self._cost_model

    @property
    def is_honest(self) -> bool:
        """True when no attack is configured."""
        return isinstance(self._attack, NoAttack)

    @property
    def storage(self) -> StorageConfig:
        """The storage-tier configuration."""
        return self._storage

    @property
    def node_store(self) -> NodeStore:
        """The node store behind the conventional index."""
        return self._store

    # ------------------------------------------------------------------ data management
    def receive_dataset(self, dataset: Dataset) -> None:
        """Store the outsourced relation in the conventional DBMS."""
        self._dataset_schema = dataset.schema
        if self._backend == "heap":
            self._table = Table(
                dataset.schema,
                page_size=self._page_size,
                counter=self._counter,
                index_fill_factor=self._index_fill_factor,
                store=self._store,
                heap_pager=self._heap_pager,
            )
            self._table.bulk_load(dataset.records)
        else:
            sample = dataset.records[0] if dataset.records else None
            self._sqlite = SQLiteTable(dataset.schema, sample_record=sample)
            self._sqlite.bulk_load(dataset.records)

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Apply an update batch forwarded by the data owner."""
        store = self._require_store()
        for operation in batch:
            if isinstance(operation, InsertRecord):
                store.insert(operation.fields)
            elif isinstance(operation, DeleteRecord):
                store.delete(operation.record_id)
            elif isinstance(operation, ModifyRecord):
                store.update(operation.fields)
            else:
                raise ProviderError(f"unknown update operation {operation!r}")

    def receive_epoch_stamp(self, stamp) -> None:
        """Adopt the owner-signed update-epoch stamp for the current state."""
        self._epoch_stamp = stamp

    def current_stamp(self):
        """The epoch stamp returned with answers (attack may override it).

        A stale-replica attack carries the *old* stamp it captured; an SP
        replaying old state would do exactly that, so the attack's stamp
        (duck-typed ``epoch_stamp`` attribute) wins over the stored one.
        """
        override = getattr(self._attack, "epoch_stamp", None)
        return override if override is not None else self._epoch_stamp

    def _require_store(self):
        store = self._table if self._backend == "heap" else self._sqlite
        if store is None:
            raise ProviderError("the service provider has not received a dataset yet")
        return store

    # ------------------------------------------------------------------ queries
    def execute(
        self,
        query: RangeQuery,
        ctx: Optional[ExecutionContext] = None,
        record_cache: Optional[dict] = None,
    ) -> List[bytes]:
        """Answer a range query with the records' canonical bytes.

        The heap backend ships the payloads its heap file stores, never
        decoded here; sqlite, which stores columns, encodes each row once.
        An attack acts on tuples, so a misbehaving SP decodes, corrupts and
        re-encodes what it sends.

        The SP's per-query cost (node accesses of the index traversal, leaf
        scan and record retrieval) is returned as a :class:`CostReceipt` on
        ``ctx.sp``; the method is safe to call from any number of threads
        because the accounting is scoped to the calling request.
        ``record_cache`` (heap backend only) lets a batch of overlapping
        queries fetch each record once -- cache hits are charged the same
        heap access as a real fetch.
        """
        store = self._require_store()
        with self._counter.scoped() as tally, self._store.scoped_stats() as pool:
            started = time.perf_counter()
            if self._backend == "heap":
                payloads = store.range_payloads(query, record_cache=record_cache)
            else:
                payloads = [encode_record(row) for row in store.range_query(query)]
            cpu_ms = (time.perf_counter() - started) * 1000.0
        receipt = CostReceipt(
            node_accesses=tally.node_accesses,
            cpu_ms=cpu_ms,
            io_cost_ms=self._cost_model.io_cost_ms(tally.node_accesses),
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            pool_evictions=pool.evictions,
        )
        if ctx is not None:
            ctx.sp = receipt
        if self.is_honest:
            return payloads
        corrupted = self._attack.apply([decode_record(p) for p in payloads], query)
        return [encode_record(record) for record in corrupted]

    def index_only_accesses(self, query: RangeQuery) -> int:
        """Node accesses of the index traversal and leaf scan alone.

        The record-retrieval step is skipped, which isolates the fanout
        effect the paper's Figure 6 attributes the SP savings to; the data
        file cost is identical for SAE and TOM (same records, same heap
        file) and is reported separately by the experiment harness.
        """
        store = self._require_store()
        with self._counter.scoped() as tally:
            store.range_query(query, fetch_records=False)
        return tally.node_accesses

    # ------------------------------------------------------------------ persistence
    def flush_storage(self) -> None:
        """Flush the paged store and the heap pager (no-op under memory)."""
        self._store.flush()
        if self._table is not None:
            self._table.flush()

    def close_storage(self) -> None:
        """Flush and close the paged store and heap pager (idempotent)."""
        self._store.close()
        if self._heap_pager is not None:
            self._heap_pager.close()

    def snapshot_state(self) -> dict:
        """Picklable SP state for deployment snapshots (heap backend only).

        Raises :class:`ProviderError` for the sqlite backend (sqlite owns
        its own durability story) or before a dataset was received.
        """
        if self._backend != "heap":
            raise ProviderError("snapshots require the heap backend")
        if self._table is None:
            raise ProviderError("the service provider has not received a dataset yet")
        state = {"table": self._table.table_state()}
        if isinstance(self._store, PagedNodeStore):
            state["store"] = self._store.snapshot_state()
        return state

    def restore_state(self, state: dict, schema) -> None:
        """Rebuild the SP from a snapshot (store files already reopened)."""
        if self._backend != "heap":
            raise ProviderError("snapshots require the heap backend")
        if isinstance(self._store, PagedNodeStore):
            self._store.restore_state(state["store"])
        self._dataset_schema = schema
        self._table = Table(
            schema,
            page_size=self._page_size,
            counter=self._counter,
            index_fill_factor=self._index_fill_factor,
            store=self._store,
            heap_pager=self._heap_pager,
        )
        self._table.adopt_state(state["table"])

    # ------------------------------------------------------------------ reporting
    @property
    def num_records(self) -> int:
        """Number of records currently stored."""
        return self._require_store().num_records

    def storage_bytes(self) -> int:
        """Total storage footprint at the SP (dataset + conventional index)."""
        return self._require_store().size_bytes()

    def index_accesses_only(self) -> bool:
        """Whether the backend supports node-access accounting."""
        return self._backend == "heap"

    def pool_stats(self):
        """Lifetime buffer-pool stats of the SP's node store."""
        return self._store.stats


class ShardedServiceProvider(AttackableFleet):
    """A fleet of :class:`ServiceProvider` shards behind one SP interface.

    The relation is range-partitioned on the query attribute by a
    :class:`~repro.core.sharding.ShardRouter` derived deterministically from
    the outsourced dataset; each shard runs its own conventional DBMS (heap
    file + B+-tree, or sqlite table).  ``execute`` scatters a range query to
    the overlapping shards only and gathers the partial results in key
    order; the per-query cost receipt is the *sum* of the shard legs, so the
    paper's accounting is unchanged by the deployment shape.  The scheme
    facade runs every shard's ``execute`` itself, in parallel on its thread
    pool.
    """

    not_ready_error = ProviderError
    not_ready_message = "the service provider has not received a dataset yet"

    def __init__(
        self,
        num_shards: int,
        backend: str = "heap",
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        storage: Optional[StorageConfig] = None,
        component_prefix: str = "sae-sp",
        cut_points=None,
    ):
        self._init_fleet(
            num_shards,
            lambda shard_id: ServiceProvider(
                backend=backend,
                page_size=page_size,
                node_access_ms=node_access_ms,
                attack=None,
                index_fill_factor=index_fill_factor,
                storage=storage,
                component=f"{component_prefix}{shard_id}",
            ),
            cut_points=cut_points,
        )
        self._backend = backend
        if attack is not None:
            self.attack = attack

    # ------------------------------------------------------------------ configuration
    @property
    def backend(self) -> str:
        """Either ``"heap"`` or ``"sqlite"`` (uniform across the fleet)."""
        return self._backend

    # ------------------------------------------------------------------ data management
    def apply_updates(self, batch: UpdateBatch) -> None:
        """Route each operation of an update batch to its owning shard."""
        if not self._map.ready:
            raise ProviderError("the service provider has not received a dataset yet")
        for shard, shard_batch in zip(self._shards, self._map.route(batch)):
            if len(shard_batch):
                shard.apply_updates(shard_batch)

    # ------------------------------------------------------------------ queries
    def shards_for(self, query: RangeQuery) -> List[int]:
        """Ids of the shards whose key ranges overlap ``query``."""
        return self.router.shards_for_range(query.low, query.high)

    def execute(
        self,
        query: RangeQuery,
        ctx: Optional[ExecutionContext] = None,
        record_cache: Optional[dict] = None,
    ) -> List[bytes]:
        """Scatter ``query`` to the overlapping shards and gather in key order.

        This is the sequential fallback used when the caller does not manage
        the legs itself.  ``record_cache``, when given, is a mapping from
        shard id to that shard's private RID cache (physical record ids are
        only unique within a shard's heap file).  The merged receipt on
        ``ctx.sp`` equals the sum of the shard-leg receipts.
        """
        merged: List[bytes] = []
        total = ZERO_RECEIPT
        for shard_id in self.shards_for(query):
            leg_ctx = ExecutionContext(query=query)
            shard_cache = (
                record_cache.setdefault(shard_id, {}) if record_cache is not None else None
            )
            merged.extend(
                self._shards[shard_id].execute(query, leg_ctx, record_cache=shard_cache)
            )
            total = total + (leg_ctx.sp or ZERO_RECEIPT)
        if ctx is not None:
            ctx.sp = total
        return merged

    def index_only_accesses(self, query: RangeQuery) -> int:
        """Summed index-traversal accesses of the overlapping shard legs."""
        return sum(
            self._shards[shard_id].index_only_accesses(query)
            for shard_id in self.shards_for(query)
        )

    # ------------------------------------------------------------------ persistence
    def restore_state(self, state: dict, schema) -> None:
        """Rebuild the fleet from a snapshot (store files already reopened)."""
        self._map.restore_state(state["map"])
        for shard, shard_state in zip(self._shards, state["shards"]):
            shard.restore_state(shard_state, schema)

    # ------------------------------------------------------------------ reporting
    @property
    def num_records(self) -> int:
        """Number of records across the fleet."""
        return sum(shard.num_records for shard in self._shards)

    def records_per_shard(self) -> List[int]:
        """Record counts by shard (balance diagnostics; empty shards show 0)."""
        return [shard.num_records for shard in self._shards]

    def index_accesses_only(self) -> bool:
        """Whether the backend supports node-access accounting."""
        return self._backend == "heap"
