"""A table: heap-file storage plus a B+-tree index on the query attribute.

This is the physical layout the SAE service provider uses: records live in
a slotted-page heap file; a plain B+-tree maps query-attribute values to
record ids; and a hash map from the logical id column to the physical
:class:`~repro.storage.heapfile.RecordId` supports point updates.  No
digests, no signatures -- the SP in SAE is completely authentication-free.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import NodeLayout
from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.node_store import NodeStore
from repro.storage.pager import Pager


class TableError(ValueError):
    """Raised on invalid table operations (duplicate ids, missing records, ...)."""


class Table:
    """A heap-file table with a secondary B+-tree index on the key column.

    ``store`` selects the index's node storage (in-memory by default, a
    paged store under the storage tier); ``heap_pager`` optionally puts the
    heap file itself on a durable pager so the records survive restarts.
    """

    def __init__(
        self,
        schema: TableSchema,
        page_size: int = DEFAULT_PAGE_SIZE,
        counter: Optional[AccessCounter] = None,
        index_fill_factor: float = 1.0,
        store: Optional[NodeStore] = None,
        heap_pager: Optional[Pager] = None,
    ):
        self._schema = schema
        self._codec = schema.codec()
        self._counter = counter or AccessCounter()
        self._heap = HeapFile(
            pager=heap_pager, page_size=page_size, counter=self._counter
        )
        layout = NodeLayout(page_size=page_size)
        self._index = BPlusTree(
            BPlusTreeConfig(layout=layout, fill_factor=index_fill_factor),
            counter=self._counter,
            store=store,
        )
        self._rid_by_id: Dict[Any, RecordId] = {}

    # ------------------------------------------------------------------ meta
    @property
    def schema(self) -> TableSchema:
        """The table schema."""
        return self._schema

    @property
    def counter(self) -> AccessCounter:
        """Shared node-access counter (heap file + index)."""
        return self._counter

    @property
    def index(self) -> BPlusTree:
        """The B+-tree on the query attribute (exposed for cost reporting)."""
        return self._index

    @property
    def heap(self) -> HeapFile:
        """The underlying heap file (exposed for cost/storage reporting)."""
        return self._heap

    @property
    def num_records(self) -> int:
        """Number of live records."""
        return len(self._rid_by_id)

    def size_bytes(self) -> int:
        """Storage footprint: heap-file pages plus index pages."""
        return self._heap.size_bytes() + self._index.size_bytes()

    def __len__(self) -> int:
        return self.num_records

    def table_state(self) -> dict:
        """Picklable table bookkeeping for deployment snapshots.

        Combines the heap-file page directory, the B+-tree's structural
        metadata (its nodes live in the node store), and the logical-id to
        physical-RID map.
        """
        return {
            "heap": self._heap.heap_state(),
            "index": self._index.tree_state(),
            "rid_by_id": dict(self._rid_by_id),
        }

    def adopt_state(self, state: dict) -> None:
        """Re-attach to heap pages and index nodes from a snapshot."""
        self._heap.adopt_state(state["heap"])
        self._index.adopt_state(state["index"])
        self._rid_by_id = dict(state["rid_by_id"])

    def flush(self) -> None:
        """Flush the heap file's pager (the index store is flushed by its owner)."""
        self._heap.flush()

    # ------------------------------------------------------------------ writes
    def insert(self, fields: Sequence[Any]) -> RecordId:
        """Insert one record; the id column must be unique within the table."""
        self._schema.validate_record(fields)
        record_id = fields[self._schema.id_index]
        if record_id in self._rid_by_id:
            raise TableError(f"duplicate record id {record_id!r}")
        payload = self._codec.encode(fields)
        rid = self._heap.insert(payload)
        self._rid_by_id[record_id] = rid
        key = fields[self._schema.key_index]
        self._index.insert(key, rid)
        return rid

    def bulk_load(self, records: Sequence[Sequence[Any]]) -> None:
        """Load many records at once, building the index bottom-up.

        The records may arrive in any order; the index is bulk-loaded from
        the key-sorted sequence, which is how the experiment datasets are
        installed at the SP.
        """
        if self.num_records:
            raise TableError("bulk_load requires an empty table")
        entries: List[Tuple[Any, RecordId]] = []
        for fields in records:
            self._schema.validate_record(fields)
            record_id = fields[self._schema.id_index]
            if record_id in self._rid_by_id:
                raise TableError(f"duplicate record id {record_id!r}")
            rid = self._heap.insert(self._codec.encode(fields))
            self._rid_by_id[record_id] = rid
            entries.append((fields[self._schema.key_index], rid))
        entries.sort(key=lambda pair: pair[0])
        self._index.bulk_load(entries)

    def delete(self, record_id: Any) -> None:
        """Delete the record with logical id ``record_id``."""
        rid = self._rid_by_id.get(record_id)
        if rid is None:
            raise TableError(f"no record with id {record_id!r}")
        fields = self._codec.decode(self._heap.get(rid, charge=False))
        key = fields[self._schema.key_index]
        self._index.delete(key, rid)
        self._heap.delete(rid)
        del self._rid_by_id[record_id]

    def update(self, fields: Sequence[Any]) -> None:
        """Replace the record whose id column matches ``fields``."""
        self._schema.validate_record(fields)
        record_id = fields[self._schema.id_index]
        rid = self._rid_by_id.get(record_id)
        if rid is None:
            raise TableError(f"no record with id {record_id!r}")
        old_fields = self._codec.decode(self._heap.get(rid, charge=False))
        old_key = old_fields[self._schema.key_index]
        new_key = fields[self._schema.key_index]
        new_rid = self._heap.update(rid, self._codec.encode(fields))
        if new_rid != rid or old_key != new_key:
            self._index.delete(old_key, rid)
            self._index.insert(new_key, new_rid)
            self._rid_by_id[record_id] = new_rid

    # ------------------------------------------------------------------ reads
    def get(self, record_id: Any, charge: bool = True) -> Tuple[Any, ...]:
        """Fetch a record by its logical id."""
        return self.get_many((record_id,), charge=charge)[0]

    def get_many(self, record_ids: Sequence[Any], charge: bool = True) -> List[Tuple[Any, ...]]:
        """Fetch records by logical id, in order, through one :meth:`HeapFile.get_many`."""
        decode = self._codec.decode
        return [decode(payload) for payload in self.get_payloads(record_ids, charge)]

    def get_payloads(self, record_ids: Sequence[Any], charge: bool = True) -> List[bytes]:
        """The stored canonical bytes of records by logical id, in order, undecoded.

        One :meth:`HeapFile.get_many` call, charged as :meth:`get_many` is.
        """
        rids = []
        for record_id in record_ids:
            rid = self._rid_by_id.get(record_id)
            if rid is None:
                raise TableError(f"no record with id {record_id!r}")
            rids.append(rid)
        return self._heap.get_many(rids, charge=charge)

    def get_by_rid(self, rid: RecordId, charge: bool = True) -> Tuple[Any, ...]:
        """Fetch a record by its physical record id."""
        return self._codec.decode(self._heap.get(rid, charge=charge))

    def range_payloads(self, query: RangeQuery, charge_heap: bool = True,
                       record_cache: Optional[Dict[RecordId, bytes]] = None
                       ) -> List[bytes]:
        """The stored bytes of every record in the range, in key order.

        These are the canonical encodings :meth:`insert` wrote, handed out
        without a decode -- what the SAE SP ships to the client.

        ``record_cache`` (RID -> payload) lets a batch of overlapping queries
        fetch each record once; a cache hit is still charged one heap access
        so per-query cost accounting is unchanged.  The cache must not
        outlive the batch (updates would make it stale).

        The qualifying records (only the cache misses, when there is a
        cache) are fetched through one :meth:`HeapFile.get_many` call.
        """
        rids = [rid for _, rid in self._index.range_search(query.low, query.high)]
        if record_cache is None:
            return self._heap.get_many(rids, charge=charge_heap)
        missing = [rid for rid in rids if rid not in record_cache]
        record_cache.update(zip(missing, self._heap.get_many(missing, charge=charge_heap)))
        hits = len(rids) - len(missing)
        if charge_heap and hits:
            self._counter.record_node_access(hits)
        return [record_cache[rid] for rid in rids]

    def range_query(self, query: RangeQuery, fetch_records: bool = True,
                    charge_heap: bool = True) -> List[Tuple[Any, ...]]:
        """Answer a range query on the key column.

        With ``fetch_records`` the full records are retrieved from the heap
        file and decoded; otherwise only the index is consulted and
        ``(key, rid)`` pairs are returned.
        """
        if not fetch_records:
            return self._index.range_search(query.low, query.high)
        decode = self._codec.decode
        return [decode(payload) for payload in self.range_payloads(query, charge_heap)]

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Full scan in physical order (no access charges; used by tests)."""
        for _, payload in self._heap.scan(charge=False):
            yield self._codec.decode(payload)

    def record_ids(self) -> Iterator[Any]:
        """Iterate over all logical record ids."""
        return iter(self._rid_by_id)
