"""Pluggable node storage for the tree indexes.

Every index in the reproduction (the SP's B+-tree / MB-tree and the TE's
XB-tree) keeps its nodes behind a :class:`NodeStore`.  A store maps opaque
*node references* to node objects; the trees hold references in their child
and sibling pointers and materialise nodes through :meth:`NodeStore.load`.
Two implementations exist:

* :class:`MemoryNodeStore` -- the default.  A reference *is* the node
  object itself: ``load`` is the identity function, nothing is serialised,
  and the trees behave exactly like ordinary in-memory object graphs.
* :class:`PagedNodeStore` -- nodes are serialised (through the compact
  per-node-type codec of :mod:`repro.storage.node_codec`, which pickles
  nothing; version-1 and pre-codec pickle pages still migrate on read) into
  fixed-size page chains
  through a :class:`~repro.storage.buffer_pool.BufferPool` over a
  :class:`~repro.storage.pager.Pager` (a
  :class:`~repro.storage.pager.FileBackedPager` when a data directory is
  configured).  Only the pages the pool caches stay in memory, so a
  deployment can serve a tree much larger than its pool.

The paged store enforces the textbook **pin-while-traversing** discipline:
every tree operation opens an *operation scope* (:meth:`NodeStore.read_op`
or :meth:`NodeStore.write_op`); every page fetched inside the scope is
pinned (``fetch(pin=True)``), so the traversal's root-to-leaf path cannot be
evicted under it, and all pins are released when the scope closes.  The
scope also acts as an identity map -- loading the same reference twice
inside one operation returns the same object -- which is what lets the tree
code mutate nodes in place exactly as it does in memory mode.

Between scopes the paged store keeps **one decoded object per node resident
beside its pooled pages** (an LRU of at most ``pool_pages`` entries -- a
node occupies at least one page, so the map cannot outgrow what the pool
already promises).  A scoped load still fetches every page of the chain --
same pins, same hit/miss/eviction tallies, same LRU touches, because those
counters *are* the cost model -- and then hands back the resident object
instead of joining and decoding the bytes iff no page of the chain missed
the pool on this load; a miss costs an I/O *and* a decode and replaces the
entry.  The map can never serve an object that differs from the stored
bytes: a write scope that commits installs the objects it wrote (and drops
the refs it freed); a scope that fails while mutating -- a read scope
escalated by a nested ``write_op`` included -- drops every ref it loaded,
registered or freed; scope-less loads (the ``items()`` walks, which use the
object outside the store lock) neither read nor fill it; ``restore_state``
and ``close`` clear it.

Thread-safety: :class:`MemoryNodeStore` adds no synchronisation (the trees
over it are guarded by the schemes' read/write lock, exactly as before).
:class:`PagedNodeStore` serialises operation scopes with a store-wide
re-entrant lock: concurrent queries are safe but take turns traversing,
which models the single disk arm the paper's cost model charges for.

Failure modes: loading an unknown reference, registering or freeing a node
outside a write scope, and restoring mismatched snapshot state all raise
:class:`NodeStoreError`.  If a write scope fails mid-operation -- or any
node fails to serialise at commit time -- nothing is written back: the
store keeps the pre-operation bytes (dirty in-scope objects are
discarded), so an update batch that raises cannot tear a tree.  The one
remaining tear window is the page-write phase itself (e.g. the pager's
disk filling up mid-commit), the same exposure any single-file page store
without a write-ahead log has.

Two deliberate simplicity-over-throughput tradeoffs: a write scope
re-serialises *every* node it loaded (not just the mutated ones -- no
dirty-bit bookkeeping in the trees to get wrong) but dirties only the pages
whose bytes actually changed: each page image is compared with the bytes
the (pinned, just-fetched) page already holds and written only when they
differ.  The trees keep what an update loads to its own path -- a B+-tree
delete refreshes only the separators beside the child it rebalanced -- so
a one-record modify of a 20 000-record SAE deployment encodes about 14
nodes (both trees) and writes the few pages that changed; and durability is
**checkpoint-based**: the
page files are authoritative only together with the snapshot state taken
by ``snapshot()`` (the schemes take one automatically on a clean
``close()``).  A process that dies mid-serving may leave the page files
*ahead* of the last checkpoint (evictions flush dirty pages in place), in
which case a restore either refuses outright (dangling references raise
:class:`NodeStoreError`) or the schemes' verification layer rejects the
inconsistent data -- fail-safe, but the updates since the checkpoint need
replaying from the owner.  A WAL would close this window; out of scope
here.
"""

from __future__ import annotations

import pickle
import struct
import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.node_codec import (
    CODEC_MAGIC,
    PICKLE_MAGIC,
    NodeCodecError,
    decode_node,
    encode_node,
)
from repro.storage.page import PageId
from repro.storage.pager import FileBackedPager, InMemoryPager, Pager


class NodeStoreError(ValueError):
    """Raised on invalid node-store operations (bad refs, misuse of scopes)."""


@dataclass
class PoolStats:
    """Buffer-pool activity observed by one request (or since startup).

    ``hits``/``misses`` count page fetches served from / past the pool;
    ``evictions`` counts pages the pool pushed out to stay within capacity.
    A memory store reports all-zero stats -- there is no pool to hit.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def __add__(self, other: "PoolStats") -> "PoolStats":
        if not isinstance(other, PoolStats):
            return NotImplemented
        return PoolStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class NodeStore:
    """Interface of a node store (see the module docstring for semantics).

    The trees only use this surface; everything else on the concrete
    classes (snapshot state, pool access) is deployment plumbing.
    """

    #: ``"memory"`` or ``"paged"``; mirrors the scheme-level ``storage=`` flag.
    kind: str = ""

    def register(self, node: Any) -> Any:
        """Add a new node; returns its reference.  Write scopes only."""
        raise NotImplementedError

    def load(self, ref: Any) -> Any:
        """Materialise the node behind ``ref``.

        Inside an operation scope, repeated loads of the same reference
        return the same object and keep its pages pinned.  Outside a scope
        the load is unpinned and always decodes a private object (read-only
        walks such as ``items()`` use this form).
        """
        raise NotImplementedError

    def free(self, ref: Any) -> None:
        """Release a node (after a merge).  Write scopes only."""
        raise NotImplementedError

    def read_op(self):
        """Scope for a read-only traversal (pins the path, no write-back)."""
        raise NotImplementedError

    def write_op(self):
        """Scope for a mutating operation (pins the path, writes back on
        success, discards in-scope objects on failure)."""
        raise NotImplementedError

    @contextmanager
    def scoped_stats(self) -> Iterator[PoolStats]:
        """Tally the pool activity of the calling thread inside the block."""
        yield PoolStats()

    def flush(self) -> None:
        """Force every dirty page down to the pager (no-op in memory)."""

    def close(self) -> None:
        """Release underlying resources (no-op in memory)."""


class MemoryNodeStore(NodeStore):
    """The default store: references are the node objects themselves.

    Stateless and therefore trivially thread-safe; all methods are no-ops
    or identities, so trees over it behave exactly like plain in-memory
    object graphs (this is the pre-storage-tier behaviour, preserved
    bit-for-bit).
    """

    kind = "memory"

    _NULL = nullcontext()

    def register(self, node: Any) -> Any:
        return node

    @staticmethod
    def load(ref: Any) -> Any:
        return ref

    def free(self, ref: Any) -> None:
        return None

    def read_op(self):
        return self._NULL

    def write_op(self):
        return self._NULL

    @property
    def stats(self) -> PoolStats:
        """Lifetime pool stats (always zero: there is no pool)."""
        return PoolStats()


#: Shared default store -- stateless, so one instance serves every tree.
MEMORY_NODE_STORE = MemoryNodeStore()


class _OpContext:
    """Per-thread state of one open operation scope."""

    __slots__ = ("depth", "mutating", "nodes", "registered", "freed", "pins")

    def __init__(self, mutating: bool):
        self.depth = 1
        self.mutating = mutating
        self.nodes: Dict[int, Any] = {}
        self.registered: set = set()
        self.freed: set = set()
        self.pins: Dict[int, int] = {}


#: Per-page header of a node chain: payload bytes used in this page.
_CHUNK_HEADER = struct.Struct(">I")


class PagedNodeStore(NodeStore):
    """Nodes serialised into page chains behind a :class:`BufferPool`.

    A node reference is an integer; the store keeps the mapping from
    reference to the list of page ids holding the node's serialised bytes (a
    node larger than one page simply spans a chain).  All page traffic goes
    through the pool, so ``pool_pages`` bounds resident memory -- page bytes
    and, one per node and never more than ``pool_pages`` of them, the decoded
    nodes kept beside them (see the module docstring) -- and the
    hit/miss/eviction counters quantify the physical-vs-logical access gap
    the paper's I/O model talks about.

    Thread-safety: a store-wide :class:`threading.RLock` is held for the
    whole duration of every operation scope (and briefly for scope-less
    loads), so concurrent tree operations serialise; the lock is re-entrant,
    so a tree operation may nest another on the same store (the TOM provider
    keeps its B+-tree and MB-tree in one store).

    Failure modes: see the module docstring; additionally the constructor
    raises :class:`~repro.storage.page.PageError` for an unusable backing
    file and :class:`NodeStoreError` for a non-positive pool size.
    """

    kind = "paged"

    def __init__(
        self,
        path: Optional[str] = None,
        pager: Optional[Pager] = None,
        pool_pages: int = 128,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        if pool_pages < 1:
            raise NodeStoreError(f"pool_pages must be at least 1, got {pool_pages}")
        if pager is None:
            pager = (
                FileBackedPager(path, page_size=page_size)
                if path is not None
                else InMemoryPager(page_size=page_size)
            )
        self._pool = BufferPool(pager, capacity=pool_pages)
        self._payload_per_page = pager.page_size - _CHUNK_HEADER.size
        self._chains: Dict[int, List[int]] = {}
        # ref -> decoded node, LRU, at most ``pool_pages`` entries; served
        # only to scoped loads whose whole chain hit the pool.
        self._resident: "OrderedDict[int, Any]" = OrderedDict()
        self._next_ref = 0
        self._lock = threading.RLock()
        self._local = threading.local()

    # ------------------------------------------------------------------ meta
    @property
    def pool(self) -> BufferPool:
        """The underlying buffer pool (stats live here)."""
        return self._pool

    @property
    def num_nodes(self) -> int:
        """Number of live nodes in the store."""
        return len(self._chains)

    def node_refs(self) -> List[int]:
        """The references of every live node, in allocation order.

        Used by the profiling harness to enumerate real paged nodes (with
        integer child references) for the codec-vs-pickle comparison.
        """
        with self._lock:
            return sorted(self._chains)

    @property
    def stats(self) -> PoolStats:
        """Lifetime pool stats of this store."""
        return PoolStats(
            hits=self._pool.hits,
            misses=self._pool.misses,
            evictions=self._pool.evictions,
        )

    def size_bytes(self) -> int:
        """Bytes of backing storage currently allocated."""
        return self._pool.pager.total_bytes()

    # ------------------------------------------------------------------ scopes
    def _ctx(self) -> Optional[_OpContext]:
        return getattr(self._local, "ctx", None)

    def _tallies(self) -> List[PoolStats]:
        stack = getattr(self._local, "tallies", None)
        if stack is None:
            stack = []
            self._local.tallies = stack
        return stack

    def _record(self, hit: bool, evicted: int) -> None:
        for tally in self._tallies():
            if hit:
                tally.hits += 1
            else:
                tally.misses += 1
            tally.evictions += evicted

    @contextmanager
    def scoped_stats(self) -> Iterator[PoolStats]:
        tally = PoolStats()
        stack = self._tallies()
        stack.append(tally)
        try:
            yield tally
        finally:
            stack.pop()

    @contextmanager
    def _op(self, mutating: bool) -> Iterator[None]:
        ctx = self._ctx()
        if ctx is not None:
            # Nested scope on the same thread: join the outer operation (a
            # nested write escalates it so the write-back still happens).
            ctx.depth += 1
            ctx.mutating = ctx.mutating or mutating
            try:
                yield
            finally:
                ctx.depth -= 1
            return
        self._lock.acquire()
        ctx = _OpContext(mutating)
        self._local.ctx = ctx
        try:
            try:
                yield
                if ctx.mutating:
                    self._commit(ctx)
            except BaseException:
                # Failed operation (or a node that would not serialise at
                # commit time): discard in-scope objects so the store keeps
                # its pre-operation bytes; references registered by the
                # failed operation were never written -- drop them.
                for ref in ctx.registered:
                    self._chains.pop(ref, None)
                if ctx.mutating:
                    # Anything the operation touched may have been mutated
                    # in place: never serve it to a later scope.
                    for ref in (*ctx.nodes, *ctx.freed):
                        self._resident.pop(ref, None)
                raise
        finally:
            for page_id, count in ctx.pins.items():
                for _ in range(count):
                    self._pool.unpin(PageId(page_id))
            self._local.ctx = None
            self._lock.release()

    def read_op(self):
        return self._op(mutating=False)

    def write_op(self):
        return self._op(mutating=True)

    def _commit(self, ctx: _OpContext) -> None:
        """Write back every in-scope node; release freed nodes' pages.

        Every node is serialised *before* any page is touched, so a node
        that will not serialise (the codec of :mod:`repro.storage.node_codec`
        refuses a node it has no layout for) aborts the commit with the
        store's bytes untouched (the scope handler then rolls the
        registrations back).  The written objects become the resident ones
        of their refs.
        """
        payloads = {ref: encode_node(node) for ref, node in ctx.nodes.items()}
        for ref, data in payloads.items():
            self._write_node(ctx, ref, data)
            self._keep(ref, ctx.nodes[ref])
        for ref in ctx.freed:
            self._resident.pop(ref, None)
            for page_id in self._chains.pop(ref, ()):  # registered-and-freed
                self._release_page(ctx, page_id)

    def _keep(self, ref: int, node: Any) -> None:
        """Make ``node`` the resident object of ``ref`` (LRU, pool-sized)."""
        resident = self._resident
        resident[ref] = node
        resident.move_to_end(ref)
        while len(resident) > self._pool.capacity:
            resident.popitem(last=False)

    def _release_page(self, ctx: _OpContext, page_id: int) -> None:
        pinned = ctx.pins.pop(page_id, 0)
        for _ in range(pinned):
            self._pool.unpin(PageId(page_id))
        self._pool.free(PageId(page_id))

    # ------------------------------------------------------------------ node IO
    def register(self, node: Any) -> int:
        ctx = self._ctx()
        if ctx is None or not ctx.mutating:
            raise NodeStoreError("register() requires an open write_op() scope")
        ref = self._next_ref
        self._next_ref += 1
        self._chains[ref] = []
        ctx.nodes[ref] = node
        ctx.registered.add(ref)
        return ref

    def load(self, ref: Any) -> Any:
        ctx = self._ctx()
        if ctx is not None:
            node = ctx.nodes.get(ref)
            if node is not None:
                return node
            node = self._read_node(ref, ctx)
            ctx.nodes[ref] = node
            return node
        with self._lock:
            return self._read_node(ref, None)

    def free(self, ref: Any) -> None:
        ctx = self._ctx()
        if ctx is None or not ctx.mutating:
            raise NodeStoreError("free() requires an open write_op() scope")
        if ref not in self._chains:
            raise NodeStoreError(f"unknown node reference {ref!r}")
        ctx.nodes.pop(ref, None)
        ctx.freed.add(ref)

    def _fetch(self, page_id: int, ctx: Optional[_OpContext]):
        before = self._pool.evictions
        hit = PageId(page_id) in self._pool
        page = self._pool.fetch(PageId(page_id), pin=ctx is not None)
        if ctx is not None:
            ctx.pins[page_id] = ctx.pins.get(page_id, 0) + 1
        self._record(hit, self._pool.evictions - before)
        return page

    def _read_node(self, ref: Any, ctx: Optional[_OpContext]) -> Any:
        try:
            page_ids = self._chains[ref]
        except (KeyError, TypeError):
            raise NodeStoreError(f"unknown node reference {ref!r}") from None
        if not page_ids:
            raise NodeStoreError(f"node reference {ref!r} has never been written")
        # Every page is fetched (pinned, tallied, LRU-touched) whether or not
        # the decoded node is resident: the pool counters are the cost model.
        misses = self._pool.misses
        pages = [self._fetch(page_id, ctx) for page_id in page_ids]
        if ctx is not None and self._pool.misses == misses and ref in self._resident:
            self._resident.move_to_end(ref)
            return self._resident[ref]
        parts: List[bytes] = []
        for page in pages:
            (used,) = _CHUNK_HEADER.unpack(page.read(0, _CHUNK_HEADER.size))
            parts.append(page.read(_CHUNK_HEADER.size, used))
        data = b"".join(parts)
        leading = data[0] if data else None
        if leading == CODEC_MAGIC:
            try:
                node = decode_node(data)
            except NodeCodecError as exc:
                raise NodeStoreError(f"cannot decode node {ref!r}: {exc}") from exc
        elif leading == PICKLE_MAGIC:
            # A page chain written by a pre-codec build: migrate through
            # pickle (the next write-back re-encodes it compactly).
            node = pickle.loads(data)
        else:
            raise NodeStoreError(
                f"node {ref!r} has an unknown page format "
                f"(leading byte {'0x%02x' % leading if leading is not None else 'none'}); "
                f"the snapshot was written by an incompatible version"
            )
        if ctx is not None:
            self._keep(ref, node)
        return node

    def _write_node(self, ctx: _OpContext, ref: int, data: bytes) -> None:
        step = self._payload_per_page
        chunks = [data[i:i + step] for i in range(0, len(data), step)] or [b""]
        chain = self._chains[ref]
        stored = len(chain)  # pages that may already hold these bytes (0 for a new node)
        while len(chain) < len(chunks):
            before = self._pool.evictions
            page = self._pool.allocate()
            self._record(False, self._pool.evictions - before)
            page_id = int(page.page_id)
            self._pool.pin(page.page_id)
            ctx.pins[page_id] = ctx.pins.get(page_id, 0) + 1
            chain.append(page_id)
        while len(chain) > len(chunks):
            self._release_page(ctx, chain.pop())
        for index, (page_id, chunk) in enumerate(zip(chain, chunks)):
            page = self._fetch(page_id, ctx)
            image = _CHUNK_HEADER.pack(len(chunk)) + chunk
            if index >= stored or page.read(0, len(image)) != image:
                page.write(image, 0)

    # ------------------------------------------------------------------ persistence
    def flush(self) -> None:
        """Write every dirty pooled page through to the pager and sync it."""
        with self._lock:
            self._pool.flush_all()
            pager = self._pool.pager
            if hasattr(pager, "flush"):
                pager.flush()

    def close(self) -> None:
        """Flush and close the backing pager."""
        with self._lock:
            self._resident.clear()
            self._pool.flush_all()
            self._pool.pager.close()

    def snapshot_state(self) -> dict:
        """Picklable bookkeeping needed to reopen this store's pager file.

        The page *contents* live in the pager file itself; this captures the
        reference-to-page-chain map and the allocator state.  Call
        :meth:`flush` before persisting the returned dict.
        """
        with self._lock:
            return {
                "chains": {ref: list(chain) for ref, chain in self._chains.items()},
                "next_ref": self._next_ref,
                "free_pages": self._pool.pager.free_page_ids(),
            }

    def restore_state(self, state: dict) -> None:
        """Re-install bookkeeping captured by :meth:`snapshot_state`.

        Raises :class:`NodeStoreError` when the state refers to pages the
        backing file does not contain (a snapshot/state mismatch).
        """
        with self._lock:
            chains = {int(ref): list(chain) for ref, chain in state["chains"].items()}
            num_pages = self._pool.pager.num_pages
            for ref, chain in chains.items():
                for page_id in chain:
                    if not (0 <= page_id < num_pages):
                        raise NodeStoreError(
                            f"snapshot refers to page {page_id} of node {ref}, but the "
                            f"backing file only holds {num_pages} pages"
                        )
            self._chains = chains
            self._resident.clear()
            self._next_ref = int(state["next_ref"])
            self._pool.pager.restore_free_pages(state.get("free_pages", []))


# ---------------------------------------------------------------------- config
@dataclass(frozen=True)
class StorageConfig:
    """How a deployment stores its trees (and, when paged, its heap files).

    ``mode="memory"`` is the historical in-memory object-graph behaviour;
    ``mode="paged"`` routes every tree through a :class:`PagedNodeStore`
    with ``pool_pages`` of cache, backed by files under ``data_dir`` (or by
    an in-memory pager when ``data_dir`` is ``None`` -- still bounded, just
    not durable).  Immutable and shareable across parties; each party calls
    :meth:`node_store` / :meth:`heap_pager` with its own component name so
    files never collide.
    """

    mode: str = "memory"
    data_dir: Optional[str] = None
    pool_pages: int = 128

    def __post_init__(self) -> None:
        if self.mode not in ("memory", "paged"):
            raise NodeStoreError(
                f"unknown storage mode {self.mode!r}; expected 'memory' or 'paged'"
            )
        if self.pool_pages < 1:
            raise NodeStoreError(
                f"pool_pages must be at least 1, got {self.pool_pages}"
            )

    @property
    def is_paged(self) -> bool:
        """Whether trees go through the buffer pool."""
        return self.mode == "paged"

    def _path(self, name: str, suffix: str) -> Optional[str]:
        if self.data_dir is None:
            return None
        import os

        os.makedirs(self.data_dir, exist_ok=True)
        return os.path.join(self.data_dir, f"{name}.{suffix}")

    def node_store(self, name: str, page_size: int = DEFAULT_PAGE_SIZE) -> NodeStore:
        """The node store for component ``name`` (e.g. ``"sp0"``)."""
        if not self.is_paged:
            return MEMORY_NODE_STORE
        return PagedNodeStore(
            path=self._path(name, "nodes"),
            pool_pages=self.pool_pages,
            page_size=page_size,
        )

    def heap_pager(self, name: str, page_size: int = DEFAULT_PAGE_SIZE) -> Optional[Pager]:
        """A durable heap-file pager for component ``name`` (paged+dir only)."""
        if not self.is_paged:
            return None
        path = self._path(name, "heap")
        if path is None:
            return None
        return FileBackedPager(path, page_size=page_size)
