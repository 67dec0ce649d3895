"""The scheme layer: one interface over SAE and TOM, plus the orchestrator.

The paper is a head-to-head between two authentication schemes for
outsourced databases -- SAE (the contribution: a service provider running a
conventional DBMS plus a trusted entity answering with constant-size XOR
tokens) and TOM (the baseline: a Merkle B+-tree at the SP and per-query
verification objects).  This module gives both the *same* shape so that
every consumer -- the CLI, the load driver, the shard-scaling sweep, the
benchmark gate, the head-to-head experiment -- works against either scheme
generically:

* :class:`AuthScheme` -- the deployment lifecycle both schemes run:
  ``setup``, per-request ``query``/``query_many`` (every request threads
  its own :class:`~repro.core.pipeline.ExecutionContext` and yields an
  outcome carrying an immutable :class:`~repro.core.pipeline.QueryReceipt`),
  ``apply_updates``, replicas, snapshots and ``close``; a scheme supplies
  only the hooks that build and check its proofs;
* the **scheme registry** -- :func:`register_scheme` /
  :func:`available_schemes` / :func:`scheme_class`, so new schemes plug in
  by name (``--scheme sae``, ``--scheme tom`` on the CLI);
* :class:`OutsourcedDB` -- the single deployment orchestrator: pick a
  scheme by name, forward only the constructor parameters that scheme
  understands (shared CLI flags like ``--key-bits`` are meaningful to TOM
  and silently irrelevant to SAE), and delegate the whole query/update
  lifecycle.

Both schemes honour the same degenerate-range contract: a reversed range
(``low > high``) is answered locally with an **empty verified result and a
zero-cost receipt** instead of scheme-divergent errors, which
``tests/unit/test_scheme_registry.py`` pins as a parity property.
"""

from __future__ import annotations

import abc
import functools
import inspect
import os
import pickle
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.dataset import Dataset
from repro.core.design import (
    DesignError,
    PhysicalDesign,
    design_from_snapshot_params,
    resolve_design,
)
from repro.core.pipeline import (
    ExecutionContext,
    QueryReceipt,
    ReadWriteLock,
    ShardLegReceipt,
    ZERO_RECEIPT,
)
from repro.core.replication import ReplicaDownError, ReplicaRouter
from repro.core.sharding import ShardedDeployment
from repro.core.updates import UpdateBatch
from repro.crypto.digest import DigestScheme, default_scheme, get_scheme
from repro.crypto.signatures import CachedVerifier
from repro.dbms.query import RangeQuery
from repro.network.channel import NetworkTracker
from repro.network.messages import QueryRequest
from repro.storage.node_store import StorageConfig


class SchemeError(ValueError):
    """Raised for unknown scheme names or invalid orchestrator arguments."""


#: File under a deployment's ``data_dir`` holding the pickled snapshot state
#: (everything except the page files the paged stores already persist).
SNAPSHOT_STATE_FILE = "state.pkl"

#: Version tag written into (and required from) every snapshot state file.
SNAPSHOT_FORMAT = "repro-snapshot/1"


def snapshot_state_path(data_dir: str) -> str:
    """Path of the snapshot state file under ``data_dir``."""
    return os.path.join(data_dir, SNAPSHOT_STATE_FILE)


def has_snapshot(data_dir: str) -> bool:
    """Whether ``data_dir`` holds a deployment snapshot."""
    return os.path.exists(snapshot_state_path(data_dir))


def write_snapshot_state(data_dir: str, state: dict) -> str:
    """Persist a scheme's snapshot state dict; returns the file path.

    The pickle is written to a temporary file and renamed into place, so a
    crash mid-snapshot leaves the previous state file intact.
    """
    state = dict(state)
    state["format"] = SNAPSHOT_FORMAT
    path = snapshot_state_path(data_dir)
    scratch = path + ".tmp"
    with open(scratch, "wb") as handle:
        pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(scratch, path)
    return path


def load_snapshot_state(data_dir: str, expected_scheme: Optional[str] = None) -> dict:
    """Load and validate a snapshot state dict.

    Raises :class:`SchemeError` when no snapshot exists, the format tag is
    unknown, or the snapshot belongs to a different scheme than expected.
    Only unpickle snapshot directories you trust -- the state file is a
    pickle, exactly like the page files next to it.
    """
    path = snapshot_state_path(data_dir)
    if not has_snapshot(data_dir):
        raise SchemeError(f"no deployment snapshot at {path}")
    with open(path, "rb") as handle:
        state = pickle.load(handle)
    if state.get("format") != SNAPSHOT_FORMAT:
        raise SchemeError(
            f"unsupported snapshot format {state.get('format')!r} at {path} "
            f"(expected {SNAPSHOT_FORMAT})"
        )
    if expected_scheme is not None and state.get("scheme") != expected_scheme:
        raise SchemeError(
            f"snapshot at {path} was taken by scheme {state.get('scheme')!r}, "
            f"not {expected_scheme!r}"
        )
    return state


def is_reversed_range(low: Any, high: Any) -> bool:
    """Whether the bounds form a degenerate (empty) reversed range.

    ``None`` bounds are not reversed -- they fall through to the scheme's
    normal validation, which rejects them.
    """
    return low is not None and high is not None and low > high


def _shutdown_pool(executor: ThreadPoolExecutor) -> None:
    executor.shutdown(wait=False, cancel_futures=True)


class AuthScheme(abc.ABC):
    """One deployment lifecycle, run by every authentication scheme.

    A scheme wires its parties (data owner, service provider(s), and -- for
    SAE -- the trusted entity) over byte-counting channels and exposes the
    verified-query lifecycle.  Outsourcing, dispatch, updates, replicas and
    snapshots are the same deployment in SAE and TOM, so this base class is
    a template that owns all of it: the design/storage/network plumbing and
    the SP fleet with its warm standbys, the deployment properties, replica
    kill/revive, setup and the propagation of update batches, the snapshot
    guards and the state keys every scheme writes, restore's state loading,
    :meth:`close`, the ``query``/``query_many`` preamble, the per-shard
    replica-failover loop, the chunking of batch legs and the merging of
    leg receipts.

    A scheme differs only in how an answer is proven, and supplies hooks
    for exactly that:

    * serving a leg -- :meth:`_execute` runs the SP on one party and
      :meth:`_answer` ships what it returned (SAE: the records' bytes;
      TOM: the records plus their VO).  A scheme with a separate
      authenticator (SAE's TE) also overrides the proof hooks
      :meth:`_serve_unsharded`, :meth:`_submit_leg_proofs`,
      :meth:`_serve_proof_batch` and :meth:`_serve_leg_proof_batches`,
      whose defaults suit a proof that rides on the SP's answer;
    * verifying and building the outcome -- :meth:`_conclude` (one answer),
      :meth:`_conclude_legs` (shard legs) and :meth:`_empty_outcome`
      (a reversed range);
    * keeping standbys current -- :meth:`_sync_standby` and
      :meth:`_after_update_batch`;
    * snapshot extras -- :meth:`_snapshot_extras`, plus
      :meth:`_snapshot_refusal` where a scheme adds a refusal;
    * :meth:`_parties` -- the primary parties that hold storage.

    Thread-safety: ``query``/``query_many`` may be called from any number
    of threads concurrently, each request carrying its own
    :class:`~repro.core.pipeline.ExecutionContext`; ``apply_updates`` and
    ``snapshot`` serialise against in-flight queries through the
    deployment's read/write lock.  Failure modes: every operation on a
    closed deployment raises :class:`SchemeError` (a closed scheme never
    silently revives its pool), and ``snapshot``/``restore`` raise
    :class:`SchemeError` when the storage tier cannot support them.
    """

    #: Registry key of the scheme (e.g. ``"sae"``); set by subclasses.
    scheme_name: str = ""

    # ------------------------------------------------------------------ construction
    def _init_deployment(
        self,
        dataset: Dataset,
        *,
        scheme: Optional[DigestScheme],
        design: Optional[PhysicalDesign],
        shards: Any,
        replicas: Optional[int],
        pool_pages: Optional[int],
        page_size: Optional[int],
        storage: Any,
        data_dir: Optional[str],
        node_access_ms: Optional[float],
        index_fill_factor: float,
        max_workers: Optional[int],
    ) -> None:
        """The construction every scheme shares (call it first)."""
        # ``design`` is the one descriptor of the physical layout; the raw
        # shards/replicas/pool_pages/page_size keywords are deprecation
        # shims resolved (and contradiction-checked) against it.
        try:
            self._design = resolve_design(
                design,
                shards=shards,
                replicas=replicas,
                pool_pages=pool_pages,
                page_size=page_size,
            )
        except DesignError as exc:
            raise SchemeError(str(exc)) from exc
        self._scheme = scheme or default_scheme()
        self._network = NetworkTracker()
        self._dataset = dataset
        self._deployment = self._design.deployment()
        self._storage = StorageConfig.coerce(
            storage, data_dir, self._design.pool_pages
        )
        self._page_size = self._design.page_size
        self._node_access_ms = node_access_ms
        self._index_fill_factor = index_fill_factor
        # A replicated-but-unsharded deployment still runs fleets (of one
        # shard each): legs then carry per-shard receipts, on which the
        # failover bookkeeping (replica / failed_replicas) rides.
        self._uses_fleet = (
            self._deployment.is_sharded or self._deployment.is_replicated
        )
        self._replica_router: Optional[ReplicaRouter] = None
        self._sp_replicas: List[Any] = []
        self._ready = False
        # Queries hold this shared; update batches and snapshots hold it
        # exclusive, so an in-flight query never observes a half-applied
        # batch at any party.
        self._state_lock = ReadWriteLock()
        # Same number feeds the executor and the batch chunking, so a
        # query_many batch always produces one SP slice per pool worker.
        self._num_workers = max_workers or min(32, (os.cpu_count() or 1) + 4)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._finalizer: Optional[weakref.finalize] = None
        self._closed = False

    def _build_providers(
        self, single: type, fleet: type, attack: Any, **options: Any
    ) -> None:
        """Build the SP: one party, or a primary fleet plus warm standbys.

        ``single`` and ``fleet`` are the scheme's provider classes and
        ``options`` their shared keyword arguments.  Only the primary
        carries ``attack``; standby ``r`` stores its files under the
        ``<scheme>-r<r>-sp`` prefix.
        """
        if not self._uses_fleet:
            self.provider = single(attack=attack, **options)
            return
        deployment = self._deployment
        build = functools.partial(
            fleet, deployment.num_shards, cut_points=deployment.cut_points, **options
        )
        self.provider = build(attack=attack)
        self._sp_replicas = [self.provider] + [
            build(attack=None, component_prefix=f"{self.scheme_name}-r{replica}-sp")
            for replica in range(1, deployment.num_replicas)
        ]
        self._replica_router = ReplicaRouter(
            deployment.num_shards, deployment.num_replicas
        )

    def _adopt_owner(self, owner: Any) -> None:
        """Install the data owner and the client's epoch-stamp verifier."""
        self.owner = owner
        # Epoch stamps repeat across queries; the cached verifier answers
        # repeats with a dict lookup instead of an RSA exponentiation.  An
        # old stamp stays validly signed (just stale), so it is never
        # invalidated.
        self._epoch_verifier = CachedVerifier(
            owner.epoch_verifier, capacity=self._design.verifier_cache
        )

    @abc.abstractmethod
    def _parties(self) -> Dict[str, Any]:
        """The primary parties holding storage, by report prefix (``"sp"``...).

        The data owner outsources to (and restore re-adopts) them in this
        order; snapshots flush them and :meth:`close` closes them.
        """

    # ------------------------------------------------------------------ deployment
    @property
    def network(self) -> NetworkTracker:
        """The byte-accounting network tracker."""
        return self._network

    @property
    def dataset(self) -> Dataset:
        """The data owner's authoritative dataset."""
        return self._dataset

    @property
    def deployment(self) -> ShardedDeployment:
        """The deployment configuration."""
        return self._deployment

    @property
    def design(self) -> PhysicalDesign:
        """The physical design this deployment was built from."""
        return self._design

    @property
    def storage(self) -> StorageConfig:
        """The storage-tier configuration."""
        return self._storage

    @property
    def num_shards(self) -> int:
        """Number of shards in this deployment (1 = unsharded)."""
        return self._deployment.num_shards

    @property
    def num_replicas(self) -> int:
        """SP replicas per shard (1 = primary only, no standbys)."""
        return self._deployment.num_replicas

    @property
    def current_epoch(self) -> int:
        """The owner's current signed update epoch (0 before any update)."""
        return self.owner.epoch

    def sp_replica(self, replica: int) -> Any:
        """The SP fleet serving as replica ``replica`` (0 = primary)."""
        if not self._sp_replicas:
            raise SchemeError("this deployment does not run an SP fleet")
        return self._sp_replicas[replica]

    def kill_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Take a replica out of service (all shards, or one shard's copy)."""
        for shard in self._replicated_shards(shard_id):
            self._replica_router.kill(shard, replica)

    def revive_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Return a killed replica to service."""
        for shard in self._replicated_shards(shard_id):
            self._replica_router.revive(shard, replica)

    def _replicated_shards(self, shard_id: Optional[int]) -> Sequence[int]:
        if self._replica_router is None or self._deployment.num_replicas < 2:
            raise SchemeError(
                "kill/revive need a replicated deployment (replicas >= 2)"
            )
        return range(self.num_shards) if shard_id is None else (shard_id,)

    # ------------------------------------------------------------------ lifecycle
    def setup(self) -> "AuthScheme":
        """Run the outsourcing phase; returns ``self`` for chaining.

        Warm standbys receive the same dataset (the build is deterministic,
        so every replica holds identical trees) plus whatever the scheme
        syncs from the primary and the owner's current epoch stamp -- the
        in-process equivalent of snapshot shipping, which ``repro serve
        --replica-of`` exercises across processes.
        """
        with self._state_lock.write_locked():
            self.owner.outsource(*self._parties().values())
            for standby in self._sp_replicas[1:]:
                standby.receive_dataset(self._dataset)
                self._sync_standby(standby, None)
                standby.receive_epoch_stamp(self.owner.epoch_stamp)
            self._ready = True
        return self

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Propagate an update batch from the DO to every serving party.

        Applied under the exclusive side of the shared/exclusive lock:
        concurrent queries either complete before the batch or observe it
        at every party.  Warm standbys replay the same batch and adopt the
        advanced epoch stamp, so every replica stays at the owner's current
        epoch.
        """
        self._ensure_open()
        with self._state_lock.write_locked():
            self.owner.apply_updates(batch)
            for standby in self._sp_replicas[1:]:
                self._sync_standby(standby, standby.apply_updates(batch))
                standby.receive_epoch_stamp(self.owner.epoch_stamp)
            self._after_update_batch()

    def _sync_standby(self, standby: Any, shard_ids: Optional[Sequence[int]]) -> None:
        """Copy primary state a standby cannot derive itself (all shards
        when ``shard_ids`` is ``None``, else the ones a batch touched)."""

    def _after_update_batch(self) -> None:
        """Runs under the exclusive lock once a batch reached every party."""

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has shut this deployment down."""
        return self._closed

    def _ensure_open(self) -> None:
        """Refuse to serve on a closed scheme instead of silently reviving.

        A closed deployment is permanently closed: reviving its pool would
        leak a fresh thread pool per revival.
        """
        if self._closed:
            raise SchemeError(
                f"{self.scheme_name or type(self).__name__} scheme is closed; "
                "deploy a new instance instead of reusing a closed one"
            )

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            self._ensure_open()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._num_workers,
                    thread_name_prefix=f"{self.scheme_name}-dispatch",
                )
                self._finalizer = weakref.finalize(self, _shutdown_pool, self._executor)
            return self._executor

    def close(self) -> None:
        """Checkpoint (when snapshotable) and shut the deployment down.

        When :meth:`snapshot` would succeed a final snapshot is taken
        first, so updates applied since the last explicit one survive a
        clean shutdown.  The standbys' and parties' stores and pagers are
        then closed (releasing their file handles) and the dispatch pool
        shut down -- even when that final snapshot raised, whose error
        then propagates.  Idempotent and permanent.
        """
        if self._closed:
            return
        try:
            if self._snapshot_refusal() is None:
                self.snapshot()
        finally:
            for standby in self._sp_replicas[1:]:
                standby.close_storage()
            for party in self._parties().values():
                party.close_storage()
            with self._executor_lock:
                self._closed = True
                executor, self._executor = self._executor, None
                if self._finalizer is not None:
                    self._finalizer.detach()
                    self._finalizer = None
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> "AuthScheme":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ snapshots
    def _snapshot_refusal(self) -> Optional[str]:
        """Why :meth:`snapshot` cannot run now, or ``None`` when it can.

        The one snapshotability predicate: :meth:`snapshot` raises its
        message and :meth:`close` checkpoints exactly when it is ``None``.
        """
        if not self._ready:
            return "snapshot() requires a deployment after setup()"
        if not (self._storage.is_paged and self._storage.data_dir):
            return "snapshot() requires storage='paged' with a data_dir"
        if self._deployment.is_replicated:
            return (
                "snapshot() snapshots a single (primary) deployment; standbys "
                "are seeded from the primary's snapshot via serve --replica-of"
            )
        return None

    def snapshot(self) -> str:
        """Persist the deployment under its data directory; returns the path.

        Requires ``storage="paged"`` with a ``data_dir`` (the tree nodes and
        heap pages already live in files there); writes everything else --
        the dataset, the owner's epoch, every party's bookkeeping and the
        scheme's extras -- to the snapshot state file.  Taken under the
        exclusive lock, so the snapshot is a consistent point between
        update batches.
        """
        self._ensure_open()
        refusal = self._snapshot_refusal()
        if refusal is not None:
            raise SchemeError(refusal)
        with self._state_lock.write_locked():
            parties = self._parties()
            for party in parties.values():
                party.flush_storage()
            state = {
                "scheme": self.scheme_name,
                "params": {
                    "page_size": self._page_size,
                    "node_access_ms": self._node_access_ms,
                    "index_fill_factor": self._index_fill_factor,
                    "shards": self._deployment.num_shards,
                    "digest": self._scheme.name,
                    "design": self._design.to_json_dict(),
                },
                "dataset": self._dataset,
                "epoch": self.owner.epoch,
                "provider": self.provider.snapshot_state(),
            }
            self._snapshot_extras(state)
            return write_snapshot_state(self._storage.data_dir, state)

    def _snapshot_extras(self, state: dict) -> None:
        """Add the scheme's own entries to a snapshot state dict."""

    @classmethod
    def _load_state(cls, data_dir: str, state: Optional[dict]) -> dict:
        """The snapshot state to restore from, checked to be this scheme's.

        ``state`` lets a caller that already loaded it
        (``restore_deployment``) pass it through instead of unpickling it
        a second time.
        """
        if state is None:
            return load_snapshot_state(data_dir, expected_scheme=cls.scheme_name)
        if state.get("scheme") != cls.scheme_name:
            raise SchemeError(
                f"snapshot state belongs to scheme {state.get('scheme')!r}, "
                f"not {cls.scheme_name!r}"
            )
        return state

    @classmethod
    def _reopen(
        cls,
        data_dir: str,
        state: dict,
        pool_pages: Optional[int],
        max_workers: Optional[int],
        **options: Any,
    ) -> "AuthScheme":
        """A paged deployment over ``data_dir`` built from snapshot params.

        The page files are reopened lazily through fresh buffer pools (no
        re-signing, no re-hashing, no index rebuild); the caller restores
        its parties' bookkeeping and marks the deployment ready.
        """
        params = state["params"]
        return cls(
            state["dataset"],
            scheme=get_scheme(params["digest"]),
            node_access_ms=params["node_access_ms"],
            index_fill_factor=params["index_fill_factor"],
            max_workers=max_workers,
            storage="paged",
            data_dir=data_dir,
            design=design_from_snapshot_params(params, pool_pages),
            **options,
        )

    @classmethod
    @abc.abstractmethod
    def restore(cls, data_dir: str, **kwargs: Any) -> "AuthScheme":
        """Rebuild a deployment from a :meth:`snapshot` directory."""

    # ------------------------------------------------------------------ queries
    def _require_ready(self) -> None:
        self._ensure_open()
        if not self._ready:
            raise RuntimeError("setup() must be called before issuing queries")

    def query(self, low: Any, high: Any, verify: bool = True):
        """Issue one verified range query and return its outcome.

        The outcome exposes ``verified``, ``records``, ``cardinality`` and a
        :class:`~repro.core.pipeline.QueryReceipt` on ``receipt``.  In a
        fleet deployment the query is scattered to the overlapping shards
        only, every shard's legs run as pool tasks, and the gathered
        receipt carries the summed charges.  A reversed range
        (``low > high``) returns an empty verified result at zero cost.
        """
        self._require_ready()
        if is_reversed_range(low, high):
            return self._empty_outcome(low, high, verify)
        query = RangeQuery(low=low, high=high, attribute=self._dataset.schema.key_column)
        ctx = ExecutionContext(query=query)
        if self._uses_fleet:
            return self._query_sharded(query, ctx, verify)
        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            answer, proof = self._serve_unsharded(query, ctx, verify)
        return self._conclude(query, ctx, answer, proof, verify, expected_epoch)

    def query_many(self, bounds: Sequence[Tuple[Any, Any]], verify: bool = True) -> List:
        """Issue a batch of range queries; one outcome per query, in order.

        The SP legs are chunked across the dispatch pool (one contiguous
        slice per worker); verdicts, per-query node-access counts and
        per-query byte accounting are identical to looping over
        :meth:`query`.  Reversed ranges anywhere in the batch come back as
        empty verified results with zero-cost receipts, in position.
        """
        self._require_ready()
        if not bounds:
            return []
        return self._weave_reversed(
            bounds, verify, lambda valid: self._query_many_valid(valid, verify)
        )

    def _weave_reversed(self, bounds: Sequence[Tuple[Any, Any]], verify: bool, serve_valid):
        """Answer reversed ranges locally; serve the rest, all in position.

        The shared half of the degenerate-range contract: reversed bounds
        never reach a serving party, their outcomes come from
        :meth:`_empty_outcome`, and valid queries keep their batch order.
        ``serve_valid`` receives only the valid bound pairs and must return
        exactly one outcome per pair -- a miscounting implementation raises
        an explicit :class:`SchemeError` instead of surfacing as a
        ``RuntimeError: StopIteration`` from the weaving itself.
        """
        empty_positions = {
            position
            for position, (low, high) in enumerate(bounds)
            if is_reversed_range(low, high)
        }
        valid = [
            pair for position, pair in enumerate(bounds)
            if position not in empty_positions
        ]
        served = list(serve_valid(valid)) if valid else []
        if len(served) != len(valid):
            raise SchemeError(
                f"{self.scheme_name or type(self).__name__} scheme returned "
                f"{len(served)} outcomes for {len(valid)} queries"
            )
        if not empty_positions:
            return served
        woven = iter(served)
        return [
            self._empty_outcome(low, high, verify)
            if position in empty_positions
            else next(woven)
            for position, (low, high) in enumerate(bounds)
        ]

    def _query_many_valid(self, bounds: Sequence[Tuple[Any, Any]], verify: bool) -> List:
        """The batch path for bounds already known to be non-degenerate."""
        attribute = self._dataset.schema.key_column
        queries = [RangeQuery(low=low, high=high, attribute=attribute) for low, high in bounds]
        contexts = [ExecutionContext(query=query) for query in queries]
        if self._uses_fleet:
            return self._query_many_sharded(queries, contexts, verify)
        pool = self._pool()
        record_cache: dict = {}
        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            sp_futures = [
                pool.submit(
                    self._serve_chunk, self._serve_sp,
                    [(query, ctx, record_cache) for query, ctx in chunk],
                )
                for chunk in self._chunked(list(zip(queries, contexts)))
            ]
            proofs = self._serve_proof_batch(queries, contexts, verify)
            answers = [answer for future in sp_futures for answer in future.result()]
        digest_cache: dict = {}
        return [
            self._conclude(query, ctx, answer, proof, verify, expected_epoch, digest_cache)
            for query, ctx, answer, proof in zip(queries, contexts, answers, proofs)
        ]

    def _query_sharded(self, query: RangeQuery, ctx: ExecutionContext, verify: bool):
        """Scatter one query to its overlapping shards, in parallel legs."""
        pool = self._pool()
        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            shard_ids = self.provider.shards_for(query)
            leg_contexts = [ExecutionContext(query=query) for _ in shard_ids]
            sp_futures = [
                pool.submit(self._serve_sp_leg, shard_id, query, leg_ctx)
                for shard_id, leg_ctx in zip(shard_ids, leg_contexts)
            ]
            proof_futures = self._submit_leg_proofs(
                pool, query, shard_ids, leg_contexts, verify
            )
            answers = [future.result() for future in sp_futures]
            proofs = [
                future.result() if future is not None else None
                for future in proof_futures
            ]
        return self._conclude_legs(
            query, ctx, shard_ids, leg_contexts, answers, proofs, verify, expected_epoch
        )

    def _query_many_sharded(
        self,
        queries: Sequence[RangeQuery],
        contexts: Sequence[ExecutionContext],
        verify: bool,
    ) -> List:
        """Batched scatter-gather: shard legs chunked across the pool."""
        pool = self._pool()
        record_caches: Dict[int, dict] = {
            shard_id: {} for shard_id in range(self.num_shards)
        }
        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            shard_ids_per_query = [self.provider.shards_for(query) for query in queries]
            legs = [
                (position, shard_id)
                for position, shard_ids in enumerate(shard_ids_per_query)
                for shard_id in shard_ids
            ]
            leg_contexts = {
                leg: ExecutionContext(query=queries[leg[0]]) for leg in legs
            }
            # Group legs by shard so a worker's record cache and tree walk
            # stay hot, then chunk to one future per pool worker.
            ordered_legs = sorted(legs, key=lambda leg: (leg[1], leg[0]))
            sp_futures = [
                pool.submit(
                    self._serve_chunk, self._serve_sp_leg,
                    [
                        (shard_id, queries[position], leg_contexts[(position, shard_id)],
                         record_caches[shard_id])
                        for position, shard_id in chunk
                    ],
                )
                for chunk in self._chunked(ordered_legs)
            ]
            proofs = self._serve_leg_proof_batches(
                pool, queries, shard_ids_per_query, leg_contexts, verify
            )
            answers = dict(zip(
                ordered_legs,
                [answer for future in sp_futures for answer in future.result()],
            ))
        digest_cache: dict = {}
        outcomes = []
        for position, (query, ctx) in enumerate(zip(queries, contexts)):
            shard_ids = shard_ids_per_query[position]
            query_legs = [(position, shard_id) for shard_id in shard_ids]
            outcomes.append(
                self._conclude_legs(
                    query,
                    ctx,
                    shard_ids,
                    [leg_contexts[leg] for leg in query_legs],
                    [answers[leg] for leg in query_legs],
                    [proofs.get(leg) for leg in query_legs],
                    verify,
                    expected_epoch,
                    digest_cache,
                )
            )
        return outcomes

    def _chunked(self, items: List) -> List[List]:
        """Contiguous slices of ``items``, one per pool worker at most.

        One future per worker, not one per leg: the legs of a big batch
        would otherwise thrash the scheduler and convoy on locks.
        """
        num_chunks = max(1, min(len(items), self._num_workers))
        size = (len(items) + num_chunks - 1) // num_chunks
        return [items[start:start + size] for start in range(0, len(items), size)]

    @staticmethod
    def _serve_chunk(serve, calls: Sequence[Tuple]) -> List:
        """Serve one pool worker's slice of a batch's legs, in order."""
        return [serve(*call) for call in calls]

    # ------------------------------------------------------------------ SP legs
    def _serve_sp(
        self, query: RangeQuery, ctx: ExecutionContext, record_cache: Optional[dict] = None
    ):
        """The SP leg of one unsharded request: the query in, the answer out."""
        self._network.channel("client", "SP").send(QueryRequest(query=query), session=ctx)
        served = self._execute(self.provider, query, ctx, record_cache)
        ctx.epoch_stamp = self.provider.current_stamp()
        return self._answer("SP", served, ctx)

    def _serve_sp_leg(
        self,
        shard_id: int,
        query: RangeQuery,
        ctx: ExecutionContext,
        record_cache: Optional[dict] = None,
    ):
        """One shard's SP leg of a scattered query, with replica failover.

        The leg walks the shard's replica rotation: dead replicas fail fast
        (without touching the replica) and are recorded on
        ``ctx.failed_replicas``, the first live replica serves the leg, and
        its epoch stamp rides along on ``ctx.epoch_stamp`` for the client's
        freshness check.  A dead replica does no work, so the retry leaves
        the leg-sum invariant (:meth:`QueryReceipt.matches_leg_sums`) intact.
        """
        party = f"SP{shard_id}"
        self._network.channel("client", party).send(QueryRequest(query=query), session=ctx)
        router = self._replica_router
        served = None
        failed: List[int] = []
        for replica in router.attempt_order(shard_id):
            if router.is_down(shard_id, replica):
                failed.append(replica)
                continue
            shard = self._sp_replicas[replica].shard(shard_id)
            try:
                served = self._execute(shard, query, ctx, record_cache)
            except ReplicaDownError:
                failed.append(replica)
                continue
            ctx.replica = replica
            ctx.failed_replicas = tuple(failed)
            ctx.epoch_stamp = shard.current_stamp()
            break
        if served is None:
            raise ReplicaDownError(
                f"every replica of shard {shard_id} is down: {failed}"
            )
        return self._answer(party, served, ctx)

    @abc.abstractmethod
    def _execute(
        self, provider: Any, query: RangeQuery, ctx: ExecutionContext,
        record_cache: Optional[dict],
    ) -> Any:
        """Run ``query`` on one single-shard SP; its receipt lands on ``ctx.sp``.

        ``record_cache`` is shared by the legs of a batch on one shard, for
        a provider that can fetch each record once per batch.
        """

    @abc.abstractmethod
    def _answer(self, party: str, served: Any, ctx: ExecutionContext) -> Any:
        """Send what ``party`` served to the client; returns the leg's answer."""

    # ------------------------------------------------------------------ proof legs
    def _serve_unsharded(self, query: RangeQuery, ctx: ExecutionContext, verify: bool):
        """The ``(answer, proof)`` of one unsharded request, under the lock."""
        return self._serve_sp(query, ctx), None

    def _submit_leg_proofs(
        self, pool: ThreadPoolExecutor, query: RangeQuery, shard_ids: Sequence[int],
        leg_contexts: Sequence[ExecutionContext], verify: bool,
    ) -> List[Optional[Future]]:
        """One future (or ``None``) per shard leg for that leg's proof."""
        return [None] * len(shard_ids)

    def _serve_proof_batch(
        self, queries: Sequence[RangeQuery], contexts: Sequence[ExecutionContext],
        verify: bool,
    ) -> List:
        """The proofs of an unsharded batch, one per query (``None``: none)."""
        return [None] * len(queries)

    def _serve_leg_proof_batches(
        self, pool: ThreadPoolExecutor, queries: Sequence[RangeQuery],
        shard_ids_per_query: Sequence[Sequence[int]],
        leg_contexts: Dict[Tuple[int, int], ExecutionContext], verify: bool,
    ) -> Dict[Tuple[int, int], Any]:
        """The proofs of a sharded batch, by ``(position, shard_id)`` leg."""
        return {}

    # ------------------------------------------------------------------ outcomes
    @abc.abstractmethod
    def _conclude(
        self, query: RangeQuery, ctx: ExecutionContext, answer: Any, proof: Any,
        verify: bool, expected_epoch: int, digest_cache: Optional[dict] = None,
    ):
        """Verify one unsharded answer (unless ``verify`` is off); its outcome."""

    @abc.abstractmethod
    def _conclude_legs(
        self, query: RangeQuery, ctx: ExecutionContext, shard_ids: Sequence[int],
        leg_contexts: Sequence[ExecutionContext], answers: Sequence, proofs: Sequence,
        verify: bool, expected_epoch: int, digest_cache: Optional[dict] = None,
    ):
        """Verify a scattered query's legs one by one; the merged outcome."""

    @abc.abstractmethod
    def _empty_outcome(self, low: Any, high: Any, verify: bool):
        """The scheme's empty verified (or skipped) outcome for a reversed
        range: zero-cost receipt, no records, the requested bounds kept."""

    def _empty_receipt(self, low: Any, high: Any) -> QueryReceipt:
        """A reversed range's receipt: no party worked, every charge is zero,
        and the query keeps the bounds the client asked for."""
        query = RangeQuery.degenerate(low, high, self._dataset.schema.key_column)
        return self._receipt(query, ExecutionContext(), 0, 0, 0.0)

    @staticmethod
    def _receipt(
        query: RangeQuery, ctx: ExecutionContext, auth_bytes: int, result_bytes: int,
        client_cpu_ms: float, legs: Tuple[ShardLegReceipt, ...] = (),
    ) -> QueryReceipt:
        """The query's receipt from the party receipts on ``ctx``."""
        return QueryReceipt(
            query=query,
            sp=ctx.sp or ZERO_RECEIPT,
            te=ctx.te or ZERO_RECEIPT,
            auth_bytes=auth_bytes,
            result_bytes=result_bytes,
            client_cpu_ms=client_cpu_ms,
            bytes_by_channel=dict(ctx.bytes_by_channel),
            legs=legs,
        )

    @staticmethod
    def _leg_receipt(
        shard_id: int, leg_ctx: ExecutionContext, auth_bytes: int, result_bytes: int
    ) -> ShardLegReceipt:
        """One shard leg's receipt, with its failover bookkeeping."""
        return ShardLegReceipt(
            shard=shard_id,
            sp=leg_ctx.sp or ZERO_RECEIPT,
            te=leg_ctx.te or ZERO_RECEIPT,
            auth_bytes=auth_bytes,
            result_bytes=result_bytes,
            replica=leg_ctx.replica,
            failed_replicas=leg_ctx.failed_replicas,
        )

    def _merged_receipt(
        self, query: RangeQuery, ctx: ExecutionContext, legs: Sequence[ShardLegReceipt],
        leg_contexts: Sequence[ExecutionContext], client_cpu_ms: float,
    ) -> QueryReceipt:
        """Merge shard legs onto ``ctx``: every charge is the sum of the legs."""
        sp_total = ZERO_RECEIPT
        te_total = ZERO_RECEIPT
        for leg in legs:
            sp_total = sp_total + leg.sp
            te_total = te_total + leg.te
        for leg_ctx in leg_contexts:
            for channel_name, nbytes in leg_ctx.bytes_by_channel.items():
                ctx.record_bytes(channel_name, nbytes)
        ctx.sp = sp_total
        ctx.te = te_total
        return self._receipt(
            query,
            ctx,
            sum(leg.auth_bytes for leg in legs),
            sum(leg.result_bytes for leg in legs),
            client_cpu_ms,
            tuple(legs),
        )

    # ------------------------------------------------------------------ reporting
    def storage_report(self) -> dict:
        """Storage footprint of every party (bytes)."""
        self._ensure_open()
        report = {
            f"{name}_bytes": party.storage_bytes()
            for name, party in self._parties().items()
        }
        report["dataset_bytes"] = self._dataset.size_bytes()
        return report


# ---------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Type[AuthScheme]] = {}


def register_scheme(cls: Type[AuthScheme]) -> Type[AuthScheme]:
    """Class decorator: register ``cls`` under its ``scheme_name``."""
    name = getattr(cls, "scheme_name", "")
    if not name:
        raise SchemeError(f"{cls.__name__} must define a non-empty scheme_name")
    _REGISTRY[name] = cls
    return cls


def _ensure_builtin_schemes() -> None:
    """Import the built-in scheme modules so their registrations run.

    Deferred to first use to keep this module import-cycle free: the scheme
    implementations import the registry from here.
    """
    import repro.core.protocol  # noqa: F401  (registers "sae")
    import repro.tom.scheme  # noqa: F401  (registers "tom")


def available_schemes() -> List[str]:
    """Names of every registered scheme, sorted."""
    _ensure_builtin_schemes()
    return sorted(_REGISTRY)


def scheme_class(name: str) -> Type[AuthScheme]:
    """The scheme class registered under ``name`` (:class:`SchemeError` otherwise)."""
    _ensure_builtin_schemes()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchemeError(
            f"unknown scheme {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _constructor_params(cls: Type[AuthScheme]) -> set:
    """Keyword parameters accepted by ``cls.__init__`` (minus self/dataset)."""
    parameters = inspect.signature(cls.__init__).parameters
    return {name for name in parameters if name not in ("self", "dataset")}


class OutsourcedDB:
    """One outsourced-database deployment behind a scheme-agnostic facade.

    ``OutsourcedDB(dataset, scheme="tom", shards=4, key_bits=512)`` resolves
    the scheme by name through the registry, forwards only the constructor
    parameters that scheme accepts (so shared CLI flags can be passed
    uniformly -- ``key_bits`` configures TOM's RSA signer and is simply not
    a concept SAE has), and delegates the whole lifecycle.  Parameters no
    registered scheme understands raise :class:`SchemeError` -- a typo must
    not be silently swallowed.

    A ready-made :class:`AuthScheme` instance may be passed instead of a
    name, in which case no construction happens and extra keyword arguments
    are rejected.

    Thread-safety: the facade adds no state of its own beyond the wrapped
    scheme, so its concurrency contract is exactly the scheme's (queries
    re-entrant, updates/snapshots exclusive).  Failure modes: unknown
    scheme names and unrecognised keyword arguments raise
    :class:`SchemeError` at construction; everything else propagates from
    the underlying deployment.
    """

    def __init__(self, dataset: Dataset, scheme: Any = "sae", **kwargs: Any):
        if isinstance(scheme, AuthScheme):
            if kwargs:
                raise SchemeError(
                    "keyword arguments cannot be combined with a ready-made "
                    f"scheme instance: {sorted(kwargs)}"
                )
            self._system = scheme
        else:
            cls = scheme if isinstance(scheme, type) else scheme_class(scheme)
            accepted = _constructor_params(cls)
            # A parameter is legitimate when the chosen class accepts it
            # (covers unregistered classes passed directly) or any registered
            # scheme does (covers shared CLI flags like key_bits under SAE).
            known = set(accepted)
            for registered in _REGISTRY.values():
                known |= _constructor_params(registered)
            unknown = sorted(set(kwargs) - known)
            if unknown:
                raise SchemeError(
                    f"parameter(s) {', '.join(unknown)} are not understood by "
                    f"{cls.__name__} or any registered scheme"
                )
            self._system = cls(
                dataset, **{key: value for key, value in kwargs.items() if key in accepted}
            )

    # ------------------------------------------------------------------ meta
    @property
    def system(self) -> AuthScheme:
        """The underlying scheme deployment."""
        return self._system

    @property
    def scheme_name(self) -> str:
        """Registry name of the deployed scheme."""
        return self._system.scheme_name

    @property
    def dataset(self) -> Dataset:
        """The data owner's authoritative dataset."""
        return self._system.dataset

    @property
    def provider(self):
        """The (possibly sharded) service provider -- attack injection point."""
        return self._system.provider

    @property
    def network(self):
        """The byte-accounting network tracker."""
        return self._system.network

    @property
    def num_shards(self) -> int:
        """Number of shards in the deployment (1 = unsharded)."""
        return self._system.num_shards

    @property
    def num_replicas(self) -> int:
        """Replicas per shard (1 = primary only, no standbys)."""
        return self._system.num_replicas

    @property
    def design(self):
        """The deployment's :class:`~repro.core.design.PhysicalDesign`."""
        return self._system.design

    @property
    def current_epoch(self) -> int:
        """The owner's current signed update epoch (0 before any update)."""
        return self._system.current_epoch

    def kill_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Simulate a replica outage (replicated deployments only)."""
        self._system.kill_replica(replica, shard_id=shard_id)

    def revive_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Bring a killed replica back into the rotation."""
        self._system.revive_replica(replica, shard_id=shard_id)

    def sp_replica(self, replica: int):
        """The service-provider fleet serving replica ``replica``."""
        return self._system.sp_replica(replica)

    # ------------------------------------------------------------------ lifecycle
    def setup(self) -> "OutsourcedDB":
        """Run the scheme's outsourcing phase; returns ``self`` for chaining."""
        self._system.setup()
        return self

    def close(self) -> None:
        """Shut down the scheme's dispatch resources (idempotent)."""
        self._system.close()

    def __enter__(self) -> "OutsourcedDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ delegation
    def query(self, low: Any, high: Any, verify: bool = True):
        """Issue one verified range query through the deployed scheme."""
        return self._system.query(low, high, verify=verify)

    def query_many(self, bounds: Sequence[Tuple[Any, Any]], verify: bool = True) -> List:
        """Issue a batch of range queries; one outcome per query, in order."""
        return self._system.query_many(bounds, verify=verify)

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Propagate an update batch from the DO to every serving party."""
        self._system.apply_updates(batch)

    def storage_report(self) -> dict:
        """Storage footprint of every party (bytes)."""
        return self._system.storage_report()

    def snapshot(self) -> str:
        """Persist the deployment for a warm restart (paged storage only)."""
        return self._system.snapshot()


def restore_deployment(data_dir: str, **kwargs: Any) -> OutsourcedDB:
    """Warm-restart whatever deployment was snapshotted under ``data_dir``.

    Reads the snapshot's scheme tag, dispatches to that scheme's
    ``restore`` classmethod (``kwargs`` -- e.g. ``pool_pages`` or
    ``max_workers`` -- are forwarded), and wraps the result in an
    :class:`OutsourcedDB`.  Raises :class:`SchemeError` when ``data_dir``
    holds no (or an incompatible) snapshot.
    """
    state = load_snapshot_state(data_dir)
    cls = scheme_class(str(state.get("scheme")))
    system = cls.restore(data_dir, state=state, **kwargs)
    return OutsourcedDB(system.dataset, scheme=system)
