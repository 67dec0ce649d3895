"""End-to-end SAE protocol façade.

:class:`SaeScheme` (registered as ``"sae"`` in the scheme registry;
``SAESystem`` remains as a compatibility alias) wires a data owner, a
service provider, a trusted entity and a client together over byte-counting
channels, and exposes the :class:`~repro.core.scheme.AuthScheme` operations
every consumer of the scheme layer needs:

* :meth:`SaeScheme.setup` -- the DO outsources its dataset;
* :meth:`SaeScheme.query` -- the client sends a range query to the SP and
  the TE *in parallel* (the paper's central claim is that the two are
  independent, which is what keeps the response time low), verifies the
  result, and a :class:`QueryOutcome` captures every cost the paper reports
  (node accesses at SP and TE, authentication bytes, result bytes, client
  CPU time, verification verdict);
* :meth:`SaeScheme.query_many` -- a batched variant: SP executions are
  dispatched across the thread pool while the TE answers the whole batch
  with one shared XB-tree walk, and the client decodes and hashes each
  distinct record payload once across overlapping results.

Records travel SP -> client as the canonical bytes the heap file stores:
the SP does not decode them, the result is charged ``sum(len(payload))``,
and the client hashes the bytes it received and decodes them itself
(:class:`QueryOutcome.records` are those client-decoded tuples).

Every request carries its own :class:`~repro.core.pipeline.ExecutionContext`
and yields a :class:`~repro.core.pipeline.QueryReceipt`, so any number of
queries may be in flight concurrently.  A reversed range (``low > high``)
is answered locally with an empty verified result and a zero-cost receipt
-- the contract shared with every other registered scheme.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.attacks import AttackModel
from repro.core.client import Client, SAEVerificationResult
from repro.core.dataset import Dataset
from repro.core.design import (
    DesignError,
    PhysicalDesign,
    design_from_snapshot_params,
    resolve_design,
)
from repro.core.owner import DataOwner
from repro.core.pipeline import (
    ExecutionContext,
    QueryReceipt,
    ReadWriteLock,
    ShardLegReceipt,
    ZERO_RECEIPT,
)
from repro.core.provider import ServiceProvider, ShardedServiceProvider
from repro.core.replication import ReplicaDownError, ReplicaRouter
from repro.core.scheme import (
    AuthScheme,
    SchemeError,
    is_reversed_range,
    load_snapshot_state,
    register_scheme,
    write_snapshot_state,
)
from repro.core.sharding import ShardedDeployment
from repro.core.trusted_entity import ShardedTrustedEntity, TrustedEntity
from repro.core.updates import UpdateBatch
from repro.crypto.digest import Digest, DigestScheme, default_scheme, get_scheme
from repro.crypto.signatures import CachedVerifier
from repro.dbms.query import RangeQuery
from repro.network.channel import NetworkTracker
from repro.network.messages import QueryRequest, ResultResponse, VTResponse
from repro.storage.node_store import StorageConfig


@dataclass
class QueryOutcome:
    """Everything measured for a single verified SAE query."""

    query: RangeQuery
    records: List[Tuple[Any, ...]]
    verification: SAEVerificationResult
    sp_accesses: int
    te_accesses: int
    sp_cost_ms: float
    te_cost_ms: float
    auth_bytes: int
    result_bytes: int
    client_cpu_ms: float
    details: dict = field(default_factory=dict)
    receipt: Optional[QueryReceipt] = None

    @property
    def verified(self) -> bool:
        """Whether the client actually verified and accepted the result.

        ``False`` when verification was skipped (``verify=False``): an
        unverified result must never present itself as a verified one.
        """
        return self.verification.ok and not self.verification.skipped

    @property
    def cardinality(self) -> int:
        """Number of records the SP returned."""
        return len(self.records)

    @classmethod
    def of(
        cls,
        receipt: QueryReceipt,
        verification: SAEVerificationResult,
        details: Optional[dict] = None,
    ) -> "QueryOutcome":
        """The outcome of a receipt and a verdict: the records are the ones
        the client decoded from the bytes it verified, the flat cost fields
        mirror the receipt."""
        return cls(
            query=receipt.query,
            records=verification.records,
            verification=verification,
            sp_accesses=receipt.sp.node_accesses,
            te_accesses=receipt.te.node_accesses,
            sp_cost_ms=receipt.sp.io_cost_ms,
            te_cost_ms=receipt.te.io_cost_ms,
            auth_bytes=receipt.auth_bytes,
            result_bytes=receipt.result_bytes,
            client_cpu_ms=receipt.client_cpu_ms,
            details=details or {},
            receipt=receipt,
        )


def _result_message(payloads: List[bytes]) -> ResultResponse:
    """The SP's answer as it is charged: the stored record bytes, nothing else."""
    return ResultResponse(records=payloads, payload_size_hint=sum(map(len, payloads)))


@register_scheme
class SaeScheme(AuthScheme):
    """A complete SAE deployment (DO + SP + TE + client)."""

    scheme_name = "sae"

    def __init__(
        self,
        dataset: Dataset,
        scheme: Optional[DigestScheme] = None,
        page_size: Optional[int] = None,
        backend: str = "heap",
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        max_workers: Optional[int] = None,
        shards: Optional[Union[int, ShardedDeployment]] = None,
        replicas: Optional[int] = None,
        storage: Union[str, StorageConfig] = "memory",
        data_dir: Optional[str] = None,
        pool_pages: Optional[int] = None,
        design: Optional[PhysicalDesign] = None,
    ):
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
        page_size = self._design.page_size
        self._scheme = scheme or default_scheme()
        self._network = NetworkTracker()
        self._dataset = dataset
        self._deployment = self._design.deployment()
        self._storage = StorageConfig.coerce(
            storage, data_dir, self._design.pool_pages
        )
        self._page_size = page_size
        self._backend = backend
        self._node_access_ms = node_access_ms
        self._index_fill_factor = index_fill_factor
        # A replicated-but-unsharded deployment still runs fleets (of one
        # shard each): legs then carry per-shard receipts, on which the
        # failover bookkeeping (replica / failed_replicas) rides.
        self._uses_fleet = (
            self._deployment.is_sharded or self._deployment.is_replicated
        )
        self._replica_router: Optional[ReplicaRouter] = None
        self._sp_replicas: List[ShardedServiceProvider] = []
        if self._uses_fleet:
            cut_points = self._deployment.cut_points
            self.provider: Union[ServiceProvider, ShardedServiceProvider] = (
                ShardedServiceProvider(
                    self._deployment.num_shards,
                    backend=backend,
                    page_size=page_size,
                    node_access_ms=node_access_ms,
                    attack=attack,
                    index_fill_factor=index_fill_factor,
                    storage=self._storage,
                    cut_points=cut_points,
                )
            )
            self._sp_replicas = [self.provider]
            for replica in range(1, self._deployment.num_replicas):
                self._sp_replicas.append(
                    ShardedServiceProvider(
                        self._deployment.num_shards,
                        backend=backend,
                        page_size=page_size,
                        node_access_ms=node_access_ms,
                        attack=None,
                        index_fill_factor=index_fill_factor,
                        storage=self._storage,
                        component_prefix=f"sae-r{replica}-sp",
                        cut_points=cut_points,
                    )
                )
            self._replica_router = ReplicaRouter(
                self._deployment.num_shards, self._deployment.num_replicas
            )
            self.trusted_entity: Union[TrustedEntity, ShardedTrustedEntity] = (
                ShardedTrustedEntity(
                    self._deployment.num_shards,
                    scheme=self._scheme,
                    page_size=page_size,
                    node_access_ms=node_access_ms,
                    storage=self._storage,
                    cut_points=cut_points,
                )
            )
        else:
            self.provider = ServiceProvider(
                backend=backend,
                page_size=page_size,
                node_access_ms=node_access_ms,
                attack=attack,
                index_fill_factor=index_fill_factor,
                storage=self._storage,
            )
            self.trusted_entity = TrustedEntity(
                scheme=self._scheme,
                page_size=page_size,
                node_access_ms=node_access_ms,
                storage=self._storage,
            )
        self.owner = DataOwner(dataset, network=self._network)
        self.client = Client(
            scheme=self._scheme,
            key_index=dataset.schema.key_index,
            arity=len(dataset.schema.columns),
        )
        # Epoch stamps repeat across queries; the cached verifier answers
        # repeats with a dict lookup instead of an RSA exponentiation.
        self._epoch_verifier = CachedVerifier(
            self.owner.epoch_verifier, capacity=self._design.verifier_cache
        )
        self._ready = False
        self._init_dispatch(max_workers)
        # Queries hold this shared; update batches hold it exclusive, so an
        # in-flight query never observes a half-applied batch at SP or TE.
        self._state_lock = ReadWriteLock()

    # ------------------------------------------------------------------ lifecycle
    def setup(self) -> "SaeScheme":
        """Run the outsourcing phase (DO ships the dataset to SP and TE).

        Warm standbys receive the same dataset (the build is deterministic,
        so every replica holds an identical tree) plus the owner's current
        epoch stamp -- the in-process equivalent of snapshot shipping, which
        ``repro serve --replica-of`` exercises across processes.
        """
        with self._state_lock.write_locked():
            self.owner.outsource(self.provider, self.trusted_entity)
            for standby in self._sp_replicas[1:]:
                standby.receive_dataset(self._dataset)
                standby.receive_epoch_stamp(self.owner.epoch_stamp)
            self._ready = True
        return self

    @property
    def network(self) -> NetworkTracker:
        """The byte-accounting network tracker."""
        return self._network

    @property
    def dataset(self) -> Dataset:
        """The data owner's authoritative dataset."""
        return self._dataset

    @property
    def num_shards(self) -> int:
        """Number of SP/TE shards in this deployment (1 = unsharded)."""
        return self._deployment.num_shards

    @property
    def num_replicas(self) -> int:
        """SP replicas per shard (1 = unreplicated)."""
        return self._deployment.num_replicas

    @property
    def current_epoch(self) -> int:
        """The owner's current signed update epoch."""
        return self.owner.epoch

    def sp_replica(self, replica: int) -> ShardedServiceProvider:
        """The SP fleet serving as replica ``replica`` (0 = primary)."""
        if not self._sp_replicas:
            raise SchemeError("this deployment does not run an SP fleet")
        return self._sp_replicas[replica]

    def kill_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Take a replica out of service (all shards, or one shard's copy)."""
        self._require_replication()
        for shard in self._router_shards(shard_id):
            self._replica_router.kill(shard, replica)

    def revive_replica(self, replica: int, shard_id: Optional[int] = None) -> None:
        """Return a killed replica to service."""
        self._require_replication()
        for shard in self._router_shards(shard_id):
            self._replica_router.revive(shard, replica)

    def _require_replication(self) -> None:
        if self._replica_router is None or self._deployment.num_replicas < 2:
            raise SchemeError(
                "kill/revive need a replicated deployment (replicas >= 2)"
            )

    def _router_shards(self, shard_id: Optional[int]) -> Sequence[int]:
        return range(self.num_shards) if shard_id is None else (shard_id,)

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

    # ------------------------------------------------------------------ snapshots
    def snapshot(self) -> str:
        """Persist the deployment under its data directory; returns the path.

        Requires ``storage="paged"`` with a ``data_dir`` (the tree nodes and
        heap pages already live in files there); writes everything else --
        the dataset, TE tuple set, RID maps and tree metadata -- to the
        snapshot state file.  Taken under the exclusive lock, so the
        snapshot is a consistent point between update batches.
        """
        self._ensure_open()
        if not self._ready:
            raise SchemeError("snapshot() requires a deployment after setup()")
        if not (self._storage.is_paged and self._storage.data_dir):
            raise SchemeError(
                "snapshot() requires storage='paged' with a data_dir"
            )
        if self._backend != "heap":
            raise SchemeError(
                "snapshot() requires the heap backend (sqlite owns its own durability)"
            )
        if self._deployment.is_replicated:
            raise SchemeError(
                "snapshot() snapshots a single (primary) deployment; standbys "
                "are seeded from the primary's snapshot via serve --replica-of"
            )
        with self._state_lock.write_locked():
            self.provider.flush_storage()
            self.trusted_entity.flush_storage()
            state = {
                "scheme": self.scheme_name,
                "params": {
                    "page_size": self._page_size,
                    "backend": self._backend,
                    "node_access_ms": self._node_access_ms,
                    "index_fill_factor": self._index_fill_factor,
                    "shards": self._deployment.num_shards,
                    "digest": self._scheme.name,
                    "design": self._design.to_json_dict(),
                },
                "dataset": self._dataset,
                "epoch": self.owner.epoch,
                "provider": self.provider.snapshot_state(),
                "te": self.trusted_entity.snapshot_state(),
            }
            return write_snapshot_state(self._storage.data_dir, state)

    def close(self) -> None:
        """Checkpoint (when durable) and shut the deployment down.

        Under paged storage with a data directory a final :meth:`snapshot`
        is taken first, so the page files and the state file leave the
        process *consistent* -- updates applied since the last explicit
        snapshot survive a clean shutdown.  The stores and pagers are then
        flushed and closed (releasing their file handles) before the
        dispatch pool shuts down.  Idempotent, like the base ``close``.
        """
        if not self.closed:
            if self._ready and self._storage.is_paged and self._storage.data_dir:
                try:
                    self.snapshot()
                except SchemeError:
                    pass  # nothing snapshotable (e.g. sqlite backend)
            for standby in self._sp_replicas[1:]:
                standby.close_storage()
            self.provider.close_storage()
            self.trusted_entity.close_storage()
        super().close()

    @classmethod
    def restore(
        cls,
        data_dir: str,
        pool_pages: Optional[int] = None,
        max_workers: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> "SaeScheme":
        """Warm-restart a deployment from a :meth:`snapshot` directory.

        The page files are reopened lazily through fresh buffer pools (no
        re-signing, no re-hashing, no index rebuild); serving can begin
        immediately with a cold cache.  ``state`` lets a caller that has
        already loaded the snapshot state (``restore_deployment``) pass it
        through instead of unpickling it a second time.
        """
        if state is None:
            state = load_snapshot_state(data_dir, expected_scheme=cls.scheme_name)
        elif state.get("scheme") != cls.scheme_name:
            raise SchemeError(
                f"snapshot state belongs to scheme {state.get('scheme')!r}, "
                f"not {cls.scheme_name!r}"
            )
        params = state["params"]
        design = design_from_snapshot_params(params, pool_pages)
        system = cls(
            state["dataset"],
            scheme=get_scheme(params["digest"]),
            backend=params["backend"],
            node_access_ms=params["node_access_ms"],
            index_fill_factor=params["index_fill_factor"],
            max_workers=max_workers,
            storage="paged",
            data_dir=data_dir,
            design=design,
        )
        schema = state["dataset"].schema
        system.provider.restore_state(state["provider"], schema)
        system.trusted_entity.restore_state(state["te"])
        # Pre-epoch snapshots carry no epoch entry: restore them at epoch 0.
        system.owner = DataOwner(
            state["dataset"],
            network=system._network,
            start_epoch=state.get("epoch", 0),
        )
        system._epoch_verifier = CachedVerifier(
            system.owner.epoch_verifier, capacity=design.verifier_cache
        )
        system.owner.adopt(system.provider, system.trusted_entity)
        system._ready = True
        return system

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Propagate an update batch from the DO to the SP and the TE.

        The batch is applied under the exclusive side of the system's
        shared/exclusive lock: concurrent queries either complete before it
        or see both parties fully updated.  Warm standbys replay the same
        batch and adopt the advanced epoch stamp, so every replica stays at
        the owner's current epoch.
        """
        self._ensure_open()
        with self._state_lock.write_locked():
            self.owner.apply_updates(batch)
            for standby in self._sp_replicas[1:]:
                standby.apply_updates(batch)
                standby.receive_epoch_stamp(self.owner.epoch_stamp)

    # ------------------------------------------------------------------ party legs
    def _serve_sp(
        self,
        query: RangeQuery,
        ctx: ExecutionContext,
        record_cache: Optional[dict] = None,
    ) -> Tuple[List[bytes], ResultResponse]:
        """The SP leg of one request: receive the query, return the result."""
        request = QueryRequest(query=query)
        self._network.channel("client", "SP").send(request, session=ctx)
        payloads = self.provider.execute(query, ctx, record_cache=record_cache)
        ctx.epoch_stamp = self.provider.current_stamp()
        result_message = _result_message(payloads)
        self._network.channel("SP", "client").send(result_message, session=ctx)
        return payloads, result_message

    def _serve_sp_chunk(
        self,
        queries: Sequence[RangeQuery],
        contexts: Sequence[ExecutionContext],
        record_cache: dict,
    ) -> List[Tuple[List[bytes], ResultResponse]]:
        """Serve a contiguous slice of a batch's SP legs on one worker.

        Chunking keeps the number of in-flight pool tasks at the worker
        count instead of the batch size, which avoids scheduler and lock
        convoy overhead on large batches.
        """
        return [
            self._serve_sp(query, ctx, record_cache)
            for query, ctx in zip(queries, contexts)
        ]

    def _serve_te(
        self, query: RangeQuery, ctx: ExecutionContext
    ) -> Tuple[Digest, VTResponse]:
        """The TE leg of one request: receive the query, return the token."""
        request = QueryRequest(query=query)
        self._network.channel("client", "TE").send(request, session=ctx)
        token = self.trusted_entity.generate_vt(query, ctx)
        token_message = VTResponse(token=token)
        self._network.channel("TE", "client").send(token_message, session=ctx)
        return token, token_message

    def _assemble(
        self,
        query: RangeQuery,
        ctx: ExecutionContext,
        result_message: ResultResponse,
        token_message: Optional[VTResponse],
        verification: SAEVerificationResult,
    ) -> QueryOutcome:
        sp_receipt = ctx.sp or ZERO_RECEIPT
        te_receipt = ctx.te or ZERO_RECEIPT
        receipt = QueryReceipt(
            query=query,
            sp=sp_receipt,
            te=te_receipt,
            auth_bytes=token_message.payload_bytes() if token_message is not None else 0,
            result_bytes=result_message.payload_bytes(),
            client_cpu_ms=verification.cpu_ms,
            bytes_by_channel=dict(ctx.bytes_by_channel),
        )
        return QueryOutcome.of(receipt, verification)

    # ------------------------------------------------------------------ shard legs
    def _serve_sp_leg(
        self,
        shard_id: int,
        query: RangeQuery,
        ctx: ExecutionContext,
        record_cache: Optional[dict] = None,
    ) -> Tuple[List[bytes], ResultResponse]:
        """One shard's SP leg of a scattered query, with replica failover.

        The leg walks the shard's replica rotation: dead replicas fail fast
        (without touching the replica) and are recorded on
        ``ctx.failed_replicas``, the first live replica serves the leg, and
        its epoch stamp rides along on ``ctx.epoch_stamp`` for the client's
        freshness check.  A dead replica does no work, so the retry leaves
        the leg-sum invariant (:meth:`QueryReceipt.matches_leg_sums`) intact.
        """
        party = f"SP{shard_id}"
        request = QueryRequest(query=query)
        self._network.channel("client", party).send(request, session=ctx)
        router = self._replica_router
        payloads: Optional[List[bytes]] = None
        failed: List[int] = []
        for replica in router.attempt_order(shard_id):
            if router.is_down(shard_id, replica):
                failed.append(replica)
                continue
            fleet = self._sp_replicas[replica]
            try:
                payloads = fleet.execute_shard(
                    shard_id, query, ctx, record_cache=record_cache
                )
            except ReplicaDownError:
                failed.append(replica)
                continue
            ctx.replica = replica
            ctx.failed_replicas = tuple(failed)
            ctx.epoch_stamp = fleet.shard(shard_id).current_stamp()
            break
        if payloads is None:
            raise ReplicaDownError(
                f"every replica of shard {shard_id} is down: {failed}"
            )
        result_message = _result_message(payloads)
        self._network.channel(party, "client").send(result_message, session=ctx)
        return payloads, result_message

    def _serve_te_leg(
        self, shard_id: int, query: RangeQuery, ctx: ExecutionContext
    ) -> Tuple[Digest, VTResponse]:
        """One shard's TE leg of a scattered query."""
        party = f"TE{shard_id}"
        request = QueryRequest(query=query)
        self._network.channel("client", party).send(request, session=ctx)
        token = self.trusted_entity.generate_vt_shard(shard_id, query, ctx)
        token_message = VTResponse(token=token)
        self._network.channel(party, "client").send(token_message, session=ctx)
        return token, token_message

    def _serve_te_leg_batch(
        self,
        shard_id: int,
        queries: Sequence[RangeQuery],
        contexts: Sequence[ExecutionContext],
    ) -> List[Tuple[Digest, VTResponse]]:
        """One shard's TE legs for a whole batch: a single shared tree walk."""
        party = f"TE{shard_id}"
        channel_in = self._network.channel("client", party)
        channel_out = self._network.channel(party, "client")
        for query, ctx in zip(queries, contexts):
            channel_in.send(QueryRequest(query=query), session=ctx)
        tokens = self.trusted_entity.shard(shard_id).generate_vt_batch(queries, contexts)
        results = []
        for ctx, token in zip(contexts, tokens):
            message = VTResponse(token=token)
            channel_out.send(message, session=ctx)
            results.append((token, message))
        return results

    def _assemble_sharded(
        self,
        query: RangeQuery,
        ctx: ExecutionContext,
        leg_receipts: Sequence[ShardLegReceipt],
        leg_contexts: Sequence[ExecutionContext],
        verification: SAEVerificationResult,
    ) -> QueryOutcome:
        """Merge shard legs into one outcome: charges are the leg sums."""
        sp_total = ZERO_RECEIPT
        te_total = ZERO_RECEIPT
        for leg in leg_receipts:
            sp_total = sp_total + leg.sp
            te_total = te_total + leg.te
        for leg_ctx in leg_contexts:
            for channel_name, nbytes in leg_ctx.bytes_by_channel.items():
                ctx.record_bytes(channel_name, nbytes)
        ctx.sp = sp_total
        ctx.te = te_total
        receipt = QueryReceipt(
            query=query,
            sp=sp_total,
            te=te_total,
            auth_bytes=sum(leg.auth_bytes for leg in leg_receipts),
            result_bytes=sum(leg.result_bytes for leg in leg_receipts),
            client_cpu_ms=verification.cpu_ms,
            bytes_by_channel=dict(ctx.bytes_by_channel),
            legs=tuple(leg_receipts),
        )
        return QueryOutcome.of(
            receipt, verification, {"shards": [leg.shard for leg in leg_receipts]}
        )

    def _query_sharded(
        self, query: RangeQuery, ctx: ExecutionContext, verify: bool
    ) -> QueryOutcome:
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
            te_futures: List[Optional[Future]] = [
                pool.submit(self._serve_te_leg, shard_id, query, leg_ctx)
                if verify
                else None
                for shard_id, leg_ctx in zip(shard_ids, leg_contexts)
            ]
            sp_results = [future.result() for future in sp_futures]
            te_results = [
                future.result() if future is not None else (None, None)
                for future in te_futures
            ]

        leg_receipts: List[ShardLegReceipt] = []
        verify_legs = []
        for shard_id, leg_ctx, (payloads, result_message), (token, token_message) in zip(
            shard_ids, leg_contexts, sp_results, te_results
        ):
            leg_receipts.append(
                ShardLegReceipt(
                    shard=shard_id,
                    sp=leg_ctx.sp or ZERO_RECEIPT,
                    te=leg_ctx.te or ZERO_RECEIPT,
                    auth_bytes=token_message.payload_bytes() if token_message else 0,
                    result_bytes=result_message.payload_bytes(),
                    replica=leg_ctx.replica,
                    failed_replicas=leg_ctx.failed_replicas,
                )
            )
            verify_legs.append((shard_id, payloads, token, leg_ctx.epoch_stamp))
        verification = self._verify_legs(verify, verify_legs, query, expected_epoch)
        return self._assemble_sharded(
            query, ctx, leg_receipts, leg_contexts, verification
        )

    def _verify_legs(
        self,
        verify: bool,
        legs: Sequence[Tuple],
        query: RangeQuery,
        expected_epoch: int,
        digest_cache: Optional[dict] = None,
    ) -> SAEVerificationResult:
        """The client's leg-by-leg verdict, or its decode-only skipped one."""
        if not verify:
            return self.client.verify([p for leg in legs for p in leg[1]], None)
        return self.client.verify_shards(
            legs,
            query=query,
            digest_cache=digest_cache,
            expected_epoch=expected_epoch,
            epoch_verifier=self._epoch_verifier,
        )

    def _serve_sp_leg_chunk(
        self,
        legs: Sequence[Tuple[int, int]],
        queries: Sequence[RangeQuery],
        leg_contexts: Dict[Tuple[int, int], ExecutionContext],
        record_caches: Dict[int, dict],
    ) -> List[Tuple[Tuple[int, int], Tuple[List[bytes], ResultResponse]]]:
        """Serve a slice of a batch's SP shard legs on one pool worker."""
        return [
            (
                (position, shard_id),
                self._serve_sp_leg(
                    shard_id,
                    queries[position],
                    leg_contexts[(position, shard_id)],
                    record_caches[shard_id],
                ),
            )
            for position, shard_id in legs
        ]

    def _query_many_sharded(
        self,
        queries: Sequence[RangeQuery],
        contexts: Sequence[ExecutionContext],
        verify: bool,
    ) -> List[QueryOutcome]:
        """Batched scatter-gather: SP legs chunked across the pool, one
        shared XB-tree walk per TE slice, shared verification caches."""
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
            # Group legs by shard so a worker's record cache stays hot, then
            # chunk to one future per pool worker (as in the unsharded path).
            ordered_legs = sorted(legs, key=lambda leg: (leg[1], leg[0]))
            num_chunks = max(1, min(len(ordered_legs), self._num_workers))
            chunk_size = (len(ordered_legs) + num_chunks - 1) // num_chunks
            sp_futures = [
                pool.submit(
                    self._serve_sp_leg_chunk,
                    ordered_legs[start:start + chunk_size],
                    queries,
                    leg_contexts,
                    record_caches,
                )
                for start in range(0, len(ordered_legs), chunk_size)
            ]

            te_map: Dict[Tuple[int, int], Tuple[Optional[Digest], Optional[VTResponse]]] = {}
            if verify:
                te_futures = []
                for shard_id in range(self.num_shards):
                    positions = [
                        position
                        for position, shard_ids in enumerate(shard_ids_per_query)
                        if shard_id in shard_ids
                    ]
                    if not positions:
                        continue
                    te_futures.append(
                        (
                            shard_id,
                            positions,
                            pool.submit(
                                self._serve_te_leg_batch,
                                shard_id,
                                [queries[p] for p in positions],
                                [leg_contexts[(p, shard_id)] for p in positions],
                            ),
                        )
                    )
                for shard_id, positions, future in te_futures:
                    for position, leg_result in zip(positions, future.result()):
                        te_map[(position, shard_id)] = leg_result

            sp_map: Dict[Tuple[int, int], Tuple[List[bytes], ResultResponse]] = {}
            for future in sp_futures:
                for leg, leg_result in future.result():
                    sp_map[leg] = leg_result

        digest_cache: dict = {}
        outcomes: List[QueryOutcome] = []
        for position, (query, ctx) in enumerate(zip(queries, contexts)):
            leg_receipts: List[ShardLegReceipt] = []
            query_leg_contexts: List[ExecutionContext] = []
            verify_legs = []
            for shard_id in shard_ids_per_query[position]:
                leg = (position, shard_id)
                payloads, result_message = sp_map[leg]
                token, token_message = te_map.get(leg, (None, None))
                query_leg_contexts.append(leg_contexts[leg])
                leg_ctx = leg_contexts[leg]
                leg_receipts.append(
                    ShardLegReceipt(
                        shard=shard_id,
                        sp=leg_ctx.sp or ZERO_RECEIPT,
                        te=leg_ctx.te or ZERO_RECEIPT,
                        auth_bytes=token_message.payload_bytes() if token_message else 0,
                        result_bytes=result_message.payload_bytes(),
                        replica=leg_ctx.replica,
                        failed_replicas=leg_ctx.failed_replicas,
                    )
                )
                verify_legs.append((shard_id, payloads, token, leg_ctx.epoch_stamp))
            verification = self._verify_legs(
                verify, verify_legs, query, expected_epoch, digest_cache
            )
            outcomes.append(
                self._assemble_sharded(
                    query, ctx, leg_receipts, query_leg_contexts, verification
                )
            )
        return outcomes

    # ------------------------------------------------------------------ queries
    def _empty_outcome(self, low: Any, high: Any, verify: bool) -> QueryOutcome:
        """The empty verified result a reversed range (``low > high``) gets.

        No party does any work, so every charge is zero; the receipt still
        carries the bounds the client asked for.  This is the degenerate-
        range contract shared by every registered scheme.
        """
        query = RangeQuery.degenerate(low, high, self._dataset.schema.key_column)
        if verify:
            verification = SAEVerificationResult(
                ok=True,
                computed=self._scheme.zero(),
                token=self._scheme.zero(),
                records_hashed=0,
                reason="empty range (low > high)",
            )
        else:
            verification = SAEVerificationResult.skipped_result(self._scheme)
        receipt = QueryReceipt(
            query=query,
            sp=ZERO_RECEIPT,
            te=ZERO_RECEIPT,
            auth_bytes=0,
            result_bytes=0,
            client_cpu_ms=0.0,
        )
        return QueryOutcome.of(receipt, verification)

    def query(self, low: Any, high: Any, verify: bool = True) -> QueryOutcome:
        """Issue one verified range query with parallel SP/TE dispatch.

        The SP execution and the TE token generation run concurrently on the
        system's thread pool -- they are independent parties in the paper's
        model -- and the client verifies as soon as both legs return.  In a
        sharded deployment the query is scattered to the overlapping shards
        only, every shard's SP and TE leg runs as its own pool task, and the
        gathered outcome carries the merged token and the summed charges.
        A reversed range returns an empty verified result at zero cost.
        """
        self._ensure_open()
        if not self._ready:
            raise RuntimeError("setup() must be called before issuing queries")
        if is_reversed_range(low, high):
            return self._empty_outcome(low, high, verify)
        query = RangeQuery(low=low, high=high, attribute=self._dataset.schema.key_column)
        ctx = ExecutionContext(query=query)
        if self._uses_fleet:
            return self._query_sharded(query, ctx, verify)
        pool = self._pool()

        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            sp_future: Future = pool.submit(self._serve_sp, query, ctx)
            te_future: Optional[Future] = (
                pool.submit(self._serve_te, query, ctx) if verify else None
            )
            payloads, result_message = sp_future.result()
            token_message: Optional[VTResponse] = None
            token: Optional[Digest] = None
            if te_future is not None:
                token, token_message = te_future.result()
        verification = self.client.verify(
            payloads,
            token,
            query=query,
            epoch_stamp=ctx.epoch_stamp,
            expected_epoch=expected_epoch,
            epoch_verifier=self._epoch_verifier,
        )
        return self._assemble(query, ctx, result_message, token_message, verification)

    def query_many(
        self, bounds: Sequence[Tuple[Any, Any]], verify: bool = True
    ) -> List[QueryOutcome]:
        """Issue a batch of range queries and return one outcome per query.

        The SP legs run concurrently on the thread pool; the TE answers the
        whole batch with :meth:`TrustedEntity.generate_vt_batch` (queries
        sorted, XB-tree walked once); verification shares a per-batch digest
        cache so records appearing in several overlapping results are hashed
        once.  Verdicts, per-query node-access counts and per-query byte
        accounting are identical to looping over :meth:`query`.  Reversed
        ranges anywhere in the batch come back as empty verified results
        with zero-cost receipts, in position.
        """
        self._ensure_open()
        if not self._ready:
            raise RuntimeError("setup() must be called before issuing queries")
        if not bounds:
            return []
        return self._weave_reversed(
            bounds, verify, lambda valid: self._query_many_valid(valid, verify)
        )

    def _query_many_valid(
        self, bounds: Sequence[Tuple[Any, Any]], verify: bool
    ) -> List[QueryOutcome]:
        """The batch path for bounds already known to be non-degenerate."""
        attribute = self._dataset.schema.key_column
        queries = [RangeQuery(low=low, high=high, attribute=attribute) for low, high in bounds]
        contexts = [ExecutionContext(query=query) for query in queries]
        if self._uses_fleet:
            return self._query_many_sharded(queries, contexts, verify)
        pool = self._pool()
        record_cache: dict = {}

        # One future per worker (contiguous slices), not one per query: the
        # SP legs of a big batch would otherwise thrash the scheduler.
        num_chunks = max(1, min(len(queries), self._num_workers))
        chunk_size = (len(queries) + num_chunks - 1) // num_chunks
        slices = [
            slice(start, start + chunk_size)
            for start in range(0, len(queries), chunk_size)
        ]
        token_messages: List[Optional[VTResponse]] = [None] * len(queries)
        tokens: List[Optional[Digest]] = [None] * len(queries)
        with self._state_lock.read_locked():
            expected_epoch = self.owner.epoch
            sp_futures = [
                pool.submit(
                    self._serve_sp_chunk, queries[piece], contexts[piece],
                    record_cache,
                )
                for piece in slices
            ]

            if verify:
                te_channel_in = self._network.channel("client", "TE")
                te_channel_out = self._network.channel("TE", "client")
                for query, ctx in zip(queries, contexts):
                    te_channel_in.send(QueryRequest(query=query), session=ctx)
                tokens = list(self.trusted_entity.generate_vt_batch(queries, contexts))
                for position, (token, ctx) in enumerate(zip(tokens, contexts)):
                    message = VTResponse(token=token)
                    te_channel_out.send(message, session=ctx)
                    token_messages[position] = message

            sp_results: List[Tuple[List[bytes], ResultResponse]] = []
            for future in sp_futures:
                sp_results.extend(future.result())

        digest_cache: dict = {}
        outcomes: List[QueryOutcome] = []
        for position, (payloads, result_message) in enumerate(sp_results):
            ctx = contexts[position]
            verification = self.client.verify(
                payloads,
                tokens[position],
                query=queries[position],
                digest_cache=digest_cache,
                epoch_stamp=ctx.epoch_stamp,
                expected_epoch=expected_epoch,
                epoch_verifier=self._epoch_verifier,
            )
            outcomes.append(
                self._assemble(
                    queries[position], ctx, result_message, token_messages[position],
                    verification,
                )
            )
        return outcomes

    # ------------------------------------------------------------------ reporting
    def storage_report(self) -> dict:
        """Storage footprint of every party (bytes)."""
        self._ensure_open()
        return {
            "sp_bytes": self.provider.storage_bytes(),
            "te_bytes": self.trusted_entity.storage_bytes(),
            "dataset_bytes": self._dataset.size_bytes(),
        }


#: Compatibility alias -- the deployment facade predates the scheme layer.
SAESystem = SaeScheme
