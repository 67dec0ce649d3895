"""End-to-end SAE protocol façade.

:class:`SaeScheme` (registered as ``"sae"`` in the scheme registry) wires a
data owner, a service provider, a trusted entity and a client together over
byte-counting channels, and exposes the
:class:`~repro.core.scheme.AuthScheme` operations every consumer of the
scheme layer needs:

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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.attacks import AttackModel
from repro.core.client import Client, SAEVerificationResult
from repro.core.dataset import Dataset
from repro.core.design import PhysicalDesign
from repro.core.owner import DataOwner
from repro.core.pipeline import ExecutionContext, QueryReceipt, ShardLegReceipt
from repro.core.provider import ServiceProvider, ShardedServiceProvider
from repro.core.scheme import AuthScheme, register_scheme
from repro.core.sharding import ShardedDeployment
from repro.core.trusted_entity import ShardedTrustedEntity, TrustedEntity
from repro.crypto.digest import Digest, DigestScheme
from repro.dbms.query import RangeQuery
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


@register_scheme
class SaeScheme(AuthScheme):
    """A complete SAE deployment (DO + SP + TE + client).

    The :class:`~repro.core.scheme.AuthScheme` template runs the lifecycle;
    this class supplies SAE's proof: the SP answers with the records'
    canonical bytes, the trusted entity -- a party of its own, dispatched
    beside every SP leg -- with an XOR token, and the client checks one
    against the other.
    """

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
        self._init_deployment(
            dataset,
            scheme=scheme,
            design=design,
            shards=shards,
            replicas=replicas,
            pool_pages=pool_pages,
            page_size=page_size,
            storage=storage,
            data_dir=data_dir,
            node_access_ms=node_access_ms,
            index_fill_factor=index_fill_factor,
            max_workers=max_workers,
        )
        self._backend = backend
        self._build_providers(
            ServiceProvider,
            ShardedServiceProvider,
            attack,
            backend=backend,
            page_size=self._page_size,
            node_access_ms=node_access_ms,
            index_fill_factor=index_fill_factor,
            storage=self._storage,
        )
        te_options = dict(
            scheme=self._scheme,
            page_size=self._page_size,
            node_access_ms=node_access_ms,
            storage=self._storage,
        )
        self.trusted_entity: Union[TrustedEntity, ShardedTrustedEntity] = (
            ShardedTrustedEntity(
                self._deployment.num_shards,
                cut_points=self._deployment.cut_points,
                **te_options,
            )
            if self._uses_fleet
            else TrustedEntity(**te_options)
        )
        self._adopt_owner(DataOwner(dataset, network=self._network))
        self.client = Client(
            scheme=self._scheme,
            key_index=dataset.schema.key_index,
            arity=len(dataset.schema.columns),
        )

    def _parties(self) -> Dict[str, Any]:
        return {"sp": self.provider, "te": self.trusted_entity}

    # ------------------------------------------------------------------ snapshots
    def _snapshot_refusal(self) -> Optional[str]:
        refusal = super()._snapshot_refusal()
        if refusal is None and self._backend != "heap":
            return "snapshot() requires the heap backend (sqlite owns its own durability)"
        return refusal

    def _snapshot_extras(self, state: dict) -> None:
        state["params"]["backend"] = self._backend
        state["te"] = self.trusted_entity.snapshot_state()

    @classmethod
    def restore(
        cls,
        data_dir: str,
        pool_pages: Optional[int] = None,
        max_workers: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> "SaeScheme":
        """Warm-restart a deployment from a :meth:`snapshot` directory.

        Serving can begin immediately with a cold cache; ``state`` lets a
        caller that has already loaded the snapshot state pass it through.
        """
        state = cls._load_state(data_dir, state)
        system = cls._reopen(
            data_dir, state, pool_pages, max_workers, backend=state["params"]["backend"]
        )
        system.provider.restore_state(state["provider"], state["dataset"].schema)
        system.trusted_entity.restore_state(state["te"])
        # Pre-epoch snapshots carry no epoch entry: restore them at epoch 0.
        system._adopt_owner(
            DataOwner(
                state["dataset"],
                network=system._network,
                start_epoch=state.get("epoch", 0),
            )
        )
        system.owner.adopt(system.provider, system.trusted_entity)
        system._ready = True
        return system

    # ------------------------------------------------------------------ SP legs
    def _execute(
        self, provider, query: RangeQuery, ctx: ExecutionContext,
        record_cache: Optional[dict],
    ) -> List[bytes]:
        return provider.execute(query, ctx, record_cache=record_cache)

    def _answer(
        self, party: str, payloads: List[bytes], ctx: ExecutionContext
    ) -> Tuple[List[bytes], ResultResponse]:
        """The SP's answer as it is charged: the stored record bytes, nothing else."""
        result_message = ResultResponse(
            records=payloads, payload_size_hint=sum(map(len, payloads))
        )
        self._network.channel(party, "client").send(result_message, session=ctx)
        return payloads, result_message

    # ------------------------------------------------------------------ TE legs
    def _te_party(self, shard_id: Optional[int]):
        if shard_id is None:
            return "TE", self.trusted_entity
        return f"TE{shard_id}", self.trusted_entity.shard(shard_id)

    def _serve_te(
        self, query: RangeQuery, ctx: ExecutionContext, shard_id: Optional[int] = None
    ) -> Tuple[Digest, VTResponse]:
        """One TE leg: receive the query, return the token."""
        party, trusted_entity = self._te_party(shard_id)
        self._network.channel("client", party).send(QueryRequest(query=query), session=ctx)
        token = trusted_entity.generate_vt(query, ctx)
        token_message = VTResponse(token=token)
        self._network.channel(party, "client").send(token_message, session=ctx)
        return token, token_message

    def _serve_te_batch(
        self,
        queries: Sequence[RangeQuery],
        contexts: Sequence[ExecutionContext],
        shard_id: Optional[int] = None,
    ) -> List[Tuple[Digest, VTResponse]]:
        """A whole batch's TE legs: a single shared XB-tree walk."""
        party, trusted_entity = self._te_party(shard_id)
        channel_in = self._network.channel("client", party)
        channel_out = self._network.channel(party, "client")
        for query, ctx in zip(queries, contexts):
            channel_in.send(QueryRequest(query=query), session=ctx)
        tokens = trusted_entity.generate_vt_batch(queries, contexts)
        results = []
        for ctx, token in zip(contexts, tokens):
            message = VTResponse(token=token)
            channel_out.send(message, session=ctx)
            results.append((token, message))
        return results

    def _serve_unsharded(self, query: RangeQuery, ctx: ExecutionContext, verify: bool):
        """SP and TE legs run concurrently on the pool -- they are
        independent parties in the paper's model."""
        pool = self._pool()
        sp_future = pool.submit(self._serve_sp, query, ctx)
        te_future = pool.submit(self._serve_te, query, ctx) if verify else None
        answer = sp_future.result()
        return answer, te_future.result() if te_future is not None else None

    def _submit_leg_proofs(self, pool, query, shard_ids, leg_contexts, verify):
        return [
            pool.submit(self._serve_te, query, leg_ctx, shard_id) if verify else None
            for shard_id, leg_ctx in zip(shard_ids, leg_contexts)
        ]

    def _serve_proof_batch(self, queries, contexts, verify):
        """The TE answers the whole batch with one sorted XB-tree walk."""
        if not verify:
            return [None] * len(queries)
        return self._serve_te_batch(queries, contexts)

    def _serve_leg_proof_batches(
        self, pool, queries, shard_ids_per_query, leg_contexts, verify
    ):
        """One shared XB-tree walk per TE slice, each a pool task."""
        if not verify:
            return {}
        te_futures = []
        for shard_id in range(self.num_shards):
            positions = [
                position
                for position, shard_ids in enumerate(shard_ids_per_query)
                if shard_id in shard_ids
            ]
            if positions:
                te_futures.append((
                    shard_id,
                    positions,
                    pool.submit(
                        self._serve_te_batch,
                        [queries[p] for p in positions],
                        [leg_contexts[(p, shard_id)] for p in positions],
                        shard_id,
                    ),
                ))
        return {
            (position, shard_id): proof
            for shard_id, positions, future in te_futures
            for position, proof in zip(positions, future.result())
        }

    # ------------------------------------------------------------------ outcomes
    def _conclude(
        self, query, ctx, answer, proof, verify, expected_epoch, digest_cache=None
    ) -> QueryOutcome:
        """The client's verdict (a decode-only skipped one without a token)."""
        payloads, result_message = answer
        token, token_message = proof or (None, None)
        verification = self.client.verify(
            payloads,
            token,
            query=query,
            digest_cache=digest_cache,
            epoch_stamp=ctx.epoch_stamp,
            expected_epoch=expected_epoch,
            epoch_verifier=self._epoch_verifier,
        )
        receipt = self._receipt(
            query,
            ctx,
            token_message.payload_bytes() if token_message is not None else 0,
            result_message.payload_bytes(),
            verification.cpu_ms,
        )
        return QueryOutcome.of(receipt, verification)

    def _conclude_legs(
        self, query, ctx, shard_ids, leg_contexts, answers, proofs, verify,
        expected_epoch, digest_cache=None,
    ) -> QueryOutcome:
        """Leg-by-leg verdict, merged token and summed charges."""
        legs: List[ShardLegReceipt] = []
        verify_legs = []
        for shard_id, leg_ctx, (payloads, result_message), proof in zip(
            shard_ids, leg_contexts, answers, proofs
        ):
            token, token_message = proof or (None, None)
            legs.append(self._leg_receipt(
                shard_id,
                leg_ctx,
                token_message.payload_bytes() if token_message else 0,
                result_message.payload_bytes(),
            ))
            verify_legs.append((shard_id, payloads, token, leg_ctx.epoch_stamp))
        if verify:
            verification = self.client.verify_shards(
                verify_legs,
                query=query,
                digest_cache=digest_cache,
                expected_epoch=expected_epoch,
                epoch_verifier=self._epoch_verifier,
            )
        else:
            verification = self.client.verify([p for leg in verify_legs for p in leg[1]], None)
        receipt = self._merged_receipt(query, ctx, legs, leg_contexts, verification.cpu_ms)
        return QueryOutcome.of(receipt, verification, {"shards": list(shard_ids)})

    def _empty_outcome(self, low: Any, high: Any, verify: bool) -> QueryOutcome:
        """The empty verified result a reversed range (``low > high``) gets."""
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
        return QueryOutcome.of(self._empty_receipt(low, high), verification)
