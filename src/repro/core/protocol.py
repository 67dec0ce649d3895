"""End-to-end SAE protocol façade.

:class:`SaeScheme` (registered as ``"sae"`` in the scheme registry) wires a
data owner, a service provider, a trusted entity and a client together over
byte-counting channels, and exposes the
:class:`~repro.core.scheme.AuthScheme` operations every consumer of the
scheme layer needs:

* :meth:`SaeScheme.setup` -- the DO outsources its dataset;
* :meth:`SaeScheme.query` -- the client sends a range query to the SP and
  to the TE, verifies the result, and a :class:`QueryOutcome` captures
  every cost the paper reports (node accesses at SP and TE, authentication
  bytes, result bytes, client CPU time, verification verdict).  The paper's
  central claim is that the SP and the TE are independent, which is what
  keeps the response time low; the receipt's ``response_time_ms`` and
  ``critical_path_ms`` model that overlap from the counts, while the legs
  themselves run one after the other on the calling thread (they overlap
  for real only in separate processes);
* :meth:`SaeScheme.query_many` -- a batched variant: the SP executions run
  grouped by shard while each TE slice answers the whole batch with one
  shared XB-tree walk, and the client decodes and hashes each distinct
  record payload once across overlapping results.

Both run the one scatter path of :class:`~repro.core.scheme.AuthScheme`
(an unsharded deployment is a scatter with one leg, since the token of a
range is the XOR of its per-shard tokens).  :class:`SaeScheme` supplies
the hooks: :meth:`~SaeScheme._execute` / :meth:`~SaeScheme._answer` for an
SP leg, :meth:`~SaeScheme._serve_leg_proofs` /
:meth:`~SaeScheme._serve_leg_proof_batches` for the TE's token legs, and
:meth:`~SaeScheme._conclude_legs` for the client's verdict.

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
from repro.core.trusted_entity import ShardedTrustedEntity, TrustedEntity
from repro.crypto.digest import Digest, DigestScheme
from repro.dbms.query import RangeQuery
from repro.network.messages import QueryRequest, ResultResponse, VTResponse


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

    @property
    def payloads(self) -> Sequence[bytes]:
        """The canonical bytes ``records`` were decoded from, one per record."""
        return self.verification.payloads

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
    against the other (an unsharded deployment's one leg with
    :meth:`Client.verify`, a fleet's legs with :meth:`Client.verify_shards`).
    """

    scheme_name = "sae"

    def __init__(
        self,
        dataset: Dataset,
        scheme: Optional[DigestScheme] = None,
        backend: str = "heap",
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        design: Optional[PhysicalDesign] = None,
    ):
        self._init_deployment(
            dataset,
            scheme=scheme,
            design=design,
            storage=storage,
            data_dir=data_dir,
            node_access_ms=node_access_ms,
            index_fill_factor=index_fill_factor,
        )
        self._backend = backend
        self._build_providers(
            ServiceProvider,
            ShardedServiceProvider,
            attack,
            backend=backend,
            page_size=self._design.page_size,
            node_access_ms=node_access_ms,
            index_fill_factor=index_fill_factor,
            storage=self._storage,
        )
        te_options = dict(
            scheme=self._scheme,
            page_size=self._design.page_size,
            node_access_ms=node_access_ms,
            storage=self._storage,
        )
        self.trusted_entity: Union[TrustedEntity, ShardedTrustedEntity] = (
            ShardedTrustedEntity(
                self._design.shards,
                cut_points=self._design.cut_points,
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
        state: Optional[dict] = None,
    ) -> "SaeScheme":
        """Warm-restart a deployment from a :meth:`snapshot` directory.

        Serving can begin immediately with a cold cache; ``state`` lets a
        caller that has already loaded the snapshot state pass it through.
        """
        state = cls._load_state(data_dir, state)
        system = cls._reopen(
            data_dir, state, pool_pages, backend=state["params"]["backend"]
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
    def _te_party(self, shard_id: int):
        return self._party("TE", shard_id), self.trusted_entity.shard(shard_id)

    def _serve_te(
        self, query: RangeQuery, ctx: ExecutionContext, shard_id: int
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
        shard_id: int,
    ) -> List[Tuple[Digest, VTResponse]]:
        """A whole batch's TE legs on one slice: a single shared XB-tree walk."""
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

    def _serve_leg_proofs(self, query, shard_ids, leg_contexts, verify):
        """The TE's token legs, one per SP leg.  The TE is a party of its
        own in the paper's model; the receipt's ``response_time_ms`` and
        ``critical_path_ms`` charge the two legs as overlapping."""
        return [
            self._serve_te(query, leg_ctx, shard_id) if verify else None
            for shard_id, leg_ctx in zip(shard_ids, leg_contexts)
        ]

    def _serve_leg_proof_batches(self, queries, shard_ids_per_query, leg_contexts, verify):
        """One shared XB-tree walk per TE slice, in shard order."""
        if not verify:
            return {}
        proofs = {}
        for shard_id in range(self.num_shards):
            positions = [
                position
                for position, shard_ids in enumerate(shard_ids_per_query)
                if shard_id in shard_ids
            ]
            if positions:
                batch = self._serve_te_batch(
                    [queries[p] for p in positions],
                    [leg_contexts[(p, shard_id)] for p in positions],
                    shard_id,
                )
                proofs.update(
                    ((position, shard_id), proof)
                    for position, proof in zip(positions, batch)
                )
        return proofs

    # ------------------------------------------------------------------ outcomes
    def _conclude_legs(
        self, query, shard_ids, leg_contexts, answers, proofs, verify,
        expected_epoch, digest_cache=None,
    ) -> QueryOutcome:
        """Leg-by-leg verdict, merged token and summed charges.

        The one leg of an unsharded deployment gets the client's plain
        verdict; a fleet's legs are checked one by one and the verdicts
        merged, which pinpoints a tampering or stale shard.
        """
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
        if not verify:
            verification = self.client.verify([p for leg in verify_legs for p in leg[1]], None)
        elif self._uses_fleet:
            verification = self.client.verify_shards(
                verify_legs,
                query=query,
                digest_cache=digest_cache,
                expected_epoch=expected_epoch,
                epoch_verifier=self._epoch_verifier,
            )
        else:
            (_, payloads, token, epoch_stamp), = verify_legs
            verification = self.client.verify(
                payloads,
                token,
                query=query,
                digest_cache=digest_cache,
                epoch_stamp=epoch_stamp,
                expected_epoch=expected_epoch,
                epoch_verifier=self._epoch_verifier,
            )
        receipt = self._merged_receipt(query, legs, leg_contexts, verification.cpu_ms)
        details = {"shards": list(shard_ids)} if self._uses_fleet else None
        return QueryOutcome.of(receipt, verification, details)

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
