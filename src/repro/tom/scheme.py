"""The TOM deployment facade, behind the unified scheme interface.

:class:`TomScheme` (registered as ``"tom"``) runs the paper's baseline on the
same :class:`~repro.core.scheme.AuthScheme` lifecycle as SAE -- per-request
:class:`~repro.core.pipeline.ExecutionContext` accounting into immutable
:class:`~repro.core.pipeline.QueryReceipt` objects (VO bytes, node accesses,
simulated I/O ms and measured CPU ms on the same
:class:`~repro.core.pipeline.CostReceipt` axes as SAE), update batches that
are atomic with respect to in-flight queries (including the per-shard root
re-signing), batched dispatch, sharding, replicas and snapshots.  What is
TOM's own is the proof:

* the SP answers with the result records plus a verification object built
  from its MB-tree, sized through a cross-query record memo;
* under ``shards=N`` every shard keeps its own MB-tree whose root the DO
  signs individually, and every leg's (result, VO) pair is verified against
  its shard signature -- pinpointing a tampering shard while the honest
  legs still verify -- while the merged receipt equals the **sum of the
  shard legs** (:meth:`QueryReceipt.matches_leg_sums`);
* warm standbys adopt the primary's root signatures, and every update batch
  starts a new root-verification epoch.

A reversed range (``low > high``) is answered locally with an empty
verified result and a zero-cost receipt, identically to SAE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.attacks import AttackModel
from repro.core.dataset import Dataset
from repro.core.design import PhysicalDesign
from repro.core.pipeline import CostReceipt, ExecutionContext, QueryReceipt, ZERO_RECEIPT
from repro.core.scheme import AuthScheme, register_scheme
from repro.core.sharding import ShardedDeployment
from repro.crypto.digest import DigestScheme, RecordMemo
from repro.crypto.signatures import CachedVerifier
from repro.dbms.query import RangeQuery
from repro.network.messages import ResultResponse, VOResponse
from repro.storage.node_store import StorageConfig
from repro.tom.entities import (
    ShardedTomServiceProvider,
    TomClient,
    TomDataOwner,
    TomServiceProvider,
)
from repro.tom.verification import VerificationReport
from repro.tom.vo import VerificationObject


def skipped_report() -> VerificationReport:
    """The explicit "verification was not performed" outcome for TOM.

    ``ok`` is ``False`` so an unverified result can never present itself as
    a verified one -- the same contract as
    :meth:`~repro.core.client.SAEVerificationResult.skipped_result`.
    """
    return VerificationReport(
        ok=False, reason="verification skipped", details={"skipped": True}
    )


@dataclass
class TomQueryOutcome:
    """Everything measured for a single TOM query.

    ``receipt`` carries the same per-request accounting as an SAE outcome
    (the TE axis is zero -- TOM has no trusted entity), which is what lets
    the load driver, the scaling sweep and the benchmark gate consume both
    schemes generically.
    """

    query: RangeQuery
    records: List[Tuple[Any, ...]]
    report: VerificationReport
    sp_accesses: int
    sp_cost_ms: float
    auth_bytes: int
    result_bytes: int
    client_cpu_ms: float
    vo: Optional[VerificationObject]
    details: dict = field(default_factory=dict)
    receipt: Optional[QueryReceipt] = None

    @property
    def verification(self) -> VerificationReport:
        """The client's verdict (unified accessor shared with SAE outcomes)."""
        return self.report

    @property
    def verified(self) -> bool:
        """Whether the client actually verified and accepted the result."""
        return self.report.ok and not self.report.details.get("skipped", False)

    @property
    def cardinality(self) -> int:
        """Number of records the SP returned."""
        return len(self.records)

    @property
    def te_accesses(self) -> int:
        """Always 0: TOM has no trusted entity (kept for generic consumers)."""
        return 0

    @property
    def te_cost_ms(self) -> float:
        """Always 0.0: TOM has no trusted entity."""
        return 0.0

    @classmethod
    def of(
        cls,
        receipt: QueryReceipt,
        records: List[Tuple[Any, ...]],
        report: VerificationReport,
        vo: Optional[VerificationObject],
        details: Optional[dict] = None,
    ) -> "TomQueryOutcome":
        """The outcome of a receipt and a verdict; the flat cost fields
        mirror the receipt."""
        return cls(
            query=receipt.query,
            records=records,
            report=report,
            sp_accesses=receipt.sp.node_accesses,
            sp_cost_ms=receipt.sp.io_cost_ms,
            auth_bytes=receipt.auth_bytes,
            result_bytes=receipt.result_bytes,
            client_cpu_ms=receipt.client_cpu_ms,
            vo=vo,
            details=details or {},
            receipt=receipt,
        )


@register_scheme
class TomScheme(AuthScheme):
    """A complete TOM deployment (DO + SP fleet + client).

    The :class:`~repro.core.scheme.AuthScheme` template runs the lifecycle;
    this class supplies TOM's proof: the SP answers with the records plus a
    VO from its MB-tree, and the client checks the VO against the owner's
    root signature.
    """

    scheme_name = "tom"

    def __init__(
        self,
        dataset: Dataset,
        scheme: Optional[DigestScheme] = None,
        page_size: Optional[int] = None,
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        key_bits: int = 1024,
        seed: Optional[int] = 2009,
        index_fill_factor: float = 1.0,
        max_workers: Optional[int] = None,
        shards: Optional[Union[int, ShardedDeployment]] = None,
        replicas: Optional[int] = None,
        storage: Union[str, StorageConfig] = "memory",
        data_dir: Optional[str] = None,
        pool_pages: Optional[int] = None,
        signer=None,
        verifier=None,
        start_epoch: int = 0,
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
        self._build_providers(
            TomServiceProvider,
            ShardedTomServiceProvider,
            attack,
            scheme=self._scheme,
            page_size=self._page_size,
            node_access_ms=node_access_ms,
            index_fill_factor=index_fill_factor,
            storage=self._storage,
        )
        # ``signer``/``verifier`` inject pre-existing key material (the
        # snapshot-restore path); otherwise a pair is derived from
        # ``key_bits``/``seed``.
        self._adopt_owner(
            TomDataOwner(
                dataset,
                scheme=self._scheme,
                signer=signer,
                verifier=verifier,
                key_bits=key_bits,
                seed=seed,
                network=self._network,
                start_epoch=start_epoch,
            )
        )
        # Cross-query memo over record encodings and digests, shared between
        # the SP legs (payload sizing) and the client's VO reconstruction.
        self._record_memo = RecordMemo(
            self._scheme, capacity=self._design.memo_capacity
        )
        # Between two update batches every query re-verifies the *same* root
        # signature(s); the cached verifier skips the repeated RSA modular
        # exponentiation and is invalidated on every batch.
        self._root_verifier = CachedVerifier(
            self.owner.verifier, capacity=self._design.verifier_cache
        )
        self.client = TomClient(
            verifier=self._root_verifier,
            key_index=dataset.schema.key_index,
            scheme=self._scheme,
            memo=self._record_memo,
        )

    def _parties(self) -> Dict[str, Any]:
        return {"sp": self.provider}

    @property
    def record_memo(self) -> RecordMemo:
        """The deployment's cross-query record encoding/digest memo."""
        return self._record_memo

    @property
    def root_verifier(self) -> CachedVerifier:
        """The client's per-epoch cached root-signature verifier."""
        return self._root_verifier

    # ------------------------------------------------------------------ standbys
    def _sync_standby(
        self, standby: ShardedTomServiceProvider, shard_ids: Optional[Sequence[int]]
    ) -> None:
        """Adopt the primary's root signatures on a standby's identical slices."""
        primary_slices = self.provider.ads_slices()
        standby_slices = standby.ads_slices()
        targets = range(len(primary_slices)) if shard_ids is None else shard_ids
        for shard_id in targets:
            standby_slices[shard_id].signature = primary_slices[shard_id].signature

    def _after_update_batch(self) -> None:
        # The batch re-signed the touched roots: start a new verification
        # epoch so stale (root, signature) pairs cannot be served cached.
        self._root_verifier.invalidate()

    # ------------------------------------------------------------------ snapshots
    def _snapshot_extras(self, state: dict) -> None:
        # The owner's RSA key material travels with the slices' root
        # signatures, so a restored deployment serves verifiable VOs
        # without any re-signing.
        state["keys"] = (self.owner.signer, self.owner.verifier)

    @classmethod
    def restore(
        cls,
        data_dir: str,
        pool_pages: Optional[int] = None,
        max_workers: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> "TomScheme":
        """Warm-restart a deployment from a :meth:`snapshot` directory.

        ``state`` lets a caller that already loaded the snapshot state pass
        it through instead of unpickling it a second time.
        """
        state = cls._load_state(data_dir, state)
        signer, verifier = state["keys"]
        system = cls._reopen(
            data_dir,
            state,
            pool_pages,
            max_workers,
            # The owner and client must keep the *snapshotted* key pair (the
            # restored ADS slices carry signatures made with it) -- and
            # injecting it skips an entire wasted RSA key generation.
            signer=signer,
            verifier=verifier,
            # Pre-epoch snapshots carry no epoch entry: restore at epoch 0.
            start_epoch=state.get("epoch", 0),
        )
        system.provider.restore_state(state["provider"], state["dataset"])
        system.owner.adopt(system.provider)
        system._ready = True
        return system

    # ------------------------------------------------------------------ SP legs
    def _execute(self, provider, query, ctx, record_cache):
        return provider.execute(query, ctx)

    def _answer(
        self, party: str, served: Tuple[List[Tuple[Any, ...]], VerificationObject],
        ctx: ExecutionContext,
    ) -> Tuple[List[Tuple[Any, ...]], VerificationObject, ResultResponse, VOResponse]:
        """The result records, then their VO."""
        records, vo = served
        result_message = ResultResponse(
            records=records, payload_size_hint=self._size_result(records, ctx)
        )
        vo_message = VOResponse(vo=vo)
        channel = self._network.channel(party, "client")
        channel.send(result_message, session=ctx)
        channel.send(vo_message, session=ctx)
        return records, vo, result_message, vo_message

    def _size_result(
        self, records: List[Tuple[Any, ...]], ctx: ExecutionContext
    ) -> int:
        """Size the result payload through the memo, charging it to ``ctx.sp``.

        Equals ``sum(len(encode_record(r)))`` byte-for-byte; memo hit/miss
        tallies land on the SP receipt next to the pool counters.
        """
        with self._record_memo.scoped_stats() as memo:
            hint = sum(len(self._record_memo.encoded(record)) for record in records)
        if memo.hits or memo.misses:
            ctx.sp = (ctx.sp or ZERO_RECEIPT) + CostReceipt(
                memo_hits=memo.hits, memo_misses=memo.misses
            )
        return hint

    # ------------------------------------------------------------------ outcomes
    def _verify(
        self, records, vo, query: RangeQuery, epoch_stamp, expected_epoch: int
    ) -> VerificationReport:
        return self.client.verify(
            records,
            vo,
            query,
            epoch_stamp=epoch_stamp,
            expected_epoch=expected_epoch,
            epoch_verifier=self._epoch_verifier,
        )

    def _conclude(
        self, query, ctx, answer, proof, verify, expected_epoch, digest_cache=None
    ) -> TomQueryOutcome:
        records, vo, result_message, vo_message = answer
        report = (
            self._verify(records, vo, query, ctx.epoch_stamp, expected_epoch)
            if verify
            else skipped_report()
        )
        receipt = self._receipt(
            query,
            ctx,
            vo_message.payload_bytes(),
            result_message.payload_bytes(),
            report.details.get("cpu_ms", 0.0),
        )
        return TomQueryOutcome.of(receipt, records, report, vo)

    def _conclude_legs(
        self, query, ctx, shard_ids, leg_contexts, answers, proofs, verify,
        expected_epoch, digest_cache=None,
    ) -> TomQueryOutcome:
        """Merge shard legs into one outcome: charges are the leg sums.

        Every leg's (result, VO) pair is verified on its own against the
        leg's shard signature -- after the leg's epoch stamp passes the
        freshness check -- so the merged report pinpoints exactly which
        shard(s) tampered or served stale state
        (``report.details["shards"]``).
        """
        records: List[Tuple[Any, ...]] = []
        vos: List[VerificationObject] = []
        legs = []
        for shard_id, leg_ctx, (leg_records, vo, result_message, vo_message) in zip(
            shard_ids, leg_contexts, answers
        ):
            records.extend(leg_records)
            vos.append(vo)
            legs.append(self._leg_receipt(
                shard_id, leg_ctx, vo_message.payload_bytes(), result_message.payload_bytes()
            ))

        if verify:
            leg_reports: Dict[int, VerificationReport] = {}
            client_cpu_ms = 0.0
            rejected: List[int] = []
            freshness = False
            for shard_id, leg_ctx, (leg_records, vo, _, _) in zip(
                shard_ids, leg_contexts, answers
            ):
                leg_report = self._verify(
                    leg_records, vo, query, leg_ctx.epoch_stamp, expected_epoch
                )
                leg_reports[shard_id] = leg_report
                client_cpu_ms += leg_report.details.get("cpu_ms", 0.0)
                if not leg_report.ok:
                    rejected.append(shard_id)
                    freshness = freshness or bool(
                        leg_report.details.get("freshness_violation")
                    )
            if rejected:
                reason = (
                    f"shard(s) {', '.join(str(s) for s in sorted(rejected))} rejected: "
                    + "; ".join(leg_reports[s].reason for s in sorted(rejected))
                )
            else:
                reason = "verified"
            details: dict = {"shards": leg_reports, "cpu_ms": client_cpu_ms}
            if freshness:
                details["freshness_violation"] = True
            report = VerificationReport(
                ok=not rejected,
                reason=reason,
                records_hashed=sum(r.records_hashed for r in leg_reports.values()),
                digests_supplied=sum(r.digests_supplied for r in leg_reports.values()),
                boundaries=sum(r.boundaries for r in leg_reports.values()),
                details=details,
            )
        else:
            report = skipped_report()
            client_cpu_ms = 0.0

        receipt = self._merged_receipt(query, ctx, legs, leg_contexts, client_cpu_ms)
        return TomQueryOutcome.of(
            receipt, records, report, None, {"shards": list(shard_ids), "vos": vos}
        )

    def _empty_outcome(self, low: Any, high: Any, verify: bool) -> TomQueryOutcome:
        """The empty verified result a reversed range (``low > high``) gets."""
        if verify:
            report = VerificationReport(ok=True, reason="empty range (low > high)")
        else:
            report = skipped_report()
        return TomQueryOutcome.of(self._empty_receipt(low, high), [], report, None)
