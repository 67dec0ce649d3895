"""The TOM parties: data owner, (possibly sharded) service provider, client.

TOM is the paper's baseline (Figure 1): the DO builds the MB-tree over its
dataset and signs the root digest; the SP maintains an identical copy of the
ADS and answers every query with the result *and* a verification object; the
client reconstructs the root digest from the VO and checks the signature.

The deployment facade lives in :mod:`repro.tom.scheme`
(:class:`~repro.tom.scheme.TomScheme`), which wires these parties behind the
same :class:`~repro.core.scheme.AuthScheme` interface SAE implements.  A
range-sharded deployment uses :class:`ShardedTomServiceProvider` -- one
MB-tree per shard, each root signed individually by the DO -- so the
execution tier scales horizontally exactly like SAE's.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.attacks import AttackModel, NoAttack
from repro.core.dataset import Dataset
from repro.core.epoch import EpochAuthority, EpochStamp, classify_epoch
from repro.core.pipeline import CostReceipt, ExecutionContext
from repro.core.sharding import AttackableFleet, SingleShard, partition_dataset
from repro.core.tuples import digest_record
from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch
from repro.crypto.digest import DigestScheme, RecordMemo, default_scheme
from repro.crypto.encoding import decode_record, encode_record
from repro.crypto.signatures import RSASigner, RSAVerifier, Signature, make_rsa_pair
from repro.dbms.query import RangeQuery
from repro.dbms.table import Table
from repro.network.channel import NetworkTracker
from repro.network.messages import DatasetTransfer, UpdateNotification
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter, CostModel
from repro.storage.node_store import (
    NodeStore,
    PagedNodeStore,
    PoolStats,
    StorageConfig,
)
from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.verification import VerificationReport, verify_vo
from repro.tom.vo import VerificationObject


class TomError(RuntimeError):
    """Raised on protocol misuse in the TOM baseline."""


class TomDataOwner:
    """The TOM data owner: builds and signs the authenticated data structure."""

    def __init__(
        self,
        dataset: Dataset,
        scheme: Optional[DigestScheme] = None,
        signer: Optional[RSASigner] = None,
        verifier: Optional[RSAVerifier] = None,
        key_bits: int = 1024,
        seed: Optional[int] = 2009,
        network: Optional[NetworkTracker] = None,
        name: str = "DO",
        start_epoch: int = 0,
    ):
        self._dataset = dataset
        self._scheme = scheme or default_scheme()
        if signer is None or verifier is None:
            signer, verifier = make_rsa_pair(bits=key_bits, seed=seed)
        self._signer = signer
        self._verifier = verifier
        self._network = network or NetworkTracker()
        self._name = name
        self._provider: Optional["TomServiceProvider"] = None
        # The epoch stamps reuse the owner's root-signing key; the digest is
        # domain-separated (see repro.core.epoch.epoch_digest), so an epoch
        # signature can never be confused with a root signature.  Epoch
        # digests always use the default scheme (on both the signing and the
        # checking side), independent of the deployment's record scheme.
        self._epochs = EpochAuthority(self._signer, self._verifier, start_epoch=start_epoch)

    @property
    def dataset(self) -> Dataset:
        """The authoritative dataset."""
        return self._dataset

    @property
    def signer(self) -> RSASigner:
        """The owner's private signer (persisted by snapshots, never re-derived)."""
        return self._signer

    @property
    def verifier(self) -> RSAVerifier:
        """The public verifier clients use to check the root signature."""
        return self._verifier

    @property
    def network(self) -> NetworkTracker:
        """Byte-accounting network tracker."""
        return self._network

    @property
    def epoch(self) -> int:
        """The current signed update epoch (0 until the first update batch)."""
        return self._epochs.current

    @property
    def epoch_verifier(self) -> RSAVerifier:
        """The public verifier clients use to check epoch stamps."""
        return self._epochs.verifier

    @property
    def epoch_stamp(self) -> EpochStamp:
        """The signed stamp for the current epoch."""
        return self._epochs.stamp()

    def outsource(self, provider: "TomProvider") -> None:
        """Ship the dataset and the signed root digest(s) to the SP.

        Unlike in SAE, the DO must itself build (a copy of) the MB-tree in
        order to produce the root signature -- this is exactly the
        "defeating the purpose of outsourcing" drawback the paper points out.
        In a sharded deployment every shard's MB-tree root is signed
        individually, so each shard leg of a scattered query carries its own
        independently checkable signature.
        """
        transfer = DatasetTransfer(records=list(self._dataset.records))
        self._network.channel(self._name, "SP").send(transfer)
        provider.receive_dataset(self._dataset)
        self._sign_slices(provider)
        provider.receive_epoch_stamp(self._epochs.stamp())
        self._provider = provider

    def _sign_slices(self, provider: "TomProvider", shard_ids: Optional[Sequence[int]] = None) -> None:
        """(Re-)sign the root digest of every (or the given) ADS slice."""
        slices = provider.ads_slices()
        targets = range(len(slices)) if shard_ids is None else shard_ids
        for shard_id in targets:
            ads = slices[shard_id]
            ads.signature = self._signer.sign(ads.root_digest())

    def adopt(self, provider: "TomProvider") -> None:
        """Re-attach to a provider restored from a snapshot.

        No dataset transfer and **no re-signing** happens: the restored ADS
        slices carry the signatures this owner produced before the snapshot.
        The epoch stamp *is* re-issued (snapshots persist the epoch number,
        not the stamp object) so the restored SP can prove its freshness.
        """
        provider.receive_epoch_stamp(self._epochs.stamp())
        self._provider = provider

    def apply_updates(self, batch: UpdateBatch) -> None:
        """Apply updates locally, forward them, and re-sign the changed roots."""
        if self._provider is None:
            raise TomError("outsource() must be called before applying updates")
        for operation in batch:
            if isinstance(operation, InsertRecord):
                self._dataset.add(operation.fields)
            elif isinstance(operation, DeleteRecord):
                self._dataset.remove(operation.record_id)
            elif isinstance(operation, ModifyRecord):
                self._dataset.replace(operation.fields)
            else:
                raise TomError(f"unknown update operation {operation!r}")
        self._network.channel(self._name, "SP").send(UpdateNotification(operations=list(batch)))
        touched = self._provider.apply_updates(batch)
        self._sign_slices(self._provider, touched)
        self._provider.receive_epoch_stamp(self._epochs.advance())


class TomServiceProvider(SingleShard):
    """The TOM service provider: dataset storage plus the MB-tree ADS.

    ``storage`` selects the storage tier; the conventional B+-tree and the
    MB-tree ADS share one node store (``component`` names its backing file),
    and the heap file goes on a durable pager when a data directory is
    configured.
    """

    def __init__(
        self,
        scheme: Optional[DigestScheme] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        storage: Optional[StorageConfig] = None,
        component: str = "tom-sp",
    ):
        self._scheme = scheme or default_scheme()
        self._page_size = page_size
        self._index_fill_factor = index_fill_factor
        self._counter = AccessCounter()
        self._cost_model = CostModel(counter=self._counter)
        if node_access_ms is not None:
            self._cost_model.node_access_ms = node_access_ms
        self._attack: AttackModel = attack or NoAttack()
        self._storage = storage or StorageConfig()
        self._store: NodeStore = self._storage.node_store(component)
        self._memo = RecordMemo(self._scheme)
        self._heap_pager = self._storage.heap_pager(component)
        self._dataset: Optional[Dataset] = None
        self._records_by_rid = {}
        self._table: Optional[Table] = None
        self._ads: Optional[MBTree] = None
        self._epoch_stamp: Optional[EpochStamp] = None

    # ------------------------------------------------------------------ configuration
    @property
    def ads(self) -> MBTree:
        """The authenticated data structure (MB-tree)."""
        if self._ads is None:
            raise TomError("the service provider has not received a dataset yet")
        return self._ads

    @property
    def storage(self) -> StorageConfig:
        """The storage-tier configuration."""
        return self._storage

    @property
    def node_store(self) -> NodeStore:
        """The node store shared by the conventional index and the ADS."""
        return self._store

    @property
    def counter(self) -> AccessCounter:
        """Node-access counter shared by the ADS and the heap file."""
        return self._counter

    @property
    def attack(self) -> AttackModel:
        """The currently configured (mis)behaviour."""
        return self._attack

    @attack.setter
    def attack(self, value: Optional[AttackModel]) -> None:
        self._attack = value or NoAttack()

    @property
    def is_honest(self) -> bool:
        """True when no attack is configured."""
        return isinstance(self._attack, NoAttack)

    # ------------------------------------------------------------------ data management
    def receive_dataset(self, dataset: Dataset) -> None:
        """Store the dataset and build the MB-tree over it."""
        self._dataset = dataset
        self._table = Table(
            dataset.schema,
            page_size=self._page_size,
            counter=self._counter,
            index_fill_factor=self._index_fill_factor,
            store=self._store,
            heap_pager=self._heap_pager,
        )
        self._table.bulk_load(dataset.records)
        layout = MBTreeLayout(page_size=self._page_size, digest_size=self._scheme.digest_size)
        self._ads = MBTree(layout=layout, scheme=self._scheme, counter=self._counter,
                           store=self._store)
        triples = []
        for record in dataset.records:
            record_id = dataset.id_of(record)
            triples.append(
                (dataset.key_of(record), record_id,
                 digest_record(record, self._scheme, memo=self._memo))
            )
        triples.sort(key=lambda triple: (triple[0], str(triple[1])))
        self._ads.bulk_load(
            triples, fill_factor=self._index_fill_factor
        )

    def install_signature(self, signature: Signature) -> None:
        """Attach the data owner's root signature to the ADS."""
        self.ads.signature = signature

    def ads_slices(self) -> List[MBTree]:
        """The ADS slice list (a single MB-tree for the unsharded provider)."""
        return [self.ads]

    def receive_epoch_stamp(self, stamp: EpochStamp) -> None:
        """Adopt the owner-signed update-epoch stamp for the current state."""
        self._epoch_stamp = stamp

    def current_stamp(self) -> Optional[EpochStamp]:
        """The epoch stamp returned with answers (attack may override it)."""
        override = getattr(self._attack, "epoch_stamp", None)
        return override if override is not None else self._epoch_stamp

    def apply_updates(self, batch: UpdateBatch) -> List[int]:
        """Apply an update batch; returns the ids of the touched ADS slices."""
        if self._table is None or self._ads is None or self._dataset is None:
            raise TomError("the service provider has not received a dataset yet")
        schema = self._dataset.schema
        for operation in batch:
            if isinstance(operation, InsertRecord):
                fields = operation.fields
                self._table.insert(fields)
                self._ads.insert(
                    fields[schema.key_index],
                    fields[schema.id_index],
                    digest_record(fields, self._scheme, memo=self._memo),
                )
            elif isinstance(operation, DeleteRecord):
                fields = self._table.get(operation.record_id, charge=False)
                self._table.delete(operation.record_id)
                self._ads.delete(fields[schema.key_index], operation.record_id)
            elif isinstance(operation, ModifyRecord):
                fields = operation.fields
                old = self._table.get(fields[schema.id_index], charge=False)
                self._table.update(fields)
                self._ads.delete(old[schema.key_index], fields[schema.id_index])
                self._ads.insert(
                    fields[schema.key_index],
                    fields[schema.id_index],
                    digest_record(fields, self._scheme, memo=self._memo),
                )
            else:
                raise TomError(f"unknown update operation {operation!r}")
        return [0] if len(batch) else []

    # ------------------------------------------------------------------ queries
    def execute(
        self, query: RangeQuery, ctx: Optional[ExecutionContext] = None
    ) -> Tuple[List[bytes], VerificationObject]:
        """Answer a range query with the result payloads and their VO.

        The payloads are the canonical record bytes the heap file stores,
        handed on as :meth:`HeapFile.get_many` returns them, never decoded
        here.  An attack acts on tuples, so a misbehaving SP decodes,
        corrupts and re-encodes what it sends.

        The per-query cost is returned as a :class:`CostReceipt` on
        ``ctx.sp``, mirroring the SAE provider's re-entrant accounting.
        """
        if self._table is None or self._ads is None:
            raise TomError("the service provider has not received a dataset yet")
        with self._counter.scoped() as tally, self._store.scoped_stats() as pool:
            started = time.perf_counter()
            matches, vo = self._ads.build_vo(
                query.low,
                query.high,
                record_loader=lambda record_id: self._table.get(record_id, charge=True),
            )
            payloads = self._table.get_payloads([record_id for _, record_id in matches])
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
            return payloads, vo
        corrupted = self._attack.apply([decode_record(p) for p in payloads], query)
        return [encode_record(record) for record in corrupted], vo

    def query_only(self, query: RangeQuery) -> List[bytes]:
        """Answer a range query through the ADS without building a VO.

        Used by the processing-cost experiment (Figure 6), which compares the
        SP's pure query cost under TOM (MB-tree) and SAE (B+-tree); both
        return the stored payloads.
        """
        if self._table is None or self._ads is None:
            raise TomError("the service provider has not received a dataset yet")
        matches = self._ads.range_search(query.low, query.high)
        return self._table.get_payloads([record_id for _, record_id in matches])

    def index_only_accesses(self, query: RangeQuery) -> int:
        """Node accesses of the MB-tree traversal and leaf scan alone."""
        with self._counter.scoped() as tally:
            self.ads.range_search(query.low, query.high)
        return tally.node_accesses

    # ------------------------------------------------------------------ persistence
    def flush_storage(self) -> None:
        """Flush the paged node store and heap pager (no-op under memory)."""
        self._store.flush()
        if self._table is not None:
            self._table.flush()

    def close_storage(self) -> None:
        """Flush and close the paged store and heap pager (idempotent)."""
        self._store.close()
        if self._heap_pager is not None:
            self._heap_pager.close()

    def snapshot_state(self) -> dict:
        """Picklable SP state for deployment snapshots.

        The ADS slice's :meth:`~repro.tom.mbtree.MBTree.tree_state` carries
        the owner's root signature, so a restored deployment serves
        verifiable VOs without any re-signing.
        """
        if self._table is None or self._ads is None:
            raise TomError("the service provider has not received a dataset yet")
        state = {
            "table": self._table.table_state(),
            "ads": self._ads.tree_state(),
        }
        if isinstance(self._store, PagedNodeStore):
            state["store"] = self._store.snapshot_state()
        return state

    def restore_state(self, state: dict, dataset: Dataset) -> None:
        """Rebuild the SP from a snapshot (store files already reopened)."""
        if isinstance(self._store, PagedNodeStore):
            self._store.restore_state(state["store"])
        self._dataset = dataset
        self._table = Table(
            dataset.schema,
            page_size=self._page_size,
            counter=self._counter,
            index_fill_factor=self._index_fill_factor,
            store=self._store,
            heap_pager=self._heap_pager,
        )
        self._table.adopt_state(state["table"])
        layout = MBTreeLayout(page_size=self._page_size, digest_size=self._scheme.digest_size)
        self._ads = MBTree(layout=layout, scheme=self._scheme, counter=self._counter,
                           store=self._store)
        self._ads.adopt_state(state["ads"])

    # ------------------------------------------------------------------ reporting
    def pool_stats(self) -> PoolStats:
        """Lifetime buffer-pool stats of the SP's node store."""
        return self._store.stats

    def storage_bytes(self) -> int:
        """Storage at the SP: dataset heap file + B+-tree + the MB-tree ADS."""
        if self._table is None or self._ads is None:
            raise TomError("the service provider has not received a dataset yet")
        # In TOM the MB-tree *replaces* the conventional index on the query
        # attribute: charge the heap file and the ADS.
        return self._table.heap.size_bytes() + self._ads.size_bytes()


class TomClient:
    """The TOM client: reconstructs the root digest from the VO.

    All it takes from the SP are the result payloads (canonical record
    bytes), the VO and the signed epoch stamp: it hashes the bytes it
    received and decodes them once, for the key-range check.
    ``verifier`` may be any :class:`~repro.crypto.signatures.Verifier`,
    including a :class:`~repro.crypto.signatures.CachedVerifier` that skips
    the RSA exponentiation for root/signature pairs that already verified
    this epoch.
    """

    def __init__(self, verifier, key_index: int, scheme: Optional[DigestScheme] = None):
        self._verifier = verifier
        self._key_index = key_index
        self._scheme = scheme or default_scheme()

    def verify(
        self,
        payloads: Sequence[bytes],
        vo: VerificationObject,
        query: RangeQuery,
        epoch_stamp: Optional[EpochStamp] = None,
        expected_epoch: Optional[int] = None,
        epoch_verifier=None,
    ) -> VerificationReport:
        """Verify the result payloads against their VO and the owner's signature.

        When ``expected_epoch`` and ``epoch_verifier`` are given, the SP's
        signed update-epoch stamp is checked *before* the VO: a stale replica
        serves a VO whose root signature is genuinely valid for the old
        state, so only the stamp can expose it.  The failure is reported
        with ``details["freshness_violation"]`` set, distinct from tampering.
        """
        started = time.perf_counter()
        if expected_epoch is not None and epoch_verifier is not None:
            verdict = classify_epoch(epoch_stamp, expected_epoch, epoch_verifier)
            if not verdict.ok:
                report = VerificationReport(ok=False, reason=verdict.reason)
                report.details.update(verdict.details())
                report.details["cpu_ms"] = (time.perf_counter() - started) * 1000.0
                return report
        report = verify_vo(
            vo,
            payloads,
            query.low,
            query.high,
            verifier=self._verifier,
            key_index=self._key_index,
            scheme=self._scheme,
        )
        report.details["cpu_ms"] = (time.perf_counter() - started) * 1000.0
        return report


class ShardedTomServiceProvider(AttackableFleet):
    """A fleet of :class:`TomServiceProvider` shards behind one SP interface.

    The relation is range-partitioned on the query attribute by the same
    deterministic :class:`~repro.core.sharding.ShardRouter` the SAE parties
    derive; each shard stores its slice in its own heap file + B+-tree *and*
    maintains its own MB-tree, whose root the DO signs individually.  A
    scattered query yields one (result, VO) pair per overlapping shard; the
    client verifies every leg against its shard signature, which pinpoints
    a tampering shard while the honest legs still verify.  Receipts merged
    onto a context are the sums of the shard legs.

    There is deliberately no merged ``execute`` on the fleet: each leg
    carries its own VO and shard signature, so the legs cannot collapse into
    the single-provider ``(records, vo)`` shape -- the scheme facade drives
    every shard's ``execute`` individually.
    """

    not_ready_error = TomError
    not_ready_message = "the service provider has not received a dataset yet"

    def __init__(
        self,
        num_shards: int,
        scheme: Optional[DigestScheme] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        node_access_ms: Optional[float] = None,
        attack: Optional[AttackModel] = None,
        index_fill_factor: float = 1.0,
        storage: Optional[StorageConfig] = None,
        component_prefix: str = "tom-sp",
        cut_points=None,
    ):
        self._scheme = scheme or default_scheme()
        self._init_fleet(
            num_shards,
            lambda shard_id: TomServiceProvider(
                scheme=self._scheme,
                page_size=page_size,
                node_access_ms=node_access_ms,
                attack=None,
                index_fill_factor=index_fill_factor,
                storage=storage,
                component=f"{component_prefix}{shard_id}",
            ),
            cut_points=cut_points,
        )
        if attack is not None:
            self.attack = attack

    # ------------------------------------------------------------------ data management
    def ads_slices(self) -> List[MBTree]:
        """One MB-tree per shard, in shard order (each signed individually)."""
        return [shard.ads for shard in self._shards]

    def apply_updates(self, batch: UpdateBatch) -> List[int]:
        """Route each operation to its owning shard; returns touched shard ids."""
        if not self._map.ready:
            raise TomError("the service provider has not received a dataset yet")
        touched: List[int] = []
        for shard_id, (shard, shard_batch) in enumerate(
            zip(self._shards, self._map.route(batch))
        ):
            if len(shard_batch):
                shard.apply_updates(shard_batch)
                touched.append(shard_id)
        return touched

    # ------------------------------------------------------------------ queries
    def index_only_accesses(self, query: RangeQuery) -> int:
        """Summed MB-tree traversal accesses of the overlapping shard legs."""
        return sum(
            self._shards[shard_id].index_only_accesses(query)
            for shard_id in self.shards_for(query)
        )

    # ------------------------------------------------------------------ persistence
    def restore_state(self, state: dict, dataset: Dataset) -> None:
        """Rebuild the fleet from a snapshot (store files already reopened)."""
        self._map.restore_state(state["map"])
        slices = partition_dataset(dataset, self._map.require_router())
        for shard, shard_state, sub_dataset in zip(
            self._shards, state["shards"], slices
        ):
            shard.restore_state(shard_state, sub_dataset)

    # ------------------------------------------------------------------ reporting
    def records_per_shard(self) -> List[int]:
        """Record counts by shard (balance diagnostics; empty shards show 0)."""
        return [len(shard.ads) for shard in self._shards]


#: Either provider shape the TOM data owner can outsource to.
TomProvider = Any
