"""Unit tests for the SAE parties (client, provider, trusted entity, owner)."""

import pytest

from repro.core.attacks import DropAttack, NoAttack
from repro.core.client import Client
from repro.core.dataset import Dataset
from repro.core.owner import DataOwner
from repro.core.pipeline import ExecutionContext
from repro.core.provider import ProviderError, ServiceProvider
from repro.core.trusted_entity import TrustedEntity, TrustedEntityError
from repro.core.tuples import digest_record
from repro.core.updates import UpdateBatch
from repro.crypto.digest import SHA1, fold_xor
from repro.crypto.encoding import decode_record, encode_record
from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery

SCHEMA = TableSchema(name="t", columns=("id", "key", "payload"))


def dataset(count=60):
    return Dataset(schema=SCHEMA,
                   records=[(i, i * 10, f"p{i}".encode()) for i in range(count)])


def payloads_of(ds):
    """What an honest SP ships for the whole relation: the canonical bytes."""
    return [encode_record(record) for record in ds.records]


class TestClient:
    def test_result_xor_matches_te_tuples(self):
        ds = dataset(12)
        client = Client()
        expected = fold_xor(digest_record(record) for record in ds.records)
        assert client.verify(payloads_of(ds), expected).computed == expected

    def test_verify_accepts_matching_token(self):
        ds = dataset(5)
        client = Client(key_index=1)
        token = fold_xor(digest_record(record) for record in ds.records)
        result = client.verify(payloads_of(ds), token, query=RangeQuery(low=0, high=1000))
        assert result.ok
        assert result.records_hashed == 5
        assert result.records == ds.records  # decoded by the client itself

    def test_verify_rejects_wrong_token(self):
        ds = dataset(5)
        client = Client()
        result = client.verify(payloads_of(ds), SHA1.hash(b"not the token"))
        assert not result.ok
        assert "does not match" in result.reason

    def test_verify_rejects_out_of_range_record(self):
        ds = dataset(5)
        client = Client(key_index=1)
        token = fold_xor(digest_record(record) for record in ds.records)
        result = client.verify(payloads_of(ds), token, query=RangeQuery(low=0, high=5))
        assert not result.ok
        assert "outside the query range" in result.reason

    def test_empty_result_verifies_against_zero_token(self):
        client = Client()
        assert client.verify([], SHA1.zero()).ok


class TestServiceProvider:
    def test_requires_dataset_before_queries(self):
        provider = ServiceProvider()
        with pytest.raises(ProviderError):
            provider.execute(RangeQuery(low=0, high=1))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ServiceProvider(backend="postgres")

    def test_execute_returns_full_records(self):
        provider = ServiceProvider(page_size=512)
        provider.receive_dataset(dataset(30))
        payloads = provider.execute(RangeQuery(low=100, high=200))
        assert payloads == [
            encode_record((i, i * 10, f"p{i}".encode())) for i in range(10, 21)
        ]

    def test_cost_accounting(self):
        provider = ServiceProvider(page_size=512, node_access_ms=10.0)
        provider.receive_dataset(dataset(200))
        ctx = ExecutionContext()
        provider.execute(RangeQuery(low=0, high=500), ctx)
        assert ctx.sp.node_accesses > 0
        assert ctx.sp.cost_ms() == ctx.sp.node_accesses * 10.0
        assert ctx.sp.cost_ms(include_cpu=True) > ctx.sp.cost_ms()

    def test_index_only_accesses_cheaper_than_full_query(self):
        provider = ServiceProvider(page_size=512)
        provider.receive_dataset(dataset(500))
        query = RangeQuery(low=0, high=2000)
        ctx = ExecutionContext()
        provider.execute(query, ctx)
        full = ctx.sp.node_accesses
        index_only = provider.index_only_accesses(query)
        assert index_only < full

    def test_attack_property_and_honesty_flag(self):
        provider = ServiceProvider()
        assert provider.is_honest
        provider.attack = DropAttack(count=1)
        assert not provider.is_honest
        provider.attack = None
        assert isinstance(provider.attack, NoAttack)

    def test_sqlite_backend_equivalence(self):
        ds = dataset(80)
        heap_provider = ServiceProvider(backend="heap")
        sqlite_provider = ServiceProvider(backend="sqlite")
        heap_provider.receive_dataset(ds)
        sqlite_provider.receive_dataset(ds)
        query = RangeQuery(low=100, high=400)
        assert sorted(heap_provider.execute(query)) == sorted(sqlite_provider.execute(query))

    def test_apply_updates(self):
        provider = ServiceProvider()
        provider.receive_dataset(dataset(10))
        provider.apply_updates(UpdateBatch().insert((100, 55, b"new")).delete(0))
        payloads = provider.execute(RangeQuery(low=0, high=1000))
        ids = [decode_record(payload)[0] for payload in payloads]
        assert 100 in ids and 0 not in ids
        assert provider.num_records == 10

    def test_storage_bytes_positive(self):
        provider = ServiceProvider()
        provider.receive_dataset(dataset(100))
        assert provider.storage_bytes() > 0


class TestTrustedEntity:
    def test_requires_dataset(self):
        te = TrustedEntity()
        with pytest.raises(TrustedEntityError):
            te.generate_vt(RangeQuery(low=0, high=1))

    def test_vt_matches_brute_force(self):
        ds = dataset(120)
        te = TrustedEntity(page_size=512)
        te.receive_dataset(ds)
        query = RangeQuery(low=100, high=700)
        expected = fold_xor(digest_record(record) for record in ds.records
                            if 100 <= record[1] <= 700)
        assert te.generate_vt(query) == expected

    def test_vt_with_and_without_index_agree(self):
        ds = dataset(150)
        indexed = TrustedEntity(page_size=512, use_index=True)
        scanning = TrustedEntity(page_size=512, use_index=False)
        indexed.receive_dataset(ds)
        scanning.receive_dataset(ds)
        query = RangeQuery(low=333, high=999)
        indexed_ctx, scanning_ctx = ExecutionContext(), ExecutionContext()
        assert indexed.generate_vt(query, indexed_ctx) == scanning.generate_vt(query, scanning_ctx)
        assert indexed_ctx.te.node_accesses < scanning_ctx.te.node_accesses

    def test_updates_maintain_token(self):
        ds = dataset(40)
        te = TrustedEntity(page_size=512)
        te.receive_dataset(ds)
        batch = (UpdateBatch()
                 .insert((500, 150, b"inserted"))
                 .delete(3)
                 .modify((4, 40, b"modified")))
        te.apply_updates(batch, dataset_schema=SCHEMA)
        survivors = [record for record in ds.records if record[0] not in (3, 4)]
        survivors += [(500, 150, b"inserted"), (4, 40, b"modified")]
        expected = fold_xor(digest_record(record) for record in survivors
                            if 0 <= record[1] <= 10_000)
        assert te.generate_vt(RangeQuery(low=0, high=10_000)) == expected
        # 40 originals - 1 deleted + 1 inserted (the modification replaces in place).
        assert te.num_tuples == 40

    def test_delete_unknown_record_raises(self):
        te = TrustedEntity()
        te.receive_dataset(dataset(5))
        with pytest.raises(TrustedEntityError):
            te.apply_updates(UpdateBatch().delete(999), dataset_schema=SCHEMA)

    def test_storage_is_fraction_of_dataset(self):
        ds = Dataset(schema=SCHEMA,
                     records=[(i, i, b"x" * 480) for i in range(2000)])
        te = TrustedEntity()
        te.receive_dataset(ds)
        assert te.storage_bytes() < ds.size_bytes() * 0.5

    def test_cost_reporting(self):
        te = TrustedEntity(page_size=512, node_access_ms=10.0)
        te.receive_dataset(dataset(300))
        ctx = ExecutionContext()
        te.generate_vt(RangeQuery(low=0, high=500), ctx)
        assert ctx.te.node_accesses > 0
        assert ctx.te.cost_ms() == ctx.te.node_accesses * 10.0


class TestDataOwner:
    def test_outsource_transfers_dataset_and_counts_bytes(self):
        ds = dataset(20)
        owner = DataOwner(ds)
        provider, te = ServiceProvider(), TrustedEntity()
        owner.outsource(provider, te)
        assert provider.num_records == 20
        assert te.num_tuples == 20
        assert owner.network.bytes_sent("DO", "SP") > 0
        assert owner.network.bytes_sent("DO", "TE") > 0

    def test_updates_require_outsourcing_first(self):
        owner = DataOwner(dataset(5))
        with pytest.raises(RuntimeError):
            owner.insert_record((100, 1, b"x"))

    def test_update_propagation_keeps_parties_consistent(self):
        ds = dataset(30)
        owner = DataOwner(ds)
        provider, te = ServiceProvider(), TrustedEntity()
        owner.outsource(provider, te)
        owner.insert_record((300, 155, b"new"))
        owner.delete_record(2)
        owner.modify_record((5, 50, b"changed"))

        client = Client(key_index=1)
        query = RangeQuery(low=0, high=10_000)
        payloads = provider.execute(query)
        token = te.generate_vt(query)
        assert client.verify(payloads, token, query=query).ok
        assert owner.dataset.cardinality == 30
