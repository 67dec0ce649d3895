"""Property-based tests of the end-to-end SAE protocol.

These encode the paper's security statement directly: for any dataset and
any (drop-set, inject-set) corruption with ``DS != IS``, the client's check
``RS_SP⊕ == VT`` fails; and for the honest provider it always succeeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import Client
from repro.core.dataset import Dataset
from repro.core.provider import ServiceProvider
from repro.core.trusted_entity import TrustedEntity
from repro.crypto.encoding import decode_record, encode_record
from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery

SCHEMA = TableSchema(name="t", columns=("id", "key", "payload"))

record_payloads = st.binary(min_size=0, max_size=24)
keys = st.integers(min_value=0, max_value=100)

datasets = st.lists(
    st.tuples(keys, record_payloads), min_size=0, max_size=60
).map(lambda pairs: Dataset(
    schema=SCHEMA,
    records=[(rid, key, payload) for rid, (key, payload) in enumerate(pairs)],
))


def deploy(dataset):
    provider = ServiceProvider(page_size=512)
    trusted_entity = TrustedEntity(page_size=512)
    provider.receive_dataset(dataset)
    trusted_entity.receive_dataset(dataset)
    client = Client(key_index=SCHEMA.key_index)
    return provider, trusted_entity, client


class TestEndToEndProperties:
    @given(datasets, st.tuples(keys, keys))
    @settings(max_examples=40, deadline=None)
    def test_honest_provider_always_verifies(self, dataset, bounds):
        low, high = min(bounds), max(bounds)
        provider, trusted_entity, client = deploy(dataset)
        query = RangeQuery(low=low, high=high)
        payloads = provider.execute(query)
        token = trusted_entity.generate_vt(query)
        result = client.verify(payloads, token, query=query)
        assert result.ok
        assert sorted(result.records) == sorted(dataset.range(low, high))

    @given(datasets, st.tuples(keys, keys), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_tampering_with_nonempty_result_is_detected(self, dataset, bounds, data):
        low, high = min(bounds), max(bounds)
        provider, trusted_entity, client = deploy(dataset)
        query = RangeQuery(low=low, high=high)
        payloads = provider.execute(query)
        token = trusted_entity.generate_vt(query)
        if not payloads:
            return
        action = data.draw(st.sampled_from(["drop", "modify", "inject", "duplicate"]))
        tampered = list(payloads)
        if action == "drop":
            del tampered[data.draw(st.integers(0, len(tampered) - 1))]
        elif action == "modify":
            index = data.draw(st.integers(0, len(tampered) - 1))
            record = decode_record(tampered[index])
            tampered[index] = encode_record((record[0], record[1], record[2] + b"!"))
        elif action == "inject":
            key_inside = data.draw(st.integers(min_value=low, max_value=high))
            tampered.append(encode_record((10**9, key_inside, b"forged")))
        else:  # duplicate an existing record
            tampered.append(tampered[0])
        assert not client.verify(tampered, token, query=query).ok

    @given(datasets, st.tuples(keys, keys))
    @settings(max_examples=30, deadline=None)
    def test_token_is_stable_across_regeneration(self, dataset, bounds):
        low, high = min(bounds), max(bounds)
        _, trusted_entity, _ = deploy(dataset)
        query = RangeQuery(low=low, high=high)
        assert trusted_entity.generate_vt(query) == trusted_entity.generate_vt(query)

    @given(datasets, st.tuples(keys, keys))
    @settings(max_examples=30, deadline=None)
    def test_sqlite_and_heap_backends_agree(self, dataset, bounds):
        low, high = min(bounds), max(bounds)
        query = RangeQuery(low=low, high=high)
        heap_provider = ServiceProvider(backend="heap", page_size=512)
        heap_provider.receive_dataset(dataset)
        sqlite_provider = ServiceProvider(backend="sqlite")
        sqlite_provider.receive_dataset(dataset)
        assert sorted(heap_provider.execute(query)) == sorted(sqlite_provider.execute(query))
