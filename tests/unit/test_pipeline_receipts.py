"""Unit tests for the per-request accounting pipeline.

Covers the receipt objects, the scoped (re-entrant) access counter, the
per-session channel accounting, batched VT generation equivalence, and the
deprecated ``last_*`` shims.
"""

import random
import threading

import pytest

from repro.core.client import SAEVerificationResult
from repro.core.pipeline import (
    CostReceipt,
    ExecutionContext,
    QueryReceipt,
    ShardLegReceipt,
    ZERO_RECEIPT,
)
from repro.core.provider import ServiceProvider
from repro.core.trusted_entity import TrustedEntity
from repro.crypto.digest import SHA1, default_scheme
from repro.dbms.query import RangeQuery
from repro.metrics.collector import MetricSeries
from repro.network.channel import Channel
from repro.network.messages import QueryRequest
from repro.storage.cost_model import AccessCounter
from repro.xbtree import XBTree, generate_vt
from repro.xbtree.node import XBTreeLayout


class TestCostReceipt:
    def test_totals_and_addition(self):
        first = CostReceipt(node_accesses=3, cpu_ms=1.5, io_cost_ms=30.0)
        second = CostReceipt(node_accesses=2, cpu_ms=0.5, io_cost_ms=20.0)
        combined = first + second
        assert combined.node_accesses == 5
        assert combined.total_ms == pytest.approx(52.0)
        assert first.cost_ms() == 30.0
        assert first.cost_ms(include_cpu=True) == pytest.approx(31.5)
        assert ZERO_RECEIPT.node_accesses == 0

    def test_receipts_are_immutable(self):
        receipt = CostReceipt(node_accesses=1)
        with pytest.raises(AttributeError):
            receipt.node_accesses = 2

    def test_query_receipt_response_time_takes_slower_party(self):
        receipt = QueryReceipt(
            query=RangeQuery(low=0, high=1),
            sp=CostReceipt(node_accesses=4, io_cost_ms=40.0),
            te=CostReceipt(node_accesses=9, io_cost_ms=90.0),
            auth_bytes=20,
            result_bytes=100,
            client_cpu_ms=1.0,
        )
        assert receipt.response_time_ms == pytest.approx(91.0)


class TestLegSumInvariant:
    @staticmethod
    def _scattered(te_memo_hits=4):
        legs = (
            ShardLegReceipt(
                shard=0,
                sp=CostReceipt(node_accesses=4, io_cost_ms=40.0,
                               pool_hits=2, pool_misses=1,
                               memo_hits=5, memo_misses=2),
                te=CostReceipt(node_accesses=1, io_cost_ms=10.0, memo_hits=3),
                auth_bytes=20,
                result_bytes=100,
            ),
            ShardLegReceipt(
                shard=1,
                sp=CostReceipt(node_accesses=3, io_cost_ms=30.0,
                               pool_hits=1, pool_misses=2,
                               memo_hits=2, memo_misses=1),
                te=CostReceipt(node_accesses=2, io_cost_ms=20.0, memo_hits=1),
                auth_bytes=20,
                result_bytes=60,
            ),
        )
        return QueryReceipt(
            query=RangeQuery(low=0, high=9),
            sp=CostReceipt(node_accesses=7, io_cost_ms=70.0,
                           pool_hits=3, pool_misses=3,
                           memo_hits=7, memo_misses=3),
            te=CostReceipt(node_accesses=3, io_cost_ms=30.0,
                           memo_hits=te_memo_hits),
            auth_bytes=40,
            result_bytes=160,
            client_cpu_ms=1.0,
            legs=legs,
        )

    def test_consistent_memo_counters_pass(self):
        assert self._scattered().matches_leg_sums()

    def test_memo_counter_drift_is_detected(self):
        # One lost TE memo hit (e.g. a leg merged without its counters)
        # must break the scatter-gather invariant.
        assert not self._scattered(te_memo_hits=3).matches_leg_sums()

    def test_unscattered_receipt_is_trivially_consistent(self):
        receipt = QueryReceipt(
            query=RangeQuery(low=0, high=1),
            sp=CostReceipt(memo_hits=9),
            te=CostReceipt(),
            auth_bytes=0,
            result_bytes=0,
            client_cpu_ms=0.0,
        )
        assert receipt.matches_leg_sums()


class TestExecutionContext:
    def test_byte_accounting(self):
        ctx = ExecutionContext()
        ctx.record_bytes("client->SP", 10)
        ctx.record_bytes("client->SP", 5)
        ctx.record_bytes("TE->client", 28)
        assert ctx.channel_bytes("client->SP") == 15
        assert ctx.channel_bytes("SP->client") == 0
        assert ctx.total_bytes() == 43

    def test_channel_send_credits_session(self):
        channel = Channel("client", "SP")
        ctx = ExecutionContext()
        message = QueryRequest(query=RangeQuery(low=0, high=9))
        channel.send(message, session=ctx)
        channel.send(message)  # no session: only the aggregate moves
        assert ctx.channel_bytes("client->SP") == message.size_bytes()
        assert channel.stats.bytes == 2 * message.size_bytes()


class TestScopedCounter:
    def test_scope_captures_only_scope_charges(self):
        counter = AccessCounter()
        counter.record_node_access(5)
        with counter.scoped() as tally:
            counter.record_node_access(3)
        counter.record_node_access(2)
        assert tally.node_accesses == 3
        assert counter.node_accesses == 10

    def test_scopes_nest(self):
        counter = AccessCounter()
        with counter.scoped() as outer:
            counter.record_node_access()
            with counter.scoped() as inner:
                counter.record_node_access(2)
        assert inner.node_accesses == 2
        assert outer.node_accesses == 3

    def test_scopes_are_per_thread(self):
        counter = AccessCounter()
        seen = {}
        barrier = threading.Barrier(2)

        def worker(name, amount):
            with counter.scoped() as tally:
                barrier.wait()
                counter.record_node_access(amount)
                barrier.wait()
                seen[name] = tally.node_accesses

        threads = [
            threading.Thread(target=worker, args=("a", 2)),
            threading.Thread(target=worker, args=("b", 5)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": 2, "b": 5}
        assert counter.node_accesses == 7


def build_tree(num_tuples, seed, page_size=512):
    scheme = default_scheme()
    rng = random.Random(seed)
    tree = XBTree(layout=XBTreeLayout(page_size=page_size), scheme=scheme)
    items = sorted(
        (rng.randrange(0, 4000), position, scheme.hash(str(position).encode()))
        for position in range(num_tuples)
    )
    if items:
        tree.bulk_load(items)
    return tree, items


class TestGenerateVTBatch:
    @pytest.mark.parametrize("num_tuples", [0, 1, 40, 900])
    def test_tokens_and_charges_match_sequential(self, num_tuples):
        tree, items = build_tree(num_tuples, seed=num_tuples + 1)
        rng = random.Random(99)
        ranges = []
        for _ in range(120):
            a, b = rng.randrange(-50, 4100), rng.randrange(-50, 4100)
            if rng.random() < 0.75:
                a, b = min(a, b), max(a, b)
            ranges.append((a, b))
        for key, _, _ in items[:15]:
            ranges.append((key, key))  # exact-match endpoints

        expected_tokens, expected_counts = [], []
        for low, high in ranges:
            probe = AccessCounter()
            expected_tokens.append(
                generate_vt(tree.root, low, high, scheme=tree.scheme, counter=probe)
            )
            expected_counts.append(probe.node_accesses)

        tokens, counts = tree.generate_vt_batch(ranges, charge=False)
        assert tokens == expected_tokens
        assert counts == expected_counts

    def test_charge_hits_the_tree_counter_once_per_batch(self):
        tree, _ = build_tree(300, seed=5)
        before = tree.counter.node_accesses
        _, counts = tree.generate_vt_batch([(0, 100), (200, 2500)])
        assert tree.counter.node_accesses - before == sum(counts)


class TestEntityReceipts:
    @pytest.fixture()
    def dataset(self, small_dataset):
        return small_dataset

    def test_provider_execute_fills_context(self, dataset):
        provider = ServiceProvider()
        provider.receive_dataset(dataset)
        ctx = ExecutionContext()
        payloads = provider.execute(RangeQuery(low=0, high=2_000_000), ctx)
        assert payloads and all(type(payload) is bytes for payload in payloads)
        assert ctx.sp is not None
        assert ctx.sp.node_accesses > 0
        assert ctx.sp.io_cost_ms == ctx.sp.node_accesses * 10.0
        assert ctx.sp.cpu_ms >= 0.0

    def test_trusted_entity_batch_matches_per_query(self, dataset):
        queries = [
            RangeQuery(low=low, high=low + 400_000) for low in range(0, 4_000_000, 450_000)
        ]
        one_by_one = TrustedEntity()
        one_by_one.receive_dataset(dataset)
        batched = TrustedEntity()
        batched.receive_dataset(dataset)

        expected = []
        for query in queries:
            ctx = ExecutionContext(query=query)
            expected.append((one_by_one.generate_vt(query, ctx), ctx.te.node_accesses))

        contexts = [ExecutionContext(query=query) for query in queries]
        tokens = batched.generate_vt_batch(queries, contexts)
        assert [(token, ctx.te.node_accesses) for token, ctx in zip(tokens, contexts)] \
            == expected
        # the shared counter accumulated the batch's charges too
        assert batched.counter.node_accesses == sum(count for _, count in expected)

    def test_last_accessors_are_deprecated_shims(self, dataset):
        provider = ServiceProvider()
        provider.receive_dataset(dataset)
        ctx = ExecutionContext()
        provider.execute(RangeQuery(low=0, high=1_000_000), ctx)
        with pytest.deprecated_call():
            assert provider.last_query_accesses() == ctx.sp.node_accesses
        with pytest.deprecated_call():
            assert provider.last_query_cost_ms() == ctx.sp.io_cost_ms

        trusted = TrustedEntity()
        trusted.receive_dataset(dataset)
        te_ctx = ExecutionContext()
        trusted.generate_vt(RangeQuery(low=0, high=1_000_000), te_ctx)
        with pytest.deprecated_call():
            assert trusted.last_vt_accesses() == te_ctx.te.node_accesses


class TestSkippedVerification:
    def test_skipped_result_is_not_ok(self):
        result = SAEVerificationResult.skipped_result(SHA1)
        assert result.skipped
        assert not result.ok
        assert not bool(result)
        assert result.reason == "verification skipped"


class TestPercentiles:
    def test_percentile_interpolates(self):
        series = MetricSeries(name="latency")
        for value in [10.0, 20.0, 30.0, 40.0]:
            series.record("x", value)
        assert series.percentile("x", 0) == 10.0
        assert series.percentile("x", 50) == pytest.approx(25.0)
        assert series.percentile("x", 100) == 40.0
        assert series.percentile("x", 95) == pytest.approx(38.5)

    def test_percentile_edge_cases(self):
        series = MetricSeries(name="latency")
        assert series.percentile("missing", 50) == 0.0
        series.record("x", 7.0)
        assert series.percentile("x", 99) == 7.0
        with pytest.raises(ValueError):
            series.percentile("x", 101)
