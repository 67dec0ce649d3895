"""Unit tests for the heap-file table with a B+-tree index."""

import sys
import threading

import pytest

from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery
from repro.dbms.table import Table, TableError
from repro.storage.pager import FileBackedPager


@pytest.fixture()
def schema():
    return TableSchema(name="records", columns=("id", "key", "payload"))


@pytest.fixture()
def table(schema):
    return Table(schema, page_size=512)


def rec(i, key=None, payload=b"p"):
    return (i, key if key is not None else i * 10, payload)


class TestInsertGet:
    def test_insert_and_get_by_id(self, table):
        table.insert(rec(1))
        assert table.get(1) == rec(1)
        assert table.num_records == 1

    def test_duplicate_id_rejected(self, table):
        table.insert(rec(1))
        with pytest.raises(TableError):
            table.insert(rec(1))

    def test_get_missing_raises(self, table):
        with pytest.raises(TableError):
            table.get(99)

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(Exception):
            table.insert((1, 2))

    def test_get_by_rid(self, table):
        rid = table.insert(rec(3))
        assert table.get_by_rid(rid) == rec(3)


class TestRangeQueries:
    def test_range_query_returns_full_records_in_key_order(self, table):
        for i in range(50):
            table.insert(rec(i))
        query = RangeQuery(low=100, high=200)
        records = table.range_query(query)
        assert records == [rec(i) for i in range(10, 21)]

    def test_range_query_index_only(self, table):
        for i in range(20):
            table.insert(rec(i))
        pairs = table.range_query(RangeQuery(low=0, high=50), fetch_records=False)
        assert [key for key, _ in pairs] == [0, 10, 20, 30, 40, 50]

    def test_duplicate_keys(self, table):
        table.insert((1, 42, b"a"))
        table.insert((2, 42, b"b"))
        records = table.range_query(RangeQuery(low=42, high=42))
        assert sorted(r[0] for r in records) == [1, 2]


class TestDeleteUpdate:
    def test_delete_removes_from_index_and_heap(self, table):
        table.insert(rec(1))
        table.delete(1)
        assert table.num_records == 0
        assert table.range_query(RangeQuery(low=0, high=100)) == []
        with pytest.raises(TableError):
            table.get(1)

    def test_delete_missing_raises(self, table):
        with pytest.raises(TableError):
            table.delete(1)

    def test_update_same_key(self, table):
        table.insert(rec(1, key=10, payload=b"old"))
        table.update((1, 10, b"new"))
        assert table.get(1) == (1, 10, b"new")
        assert table.range_query(RangeQuery(low=10, high=10)) == [(1, 10, b"new")]

    def test_update_changes_key_moves_index_entry(self, table):
        table.insert(rec(1, key=10))
        table.update((1, 500, b"p"))
        assert table.range_query(RangeQuery(low=10, high=10)) == []
        assert table.range_query(RangeQuery(low=500, high=500)) == [(1, 500, b"p")]

    def test_update_missing_raises(self, table):
        with pytest.raises(TableError):
            table.update((1, 10, b"x"))

    def test_update_with_larger_payload_relocates(self, table):
        table.insert(rec(1, payload=b"s"))
        table.update((1, 10, b"much larger payload " * 5))
        assert table.get(1)[2] == b"much larger payload " * 5


class TestBulkLoadAndReporting:
    def test_bulk_load_round_trip(self, table):
        records = [rec(i) for i in range(500)]
        table.bulk_load(records)
        assert table.num_records == 500
        assert table.get(123) == rec(123)
        assert table.range_query(RangeQuery(low=0, high=90)) == [rec(i) for i in range(10)]

    def test_bulk_load_requires_empty_table(self, table):
        table.insert(rec(1))
        with pytest.raises(TableError):
            table.bulk_load([rec(2)])

    def test_bulk_load_handles_unsorted_input(self, table):
        records = [rec(i) for i in reversed(range(100))]
        table.bulk_load(records)
        table.index.validate()
        assert table.num_records == 100

    def test_scan_returns_all_records(self, table):
        records = [rec(i) for i in range(30)]
        table.bulk_load(records)
        assert sorted(table.scan()) == sorted(records)

    def test_size_bytes_and_counters(self, table):
        table.bulk_load([rec(i) for i in range(200)])
        assert table.size_bytes() == table.heap.size_bytes() + table.index.size_bytes()
        before = table.counter.node_accesses
        table.range_query(RangeQuery(low=0, high=1000))
        assert table.counter.node_accesses > before


class TestBatchedReads:
    @staticmethod
    def index_accesses(table, query):
        with table.counter.scoped() as tally:
            table.range_query(query, fetch_records=False)
        return tally.node_accesses

    def test_get_many_matches_get(self, table):
        table.bulk_load([rec(i) for i in range(40)])
        ids = [7, 3, 39, 3, 0]
        with table.counter.scoped() as tally:
            records = table.get_many(ids)
        assert records == [table.get(i, charge=False) for i in ids]
        assert tally.node_accesses == len(ids)

    def test_get_many_missing_id_raises_uncharged(self, table):
        table.bulk_load([rec(i) for i in range(5)])
        before = table.counter.node_accesses
        with pytest.raises(TableError, match="no record with id 99"):
            table.get_many([1, 99, 2])
        assert table.counter.node_accesses == before

    def test_range_payloads_charges_one_heap_access_per_record(self, table):
        table.bulk_load([rec(i) for i in range(300)])
        query = RangeQuery(low=500, high=1500)
        index = self.index_accesses(table, query)
        with table.counter.scoped() as tally:
            payloads = table.range_payloads(query)
        assert len(payloads) == 101
        assert tally.node_accesses == index + len(payloads)
        with table.counter.scoped() as tally:
            table.range_payloads(query, charge_heap=False)
        assert tally.node_accesses == index

    def test_record_cache_hits_are_charged_like_fetches(self, table):
        table.bulk_load([rec(i) for i in range(300)])
        cache = {}
        # (low, high, records not yet in the cache): a cold query, the same
        # query fully cached, a half-overlapping one, a disjoint one.
        for low, high, new in [(500, 1500, 101), (500, 1500, 0), (1000, 2500, 100), (0, 100, 11)]:
            query = RangeQuery(low=low, high=high)
            index = self.index_accesses(table, query)
            expected = table.range_payloads(query, charge_heap=False)
            cached_before = len(cache)
            with table.counter.scoped() as tally:
                payloads = table.range_payloads(query, record_cache=cache)
            assert payloads == expected
            assert len(cache) - cached_before == new
            assert tally.node_accesses == index + len(payloads)

    def test_threads_sharing_a_record_cache_each_see_their_own_charges(self, schema, tmp_path):
        pager = FileBackedPager(str(tmp_path / "heap.db"), page_size=512)
        table = Table(schema, page_size=512, heap_pager=pager)
        table.bulk_load([rec(i) for i in range(300)])
        queries = [RangeQuery(low=low, high=low + 800) for low in range(0, 2300, 100)]
        expected = [
            (self.index_accesses(table, query), table.range_payloads(query, charge_heap=False))
            for query in queries
        ]
        cache, failures = {}, []

        def reader(offset):
            for step in range(len(queries)):
                position = (offset + step) % len(queries)
                with table.counter.scoped() as tally:
                    payloads = table.range_payloads(queries[position], record_cache=cache)
                index, want = expected[position]
                if payloads != want or tally.node_accesses != index + len(want):
                    failures.append(position)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pager.close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
