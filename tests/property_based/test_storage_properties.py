"""Property-based tests for the heap file and the table layer."""

import os
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dbms.catalog import TableSchema
from repro.dbms.query import RangeQuery
from repro.dbms.table import Table
from repro.storage.cost_model import AccessCounter
from repro.storage.heapfile import HeapFile, HeapFileError, RecordId
from repro.storage.pager import FileBackedPager, InMemoryPager

payloads = st.binary(min_size=0, max_size=120)

#: A heap history: (operation, payload, which live record it targets).
histories = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update"]),
              st.binary(max_size=60), st.integers(0, 1000)),
    min_size=1, max_size=60,
)


@contextmanager
def heap_after(kind, history):
    """A heap over a ``kind`` pager sharing one counter, after ``history``.

    Yields the heap, its live RIDs and the RIDs of deleted records.
    """
    with tempfile.TemporaryDirectory() as directory:
        counter = AccessCounter()
        if kind == "memory":
            pager = InMemoryPager(page_size=256, counter=counter)
        else:
            pager = FileBackedPager(os.path.join(directory, "heap.db"), page_size=256,
                                    counter=counter)
        try:
            heap = HeapFile(pager=pager, counter=counter)
            live, dead = [], []
            for operation, payload, target in history:
                if operation == "insert" or not live:
                    live.append(heap.insert(payload))
                    continue
                rid = live.pop(target % len(live))
                if operation == "delete":
                    heap.delete(rid)
                    dead.append(rid)
                else:
                    new_rid = heap.update(rid, payload)
                    live.append(new_rid)
                    if new_rid != rid:
                        dead.append(rid)
            yield heap, live, dead
        finally:
            pager.close()


def charged(counter, read):
    """Run ``read`` in a scope; return its result, shared and scoped counts."""
    before = counter.snapshot()
    with counter.scoped() as tally:
        result = read()
    delta = counter.delta(before)
    return result, (delta.node_accesses, delta.page_reads), (tally.node_accesses, tally.page_reads)


class TestHeapFileProperties:
    @given(st.lists(payloads, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_insert_then_read_back_everything(self, items):
        heap = HeapFile(page_size=512)
        rids = [heap.insert(payload) for payload in items]
        assert [heap.get(rid, charge=False) for rid in rids] == items
        assert heap.num_records == len(items)

    @given(st.lists(payloads, min_size=1, max_size=100), st.data())
    @settings(max_examples=60, deadline=None)
    def test_deleting_some_records_preserves_the_rest(self, items, data):
        heap = HeapFile(page_size=512)
        rids = [heap.insert(payload) for payload in items]
        victim_count = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
        victims = set(data.draw(st.permutations(range(len(items))))[:victim_count])
        for index in victims:
            heap.delete(rids[index])
        for index, (rid, payload) in enumerate(zip(rids, items)):
            if index in victims:
                continue
            assert heap.get(rid, charge=False) == payload
        assert heap.num_records == len(items) - len(victims)


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestHeapFileBatchReads:
    @given(histories, st.data(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_get_many_equals_one_get_per_rid(self, kind, history, data, charge):
        with heap_after(kind, history) as (heap, live, _):
            # Up to 150 RIDs, so a read crosses the pager-call boundary at 64.
            rids = data.draw(st.lists(st.sampled_from(live), max_size=150)) if live else []
            counter = heap.counter
            with counter.scoped() as outer:
                looped = charged(counter, lambda: [heap.get(rid, charge=charge) for rid in rids])
                outer_looped = (outer.node_accesses, outer.page_reads)
                batched = charged(counter, lambda: heap.get_many(rids, charge=charge))
            assert batched == looped
            assert (outer.node_accesses, outer.page_reads) == tuple(2 * n for n in outer_looped)
            assert looped[1] == (len(rids) if charge else 0, len(rids))

    @given(histories, st.data())
    @settings(max_examples=40, deadline=None)
    def test_bad_rid_raises_the_same_error_and_charges_no_access(self, kind, history, data):
        with heap_after(kind, history + [("insert", b"x", 0)]) as (heap, live, dead):
            bad_kinds = ["page", "slot"] + (["tombstone"] if dead else [])
            bad_kind = data.draw(st.sampled_from(bad_kinds))
            if bad_kind == "page":
                bad = RecordId(data.draw(st.sampled_from([-1, heap.num_pages, heap.num_pages + 7])), 0)
            elif bad_kind == "slot":
                bad = RecordId(data.draw(st.sampled_from(live)).page_no, 1000)
            else:
                bad = data.draw(st.sampled_from(dead))
            good = data.draw(st.lists(st.sampled_from(live), max_size=100))
            position = data.draw(st.integers(0, len(good)))
            rids = good[:position] + [bad] + good[position:]
            with pytest.raises(HeapFileError) as single:
                heap.get(bad)
            counter = heap.counter
            before = counter.snapshot()
            with counter.scoped() as tally:
                with pytest.raises(HeapFileError) as batch:
                    heap.get_many(rids)
            assert str(batch.value) == str(single.value)
            assert counter.node_accesses == before.node_accesses
            assert tally.node_accesses == 0
            if bad_kind == "page":
                assert counter.page_reads == before.page_reads


class TableMachine(RuleBasedStateMachine):
    """Random table mutations checked against a dict model."""

    SCHEMA = TableSchema(name="t", columns=("id", "key", "payload"))

    def __init__(self):
        super().__init__()
        self.table = Table(self.SCHEMA, page_size=512)
        self.model = {}
        self.next_id = 0

    @rule(key=st.integers(0, 50), payload=payloads)
    def insert(self, key, payload):
        record = (self.next_id, key, payload)
        self.table.insert(record)
        self.model[self.next_id] = record
        self.next_id += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        record_id = data.draw(st.sampled_from(sorted(self.model)))
        self.table.delete(record_id)
        del self.model[record_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), key=st.integers(0, 50), payload=payloads)
    def update(self, data, key, payload):
        record_id = data.draw(st.sampled_from(sorted(self.model)))
        record = (record_id, key, payload)
        self.table.update(record)
        self.model[record_id] = record

    @rule(low=st.integers(0, 50), high=st.integers(0, 50))
    def range_query_matches_model(self, low, high):
        low, high = min(low, high), max(low, high)
        expected = sorted(record for record in self.model.values() if low <= record[1] <= high)
        assert sorted(self.table.range_query(RangeQuery(low=low, high=high))) == expected

    @invariant()
    def counts_agree(self):
        assert self.table.num_records == len(self.model)
        self.table.index.validate()


TableMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)
TestTableStateMachine = TableMachine.TestCase
