"""Unit tests for the slotted-page heap file."""

import pytest

from repro.storage.heapfile import HeapFile, HeapFileError, RecordId


@pytest.fixture()
def heap():
    return HeapFile(page_size=256)


class TestHeapFileBasics:
    def test_insert_and_get_round_trip(self, heap):
        rid = heap.insert(b"record-one")
        assert heap.get(rid) == b"record-one"
        assert heap.num_records == 1

    def test_multiple_records_in_one_page(self, heap):
        rids = [heap.insert(f"rec-{i}".encode()) for i in range(5)]
        assert heap.num_pages == 1
        assert [heap.get(rid) for rid in rids] == [f"rec-{i}".encode() for i in range(5)]

    def test_page_overflow_allocates_new_page(self, heap):
        payload = b"x" * 100
        for _ in range(6):
            heap.insert(payload)
        assert heap.num_pages >= 2
        assert heap.num_records == 6

    def test_record_too_large_rejected(self, heap):
        with pytest.raises(HeapFileError):
            heap.insert(b"y" * 300)

    def test_get_with_bad_rid_raises(self, heap):
        heap.insert(b"a")
        with pytest.raises(HeapFileError):
            heap.get(RecordId(5, 0))
        with pytest.raises(HeapFileError):
            heap.get(RecordId(0, 9))

    def test_size_bytes_is_page_multiple(self, heap):
        heap.insert(b"a")
        assert heap.size_bytes() == heap.num_pages * 256


class TestHeapFileDeleteUpdate:
    def test_delete_makes_record_unreachable(self, heap):
        rid = heap.insert(b"victim")
        heap.delete(rid)
        assert heap.num_records == 0
        with pytest.raises(HeapFileError):
            heap.get(rid)

    def test_double_delete_raises(self, heap):
        rid = heap.insert(b"victim")
        heap.delete(rid)
        with pytest.raises(HeapFileError):
            heap.delete(rid)

    def test_delete_does_not_disturb_other_records(self, heap):
        keep = heap.insert(b"keep-me")
        victim = heap.insert(b"victim")
        heap.delete(victim)
        assert heap.get(keep) == b"keep-me"

    def test_update_in_place_when_smaller(self, heap):
        rid = heap.insert(b"original-payload")
        new_rid = heap.update(rid, b"short")
        assert new_rid == rid
        assert heap.get(rid) == b"short"

    def test_update_relocates_when_larger(self, heap):
        rid = heap.insert(b"tiny")
        new_rid = heap.update(rid, b"much longer payload than before")
        assert heap.get(new_rid) == b"much longer payload than before"
        with pytest.raises(HeapFileError):
            heap.get(rid)
        assert heap.num_records == 1

    def test_update_deleted_record_raises(self, heap):
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(HeapFileError):
            heap.update(rid, b"new")


class TestHeapFileScanAndCounters:
    def test_scan_returns_live_records_in_order(self, heap):
        rids = [heap.insert(f"r{i}".encode()) for i in range(6)]
        heap.delete(rids[2])
        scanned = list(heap.scan())
        assert [payload for _, payload in scanned] == [b"r0", b"r1", b"r3", b"r4", b"r5"]
        assert all(isinstance(rid, RecordId) for rid, _ in scanned)

    def test_len_matches_live_records(self, heap):
        rids = [heap.insert(b"x") for _ in range(4)]
        heap.delete(rids[0])
        assert len(heap) == 3

    def test_node_access_counter_charged_on_get(self, heap):
        rid = heap.insert(b"x")
        before = heap.counter.node_accesses
        heap.get(rid)
        assert heap.counter.node_accesses == before + 1

    def test_get_without_charge(self, heap):
        rid = heap.insert(b"x")
        before = heap.counter.node_accesses
        heap.get(rid, charge=False)
        assert heap.counter.node_accesses == before

    def test_many_records_round_trip(self, heap):
        payloads = [bytes([i % 251]) * (i % 50 + 1) for i in range(200)]
        rids = [heap.insert(payload) for payload in payloads]
        assert [heap.get(rid, charge=False) for rid in rids] == payloads


class TestHeapFileGetMany:
    def test_matches_get_across_several_pager_calls(self, heap):
        payloads = [bytes([i % 251]) * (i % 50 + 1) for i in range(200)]
        rids = [heap.insert(payload) for payload in payloads]
        order = list(reversed(rids)) + rids[::7]
        expected = [heap.get(rid, charge=False) for rid in order]
        page_reads = heap.pager.counter.page_reads
        with heap.counter.scoped() as tally:
            fetched = heap.get_many(order)
        assert fetched == expected
        assert tally.node_accesses == len(order)
        assert heap.pager.counter.page_reads == page_reads + len(order)

    def test_empty_batch_reads_nothing(self, heap):
        heap.insert(b"x")
        before = (heap.counter.node_accesses, heap.pager.counter.page_reads)
        assert heap.get_many([]) == []
        assert (heap.counter.node_accesses, heap.pager.counter.page_reads) == before
