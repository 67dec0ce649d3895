"""Unit tests for the in-memory and file-backed pagers."""

import pytest

from repro.storage.cost_model import AccessCounter
from repro.storage.page import Page, PageError, PageId
from repro.storage.pager import FileBackedPager, InMemoryPager


@pytest.fixture(params=["memory", "file"])
def pager(request, tmp_path):
    """Both pager implementations, exercised with the same tests."""
    if request.param == "memory":
        pager = InMemoryPager(page_size=256)
        yield pager
    else:
        pager = FileBackedPager(str(tmp_path / "pages.db"), page_size=256)
        yield pager
        pager.close()


class TestPagerBasics:
    def test_rejects_tiny_page_size(self):
        with pytest.raises(PageError):
            InMemoryPager(page_size=16)

    def test_allocate_read_write_round_trip(self, pager):
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        page.write(b"payload", offset=3)
        pager.write_page(page)
        again = pager.read_page(page_id)
        assert again.read(3, 7) == b"payload"

    def test_allocation_grows_page_count(self, pager):
        assert pager.num_pages == 0
        first = pager.allocate()
        second = pager.allocate()
        assert pager.num_pages == 2
        assert first != second

    def test_total_bytes(self, pager):
        pager.allocate()
        pager.allocate()
        assert pager.total_bytes() == 2 * 256

    def test_write_marks_page_clean(self, pager):
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        page.write(b"x")
        pager.write_page(page)
        assert not page.dirty

    def test_read_unallocated_raises(self, pager):
        with pytest.raises(PageError):
            pager.read_page(PageId(99))

    def test_counter_tracks_physical_io(self, pager):
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        pager.write_page(page)
        assert pager.counter.page_allocations == 1
        assert pager.counter.page_reads == 1
        assert pager.counter.page_writes == 1

    def test_freed_page_ids_are_reused(self, pager):
        first = pager.allocate()
        pager.free(first)
        second = pager.allocate()
        assert second == first

    def test_double_free_raises(self, pager):
        page_id = pager.allocate()
        pager.free(page_id)
        with pytest.raises(PageError):
            pager.free(page_id)
        assert pager.allocate() == page_id
        assert pager.allocate() != page_id

    def test_read_pages_bytes_in_order_with_repeats(self, pager):
        ids = [pager.allocate() for _ in range(3)]
        for page_id in ids:
            page = pager.read_page(page_id)
            page.write(bytes([int(page_id) + 1]) * 4)
            pager.write_page(page)
        reads = pager.counter.page_reads
        wanted = [ids[2], ids[0], ids[2], ids[1]]
        images = pager.read_pages_bytes(wanted)
        assert [image[:4] for image in images] == [bytes([int(p) + 1]) * 4 for p in wanted]
        assert all(len(image) == 256 for image in images)
        assert images == [pager.read_page_bytes(page_id) for page_id in wanted]
        assert pager.counter.page_reads == reads + 2 * len(wanted)

    def test_read_pages_bytes_unknown_page_raises_uncharged(self, pager):
        page_id = pager.allocate()
        reads = pager.counter.page_reads
        with pytest.raises(PageError):
            pager.read_pages_bytes([page_id, PageId(99)])
        assert pager.counter.page_reads == reads


class TestInMemoryPagerSpecifics:
    def test_freed_page_cannot_be_read(self):
        pager = InMemoryPager(page_size=128)
        page_id = pager.allocate()
        pager.free(page_id)
        with pytest.raises(PageError):
            pager.read_page(page_id)

    def test_live_pages_iteration(self):
        pager = InMemoryPager(page_size=128)
        ids = [pager.allocate() for _ in range(3)]
        pager.free(ids[1])
        assert list(pager.live_pages()) == [ids[0], ids[2]]


class TestFileBackedPagerSpecifics:
    def test_data_survives_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        pager = FileBackedPager(path, page_size=256)
        page_id = pager.allocate()
        page = pager.read_page(page_id)
        page.write(b"durable")
        pager.write_page(page)
        pager.close()

        reopened = FileBackedPager(path, page_size=256)
        assert reopened.num_pages == 1
        assert reopened.read_page(page_id).read(0, 7) == b"durable"
        reopened.close()

    def test_misaligned_existing_file_rejected(self, tmp_path):
        path = tmp_path / "broken.db"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(PageError):
            FileBackedPager(str(path), page_size=256)

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "ctx.db")
        with FileBackedPager(path, page_size=256) as pager:
            pager.allocate()
        with pytest.raises(ValueError):
            pager.read_page(PageId(0))

    def test_shared_counter(self, tmp_path):
        counter = AccessCounter()
        pager = FileBackedPager(str(tmp_path / "c.db"), page_size=256, counter=counter)
        pager.allocate()
        assert counter.page_allocations == 1
        pager.close()
