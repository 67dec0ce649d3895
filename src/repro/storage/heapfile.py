"""A slotted-page heap file for the outsourced dataset.

The SP stores the data owner's relation ``R`` in a conventional DBMS.  In
this reproduction the physical layer of that DBMS is a heap file: an
unordered collection of slotted pages, each holding variable-length record
encodings, addressed by :class:`RecordId` (page number + slot number).

The SP's query path is: traverse the B+-tree (or MB-tree in TOM) to locate
qualifying ``RecordId``s, then fetch the records from the heap file.  The
paper's Figure 6 cost therefore includes the data-file accesses, which is
why the heap file reports node accesses through the same
:class:`~repro.storage.cost_model.AccessCounter` as the indexes.  A range
read hands :meth:`HeapFile.get_many` all of its RIDs at once: it charges
one node access per record in one counter call, and the pager, which hands
over the page images 64 RIDs at a time, one page read per record in one
call per batch -- exactly what fetching the records one by one would charge.

Page layout (offsets in bytes)::

    0..2    number of slots (uint16)
    2..4    free-space offset from the start of the page (uint16)
    4..     slot directory: (offset uint16, length uint16) per slot
    ...     free space
    ...     record payloads, growing downwards from the end of the page

A deleted record keeps its slot, with its length field set to a tombstone
marker, so that existing RecordIds never get reused for a different record
(zero-length records are therefore perfectly legal payloads).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter
from repro.storage.page import Page, PageError, PageId
from repro.storage.pager import InMemoryPager, Pager

_HEADER = struct.Struct(">HH")      # slot count, free-space offset
_SLOT = struct.Struct(">HH")        # record offset, record length

#: Length value marking a deleted slot (no live record can be this long
#: because it would not fit a page together with the header and one slot).
_TOMBSTONE = 0xFFFF

#: RIDs handed to the pager per call by :meth:`HeapFile.get_many`.  A
#: file-backed pager copies every page image it returns, so this bounds the
#: images one range read holds at once (64 pages) -- a whole 5 % scan's
#: ~1000 would add megabytes of peak memory per concurrent query -- while
#: still making one pager call per 64 records rather than one per record.
_READ_BATCH = 64


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical address of a record: page number and slot within the page."""

    page_no: int
    slot: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RID({self.page_no}, {self.slot})"


class HeapFileError(ValueError):
    """Raised on invalid heap-file operations (bad RID, oversized record, ...)."""


class HeapFile:
    """An unordered record file with RID-based access.

    Thread-safety: concurrent ``get``/``get_many``/``scan`` calls are safe
    (the file-backed pager reads each page with one positional ``pread``,
    so concurrent readers share no file position and take no lock);
    mutations (``insert``/``delete``/``update``) require external mutual
    exclusion, which the schemes provide through their read/write lock.  Bad RIDs,
    tombstoned records and oversized payloads raise
    :class:`HeapFileError`.
    """

    def __init__(
        self,
        pager: Optional[Pager] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        counter: Optional[AccessCounter] = None,
    ):
        self._pager = pager or InMemoryPager(page_size=page_size)
        self._counter = counter or AccessCounter()
        self._page_ids: List[PageId] = []
        self._record_count = 0
        self._max_record = min(
            self._pager.page_size - _HEADER.size - _SLOT.size,
            _TOMBSTONE - 1,
        )

    # -- properties -------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Size of the underlying pages."""
        return self._pager.page_size

    @property
    def num_pages(self) -> int:
        """Number of data pages in the file."""
        return len(self._page_ids)

    @property
    def num_records(self) -> int:
        """Number of live (non-deleted) records."""
        return self._record_count

    @property
    def counter(self) -> AccessCounter:
        """Node-access counter charged on every page touched."""
        return self._counter

    def size_bytes(self) -> int:
        """Total storage footprint of the heap file in bytes."""
        return len(self._page_ids) * self._pager.page_size

    @property
    def pager(self) -> Pager:
        """The underlying pager (file-backed under the paged storage tier)."""
        return self._pager

    def flush(self) -> None:
        """Force buffered page writes down to the pager's medium."""
        if hasattr(self._pager, "flush"):
            self._pager.flush()

    def heap_state(self) -> dict:
        """Picklable bookkeeping (page directory) for deployment snapshots.

        The page *contents* live in the pager; record ids stay stable across
        a snapshot/restore cycle because the pages are reopened verbatim.
        """
        return {
            "page_ids": [int(page_id) for page_id in self._page_ids],
            "record_count": self._record_count,
            "free_pages": self._pager.free_page_ids(),
        }

    def adopt_state(self, state: dict) -> None:
        """Re-attach to pages already present in the pager (snapshot restore)."""
        page_ids = [int(page_id) for page_id in state["page_ids"]]
        for page_id in page_ids:
            if not (0 <= page_id < self._pager.num_pages):
                raise HeapFileError(
                    f"snapshot refers to heap page {page_id}, but the pager only "
                    f"holds {self._pager.num_pages} pages"
                )
        self._page_ids = [PageId(page_id) for page_id in page_ids]
        self._record_count = int(state["record_count"])
        self._pager.restore_free_pages(state.get("free_pages", []))

    # -- page helpers ------------------------------------------------------------
    def _load_page(self, page_no: int, charge: bool = True) -> Page:
        if not (0 <= page_no < len(self._page_ids)):
            raise HeapFileError(f"page {page_no} does not exist in this heap file")
        if charge:
            self._counter.record_node_access()
        return self._pager.read_page(self._page_ids[page_no])

    def _store_page(self, page_no: int, page: Page) -> None:
        self._pager.write_page(page)

    @staticmethod
    def _read_header(page: Page) -> Tuple[int, int]:
        return _HEADER.unpack(page.read(0, _HEADER.size))

    @staticmethod
    def _write_header(page: Page, slot_count: int, free_offset: int) -> None:
        page.write(_HEADER.pack(slot_count, free_offset), 0)

    @staticmethod
    def _read_slot(page: Page, slot: int) -> Tuple[int, int]:
        offset = _HEADER.size + slot * _SLOT.size
        return _SLOT.unpack(page.read(offset, _SLOT.size))

    @staticmethod
    def _write_slot(page: Page, slot: int, record_offset: int, record_length: int) -> None:
        offset = _HEADER.size + slot * _SLOT.size
        page.write(_SLOT.pack(record_offset, record_length), offset)

    def _new_page(self) -> int:
        page_id = self._pager.allocate()
        page = Page(page_id, self._pager.page_size)
        self._write_header(page, 0, self._pager.page_size)
        self._pager.write_page(page)
        self._page_ids.append(page_id)
        return len(self._page_ids) - 1

    def _free_space(self, page: Page) -> int:
        slot_count, free_offset = self._read_header(page)
        directory_end = _HEADER.size + slot_count * _SLOT.size
        return free_offset - directory_end

    # -- record operations ---------------------------------------------------------
    def insert(self, payload: bytes) -> RecordId:
        """Append a record and return its :class:`RecordId`.

        Records are placed in the last page if it has room for the payload
        plus one slot entry; otherwise a new page is allocated.  This gives
        the append-mostly behaviour of a real heap file while keeping the
        implementation simple.
        """
        payload = bytes(payload)
        if len(payload) > self._max_record:
            raise HeapFileError(
                f"record of {len(payload)} bytes does not fit in a {self._pager.page_size}-byte page"
            )
        if not self._page_ids:
            page_no = self._new_page()
        else:
            page_no = len(self._page_ids) - 1
        page = self._load_page(page_no, charge=False)
        if self._free_space(page) < len(payload) + _SLOT.size:
            page_no = self._new_page()
            page = self._load_page(page_no, charge=False)

        self._counter.record_node_access()
        slot_count, free_offset = self._read_header(page)
        record_offset = free_offset - len(payload)
        page.write(payload, record_offset)
        self._write_slot(page, slot_count, record_offset, len(payload))
        self._write_header(page, slot_count + 1, record_offset)
        self._store_page(page_no, page)
        self._record_count += 1
        return RecordId(page_no=page_no, slot=slot_count)

    def get(self, rid: RecordId, charge: bool = True) -> bytes:
        """Fetch the payload stored at ``rid``: the one-element :meth:`get_many`."""
        return self.get_many((rid,), charge=charge)[0]

    def get_many(self, rids: Sequence[RecordId], charge: bool = True) -> List[bytes]:
        """Fetch the payloads stored at ``rids``, in order.

        This is the SP's record-retrieval hot path: a range read hands over
        every qualifying RID at once.  The page images come from the pager
        in one call per :data:`_READ_BATCH` RIDs (no :class:`Page` object
        per record), and the whole batch charges one
        node access per record in one counter call -- the same totals and
        per-request tallies as one fetch per record.

        Raises :class:`HeapFileError` if a RID names a page outside the
        file, a slot outside its page, or a deleted record.  Every RID is
        checked before the node accesses are charged, so a failed batch
        charges none; a bad page is caught before any page is read.
        """
        page_ids = self._page_ids
        num_pages = len(page_ids)
        wanted = []
        for rid in rids:
            page_no = rid.page_no
            if not (0 <= page_no < num_pages):
                raise HeapFileError(f"page {page_no} does not exist in this heap file")
            wanted.append(page_ids[page_no])
        unpack_header, unpack_slot = _HEADER.unpack_from, _SLOT.unpack_from
        header_size, slot_size = _HEADER.size, _SLOT.size
        payloads = []
        for start in range(0, len(wanted), _READ_BATCH):
            images = self._pager.read_pages_bytes(wanted[start:start + _READ_BATCH])
            for rid, raw in zip(rids[start:start + _READ_BATCH], images):
                slot = rid.slot
                if not (0 <= slot < unpack_header(raw, 0)[0]):
                    raise HeapFileError(f"slot {slot} does not exist in page {rid.page_no}")
                record_offset, record_length = unpack_slot(raw, header_size + slot * slot_size)
                if record_length == _TOMBSTONE:
                    raise HeapFileError(f"record {rid} has been deleted")
                payloads.append(raw[record_offset:record_offset + record_length])
        if charge:
            self._counter.record_node_access(len(payloads))
        return payloads

    def delete(self, rid: RecordId) -> None:
        """Delete the record at ``rid`` (its slot is tombstoned, not reused)."""
        page = self._load_page(rid.page_no)
        slot_count, _ = self._read_header(page)
        if not (0 <= rid.slot < slot_count):
            raise HeapFileError(f"slot {rid.slot} does not exist in page {rid.page_no}")
        record_offset, record_length = self._read_slot(page, rid.slot)
        if record_length == _TOMBSTONE:
            raise HeapFileError(f"record {rid} has already been deleted")
        self._write_slot(page, rid.slot, record_offset, _TOMBSTONE)
        self._store_page(rid.page_no, page)
        self._record_count -= 1

    def update(self, rid: RecordId, payload: bytes) -> RecordId:
        """Replace the record at ``rid``.

        If the new payload fits in the old record's space it is updated in
        place and the same RID is returned; otherwise the old record is
        deleted and the payload re-inserted, returning a new RID.  Callers
        that index RIDs (the DBMS layer) must use the returned value.
        """
        payload = bytes(payload)
        page = self._load_page(rid.page_no)
        slot_count, _ = self._read_header(page)
        if not (0 <= rid.slot < slot_count):
            raise HeapFileError(f"slot {rid.slot} does not exist in page {rid.page_no}")
        record_offset, record_length = self._read_slot(page, rid.slot)
        if record_length == _TOMBSTONE:
            raise HeapFileError(f"record {rid} has been deleted")
        if len(payload) <= record_length:
            page.write(payload, record_offset)
            self._write_slot(page, rid.slot, record_offset, len(payload))
            self._store_page(rid.page_no, page)
            return rid
        self._write_slot(page, rid.slot, record_offset, _TOMBSTONE)
        self._store_page(rid.page_no, page)
        self._record_count -= 1
        return self.insert(payload)

    def scan(self, charge: bool = True) -> Iterator[Tuple[RecordId, bytes]]:
        """Iterate over all live records in physical order."""
        for page_no in range(len(self._page_ids)):
            page = self._load_page(page_no, charge=charge)
            slot_count, _ = self._read_header(page)
            for slot in range(slot_count):
                record_offset, record_length = self._read_slot(page, slot)
                if record_length == _TOMBSTONE:
                    continue
                yield RecordId(page_no, slot), page.read(record_offset, record_length)

    def __len__(self) -> int:
        return self._record_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeapFile(pages={len(self._page_ids)}, records={self._record_count}, "
            f"page_size={self._pager.page_size})"
        )
