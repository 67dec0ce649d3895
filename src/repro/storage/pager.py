"""Page allocation and persistence.

A :class:`Pager` owns a flat array of fixed-size pages.  Two implementations
are provided:

* :class:`InMemoryPager` keeps all pages in memory.  This is what the
  experiments use: the paper itself reports *simulated* I/O cost (10 ms per
  node access) rather than real disk latency, so actually hitting a disk
  would only add noise.
* :class:`FileBackedPager` persists pages in a single file.  It is the
  durable tier of the storage stack: a
  :class:`~repro.storage.node_store.PagedNodeStore` serialises tree nodes
  into its pages (through a :class:`~repro.storage.buffer_pool.BufferPool`),
  and a :class:`~repro.storage.heapfile.HeapFile` built over it keeps the
  outsourced records themselves on disk, which is what lets ``repro serve
  --data-dir`` warm-restart a deployment from a snapshot.

Both report the number of physical reads/writes through an optional
:class:`~repro.storage.cost_model.AccessCounter`, which the storage ablation
benchmarks consume.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, List, Optional, Sequence

from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter
from repro.storage.page import Page, PageError, PageId


class Pager:
    """Abstract pager interface (allocate / read / write / free)."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, counter: Optional[AccessCounter] = None):
        if page_size < 64:
            raise PageError("page size must be at least 64 bytes")
        self._page_size = page_size
        self._counter = counter or AccessCounter()

    # -- basic properties ----------------------------------------------------
    @property
    def page_size(self) -> int:
        """Size of every page managed by this pager."""
        return self._page_size

    @property
    def counter(self) -> AccessCounter:
        """Physical I/O counter (reads/writes/allocations)."""
        return self._counter

    # -- interface -------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Number of allocated pages (including freed ones still on disk)."""
        raise NotImplementedError

    def allocate(self) -> PageId:
        """Allocate a fresh page and return its id."""
        raise NotImplementedError

    def read_page(self, page_id: PageId) -> Page:
        """Fetch a page by id."""
        raise NotImplementedError

    def read_pages_bytes(self, page_ids: Sequence[PageId]) -> List[bytes]:
        """Fetch the raw contents of ``page_ids`` for read-only use, in order.

        This is the heap file's record-retrieval path: no :class:`Page`
        object is built, and the whole batch charges one read per requested
        id in a single counter call.  An id may repeat (one per record
        fetched from that page).
        """
        raise NotImplementedError

    def read_page_bytes(self, page_id: PageId) -> bytes:
        """Fetch one page's raw contents: the one-element :meth:`read_pages_bytes`."""
        return self.read_pages_bytes((page_id,))[0]

    def write_page(self, page: Page) -> None:
        """Persist a page."""
        raise NotImplementedError

    def free(self, page_id: PageId) -> None:
        """Return a page to the free list."""
        raise NotImplementedError

    def free_page_ids(self) -> List[int]:
        """Ids of freed-but-reusable pages (persisted by snapshots)."""
        return []

    def restore_free_pages(self, page_ids: "List[int]") -> None:
        """Re-install a free list recorded by :meth:`free_page_ids`."""

    def close(self) -> None:
        """Release any underlying resources."""

    # -- convenience -------------------------------------------------------------
    def total_bytes(self) -> int:
        """Total storage footprint in bytes (pages * page size)."""
        return self.num_pages * self._page_size

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InMemoryPager(Pager):
    """A pager holding all pages in a Python dict."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, counter: Optional[AccessCounter] = None):
        super().__init__(page_size=page_size, counter=counter)
        self._pages: Dict[int, bytes] = {}
        self._free_list: List[int] = []
        self._next_id = 0

    @property
    def num_pages(self) -> int:
        return self._next_id

    def allocate(self) -> PageId:
        if self._free_list:
            page_id = self._free_list.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = bytes(self._page_size)
        self._counter.record_allocation()
        return PageId(page_id)

    def read_page(self, page_id: PageId) -> Page:
        try:
            raw = self._pages[int(page_id)]
        except KeyError:
            raise PageError(f"page {page_id} has not been allocated") from None
        self._counter.record_read()
        return Page(page_id, self._page_size, raw)

    def read_pages_bytes(self, page_ids: Sequence[PageId]) -> List[bytes]:
        pages = self._pages
        try:
            images = [pages[page_id] for page_id in page_ids]
        except KeyError as exc:
            raise PageError(f"page {exc.args[0]} has not been allocated") from None
        self._counter.record_read(len(images))
        return images

    def write_page(self, page: Page) -> None:
        if int(page.page_id) not in self._pages:
            raise PageError(f"page {page.page_id} has not been allocated")
        self._pages[int(page.page_id)] = page.snapshot()
        page.mark_clean()
        self._counter.record_write()

    def free(self, page_id: PageId) -> None:
        if int(page_id) not in self._pages:
            raise PageError(f"page {page_id} has not been allocated")
        del self._pages[int(page_id)]
        self._free_list.append(int(page_id))

    def free_page_ids(self) -> List[int]:
        return list(self._free_list)

    def restore_free_pages(self, page_ids: List[int]) -> None:
        self._free_list = [int(pid) for pid in page_ids]

    def live_pages(self) -> Iterator[PageId]:
        """Iterate over ids of currently allocated (non-freed) pages."""
        return (PageId(pid) for pid in sorted(self._pages))


class FileBackedPager(Pager):
    """A pager persisting pages in a single binary file.

    The file layout is a dense array of pages; page ``i`` lives at byte
    offset ``i * page_size``.  Freed pages are tracked in memory and reused
    by subsequent allocations (the file is never shrunk).

    Every page moves with one positional ``os.pread`` / ``os.pwrite`` on an
    unbuffered descriptor: one system call per page, and no file position
    shared between callers.  Writes go straight to the OS, so
    :meth:`flush` has nothing left to push.

    Thread-safety: reads and writes need no lock (each names its own
    offset), so the SP's heap file is read by every in-flight query at
    once; allocation and the free list serialise on an internal lock.
    Reading or writing a closed pager raises :class:`PageError`.
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        counter: Optional[AccessCounter] = None,
    ):
        super().__init__(page_size=page_size, counter=counter)
        self._path = path
        self._io_lock = threading.Lock()
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        file_size = os.fstat(self._fd).st_size
        if file_size % page_size != 0:
            self.close()
            raise PageError(
                f"existing file size {file_size} is not a multiple of the page size {page_size}"
            )
        self._next_id = file_size // page_size
        self._free_list: List[int] = []

    @property
    def path(self) -> str:
        """Path of the backing file."""
        return self._path

    @property
    def num_pages(self) -> int:
        return self._next_id

    def _open_fd(self) -> int:
        fd = self._fd
        if fd < 0:
            raise PageError(f"pager over {self._path} is closed")
        return fd

    def _pwrite(self, data: bytes, page_id: int) -> None:
        fd, offset = self._open_fd(), page_id * self._page_size
        view = memoryview(data)
        while view:
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written

    def _pread(self, fd: int, page_id: int) -> bytes:
        raw = os.pread(fd, self._page_size, page_id * self._page_size)
        if len(raw) != self._page_size:
            raise PageError(f"short read of page {page_id}: {len(raw)} bytes")
        return raw

    def allocate(self) -> PageId:
        with self._io_lock:
            if self._free_list:
                page_id = self._free_list.pop()
            else:
                page_id = self._next_id
                self._pwrite(bytes(self._page_size), page_id)
                self._next_id += 1
        self._counter.record_allocation()
        return PageId(page_id)

    def read_page(self, page_id: PageId) -> Page:
        if not (0 <= int(page_id) < self._next_id):
            raise PageError(f"page {page_id} is out of range")
        raw = self._pread(self._open_fd(), int(page_id))
        self._counter.record_read()
        return Page(page_id, self._page_size, raw)

    def read_pages_bytes(self, page_ids: Sequence[PageId]) -> List[bytes]:
        # A page named by several records is fetched from the file once but
        # charged once per request.
        fd = self._open_fd()
        images: Dict[int, bytes] = {}
        for page_id in page_ids:
            if page_id in images:
                continue
            if not (0 <= page_id < self._next_id):
                raise PageError(f"page {page_id} is out of range")
            images[page_id] = self._pread(fd, page_id)
        self._counter.record_read(len(page_ids))
        return [images[page_id] for page_id in page_ids]

    def write_page(self, page: Page) -> None:
        if not (0 <= int(page.page_id) < self._next_id):
            raise PageError(f"page {page.page_id} is out of range")
        self._pwrite(page.snapshot(), int(page.page_id))
        page.mark_clean()
        self._counter.record_write()

    def free(self, page_id: PageId) -> None:
        if not (0 <= int(page_id) < self._next_id):
            raise PageError(f"page {page_id} is out of range")
        with self._io_lock:
            if int(page_id) in self._free_list:
                raise PageError(f"page {page_id} is already free")
            self._free_list.append(int(page_id))

    def free_page_ids(self) -> List[int]:
        return list(self._free_list)

    def restore_free_pages(self, page_ids: List[int]) -> None:
        self._free_list = [int(pid) for pid in page_ids]

    def flush(self) -> None:
        """Writes are unbuffered: every page already reached the OS."""

    def close(self) -> None:
        with self._io_lock:
            fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)
