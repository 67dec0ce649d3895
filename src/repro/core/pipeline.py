"""Per-request accounting for the SAE query pipeline.

No party keeps "the cost of the most recent query" as mutable state -- two
in-flight queries would overwrite each other's numbers.  Instead *each
request carries its own accounting and returns a receipt*:

* :class:`CostReceipt` -- the immutable cost of one party's work on one
  request (node accesses, measured CPU ms, simulated I/O ms);
* :class:`ExecutionContext` -- a per-request carrier threaded through
  :meth:`~repro.core.provider.ServiceProvider.execute`,
  :meth:`~repro.core.trusted_entity.TrustedEntity.generate_vt` and the
  network channels; it collects the party receipts and per-channel bytes;
* :class:`QueryReceipt` -- the assembled end-to-end accounting of one
  verified query, which :class:`~repro.core.protocol.QueryOutcome` exposes.

Because a context is created per request and never shared between requests,
the pipeline is safe to drive from any number of threads; the shared
:class:`~repro.storage.cost_model.AccessCounter` totals keep accumulating
underneath for whole-run reporting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids circular imports at runtime
    from repro.core.client import SAEVerificationResult
    from repro.dbms.query import RangeQuery


@dataclass(frozen=True)
class CostReceipt:
    """What one party's work on one request cost.

    ``io_cost_ms`` is the *simulated* disk cost (``node_accesses`` times the
    configured per-access charge); ``cpu_ms`` is measured wall-clock CPU
    time of the traversal itself.

    ``pool_hits`` / ``pool_misses`` / ``pool_evictions`` report the
    *physical* buffer-pool activity behind the logical ``node_accesses``
    when the party serves from a paged node store (all zero under in-memory
    storage): a hit is a page fetch served from the pool, a miss went to
    the pager, an eviction made room.  This is the physical-vs-logical gap
    of the paper's I/O model -- a warm pool answers the same logical
    traversal with far fewer misses.

    ``memo_hits`` / ``memo_misses`` report the record-memo activity (the
    :class:`~repro.crypto.digest.RecordMemo` over record encodings and
    digests) this party charged to the request: a hit reused a previously
    computed encoding/digest, a miss computed one.  Zero when the party did
    no per-record encoding or hashing work.
    """

    node_accesses: int = 0
    cpu_ms: float = 0.0
    io_cost_ms: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def total_ms(self) -> float:
        """Simulated I/O cost plus measured CPU time."""
        return self.io_cost_ms + self.cpu_ms

    def cost_ms(self, include_cpu: bool = False) -> float:
        """Simulated I/O cost, plus measured CPU time with ``include_cpu``."""
        return self.total_ms if include_cpu else self.io_cost_ms

    def __add__(self, other: "CostReceipt") -> "CostReceipt":
        if not isinstance(other, CostReceipt):
            return NotImplemented
        return CostReceipt(
            node_accesses=self.node_accesses + other.node_accesses,
            cpu_ms=self.cpu_ms + other.cpu_ms,
            io_cost_ms=self.io_cost_ms + other.io_cost_ms,
            pool_hits=self.pool_hits + other.pool_hits,
            pool_misses=self.pool_misses + other.pool_misses,
            pool_evictions=self.pool_evictions + other.pool_evictions,
            memo_hits=self.memo_hits + other.memo_hits,
            memo_misses=self.memo_misses + other.memo_misses,
        )


#: Receipt used where a party did no work at all (e.g. ``verify=False``).
ZERO_RECEIPT = CostReceipt()


class ExecutionContext:
    """Accounting carrier for one in-flight request.

    One context is created per query and handed to every party that works on
    it.  Parties *write* their receipt into the context; nothing in the
    pipeline reads another request's context, which is what makes the whole
    query path re-entrant.

    A slotted plain class rather than a dataclass: a batched or sharded
    request allocates one context per leg, and slots keep that churn to a
    fixed small object without a ``__dict__`` per instance.

    ``replica`` and ``failed_replicas`` record which replica of a
    replicated shard served the leg and which dead replicas were attempted
    first (visible failover); ``epoch_stamp`` carries the serving
    provider's signed update-epoch stamp to the client's freshness check.
    """

    __slots__ = (
        "query", "sp", "te", "bytes_by_channel",
        "replica", "failed_replicas", "epoch_stamp",
    )

    def __init__(
        self,
        query: Optional["RangeQuery"] = None,
        sp: Optional[CostReceipt] = None,
        te: Optional[CostReceipt] = None,
        bytes_by_channel: Optional[Dict[str, int]] = None,
    ):
        self.query = query
        self.sp = sp
        self.te = te
        self.bytes_by_channel: Dict[str, int] = (
            bytes_by_channel if bytes_by_channel is not None else {}
        )
        self.replica: int = 0
        self.failed_replicas: Tuple[int, ...] = ()
        self.epoch_stamp = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionContext(query={self.query!r}, sp={self.sp!r}, "
            f"te={self.te!r}, bytes_by_channel={self.bytes_by_channel!r})"
        )

    def record_bytes(self, channel_name: str, nbytes: int) -> None:
        """Account ``nbytes`` sent over ``channel_name`` for this request."""
        self.bytes_by_channel[channel_name] = (
            self.bytes_by_channel.get(channel_name, 0) + nbytes
        )

    def channel_bytes(self, channel_name: str) -> int:
        """Bytes this request sent over ``channel_name``."""
        return self.bytes_by_channel.get(channel_name, 0)

    def total_bytes(self) -> int:
        """Bytes this request sent over all channels."""
        return sum(self.bytes_by_channel.values())


@dataclass(frozen=True)
class ShardLegReceipt:
    """The cost of one shard's leg of a scattered query.

    A sharded deployment answers one range query with several independent
    (SP leg, TE leg) pairs -- one per overlapping shard.  The merged
    :class:`QueryReceipt` *sums* the legs (total work charged), while the
    response-time model takes the *maximum* over the legs (they proceed in
    parallel), which is what :attr:`QueryReceipt.critical_path_ms` reports.

    In a replicated deployment ``replica`` is the replica index that served
    the leg and ``failed_replicas`` lists the dead replicas attempted before
    it -- a failover is visible in the merged receipt, and since a dead
    replica does no work the leg sums are unaffected.
    """

    shard: int
    sp: CostReceipt = ZERO_RECEIPT
    te: CostReceipt = ZERO_RECEIPT
    auth_bytes: int = 0
    result_bytes: int = 0
    replica: int = 0
    failed_replicas: Tuple[int, ...] = ()

    @property
    def leg_response_ms(self) -> float:
        """This leg's response time (its SP and TE proceed independently)."""
        return max(self.sp.total_ms, self.te.total_ms)


@dataclass(frozen=True)
class QueryReceipt:
    """End-to-end accounting of one query, assembled by the protocol facade.

    For a scattered query, ``sp``/``te``/``auth_bytes``/``result_bytes`` are
    the *sums* over the shard legs and ``legs`` retains the per-shard
    breakdown.
    """

    query: "RangeQuery"
    sp: CostReceipt
    te: CostReceipt
    auth_bytes: int
    result_bytes: int
    client_cpu_ms: float
    bytes_by_channel: Dict[str, int] = field(default_factory=dict)
    legs: Tuple[ShardLegReceipt, ...] = ()

    @property
    def response_time_ms(self) -> float:
        """The paper's response-time model: SP and TE proceed independently,
        so the client waits for the slower of the two, then verifies."""
        return max(self.sp.total_ms, self.te.total_ms) + self.client_cpu_ms

    @property
    def critical_path_ms(self) -> float:
        """Scatter-gather response-time model.

        Shard legs execute in parallel, so the client waits for the slowest
        leg (each leg's SP and TE in turn proceed independently), then
        verifies the gathered result.  Without legs this degenerates to
        :attr:`response_time_ms`.
        """
        if not self.legs:
            return self.response_time_ms
        return max(leg.leg_response_ms for leg in self.legs) + self.client_cpu_ms

    def matches_leg_sums(self) -> bool:
        """Whether every merged charge equals the sum over the shard legs.

        The scatter-gather invariant both schemes enforce: distributing a
        query over shards must not change what the paper's cost model
        charges.  Trivially true for an unscattered receipt (no legs).
        """
        if not self.legs:
            return True
        return (
            self.sp.node_accesses == sum(leg.sp.node_accesses for leg in self.legs)
            and self.te.node_accesses == sum(leg.te.node_accesses for leg in self.legs)
            and self.auth_bytes == sum(leg.auth_bytes for leg in self.legs)
            and self.result_bytes == sum(leg.result_bytes for leg in self.legs)
            and self.sp.pool_misses == sum(leg.sp.pool_misses for leg in self.legs)
            and self.sp.pool_hits == sum(leg.sp.pool_hits for leg in self.legs)
            and self.sp.memo_hits == sum(leg.sp.memo_hits for leg in self.legs)
            and self.sp.memo_misses == sum(leg.sp.memo_misses for leg in self.legs)
            and self.te.memo_hits == sum(leg.te.memo_hits for leg in self.legs)
            and self.te.memo_misses == sum(leg.te.memo_misses for leg in self.legs)
        )


class ReadWriteLock:
    """A shared/exclusive lock with writer preference.

    Queries hold the lock *shared* for the duration of their request (both
    the SP and the TE leg), so any number of them proceed concurrently;
    update batches hold it *exclusive*, so a query observes either the
    entire batch or none of it at both parties.  Writers are preferred:
    once an update is waiting, new queries queue behind it, which keeps
    update latency bounded under closed-loop query load.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Hold the lock shared (any number of concurrent readers)."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold the lock exclusively (no readers, no other writer)."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()

