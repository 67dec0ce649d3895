"""The five workloads: what is deployed, which operations run, what is right.

Everything the program sees is generated here from the ``--seed`` argument
(query bounds, update batches); the dataset seed is fixed so that two seeds
differ in the traffic and never in the data.  Only the surface ROADMAP item 2
keeps is used: ``OutsourcedDB(..., design=PhysicalDesign(...))``,
``restore_deployment``, ``UpdateBatch``, ``build_fleet`` / ``FleetManager`` /
``FleetRouter``, ``RemoteSchemeClient``, outcome and receipt fields, and
``repro.workloads``.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import OutsourcedDB, UpdateBatch, restore_deployment
from repro.core.design import PhysicalDesign
from repro.network.client import RemoteSchemeClient
from repro.network.fleet import FleetManager, build_fleet
from repro.workloads import (
    RangeQueryWorkload,
    RecordGenerator,
    ZipfKeyGenerator,
    build_dataset,
)

#: The paper's key domain and record size; the dataset seed never changes.
DOMAIN = (0, 10_000_000)
RECORD_SIZE = 500
DATASET_SEED = 42
#: Operations generated per run; the clients cycle if they ever exhaust them.
OPS_PER_RUN = 4096
UPDATE_BATCHES_PER_RUN = 512
#: The writer re-keys one record per batch, on a fixed schedule.  One such
#: modify costs ~100 ms at 20 000 records (B+-tree delete + insert, XB-tree
#: delete + insert, heap rewrite) and ~130 ms beside a reader.  At one a
#: second the write lock is held about an eighth of the time and about one
#: read in eighty queues behind a write: throughput does not swing with the
#: duty cycle, and the 95th percentile stays among the reads that did not
#: wait (the ones that did show in ``loadgen.query_p99_ms``).  Four or five a
#: second put that percentile on the edge between the two kinds of read and
#: made it differ by a third from run to run.
MODIFIES_PER_BATCH = 1
WRITER_PERIOD_S = 1.0
#: In the single-client traced pass one update follows this many queries.
TRACED_QUERIES_PER_UPDATE = 20

Bounds = Tuple[int, int]
Change = Tuple[int, int]  # (record id, new key)


@dataclass(frozen=True)
class Scale:
    """How much data and time one run spends."""

    name: str
    records: int
    seconds: float
    warmup_s: float
    traced_ops: int
    setup_repeats: int


FULL = Scale("full", records=20_000, seconds=10.0, warmup_s=1.0, traced_ops=200, setup_repeats=3)
SMOKE = Scale("smoke", records=1_500, seconds=0.5, warmup_s=0.1, traced_ops=20, setup_repeats=1)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (``BENCHMARK.json`` says why it exists)."""

    name: str
    scheme: str  # "sae" | "tom"
    transport: str  # "fleet" (router -> children) | "tcp" (one child) | "inproc"
    extent: float  # share of the key domain one query spans
    design: PhysicalDesign
    storage: str = "memory"  # in-process tier; served children are always paged
    batch: int = 1  # bounds per call; > 1 goes through query_many
    placement: str = "uniform"  # where queries land: "uniform" | "zipf"
    writer: bool = False  # a paced writer runs beside the reader

    @property
    def served(self) -> bool:
        return self.transport != "inproc"

    @property
    def clients(self) -> int:
        """Closed-loop query clients (the writer, when present, is the second)."""
        return 1 if self.writer else 2

    @property
    def scheme_kwargs(self) -> Dict[str, Any]:
        return {"key_bits": 512} if self.scheme == "tom" else {}


# Caches are scaled with the data so the paper's ratios hold at 20 000
# records: its 65 536-entry memo against 1 M records is ~6.5 %, hence 2 048.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="sae-fleet-point",
        scheme="sae",
        transport="fleet",
        extent=0.0005,
        design=PhysicalDesign(shards=2, pool_pages=4096),
    ),
    Workload(
        name="tom-tcp-range",
        scheme="tom",
        transport="tcp",
        extent=0.005,
        design=PhysicalDesign(pool_pages=4096),
    ),
    Workload(
        name="sae-tcp-batch",
        scheme="sae",
        transport="tcp",
        extent=0.001,
        design=PhysicalDesign(pool_pages=4096),
        batch=25,
    ),
    Workload(
        name="sae-mem-scan",
        scheme="sae",
        transport="inproc",
        extent=0.05,
        design=PhysicalDesign(memo_capacity=2048),
    ),
    Workload(
        name="sae-paged-mixed",
        scheme="sae",
        transport="inproc",
        extent=0.005,
        design=PhysicalDesign(pool_pages=64, memo_capacity=2048),
        storage="paged",
        placement="zipf",
        writer=True,
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ---------------------------------------------------------------------- inputs
def make_ops(workload: Workload, seed: int, count: int = OPS_PER_RUN) -> List[Tuple[Bounds, ...]]:
    """The operation list of one run: each op is the bounds of one call."""
    low, high = DOMAIN
    extent = max(1, int((high - low) * workload.extent))
    total = count * workload.batch
    if workload.placement == "zipf":
        starts = ZipfKeyGenerator(
            theta=0.8, domain=(low, high - extent), seed=seed
        ).sample_many(total)
        bounds = [(start, start + extent) for start in starts]
    else:
        queries = RangeQueryWorkload(
            extent_fraction=workload.extent, count=total, domain=DOMAIN, seed=seed
        )
        bounds = [(query.low, query.high) for query in queries]
    step = workload.batch
    return [tuple(bounds[i:i + step]) for i in range(0, total, step)]


def make_update_batches(
    seed: int, records: int, count: int = UPDATE_BATCHES_PER_RUN
) -> List[List[Change]]:
    """Key-changing modifies: each batch moves a few records to fresh keys."""
    rng = random.Random(seed * 7919 + 1)
    return [
        [
            (record_id, rng.randint(*DOMAIN))
            for record_id in rng.sample(range(records), MODIFIES_PER_BATCH)
        ]
        for _ in range(count)
    ]


def to_update_batch(changes: Sequence[Change]) -> UpdateBatch:
    generator = RecordGenerator(record_size=RECORD_SIZE)
    batch = UpdateBatch()
    for record_id, key in changes:
        batch.modify(generator.make(record_id, key))
    return batch


# ---------------------------------------------------------------------- oracle
class Oracle:
    """A sorted ``(key, id)`` list, maintained beside the deployment.

    The writer *stages* a batch before sending it and marks it *applied* once
    acknowledged.  A query that started when version ``a`` was applied and
    finished when version ``s`` was staged may legitimately reflect any
    version in ``a..s`` (batches are atomic), and no other.
    """

    KEEP = 8

    def __init__(self, records: Sequence[Sequence[Any]], key_index: int, id_index: int):
        self.key_index = key_index
        self.id_index = id_index
        self._key_of = {record[id_index]: record[key_index] for record in records}
        self.version = 0
        self.applied = 0
        self._versions = {0: sorted((key, rid) for rid, key in self._key_of.items())}

    def stage(self, changes: Sequence[Change]) -> None:
        pairs = list(self._versions[self.version])
        for record_id, key in changes:
            old = (self._key_of[record_id], record_id)
            del pairs[bisect.bisect_left(pairs, old)]
            bisect.insort(pairs, (key, record_id))
            self._key_of[record_id] = key
        self._versions[self.version + 1] = pairs
        self.version += 1
        self._versions.pop(self.version - self.KEEP, None)

    def expected(self, low: int, high: int, version: int) -> List[Tuple[int, int]]:
        pairs = self._versions[version]
        return pairs[bisect.bisect_left(pairs, (low, -1)):bisect.bisect_right(pairs, (high, float("inf")))]

    def matches(self, records: Sequence[Sequence[Any]], low: int, high: int,
                applied_before: int) -> bool:
        """Whether ``records`` are exactly the ids in range, in key order."""
        got = [(record[self.key_index], record[self.id_index]) for record in records]
        if any(a[0] > b[0] for a, b in zip(got, got[1:])):
            return False
        got.sort()
        return any(
            got == self.expected(low, high, version)
            for version in range(applied_before, self.version + 1)
            if version in self._versions
        )


# ---------------------------------------------------------------------- deployments
class Deployment:
    """What the harness drives: one workload's program under test.

    ``call`` and ``update`` are coroutines on both kinds of deployment so the
    passes are written once.  In-process calls simply never yield, and each
    in-process client runs on its own thread and loop, which is exactly a
    closed-loop caller blocking on ``db.query``.
    """

    def __init__(self, workload: Workload, scale: Scale, workdir: str):
        self.workload = workload
        self.scale = scale
        self.workdir = workdir
        self.dataset: Any = None

    def _build_dataset(self) -> Any:
        self.dataset = build_dataset(
            self.scale.records, record_size=RECORD_SIZE, domain=DOMAIN, seed=DATASET_SEED
        )
        return self.dataset

    def _require_first_answer(self) -> None:
        """Set-up ends here: one verified, non-empty answer through ``call``."""
        outcomes, = self.run(self.call(self.first_bounds()))
        if not (outcomes and all(o.verified and o.cardinality for o in outcomes)):
            raise RuntimeError("set-up did not end in a verified, non-empty answer")

    def first_bounds(self) -> Tuple[Bounds, ...]:
        """A mid-domain 5 % range: never empty on uniform keys."""
        low, high = DOMAIN
        middle = (low + high) // 2
        return ((middle, middle + (high - low) // 20),) * self.workload.batch


class InProcess(Deployment):
    """``OutsourcedDB`` in this process (also the traced twin of served ones)."""

    def __init__(self, workload: Workload, scale: Scale, workdir: str,
                 storage: Optional[str] = None, design: Optional[PhysicalDesign] = None):
        super().__init__(workload, scale, workdir)
        self.storage = storage or workload.storage
        self.design = design or workload.design
        self.db: Optional[OutsourcedDB] = None

    def setup(self) -> "InProcess":
        paged = self.storage == "paged"
        self.db = OutsourcedDB(
            self._build_dataset(),
            scheme=self.workload.scheme,
            storage=self.storage,
            data_dir=self.workdir if paged else None,
            design=self.design,
            **self.workload.scheme_kwargs,
        ).setup()
        self._require_first_answer()
        return self

    async def call(self, bounds: Sequence[Bounds]) -> List[Any]:
        if len(bounds) == 1:
            return [self.db.query(*bounds[0])]
        return self.db.query_many(list(bounds))

    async def update(self, batch: UpdateBatch) -> None:
        self.db.apply_updates(batch)

    def run(self, *coroutines: Any) -> List[Any]:
        """One thread and one loop per coroutine; every result is read."""
        if len(coroutines) == 1:
            return [asyncio.run(coroutines[0])]
        with ThreadPoolExecutor(max_workers=len(coroutines)) as pool:
            futures = [pool.submit(asyncio.run, coroutine) for coroutine in coroutines]
            return [future.result() for future in futures]

    def storage_report(self) -> Dict[str, int]:
        return dict(self.db.storage_report())

    def child_pids(self) -> List[int]:
        return []

    def restart(self) -> None:
        """Snapshot, close, and warm-restart from the bytes on disk."""
        self.db.snapshot()
        self.db.close()
        self.db = restore_deployment(self.workdir)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        shutil.rmtree(self.workdir, ignore_errors=True)


class Served(Deployment):
    """``build_fleet`` + supervised ``repro serve`` children + a wire client.

    ``fleet`` workloads talk through ``FleetRouter``; ``tcp`` ones straight to
    the single child with ``RemoteSchemeClient``.  Either way at most two
    connections per child are ever open (``pool_size=2``, two client tasks
    on one event loop).
    """

    def __init__(self, workload: Workload, scale: Scale, workdir: str):
        super().__init__(workload, scale, workdir)
        self.manager: Optional[FleetManager] = None
        self.target: Any = None
        self.loop = asyncio.new_event_loop()

    def setup(self) -> "Served":
        build_fleet(
            self._build_dataset(),
            base_dir=self.workdir,
            scheme=self.workload.scheme,
            design=self.workload.design,
            **self.workload.scheme_kwargs,
        )
        self.manager = FleetManager(self.workdir, restart=False).start()
        if self.workload.transport == "fleet":
            self.target = self.manager.router(pool_size=2)
        else:
            self.target = self.direct_client(0, pool_size=2)
        self._require_first_answer()
        return self

    def direct_client(self, shard: int, pool_size: int = 1) -> RemoteSchemeClient:
        host, port = self.manager.endpoints()[shard][0]
        return RemoteSchemeClient(host, port, pool_size=pool_size)

    async def call(self, bounds: Sequence[Bounds]) -> List[Any]:
        if len(bounds) == 1:
            return [await self.target.query(*bounds[0])]
        return await self.target.query_many(list(bounds))

    async def update(self, batch: UpdateBatch) -> None:
        await self.target.apply_updates(batch)

    def run(self, *coroutines: Any) -> List[Any]:
        """All coroutines as tasks of the one loop that owns the sockets."""
        async def together() -> List[Any]:
            return list(await asyncio.gather(*coroutines))

        return self.loop.run_until_complete(together())

    def storage_report(self) -> Dict[str, int]:
        return dict(self.run(self.target.storage_report())[0])

    def child_pids(self) -> List[int]:
        shards = range(self.manager.num_shards)
        return [pid for pid in (self.manager.child(s).pid for s in shards) if pid]

    def close(self) -> None:
        try:
            if self.target is not None:
                self.run(self.target.aclose())
                self.target = None
        finally:
            if self.manager is not None:
                self.manager.stop()
                self.manager = None
            self.loop.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def build_deployment(workload: Workload, scale: Scale, workdir: str) -> Deployment:
    os.makedirs(workdir, exist_ok=True)
    kind = Served if workload.served else InProcess
    return kind(workload, scale, workdir)
