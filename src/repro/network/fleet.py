"""Multi-process shard fleet: per-shard ``repro serve`` children behind one router.

Until this module, a sharded deployment scattered its legs onto a *thread
pool* inside one Python process, so the GIL capped real (wall-clock)
throughput regardless of shard count -- the ROADMAP's top open item.  Here
the building blocks that already exist (per-shard trees, deployment
snapshots, the binary wire codec, update epochs) compose into genuine
multi-process horizontal scale:

* :func:`build_fleet` range-partitions a dataset with the same
  :class:`~repro.core.sharding.ShardRouter` the in-process fleets use,
  outsources each slice as an independent single-shard deployment under the
  paged storage tier, snapshots it, and writes a **fleet manifest**
  (:class:`FleetManifest`: scheme, shard boundaries, record ownership,
  schema) that every router and worker process derives its routing from;
* :class:`FleetManager` launches one ``repro serve --data-dir <shard>``
  child process per shard (times N replicas, each restored from its own
  shipped snapshot copy), discovers their ``--port 0`` bindings through
  port files, health-checks them with ``PING`` frames, restarts crashed
  children from their snapshots, and stops the fleet with a graceful
  ``SIGTERM`` drain (the children refuse new connections, finish in-flight
  requests, and exit 0);
* :class:`FleetRouter` is the scatter-gather client: a query fans out to
  the children whose key ranges overlap it as parallel asyncio legs over
  the existing wire protocol, each child verifies its own leg locally (XOR
  token fold for SAE, VO recomputation for TOM), and the router merges the
  records and receipts so that the merged
  :class:`~repro.core.pipeline.QueryReceipt` carries one
  :class:`~repro.core.pipeline.ShardLegReceipt` per child and
  ``matches_leg_sums`` holds **across real process boundaries** -- a
  tampered or stale child is pinpointed by shard id exactly like an
  in-process shard.  Updates are routed shard-by-shard under a fleet-wide
  **epoch barrier**: every child receives its (possibly empty) sub-batch,
  every child's owner advances its signed epoch in lockstep, and the
  router refuses to continue if the acknowledged epochs diverge.  The
  router then demands that epoch as the ``min_epoch`` floor on every
  subsequent leg, so a child restarted from a stale snapshot surfaces as a
  *freshness* refusal instead of silently serving old state.

The driving side lives in :mod:`repro.experiments.distributed_load`
(coordinator/worker processes) and the CLI surfaces are ``repro
serve-fleet`` and ``repro bench run-load --transport fleet``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.design import PhysicalDesign
from repro.core.pipeline import ZERO_RECEIPT, QueryReceipt, ShardLegReceipt
from repro.core.sharding import ShardRouter, partition_dataset, route_update_batch
from repro.core.updates import UpdateBatch
from repro.dbms.query import QueryError, RangeQuery
from repro.network.client import (
    RemoteFreshnessError,
    RemoteSchemeClient,
)
from repro.network.wire import RemoteQueryOutcome


class FleetError(RuntimeError):
    """Raised for fleet build/launch/routing failures."""


class FleetLegError(FleetError):
    """One shard's leg failed on every replica (and every retry round).

    The per-leg pinpointing of the scatter-gather design, extended to
    process failures: the error names the shard whose children are
    unreachable, so a partial-fleet outage is attributable instead of
    surfacing as an anonymous connection error.
    """

    def __init__(self, shard: int, failed_replicas: Tuple[int, ...], cause: BaseException):
        self.shard = shard
        self.failed_replicas = failed_replicas
        self.cause = cause
        attempts = max(1, len(failed_replicas))
        super().__init__(
            f"shard {shard} leg failed on {attempts} replica(s) "
            f"{list(failed_replicas)}: {type(cause).__name__}: {cause}"
        )


#: File under a fleet's base directory holding the pickled manifest.
FLEET_MANIFEST_FILE = "fleet.pkl"

#: Human-readable sibling of the manifest (diagnostics only, never loaded).
FLEET_SUMMARY_FILE = "fleet.json"

#: Version tag written into (and required from) every fleet manifest.
FLEET_FORMAT = "repro-fleet/1"

#: Port file a shard child publishes its bound address in (under its data dir).
PORT_FILE = "serve.port"

#: Child stdout/stderr log (under its data dir) -- the crash post-mortem.
LOG_FILE = "serve.log"


def fleet_manifest_path(base_dir: Union[str, Path]) -> Path:
    """Path of the fleet manifest under ``base_dir``."""
    return Path(base_dir) / FLEET_MANIFEST_FILE


def has_fleet(base_dir: Union[str, Path]) -> bool:
    """Whether ``base_dir`` holds a built fleet."""
    return fleet_manifest_path(base_dir).exists()


def shard_data_dir(base_dir: Union[str, Path], shard: int, replica: int = 0) -> Path:
    """The snapshot directory of one shard child.

    Every replica owns its *own copy* of the shard snapshot: a serving
    child writes page files and a fresh snapshot on graceful close, so two
    processes must never share a data directory.
    """
    name = f"shard{shard}" if replica == 0 else f"shard{shard}.r{replica}"
    return Path(base_dir) / name


@dataclass
class FleetManifest:
    """Everything a router or worker needs to drive a built fleet.

    Persisted (pickled) in the fleet's base directory by :func:`build_fleet`
    and loaded by every process that routes against the fleet -- the
    manager, the CLI, and each load-generating worker.  The routing fields
    mirror :meth:`repro.core.sharding.ShardMap.snapshot_state`, so the
    multi-process fleet can never drift from how the in-process fleets
    assign records to shards.
    """

    scheme: str
    num_shards: int
    replicas: int
    boundaries: List[Any]
    schema: Any
    shard_by_id: Dict[Any, int] = field(repr=False)
    cardinality: int = 0
    dataset_name: str = ""
    pool_pages: int = 128
    design: Optional[PhysicalDesign] = None
    #: The fleet-wide update epoch at the moment this manifest was written.
    #: A router that witnesses a child epoch *beyond* this watermark knows a
    #: newer manifest may have been flipped into place and re-reads the file.
    epoch: int = 0
    #: Set while a live migration is executing: ``{"boundaries", "num_shards",
    #: "design"}`` of the *target* layout.  Routers then scatter to the union
    #: of the old and new owners of a range (a key mid-move is on exactly one
    #: of them) and refuse external updates until the final flip clears it.
    migration: Optional[Dict[str, Any]] = None
    #: Extra scheme constructor kwargs the fleet was built with (e.g. TOM's
    #: ``key_bits``) -- needed to build new shard children during a migration.
    scheme_kwargs: Dict[str, Any] = field(default_factory=dict)

    def router(self) -> ShardRouter:
        """The deterministic key router shared by every fleet participant."""
        return ShardRouter(self.boundaries, self.num_shards)

    def migration_target_router(self) -> Optional[ShardRouter]:
        """The in-flight migration's target router (``None`` outside one)."""
        if not self.migration:
            return None
        return ShardRouter(
            list(self.migration["boundaries"]), int(self.migration["num_shards"])
        )

    def physical_design(self) -> PhysicalDesign:
        """The fleet's physical design (reconstructed for pre-design manifests).

        Manifests written before the design era carry only the routing
        fields; those reconstruct a design from them so routers and
        redeploy tooling always have one.  The reconstructed cut points are
        the manifest boundaries -- the *actual* cuts the fleet serves --
        so the round-trip ``design -> manifest -> design`` is lossless for
        explicit (possibly unbalanced) cuts.
        """
        if self.design is not None:
            return self.design
        cuts = tuple(self.boundaries) if self.num_shards > 1 else None
        return PhysicalDesign(
            shards=self.num_shards,
            cut_points=cuts,
            replicas=self.replicas,
            pool_pages=self.pool_pages,
        )

    def save(self, base_dir: Union[str, Path]) -> Path:
        """Persist the manifest (atomic rename) plus a human summary."""
        path = fleet_manifest_path(base_dir)
        state = {
            "format": FLEET_FORMAT,
            "scheme": self.scheme,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "boundaries": self.boundaries,
            "schema": self.schema,
            "shard_by_id": self.shard_by_id,
            "cardinality": self.cardinality,
            "dataset_name": self.dataset_name,
            "pool_pages": self.pool_pages,
            "design": None if self.design is None else self.design.to_json_dict(),
            "epoch": self.epoch,
            "migration": self.migration,
            "scheme_kwargs": dict(self.scheme_kwargs),
        }
        scratch = path.with_suffix(".tmp")
        with open(scratch, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)
        summary = {
            "format": FLEET_FORMAT,
            "scheme": self.scheme,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "cardinality": self.cardinality,
            "dataset_name": self.dataset_name,
            "shards": {
                str(shard): str(shard_data_dir(base_dir, shard))
                for shard in range(self.num_shards)
            },
        }
        (Path(base_dir) / FLEET_SUMMARY_FILE).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, base_dir: Union[str, Path]) -> "FleetManifest":
        """Load and validate a persisted manifest.

        Only load fleet directories you trust -- like deployment snapshots,
        the manifest is a pickle.
        """
        path = fleet_manifest_path(base_dir)
        if not path.exists():
            raise FleetError(f"no fleet manifest at {path} (build the fleet first)")
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        if state.get("format") != FLEET_FORMAT:
            raise FleetError(
                f"unsupported fleet format {state.get('format')!r} at {path} "
                f"(expected {FLEET_FORMAT})"
            )
        design_state = state.get("design")
        return cls(
            scheme=str(state["scheme"]),
            num_shards=int(state["num_shards"]),
            replicas=int(state["replicas"]),
            boundaries=list(state["boundaries"]),
            schema=state["schema"],
            shard_by_id=dict(state["shard_by_id"]),
            cardinality=int(state.get("cardinality", 0)),
            dataset_name=str(state.get("dataset_name", "")),
            pool_pages=int(state.get("pool_pages", 128)),
            design=(
                None
                if design_state is None
                else PhysicalDesign.from_json_dict(design_state)
            ),
            epoch=int(state.get("epoch", 0)),
            migration=state.get("migration"),
            scheme_kwargs=dict(state.get("scheme_kwargs") or {}),
        )


def build_fleet(
    dataset: Any,
    base_dir: Union[str, Path],
    scheme: str = "sae",
    *,
    design: PhysicalDesign,
    **scheme_kwargs: Any,
) -> FleetManifest:
    """Partition ``dataset`` and ship one snapshot per shard child.

    Each shard becomes an independent single-shard deployment of
    ``scheme`` under the paged storage tier: outsourced, snapshotted and
    closed, ready for a ``repro serve --data-dir`` child to warm-restart
    it.  With ``design.replicas > 1`` every shard's snapshot directory is
    copied per standby (snapshot shipping), so each replica child serves
    its own files.  ``design`` fixes the whole physical layout -- including
    *explicit* (possibly unbalanced) cut points, which are honoured
    verbatim instead of the balanced quantile cuts -- and is persisted in
    the manifest so ``serve-fleet`` serves exactly what was built.
    Returns the saved :class:`FleetManifest`.
    """
    from repro.core import OutsourcedDB

    base = Path(base_dir)
    if has_fleet(base):
        raise FleetError(
            f"{base} already holds a fleet manifest; point build_fleet at a "
            "fresh directory (or serve the existing fleet instead)"
        )
    base.mkdir(parents=True, exist_ok=True)
    router = design.router(dataset)
    slices = partition_dataset(dataset, router)
    child_design = design.shard_local()
    for shard, sub_dataset in enumerate(slices):
        primary_dir = shard_data_dir(base, shard, 0)
        primary_dir.mkdir(parents=True, exist_ok=True)
        db = OutsourcedDB(
            sub_dataset,
            scheme=scheme,
            storage="paged",
            data_dir=str(primary_dir),
            design=child_design,
            **scheme_kwargs,
        ).setup()
        try:
            db.snapshot()
        finally:
            db.close()
        for replica in range(1, design.replicas):
            replica_dir = shard_data_dir(base, shard, replica)
            if replica_dir.exists():
                shutil.rmtree(replica_dir)
            shutil.copytree(primary_dir, replica_dir)
    key_index = dataset.schema.key_index
    id_index = dataset.schema.id_index
    # Persist the actually-used cuts on the design, so the round-trip
    # ``design -> manifest -> design`` is lossless even when the caller's
    # design left the cuts implicit (balanced-from-dataset).
    if design.shards > 1 and design.cut_points is None:
        design = design.with_overrides(cut_points=tuple(router.boundaries))
    manifest = FleetManifest(
        scheme=scheme,
        num_shards=design.shards,
        replicas=design.replicas,
        boundaries=router.boundaries,
        schema=dataset.schema,
        shard_by_id={
            record[id_index]: router.shard_of(record[key_index])
            for record in dataset.records
        },
        cardinality=dataset.cardinality,
        dataset_name=dataset.name,
        pool_pages=design.pool_pages,
        design=design,
        scheme_kwargs=dict(scheme_kwargs),
    )
    manifest.save(base)
    return manifest


# ---------------------------------------------------------------------- children
def _child_env() -> Dict[str, str]:
    """The child's environment: inherit ours, make ``repro`` importable."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


def _sync_ping(host: str, port: int) -> str:
    """One blocking PING round-trip (readiness probes run outside any loop)."""

    async def _go() -> str:
        client = RemoteSchemeClient(host, port, pool_size=1)
        try:
            return await client.ping()
        finally:
            await client.aclose()

    return asyncio.run(_go())


class ShardProcess:
    """One supervised ``repro serve`` child restored from a shard snapshot."""

    def __init__(
        self,
        shard: int,
        replica: int,
        data_dir: Union[str, Path],
        host: str = "127.0.0.1",
        pool_pages: int = 128,
        max_in_flight: int = 64,
        python: Optional[str] = None,
    ):
        self.shard = shard
        self.replica = replica
        self.data_dir = Path(data_dir)
        self.host = host
        self.port: Optional[int] = None
        self.pool_pages = pool_pages
        self.max_in_flight = max_in_flight
        self.python = python or sys.executable
        self.launches = 0
        #: Set by the manager when the child is dropped from the topology:
        #: the monitor must not relaunch a retired child's corpse.
        self.retired = False
        self._process: Optional[subprocess.Popen] = None
        self._log_handle = None

    @property
    def label(self) -> str:
        """Human-readable child identity, e.g. ``shard1.r0``."""
        return f"shard{self.shard}.r{self.replica}"

    @property
    def port_file(self) -> Path:
        """Where the child publishes its bound address."""
        return self.data_dir / PORT_FILE

    @property
    def log_file(self) -> Path:
        """The child's captured stdout/stderr."""
        return self.data_dir / LOG_FILE

    @property
    def pid(self) -> Optional[int]:
        """The child's process id (``None`` before launch)."""
        return self._process.pid if self._process is not None else None

    def launch(self) -> "ShardProcess":
        """Spawn the child (``--port 0``; the bound port lands in the port file)."""
        if self._process is not None and self._process.poll() is None:
            raise FleetError(f"{self.label} is already running (pid {self._process.pid})")
        try:
            self.port_file.unlink()
        except FileNotFoundError:
            pass
        self.port = None
        command = [
            self.python, "-m", "repro", "serve",
            "--data-dir", str(self.data_dir),
            "--host", self.host,
            "--port", "0",
            "--port-file", str(self.port_file),
            "--pool-pages", str(self.pool_pages),
            "--max-in-flight", str(self.max_in_flight),
        ]
        if self._log_handle is not None:  # relaunch after a crash
            self._log_handle.close()
        self._log_handle = open(self.log_file, "ab")
        self._process = subprocess.Popen(
            command,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            env=_child_env(),
        )
        self.launches += 1
        return self

    def poll(self) -> Optional[int]:
        """The child's exit code, or ``None`` while it runs."""
        return self._process.poll() if self._process is not None else None

    def _log_tail(self, lines: int = 8) -> str:
        try:
            content = self.log_file.read_text(errors="replace").strip().splitlines()
        except OSError:
            return ""
        return "\n".join(content[-lines:])

    def wait_ready(self, timeout_s: float = 30.0) -> Tuple[str, int]:
        """Block until the child answers a PING; returns its ``(host, port)``.

        Raises :class:`FleetError` (with the tail of the child's log) when
        the child exits or the timeout elapses first.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            code = self.poll()
            if code is not None:
                raise FleetError(
                    f"{self.label} exited with code {code} before serving; "
                    f"log tail:\n{self._log_tail()}"
                )
            if self.port is None and self.port_file.exists():
                try:
                    text = self.port_file.read_text().strip()
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                except (ValueError, OSError):
                    self.port = None  # half-visible file; retry
            if self.port is not None:
                try:
                    _sync_ping(self.host, self.port)
                    return self.host, self.port
                except (ConnectionError, OSError):
                    pass
            if time.monotonic() >= deadline:
                raise FleetError(
                    f"{self.label} did not become ready within {timeout_s:.0f}s; "
                    f"log tail:\n{self._log_tail()}"
                )
            time.sleep(0.05)

    def signal_terminate(self) -> None:
        """Send SIGTERM (graceful drain) without waiting."""
        if self._process is not None and self._process.poll() is None:
            self._process.terminate()

    def kill(self) -> None:
        """SIGKILL the child -- the crash the supervisor must recover from."""
        if self._process is not None and self._process.poll() is None:
            self._process.kill()

    def wait_exit(self, timeout_s: float = 10.0) -> int:
        """Wait for the child to exit; escalate to SIGKILL past the timeout."""
        if self._process is None:
            return 0
        try:
            code = self._process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self._process.kill()
            code = self._process.wait()
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None
        return code

    def terminate(self, grace_s: float = 10.0) -> int:
        """Graceful stop: SIGTERM, wait up to ``grace_s``, then SIGKILL."""
        self.signal_terminate()
        return self.wait_exit(grace_s)


class _Maintenance:
    """Context manager marking one child as deliberately down (no restarts)."""

    def __init__(self, manager: "FleetManager", shard: int, replica: int):
        self._manager = manager
        self._key = (shard, replica)

    def __enter__(self) -> "_Maintenance":
        with self._manager._lock:
            self._manager._maintenance.add(self._key)
        return self

    def __exit__(self, *exc_info) -> None:
        with self._manager._lock:
            self._manager._maintenance.discard(self._key)


class _FleetMaintenance:
    """Context manager suspending the monitor's crash restarts fleet-wide.

    A live migration must own crash recovery itself: the storage tier's
    durability is checkpoint-based, so a SIGKILLed child's data directory
    may be *torn* (page writes ahead of its snapshot state) and the
    monitor's warm relaunch could serve inconsistent state.  Under fleet
    maintenance the migrator restores crashed children from its own
    checkpoint copies and journal instead.  Re-entrant via a counter, so a
    nested per-child maintenance block is unaffected.
    """

    def __init__(self, manager: "FleetManager"):
        self._manager = manager

    def __enter__(self) -> "_FleetMaintenance":
        with self._manager._lock:
            self._manager._maintenance_all += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._manager._lock:
            self._manager._maintenance_all -= 1


class FleetManager:
    """Launch, health-check, restart and drain a fleet of shard children.

    The supervisor half of the multi-process story: one child per
    ``(shard, replica)`` pair, each serving its own snapshot copy.
    ``restart=True`` (the default) runs a monitor thread that relaunches
    crashed children from their snapshot directories; the relaunched child
    binds a fresh port, which the manager publishes through
    :meth:`endpoints`, so routers that resolve endpoints through
    :attr:`endpoint_provider` pick up the replacement on their next retry.
    """

    def __init__(
        self,
        base_dir: Union[str, Path],
        host: str = "127.0.0.1",
        max_in_flight: int = 64,
        restart: bool = True,
        health_interval_s: float = 0.2,
        drain_grace_s: float = 10.0,
        python: Optional[str] = None,
    ):
        self.base_dir = Path(base_dir)
        self.manifest = FleetManifest.load(self.base_dir)
        self.host = host
        self.restart = restart
        self.health_interval_s = health_interval_s
        self.drain_grace_s = drain_grace_s
        self.restarts = 0
        self._max_in_flight = max_in_flight
        self._python = python
        self._lock = threading.Lock()
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        #: ``(shard, replica)`` pairs deliberately down (e.g. a migration's
        #: drain-and-rebuild); the monitor must not "restore" them mid-work.
        self._maintenance: "set[Tuple[int, int]]" = set()
        #: Nesting depth of fleet-wide maintenance (monitor fully hands-off).
        self._maintenance_all = 0
        self._children: List[List[ShardProcess]] = [
            [
                self._spawn_child(shard, replica)
                for replica in range(self.manifest.replicas)
            ]
            for shard in range(self.manifest.num_shards)
        ]

    def _spawn_child(
        self, shard: int, replica: int, pool_pages: Optional[int] = None
    ) -> ShardProcess:
        return ShardProcess(
            shard,
            replica,
            shard_data_dir(self.base_dir, shard, replica),
            host=self.host,
            pool_pages=(
                self.manifest.pool_pages if pool_pages is None else pool_pages
            ),
            max_in_flight=self._max_in_flight,
            python=self._python,
        )

    # ------------------------------------------------------------------ lifecycle
    def start(self, timeout_s: float = 60.0) -> "FleetManager":
        """Launch every child and block until each answers a PING."""
        deadline = time.monotonic() + timeout_s
        for child in self._all_children():
            child.launch()
        try:
            for child in self._all_children():
                child.wait_ready(max(1.0, deadline - time.monotonic()))
        except FleetError:
            self.stop(grace_s=1.0)
            raise
        if self.restart:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="fleet-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def stop(self, grace_s: Optional[float] = None) -> List[int]:
        """Gracefully stop the fleet; returns every child's exit code.

        SIGTERM fans out to all children first (they drain concurrently),
        then each is waited for -- a child that ignores the drain grace is
        SIGKILLed.  Idempotent.
        """
        grace = self.drain_grace_s if grace_s is None else grace_s
        with self._lock:
            self._stopping = True
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        children = self._all_children()
        for child in children:
            child.signal_terminate()
        deadline = time.monotonic() + grace
        return [
            child.wait_exit(max(0.1, deadline - time.monotonic()))
            for child in children
        ]

    def __enter__(self) -> "FleetManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ topology
    def _all_children(self) -> List[ShardProcess]:
        with self._lock:
            return [child for replicas in self._children for child in replicas]

    def child(self, shard: int, replica: int = 0) -> ShardProcess:
        """The supervised child serving ``(shard, replica)``."""
        with self._lock:
            return self._children[shard][replica]

    @property
    def num_shards(self) -> int:
        """Shard rows currently supervised (grows during a migration)."""
        with self._lock:
            return len(self._children)

    def endpoints(self) -> List[List[Tuple[str, int]]]:
        """Current ``(host, port)`` per child, indexed ``[shard][replica]``.

        Ports change when a crashed child is relaunched; long-lived routers
        should resolve through :attr:`endpoint_provider` instead of caching
        this snapshot.
        """
        with self._lock:
            return [
                [(child.host, int(child.port or 0)) for child in replicas]
                for replicas in self._children
            ]

    @property
    def endpoint_provider(self) -> Callable[[], List[List[Tuple[str, int]]]]:
        """A live endpoint resolver for :class:`FleetRouter`."""
        return self.endpoints

    def router(self, **kwargs: Any) -> "FleetRouter":
        """A scatter-gather router resolving endpoints through this manager.

        The router also learns the fleet's base directory, so it re-reads a
        flipped ``fleet.pkl`` (a finished migration) on its own.
        """
        kwargs.setdefault("base_dir", self.base_dir)
        return FleetRouter(self.manifest, self.endpoint_provider, **kwargs)

    # ------------------------------------------------------------------ live topology
    def maintenance(self, shard: int, replica: int = 0) -> "_Maintenance":
        """Mark one child as deliberately down for the ``with`` block.

        The monitor thread leaves a child in maintenance alone, so a
        migration can drain, rebuild and relaunch it without racing the
        supervisor's crash recovery.
        """
        return _Maintenance(self, shard, replica)

    def fleet_maintenance(self) -> "_FleetMaintenance":
        """Suspend the monitor's crash restarts fleet-wide for the block.

        Used by :class:`~repro.core.migration.FleetMigrator`, which owns
        crash recovery during a migration (checkpoint copies + journal
        replay) and must not race a warm relaunch of a possibly-torn data
        directory.
        """
        return _FleetMaintenance(self)

    def add_shard(
        self, timeout_s: float = 60.0, pool_pages: Optional[int] = None
    ) -> int:
        """Launch a child for the next shard id (its data dir must exist).

        The caller builds (and snapshots) the new shard's deployment first;
        this launches and health-checks the serving child and appends it to
        the supervised topology.  Returns the new shard id.
        """
        with self._lock:
            shard = len(self._children)
        child = self._spawn_child(shard, 0, pool_pages=pool_pages)
        child.launch()
        child.wait_ready(timeout_s)
        with self._lock:
            self._children.append([child])
        return shard

    def add_replica(self, shard: int, timeout_s: float = 60.0) -> int:
        """Launch a standby for ``shard`` from its shipped snapshot copy.

        Returns the new replica index.
        """
        with self._lock:
            replica = len(self._children[shard])
        child = self._spawn_child(shard, replica)
        child.launch()
        child.wait_ready(timeout_s)
        with self._lock:
            self._children[shard].append(child)
        return replica

    def drop_replicas(self, shard: int, keep: int = 1) -> int:
        """Retire and stop every replica of ``shard`` beyond ``keep``.

        Children are removed from the topology (and marked retired, so the
        monitor never relaunches their corpses) *before* they are
        terminated.  Returns the number dropped.
        """
        with self._lock:
            victims = self._children[shard][keep:]
            del self._children[shard][keep:]
            for child in victims:
                child.retired = True
        for child in victims:
            child.terminate(self.drain_grace_s)
        return len(victims)

    def restart_child(
        self,
        shard: int,
        replica: int = 0,
        pool_pages: Optional[int] = None,
        timeout_s: float = 60.0,
    ) -> None:
        """Drain one child and relaunch it (optionally with a new pool size).

        The graceful SIGTERM makes the child write a fresh snapshot before
        exiting, so the relaunch serves the exact state it drained with --
        the rolling-restart primitive behind a migration's ``pool_pages``
        change.
        """
        child = self.child(shard, replica)
        with self.maintenance(shard, replica):
            child.terminate(self.drain_grace_s)
            if pool_pages is not None:
                child.pool_pages = pool_pages
            child.launch()
            child.wait_ready(timeout_s)

    # ------------------------------------------------------------------ drills & supervision
    def kill_child(self, shard: int, replica: int = 0) -> None:
        """SIGKILL one child (the failure-drill entry point)."""
        self.child(shard, replica).kill()

    def wait_restarted(self, shard: int, replica: int = 0, timeout_s: float = 30.0) -> None:
        """Block until a killed child's replacement answers PINGs again."""
        child = self.child(shard, replica)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if child.poll() is None and child.port is not None:
                try:
                    _sync_ping(child.host, child.port)
                    return
                except (ConnectionError, OSError):
                    pass
            time.sleep(0.05)
        raise FleetError(
            f"{child.label} was not restarted within {timeout_s:.0f}s "
            f"(restart={'on' if self.restart else 'off'})"
        )

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            for child in self._all_children():
                with self._lock:
                    if self._stopping:
                        return
                    hands_off = (
                        child.retired
                        or self._maintenance_all > 0
                        or (child.shard, child.replica) in self._maintenance
                    )
                    crashed = not hands_off and child.poll() is not None
                if not crashed:
                    continue
                try:
                    child.launch()
                    child.wait_ready(timeout_s=30.0)
                    with self._lock:
                        self.restarts += 1
                except FleetError:
                    # The snapshot may be gone or the port taken; the next
                    # sweep retries.  A child that cannot come back keeps
                    # surfacing as per-leg errors at the router.
                    pass
            time.sleep(self.health_interval_s)


# ---------------------------------------------------------------------- router
#: Endpoint table type: ``endpoints[shard][replica] -> (host, port)``.
EndpointTable = List[List[Tuple[str, int]]]


class FleetRouter:
    """Scatter-gather client over the shard children of one fleet.

    Each query fans out to the shards whose ranges overlap it as parallel
    asyncio legs, one pooled :class:`RemoteSchemeClient` per child.  A leg
    that cannot reach its primary fails over to the shard's replicas (and,
    across ``leg_retry_rounds``, to a supervisor-restarted replacement);
    the serving replica and every dead one attempted first are recorded on
    the merged receipt's :class:`ShardLegReceipt`, exactly like the
    in-process replicated fleets.  When every replica is unreachable the
    leg raises :class:`FleetLegError` naming the shard.

    ``endpoints`` is either a static table (``[shard][replica] -> (host,
    port)``, what worker processes receive) or a callable returning one
    (:attr:`FleetManager.endpoint_provider`, which tracks restarts).

    With ``base_dir`` set (what :meth:`FleetManager.router` passes), the
    router also follows **manifest flips**: every leg outcome is stamped
    with the epoch it was served at, and a router that witnesses an epoch
    beyond its manifest's watermark re-reads ``fleet.pkl`` *before
    returning any result* -- so a live migration's final flip propagates to
    long-lived routers without reconnecting them.  While the manifest's
    ``migration`` field is set, queries scatter to the union of each
    range's old and new owner shards (a mid-move key lives on exactly one
    of them) and a scatter is only merged when every leg of a query was
    served at one definite epoch -- otherwise it raced a migration barrier
    and is retried.  Routers built from a static endpoint table (no
    ``base_dir``) cannot follow flips and keep their construction-time
    routing.
    """

    def __init__(
        self,
        manifest: FleetManifest,
        endpoints: Union[EndpointTable, Callable[[], EndpointTable]],
        pool_size: int = 4,
        max_in_flight: Optional[int] = None,
        leg_retry_rounds: int = 2,
        retry_backoff_s: float = 0.25,
        min_epoch: int = 0,
        base_dir: Union[str, Path, None] = None,
        consistency_retries: int = 10,
        consistency_backoff_s: float = 0.05,
    ):
        self._endpoints = endpoints
        self._pool_size = pool_size
        self._max_in_flight = max_in_flight
        self._leg_retry_rounds = leg_retry_rounds
        self._retry_backoff_s = retry_backoff_s
        self._epoch = min_epoch
        self._base_dir = Path(base_dir) if base_dir is not None else None
        self._consistency_retries = consistency_retries
        self._consistency_backoff_s = consistency_backoff_s
        self._clients: Dict[Tuple[str, int], RemoteSchemeClient] = {}
        self._manifest_mtime: Optional[int] = None
        if self._base_dir is not None:
            try:
                self._manifest_mtime = (
                    fleet_manifest_path(self._base_dir).stat().st_mtime_ns
                )
            except OSError:
                pass
        self._adopt_manifest(manifest)
        self._seen_epoch = max(min_epoch, manifest.epoch)

    def _adopt_manifest(self, manifest: FleetManifest) -> None:
        self._manifest = manifest
        self._router = manifest.router()
        self._shard_by_id = dict(manifest.shard_by_id)
        self._target_router = manifest.migration_target_router()

    def _maybe_reload(self, observed_epoch: Optional[int]) -> bool:
        """Re-read ``fleet.pkl`` when a child's epoch outran the manifest.

        Cheap in the steady state: one ``stat`` per *newly observed* epoch,
        a full reload only when the file actually changed (a migration
        wrote a transitional or final manifest).  Returns ``True`` when a
        new manifest was adopted -- the caller must then re-plan whatever
        it was doing instead of returning a stale-routed result.
        """
        if observed_epoch is None or self._base_dir is None:
            return False
        if observed_epoch <= self._seen_epoch:
            return False
        self._seen_epoch = observed_epoch
        path = fleet_manifest_path(self._base_dir)
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            return False
        if mtime == self._manifest_mtime:
            return False
        manifest = FleetManifest.load(self._base_dir)
        self._manifest_mtime = mtime
        self._adopt_manifest(manifest)
        self._seen_epoch = max(self._seen_epoch, manifest.epoch)
        return True

    @staticmethod
    def _epoch_agreement(
        outcomes: Sequence[RemoteQueryOutcome],
    ) -> Tuple[bool, Optional[int]]:
        """Whether one query's legs were all served at a single definite epoch.

        Returns ``(consistent, max_observed_epoch)``.  Legs without an
        epoch stamp (pre-migration servers) are skipped, so mixed fleets
        stay mergeable.
        """
        definite = [
            outcome.server_epoch
            for outcome in outcomes
            if outcome.server_epoch is not None
        ]
        torn = any(outcome.epoch_torn for outcome in outcomes)
        observed = max(definite) if definite else None
        return (not torn and len(set(definite)) <= 1), observed

    # ------------------------------------------------------------------ meta
    @property
    def scheme_name(self) -> str:
        """Registry name of the scheme every child serves."""
        return self._manifest.scheme

    @property
    def num_shards(self) -> int:
        """Number of shard children the router scatters over."""
        return self._manifest.num_shards

    @property
    def current_epoch(self) -> int:
        """The update epoch this router has witnessed (its ``min_epoch`` floor)."""
        return self._epoch

    # ------------------------------------------------------------------ plumbing
    def _resolve(self, shard: int) -> List[Tuple[str, int]]:
        table = self._endpoints() if callable(self._endpoints) else self._endpoints
        try:
            return list(table[shard])
        except IndexError:
            raise FleetError(
                f"no endpoints for shard {shard} (table has {len(table)} shards)"
            ) from None

    def _client(self, endpoint: Tuple[str, int]) -> RemoteSchemeClient:
        client = self._clients.get(endpoint)
        if client is None:
            client = RemoteSchemeClient(
                endpoint[0],
                endpoint[1],
                pool_size=self._pool_size,
                max_in_flight=self._max_in_flight,
            )
            self._clients[endpoint] = client
        return client

    async def _leg(
        self, shard: int, call: Callable[[RemoteSchemeClient], Any]
    ) -> Tuple[Any, int, Tuple[int, ...]]:
        """Run one leg with replica failover; returns (result, replica, failed).

        Connection-level failures rotate to the next replica; a fresh
        retry round (after a short backoff) re-resolves the endpoint
        table, which is how a supervisor-restarted child on a new port
        rejoins the rotation.  Freshness refusals also rotate -- a stale
        replica must not mask a fresh one -- but are re-raised as
        themselves when no replica satisfies the epoch floor.
        """
        failed: List[int] = []
        last_error: Optional[BaseException] = None
        rounds = self._leg_retry_rounds + 1
        for round_no in range(rounds):
            for replica, endpoint in enumerate(self._resolve(shard)):
                if endpoint[1] == 0:
                    continue  # not (re)bound yet
                client = self._client(endpoint)
                try:
                    result = await call(client)
                except (ConnectionError, OSError, RemoteFreshnessError) as exc:
                    last_error = exc
                    if replica not in failed:
                        failed.append(replica)
                    continue
                return (
                    result,
                    replica,
                    tuple(f for f in failed if f != replica),
                )
            if round_no + 1 < rounds and self._retry_backoff_s > 0:
                await asyncio.sleep(self._retry_backoff_s)
        if last_error is None:
            last_error = ConnectionError("no bound endpoint for the shard")
        if isinstance(last_error, RemoteFreshnessError):
            raise last_error
        raise FleetLegError(shard, tuple(failed), last_error)

    def _shards_for(self, low: Any, high: Any) -> List[int]:
        if low is None or high is None:
            raise QueryError("range query bounds must not be None")
        shards = self._router.shards_for_range(low, high)
        if self._target_router is None:
            return shards
        # Mid-migration: a key in the range is owned by its old shard until
        # its move barrier commits and by its new shard afterwards, so the
        # query must cover both routers' owners to see every key exactly once.
        union = set(shards)
        union.update(self._target_router.shards_for_range(low, high))
        return sorted(union)

    # ------------------------------------------------------------------ queries
    async def query(self, low: Any, high: Any, verify: bool = True) -> RemoteQueryOutcome:
        """Scatter one range query to the overlapping children and merge.

        The merge is epoch-guarded: when the legs were not all served at
        one definite epoch (they raced a migration barrier), the scatter is
        retried -- and when a leg's epoch reveals a flipped manifest, the
        manifest is re-read and the query re-planned under the new cuts, so
        a stale-routed result is never returned.
        """
        attempts = self._consistency_retries + 3
        for attempt in range(attempts):
            shards = self._shards_for(low, high)
            legs = await asyncio.gather(
                *(
                    self._leg(
                        shard,
                        lambda client: client.query(
                            low, high, verify=verify, min_epoch=self._epoch
                        ),
                    )
                    for shard in shards
                )
            )
            leg_tuples = [
                (shard, outcome, replica, failed)
                for shard, (outcome, replica, failed) in zip(shards, legs)
            ]
            consistent, observed = self._epoch_agreement(
                [outcome for _, outcome, _, _ in leg_tuples]
            )
            if self._maybe_reload(observed):
                continue  # re-plan under the freshly adopted manifest
            if consistent:
                return self._merge(low, high, leg_tuples, verify)
            if self._consistency_backoff_s > 0:
                await asyncio.sleep(self._consistency_backoff_s)
        raise FleetError(
            f"no epoch-consistent scatter for [{low!r}, {high!r}] after "
            f"{attempts} attempts (migration barriers kept racing the reads)"
        )

    async def query_many(
        self, bounds: Sequence[Tuple[Any, Any]], verify: bool = True
    ) -> List[RemoteQueryOutcome]:
        """Scatter a batch: one ``QUERY_MANY`` frame per overlapped child.

        Every child receives only the sub-batch of queries overlapping its
        range (preserving batch order within the sub-batch), the children
        execute in parallel, and each query's outcomes are re-gathered
        across its shards -- the multi-process analogue of the in-process
        batched scatter.  Epoch-guarded like :meth:`query`: the batch is
        retried while any single query's legs straddle a migration barrier.
        """
        attempts = self._consistency_retries + 3
        for attempt in range(attempts):
            plans = [self._shards_for(low, high) for low, high in bounds]
            positions: Dict[int, List[int]] = {}
            for index, shards in enumerate(plans):
                for shard in shards:
                    positions.setdefault(shard, []).append(index)
            ordered_shards = sorted(positions)
            leg_results = await asyncio.gather(
                *(
                    self._leg(
                        shard,
                        lambda client, taken=tuple(positions[shard]): client.query_many(
                            [bounds[i] for i in taken],
                            verify=verify,
                            min_epoch=self._epoch,
                        ),
                    )
                    for shard in ordered_shards
                )
            )
            by_shard = {
                shard: (
                    {index: outcome for index, outcome in zip(positions[shard], outcomes)},
                    replica,
                    failed,
                )
                for shard, (outcomes, replica, failed) in zip(ordered_shards, leg_results)
            }
            consistent = True
            observed: Optional[int] = None
            for index in range(len(bounds)):
                ok, seen = self._epoch_agreement(
                    [by_shard[shard][0][index] for shard in plans[index]]
                )
                consistent = consistent and ok
                if seen is not None:
                    observed = seen if observed is None else max(observed, seen)
            if self._maybe_reload(observed):
                continue
            if consistent:
                merged = []
                for index, (low, high) in enumerate(bounds):
                    legs = []
                    for shard in plans[index]:
                        outcomes, replica, failed = by_shard[shard]
                        legs.append((shard, outcomes[index], replica, failed))
                    merged.append(self._merge(low, high, legs, verify))
                return merged
            if self._consistency_backoff_s > 0:
                await asyncio.sleep(self._consistency_backoff_s)
        raise FleetError(
            f"no epoch-consistent scatter for the {len(bounds)}-query batch "
            f"after {attempts} attempts (migration barriers kept racing the reads)"
        )

    def _merge(
        self,
        low: Any,
        high: Any,
        legs: List[Tuple[int, RemoteQueryOutcome, int, Tuple[int, ...]]],
        verify: bool,
    ) -> RemoteQueryOutcome:
        """Gather child outcomes into one fleet outcome.

        Records concatenate in shard order (shards are key-ordered, so the
        merged result preserves range order); the merged receipt's totals
        are the sums of the child receipts with one leg per child, so
        ``matches_leg_sums`` holds by construction and a rejecting child
        is pinpointed in ``reason`` by its fleet-wide shard id.
        """
        records = tuple(
            itertools.chain.from_iterable(outcome.records for _, outcome, _, _ in legs)
        )
        payloads = tuple(
            itertools.chain.from_iterable(outcome.payloads for _, outcome, _, _ in legs)
        )
        if self._target_router is not None and records:
            # Mid-migration the union scatter returns keys out of shard
            # order (a moved key answers from its new owner); re-sort so the
            # merged result keeps the range order callers rely on, each
            # record beside the bytes it was decoded from.
            key_index = self._manifest.schema.key_index
            pairs = sorted(zip(records, payloads), key=lambda pair: pair[0][key_index])
            records = tuple(record for record, _ in pairs)
            payloads = tuple(payload for _, payload in pairs)
        verified = all(outcome.verified for _, outcome, _, _ in legs)
        freshness = any(outcome.freshness_violation for _, outcome, _, _ in legs)
        reason = ""
        if not verified:
            rejecting = [
                (shard, outcome.reason)
                for shard, outcome, _, _ in legs
                if not outcome.verified
            ]
            if verify:
                shards_text = ",".join(str(shard) for shard, _ in rejecting)
                first_reason = next(
                    (text for _, text in rejecting if text), "leg rejected"
                )
                reason = f"shard(s) {shards_text} rejected: {first_reason}"
            else:
                reason = next((text for _, text in rejecting if text), "")
        sp = te = ZERO_RECEIPT
        auth_bytes = result_bytes = 0
        client_cpu_ms = 0.0
        bytes_by_channel: Dict[str, int] = {}
        leg_receipts = []
        for shard, outcome, replica, failed in legs:
            receipt = outcome.receipt
            if receipt is None:
                leg_receipts.append(
                    ShardLegReceipt(shard=shard, replica=replica, failed_replicas=failed)
                )
                continue
            sp = sp + receipt.sp
            te = te + receipt.te
            auth_bytes += receipt.auth_bytes
            result_bytes += receipt.result_bytes
            client_cpu_ms += receipt.client_cpu_ms
            for channel, nbytes in receipt.bytes_by_channel.items():
                bytes_by_channel[channel] = bytes_by_channel.get(channel, 0) + nbytes
            leg_receipts.append(
                ShardLegReceipt(
                    shard=shard,
                    sp=receipt.sp,
                    te=receipt.te,
                    auth_bytes=receipt.auth_bytes,
                    result_bytes=receipt.result_bytes,
                    replica=replica,
                    failed_replicas=failed,
                )
            )
        attribute = self._manifest.schema.key_column
        query = (
            RangeQuery.degenerate(low, high, attribute)
            if low > high
            else RangeQuery(low=low, high=high, attribute=attribute)
        )
        receipt = QueryReceipt(
            query=query,
            sp=sp,
            te=te,
            auth_bytes=auth_bytes,
            result_bytes=result_bytes,
            client_cpu_ms=client_cpu_ms,
            bytes_by_channel=bytes_by_channel,
            legs=tuple(leg_receipts),
        )
        return RemoteQueryOutcome(
            records=records,
            payloads=payloads,
            verified=verified,
            reason=reason,
            scheme=self._manifest.scheme,
            receipt=receipt,
            freshness_violation=freshness,
        )

    # ------------------------------------------------------------------ updates
    async def apply_updates(self, batch: UpdateBatch) -> int:
        """Route a batch shard-by-shard under the fleet-wide epoch barrier.

        Every child receives its sub-batch -- *including empty ones*: an
        empty batch still advances a child owner's signed epoch, which is
        what keeps the whole fleet's epochs in lockstep.  The acknowledged
        epochs must agree; the router then adopts that epoch as the
        ``min_epoch`` floor for every subsequent leg, so a child serving
        pre-update state (e.g. restarted from an old snapshot) is refused
        as a freshness violation rather than trusted.  Returns the new
        fleet epoch.

        Migration safety: a probe epoch is read first so a router that has
        not queried recently adopts a flipped or transitional manifest
        *before* routing the batch; while a migration is executing the
        batch is refused outright (record placement is the migrator's to
        change), and an apply that is discovered post-hoc to have raced a
        final flip raises instead of silently mis-placing records.
        """
        if self._base_dir is not None:
            probe, _, _ = await self._leg(
                0, lambda client: client.server_epoch()
            )
            self._maybe_reload(probe)
        if self._target_router is not None:
            raise FleetError(
                "a live migration is executing against this fleet; external "
                "updates are refused until the manifest flip completes"
            )
        sub_batches = route_update_batch(
            batch,
            self._router,
            self._shard_by_id,
            key_index=self._manifest.schema.key_index,
            id_index=self._manifest.schema.id_index,
        )
        results = await asyncio.gather(
            *(
                self._leg(
                    shard,
                    lambda client, sub=sub_batches[shard]: client.apply_updates_epoch(
                        sub, min_epoch=self._epoch
                    ),
                )
                for shard in range(self.num_shards)
            )
        )
        epochs = {
            shard: epoch
            for shard, ((_, epoch), _, _) in zip(range(self.num_shards), results)
        }
        distinct = set(epochs.values())
        if len(distinct) != 1:
            raise FleetError(
                f"epoch barrier violated: per-shard epochs diverged {epochs}"
            )
        self._epoch = distinct.pop()
        if self._maybe_reload(self._epoch):
            raise FleetError(
                "update batch raced a migration manifest flip; re-run "
                "`repro migrate` so the batch's records land on their "
                "current owner shards"
            )
        return self._epoch

    # ------------------------------------------------------------------ fleet ops
    async def ping_all(self) -> Dict[int, str]:
        """PING every shard's serving replica; shard id -> scheme name."""
        results = await asyncio.gather(
            *(
                self._leg(shard, lambda client: client.ping())
                for shard in range(self.num_shards)
            )
        )
        return {shard: scheme for shard, (scheme, _, _) in enumerate(results)}

    async def server_epochs(self) -> Dict[int, int]:
        """Each shard's current update epoch (via PING)."""
        results = await asyncio.gather(
            *(
                self._leg(shard, lambda client: client.server_epoch())
                for shard in range(self.num_shards)
            )
        )
        return {shard: epoch for shard, (epoch, _, _) in enumerate(results)}

    async def storage_report(self) -> Dict[str, int]:
        """Fleet-wide storage footprint: per-party sums over the children."""
        results = await asyncio.gather(
            *(
                self._leg(shard, lambda client: client.storage_report())
                for shard in range(self.num_shards)
            )
        )
        totals: Dict[str, int] = {}
        for report, _, _ in results:
            for party, nbytes in report.items():
                totals[party] = totals.get(party, 0) + int(nbytes)
        return totals

    # ------------------------------------------------------------------ lifecycle
    async def aclose(self) -> None:
        """Close every pooled child client (idempotent)."""
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.aclose()

    async def __aenter__(self) -> "FleetRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
