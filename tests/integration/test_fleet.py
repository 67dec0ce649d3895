"""Multi-process fleet: scatter-gather over real `repro serve` children.

The tentpole claims of the fleet layer, each over *real process
boundaries* and real sockets:

* a scattered query's merged receipt carries one leg per shard child and
  still satisfies ``matches_leg_sums``;
* updates run under the fleet-wide epoch barrier (every child's signed
  epoch advances in lockstep);
* a killed child is either pinpointed by shard id
  (:class:`~repro.network.fleet.FleetLegError`), failed over to a replica
  (recorded on the leg receipt), or restarted by the supervisor;
* children stopped via SIGTERM drain and exit 0;
* the coordinator/worker load harness drives the fleet from separate
  processes with zero corrupted receipts.
"""

import asyncio
import time

import pytest

from repro.core.design import PhysicalDesign
from repro.core.updates import UpdateBatch
from repro.experiments.distributed_load import run_distributed_load
from repro.network.fleet import (
    FleetLegError,
    FleetManager,
    FleetManifest,
    build_fleet,
)
from repro.workloads import build_dataset

#: Small and fast: every fleet test launches real child processes.
FLEET_RECORDS = 400


def _run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def fleet_dataset():
    return build_dataset(FLEET_RECORDS, record_size=96, seed=3)


@pytest.fixture(scope="module")
def sae_fleet(fleet_dataset, tmp_path_factory):
    """One 2-shard SAE fleet shared by the read-path tests (updates last)."""
    base = tmp_path_factory.mktemp("sae-fleet")
    build_fleet(fleet_dataset, base, scheme="sae", design=PhysicalDesign(shards=2), seed=3)
    with FleetManager(base, restart=False) as manager:
        yield fleet_dataset, base, manager


def _range_covering(dataset, fraction=0.7):
    """A range from the smallest key up to the ``fraction`` quantile.

    The default reaches past the 2-shard boundary (the median), so queries
    built from it scatter across both children.
    """
    keys = sorted(dataset.keys())
    return keys[0], keys[int(len(keys) * fraction)]


class TestFleetQueries:
    def test_scatter_gather_parity_and_receipts(self, sae_fleet):
        dataset, _, manager = sae_fleet
        low, high = _range_covering(dataset)
        key_index = dataset.schema.key_index

        async def drive():
            async with manager.router() as router:
                return await router.query(low, high)

        outcome = _run(drive())
        expected = sorted(
            tuple(record) for record in dataset.records
            if low <= record[key_index] <= high
        )
        assert outcome.verified
        assert sorted(tuple(r) for r in outcome.records) == expected
        # The merged receipt spans both children and still sums exactly.
        assert len(outcome.receipt.legs) == 2
        assert outcome.receipt.matches_leg_sums()
        assert {leg.shard for leg in outcome.receipt.legs} == {0, 1}

    def test_query_many_batches_per_child(self, sae_fleet):
        dataset, _, manager = sae_fleet
        keys = sorted(dataset.keys())
        bounds = [
            (keys[0], keys[40]),
            (keys[100], keys[140]),
            (keys[-40], keys[-1]),
            (keys[5], keys[-5]),  # spans both shards
        ]

        async def drive():
            async with manager.router() as router:
                return await router.query_many(bounds)

        outcomes = _run(drive())
        assert len(outcomes) == len(bounds)
        assert all(outcome.verified for outcome in outcomes)
        assert all(outcome.receipt.matches_leg_sums() for outcome in outcomes)
        key_index = dataset.schema.key_index
        for (low, high), outcome in zip(bounds, outcomes):
            expected = sum(
                1 for record in dataset.records
                if low <= record[key_index] <= high
            )
            assert len(outcome.records) == expected

    def test_reversed_range_is_empty_and_verified(self, sae_fleet):
        _, _, manager = sae_fleet

        async def drive():
            async with manager.router() as router:
                return await router.query(10, 5)

        outcome = _run(drive())
        assert outcome.verified
        assert outcome.records == ()

    def test_distributed_load_coordinator_and_workers(self, sae_fleet):
        dataset, base, manager = sae_fleet
        keys = sorted(dataset.keys())
        step = len(keys) // 14
        bounds = [
            (keys[i * step], keys[i * step + step // 2]) for i in range(12)
        ]
        report = run_distributed_load(
            str(base),
            manager.endpoints(),
            bounds,
            num_workers=2,
            clients_per_worker=2,
            mode="per-query",
            scheme="sae",
            num_shards=2,
        )
        assert report.num_queries == len(bounds)
        assert report.all_verified
        assert report.failed_queries == 0
        assert report.receipts_consistent
        assert report.throughput_qps > 0
        assert len(report.worker_qps) == 2

    def test_update_epoch_barrier_advances_every_child(self, sae_fleet):
        # Runs last in this class: it advances the shared fleet's epoch.
        dataset, _, manager = sae_fleet
        low, high = _range_covering(dataset, fraction=0.2)
        record = tuple(dataset.records[0])

        async def drive():
            async with manager.router() as router:
                assert await router.server_epochs() == {0: 0, 1: 0}
                epoch = await router.apply_updates(UpdateBatch().modify(record))
                assert epoch == 1
                # Both children advanced, including the one whose
                # sub-batch was empty -- that is the barrier.
                assert await router.server_epochs() == {0: 1, 1: 1}
                outcome = await router.query(low, high)
                assert outcome.verified
                assert outcome.receipt.matches_leg_sums()

        _run(drive())


class TestFleetFailures:
    def test_killed_child_is_pinpointed_by_shard(self, fleet_dataset, tmp_path):
        build_fleet(fleet_dataset, tmp_path, scheme="sae", design=PhysicalDesign(shards=2), seed=3)
        low, high = _range_covering(fleet_dataset, fraction=0.9)
        with FleetManager(tmp_path, restart=False) as manager:
            manager.kill_child(1, 0)
            manager.child(1, 0).wait_exit()

            async def drive():
                async with manager.router(leg_retry_rounds=0) as router:
                    with pytest.raises(FleetLegError) as excinfo:
                        await router.query(low, high)
                    assert excinfo.value.shard == 1
                    assert excinfo.value.failed_replicas == (0,)
                    # The healthy shard still answers on its own.
                    keys = sorted(fleet_dataset.keys())
                    outcome = await router.query(keys[0], keys[10])
                    assert outcome.verified
                    assert outcome.receipt.matches_leg_sums()

            _run(drive())

    def test_replica_failover_mid_load_zero_corrupted_receipts(
        self, fleet_dataset, tmp_path
    ):
        build_fleet(
            fleet_dataset, tmp_path, scheme="sae",
            design=PhysicalDesign(shards=2, replicas=2), seed=3,
        )
        keys = sorted(fleet_dataset.keys())
        bounds = [(keys[i * 9], keys[i * 9 + 30]) for i in range(40)]
        with FleetManager(tmp_path, restart=False) as manager:

            async def drive():
                outcomes = []
                async with manager.router() as router:

                    async def clients():
                        for low, high in bounds:
                            outcomes.append(await router.query(low, high))

                    async def killer():
                        while len(outcomes) < 5:
                            await asyncio.sleep(0.005)
                        manager.kill_child(0, 0)

                    await asyncio.gather(clients(), killer())
                return outcomes

            outcomes = _run(drive())
        assert len(outcomes) == len(bounds)
        assert all(outcome.verified for outcome in outcomes)
        assert all(outcome.receipt.matches_leg_sums() for outcome in outcomes)
        # The failover is visible on the merged receipts, not absorbed.
        failovers = [
            leg
            for outcome in outcomes
            for leg in outcome.receipt.legs
            if leg.replica == 1 and leg.failed_replicas == (0,)
        ]
        assert failovers

    def test_supervisor_restarts_crashed_child(self, fleet_dataset, tmp_path):
        build_fleet(fleet_dataset, tmp_path, scheme="sae", design=PhysicalDesign(shards=2), seed=3)
        low, high = _range_covering(fleet_dataset)
        with FleetManager(tmp_path, restart=True) as manager:
            first_pid = manager.child(0, 0).pid
            manager.kill_child(0, 0)
            manager.wait_restarted(0, 0, timeout_s=30.0)
            # The replacement answers PINGs slightly before the monitor
            # thread logs the restart; wait for the counter too.
            deadline = time.monotonic() + 5.0
            while manager.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert manager.restarts == 1
            assert manager.child(0, 0).pid != first_pid

            async def drive():
                async with manager.router() as router:
                    return await router.query(low, high)

            outcome = _run(drive())
            assert outcome.verified
            assert outcome.receipt.matches_leg_sums()

    def test_sigterm_drains_children_to_exit_zero(self, fleet_dataset, tmp_path):
        build_fleet(fleet_dataset, tmp_path, scheme="sae", design=PhysicalDesign(shards=2), seed=3)
        manager = FleetManager(tmp_path, restart=False)
        manager.start()
        low, high = _range_covering(fleet_dataset)

        async def drive():
            async with manager.router() as router:
                assert (await router.query(low, high)).verified

        _run(drive())
        codes = manager.stop()
        assert codes == [0, 0]
        # Idempotent: a second stop reports the same exits, launches nothing.
        assert manager.stop() == [0, 0]

    def test_duplicate_sigterm_after_drain_still_exits_zero(self, tmp_path):
        # A supervisor's SIGTERM and a process-group forward can both land
        # on the same child.  The late duplicate arrives after the drain,
        # while the child is writing its close snapshot -- it must be
        # ignored, not turn the clean exit into a signal death (and a
        # possibly half-written page file).
        import signal
        import subprocess
        import sys

        from repro.core.scheme import restore_deployment
        from repro.network.fleet import _child_env

        data_dir = tmp_path / "serve"
        log_file = tmp_path / "serve.log"
        port_file = tmp_path / "serve.port"
        with open(log_file, "ab") as log_handle:
            child = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--records", "3000", "--data-dir", str(data_dir),
                    "--port", "0", "--port-file", str(port_file),
                ],
                stdout=log_handle,
                stderr=subprocess.STDOUT,
                env=_child_env(),
            )
            try:
                deadline = time.monotonic() + 60.0
                while not port_file.exists():
                    assert child.poll() is None, log_file.read_text()
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                child.send_signal(signal.SIGTERM)
                while b"drained" not in log_file.read_bytes():
                    if child.poll() is not None:
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                if child.poll() is None:  # duplicate lands mid-close
                    child.send_signal(signal.SIGTERM)
                assert child.wait(timeout=30.0) == 0, log_file.read_text()
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        # The close snapshot survived the duplicate signal intact.
        restored = restore_deployment(str(data_dir))
        with restored:
            keys = sorted(restored.dataset.keys())
            assert restored.query(keys[0], keys[50]).verified


class TestTomFleet:
    def test_tom_fleet_end_to_end(self, fleet_dataset, tmp_path):
        build_fleet(
            fleet_dataset, tmp_path, scheme="tom",
            design=PhysicalDesign(shards=2), key_bits=512, seed=3,
        )
        manifest = FleetManifest.load(tmp_path)
        assert manifest.scheme == "tom"
        low, high = _range_covering(fleet_dataset)
        record = tuple(fleet_dataset.records[1])
        with FleetManager(tmp_path, restart=False) as manager:

            async def drive():
                async with manager.router() as router:
                    assert await router.ping_all() == {0: "tom", 1: "tom"}
                    outcome = await router.query(low, high)
                    assert outcome.verified
                    assert outcome.scheme == "tom"
                    assert outcome.receipt.matches_leg_sums()
                    assert await router.apply_updates(
                        UpdateBatch().modify(record)
                    ) == 1
                    outcome = await router.query(low, high)
                    assert outcome.verified

            _run(drive())


class TestSkewedCutPoints:
    """Explicit (unbalanced) cut points: manifest round trip + routing parity.

    Regression for the design era: a fleet built to deliberately skewed
    cuts must persist exactly those cuts in its manifest, and the
    manifest's router must split update batches identically to an
    in-process router built from the same design.
    """

    def _skewed_design(self, dataset):
        keys = sorted(dataset.keys())
        # Deliberately unbalanced: shard 0 owns only the bottom tenth.
        cuts = (keys[len(keys) // 10], keys[len(keys) // 2])
        return PhysicalDesign(shards=3, cut_points=cuts, pool_pages=48)

    def test_manifest_round_trips_unbalanced_design(self, fleet_dataset, tmp_path):
        design = self._skewed_design(fleet_dataset)
        built = build_fleet(fleet_dataset, base_dir=tmp_path, scheme="sae",
                            seed=3, design=design)
        assert built.physical_design() == design
        loaded = FleetManifest.load(tmp_path)
        assert loaded.physical_design() == design
        assert list(loaded.boundaries) == list(design.cut_points)

    def test_route_update_batch_matches_in_process_router(
        self, fleet_dataset, tmp_path
    ):
        from repro.core.sharding import route_update_batch

        design = self._skewed_design(fleet_dataset)
        build_fleet(fleet_dataset, base_dir=tmp_path, scheme="sae",
                    seed=3, design=design)
        manifest = FleetManifest.load(tmp_path)
        key_index = fleet_dataset.schema.key_index
        id_index = fleet_dataset.schema.id_index

        def mixed_batch():
            batch = UpdateBatch()
            for record in fleet_dataset.records[:10]:
                batch.modify(tuple(record))
            batch.delete(fleet_dataset.records[11][id_index])
            fresh = list(fleet_dataset.records[12])
            fresh[id_index] = max(r[id_index] for r in fleet_dataset.records) + 1
            batch.insert(tuple(fresh))
            return batch

        def ownership():
            return {
                record[id_index]: design.router().shard_of(record[key_index])
                for record in fleet_dataset.records
            }

        via_manifest = route_update_batch(
            mixed_batch(), manifest.router(), ownership(),
            key_index=key_index, id_index=id_index,
        )
        via_design = route_update_batch(
            mixed_batch(), design.router(), ownership(),
            key_index=key_index, id_index=id_index,
        )
        assert [list(sub) for sub in via_manifest] == [
            list(sub) for sub in via_design
        ]
        # The skew is real: shard 0 must own far fewer records than shard 2.
        owners = list(ownership().values())
        assert owners.count(0) < owners.count(2) / 2

    def test_skewed_fleet_serves_verified_scatter_gather(
        self, fleet_dataset, tmp_path
    ):
        design = self._skewed_design(fleet_dataset)
        build_fleet(fleet_dataset, base_dir=tmp_path, scheme="sae",
                    seed=3, design=design)
        low, high = _range_covering(fleet_dataset, fraction=0.8)
        key_index = fleet_dataset.schema.key_index
        with FleetManager(tmp_path, restart=False) as manager:

            async def drive():
                async with manager.router() as router:
                    return await router.query(low, high)

            outcome = _run(drive())
        assert outcome.verified
        assert outcome.receipt.matches_leg_sums()
        # The 0.8-quantile range spans all three skewed shards.
        assert len(outcome.receipt.legs) == 3
        expected = sorted(
            tuple(record) for record in fleet_dataset.records
            if low <= record[key_index] <= high
        )
        assert sorted(tuple(r) for r in outcome.records) == expected
