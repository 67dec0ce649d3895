"""End-to-end tests for the real network tier: server, client SDK, parity.

Each test serves a deployment on a localhost socket through
:class:`~repro.network.server.ServerThread` and drives it with the pooled
async :class:`~repro.network.client.RemoteSchemeClient`.  The core claim is
*transport transparency*: a served query returns the same records, the same
verdict and the same (deterministic parts of the) receipt as the in-process
call, including the scatter-gather ``matches_leg_sums`` invariant.
"""

import asyncio

import pytest

from repro.core import OutsourcedDB, UpdateBatch
from repro.core.design import PhysicalDesign
from repro.experiments.throughput import run_load
from repro.network import wire
from repro.network.client import (
    RemoteFreshnessError,
    RemoteSchemeClient,
    RemoteSchemeError,
)
from repro.network.server import ServerThread
from repro.workloads import build_dataset
from repro.workloads.queries import RangeQueryWorkload

SCHEME_KWARGS = {"sae": {}, "tom": {"key_bits": 512, "seed": 7}}


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(1_200, record_size=96, seed=3)


def _deploy(dataset, scheme: str, shards: int = 1) -> OutsourcedDB:
    return OutsourcedDB(
        dataset, scheme=scheme, design=PhysicalDesign(shards=shards), **SCHEME_KWARGS[scheme]
    ).setup()


def _roundtrip(server: ServerThread, coroutine_factory):
    """Run one async client interaction against a serving thread."""

    async def main():
        async with RemoteSchemeClient(server.host, server.port, pool_size=4) as client:
            return await coroutine_factory(client)

    return asyncio.run(main())


class TestServedQueries:
    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_served_query_matches_in_process(self, dataset, scheme):
        with _deploy(dataset, scheme) as db:
            local = db.query(1_000_000, 1_500_000)
            with ServerThread(db) as server:
                remote = _roundtrip(
                    server, lambda client: client.query(1_000_000, 1_500_000)
                )
        assert remote.verified and local.verified
        assert list(remote.records) == [tuple(r) for r in local.records]
        assert remote.scheme == scheme
        assert remote.sp_accesses == local.sp_accesses
        assert remote.te_accesses == local.te_accesses
        assert remote.auth_bytes == local.auth_bytes
        assert remote.result_bytes == local.result_bytes
        assert remote.receipt.matches_leg_sums()

    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_sharded_receipt_legs_survive_the_wire(self, dataset, scheme):
        with _deploy(dataset, scheme, shards=3) as db:
            with ServerThread(db) as server:
                remote = _roundtrip(
                    server, lambda client: client.query(0, 10_000_000)
                )
        assert remote.verified
        assert len(remote.receipt.legs) > 1
        assert remote.receipt.matches_leg_sums()
        assert remote.sp_accesses == sum(
            leg.sp.node_accesses for leg in remote.receipt.legs
        )

    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_query_many_with_all_reversed_bounds_over_tcp(self, dataset, scheme):
        bounds = [(9, 2), (100, 50), (7, 6)]
        with _deploy(dataset, scheme) as db:
            with ServerThread(db) as server:
                outcomes = _roundtrip(
                    server, lambda client: client.query_many(bounds)
                )
        assert len(outcomes) == len(bounds)
        for (low, high), outcome in zip(bounds, outcomes):
            assert outcome.verified
            assert outcome.cardinality == 0
            assert (outcome.query.low, outcome.query.high) == (low, high)
            assert outcome.receipt.sp.node_accesses == 0

    def test_query_many_weaves_reversed_bounds_in_position(self, dataset):
        bounds = [(0, 500_000), (9, 2), (1_000_000, 1_100_000)]
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:
                outcomes = _roundtrip(
                    server, lambda client: client.query_many(bounds)
                )
        assert [o.query.low for o in outcomes] == [b[0] for b in bounds]
        assert outcomes[1].cardinality == 0
        assert outcomes[0].cardinality > 0 and outcomes[2].cardinality > 0
        assert all(o.verified for o in outcomes)

    def test_verify_false_is_not_presented_as_verified(self, dataset):
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:
                remote = _roundtrip(
                    server,
                    lambda client: client.query(1_000_000, 1_500_000, verify=False),
                )
        assert not remote.verified
        assert remote.cardinality > 0

    def test_server_relays_errors_without_dying(self, dataset):
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:

                async def bad_then_good(client):
                    with pytest.raises(RemoteSchemeError, match="bound"):
                        await client.query(None, 5)  # rejected by RangeQuery
                    return await client.query(1_000_000, 1_200_000)

                remote = _roundtrip(server, bad_then_good)
        assert remote.verified


class TestServedUpdates:
    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_query_after_update_receipts_stay_consistent_over_tcp(self, scheme):
        dataset = build_dataset(800, record_size=96, seed=11)
        key_low = min(dataset.keys())
        batch = (
            UpdateBatch()
            .insert((10_000_001, key_low + 1, b"fresh-record"))
            .delete(dataset.id_of(dataset.records[0]))
        )
        with _deploy(dataset, scheme) as db:
            with ServerThread(db) as server:

                async def update_then_query(client):
                    before = await client.query(key_low, key_low + 2_000_000)
                    applied = await client.apply_updates(batch)
                    after = await client.query(key_low, key_low + 2_000_000)
                    return before, applied, after

                before, applied, after = _roundtrip(server, update_then_query)
        assert applied == 2
        assert before.verified and after.verified
        assert after.receipt.matches_leg_sums()
        ids = {record[0] for record in after.records}
        assert 10_000_001 in ids

    def test_storage_report_over_tcp(self, dataset):
        with _deploy(dataset, "sae") as db:
            local = db.storage_report()
            with ServerThread(db) as server:
                remote = _roundtrip(server, lambda client: client.storage_report())
        assert remote == local


class TestFreshnessOverTheWire:
    def test_ping_reports_the_update_epoch(self, dataset):
        record = tuple(dataset.records[0])
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:

                async def epochs(client):
                    before = await client.server_epoch()
                    await client.apply_updates(UpdateBatch().modify(record))
                    return before, await client.server_epoch()

                before, after = _roundtrip(server, epochs)
        assert before == 0
        assert after == 1

    def test_update_ok_frame_carries_the_new_epoch(self, dataset):
        record = tuple(dataset.records[0])
        batch = UpdateBatch().modify(record)
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:
                response = _roundtrip(
                    server,
                    lambda client: client._request(
                        wire.FRAME_UPDATE,
                        {"operations": wire.update_batch_to_wire(batch)},
                        wire.FRAME_OK,
                    ),
                )
        assert response["applied"] == 1
        assert response["epoch"] == 1

    def test_stale_server_refuses_min_epoch_demands(self, dataset):
        record = tuple(dataset.records[0])
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:

                async def demand_fresher(client):
                    with pytest.raises(RemoteFreshnessError) as info:
                        await client.query(0, 10_000_000, min_epoch=5)
                    refusal = info.value
                    assert refusal.epoch == 0
                    assert refusal.min_epoch == 5
                    with pytest.raises(RemoteFreshnessError):
                        await client.query_many([(0, 100)], min_epoch=5)
                    with pytest.raises(RemoteFreshnessError):
                        await client.apply_updates(
                            UpdateBatch().modify(record), min_epoch=5
                        )
                    # A floor at (or below) the server's epoch is satisfiable;
                    # so is not demanding one at all.
                    satisfied = await client.query(0, 10_000_000, min_epoch=0)
                    await client.apply_updates(UpdateBatch().modify(record))
                    caught_up = await client.query(0, 10_000_000, min_epoch=1)
                    return satisfied, caught_up

                satisfied, caught_up = _roundtrip(server, demand_fresher)
        assert satisfied.verified
        assert caught_up.verified

    def test_freshness_refusal_does_not_kill_the_connection(self, dataset):
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:

                async def refuse_then_serve(client):
                    with pytest.raises(RemoteFreshnessError):
                        await client.query(0, 100, min_epoch=99)
                    return await client.query(1_000_000, 1_200_000)

                remote = _roundtrip(server, refuse_then_serve)
        assert remote.verified


class TestShutdown:
    def test_server_stop_completes_with_a_client_still_connected(self, dataset):
        """Regression: stopping the server must not deadlock on an open
        connection (Server.wait_closed waits for active handlers on
        Python >= 3.12.1, so handlers must be cancelled first)."""
        import socket
        import threading

        with _deploy(dataset, "sae") as db:
            server = ServerThread(db).start()
            lingering = socket.create_connection((server.host, server.port))
            try:
                stopper = threading.Thread(target=server.stop)
                stopper.start()
                stopper.join(timeout=10)
                assert not stopper.is_alive(), "server.stop() deadlocked"
            finally:
                lingering.close()

    def test_client_aclose_aborts_in_flight_connections(self, dataset):
        """A client torn down mid-request closes its sockets, so the
        server's handlers unpark instead of waiting forever."""
        with _deploy(dataset, "sae") as db:
            with ServerThread(db) as server:

                async def cancel_mid_flight():
                    client = RemoteSchemeClient(server.host, server.port, pool_size=2)
                    task = asyncio.ensure_future(client.query(0, 10_000_000))
                    await asyncio.sleep(0)  # let the request reach the wire
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    await client.aclose()
                    assert client._opened == 0
                    assert not client._live

                asyncio.run(cancel_mid_flight())


class TestConcurrentClients:
    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_eight_concurrent_clients_all_verify(self, dataset, scheme):
        workload = RangeQueryWorkload(
            count=32, seed=5, attribute=dataset.schema.key_column
        )
        bounds = [(query.low, query.high) for query in workload]
        with _deploy(dataset, scheme) as db:
            report = run_load(
                db.system, bounds, num_clients=8, mode="per-query", transport="tcp"
            )
        assert report.transport == "tcp"
        assert report.num_queries == len(bounds)
        assert report.all_verified
        assert report.receipts_consistent
        assert report.failed_queries == 0
        assert report.server_qps > 0

    def test_batched_mode_over_tcp(self, dataset):
        workload = RangeQueryWorkload(
            count=30, seed=6, attribute=dataset.schema.key_column
        )
        bounds = [(query.low, query.high) for query in workload]
        with _deploy(dataset, "sae") as db:
            report = run_load(
                db.system, bounds, num_clients=4, mode="batched", batch_size=5,
                transport="tcp",
            )
        assert report.all_verified and report.receipts_consistent

    def test_tcp_receipts_match_in_process_leg_sums(self, dataset):
        """The tentpole invariant: served receipts charge exactly what the
        in-process pipeline charges, query by query."""
        workload = RangeQueryWorkload(
            count=12, seed=8, attribute=dataset.schema.key_column
        )
        bounds = [(query.low, query.high) for query in workload]
        with _deploy(dataset, "sae", shards=2) as db:
            local = {pair: db.query(*pair) for pair in bounds}
            report = run_load(
                db.system, bounds, num_clients=8, mode="per-query", transport="tcp"
            )
        for outcome in report.outcomes:
            pair = (outcome.query.low, outcome.query.high)
            reference = local[pair]
            assert outcome.sp_accesses == reference.sp_accesses
            assert outcome.te_accesses == reference.te_accesses
            assert outcome.auth_bytes == reference.auth_bytes
            assert outcome.result_bytes == reference.result_bytes
            assert outcome.receipt.matches_leg_sums()
