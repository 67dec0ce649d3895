"""Integration tests for the paged storage tier.

Pins the acceptance properties of the bounded-memory serving work:

* a scheme built with ``storage="paged"`` and a pool far smaller than the
  dataset's node count answers the full query/update workload with results
  and logical charges identical to ``storage="memory"``;
* ``snapshot()`` + restore serves correct, verifiable queries without any
  re-signing (TOM's root signatures survive byte-for-byte);
* receipts under the paged store expose the buffer pool's hit/miss/eviction
  counters and still satisfy ``matches_leg_sums`` when sharded and when
  served over TCP.
"""

import asyncio
import errno
import pickle

import pytest

from repro.core import DropAttack, OutsourcedDB, UpdateBatch
from repro.core.design import PhysicalDesign
from repro.core.scheme import SchemeError, has_snapshot, restore_deployment
from repro.workloads import build_dataset

CARDINALITY = 900
POOL_PAGES = 6  # far below the node count of every tree involved

BOUNDS = [
    (1_000_000, 1_700_000),
    (2_500_000, 2_500_000),
    (0, 4_000_000),
    (3_900_000, 100),  # reversed: empty verified result
    (1_200_000, 1_200_500),
]


def _dataset():
    return build_dataset(CARDINALITY, record_size=96, seed=11)


def _update_batch(dataset):
    victim = dataset.records[7]
    moved = dataset.records[13]
    return (
        UpdateBatch()
        .insert((990_001, 1_350_000, "inserted-under-paging"))
        .delete(victim[0])
        .modify((moved[0], 2_600_000, "moved-across-the-domain"))
    )


def _outcome_fingerprint(outcome):
    return (
        sorted(map(tuple, outcome.records)),
        outcome.verified,
        outcome.receipt.sp.node_accesses,
        outcome.receipt.te.node_accesses,
    )


@pytest.mark.parametrize("scheme", ["sae", "tom"])
@pytest.mark.parametrize("shards", [1, 3])
def test_paged_matches_memory_for_queries_and_updates(tmp_path, scheme, shards):
    dataset = _dataset()
    kwargs = dict(scheme=scheme, key_bits=512, seed=11)
    memory = OutsourcedDB(_dataset(), design=PhysicalDesign(shards=shards), **kwargs).setup()
    paged = OutsourcedDB(
        dataset,
        storage="paged",
        data_dir=str(tmp_path / f"{scheme}{shards}"),
        design=PhysicalDesign(shards=shards, pool_pages=POOL_PAGES),
        **kwargs,
    ).setup()
    with memory, paged:
        for low, high in BOUNDS:
            assert _outcome_fingerprint(
                paged.query(low, high)
            ) == _outcome_fingerprint(memory.query(low, high))

        memory.apply_updates(_update_batch(memory.dataset))
        paged.apply_updates(_update_batch(paged.dataset))

        for low, high in BOUNDS:
            mem_outcome = memory.query(low, high)
            paged_outcome = paged.query(low, high)
            assert _outcome_fingerprint(paged_outcome) == _outcome_fingerprint(mem_outcome)
            assert paged_outcome.receipt.matches_leg_sums()

        batch_memory = memory.query_many(BOUNDS)
        batch_paged = paged.query_many(BOUNDS)
        for mem_outcome, paged_outcome in zip(batch_memory, batch_paged):
            assert _outcome_fingerprint(paged_outcome) == _outcome_fingerprint(mem_outcome)


@pytest.mark.parametrize("scheme", ["sae", "tom"])
def test_pool_is_smaller_than_the_dataset_and_receipts_expose_it(tmp_path, scheme):
    paged = OutsourcedDB(
        _dataset(),
        scheme=scheme,
        key_bits=512,
        seed=11,
        # low fanout: the tree spans many more nodes than the pool
        design=PhysicalDesign(page_size=512, pool_pages=POOL_PAGES),
        storage="paged",
        data_dir=str(tmp_path),
    ).setup()
    with paged:
        provider = paged.provider
        assert provider.node_store.num_nodes > POOL_PAGES
        assert provider.node_store.pool.resident_pages <= POOL_PAGES

        outcome = paged.query(0, 4_000_000)  # full scan: must page
        assert outcome.verified
        receipt = outcome.receipt
        assert receipt.sp.pool_hits + receipt.sp.pool_misses > 0
        assert receipt.sp.pool_misses > 0  # pool cannot hold the working set
        if scheme == "sae":
            assert receipt.te.pool_hits + receipt.te.pool_misses > 0
        # physical counters ride along on receipt addition
        total = receipt.sp + receipt.te
        assert total.pool_misses == receipt.sp.pool_misses + receipt.te.pool_misses


def test_memory_storage_reports_zero_pool_counters():
    memory = OutsourcedDB(_dataset(), scheme="sae", seed=11).setup()
    with memory:
        receipt = memory.query(1_000_000, 1_700_000).receipt
    assert (receipt.sp.pool_hits, receipt.sp.pool_misses, receipt.sp.pool_evictions) == (0, 0, 0)


@pytest.mark.parametrize("scheme,shards", [("sae", 1), ("sae", 2), ("tom", 1), ("tom", 2)])
def test_snapshot_restore_serves_identical_verified_results(tmp_path, scheme, shards):
    data_dir = str(tmp_path)
    system = OutsourcedDB(
        _dataset(),
        scheme=scheme,
        key_bits=512,
        seed=11,
        design=PhysicalDesign(shards=shards, pool_pages=POOL_PAGES),
        storage="paged",
        data_dir=data_dir,
    ).setup()
    system.apply_updates(_update_batch(system.dataset))
    before = [system.query(low, high) for low, high in BOUNDS]
    if scheme == "tom":
        signatures_before = [
            ads.signature.value for ads in system.provider.ads_slices()
        ]
    path = system.snapshot()
    system.close()
    assert has_snapshot(data_dir) and path.endswith("state.pkl")

    restored = restore_deployment(data_dir, pool_pages=POOL_PAGES)
    with restored:
        assert restored.scheme_name == scheme
        assert restored.num_shards == shards
        for (low, high), reference in zip(BOUNDS, before):
            outcome = restored.query(low, high)
            assert _outcome_fingerprint(outcome) == _outcome_fingerprint(reference)
            assert outcome.receipt.matches_leg_sums()
        if scheme == "tom":
            # No re-signing happened: the restored slices carry the exact
            # signatures the owner produced before the snapshot.
            signatures_after = [
                ads.signature.value for ads in restored.provider.ads_slices()
            ]
            assert signatures_after == signatures_before


def test_restored_deployment_accepts_updates_and_detects_tampering(tmp_path):
    data_dir = str(tmp_path)
    system = OutsourcedDB(
        _dataset(),
        scheme="sae",
        seed=11,
        storage="paged",
        data_dir=data_dir,
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()
    system.snapshot()
    system.close()

    restored = restore_deployment(data_dir, pool_pages=POOL_PAGES)
    with restored:
        restored.apply_updates(_update_batch(restored.dataset))
        honest = restored.query(1_000_000, 1_700_000)
        assert honest.verified
        restored.provider.attack = DropAttack(count=1, seed=3)
        tampered = restored.query(1_000_000, 1_700_000)
        assert not tampered.verified


def test_restored_deployment_serves_over_tcp(tmp_path):
    from repro.network.client import RemoteSchemeClient
    from repro.network.server import ServerThread

    data_dir = str(tmp_path)
    system = OutsourcedDB(
        _dataset(),
        scheme="tom",
        key_bits=512,
        seed=11,
        storage="paged",
        data_dir=data_dir,
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()
    system.snapshot()
    system.close()

    restored = restore_deployment(data_dir, pool_pages=POOL_PAGES)

    async def drive(port):
        async with RemoteSchemeClient("127.0.0.1", port) as client:
            return await client.query(1_000_000, 1_700_000)

    with restored:
        with ServerThread(restored.system) as server:
            outcome = asyncio.run(drive(server.port))
    assert outcome.verified
    assert outcome.receipt.matches_leg_sums()
    # the remote receipt carries the pool counters of the cold first pass
    assert outcome.receipt.sp.pool_misses > 0


def test_clean_close_checkpoints_updates_made_after_the_snapshot(tmp_path):
    """close() on a durable deployment takes a final snapshot, so updates
    applied after the last explicit snapshot() survive a clean shutdown."""
    data_dir = str(tmp_path)
    system = OutsourcedDB(
        _dataset(),
        scheme="sae",
        seed=11,
        storage="paged",
        data_dir=data_dir,
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()
    system.snapshot()
    system.apply_updates(
        UpdateBatch().insert((991_777, 1_640_000, "after-the-explicit-snapshot"))
    )
    expected = _outcome_fingerprint(system.query(1_600_000, 1_700_000))
    system.close()  # auto-checkpoint: state.pkl must now include the insert

    restored = restore_deployment(data_dir, pool_pages=POOL_PAGES)
    with restored:
        outcome = restored.query(1_600_000, 1_700_000)
        assert _outcome_fingerprint(outcome) == expected
        assert any(record[0] == 991_777 for record in outcome.records)


def test_sqlite_backend_snapshot_raises_scheme_error(tmp_path):
    system = OutsourcedDB(
        _dataset(),
        scheme="sae",
        seed=11,
        backend="sqlite",
        storage="paged",
        data_dir=str(tmp_path),
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()
    with pytest.raises(SchemeError):
        system.snapshot()
    system.close()  # must not blow up on the unsnapshotable backend


def test_snapshot_requires_the_paged_tier(tmp_path):
    memory = OutsourcedDB(_dataset(), scheme="sae", seed=11).setup()
    with memory:
        with pytest.raises(SchemeError):
            memory.snapshot()
    volatile = OutsourcedDB(
        _dataset(), scheme="sae", seed=11, storage="paged",
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()
    with volatile:
        with pytest.raises(SchemeError):
            volatile.snapshot()  # paged but no data_dir: nothing durable
    with pytest.raises(SchemeError):
        restore_deployment(str(tmp_path / "empty"))


def _paged_500(tmp_path, scheme, replicas=1, **kwargs):
    return OutsourcedDB(
        build_dataset(500, record_size=64, seed=5),
        scheme=scheme,
        key_bits=512,
        seed=7,
        storage="paged",
        data_dir=str(tmp_path),
        design=PhysicalDesign(replicas=replicas, pool_pages=POOL_PAGES),
        **kwargs,
    ).setup()


@pytest.mark.parametrize("scheme", ["sae", "tom"])
class TestCloseReleasesEverything:
    """close() checkpoints exactly when snapshot() would succeed, releases
    standbys, parties and the pool even when that checkpoint fails, and
    lets the failure propagate instead of leaving a half-closed deployment."""

    def test_a_failed_final_snapshot_still_closes(self, tmp_path, monkeypatch, scheme):
        db = _paged_500(tmp_path, scheme)

        def out_of_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pickle, "dump", out_of_space)
        with pytest.raises(OSError):
            db.close()
        assert db.system.closed
        with pytest.raises(SchemeError):
            db.query(0, 4_000_000)

    def test_a_replicated_deployment_closes_without_a_snapshot(self, tmp_path, scheme):
        db = _paged_500(tmp_path, scheme, replicas=2)
        db.close()
        assert db.system.closed
        assert not has_snapshot(str(tmp_path))



def test_an_sqlite_deployment_closes_without_a_snapshot(tmp_path):
    db = _paged_500(tmp_path, "sae", backend="sqlite")
    db.close()
    assert db.system.closed
    assert not has_snapshot(str(tmp_path))


def test_a_key_changing_modify_encodes_its_path_not_the_tree(tmp_path, monkeypatch):
    """A one-record modify re-encodes the nodes on the paths it walks (SP
    B+-tree delete and insert, TE XB-tree delete and insert), not every
    sibling of every parent: the commit encodes what the scope loaded."""
    from repro.storage import node_store

    dataset = build_dataset(20_000, record_size=96, seed=5)
    db = OutsourcedDB(
        dataset,
        storage="paged",
        data_dir=str(tmp_path),
        design=PhysicalDesign(pool_pages=64),
    ).setup()
    calls = []
    encode = node_store.encode_node
    monkeypatch.setattr(node_store, "encode_node", lambda node: calls.append(1) or encode(node))
    with db:
        for step, record in enumerate(dataset.records[::2_500]):
            calls.clear()
            db.apply_updates(UpdateBatch().modify(
                (record[0], (record[1] + 4_999_999 * (step + 1)) % 10_000_000, "moved")
            ))
            assert 0 < len(calls) <= 20, (step, len(calls))
        assert db.query(2_000_000, 2_100_000).verified
