"""In-process legs run on the calling thread.

A query's SP and proof legs run one after the other on the thread that
issued it, so a deployment starts no thread of its own; concurrency
between *queries* comes from the callers' threads, each holding the
deployment's read/write lock shared.  Three properties pin that design:

* no deployment shape -- not even a sharded, replicated one -- changes the
  process's thread count, from setup through ``close``;
* two legs served on one thread still keep separate scoped tallies: each
  leg's receipt charges exactly what its shard's party charges alone (for
  SAE, ``tests/unit/fixtures/receipt_parity.json`` pins the per-leg counts
  of a sharded and a replicated shape through ``query`` and
  ``query_many``; TOM is checked here);
* a query that was waiting for the lock while ``close`` ran is refused with
  a typed :class:`SchemeError`, never an error from a closed store, and a
  ``close`` that raced another one closes nothing twice.
"""

import threading

import pytest

from repro.core import OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.core.pipeline import ExecutionContext
from repro.core.scheme import SchemeError, scheme_class

SCHEME_KWARGS = {"sae": {}, "tom": {"key_bits": 512, "seed": 7}}


def spanning_bounds(dataset):
    keys = sorted(dataset.keys())
    return [(keys[0], keys[-1]), (keys[100], keys[700]), (keys[900], keys[1_000])]


@pytest.mark.parametrize("scheme", ["sae", "tom"])
def test_a_sharded_replicated_deployment_starts_no_thread(small_dataset, scheme):
    before = threading.active_count()
    db = OutsourcedDB(
        small_dataset,
        scheme=scheme,
        design=PhysicalDesign(shards=2, replicas=2),
        **SCHEME_KWARGS[scheme],
    ).setup()
    assert threading.active_count() == before
    bounds = spanning_bounds(small_dataset)
    outcome = db.query(*bounds[0])
    assert outcome.verified and len(outcome.receipt.legs) == 2
    assert threading.active_count() == before
    outcomes = db.query_many(bounds)
    assert all(outcome.verified for outcome in outcomes)
    assert threading.active_count() == before
    db.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("shape", [{"shards": 2}, {"shards": 2, "replicas": 2}])
def test_tom_legs_on_one_thread_keep_separate_tallies(small_dataset, shape):
    with OutsourcedDB(
        small_dataset, scheme="tom", design=PhysicalDesign(**shape),
        **SCHEME_KWARGS["tom"],
    ).setup() as db:
        system = db.system
        bounds = spanning_bounds(small_dataset)
        outcomes = [db.query(*bounds[0])] + db.query_many(bounds)
        for outcome in outcomes:
            receipt = outcome.receipt
            assert receipt.matches_leg_sums()
            for leg in receipt.legs:
                fleet = system.sp_replica(leg.replica) if shape.get("replicas") else db.provider
                alone = ExecutionContext(query=receipt.query)
                system._execute(fleet.shard(leg.shard), receipt.query, alone, None)
                assert leg.sp.node_accesses == alone.sp.node_accesses > 0


@pytest.mark.parametrize("method", ["query", "query_many"])
def test_a_query_racing_close_gets_a_typed_refusal(tmp_path, small_dataset, method):
    system = scheme_class("sae")(
        small_dataset, storage="paged", data_dir=str(tmp_path),
        design=PhysicalDesign(pool_pages=8),
    ).setup()
    low, high = spanning_bounds(small_dataset)[1]
    lock = system._state_lock
    read_locked = lock.read_locked
    at_lock = threading.Event()
    release = threading.Event()
    errors = []

    def paused_read_locked():
        # Only the query thread pauses, just before it asks for the lock.
        if threading.current_thread() is querier:
            at_lock.set()
            release.wait(timeout=30)
        return read_locked()

    def run_query():
        try:
            if method == "query":
                system.query(low, high)
            else:
                system.query_many([(low, high)])
        except Exception as exc:  # re-raised below, under pytest.raises
            errors.append(exc)

    lock.read_locked = paused_read_locked
    querier = threading.Thread(target=run_query)
    querier.start()
    assert at_lock.wait(timeout=30)
    system.close()
    release.set()
    querier.join(timeout=30)
    assert not querier.is_alive()
    assert len(errors) == 1
    with pytest.raises(SchemeError, match="closed"):
        raise errors[0]


def test_a_close_racing_close_closes_each_store_once(tmp_path, small_dataset):
    system = scheme_class("sae")(
        small_dataset, storage="paged", data_dir=str(tmp_path),
        design=PhysicalDesign(pool_pages=8),
    ).setup()
    parties = system._parties()
    closed = []
    for name, party in parties.items():
        close_storage = party.close_storage
        party.close_storage = (
            lambda name=name, close_storage=close_storage:
            (closed.append(name), close_storage())
        )
    # The first close pauses in its final snapshot, holding the lock.
    provider = parties["sp"]
    flush = provider.flush_storage
    in_snapshot = threading.Event()
    release = threading.Event()

    def paused_flush():
        in_snapshot.set()
        release.wait(timeout=30)
        flush()

    provider.flush_storage = paused_flush
    errors = []

    def close():
        try:
            system.close()
        except Exception as exc:  # reported below
            errors.append(exc)

    # The second close signals once it asks for the lock the first holds.
    lock = system._state_lock
    write_locked = lock.write_locked
    at_lock = threading.Event()

    def signalling_write_locked():
        if threading.current_thread() is closers[1]:
            at_lock.set()
        return write_locked()

    lock.write_locked = signalling_write_locked
    closers = [threading.Thread(target=close) for _ in range(2)]
    closers[0].start()
    assert in_snapshot.wait(timeout=30)
    provider.flush_storage = flush
    closers[1].start()
    assert at_lock.wait(timeout=30)
    release.set()
    for closer in closers:
        closer.join(timeout=30)
        assert not closer.is_alive()
    assert errors == []
    assert sorted(closed) == sorted(parties)
    assert system.closed
