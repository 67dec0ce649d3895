"""The party instances a benchmark traces from outside the program.

A tracing harness wraps methods on the party objects it reaches by attribute
(``setattr`` on the instance, which shadows the class method):
``db.provider.execute``, ``db.system.client.verify`` and, under SAE,
``db.system.trusted_entity.generate_vt`` / ``generate_vt_batch``.  It reads
page counters through ``db.provider.node_store`` and
``db.system.trusted_entity.xbtree.store``.  Every query must run through
exactly those instances and methods, or such a probe would silently see
nothing; this module pins that on the unsharded deployments.
"""

import threading

import pytest

from repro.core import OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.workloads import build_dataset

BOUNDS = [(0, 400_000), (150_000, 900_000), (5_000_000, 5_600_000), (9_000_000, 9_900_000)]

SHAPES = {
    "sae-memory": ("sae", "memory"),
    "sae-paged": ("sae", "paged"),
    "tom-memory": ("tom", "memory"),
}


@pytest.fixture(params=sorted(SHAPES))
def db(request, tmp_path):
    scheme, storage = SHAPES[request.param]
    kwargs = {"design": PhysicalDesign(pool_pages=8)}
    if storage == "paged":
        kwargs.update(storage="paged", data_dir=str(tmp_path))
    if scheme == "tom":
        kwargs.update(key_bits=512, seed=7)
    dataset = build_dataset(1_000, record_size=64, seed=5)
    with OutsourcedDB(dataset, scheme=scheme, **kwargs).setup() as deployment:
        yield deployment


def wrap_probes(db):
    """Count calls the way a tracing harness wraps: one instance attribute each."""
    system = db.system
    targets = [(db.provider, "execute"), (system.client, "verify")]
    if db.scheme_name == "sae":
        targets += [
            (system.trusted_entity, "generate_vt"),
            (system.trusted_entity, "generate_vt_batch"),
        ]
    calls = {method: 0 for _, method in targets}
    lock = threading.Lock()  # legs run on pool threads

    for target, method in targets:
        original = getattr(target, method)

        def counted(*args, _original=original, _method=method, **kwargs):
            with lock:
                calls[_method] += 1
            return _original(*args, **kwargs)

        setattr(target, method, counted)
    return calls


def test_each_query_calls_every_probe_once(db):
    calls = wrap_probes(db)
    for low, high in BOUNDS:
        before = dict(calls)
        assert db.query(low, high).verified
        fired = {method: calls[method] - before[method] for method in calls}
        expected = {"execute": 1, "verify": 1}
        if db.scheme_name == "sae":
            expected.update(generate_vt=1, generate_vt_batch=0)
        assert fired == expected


def test_query_many_makes_one_token_batch_and_one_execute_per_bound(db):
    calls = wrap_probes(db)
    outcomes = db.query_many(BOUNDS)
    assert all(outcome.verified for outcome in outcomes)
    assert calls["execute"] == len(BOUNDS)
    assert calls["verify"] == len(BOUNDS)
    if db.scheme_name == "sae":
        assert (calls["generate_vt_batch"], calls["generate_vt"]) == (1, 0)


def test_page_counter_paths_resolve(db):
    stores = [db.provider.node_store]
    if db.scheme_name == "sae":
        stores.append(db.system.trusted_entity.xbtree.store)
    assert all(store is not None for store in stores)
    if db.system.storage.is_paged:
        assert all(store.pool.pager.counter is not None for store in stores)
