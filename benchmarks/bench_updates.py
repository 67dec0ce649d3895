"""Ablation A4: update-path cost in both models.

The paper claims the XB-tree "supports fast insertion and deletion
operations in O(log n) time".  This benchmark measures the end-to-end update
path of both deployments -- data owner, dataset storage and authentication
structure -- for a batch of mixed operations, and separately the
authentication-only maintenance (XB-tree at the TE vs MB-tree plus RSA
re-signing in TOM).
"""

import itertools

import pytest

from repro.core import SaeScheme, UpdateBatch
from repro.tom import TomScheme
from repro.workloads import build_dataset

N_RECORDS = 4_000
BATCH_SIZE = 25


@pytest.fixture(scope="module")
def systems():
    dataset_sae = build_dataset(N_RECORDS, record_size=200, seed=51)
    dataset_tom = build_dataset(N_RECORDS, record_size=200, seed=51)
    sae = SaeScheme(dataset_sae).setup()
    tom = TomScheme(dataset_tom, key_bits=1024, seed=51).setup()
    return sae, tom


def _batches(start_id):
    """An endless supply of distinct insert/delete batches (so repeated
    benchmark rounds never collide on record ids)."""
    for round_number in itertools.count():
        base = start_id + round_number * BATCH_SIZE
        batch = UpdateBatch()
        for offset in range(BATCH_SIZE):
            batch.insert((base + offset, (base + offset) % 10_000_000, b"inserted"))
        cleanup = UpdateBatch()
        for offset in range(BATCH_SIZE):
            cleanup.delete(base + offset)
        yield batch, cleanup


def test_sae_update_batch(benchmark, systems):
    sae, _ = systems
    supply = _batches(10_000_000)

    def run():
        batch, cleanup = next(supply)
        sae.apply_updates(batch)
        sae.apply_updates(cleanup)

    benchmark(run)
    assert sae.query(0, 10_000_000).verified


def test_tom_update_batch(benchmark, systems):
    _, tom = systems
    supply = _batches(20_000_000)

    def run():
        batch, cleanup = next(supply)
        tom.apply_updates(batch)
        tom.apply_updates(cleanup)

    benchmark(run)
    assert tom.query(0, 10_000_000).verified


def test_te_only_maintenance(benchmark, systems):
    """The authentication-side work alone: XB-tree insert+delete of one tuple."""
    sae, _ = systems
    trusted_entity = sae.trusted_entity
    from repro.core.updates import UpdateBatch as Batch

    counter = itertools.count(30_000_000)

    def run():
        record_id = next(counter)
        fields = (record_id, record_id % 10_000_000, b"te-only")
        trusted_entity.apply_updates(Batch().insert(fields), dataset_schema=sae.dataset.schema)
        trusted_entity.apply_updates(Batch().delete(record_id), dataset_schema=sae.dataset.schema)

    benchmark(run)
