"""Integration tests of the update path (DO -> SP + TE / DO -> SP with re-signing)."""

import random

import pytest

from repro.core import SaeScheme, UpdateBatch
from repro.tom import TomScheme
from repro.workloads.datasets import build_dataset


@pytest.fixture()
def fresh_dataset():
    return build_dataset(600, distribution="uniform", record_size=96, seed=91)


def random_batch(rng, dataset, next_id, size=15):
    batch = UpdateBatch()
    live = [dataset.id_of(record) for record in dataset.records]
    for _ in range(size):
        roll = rng.random()
        if roll < 0.5:
            batch.insert((next_id, rng.randint(0, 10_000_000), f"new-{next_id}".encode()))
            next_id += 1
        elif roll < 0.8 and live:
            victim = live.pop(rng.randrange(len(live)))
            batch.delete(victim)
        elif live:
            target = rng.choice(live)
            record = dataset.by_id()[target]
            batch.modify((target, dataset.key_of(record), b"rewritten"))
    return batch, next_id


class TestSAEUpdates:
    def test_repeated_batches_stay_consistent(self, fresh_dataset):
        system = SaeScheme(fresh_dataset).setup()
        rng = random.Random(7)
        next_id = 1_000_000
        for _ in range(6):
            batch, next_id = random_batch(rng, fresh_dataset, next_id)
            system.apply_updates(batch)
            low = rng.randint(0, 9_000_000)
            outcome = system.query(low, low + 600_000)
            truth = fresh_dataset.range(low, low + 600_000)
            assert outcome.verified, outcome.verification.reason
            assert sorted(outcome.records) == sorted(truth)
        system.trusted_entity.xbtree.validate()

    def test_key_changing_modification(self, fresh_dataset):
        system = SaeScheme(fresh_dataset).setup()
        record = fresh_dataset.records[0]
        record_id = fresh_dataset.id_of(record)
        system.apply_updates(UpdateBatch().modify((record_id, 9_999_999, b"moved")))
        outcome = system.query(9_999_990, 10_000_000)
        assert outcome.verified
        assert any(r[0] == record_id for r in outcome.records)

    def test_insert_then_delete_is_a_noop_for_tokens(self, fresh_dataset):
        system = SaeScheme(fresh_dataset).setup()
        before = system.query(0, 10_000_000)
        system.apply_updates(UpdateBatch().insert((777_777, 5_000_000, b"temp")))
        system.apply_updates(UpdateBatch().delete(777_777))
        after = system.query(0, 10_000_000)
        assert before.verified and after.verified
        assert after.verification.token == before.verification.token


class TestTOMUpdates:
    def test_repeated_batches_stay_consistent(self, fresh_dataset):
        system = TomScheme(fresh_dataset, key_bits=512, seed=5).setup()
        rng = random.Random(11)
        next_id = 2_000_000
        for _ in range(4):
            batch, next_id = random_batch(rng, fresh_dataset, next_id, size=10)
            system.apply_updates(batch)
            low = rng.randint(0, 9_000_000)
            outcome = system.query(low, low + 600_000)
            truth = fresh_dataset.range(low, low + 600_000)
            assert outcome.verified, outcome.report.reason
            assert sorted(outcome.records) == sorted(truth)
        system.provider.ads.validate()

    def test_stale_signature_is_rejected(self, fresh_dataset):
        """If the SP applies an update but keeps the old signature, clients notice."""
        system = TomScheme(fresh_dataset, key_bits=512, seed=5).setup()
        old_signature = system.provider.ads.signature
        # Apply the update *at the SP only*, bypassing the owner's re-signing.
        system.provider.apply_updates(UpdateBatch().insert((888_888, 4_000_000, b"sneaky")))
        system.provider.install_signature(old_signature)
        outcome = system.query(3_900_000, 4_100_000)
        assert not outcome.verified
