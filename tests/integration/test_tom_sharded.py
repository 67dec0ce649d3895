"""Integration tests of TOM through the unified scheme layer.

Covers the satellite the scheme refactor promised: TOM under tampering
(drop / modify / inject at the MB-tree VO level) through the unified verify
path, including the sharded case where the tampered shard leg is
pinpointed, plus the receipt invariant (merged charges == sum of the shard
legs) that SAE's scatter-gather has enforced since the sharding PR.
"""

import pytest

from repro.core import DropAttack, InjectAttack, ModifyAttack, UpdateBatch
from repro.core.design import PhysicalDesign
from repro.tom.scheme import TomScheme


NUM_SHARDS = 3


@pytest.fixture(scope="module")
def sharded_tom(small_dataset):
    """A 3-shard TOM deployment over the shared small dataset."""
    system = TomScheme(
        small_dataset, key_bits=512, seed=29, design=PhysicalDesign(shards=NUM_SHARDS)
    ).setup()
    yield system
    system.close()


def whole_domain(dataset):
    keys = sorted(dataset.keys())
    return keys[0] - 1, keys[-1] + 1


class TestShardedHonestQueries:
    def test_scattered_query_matches_ground_truth(self, sharded_tom, small_dataset):
        low, high = whole_domain(small_dataset)
        outcome = sharded_tom.query(low, high)
        assert outcome.verified, outcome.report.reason
        assert sorted(outcome.records) == sorted(small_dataset.range(low, high))
        assert len(outcome.receipt.legs) == NUM_SHARDS

    def test_selective_query_touches_a_subset_of_shards(self, sharded_tom, small_dataset):
        keys = sorted(small_dataset.keys())
        low = keys[len(keys) // 2]
        outcome = sharded_tom.query(low, low)
        assert outcome.verified, outcome.report.reason
        assert 1 <= len(outcome.receipt.legs) < NUM_SHARDS

    def test_per_shard_signatures_are_independent(self, sharded_tom):
        slices = sharded_tom.provider.ads_slices()
        assert len(slices) == NUM_SHARDS
        assert all(ads.signature is not None for ads in slices)

    def test_merged_receipt_equals_sum_of_shard_legs(self, sharded_tom, small_dataset):
        low, high = whole_domain(small_dataset)
        outcome = sharded_tom.query(low, high)
        receipt = outcome.receipt
        assert receipt.matches_leg_sums()
        assert receipt.sp.node_accesses == sum(
            leg.sp.node_accesses for leg in receipt.legs
        )
        assert receipt.auth_bytes == sum(leg.auth_bytes for leg in receipt.legs)
        # Every leg's VO contributes its own signature and digests.
        assert all(leg.auth_bytes > 0 for leg in receipt.legs)
        # TOM has no TE: that axis is zero on the merged receipt and each leg.
        assert receipt.te.node_accesses == 0
        assert all(leg.te.node_accesses == 0 for leg in receipt.legs)

    def test_query_many_equals_per_query_loop(self, sharded_tom, small_dataset):
        keys = sorted(small_dataset.keys())
        bounds = [
            (keys[0], keys[len(keys) // 3]),
            (keys[len(keys) // 4], keys[-1]),
            (keys[len(keys) // 2], keys[len(keys) // 2 + 40]),
        ]
        batched = sharded_tom.query_many(bounds)
        for (low, high), outcome in zip(bounds, batched):
            single = sharded_tom.query(low, high)
            assert outcome.verified and single.verified
            assert sorted(outcome.records) == sorted(single.records)
            assert outcome.sp_accesses == single.sp_accesses
            assert outcome.auth_bytes == single.auth_bytes
            assert outcome.receipt.matches_leg_sums()


class TestShardedTampering:
    @pytest.mark.parametrize(
        "attack",
        [DropAttack(count=1, seed=1), InjectAttack(count=1), ModifyAttack(count=1, seed=2)],
        ids=["drop", "inject", "modify"],
    )
    def test_tampered_shard_leg_is_pinpointed(self, sharded_tom, small_dataset, attack):
        low, high = whole_domain(small_dataset)
        victim = NUM_SHARDS // 2
        sharded_tom.provider.set_shard_attack(victim, attack)
        try:
            outcome = sharded_tom.query(low, high)
        finally:
            sharded_tom.provider.attack = None
        assert not outcome.verified
        shard_reports = outcome.report.details["shards"]
        assert not shard_reports[victim].ok
        assert all(
            report.ok for shard, report in shard_reports.items() if shard != victim
        )
        assert str(victim) in outcome.report.reason
        # The deployment recovers once the shard behaves again.
        assert sharded_tom.query(low, high).verified

    def test_fleet_wide_attack_rejected_on_every_overlapping_leg(
        self, sharded_tom, small_dataset
    ):
        low, high = whole_domain(small_dataset)
        sharded_tom.provider.attack = ModifyAttack(count=1, seed=5)
        try:
            outcome = sharded_tom.query(low, high)
        finally:
            sharded_tom.provider.attack = None
        assert not outcome.verified
        assert all(not report.ok for report in outcome.report.details["shards"].values())


class TestUnshardedTamperingThroughUnifiedPath:
    """Drop / modify / inject against the single-MB-tree deployment."""

    @pytest.fixture(scope="class")
    def tom(self, small_dataset):
        system = TomScheme(small_dataset, key_bits=512, seed=31).setup()
        yield system
        system.close()

    @pytest.mark.parametrize(
        "attack",
        [DropAttack(count=1, seed=1), InjectAttack(count=1), ModifyAttack(count=1, seed=2)],
        ids=["drop", "inject", "modify"],
    )
    def test_attack_rejected_and_honest_recovers(self, tom, small_dataset, attack):
        low, high = whole_domain(small_dataset)
        tom.provider.attack = attack
        try:
            tampered = tom.query(low, high)
        finally:
            tom.provider.attack = None
        assert not tampered.verified
        assert tom.query(low, high).verified

    def test_skipped_verification_never_reports_verified(self, tom, small_dataset):
        low, high = whole_domain(small_dataset)
        outcome = tom.query(low, high, verify=False)
        assert not outcome.verified
        assert outcome.report.details.get("skipped") is True
        assert outcome.cardinality == small_dataset.cardinality


class TestShardedUpdates:
    @pytest.fixture()
    def fresh_sharded_tom(self, small_dataset):
        from repro.core.dataset import Dataset

        # A private dataset copy: updates mutate the DO's authoritative state.
        dataset = Dataset(
            schema=small_dataset.schema,
            records=[tuple(record) for record in small_dataset.records],
            name="tom-update-copy",
        )
        system = TomScheme(
            dataset, key_bits=512, seed=37, design=PhysicalDesign(shards=NUM_SHARDS)
        ).setup()
        yield system, dataset
        system.close()

    def test_updates_route_and_resign_per_shard(self, fresh_sharded_tom):
        system, dataset = fresh_sharded_tom
        keys = sorted(dataset.keys())
        victim = dataset.records[0]
        new_id = max(record[0] for record in dataset.records) + 1
        batch = (
            UpdateBatch()
            .delete(victim[0])
            .insert((new_id, keys[len(keys) // 2] + 1, b"fresh"))
        )
        system.apply_updates(batch)
        low, high = whole_domain(dataset)
        outcome = system.query(low, high)
        assert outcome.verified, outcome.report.reason
        assert sorted(outcome.records) == sorted(dataset.range(low, high))

    def test_cross_shard_modify_moves_the_record(self, fresh_sharded_tom):
        system, dataset = fresh_sharded_tom
        router = system.provider.router
        keys = sorted(dataset.keys())
        # Move a record owned by the first shard into the last shard's range.
        source = next(
            record for record in dataset.records if router.shard_of(record[1]) == 0
        )
        target_key = keys[-1] + 10
        assert router.shard_of(target_key) == NUM_SHARDS - 1
        system.apply_updates(
            UpdateBatch().modify((source[0], target_key, source[2]))
        )
        moved = system.query(target_key, target_key)
        assert moved.verified, moved.report.reason
        assert [record[0] for record in moved.records] == [source[0]]
