"""Unit tests for the shard router and the update routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutsourcedDB
from repro.core.dataset import Dataset
from repro.core.design import DesignError, PhysicalDesign
from repro.core.sharding import (
    ShardingError,
    ShardRouter,
    SingleShard,
    boundary_segments,
    partition_dataset,
    route_update_batch,
)
from repro.core.updates import UpdateBatch
from repro.dbms.query import RangeQuery
from repro.workloads.datasets import DATASET_SCHEMA, build_dataset

#: Sorted unique cut lists -> routers of 1..6 shards over a small domain,
#: so arbitrary old/new cut pairs overlap, nest, and disagree on purpose.
cut_lists = st.lists(
    st.integers(min_value=0, max_value=200), min_size=0, max_size=5, unique=True
).map(sorted)

key_lists = st.lists(
    st.integers(min_value=-20, max_value=220), min_size=1, max_size=40
)


def make_dataset(keys):
    """A tiny (id, key, payload) dataset with the given query-attribute values."""
    records = [(position, key, b"p") for position, key in enumerate(keys)]
    return Dataset(schema=DATASET_SCHEMA, records=records, name="tiny")


class TestShardCount:
    def test_single_shard_is_not_sharded(self):
        dataset = build_dataset(200, seed=3)
        with OutsourcedDB(
            dataset, scheme="sae", key_bits=512, design=PhysicalDesign()
        ).setup() as db:
            # One shard is a lone provider answering as shard 0, not a fleet.
            assert isinstance(db.provider, SingleShard)
            assert db.provider.shards_for(RangeQuery(-100, 10**9)) == [0]
        with OutsourcedDB(
            dataset, scheme="sae", key_bits=512, design=PhysicalDesign(shards=4)
        ).setup() as db:
            assert not isinstance(db.provider, SingleShard)
            assert db.provider.num_shards == 4

    def test_rejects_non_positive_counts(self):
        for count in (0, -3):
            with pytest.raises(DesignError):
                PhysicalDesign(shards=count)
            with pytest.raises(ShardingError):
                ShardRouter.from_keys([1, 2, 3], count)


class TestShardRouter:
    def test_boundary_key_lands_in_lower_shard(self):
        # Boundaries are *inclusive upper bounds*: a key exactly on a split
        # belongs to the shard below the split.
        router = ShardRouter([10, 20], 3)
        assert router.shard_of(10) == 0
        assert router.shard_of(20) == 1
        assert router.shard_of(11) == 1
        assert router.shard_of(21) == 2
        assert router.shard_of(-5) == 0

    def test_range_on_boundaries(self):
        router = ShardRouter([10, 20], 3)
        assert router.shards_for_range(10, 10) == [0]
        assert router.shards_for_range(10, 20) == [0, 1]
        assert router.shards_for_range(11, 20) == [1]
        assert router.shards_for_range(21, 99) == [2]

    def test_range_spanning_all_shards(self):
        router = ShardRouter([10, 20, 30], 4)
        assert router.shards_for_range(-100, 100) == [0, 1, 2, 3]

    def test_degenerate_range_routes_to_one_shard(self):
        router = ShardRouter([10, 20], 3)
        assert router.shards_for_range(15, 12) == [1]

    def test_from_keys_balances_shards(self):
        router = ShardRouter.from_keys(list(range(100)), 4)
        counts = [0, 0, 0, 0]
        for key in range(100):
            counts[router.shard_of(key)] += 1
        assert counts == [25, 25, 25, 25]

    def test_duplicate_keys_leave_middle_shards_empty(self):
        # Every key identical: all boundaries coincide, so only the first
        # shard owns keys and the rest are empty -- routing stays total.
        router = ShardRouter.from_keys([7] * 50, 4)
        assert router.shard_of(7) == 0
        assert router.shard_of(8) == 3
        assert router.shards_for_range(0, 100) == [0, 1, 2, 3]

    def test_empty_keys_make_empty_shards(self):
        router = ShardRouter.from_keys([], 3)
        assert router.num_shards == 3
        assert router.shards_for_range(-1, 1) == [0, 1, 2]

    def test_single_shard_router(self):
        router = ShardRouter.from_keys([1, 2, 3], 1)
        assert router.boundaries == []
        assert router.shard_of(99) == 0
        assert router.shards_for_range(0, 100) == [0]

    def test_validation(self):
        with pytest.raises(ShardingError):
            ShardRouter([3, 1], 3)  # unsorted
        with pytest.raises(ShardingError):
            ShardRouter([1], 3)  # wrong boundary count
        with pytest.raises(ShardingError):
            ShardRouter([], 0)

    def test_describe_names_every_shard(self):
        text = ShardRouter([10], 2).describe()
        assert "0:(-inf..10]" in text and "1:(10..+inf)" in text


class TestPartitionDataset:
    def test_partition_respects_router_and_keeps_schema(self):
        dataset = make_dataset([1, 5, 10, 11, 20, 25])
        router = ShardRouter([10, 20], 3)
        parts = partition_dataset(dataset, router)
        assert [len(part) for part in parts] == [3, 2, 1]
        assert all(part.schema is dataset.schema for part in parts)
        assert parts[0].keys() == [1, 5, 10]  # boundary key 10 stays low
        assert parts[1].keys() == [11, 20]
        assert parts[2].keys() == [25]

    def test_empty_shards_are_valid_datasets(self):
        dataset = make_dataset([1, 2, 3])
        parts = partition_dataset(dataset, ShardRouter([50, 60], 3))
        assert [len(part) for part in parts] == [3, 0, 0]
        assert parts[1].cardinality == 0


class TestRouteUpdateBatch:
    def setup_method(self):
        self.router = ShardRouter([10, 20], 3)
        self.shard_by_id = {1: 0, 2: 1, 3: 2}

    def test_insert_routes_by_key_and_registers_owner(self):
        batch = UpdateBatch().insert((9, 15, b"x"))
        per_shard = route_update_batch(batch, self.router, self.shard_by_id, 1, 0)
        assert [len(b) for b in per_shard] == [0, 1, 0]
        assert self.shard_by_id[9] == 1

    def test_delete_routes_by_ownership(self):
        batch = UpdateBatch().delete(3)
        per_shard = route_update_batch(batch, self.router, self.shard_by_id, 1, 0)
        assert [len(b) for b in per_shard] == [0, 0, 1]
        assert 3 not in self.shard_by_id

    def test_modify_in_place_stays_on_shard(self):
        batch = UpdateBatch().modify((2, 12, b"new"))
        per_shard = route_update_batch(batch, self.router, self.shard_by_id, 1, 0)
        assert [len(b) for b in per_shard] == [0, 1, 0]

    def test_modify_across_shards_becomes_delete_plus_insert(self):
        batch = UpdateBatch().modify((1, 99, b"moved"))  # shard 0 -> shard 2
        per_shard = route_update_batch(batch, self.router, self.shard_by_id, 1, 0)
        assert [len(b) for b in per_shard] == [1, 0, 1]
        assert self.shard_by_id[1] == 2

    def test_unknown_record_id_is_rejected(self):
        with pytest.raises(ShardingError):
            route_update_batch(
                UpdateBatch().delete(99), self.router, self.shard_by_id, 1, 0
            )
        with pytest.raises(ShardingError):
            route_update_batch(
                UpdateBatch().modify((99, 5, b"")), self.router, self.shard_by_id, 1, 0
            )

    def test_later_operations_see_earlier_ones(self):
        batch = UpdateBatch().insert((9, 15, b"x")).delete(9)
        per_shard = route_update_batch(batch, self.router, self.shard_by_id, 1, 0)
        assert len(per_shard[1]) == 2
        assert 9 not in self.shard_by_id


class TestMigrationSegmentProperties:
    """Hypothesis: the migration plan's exactly-once move guarantee.

    :func:`boundary_segments` is what :class:`~repro.core.migration.MigrationPlan`
    builds its moves from, so these properties are the plan's safety
    argument: for *arbitrary* old/new cut pairs, every key falls in exactly
    one segment, the segment's owners agree with both routers, and
    replaying the moving segments transfers every record to its new owner
    exactly once.
    """

    @staticmethod
    def _router(cuts):
        return ShardRouter(cuts, len(cuts) + 1)

    @given(old_cuts=cut_lists, new_cuts=cut_lists, keys=key_lists)
    @settings(max_examples=120, deadline=None)
    def test_every_key_in_exactly_one_segment(self, old_cuts, new_cuts, keys):
        old = self._router(old_cuts)
        new = self._router(new_cuts)
        segments = boundary_segments(old, new)
        for key in keys:
            owning = [segment for segment in segments if segment.contains(key)]
            assert len(owning) == 1
            assert owning[0].old_shard == old.shard_of(key)
            assert owning[0].new_shard == new.shard_of(key)

    @given(old_cuts=cut_lists, new_cuts=cut_lists, keys=key_lists)
    @settings(max_examples=120, deadline=None)
    def test_plan_moves_every_key_exactly_once(self, old_cuts, new_cuts, keys):
        old = self._router(old_cuts)
        new = self._router(new_cuts)
        keys = sorted(set(keys))
        ownership = {key: old.shard_of(key) for key in keys}
        moved = {key: 0 for key in keys}
        # Replay the plan the way the executor does: each moving segment
        # transfers exactly the keys it contains, from old owner to new.
        for segment in boundary_segments(old, new):
            if not segment.moves:
                continue
            for key in keys:
                if segment.contains(key):
                    assert ownership[key] == segment.old_shard
                    ownership[key] = segment.new_shard
                    moved[key] += 1
        for key in keys:
            assert ownership[key] == new.shard_of(key)
            assert moved[key] <= 1
            assert moved[key] == (1 if old.shard_of(key) != new.shard_of(key) else 0)

    @given(old_cuts=cut_lists, new_cuts=cut_lists, keys=key_lists)
    @settings(max_examples=120, deadline=None)
    def test_post_migration_routing_agrees_with_new_router(
        self, old_cuts, new_cuts, keys
    ):
        # After the flip, the executor's updated ownership map and the new
        # router must agree on where every operation lands.
        new = self._router(new_cuts)
        unique_keys = sorted(set(keys))
        shard_by_id = {
            record_id: new.shard_of(key)
            for record_id, key in enumerate(unique_keys)
        }
        batch = UpdateBatch()
        for record_id, key in enumerate(unique_keys):
            batch.modify((record_id, key, b"post"))
        next_id = len(unique_keys)
        for offset, key in enumerate(unique_keys):
            batch.insert((next_id + offset, key + 1, b"new"))
        per_shard = route_update_batch(batch, new, dict(shard_by_id), 1, 0)
        assert len(per_shard) == new.num_shards
        routed = 0
        for shard, sub_batch in enumerate(per_shard):
            for operation in sub_batch:
                assert new.shard_of(operation.fields[1]) == shard
                routed += 1
        assert routed == len(batch)
