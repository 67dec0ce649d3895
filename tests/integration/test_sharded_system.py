"""End-to-end tests of the sharded scatter-gather deployment.

The invariants pinned here are the tentpole guarantees: a sharded deployment
must be *observably equivalent* to the classic one (same records, same
verdicts), its merged per-query charges must equal the sum of the shard
legs, and a single tampered shard must be rejected while the untouched
shards still verify.
"""

import pytest

from repro.core import (
    DropAttack,
    InjectAttack,
    ModifyAttack,
    SaeScheme,
    UpdateBatch,
)
from repro.core.dataset import Dataset
from repro.core.design import PhysicalDesign
from repro.workloads import build_dataset
from repro.workloads.datasets import DATASET_SCHEMA

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(1_200, record_size=96, seed=11)


@pytest.fixture(scope="module")
def single(dataset):
    return SaeScheme(dataset).setup()


@pytest.fixture(scope="module")
def sharded(dataset):
    return SaeScheme(dataset, design=PhysicalDesign(shards=NUM_SHARDS)).setup()


def some_bounds(system):
    """Query bounds covering one, several and all shards, plus boundaries."""
    router = system.provider.router
    b = router.boundaries
    return [
        (0, 10_000_000),            # full domain: every shard
        (b[0], b[2]),               # boundary to boundary: shards 0..2
        (b[1], b[1]),               # a single boundary key
        (b[1] + 1, b[2]),           # interior shards only
        (2_000_000, 2_050_000),     # the paper's selective extent
        (10_000_001, 10_000_002),   # beyond every key: empty result
    ]


class TestScatterGatherEquivalence:
    def test_query_matches_single_shard_deployment(self, single, sharded):
        for low, high in some_bounds(sharded):
            reference = single.query(low, high)
            scattered = sharded.query(low, high)
            assert scattered.records == reference.records
            assert scattered.verified
            assert reference.verified

    def test_query_many_matches_per_query_loop(self, sharded):
        bounds = some_bounds(sharded)
        batched = sharded.query_many(bounds)
        for (low, high), outcome in zip(bounds, batched):
            loop_outcome = sharded.query(low, high)
            assert outcome.records == loop_outcome.records
            assert outcome.verified == loop_outcome.verified
            assert outcome.sp_accesses == loop_outcome.sp_accesses
            assert outcome.te_accesses == loop_outcome.te_accesses
            assert outcome.auth_bytes == loop_outcome.auth_bytes
            assert outcome.result_bytes == loop_outcome.result_bytes

    def test_merged_charges_equal_sum_of_shard_legs(self, sharded):
        for low, high in some_bounds(sharded):
            outcome = sharded.query(low, high)
            legs = outcome.receipt.legs
            assert legs, "a sharded outcome must retain its shard legs"
            assert outcome.sp_accesses == sum(leg.sp.node_accesses for leg in legs)
            assert outcome.te_accesses == sum(leg.te.node_accesses for leg in legs)
            assert outcome.auth_bytes == sum(leg.auth_bytes for leg in legs)
            assert outcome.result_bytes == sum(leg.result_bytes for leg in legs)
            assert outcome.receipt.critical_path_ms <= outcome.receipt.response_time_ms

    def test_full_scan_scatters_to_every_shard(self, sharded):
        outcome = sharded.query(0, 10_000_000)
        assert [leg.shard for leg in outcome.receipt.legs] == list(range(NUM_SHARDS))
        assert outcome.cardinality == 1_200

    def test_selective_query_touches_one_shard(self, sharded):
        router = sharded.provider.router
        low = router.boundaries[0] + 1
        outcome = sharded.query(low, low + 10)
        assert [leg.shard for leg in outcome.receipt.legs] == [1]

    def test_empty_batch_returns_no_outcomes(self, single, sharded):
        assert single.query_many([]) == []
        assert sharded.query_many([]) == []

    def test_memo_counters_survive_scatter_and_batching(self, sharded):
        # Per-query path: merged memo counters must equal the shard-leg sums
        # (the full matches_leg_sums invariant, memo fields included).
        for low, high in some_bounds(sharded):
            outcome = sharded.query(low, high)
            assert outcome.receipt.matches_leg_sums()
            legs = outcome.receipt.legs
            # The SAE SP ships stored bytes: no memo sits on a query path.
            assert (outcome.receipt.sp.memo_hits, outcome.receipt.sp.memo_misses) == (0, 0)
            assert all((leg.sp.memo_hits, leg.sp.memo_misses) == (0, 0) for leg in legs)
            assert outcome.receipt.te.memo_misses == sum(
                leg.te.memo_misses for leg in legs
            )

        # Batched path: the TE walks every shard's queries in one batch and
        # apportions memo activity per query (largest remainder), so every
        # batched receipt must still balance and the batch totals must match
        # what the per-query counters are built from.
        bounds = some_bounds(sharded)
        for outcome in sharded.query_many(bounds):
            assert outcome.receipt.matches_leg_sums()

    def test_verify_false_skips_te_legs(self, sharded):
        outcome = sharded.query(0, 10_000_000, verify=False)
        assert not outcome.verified
        assert outcome.verification.skipped
        assert outcome.auth_bytes == 0
        assert outcome.te_accesses == 0


class TestTamperedShard:
    @pytest.mark.parametrize(
        "attack",
        [DropAttack(count=1, seed=1), InjectAttack(count=1), ModifyAttack(count=1, seed=2)],
        ids=["drop", "inject", "modify"],
    )
    def test_single_tampered_shard_rejected_others_verify(self, dataset, attack):
        system = SaeScheme(dataset, design=PhysicalDesign(shards=NUM_SHARDS)).setup()
        victim = 2
        system.provider.set_shard_attack(victim, attack)
        outcome = system.query(0, 10_000_000)
        assert not outcome.verified
        shard_verdicts = outcome.verification.details["shards"]
        assert not shard_verdicts[victim].ok
        for shard, result in shard_verdicts.items():
            if shard != victim:
                assert result.ok, f"honest shard {shard} was rejected"
        assert str(victim) in outcome.verification.reason
        # Back to honest: the same deployment verifies again.
        system.provider.set_shard_attack(victim, None)
        assert system.query(0, 10_000_000).verified

    def test_fleet_wide_attack_rejected(self, dataset):
        system = SaeScheme(dataset, design=PhysicalDesign(shards=NUM_SHARDS)).setup()
        system.provider.attack = DropAttack(count=1, seed=3)
        assert not system.query(0, 10_000_000).verified

    def test_tamper_in_unqueried_shard_is_invisible(self, dataset):
        system = SaeScheme(dataset, design=PhysicalDesign(shards=NUM_SHARDS)).setup()
        system.provider.set_shard_attack(3, DropAttack(count=1, seed=1))
        router = system.provider.router
        outcome = system.query(0, router.boundaries[0])  # shard 0 only
        assert outcome.verified


class TestShardedUpdates:
    def make_pair(self):
        """Two independent deployments over identical dataset copies."""
        single = SaeScheme(build_dataset(600, record_size=96, seed=23)).setup()
        sharded = SaeScheme(
            build_dataset(600, record_size=96, seed=23), design=PhysicalDesign(shards=NUM_SHARDS)
        ).setup()
        return single, sharded

    def apply_both(self, single, sharded, batch_builder):
        single.apply_updates(batch_builder())
        sharded.apply_updates(batch_builder())

    def test_updates_route_to_owning_shards(self):
        single, sharded = self.make_pair()
        record_id = single.dataset.records[0][0]
        router = sharded.provider.router
        new_key = router.boundaries[0] + 1  # lands in shard 1

        self.apply_both(
            single,
            sharded,
            lambda: UpdateBatch()
            .insert((10_000_001, new_key, b"fresh-record"))
            .delete(record_id),
        )
        assert sharded.provider.num_records == single.provider.num_records
        a = single.query(0, 10_000_000)
        b = sharded.query(0, 10_000_000)
        assert a.records == b.records
        assert b.verified

    def test_modify_moving_record_across_shards(self):
        single, sharded = self.make_pair()
        router = sharded.provider.router
        # Pick a record from the lowest shard and move its key to the top.
        victim = min(single.dataset.records, key=lambda record: record[1])
        moved = (victim[0], router.boundaries[-1] + 7, b"moved-across-shards")
        assert router.shard_of(victim[1]) != router.shard_of(moved[1])

        self.apply_both(single, sharded, lambda: UpdateBatch().modify(moved))
        a = single.query(0, 20_000_000)
        b = sharded.query(0, 20_000_000)
        assert a.records == b.records
        assert b.verified
        assert moved in b.records


class TestDegenerateShapes:
    def test_empty_shards_from_clustered_keys(self):
        # Every key identical: the router's boundaries coincide and only one
        # shard owns data; scattered queries must still verify.
        records = [(i, 5_000, bytes([i % 256]) * 8) for i in range(64)]
        dataset = Dataset(schema=DATASET_SCHEMA, records=records, name="clustered")
        system = SaeScheme(dataset, design=PhysicalDesign(shards=NUM_SHARDS)).setup()
        assert system.provider.records_per_shard()[0] == 64
        assert sum(system.provider.records_per_shard()) == 64
        outcome = system.query(0, 10_000)
        assert outcome.cardinality == 64
        assert outcome.verified

    def test_more_shards_than_records(self):
        records = [(1, 10, b"a"), (2, 20, b"b")]
        dataset = Dataset(schema=DATASET_SCHEMA, records=records, name="tiny")
        system = SaeScheme(dataset, design=PhysicalDesign(shards=8)).setup()
        outcome = system.query(0, 100)
        assert outcome.cardinality == 2
        assert outcome.verified

    def test_sqlite_backend_sharded(self):
        dataset = build_dataset(400, record_size=64, seed=5)
        system = SaeScheme(dataset, backend="sqlite", design=PhysicalDesign(shards=3)).setup()
        outcome = system.query(0, 10_000_000)
        assert outcome.cardinality == 400
        assert outcome.verified


class TestScalingHarness:
    def test_quick_sweep_reports_consistent_receipts_and_detection(self):
        from repro.experiments.scaling import run_scaling

        points = run_scaling(
            cardinality=800,
            shard_counts=(1, 4),
            num_queries=6,
            record_size=64,
        )
        assert [point.shards for point in points] == [1, 4]
        for point in points:
            assert point.receipts_consistent
            assert point.tampers_detected
            assert point.qps_model > 0
        assert points[1].speedup > 1.0
