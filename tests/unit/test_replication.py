"""Unit tests for replication: signed epochs, the replica router, staleness.

Covers the three layers the tentpole adds: the epoch machinery (stamping,
the three-way verdict taxonomy), the :class:`ReplicaRouter` rotation and
kill/revive bookkeeping, and the end-to-end stale-replica rejection -- a
correctly-signed-but-old replica must be refused as a *freshness violation*
(distinct from tampering) by both schemes, unsharded and sharded.
"""

import pytest

from repro.core import (
    EpochAuthority,
    EpochStamp,
    NoAttack,
    OutsourcedDB,
    ReplicaDownError,
    ReplicaRouter,
    StaleReplicaAttack,
    classify_epoch,
    epoch_digest,
    shared_epoch_keys,
)
from repro.core.scheme import SchemeError
from repro.core.sharding import ShardedDeployment, ShardingError
from repro.core.updates import UpdateBatch
from repro.crypto.digest import default_scheme
from repro.dbms.query import RangeQuery
from repro.workloads.datasets import build_dataset

SCHEMES = ["sae", "tom"]


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset(400, record_size=64, seed=11)


def advance_epoch(system):
    """Apply an idempotent update batch (modify a record to itself)."""
    record = system.dataset.records[0]
    system.apply_updates(UpdateBatch().modify(tuple(record)))


class TestEpochDigest:
    def test_domain_separated_per_epoch(self):
        scheme = default_scheme()
        assert epoch_digest(scheme, 0) != epoch_digest(scheme, 1)
        assert epoch_digest(scheme, 1) == epoch_digest(scheme, 1)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            epoch_digest(default_scheme(), -1)


class TestEpochAuthority:
    def test_starts_at_zero_and_advances(self):
        authority = EpochAuthority(*shared_epoch_keys())
        assert authority.current == 0
        stamp = authority.advance()
        assert authority.current == 1
        assert stamp.epoch == 1

    def test_stamps_are_cached_per_epoch(self):
        authority = EpochAuthority(*shared_epoch_keys())
        first = authority.stamp()
        assert authority.stamp() is first
        authority.advance()
        assert authority.stamp(0) is first  # old epochs stay re-stampable

    def test_start_epoch_restores_counter(self):
        authority = EpochAuthority(*shared_epoch_keys(), start_epoch=7)
        assert authority.current == 7
        assert authority.stamp().epoch == 7

    def test_negative_start_epoch_rejected(self):
        with pytest.raises(ValueError):
            EpochAuthority(*shared_epoch_keys(), start_epoch=-1)

    def test_stamp_size_counts_epoch_and_signature(self):
        stamp = EpochAuthority(*shared_epoch_keys()).stamp()
        assert stamp.size == 8 + stamp.signature.size

    def test_shared_keys_are_process_cached(self):
        assert shared_epoch_keys() is shared_epoch_keys()


class TestClassifyEpoch:
    """The three-way verdict taxonomy: fresh / stale / tampered."""

    def setup_method(self):
        self.authority = EpochAuthority(*shared_epoch_keys())

    def test_current_stamp_is_fresh(self):
        verdict = classify_epoch(
            self.authority.stamp(), self.authority.current, self.authority.verifier
        )
        assert verdict.ok and not verdict.freshness_violation
        assert "freshness_violation" not in verdict.details()

    def test_missing_stamp_is_freshness_violation(self):
        verdict = classify_epoch(None, 3, self.authority.verifier)
        assert not verdict.ok and verdict.freshness_violation
        assert verdict.details()["expected_epoch"] == 3

    def test_old_but_valid_stamp_is_freshness_violation(self):
        old = self.authority.stamp()
        self.authority.advance()
        verdict = classify_epoch(old, self.authority.current, self.authority.verifier)
        assert not verdict.ok and verdict.freshness_violation
        assert "freshness violation" in verdict.reason
        assert verdict.details() == {
            "freshness_violation": True,
            "epoch": 0,
            "expected_epoch": 1,
        }

    def test_forged_stamp_is_tampering_not_freshness(self):
        old = self.authority.stamp()
        forged = EpochStamp(epoch=old.epoch + 5, signature=old.signature)
        verdict = classify_epoch(forged, old.epoch + 5, self.authority.verifier)
        assert not verdict.ok
        assert not verdict.freshness_violation
        assert "signature" in verdict.reason


class TestReplicaRouter:
    def test_rotation_advances_once_per_leg(self):
        router = ReplicaRouter(num_shards=2, num_replicas=3)
        assert router.attempt_order(0) == [0, 1, 2]
        assert router.attempt_order(0) == [1, 2, 0]
        assert router.attempt_order(0) == [2, 0, 1]
        assert router.attempt_order(0) == [0, 1, 2]

    def test_shards_rotate_independently(self):
        router = ReplicaRouter(num_shards=2, num_replicas=2)
        assert router.attempt_order(0) == [0, 1]
        assert router.attempt_order(0) == [1, 0]
        assert router.attempt_order(1) == [0, 1]  # untouched by shard 0

    def test_kill_revive_and_down_set(self):
        router = ReplicaRouter(num_shards=2, num_replicas=2)
        router.kill(0, 1)
        assert router.is_down(0, 1)
        assert not router.is_down(1, 1)  # per-shard, not per-fleet
        assert router.down_replicas() == [(0, 1)]
        # Killed replicas stay in the rotation (the caller skips them).
        assert 1 in router.attempt_order(0)
        router.revive(0, 1)
        assert not router.is_down(0, 1)
        assert router.down_replicas() == []

    def test_revive_of_live_replica_is_noop(self):
        router = ReplicaRouter(num_shards=1, num_replicas=2)
        router.revive(0, 1)
        assert router.down_replicas() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaRouter(num_shards=0, num_replicas=1)
        with pytest.raises(ValueError):
            ReplicaRouter(num_shards=1, num_replicas=0)
        router = ReplicaRouter(num_shards=2, num_replicas=2)
        with pytest.raises(ValueError):
            router.attempt_order(2)
        with pytest.raises(ValueError):
            router.kill(0, 2)


class TestReplicatedDeploymentConfig:
    def test_replica_count_validated(self):
        with pytest.raises(ShardingError):
            ShardedDeployment(2, num_replicas=0)

    def test_is_replicated(self):
        assert not ShardedDeployment(2).is_replicated
        assert ShardedDeployment(1, num_replicas=2).is_replicated

    def test_coerce_applies_replicas_to_bare_counts_only(self):
        assert ShardedDeployment.coerce(3, num_replicas=2).num_replicas == 2
        config = ShardedDeployment(2, num_replicas=4)
        assert ShardedDeployment.coerce(config, num_replicas=9).num_replicas == 4


class TestStaleReplicaAttack:
    def test_capture_takes_records_and_stamp(self, tiny_dataset):
        system = OutsourcedDB(tiny_dataset, scheme="sae").setup()
        stale = StaleReplicaAttack.capture(system)
        assert stale.records == [tuple(r) for r in tiny_dataset.records]
        assert stale.epoch_stamp is not None
        assert stale.epoch_stamp.epoch == 0
        assert stale.key_index == tiny_dataset.schema.key_index

    def test_apply_serves_captured_state_filtered_to_query(self, tiny_dataset):
        stale = StaleReplicaAttack(
            records=[(1, 10, b"a"), (2, 20, b"b"), (3, 30, b"c")], key_index=1
        )
        served = stale.apply([(9, 99, b"current")], RangeQuery(10, 20))
        assert served == [(1, 10, b"a"), (2, 20, b"b")]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestStaleReplicaDetection:
    """Stale-but-correctly-signed answers are freshness violations, not tampering."""

    def _assert_freshness_rejection(self, outcome):
        assert not outcome.verified
        assert outcome.verification.details.get("freshness_violation") is True
        assert "freshness violation" in outcome.verification.reason

    def test_unsharded(self, tiny_dataset, scheme):
        system = OutsourcedDB(
            tiny_dataset, scheme=scheme, key_bits=512, seed=19
        ).setup()
        keys = tiny_dataset.keys()
        with system:
            stale = StaleReplicaAttack.capture(system)
            advance_epoch(system)
            system.provider.attack = stale
            outcome = system.query(min(keys), max(keys))
            system.provider.attack = NoAttack()
            self._assert_freshness_rejection(outcome)
            assert system.query(min(keys), max(keys)).verified

    def test_sharded_replicated(self, tiny_dataset, scheme):
        system = OutsourcedDB(
            tiny_dataset, scheme=scheme, shards=2, replicas=2, key_bits=512, seed=19
        ).setup()
        keys = tiny_dataset.keys()
        with system:
            stale = StaleReplicaAttack.capture(system)
            advance_epoch(system)
            # Attach to shard 0 of every replica: the router is free to pick
            # either copy for the probe's shard-0 leg.
            for replica in range(system.num_replicas):
                system.sp_replica(replica).set_shard_attack(0, stale)
            outcome = system.query(min(keys), max(keys))
            for replica in range(system.num_replicas):
                system.sp_replica(replica).set_shard_attack(0, None)
            self._assert_freshness_rejection(outcome)
            assert system.query(min(keys), max(keys)).verified

    def test_forged_stamp_reported_as_tampering(self, tiny_dataset, scheme):
        system = OutsourcedDB(
            tiny_dataset, scheme=scheme, key_bits=512, seed=19
        ).setup()
        keys = tiny_dataset.keys()
        with system:
            stale = StaleReplicaAttack.capture(system)
            advance_epoch(system)
            forged = StaleReplicaAttack(
                records=stale.records,
                epoch_stamp=EpochStamp(
                    epoch=system.current_epoch,
                    signature=stale.epoch_stamp.signature,
                ),
                key_index=stale.key_index,
            )
            system.provider.attack = forged
            outcome = system.query(min(keys), max(keys))
            system.provider.attack = NoAttack()
            assert not outcome.verified
            assert not outcome.verification.details.get("freshness_violation")


@pytest.mark.parametrize("scheme", SCHEMES)
class TestFailoverGuards:
    """The replica kill/revive and failover loop both schemes share."""

    def _system(self, dataset, scheme, **kwargs):
        return OutsourcedDB(dataset, scheme=scheme, key_bits=512, seed=7, **kwargs).setup()

    def test_kill_requires_replication(self, tiny_dataset, scheme):
        system = self._system(tiny_dataset, scheme)
        with system:
            with pytest.raises(SchemeError):
                system.kill_replica(0)
            with pytest.raises(SchemeError):
                system.revive_replica(0)

    def test_all_replicas_down_raises(self, tiny_dataset, scheme):
        system = self._system(tiny_dataset, scheme, replicas=2)
        keys = tiny_dataset.keys()
        with system:
            system.kill_replica(0)
            system.kill_replica(1)
            with pytest.raises(ReplicaDownError):
                system.query(min(keys), max(keys))
            with pytest.raises(ReplicaDownError):
                system.query_many([(min(keys), max(keys)), (min(keys), min(keys))])
            system.revive_replica(0)
            system.revive_replica(1)
            assert system.query(min(keys), max(keys)).verified

    def test_failed_attempts_visible_on_receipt(self, tiny_dataset, scheme):
        system = self._system(tiny_dataset, scheme, replicas=2)
        keys = tiny_dataset.keys()
        with system:
            system.kill_replica(0)
            seen_failed = False
            for _ in range(2 * system.num_replicas):
                outcome = system.query(min(keys), max(keys))
                assert outcome.verified
                assert outcome.receipt.matches_leg_sums()
                for leg in outcome.receipt.legs:
                    if leg.failed_replicas:
                        seen_failed = True
                        assert leg.replica != 0
                        assert 0 in leg.failed_replicas
            system.revive_replica(0)
            assert seen_failed
