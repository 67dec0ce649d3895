"""Concurrency stress tests for the re-entrant query pipeline.

Eight client threads issue interleaved queries against one shared SAE
deployment (with an update batch applied between two waves), and every
receipt must match what a single-threaded run over an identical deployment
reports: same verdicts, same per-query node accesses, same byte counts.
That is the property the per-request ExecutionContext/receipt refactor
exists to provide -- the legacy ``last_*`` counters could not survive this
test.
"""

import random
import threading

import pytest

from repro.core import SaeScheme, UpdateBatch
from repro.workloads.datasets import build_dataset
from repro.workloads.queries import RangeQueryWorkload

NUM_THREADS = 8
NUM_QUERIES = 48
DATASET_SEED = 42
CARDINALITY = 1_500


def make_dataset():
    return build_dataset(CARDINALITY, distribution="uniform", record_size=96,
                         seed=DATASET_SEED)


def make_queries():
    workload = RangeQueryWorkload(extent_fraction=0.03, count=NUM_QUERIES, seed=13)
    return [(query.low, query.high) for query in workload]


def make_update_batch(dataset):
    """A deterministic insert/delete/modify mix against ``dataset``."""
    rng = random.Random(7)
    batch = UpdateBatch()
    live = [dataset.id_of(record) for record in dataset.records]
    next_id = 5_000_000
    for _ in range(20):
        roll = rng.random()
        if roll < 0.4:
            batch.insert((next_id, rng.randint(0, 10_000_000), f"new-{next_id}".encode()))
            next_id += 1
        elif roll < 0.7:
            batch.delete(live.pop(rng.randrange(len(live))))
        else:
            target = rng.choice(live)
            record = dataset.by_id()[target]
            batch.modify((target, dataset.key_of(record), b"rewritten"))
    return batch


def fingerprint(outcome):
    """The per-query quantities that must be schedule-independent."""
    return (
        outcome.verified,
        outcome.sp_accesses,
        outcome.te_accesses,
        outcome.auth_bytes,
        outcome.result_bytes,
        sorted(outcome.records),
    )


@pytest.fixture(scope="module")
def baselines():
    """Single-threaded reference fingerprints, before and after the updates."""
    dataset = make_dataset()
    system = SaeScheme(dataset).setup()
    queries = make_queries()
    before = [fingerprint(system.query(low, high)) for low, high in queries]
    system.apply_updates(make_update_batch(dataset))
    after = [fingerprint(system.query(low, high)) for low, high in queries]
    system.close()
    return before, after


def run_wave(system, queries, results, use_query_many_on_even_slots=False):
    """Issue ``queries`` from NUM_THREADS interleaved threads.

    Each thread serves the query indices congruent to its slot; even slots
    optionally go through ``query_many`` so both dispatch paths are mixed in
    the same wave.  Results land in ``results`` by original index.
    """
    barrier = threading.Barrier(NUM_THREADS)
    errors = []

    def client(slot):
        indices = list(range(slot, len(queries), NUM_THREADS))
        try:
            barrier.wait(timeout=30)
            if use_query_many_on_even_slots and slot % 2 == 0:
                outcomes = system.query_many([queries[i] for i in indices])
                for index, outcome in zip(indices, outcomes):
                    results[index] = outcome
            else:
                for index in indices:
                    low, high = queries[index]
                    results[index] = system.query(low, high)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"worker raised: {errors[0]!r}"


class TestInterleavedQueries:
    def test_receipts_match_single_threaded_baseline_around_updates(self, baselines):
        baseline_before, baseline_after = baselines
        dataset = make_dataset()
        system = SaeScheme(dataset).setup()
        queries = make_queries()

        wave_one = [None] * len(queries)
        run_wave(system, queries, wave_one)
        assert [fingerprint(outcome) for outcome in wave_one] == baseline_before
        assert all(outcome.verified for outcome in wave_one)

        system.apply_updates(make_update_batch(dataset))

        wave_two = [None] * len(queries)
        run_wave(system, queries, wave_two, use_query_many_on_even_slots=True)
        assert [fingerprint(outcome) for outcome in wave_two] == baseline_after
        assert all(outcome.verified for outcome in wave_two)
        system.close()

    def test_racing_updates_never_break_verification(self):
        """Queries racing an update batch always verify: the system's
        shared/exclusive lock applies the batch atomically with respect to
        in-flight queries, so each query sees both parties entirely before
        or entirely after the batch."""
        dataset = make_dataset()
        system = SaeScheme(dataset).setup()
        queries = make_queries()
        outcomes = []
        outcome_lock = threading.Lock()
        start = threading.Barrier(NUM_THREADS + 1)
        errors = []

        def client(slot):
            try:
                start.wait(timeout=30)
                for index in range(slot, len(queries), NUM_THREADS):
                    low, high = queries[index]
                    outcome = system.query(low, high)
                    with outcome_lock:
                        outcomes.append(outcome)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        start.wait(timeout=30)
        system.apply_updates(make_update_batch(dataset))
        for thread in threads:
            thread.join()

        assert not errors, f"worker raised: {errors[0]!r}"
        assert len(outcomes) == len(queries)
        for outcome in outcomes:
            assert outcome.verified, outcome.verification.reason
            assert outcome.sp_cost_ms == outcome.sp_accesses * 10.0
            assert outcome.te_cost_ms == outcome.te_accesses * 10.0
            assert outcome.receipt is not None

        # Once the dust settles, structure and verification are intact.
        settled = system.query(0, 10_000_000)
        assert settled.verified
        system.trusted_entity.xbtree.validate()
        system.close()


class TestQueryManyEquivalence:
    def test_batch_equals_sequential_on_shared_system(self, sae_system):
        queries = [(low, low + 250_000) for low in range(0, 4_000_000, 330_000)]
        sequential = [sae_system.query(low, high) for low, high in queries]
        batched = sae_system.query_many(queries)
        assert [fingerprint(outcome) for outcome in sequential] == \
               [fingerprint(outcome) for outcome in batched]

    def test_batch_without_verification_is_explicitly_skipped(self, sae_system):
        outcomes = sae_system.query_many([(0, 100_000), (200_000, 300_000)], verify=False)
        for outcome in outcomes:
            assert outcome.verification.skipped
            assert outcome.verified is False
            assert outcome.te_accesses == 0
            assert outcome.auth_bytes == 0
