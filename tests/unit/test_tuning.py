"""Unit tests for the physical-design tuning advisor."""

from dataclasses import replace

import pytest

from repro.core.design import PhysicalDesign
from repro.experiments.tuning import (
    ReplayCost,
    SimulatedPool,
    Trace,
    TuningError,
    format_tuning_report,
    miss_cost_ms,
    profile_workload,
    replay_trace,
    tune_design,
)
from repro.storage.constants import DEFAULT_NODE_ACCESS_MS, DEFAULT_PAGE_SIZE
from repro.workloads.trace import TraceEntry


def skewed_entries(queries=60, domain=100_000, extent=8_000):
    """A synthetic Zipf-ish trace: 80% of the (wide) queries start in the
    low tenth of the domain, so one record-balanced shard drowns."""
    entries = []
    hot_hi = domain // 10
    for index in range(queries):
        if index % 5 < 4:
            low = (index * 137) % (hot_hi - 1_000)
        else:
            low = hot_hi + (index * 997) % (domain - hot_hi - extent - 1_000)
        entries.append(
            TraceEntry(
                low=low, high=low + extent, records=300, verified=True,
                sp_accesses=20, te_accesses=10, sp_cpu_ms=0.3, te_cpu_ms=0.2,
                auth_bytes=200, result_bytes=4_000, client_cpu_ms=0.4,
            )
        )
    return entries


class TestMissCost:
    def test_default_page_miss_matches_paper_charge(self):
        # The cost model charges 10 ms per logical access; a 4 KiB miss
        # must replay at exactly that so replay and live model agree.
        assert miss_cost_ms(DEFAULT_PAGE_SIZE) == pytest.approx(
            DEFAULT_NODE_ACCESS_MS
        )

    def test_larger_pages_cost_more_per_miss(self):
        assert miss_cost_ms(8192) > miss_cost_ms(4096) > miss_cost_ms(1024)


class TestSimulatedPool:
    def test_lru_eviction_order(self):
        pool = SimulatedPool(2)
        assert pool.touch("a") is False
        assert pool.touch("b") is False
        assert pool.touch("a") is True   # refresh: b is now LRU
        assert pool.touch("c") is False  # evicts b
        assert pool.touch("a") is True
        assert pool.touch("b") is False
        assert (pool.hits, pool.misses) == (2, 4)

    def test_capacity_floor_is_one(self):
        pool = SimulatedPool(0)
        pool.touch("a")
        assert pool.touch("a") is True


class TestProfileWorkload:
    def test_empty_trace_rejected(self):
        with pytest.raises(TuningError, match="empty"):
            profile_workload([])

    def test_non_numeric_bounds_rejected(self):
        entries = [TraceEntry(low="apple", high="pear", records=1)]
        with pytest.raises(TuningError, match="numeric"):
            profile_workload(entries)

    def test_density_rescaled_to_cardinality(self):
        profile = profile_workload(skewed_entries(), cardinality=5_000)
        assert sum(profile.record_density) == pytest.approx(5_000, rel=1e-6)

    def test_load_concentrates_where_the_queries_are(self):
        profile = profile_workload(skewed_entries(), cardinality=5_000)
        buckets = len(profile.load)
        hot = sum(profile.load[: buckets // 5])
        assert hot / sum(profile.load) > 0.5

    def test_calibration_rates_from_receipts(self):
        profile = profile_workload(skewed_entries())
        assert profile.te_ratio == pytest.approx(0.5)


class TestReplayTrace:
    def test_replay_is_deterministic(self):
        entries = skewed_entries()
        design = PhysicalDesign(shards=2, cut_points=(50_000,))
        first = replay_trace(entries, design)
        second = replay_trace(entries, design)
        assert first == second
        assert isinstance(first, ReplayCost)
        assert first.total_ms > 0

    def test_load_weighted_cuts_beat_drowned_shard(self):
        entries = skewed_entries()
        # Record-balanced-ish cut: the hot tenth lands on one shard.
        drowned = replay_trace(
            entries, PhysicalDesign(shards=2, cut_points=(50_000,))
        )
        # Cut inside the hot region: hot queries fan across both shards.
        spread = replay_trace(
            entries, PhysicalDesign(shards=2, cut_points=(5_000,))
        )
        assert spread.io_ms < drowned.io_ms

    def test_measured_cpu_does_not_move_the_score(self):
        # Wall-clock CPU varies with host load; the score must not.
        entries = skewed_entries()
        slow = [
            replace(entry, sp_cpu_ms=9.0, te_cpu_ms=7.0, client_cpu_ms=5.0)
            for entry in entries
        ]
        design = PhysicalDesign(shards=2, cut_points=(5_000,))
        assert replay_trace(slow, design) == replay_trace(entries, design)

    def test_bigger_pool_never_misses_more(self):
        entries = skewed_entries()
        small = replay_trace(entries, PhysicalDesign(pool_pages=8))
        large = replay_trace(entries, PhysicalDesign(pool_pages=512))
        assert large.pool_misses <= small.pool_misses


class TestTuneDesign:
    def test_recommendation_improves_replayed_cost(self):
        entries = skewed_entries(queries=80)
        baseline = PhysicalDesign(shards=2, cut_points=(50_000,))
        trace = Trace(
            meta={"design": baseline.to_json_dict(), "cardinality": 4_000},
            entries=tuple(entries),
        )
        result = tune_design(trace)
        assert result.baseline == baseline
        assert result.improvement_pct > 0
        assert (
            result.recommended_cost.total_ms < result.baseline_cost.total_ms
        )
        # The recommendation must be servable as-is.
        assert result.recommended.cut_points is None or (
            len(result.recommended.cut_points) == result.recommended.shards - 1
        )

    def test_shards_parameter_redesigns_for_new_capacity(self):
        trace = Trace(meta={}, entries=tuple(skewed_entries()))
        result = tune_design(trace, shards=3)
        assert result.recommended.shards == 3

    def test_report_mentions_both_designs(self):
        trace = Trace(meta={}, entries=tuple(skewed_entries()))
        result = tune_design(trace)
        report = format_tuning_report(result)
        assert "baseline" in report
        assert "recommended" in report
        assert "%" in report
