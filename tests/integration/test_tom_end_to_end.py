"""End-to-end integration tests of the TOM baseline."""

import pytest

from repro.tom import TomScheme
from repro.workloads.queries import RangeQueryWorkload


class TestHonestQueries:
    def test_workload_queries_verify_and_match_ground_truth(self, tom_system, small_dataset):
        workload = RangeQueryWorkload(extent_fraction=0.01, count=10, seed=13)
        for query in workload:
            outcome = tom_system.query(query.low, query.high)
            truth = small_dataset.range(query.low, query.high)
            assert outcome.verified, outcome.report.reason
            assert sorted(outcome.records) == sorted(truth)

    def test_vo_is_orders_of_magnitude_larger_than_vt(self, tom_system, sae_system):
        low, high = 0, 500_000
        tom_outcome = tom_system.query(low, high)
        sae_outcome = sae_system.query(low, high)
        assert sae_outcome.auth_bytes == 20
        assert tom_outcome.auth_bytes > 20 * 10

    def test_empty_result_verifies(self, tom_system):
        outcome = tom_system.query(10_000_001, 10_000_100)
        assert outcome.cardinality == 0
        assert outcome.verified, outcome.report.reason

    def test_whole_domain_query(self, tom_system, small_dataset):
        outcome = tom_system.query(-1, 10**9)
        assert outcome.verified, outcome.report.reason
        assert outcome.cardinality == small_dataset.cardinality

    def test_edge_touching_queries(self, tom_system, small_dataset):
        keys = sorted(small_dataset.keys())
        for low, high in [(-100, keys[0]), (keys[-1], 10**9), (keys[0], keys[-1])]:
            outcome = tom_system.query(low, high)
            assert outcome.verified, outcome.report.reason

    def test_cost_metrics_populated(self, tom_system):
        outcome = tom_system.query(0, 3_000_000)
        assert outcome.sp_accesses > 0
        assert outcome.sp_cost_ms == outcome.sp_accesses * 10.0
        assert outcome.client_cpu_ms > 0.0
        assert outcome.auth_bytes == outcome.vo.size_bytes()

    def test_query_before_setup_rejected(self, small_dataset):
        with pytest.raises(RuntimeError):
            TomScheme(small_dataset, key_bits=512).query(0, 1)

    def test_storage_report(self, tom_system, small_dataset):
        report = tom_system.storage_report()
        assert report["sp_bytes"] > small_dataset.size_bytes() * 0.5
