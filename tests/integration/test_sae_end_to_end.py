"""End-to-end integration tests of the SAE protocol."""

import pytest

from repro.core import SaeScheme
from repro.crypto.digest import SHA256
from repro.workloads.queries import RangeQueryWorkload


class TestHonestQueries:
    def test_every_workload_query_verifies_and_matches_ground_truth(self, sae_system,
                                                                     small_dataset):
        workload = RangeQueryWorkload(extent_fraction=0.01, count=15, seed=11)
        for query in workload:
            outcome = sae_system.query(query.low, query.high)
            truth = small_dataset.range(query.low, query.high)
            assert outcome.verified, outcome.verification.reason
            assert sorted(outcome.records) == sorted(truth)

    def test_token_is_constant_size_regardless_of_result(self, sae_system):
        small = sae_system.query(0, 1_000)
        large = sae_system.query(0, 9_999_999)
        assert small.auth_bytes == large.auth_bytes == 20
        assert large.cardinality > small.cardinality

    def test_empty_result_verifies(self, sae_system, small_dataset):
        keys = sorted(small_dataset.keys())
        gap_low = keys[0] + 1 if keys[1] - keys[0] > 2 else 10_000_001
        outcome = sae_system.query(10_000_001, 10_000_100)
        assert outcome.cardinality == 0
        assert outcome.verified

    def test_point_query(self, sae_system, small_dataset):
        key = small_dataset.keys()[5]
        outcome = sae_system.query(key, key)
        assert outcome.verified
        assert all(record[1] == key for record in outcome.records)
        assert outcome.cardinality >= 1

    def test_whole_domain_query(self, sae_system, small_dataset):
        outcome = sae_system.query(-1, 10**9)
        assert outcome.verified
        assert outcome.cardinality == small_dataset.cardinality

    def test_network_accounting(self, small_dataset):
        system = SaeScheme(small_dataset).setup()
        system.query(0, 500_000)
        tracker = system.network
        assert tracker.bytes_sent("TE", "client") > 0
        assert tracker.bytes_sent("SP", "client") > tracker.bytes_sent("TE", "client")
        assert tracker.bytes_sent("DO", "SP") >= small_dataset.size_bytes()

    def test_query_without_verification(self, sae_system):
        outcome = sae_system.query(0, 100_000, verify=False)
        assert outcome.auth_bytes == 0
        assert outcome.te_accesses == 0
        assert outcome.verification.reason == "verification skipped"
        # A skipped verification must never look like a successful one.
        assert outcome.verification.skipped
        assert outcome.verified is False

    def test_query_before_setup_rejected(self, small_dataset):
        with pytest.raises(RuntimeError):
            SaeScheme(small_dataset).query(0, 1)

    def test_cost_metrics_populated(self, sae_system):
        outcome = sae_system.query(100, 3_000_000)
        assert outcome.sp_accesses > 0
        assert outcome.te_accesses > 0
        assert outcome.sp_cost_ms == outcome.sp_accesses * 10.0
        assert outcome.te_cost_ms == outcome.te_accesses * 10.0
        assert outcome.client_cpu_ms >= 0.0
        assert outcome.result_bytes > 0


class TestAlternativeConfigurations:
    def test_sha256_deployment(self, small_dataset):
        system = SaeScheme(small_dataset, scheme=SHA256).setup()
        outcome = system.query(0, 2_000_000)
        assert outcome.verified
        assert outcome.auth_bytes == 32

    def test_sqlite_backend_deployment(self, small_dataset):
        system = SaeScheme(small_dataset, backend="sqlite").setup()
        outcome = system.query(0, 2_000_000)
        assert outcome.verified
        assert sorted(outcome.records) == sorted(small_dataset.range(0, 2_000_000))

    def test_custom_node_access_cost(self, small_dataset):
        system = SaeScheme(small_dataset, node_access_ms=1.0).setup()
        outcome = system.query(0, 1_000_000)
        assert outcome.sp_cost_ms == outcome.sp_accesses * 1.0

    def test_smaller_pages(self, small_dataset):
        system = SaeScheme(small_dataset, page_size=1024).setup()
        assert system.query(0, 4_000_000).verified

    def test_storage_report_shape(self, sae_system, small_dataset):
        report = sae_system.storage_report()
        assert report["sp_bytes"] > report["te_bytes"] > 0
        assert report["dataset_bytes"] == small_dataset.size_bytes()
