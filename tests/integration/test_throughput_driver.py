"""Integration tests of the closed-loop load driver and its CLI entry."""

import pytest

from repro.cli import main as cli_main
from repro.core import SaeScheme
from repro.core.design import PhysicalDesign
from repro.experiments.throughput import LoadReport, format_load_reports, run_load
from repro.tom.scheme import TomScheme
from repro.workloads.queries import RangeQueryWorkload


@pytest.fixture(scope="module")
def load_bounds():
    workload = RangeQueryWorkload(extent_fraction=0.01, count=40, seed=21)
    return [(query.low, query.high) for query in workload]


class TestRunLoad:
    @pytest.mark.parametrize("mode", ["per-query", "batched"])
    def test_serves_whole_workload_verified(self, small_dataset, load_bounds, mode):
        with SaeScheme(small_dataset).setup() as system:
            report = run_load(system, load_bounds, num_clients=3, mode=mode, batch_size=7)
        assert isinstance(report, LoadReport)
        assert report.num_queries == len(load_bounds)
        assert report.all_verified
        assert report.failed_queries == 0
        assert report.throughput_qps > 0
        assert 0 < report.latency_p50_ms <= report.latency_p95_ms <= report.latency_p99_ms
        assert report.total_sp_accesses > 0
        assert report.total_te_accesses > 0

    def test_latencies_flow_through_metrics_layer(self, small_dataset, load_bounds):
        with SaeScheme(small_dataset).setup() as system:
            report = run_load(system, load_bounds, num_clients=2, mode="per-query")
        series = report.collector.get("latency_ms[per-query]")
        assert series is not None
        assert series.count(2) == len(load_bounds)
        assert series.percentile(2, 50) == report.latency_p50_ms

    def test_unverified_load_is_reported_as_unverified(self, small_dataset, load_bounds):
        with SaeScheme(small_dataset).setup() as system:
            report = run_load(system, load_bounds[:10], num_clients=2, verify=False)
        assert report.num_queries == 10
        assert not report.all_verified

    def test_rejects_bad_parameters(self, small_dataset, load_bounds):
        with SaeScheme(small_dataset).setup() as system:
            with pytest.raises(ValueError):
                run_load(system, load_bounds, mode="streamed")
            with pytest.raises(ValueError):
                run_load(system, load_bounds, num_clients=0)

    def test_report_formatting(self, small_dataset, load_bounds):
        with SaeScheme(small_dataset).setup() as system:
            report = run_load(system, load_bounds[:8], num_clients=2)
        rendered = format_load_reports([report], title="smoke")
        assert "smoke" in rendered
        assert "per-query" in rendered
        assert "qps" in rendered
        assert "sae" in rendered


class TestRunLoadTom:
    """The same closed-loop driver against the TOM baseline."""

    @pytest.mark.parametrize("mode", ["per-query", "batched"])
    def test_serves_whole_workload_verified(self, small_dataset, load_bounds, mode):
        with TomScheme(small_dataset, key_bits=512, seed=41).setup() as system:
            report = run_load(system, load_bounds, num_clients=3, mode=mode, batch_size=7)
        assert report.scheme == "tom"
        assert report.num_queries == len(load_bounds)
        assert report.all_verified
        assert report.receipts_consistent
        assert report.total_sp_accesses > 0
        assert report.total_te_accesses == 0  # TOM has no TE

    def test_sharded_tom_receipts_sum_over_legs(self, small_dataset):
        # Scan-heavy bounds: selective point lookups fit inside one shard and
        # would never scatter, so sweep wide slices of the key domain instead.
        keys = sorted(small_dataset.keys())
        step = len(keys) // 6
        scan_bounds = [
            (keys[position], keys[min(position + 3 * step, len(keys) - 1)])
            for position in range(0, len(keys) - 3 * step, step)
        ]
        design = PhysicalDesign(shards=3)
        with TomScheme(small_dataset, key_bits=512, seed=43, design=design).setup() as system:
            report = run_load(system, scan_bounds, num_clients=8, mode="per-query")
        assert report.all_verified
        assert report.receipts_consistent
        assert report.num_shards == 3
        assert any(len(outcome.receipt.legs) > 1 for outcome in report.outcomes)


class TestBenchCli:
    def test_run_load_subcommand(self, capsys):
        code = cli_main([
            "bench", "run-load",
            "--records", "800", "--queries", "24", "--clients", "2",
            "--mode", "both", "--batch-size", "6",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "per-query" in captured
        assert "batched" in captured
        assert "speedup" in captured

    def test_run_load_single_mode(self, capsys):
        code = cli_main([
            "bench", "run-load",
            "--records", "600", "--queries", "12", "--clients", "2",
            "--mode", "batched",
        ])
        assert code == 0
        assert "batched" in capsys.readouterr().out

    def test_run_load_tom_scheme(self, capsys):
        code = cli_main([
            "bench", "run-load",
            "--scheme", "tom", "--key-bits", "512",
            "--records", "600", "--queries", "12", "--clients", "8",
            "--mode", "per-query", "--shards", "2",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "load driver [tom/inproc]" in captured
        assert "receipts=sum(legs)" in captured

    def test_run_load_tcp_transport(self, capsys):
        code = cli_main([
            "bench", "run-load",
            "--transport", "tcp",
            "--records", "600", "--queries", "16", "--clients", "8",
            "--mode", "per-query",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "load driver [sae/tcp]" in captured
        assert "server qps [per-query]" in captured
