"""Unit tests for the CI benchmark gate (baseline compare, regression injection)."""

import pytest

from repro.experiments.benchgate import (
    BENCH_FILES,
    GateMetric,
    compare_to_baseline,
    inject_regression,
    load_bench_file,
    merge_baseline,
    metrics_document,
    profile_gate_metrics,
    run_smoke,
    write_bench_file,
)
from repro.experiments.head_to_head import run_head_to_head
from repro.experiments.profile import SPEEDUP_CAP, ProfileReport, StageSpan


def doc(*metrics):
    return metrics_document(metrics, meta={"suite": "test"})


class TestDocumentRoundTrip:
    def test_write_and_load(self, tmp_path):
        document = doc(GateMetric("a.qps", 12.5, unit="qps", gate=True))
        path = tmp_path / "BENCH_test.json"
        write_bench_file(path, document)
        loaded = load_bench_file(path)
        assert loaded["metrics"]["a.qps"]["value"] == 12.5
        assert loaded["metrics"]["a.qps"]["gate"] is True
        assert loaded["format"].startswith("sae-bench/")


class TestCompareToBaseline:
    def test_identical_passes(self):
        current = doc(GateMetric("a.qps", 100.0, gate=True))
        assert compare_to_baseline(current, current) == []

    def test_within_tolerance_passes(self):
        current = doc(GateMetric("a.qps", 85.0, gate=True))
        baseline = doc(GateMetric("a.qps", 100.0, gate=True))
        assert compare_to_baseline(current, baseline, tolerance=0.20) == []

    def test_regression_beyond_tolerance_fails(self):
        current = doc(GateMetric("a.qps", 79.0, gate=True))
        baseline = doc(GateMetric("a.qps", 100.0, gate=True))
        violations = compare_to_baseline(current, baseline, tolerance=0.20)
        assert len(violations) == 1
        assert "a.qps" in violations[0]

    def test_improvement_always_passes(self):
        current = doc(GateMetric("a.qps", 500.0, gate=True))
        baseline = doc(GateMetric("a.qps", 100.0, gate=True))
        assert compare_to_baseline(current, baseline) == []

    def test_lower_is_better_direction(self):
        baseline = doc(GateMetric("a.ms", 100.0, gate=True, higher_is_better=False))
        worse = doc(GateMetric("a.ms", 121.0, gate=True, higher_is_better=False))
        better = doc(GateMetric("a.ms", 50.0, gate=True, higher_is_better=False))
        assert compare_to_baseline(worse, baseline, tolerance=0.20)
        assert compare_to_baseline(better, baseline, tolerance=0.20) == []

    def test_ungated_metrics_never_fail(self):
        current = doc(GateMetric("a.wall_qps", 1.0))
        baseline = doc(GateMetric("a.wall_qps", 1000.0))
        assert compare_to_baseline(current, baseline) == []

    def test_gated_metric_missing_from_baseline_is_flagged(self):
        current = doc(GateMetric("new.qps", 10.0, gate=True))
        violations = compare_to_baseline(current, doc())
        assert violations and "no committed baseline" in violations[0]


class TestInjectRegression:
    def test_degrades_gated_metrics_in_the_bad_direction(self):
        document = doc(
            GateMetric("a.qps", 100.0, gate=True),
            GateMetric("a.ms", 10.0, gate=True, higher_is_better=False),
            GateMetric("a.wall", 7.0),
        )
        degraded = inject_regression(document, 0.5)
        assert degraded["metrics"]["a.qps"]["value"] == 50.0
        assert degraded["metrics"]["a.ms"]["value"] == 20.0
        assert degraded["metrics"]["a.wall"]["value"] == 7.0  # ungated untouched
        assert degraded["meta"]["injected_regression"] == 0.5
        # The original document is not mutated.
        assert document["metrics"]["a.qps"]["value"] == 100.0

    def test_injected_regression_trips_the_gate(self):
        baseline = doc(GateMetric("a.qps", 100.0, gate=True))
        degraded = inject_regression(baseline, 0.5)
        assert compare_to_baseline(degraded, baseline, tolerance=0.20)

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            inject_regression(doc(), 0.0)


class TestHeadToHead:
    def test_head_to_head_file_is_part_of_the_smoke_suite(self):
        assert "BENCH_head_to_head.json" in BENCH_FILES

    def test_small_comparison_reproduces_the_paper_shape(self):
        result = run_head_to_head(
            cardinality=500,
            selectivities=(0.01,),
            num_queries=5,
            record_size=96,
            key_bits=512,
            num_update_ops=9,
        )
        by_scheme = {point.scheme: point for point in result.points}
        assert set(by_scheme) == {"sae", "tom"}
        assert all(point.all_verified for point in result.points)
        # The headline claims: constant-size VT vs multi-hundred-byte VOs,
        # and a lower SP cost for the plain B+-tree.
        assert by_scheme["sae"].mean_auth_bytes == 20
        assert by_scheme["tom"].mean_auth_bytes > 10 * by_scheme["sae"].mean_auth_bytes
        assert by_scheme["sae"].mean_sp_accesses <= by_scheme["tom"].mean_sp_accesses
        updates = {point.scheme: point for point in result.update_points}
        assert set(updates) == {"sae", "tom"}
        assert all(point.all_verified_after for point in result.update_points)
        assert all(point.total_accesses > 0 for point in result.update_points)


def profile_report(scheme="tom", **overrides):
    base = dict(
        scheme=scheme,
        cardinality=100,
        num_queries=5,
        cold_pass_ms=40.0,
        warm_pass_ms=10.0,
        wall_qps=120.0,
        wall_p95_ms=12.0,
        stages=[StageSpan("encode", calls=10, total_ms=2.0)],
        memo_cold_ms=8.0,
        memo_warm_ms=1.0,
        codec_nodes=50,
        codec_bytes=1_000,
        pickle_bytes=1_500,
        codec_encode_ms=1.0,
        pickle_encode_ms=1.0,
        codec_decode_ms=1.0,
        pickle_decode_ms=1.0,
    )
    if scheme == "tom":
        base.update(
            verify_cache_hits=39,
            verify_cache_misses=1,
            verify_uncached_ms=28.0,
            verify_cached_ms=1.0,
        )
    base.update(overrides)
    return ProfileReport(**base)


class TestProfileGateMetrics:
    def _by_name(self, report):
        return {metric.name: metric for metric in profile_gate_metrics(report)}

    def test_deterministic_counters_are_gated(self):
        metrics = self._by_name(profile_report())
        assert metrics["profile.tom.verify_cache.hit_rate"].gate
        assert metrics["profile.tom.codec.size_ratio_pickle_over_codec"].value == 1.5
        assert metrics["profile.tom.codec.codec_bytes"].gate
        assert not metrics["profile.tom.codec.codec_bytes"].higher_is_better

    def test_wall_clock_metrics_are_never_gated(self):
        metrics = self._by_name(profile_report())
        for name in ("profile.tom.wall_qps", "profile.tom.wall_p95_ms",
                     "profile.tom.cold_pass_ms", "profile.tom.stage.encode_ms"):
            assert not metrics[name].gate, name

    def test_gated_speedups_are_capped(self):
        metrics = self._by_name(profile_report())  # memo speedup 8x, verify 28x
        assert metrics["profile.tom.memo.warm_speedup_capped"].value == SPEEDUP_CAP
        assert metrics["profile.tom.verify_cache.speedup_capped"].value == SPEEDUP_CAP
        # The raw (uncapped) speedups ride along ungated for trend plots.
        assert metrics["profile.tom.memo.warm_speedup"].value == pytest.approx(8.0)
        assert not metrics["profile.tom.memo.warm_speedup"].gate

    def test_sae_report_omits_verify_cache_metrics(self):
        # SAE signs nothing: no root-verifier counters.
        metrics = self._by_name(profile_report(scheme="sae"))
        assert not any("verify_cache" in name for name in metrics)
        assert metrics["profile.sae.memo.warm_speedup_capped"].gate


class TestMergeBaseline:
    def test_flattens_every_document(self):
        documents = {
            "BENCH_a.json": doc(GateMetric("a.qps", 10.0, gate=True)),
            "BENCH_b.json": doc(GateMetric("b.ms", 5.0, higher_is_better=False)),
        }
        merged = merge_baseline(documents)
        assert set(merged["metrics"]) == {"a.qps", "b.ms"}
        assert merged["format"].startswith("sae-bench/")
        assert "--write-baseline" in merged["meta"]["description"]


class TestWriteBaselineGuard:
    GATED = "throughput.per-query.model_qps"

    def _reuse_dir(self, tmp_path, value, extra=()):
        reuse = tmp_path / "reuse"
        reuse.mkdir()
        for i, name in enumerate(BENCH_FILES):
            metrics = [GateMetric(f"suite{i}.wall_ms", 1.0)]
            if i == 0:
                metrics.append(GateMetric(self.GATED, value, gate=True))
                metrics.extend(extra)
            write_bench_file(reuse / name, doc(*metrics))
        return reuse

    def test_refuses_overwrite_when_gated_metric_regressed(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        write_bench_file(baseline_path, doc(GateMetric(self.GATED, 100.0, gate=True)))
        before = baseline_path.read_text()
        code = run_smoke(
            tmp_path / "out",
            baseline_path=baseline_path,
            reuse_dir=self._reuse_dir(tmp_path, value=50.0),
            write_baseline=True,
        )
        assert code == 1
        assert baseline_path.read_text() == before  # untouched
        assert "refusing to overwrite" in capsys.readouterr().out

    def test_new_gated_metrics_do_not_block_the_refresh(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_bench_file(baseline_path, doc(GateMetric(self.GATED, 100.0, gate=True)))
        reuse = self._reuse_dir(
            tmp_path, value=101.0,
            extra=(GateMetric("profile.tom.memo.replay_hits", 30, gate=True),),
        )
        code = run_smoke(
            tmp_path / "out", baseline_path=baseline_path,
            reuse_dir=reuse, write_baseline=True,
        )
        assert code == 0
        refreshed = load_bench_file(baseline_path)
        assert refreshed["metrics"]["profile.tom.memo.replay_hits"]["value"] == 30
        assert refreshed["metrics"][self.GATED]["value"] == 101.0

    def test_fresh_baseline_is_written_when_none_exists(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        code = run_smoke(
            tmp_path / "out", baseline_path=baseline_path,
            reuse_dir=self._reuse_dir(tmp_path, value=42.0),
            write_baseline=True,
        )
        assert code == 0
        assert load_bench_file(baseline_path)["metrics"][self.GATED]["value"] == 42.0

    def test_write_baseline_needs_a_path(self, tmp_path):
        code = run_smoke(
            tmp_path / "out", baseline_path=None,
            reuse_dir=self._reuse_dir(tmp_path, value=1.0),
            write_baseline=True,
        )
        assert code == 2
