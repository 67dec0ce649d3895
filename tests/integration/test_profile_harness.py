"""Integration smoke of the wall-clock profiling harness.

Runs :func:`repro.experiments.profile.run_profile` for both schemes at a
tiny scale and pins the report shape the bench gate consumes: every stage
span present, deterministic cache counters populated, and a codec that
actually beats pickle on size over real paged nodes.
"""

import pytest

from repro.experiments.profile import (
    STAGES,
    ProfileError,
    format_profile,
    run_profile,
)

SCALE = dict(cardinality=400, num_queries=8, num_clients=2)


@pytest.fixture(scope="module")
def sae_report():
    return run_profile("sae", **SCALE)


@pytest.fixture(scope="module")
def tom_report():
    return run_profile("tom", **SCALE)


@pytest.mark.parametrize("fixture", ["sae_report", "tom_report"])
def test_every_stage_is_measured(fixture, request):
    report = request.getfixturevalue(fixture)
    assert tuple(span.name for span in report.stages) == STAGES
    for span in report.stages:
        assert span.calls > 0
        assert span.total_ms >= 0.0


@pytest.mark.parametrize("fixture", ["sae_report", "tom_report"])
def test_memo_microbench_warm_pass_beats_the_cold_one(fixture, request):
    # Both SPs ship stored bytes: no memo sits on either query path, so
    # the report carries no replay counters, only the micro-bench.
    report = request.getfixturevalue(fixture)
    assert "memo:" not in format_profile(report)
    assert report.memo_speedup > 1.0


@pytest.mark.parametrize("fixture", ["sae_report", "tom_report"])
def test_codec_beats_pickle_on_size_over_paged_nodes(fixture, request):
    report = request.getfixturevalue(fixture)
    assert report.codec_nodes > 0
    assert 0 < report.codec_bytes < report.pickle_bytes
    assert report.codec_size_ratio > 1.0


def test_tom_exercises_the_root_signature_cache(tom_report):
    assert tom_report.verify_cache_hits > 0
    assert tom_report.verify_cache_misses >= 1  # exactly one cold check per epoch
    assert tom_report.verify_cache_hit_rate > 0.5
    assert tom_report.verify_speedup > 1.0


def test_sae_has_no_signature_cache_activity(sae_report):
    assert sae_report.verify_cache_hits == 0
    assert sae_report.verify_cache_misses == 0


@pytest.mark.parametrize("fixture", ["sae_report", "tom_report"])
def test_hotspots_and_wall_numbers_are_recorded(fixture, request):
    report = request.getfixturevalue(fixture)
    assert report.hotspots, "cProfile pass must surface hot functions"
    assert report.wall_qps > 0.0
    assert report.cold_pass_ms > 0.0
    assert report.warm_pass_ms > 0.0


def test_format_profile_renders_every_section(tom_report):
    text = format_profile(tom_report)
    for fragment in ("tree_walk", "memo micro-bench:", "root verifier:", "node codec:",
                     "hottest functions"):
        assert fragment in text


def test_unknown_scheme_is_rejected():
    from repro.core.scheme import SchemeError

    with pytest.raises((ProfileError, SchemeError)):
        run_profile("merkle2", **SCALE)
