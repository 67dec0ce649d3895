"""Unit tests for the experiment runner's measurement bookkeeping."""

import threading
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PointMeasurement, clear_cache, measure_point

TINY = ExperimentConfig(
    cardinalities=(400,),
    distributions=("uniform",),
    record_size=120,
    num_queries=3,
    rsa_key_bits=512,
    seed=99,
    label="tiny",
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestMeasurePoint:
    def test_basic_measurement_fields(self):
        point = measure_point(TINY, "uniform", 400)
        assert isinstance(point, PointMeasurement)
        assert point.distribution == "uniform"
        assert point.cardinality == 400
        assert point.all_verified
        assert point.sae_auth_bytes == 20
        assert point.tom_auth_bytes > 100
        assert point.sae_sp_storage_mb > 0
        assert point.te_storage_mb > 0
        assert point.sae_sp_ms == point.sae_sp_index_accesses * TINY.node_access_ms

    def test_without_tom(self):
        config = replace(TINY, include_tom=False, label="tiny-no-tom")
        point = measure_point(config, "uniform", 400)
        assert point.tom_auth_bytes == 0
        assert point.tom_sp_ms == 0
        assert point.tom_sp_storage_mb == 0
        assert point.sae_auth_bytes == 20

    def test_cache_bypass(self):
        first = measure_point(TINY, "uniform", 400, use_cache=False)
        second = measure_point(TINY, "uniform", 400, use_cache=False)
        assert first is not second
        assert first.sae_sp_index_accesses == second.sae_sp_index_accesses

    def test_fetch_accesses_identical_for_both_models(self):
        point = measure_point(TINY, "uniform", 400)
        assert point.details["sae_sp_fetch_accesses"] == pytest.approx(
            point.details["tom_sp_fetch_accesses"]
        )

    def test_digest_scheme_propagates(self):
        config = replace(TINY, digest_scheme="sha256", label="tiny-sha256")
        point = measure_point(config, "uniform", 400)
        assert point.sae_auth_bytes == 32

    def test_point_closes_both_deployments(self):
        # Queries run on the calling thread and close() releases every
        # store, so a point must leave the process's thread count unchanged.
        before = threading.active_count()
        point = measure_point(ExperimentConfig.quick(), "uniform", 2_000, use_cache=False)
        assert point.all_verified
        assert threading.active_count() == before
