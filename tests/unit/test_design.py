"""Unit tests for the unified physical-design descriptor."""

import json

import pytest

from repro.core import OutsourcedDB
from repro.core.design import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_POOL_PAGES,
    DESIGN_FORMAT,
    DesignError,
    PhysicalDesign,
    design_from_snapshot_params,
)
from repro.workloads import build_dataset


class TestValidation:
    def test_defaults_are_valid(self):
        design = PhysicalDesign()
        assert design.shards == 1
        assert design.cut_points is None
        assert design.replicas == 1
        assert design.pool_pages == DEFAULT_POOL_PAGES
        assert design.batch_size == DEFAULT_BATCH_SIZE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"replicas": 0},
            {"pool_pages": 0},
            {"page_size": 128},
            {"batch_size": 0},
            {"memo_capacity": 0},
            {"verifier_cache": 0},
        ],
    )
    def test_rejects_out_of_range_knobs(self, kwargs):
        with pytest.raises(DesignError):
            PhysicalDesign(**kwargs)

    def test_cut_point_count_must_match_shards(self):
        with pytest.raises(DesignError, match="cut point"):
            PhysicalDesign(shards=3, cut_points=(100,))

    def test_cut_points_must_be_sorted(self):
        with pytest.raises(DesignError, match="sorted"):
            PhysicalDesign(shards=3, cut_points=(200, 100))

    def test_cut_points_coerced_to_tuple(self):
        design = PhysicalDesign(shards=3, cut_points=[100, 200])
        assert design.cut_points == (100, 200)


class TestSerialisation:
    def test_json_round_trip(self, tmp_path):
        design = PhysicalDesign(
            shards=4, cut_points=(10, 20, 30), replicas=2,
            pool_pages=64, page_size=8192, batch_size=50,
        )
        path = tmp_path / "design.json"
        design.save(path)
        assert PhysicalDesign.load(path) == design
        assert json.loads(path.read_text())["format"] == DESIGN_FORMAT

    def test_balanced_design_round_trips_none_cuts(self):
        design = PhysicalDesign(shards=1)
        assert PhysicalDesign.from_json_dict(design.to_json_dict()) == design

    def test_load_rejects_missing_format_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"shards": 2}\n')
        with pytest.raises(DesignError, match="format"):
            PhysicalDesign.load(path)

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        document = PhysicalDesign().to_json_dict()
        document["fanout"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(DesignError, match="fanout"):
            PhysicalDesign.load(path)

    def test_load_rejects_missing_file_and_invalid_json(self, tmp_path):
        with pytest.raises(DesignError, match="cannot read"):
            PhysicalDesign.load(tmp_path / "absent.json")
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DesignError, match="not valid JSON"):
            PhysicalDesign.load(path)


class TestOverrides:
    def test_none_values_are_ignored(self):
        design = PhysicalDesign(pool_pages=64)
        assert design.with_overrides(pool_pages=None, batch_size=None) == design

    def test_overriding_shards_drops_stale_cuts(self):
        design = PhysicalDesign(shards=3, cut_points=(10, 20))
        changed = design.with_overrides(shards=2)
        assert changed.shards == 2
        assert changed.cut_points is None

    def test_same_shard_count_keeps_cuts(self):
        design = PhysicalDesign(shards=3, cut_points=(10, 20))
        assert design.with_overrides(shards=3).cut_points == (10, 20)

    def test_unknown_field_raises(self):
        with pytest.raises(DesignError, match="fanout"):
            PhysicalDesign().with_overrides(fanout=8)

    def test_shard_local_strips_fleet_level_knobs(self):
        design = PhysicalDesign(
            shards=4, cut_points=(1, 2, 3), replicas=2, pool_pages=32
        )
        child = design.shard_local()
        assert (child.shards, child.cut_points, child.replicas) == (1, None, 1)
        assert child.pool_pages == 32


class TestDefaultFor:
    def test_explicit_balanced_cuts_without_dataset_round_trip(self):
        dataset = build_dataset(400, seed=3)
        design = PhysicalDesign.default_for(dataset, shards=4)
        assert design.cut_points is not None
        assert len(design.cut_points) == 3
        # The explicit cuts must route exactly like balanced-from-dataset.
        derived = PhysicalDesign(shards=4).router(dataset)
        assert design.router().boundaries == derived.boundaries

    def test_single_shard_has_no_cuts(self):
        dataset = build_dataset(100, seed=3)
        assert PhysicalDesign.default_for(dataset).cut_points is None

    def test_router_without_cuts_needs_dataset(self):
        with pytest.raises(DesignError, match="dataset"):
            PhysicalDesign(shards=2).router()


class TestDeploymentReadsDesign:
    def test_sharded_deployment_is_honoured(self):
        dataset = build_dataset(200, seed=3)
        design = PhysicalDesign(shards=3, replicas=2, cut_points=(10, 20))
        with OutsourcedDB(
            dataset, scheme="sae", key_bits=512, design=design
        ) as db:
            assert db.design == design
            assert (db.num_shards, db.num_replicas) == (3, 2)
            db.setup()
            # The primary and the standby route on the design's cuts.
            assert db.provider.router.boundaries == [10, 20]
            assert db.sp_replica(1).router.boundaries == [10, 20]


class TestSnapshotParams:
    def test_post_design_snapshot_restores_full_design(self):
        design = PhysicalDesign(shards=2, cut_points=(5,), page_size=8192)
        params = {"design": design.to_json_dict()}
        assert design_from_snapshot_params(params, None) == design

    def test_pool_pages_override_applies_at_restore(self):
        design = PhysicalDesign(pool_pages=128)
        restored = design_from_snapshot_params(
            {"design": design.to_json_dict()}, 16
        )
        assert restored.pool_pages == 16

    def test_pre_design_snapshot_seeds_defaults(self):
        restored = design_from_snapshot_params(
            {"shards": 2, "page_size": 2048}, None
        )
        assert restored.shards == 2
        assert restored.page_size == 2048
        assert restored.pool_pages == DEFAULT_POOL_PAGES
