"""Fleet manifest and build: the on-disk contract every fleet process shares."""

import pickle

import pytest

from repro.core.design import DesignError, PhysicalDesign
from repro.network.fleet import (
    FLEET_FORMAT,
    FleetError,
    FleetManifest,
    build_fleet,
    fleet_manifest_path,
    has_fleet,
    shard_data_dir,
)
from repro.core.scheme import has_snapshot
from repro.workloads import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(300, record_size=64, seed=5)


@pytest.fixture(scope="module")
def built(dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("fleet-build")
    manifest = build_fleet(
        dataset, base, scheme="sae", design=PhysicalDesign(shards=3, replicas=2), seed=5
    )
    return dataset, base, manifest


class TestBuildFleet:
    def test_ships_one_snapshot_per_child(self, built):
        _, base, manifest = built
        assert has_fleet(base)
        for shard in range(3):
            for replica in range(2):
                child_dir = shard_data_dir(base, shard, replica)
                assert child_dir.is_dir()
                assert has_snapshot(str(child_dir))
        assert manifest.num_shards == 3
        assert manifest.replicas == 2

    def test_replica_directories_are_independent_copies(self, built):
        _, base, _ = built
        primary = shard_data_dir(base, 0, 0)
        standby = shard_data_dir(base, 0, 1)
        assert primary != standby
        primary_files = sorted(p.name for p in primary.iterdir())
        standby_files = sorted(p.name for p in standby.iterdir())
        assert primary_files == standby_files

    def test_manifest_round_trips(self, built):
        dataset, base, manifest = built
        loaded = FleetManifest.load(base)
        assert loaded.scheme == manifest.scheme
        assert loaded.num_shards == manifest.num_shards
        assert loaded.boundaries == manifest.boundaries
        assert loaded.shard_by_id == manifest.shard_by_id
        assert loaded.cardinality == dataset.cardinality
        assert loaded.schema == dataset.schema

    def test_router_covers_every_record(self, built):
        dataset, _, manifest = built
        router = manifest.router()
        key_index = dataset.schema.key_index
        id_index = dataset.schema.id_index
        for record in dataset.records:
            shard = router.shard_of(record[key_index])
            assert manifest.shard_by_id[record[id_index]] == shard

    def test_refuses_to_overwrite_an_existing_fleet(self, built, dataset):
        _, base, _ = built
        with pytest.raises(FleetError, match="already holds a fleet"):
            build_fleet(dataset, base, scheme="sae", design=PhysicalDesign(shards=2), seed=5)

    def test_rejects_degenerate_shapes(self, dataset, tmp_path):
        # The design a fleet is built to refuses the shape before any build.
        with pytest.raises(DesignError, match="at least one shard"):
            build_fleet(dataset, tmp_path / "a", scheme="sae", design=PhysicalDesign(shards=0))
        with pytest.raises(DesignError, match="at least one replica"):
            build_fleet(
                dataset, tmp_path / "b", scheme="sae", design=PhysicalDesign(shards=2, replicas=0)
            )

    def test_requires_a_design(self, dataset, tmp_path):
        with pytest.raises(TypeError, match="design"):
            build_fleet(dataset, base_dir=tmp_path)


class TestManifestLoading:
    def test_missing_manifest_is_a_friendly_error(self, tmp_path):
        assert not has_fleet(tmp_path)
        with pytest.raises(FleetError, match="no fleet manifest"):
            FleetManifest.load(tmp_path)

    def test_unknown_format_is_rejected(self, tmp_path):
        path = fleet_manifest_path(tmp_path)
        with open(path, "wb") as handle:
            pickle.dump({"format": "repro-fleet/999"}, handle)
        with pytest.raises(FleetError, match="unsupported fleet format"):
            FleetManifest.load(tmp_path)
        assert FLEET_FORMAT == "repro-fleet/1"

    def test_shard_dir_naming(self, tmp_path):
        assert shard_data_dir(tmp_path, 2).name == "shard2"
        assert shard_data_dir(tmp_path, 2, 1).name == "shard2.r1"
