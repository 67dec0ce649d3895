"""Migration of pre-codec snapshots into the compact node codec.

Deployments snapshotted by builds that pickled tree pages must warm-restart
under the codec build: pages are migrated on read, queries stay verifiable,
and -- the authentication-critical part -- the owner's root signature bytes
are identical before and after migration.
"""

import pickle

from repro.core.design import PhysicalDesign
from repro.core.scheme import OutsourcedDB, restore_deployment
from repro.dbms.query import RangeQuery
from repro.storage import node_store as node_store_module
from repro.workloads import build_dataset

CARDINALITY = 400
POOL_PAGES = 8
BOUNDS = (1_000_000, 2_600_000)


def _pickled_page_deployment(tmp_path, monkeypatch, scheme):
    """Deploy paged storage whose pages are written the pre-codec way."""
    monkeypatch.setattr(
        node_store_module,
        "encode_node",
        lambda node: pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL),
    )
    return OutsourcedDB(
        build_dataset(CARDINALITY, record_size=96, seed=11),
        scheme=scheme,
        key_bits=512,
        seed=11,
        storage="paged",
        data_dir=str(tmp_path),
        design=PhysicalDesign(pool_pages=POOL_PAGES),
    ).setup()


def test_tom_root_signature_bytes_survive_migration(tmp_path, monkeypatch):
    query = RangeQuery(low=BOUNDS[0], high=BOUNDS[1])
    system = _pickled_page_deployment(tmp_path, monkeypatch, "tom")
    with system:
        _, old_vo = system.provider.execute(query)
        old_outcome = system.query(*BOUNDS)
        assert old_outcome.verified
        system.snapshot()
    monkeypatch.undo()

    restored = restore_deployment(str(tmp_path), pool_pages=POOL_PAGES)
    with restored:
        _, new_vo = restored.provider.execute(query)
        assert new_vo.signature.value == old_vo.signature.value
        assert new_vo.signature.scheme == old_vo.signature.scheme
        new_outcome = restored.query(*BOUNDS)
        assert new_outcome.verified
        assert sorted(map(tuple, new_outcome.records)) == sorted(
            map(tuple, old_outcome.records)
        )


def test_sae_tokens_survive_migration(tmp_path, monkeypatch):
    system = _pickled_page_deployment(tmp_path, monkeypatch, "sae")
    with system:
        old_vt = system.system.trusted_entity.generate_vt(
            RangeQuery(low=BOUNDS[0], high=BOUNDS[1])
        )
        old_outcome = system.query(*BOUNDS)
        assert old_outcome.verified
        system.snapshot()
    monkeypatch.undo()

    restored = restore_deployment(str(tmp_path), pool_pages=POOL_PAGES)
    with restored:
        new_vt = restored.system.trusted_entity.generate_vt(
            RangeQuery(low=BOUNDS[0], high=BOUNDS[1])
        )
        assert new_vt == old_vt
        new_outcome = restored.query(*BOUNDS)
        assert new_outcome.verified
        assert sorted(map(tuple, new_outcome.records)) == sorted(
            map(tuple, old_outcome.records)
        )
