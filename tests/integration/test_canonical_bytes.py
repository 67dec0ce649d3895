"""A record is encoded once, by the owner -- the invariant and its counts.

The SAE and TOM SPs ship the heap file's stored bytes, the client hashes and
decodes exactly those bytes, and the wire frames them as they are.  That only verifies if the stored payload, the
canonical encoding and what the TE digested are the same byte string for
every record, after every kind of update, on both storage tiers; this module
pins that, the encode/decode call counts the design promises, and that the
receipts did not move against values recorded from the parent commit.
"""

import json
import os

import pytest

from repro.core import OutsourcedDB, UpdateBatch
from repro.core.design import PhysicalDesign
from repro.core.tuples import digest_record
from repro.crypto.encoding import RecordLayout, decode_record, encode_record
from repro.network import wire
from repro.network.fleet import FleetManifest, FleetRouter
from repro.workloads import build_dataset

PARITY_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "unit", "fixtures", "receipt_parity.json"
)

BOUNDS = [(0, 400_000), (150_000, 900_000), (5_000_000, 5_600_000), (9_990_000, 10_000_000)]


def deploy(tmp_path, storage, scheme="sae", **design):
    dataset = build_dataset(3_000, record_size=96, seed=11)
    kwargs = {"design": PhysicalDesign(pool_pages=4, **design)}
    if storage == "paged":
        kwargs.update(storage="paged", data_dir=str(tmp_path))
    if scheme == "tom":
        kwargs.update(key_bits=512)
    return OutsourcedDB(dataset, scheme=scheme, **kwargs).setup()


# ---------------------------------------------------------------------- (i) the invariant
def assert_stored_bytes_are_canonical(db):
    """Heap payload == encode_record(record) == what the TE digested."""
    system = db.system
    table = system.provider._table
    te_tuples = system.trusted_entity._tuples_by_id
    records = db.dataset.records
    assert len(records) == table.num_records == len(te_tuples)
    for record in records:
        record_id = db.dataset.id_of(record)
        payload = table.heap.get(table._rid_by_id[record_id], charge=False)
        assert payload == encode_record(record)
        assert decode_record(payload) == tuple(record)
        assert te_tuples[record_id].digest == system.client.scheme.hash(payload)
        assert te_tuples[record_id].digest == digest_record(record, system.client.scheme)


@pytest.mark.parametrize("storage", ["memory", "paged"])
def test_stored_payload_is_the_canonical_encoding_the_te_digested(tmp_path, storage):
    with deploy(tmp_path, storage) as db:
        assert_stored_bytes_are_canonical(db)  # after bulk load
        victim, mover = db.dataset.records[3], db.dataset.records[40]
        db.apply_updates(UpdateBatch().insert((900_001, 123_456, b"fresh" * 9)))
        assert_stored_bytes_are_canonical(db)
        db.apply_updates(UpdateBatch().modify((victim[0], victim[1], b"rewritten" * 30)))
        assert_stored_bytes_are_canonical(db)
        db.apply_updates(UpdateBatch().modify((mover[0], 9_999_999, mover[2])))  # key change
        assert_stored_bytes_are_canonical(db)
        db.apply_updates(UpdateBatch().delete(db.dataset.records[7][0]))
        assert_stored_bytes_are_canonical(db)
        outcome = db.query(0, 10_000_000)
        assert outcome.verified
        assert sorted(outcome.records) == sorted(db.dataset.records)


# ---------------------------------------------------------------------- (ii) the counts
@pytest.fixture()
def codec_calls(monkeypatch):
    """Count every record encode / decode made anywhere under ``repro``.

    ``decode`` counts generic ``decode_record`` calls and ``layout`` the
    records read through a compiled ``RecordLayout`` in one unpack.
    """
    import sys

    calls = {"encode": 0, "decode": 0, "layout": 0}

    def counting(name, real):
        def wrapper(value):
            calls[name] += 1
            return real(value)
        return wrapper

    replacements = {
        "encode_record": (encode_record, counting("encode", encode_record)),
        "decode_record": (decode_record, counting("decode", decode_record)),
    }
    for module_name, module in list(sys.modules.items()):
        # QueryRequest sizes the *bounds* with encode_record: not a record.
        if not module_name.startswith("repro.") or module_name == "repro.network.messages":
            continue
        for attribute, (real, counted) in replacements.items():
            if getattr(module, attribute, None) is real:
                monkeypatch.setattr(module, attribute, counted)
    layout_decode = RecordLayout.decode

    def counted_layout_decode(layout, data):
        calls["layout"] += 1
        return layout_decode(layout, data)

    monkeypatch.setattr(RecordLayout, "decode", counted_layout_decode)
    return calls


@pytest.mark.parametrize("design", [{}, {"shards": 3}], ids=["unsharded", "3-shard"])
def test_honest_query_encodes_nothing_and_decodes_each_record_once(
    tmp_path, codec_calls, design
):
    with deploy(tmp_path, "memory", **design) as db:
        codec_calls.update(encode=0, decode=0, layout=0)
        outcome = db.query(0, 2_000_000)
        assert outcome.verified and outcome.cardinality > 100
        legs = len(outcome.receipt.legs) or 1  # an unsharded query carries no legs
        # Every record is decoded once; only each leg's first record goes
        # through decode_record, the rest share its layout.
        assert codec_calls == {
            "encode": 0, "decode": legs, "layout": outcome.cardinality - legs
        }


@pytest.mark.parametrize("design", [{}, {"shards": 3}], ids=["unsharded", "3-shard"])
def test_honest_tom_query_encodes_no_result_record_and_decodes_each_once(
    tmp_path, codec_calls, design
):
    with deploy(tmp_path, "memory", scheme="tom", **design) as db:
        codec_calls.update(encode=0, decode=0, layout=0)
        outcome = db.query(2_000_000, 8_000_000)
        assert outcome.verified and outcome.cardinality > 100
        vos = outcome.details.get("vos") or [outcome.vo]
        legs = len(vos)
        assert legs == (3 if design else 1)
        boundaries = sum(vo.count_boundaries() for vo in vos)
        # No result record is encoded: the SP ships stored bytes, the
        # result is sized by their lengths and the client hashes them.  The
        # only encodes are each VO boundary record's, sized once and hashed
        # once by the client; the only decodes besides the client's one per
        # result record are the SP's loads of those boundaries.
        assert codec_calls == {
            "encode": 2 * boundaries,
            "decode": boundaries + legs,
            "layout": outcome.cardinality - legs,
        }


def test_query_many_decodes_each_distinct_payload_of_a_batch_once(tmp_path, codec_calls):
    with deploy(tmp_path, "memory") as db:
        codec_calls.update(encode=0, decode=0, layout=0)
        outcomes = db.query_many([(0, 2_000_000), (1_000_000, 3_000_000), (0, 3_000_000)])
        assert all(outcome.verified for outcome in outcomes)
        distinct = {record for outcome in outcomes for record in outcome.records}
        assert sum(o.cardinality for o in outcomes) > len(distinct)  # the bounds overlap
        # The third bound's records are all in the batch's digest cache, so
        # only the first two results have a lead record for decode_record.
        assert codec_calls == {"encode": 0, "decode": 2, "layout": len(distinct) - 2}


def test_sqlite_backend_encodes_each_row_once(tmp_path, codec_calls):
    dataset = build_dataset(300, record_size=96, seed=11)
    with OutsourcedDB(dataset, scheme="sae", backend="sqlite").setup() as db:
        codec_calls.update(encode=0, decode=0, layout=0)
        outcome = db.query(0, 10_000_000)
        assert outcome.verified and outcome.cardinality == 300
        assert codec_calls == {"encode": 300, "decode": 1, "layout": 299}


@pytest.mark.parametrize("scheme", ["sae", "tom"])
def test_outcome_to_wire_encodes_no_record(tmp_path, codec_calls, scheme):
    with deploy(tmp_path, "memory", scheme=scheme, shards=2) as db:
        outcomes = [db.query(1_000_000, 8_000_000)] + db.query_many([(0, 3_000_000)])
        codec_calls.update(encode=0, decode=0, layout=0)
        frames = [wire.outcome_to_wire(outcome, scheme=scheme) for outcome in outcomes]
        assert codec_calls == {"encode": 0, "decode": 0, "layout": 0}
        for frame, outcome in zip(frames, outcomes):
            remote = wire.outcome_from_wire(frame)
            assert remote.records == tuple(outcome.records)
            assert remote.payloads == tuple(outcome.payloads)


def test_router_merge_keeps_each_record_beside_its_bytes(tmp_path, codec_calls):
    """Mid-migration re-sort moves (record, payload) pairs; re-serving encodes nothing."""
    with deploy(tmp_path, "memory") as db:
        high_leg = wire.outcome_from_wire(wire.outcome_to_wire(db.query(6_000_000, 7_000_000)))
        low_leg = wire.outcome_from_wire(wire.outcome_to_wire(db.query(1_000_000, 2_000_000)))
        manifest = FleetManifest(
            scheme="sae", num_shards=2, replicas=1, boundaries=[5_000_000],
            schema=db.dataset.schema, shard_by_id={},
            migration={"boundaries": [3_000_000], "num_shards": 2},
        )
        router = FleetRouter(manifest, endpoints={})
        # Legs in the order a union scatter may return them: keys out of order.
        merged = router._merge(
            1_000_000, 7_000_000, [(1, high_leg, 0, ()), (0, low_leg, 0, ())], verify=True
        )
        key_index = db.dataset.schema.key_index
        keys = [record[key_index] for record in merged.records]
        assert keys == sorted(keys) and merged.cardinality == (
            high_leg.cardinality + low_leg.cardinality
        )
        assert tuple(decode_record(p) for p in merged.payloads) == merged.records
        codec_calls.update(encode=0, decode=0, layout=0)
        frame = wire.outcome_to_wire(merged, scheme="sae")
        assert codec_calls == {"encode": 0, "decode": 0, "layout": 0}
        assert wire.outcome_from_wire(frame).payloads == merged.payloads


# ---------------------------------------------------------------------- (iii) receipt parity
def receipt_row(outcome):
    receipt = outcome.receipt
    return {
        "cardinality": outcome.cardinality,
        "result_bytes": receipt.result_bytes,
        "auth_bytes": receipt.auth_bytes,
        "bytes_by_channel": dict(sorted(receipt.bytes_by_channel.items())),
        "sp": [receipt.sp.node_accesses, receipt.sp.pool_hits,
               receipt.sp.pool_misses, receipt.sp.pool_evictions],
        "te": [receipt.te.node_accesses, receipt.te.pool_hits,
               receipt.te.pool_misses, receipt.te.pool_evictions,
               receipt.te.memo_hits, receipt.te.memo_misses],
        "legs": [[leg.shard, leg.result_bytes, leg.auth_bytes,
                  leg.sp.node_accesses, leg.te.node_accesses] for leg in receipt.legs],
    }


def receipt_fingerprint(tmp_path):
    """Receipts of a fixed seeded session over four deployment shapes."""
    shapes = {
        "unsharded-memory": ("memory", {}),
        "unsharded-paged": ("paged", {}),
        "3-shard-paged": ("paged", {"shards": 3}),
        "2-replica-memory": ("memory", {"replicas": 2}),
    }
    fingerprint = {}
    for name, (storage, design) in shapes.items():
        root = tmp_path / name
        root.mkdir()
        # Legs run on the calling thread in shard order, so legs sharing a
        # buffer pool run in a fixed order and the pool tallies repeat exactly.
        with deploy(root, storage, **design) as db:
            outcomes = [db.query(low, high) for low, high in BOUNDS]
            outcomes += db.query_many(BOUNDS)
            assert all(outcome.verified for outcome in outcomes)
            fingerprint[name] = [receipt_row(outcome) for outcome in outcomes]
    return fingerprint


def test_receipts_match_the_values_recorded_from_the_parent(tmp_path):
    with open(PARITY_FIXTURE, encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert receipt_fingerprint(tmp_path) == recorded


def test_no_sp_memo_traffic_and_leg_sums_hold(tmp_path):
    for design in ({}, {"shards": 3}, {"replicas": 2}):
        with deploy(tmp_path, "memory", **design) as db:
            for outcome in [db.query(*BOUNDS[1])] + db.query_many(BOUNDS):
                receipt = outcome.receipt
                assert (receipt.sp.memo_hits, receipt.sp.memo_misses) == (0, 0)
                assert not receipt.legs or receipt.matches_leg_sums()
            assert not hasattr(db.system, "record_memo")
