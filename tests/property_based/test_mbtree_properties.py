"""Property-based tests for the MB-tree and the TOM VO verification."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import make_rsa_pair
from repro.crypto.encoding import encode_record
from repro.crypto.xor import digest_of_record
from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.verification import verify_vo

_SIGNER, _VERIFIER = make_rsa_pair(bits=512, seed=20090402)

keys = st.integers(min_value=0, max_value=150)


def payloads_of(records):
    """What the SP ships: the records' canonical bytes."""
    return [encode_record(record) for record in records]


def build(records_by_id, page_size=256):
    tree = MBTree(layout=MBTreeLayout(page_size=page_size))
    tree.bulk_load(sorted(
        (fields[1], rid, digest_of_record(fields)) for rid, fields in records_by_id.items()
    ))
    tree.signature = _SIGNER.sign(tree.root_digest())
    return tree


def records_from(key_list):
    return {rid: (rid, key, f"payload-{rid}".encode()) for rid, key in enumerate(key_list)}


class TestMBTreeProperties:
    @given(st.lists(keys, max_size=250), st.tuples(keys, keys))
    @settings(max_examples=50, deadline=None)
    def test_range_search_matches_reference(self, key_list, bounds):
        low, high = min(bounds), max(bounds)
        records = records_from(key_list)
        tree = build(records)
        tree.validate()
        expected = sorted((fields[1], rid) for rid, fields in records.items()
                          if low <= fields[1] <= high)
        assert sorted(tree.range_search(low, high)) == expected

    @given(st.lists(keys, min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_root_digest_commits_to_content(self, key_list):
        records = records_from(key_list)
        tree = build(records)
        # Tampering with any record's payload must change the root digest.
        victim = next(iter(records))
        tampered = dict(records)
        tampered[victim] = (victim, records[victim][1], b"tampered")
        tampered_tree = build(tampered)
        assert tree.root_digest() != tampered_tree.root_digest()


class TestVOVerificationProperties:
    @given(st.lists(keys, max_size=200), st.tuples(keys, keys))
    @settings(max_examples=50, deadline=None)
    def test_honest_vo_always_verifies(self, key_list, bounds):
        low, high = min(bounds), max(bounds)
        records = records_from(key_list)
        tree = build(records)
        result, vo = tree.build_vo(low, high, record_loader=lambda rid: records[rid])
        result_records = [records[rid] for _, rid in result]
        report = verify_vo(vo, payloads_of(result_records), low, high,
                           verifier=_VERIFIER, key_index=1)
        assert report.ok, report.reason

    @given(st.lists(keys, min_size=3, max_size=150), st.tuples(keys, keys), st.data())
    @settings(max_examples=50, deadline=None)
    def test_dropping_any_result_record_is_detected(self, key_list, bounds, data):
        low, high = min(bounds), max(bounds)
        records = records_from(key_list)
        tree = build(records)
        result, vo = tree.build_vo(low, high, record_loader=lambda rid: records[rid])
        if not result:
            return
        result_records = [records[rid] for _, rid in result]
        victim = data.draw(st.integers(min_value=0, max_value=len(result_records) - 1))
        del result_records[victim]
        report = verify_vo(vo, payloads_of(result_records), low, high,
                           verifier=_VERIFIER, key_index=1)
        assert not report.ok

    @given(st.lists(keys, min_size=1, max_size=150), st.tuples(keys, keys), keys)
    @settings(max_examples=50, deadline=None)
    def test_injecting_a_fabricated_record_is_detected(self, key_list, bounds, fake_key):
        low, high = min(bounds), max(bounds)
        records = records_from(key_list)
        tree = build(records)
        result, vo = tree.build_vo(low, high, record_loader=lambda rid: records[rid])
        result_records = [records[rid] for _, rid in result]
        result_records.append((10**9, fake_key, b"forged record"))
        report = verify_vo(vo, payloads_of(result_records), low, high,
                           verifier=_VERIFIER, key_index=1)
        assert not report.ok
