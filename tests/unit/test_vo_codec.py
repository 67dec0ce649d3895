"""Unit tests for the VO wire format."""

import pytest

from repro.crypto.encoding import encode_record
from repro.crypto.xor import digest_of_record
from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.verification import verify_vo
from repro.tom.vo import VerificationObject, VOBoundary, VODigest, VOResultMarker, VOSubtree
from repro.tom.vo_codec import VOCodecError, deserialize_vo, serialize_vo
from repro.crypto.signatures import Signature


def payloads_of(records):
    """What the SP ships: the records' canonical bytes."""
    return [encode_record(record) for record in records]


@pytest.fixture()
def signed_query(rsa_pair):
    signer, verifier = rsa_pair
    records = {i: (i, i * 10, f"payload-{i}".encode()) for i in range(120)}
    tree = MBTree(layout=MBTreeLayout(page_size=256))
    tree.bulk_load(sorted((fields[1], rid, digest_of_record(fields))
                          for rid, fields in records.items()))
    tree.signature = signer.sign(tree.root_digest())
    result, vo = tree.build_vo(250, 620, record_loader=lambda rid: records[rid])
    result_records = [records[rid] for _, rid in result]
    return vo, result_records, verifier


class TestRoundTrip:
    def test_round_trip_preserves_structure(self, signed_query):
        vo, _, _ = signed_query
        decoded = deserialize_vo(serialize_vo(vo))
        assert decoded.items == vo.items
        assert decoded.is_leaf_root == vo.is_leaf_root
        assert decoded.signature == vo.signature

    def test_decoded_vo_still_verifies(self, signed_query):
        vo, result_records, verifier = signed_query
        decoded = deserialize_vo(serialize_vo(vo))
        report = verify_vo(decoded, payloads_of(result_records), 250, 620,
                           verifier=verifier, key_index=1)
        assert report.ok, report.reason

    def test_wire_size_close_to_accounted_size(self, signed_query):
        vo, _, _ = signed_query
        wire = serialize_vo(vo)
        # The byte accounting of Figure 5 (size_bytes) and the actual wire
        # format agree within a small per-item framing overhead.
        assert abs(len(wire) - vo.size_bytes()) <= 8 * (vo.count_digests()
                                                        + vo.count_boundaries()
                                                        + vo.count_markers() + 4)

    def test_empty_vo_round_trip(self):
        vo = VerificationObject(items=(), is_leaf_root=True,
                                signature=Signature(scheme="null", value=b"sig"))
        assert deserialize_vo(serialize_vo(vo)) == vo

    def test_nested_structure_round_trip(self):
        inner = VOSubtree(items=(VOResultMarker(), VODigest(digest=b"\x01" * 20)), is_leaf=True)
        vo = VerificationObject(
            items=(VODigest(digest=b"\x02" * 20), VOSubtree(items=(inner,), is_leaf=False),
                   VOBoundary(fields=(1, 2, b"x"))),
            is_leaf_root=False,
            signature=Signature(scheme="rsa-pkcs1v15", value=b"\x03" * 64),
        )
        assert deserialize_vo(serialize_vo(vo)) == vo


class TestMalformedInput:
    def test_truncated_header(self):
        with pytest.raises(VOCodecError):
            deserialize_vo(b"\x01\x00")

    def test_truncated_items(self, signed_query):
        vo, _, _ = signed_query
        wire = serialize_vo(vo)
        with pytest.raises(VOCodecError):
            deserialize_vo(wire[:-5])

    def test_trailing_garbage(self, signed_query):
        vo, _, _ = signed_query
        wire = serialize_vo(vo)
        with pytest.raises(VOCodecError):
            deserialize_vo(wire + b"\x00")

    def test_unknown_tag(self):
        vo = VerificationObject(items=(), is_leaf_root=True,
                                signature=Signature(scheme="null", value=b"s"))
        wire = bytearray(serialize_vo(vo))
        # Claim one item, then provide an invalid tag byte.
        wire[-4:] = (1).to_bytes(4, "big")
        wire += b"\xff"
        with pytest.raises(VOCodecError):
            deserialize_vo(bytes(wire))
