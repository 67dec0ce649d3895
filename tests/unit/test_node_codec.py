"""Unit tests for the compact node codec behind the paged store."""

import json
import os
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.node import BPlusInternalNode, BPlusLeafNode
from repro.crypto.digest import Digest, default_scheme
from repro.storage.heapfile import RecordId
from repro.storage.node_codec import (
    CODEC_MAGIC,
    CODEC_VERSION,
    NodeCodecError,
    decode_node,
    encode_node,
)
from repro.tom.mbtree import MBInternalNode, MBLeafNode
from repro.xbtree.node import XBEntry, XBNode

SCHEME = default_scheme()


def digest_of(tag: int) -> Digest:
    return SCHEME.hash(bytes([tag]))


def bplus_leaf(keys, values, next_leaf=None):
    node = BPlusLeafNode()
    node.keys = list(keys)
    node.values = list(values)
    node.next_leaf = next_leaf
    return node


def bplus_internal(keys, children):
    node = BPlusInternalNode()
    node.keys = list(keys)
    node.children = list(children)
    return node


def mb_leaf(keys, rids, next_leaf=None):
    node = MBLeafNode()
    node.keys = list(keys)
    node.rids = list(rids)
    node.digests = [digest_of(key % 251) for key in keys]
    node.next_leaf = next_leaf
    return node


def mb_internal(keys, children):
    node = MBInternalNode()
    node.keys = list(keys)
    node.children = list(children)
    node.child_digests = [digest_of(ref % 251) for ref in children]
    return node


def xb_node(is_leaf=True):
    anchor = XBEntry(None, x=digest_of(0), child=None if is_leaf else 7)
    keyed = XBEntry(
        42,
        tuples=[(1, digest_of(1)), (2, digest_of(2))],
        x=digest_of(3),
        child=None if is_leaf else 9,
    )
    return XBNode(entries=[anchor, keyed], is_leaf=is_leaf)


class TestRoundTrip:
    def test_bplus_leaf(self):
        node = bplus_leaf([1, 2, 3], [10, 20, 30], next_leaf=5)
        decoded = decode_node(encode_node(node))
        assert type(decoded) is BPlusLeafNode
        assert decoded.keys == node.keys
        assert decoded.values == node.values
        assert decoded.next_leaf == 5

    def test_bplus_internal(self):
        node = bplus_internal([100, 200], [0, 1, 2])
        decoded = decode_node(encode_node(node))
        assert type(decoded) is BPlusInternalNode
        assert decoded.keys == node.keys
        assert decoded.children == node.children

    @pytest.mark.parametrize("is_leaf", [True, False])
    def test_xb_node(self, is_leaf):
        node = xb_node(is_leaf=is_leaf)
        decoded = decode_node(encode_node(node))
        assert type(decoded) is XBNode
        assert decoded.is_leaf is is_leaf
        assert decoded.keys() == node.keys()
        for original, restored in zip(node.entries, decoded.entries):
            assert restored.key == original.key
            assert restored.x == original.x
            assert restored.child == original.child
            assert restored.tuples == original.tuples

    def test_mb_leaf(self):
        node = mb_leaf([5, 6], [50, 60], next_leaf=None)
        decoded = decode_node(encode_node(node))
        assert type(decoded) is MBLeafNode
        assert decoded.keys == node.keys
        assert decoded.rids == node.rids
        assert decoded.digests == node.digests
        assert decoded.next_leaf is None

    def test_mb_internal(self):
        node = mb_internal([7], [3, 4])
        decoded = decode_node(encode_node(node))
        assert type(decoded) is MBInternalNode
        assert decoded.keys == node.keys
        assert decoded.children == node.children
        assert decoded.child_digests == node.child_digests

    def test_reencode_is_byte_identical(self):
        for node in (bplus_leaf([1], [2]), bplus_internal([3], [0, 1]),
                     xb_node(), mb_leaf([4], [40]), mb_internal([5], [1, 2])):
            blob = encode_node(node)
            assert encode_node(decode_node(blob)) == blob


class TestFieldValues:
    """The compact field layer must cover everything the trees store."""

    @pytest.mark.parametrize(
        "key",
        [0, -1, 1, 127, 128, -128, 2**31, -(2**31), 2**80, -(2**80),
         3.25, "unicode-ключ", b"\x00\xff", True, False, None],
    )
    def test_key_types_round_trip(self, key):
        node = bplus_leaf([key], [1])
        decoded = decode_node(encode_node(node))
        assert decoded.keys == [key]
        assert type(decoded.keys[0]) is type(key)

    def test_small_ints_are_compact(self):
        wide = encode_node(bplus_internal(list(range(50)), list(range(51))))
        # 101 small ints at 2 bytes each plus header/counts: far below the
        # 13 bytes per field the canonical record codec would spend.
        assert len(wide) < 101 * 4


class TestFailureModes:
    def test_wrong_magic_raises(self):
        with pytest.raises(NodeCodecError, match="leading byte"):
            decode_node(b"\x00\x01\x01\x00")

    def test_unsupported_version_raises_loudly(self):
        blob = bytearray(encode_node(bplus_leaf([1], [2])))
        blob[1] = CODEC_VERSION + 1
        with pytest.raises(NodeCodecError, match="version"):
            decode_node(bytes(blob))

    def test_trailing_bytes_raise(self):
        blob = encode_node(bplus_leaf([1], [2]))
        with pytest.raises(NodeCodecError, match="trailing"):
            decode_node(blob + b"\x00")

    def test_truncated_payload_raises(self):
        blob = encode_node(mb_leaf([1, 2], [10, 20]))
        with pytest.raises(NodeCodecError):
            decode_node(blob[: len(blob) // 2])

    def test_unknown_node_type_raises(self):
        blob = bytearray(encode_node(bplus_leaf([1], [2])))
        blob[2] = 99
        with pytest.raises(NodeCodecError, match="node type"):
            decode_node(bytes(blob))

    def test_header_magic_is_not_a_pickle_opcode(self):
        assert CODEC_MAGIC != pickle.dumps(object())[0]
        assert encode_node(bplus_leaf([1], [2]))[0] == CODEC_MAGIC


class TestNoPickleWriter:
    def test_unknown_class_is_refused(self):
        with pytest.raises(NodeCodecError, match="no compact layout for dict"):
            encode_node({"weird": (1, 2)})

    def test_unencodable_field_is_refused(self):
        with pytest.raises(NodeCodecError, match="cannot encode node field"):
            encode_node(bplus_leaf([1], [object()]))

    def test_bplus_leaf_with_record_ids_takes_columnar_layout(self):
        """The SP's B+-tree leaves hold heap-file ``RecordId``s; they take
        the columnar layout (node type 6), not a pickle."""
        node = bplus_leaf([10, 20], [RecordId(0, 1), RecordId(3, 7)], next_leaf=4)
        blob = encode_node(node)
        assert blob[:3] == bytes([CODEC_MAGIC, CODEC_VERSION, 6])
        assert encode_node(bplus_leaf([10, 20], [1, 2], next_leaf=4))[2] == 1
        decoded = decode_node(blob)
        assert type(decoded) is BPlusLeafNode
        assert decoded.keys == node.keys
        assert decoded.values == node.values
        assert decoded.next_leaf == 4

    def test_compact_payload_is_smaller_than_pickle(self):
        node = mb_leaf(list(range(40)), list(range(40)))
        assert len(encode_node(node)) < len(
            pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)
        )


# ---------------------------------------------------------------------- version 2
def rid_leaf(keys, next_leaf=None):
    return bplus_leaf(keys, [RecordId(index * 7, index % 5) for index in range(len(keys))],
                      next_leaf=next_leaf)


def xb_columns_node(is_leaf=True):
    """An anchor, a one-tuple entry (X is its tuple digest) and a two-tuple one."""
    anchor = XBEntry(None, x=digest_of(0), child=None if is_leaf else 7)
    one = XBEntry(42, tuples=[(1, digest_of(1))], x=digest_of(1),
                  child=None if is_leaf else 9)
    two = XBEntry(43, tuples=[(2, digest_of(2)), (3, digest_of(3))], x=digest_of(4),
                  child=None if is_leaf else 11)
    return XBNode(entries=[anchor, one, two], is_leaf=is_leaf)


def assert_same_node(decoded, expected):
    assert type(decoded) is type(expected)
    if isinstance(expected, XBNode):
        assert decoded.is_leaf is expected.is_leaf
        assert len(decoded.entries) == len(expected.entries)
        for restored, original in zip(decoded.entries, expected.entries):
            assert (restored.key, restored.x, restored.child, restored.tuples) == (
                original.key, original.x, original.child, original.tuples
            )
        return
    for slot in type(expected).__slots__:
        assert getattr(decoded, slot) == getattr(expected, slot), slot


class TestColumnarLayouts:
    def test_record_id_leaf_round_trips_in_narrow_columns(self):
        node = rid_leaf([10, 20, 30], next_leaf=9)
        blob = encode_node(node)
        assert blob[2] == 6
        assert_same_node(decode_node(blob), node)
        # 4-byte header, 15-byte head, then 1 + 1 + 1 bytes per entry.
        assert len(blob) == 4 + 15 + 3 * 3

    @pytest.mark.parametrize("keys, width", [
        ([], 1), ([0], 1), ([-128, 127], 1), ([-129, 300], 2),
        ([-(2**31), 2**31 - 1], 4), ([2**31, -(2**63)], 8),
    ])
    def test_record_id_leaf_keys_take_the_narrowest_width(self, keys, width):
        node = rid_leaf(keys)
        blob = encode_node(node)
        assert len(blob) == 4 + 15 + len(keys) * (width + 1 + 1)
        decoded = decode_node(blob)
        assert_same_node(decoded, node)
        assert all(type(key) is int for key in decoded.keys)

    @pytest.mark.parametrize("keys", [["b", "a"], [2**70, 1], [1.5, 2.5], [True, 3]])
    def test_record_id_leaf_keys_beyond_int64_take_tagged_fields(self, keys):
        node = rid_leaf(keys)
        blob = encode_node(node)
        assert blob[2] == 6
        decoded = decode_node(blob)
        assert decoded.keys == keys
        assert [type(key) for key in decoded.keys] == [type(key) for key in keys]

    @pytest.mark.parametrize("is_leaf", [True, False])
    def test_xb_node_round_trips_in_columns(self, is_leaf):
        node = xb_columns_node(is_leaf)
        blob = encode_node(node)
        assert blob[2] == 7
        assert_same_node(decode_node(blob), node)
        assert encode_node(decode_node(blob)) == blob

    def test_xb_entry_whose_x_is_its_tuple_digest_stores_it_once(self):
        node = xb_columns_node(is_leaf=True)
        blob = encode_node(node)
        digests = blob.count(digest_of(1).raw)
        assert digests == 1
        decoded = decode_node(blob)
        assert decoded.entries[1].x is decoded.entries[1].tuples[0][1]

    def test_xb_node_with_string_keys_takes_the_tagged_layout(self):
        node = xb_columns_node(is_leaf=True)
        node.entries[1].key, node.entries[2].key = "k1", "k2"
        blob = encode_node(node)
        assert blob[2] == 3
        assert_same_node(decode_node(blob), node)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1),
                              st.integers(0, 2**40), st.integers(0, 2**16)),
                    max_size=40),
           st.one_of(st.none(), st.integers(0, 2**62)))
    def test_record_id_leaf_property(self, entries, next_leaf):
        node = bplus_leaf([key for key, _, _ in entries],
                          [RecordId(page, slot) for _, page, slot in entries],
                          next_leaf=next_leaf)
        assert_same_node(decode_node(encode_node(node)), node)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-(2**40), 2**40),
                              st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3),
                              st.booleans()),
                    max_size=12),
           st.booleans())
    def test_xb_node_property(self, specs, is_leaf):
        entries = [XBEntry(None, x=digest_of(0), child=None if is_leaf else 0)]
        for index, (key, ids, shared) in enumerate(specs):
            tuples = [(record_id, digest_of(record_id % 251)) for record_id in ids]
            x = tuples[0][1] if shared and tuples else digest_of(index % 251)
            entries.append(XBEntry(key, tuples=tuples, x=x,
                                   child=None if is_leaf else index + 1))
        node = XBNode(entries=entries, is_leaf=is_leaf)
        assert_same_node(decode_node(encode_node(node)), node)


class TestHostileColumnarBytes:
    """Every malformed columnar payload raises :class:`NodeCodecError`."""

    # Offsets past the 4-byte header (plus the 4-byte "sha1" name for XB).
    RID_COUNT = 4
    XB_ENTRIES, XB_TUPLES = 9, 13

    @pytest.mark.parametrize("node", [rid_leaf([1, 2, 3], 4), xb_columns_node(True),
                                      xb_columns_node(False)])
    def test_every_truncation_raises(self, node):
        blob = encode_node(node)
        for cut in range(len(blob)):
            with pytest.raises(NodeCodecError):
                decode_node(blob[:cut])

    @pytest.mark.parametrize("node", [rid_leaf([1, 2, 3], 4), xb_columns_node(True)])
    def test_trailing_bytes_raise(self, node):
        blob = encode_node(node)
        for extra in (b"\x00", bytes(SCHEME.digest_size)):
            with pytest.raises(NodeCodecError):
                decode_node(blob + extra)

    def test_record_id_count_beyond_the_payload_raises(self):
        blob = bytearray(encode_node(rid_leaf([1, 2, 3])))
        struct.pack_into(">I", blob, self.RID_COUNT, 2**32 - 1)
        with pytest.raises(NodeCodecError, match="remain"):
            decode_node(bytes(blob))

    def test_tagged_key_count_beyond_the_payload_raises(self):
        blob = bytearray(encode_node(rid_leaf(["a", "b"])))
        struct.pack_into(">I", blob, self.RID_COUNT, 2**32 - 1)
        with pytest.raises(NodeCodecError, match="cannot fit"):
            decode_node(bytes(blob))

    @pytest.mark.parametrize("offset", [XB_ENTRIES, XB_TUPLES])
    def test_xb_counts_beyond_the_payload_raise(self, offset):
        blob = bytearray(encode_node(xb_columns_node()))
        struct.pack_into(">I", blob, offset, 2**32 - 1)
        with pytest.raises(NodeCodecError):
            decode_node(bytes(blob))

    def test_tuple_count_sum_differing_from_the_id_block_raises(self):
        blob = bytearray(encode_node(xb_columns_node()))
        (tuples,) = struct.unpack_from(">I", blob, self.XB_TUPLES)
        struct.pack_into(">I", blob, self.XB_TUPLES, tuples - 1)
        with pytest.raises(NodeCodecError, match="sum to"):
            decode_node(bytes(blob))

    def test_digest_slice_not_a_multiple_of_the_digest_size_raises(self):
        blob = encode_node(xb_columns_node())
        with pytest.raises(NodeCodecError, match="multiple"):
            decode_node(blob[:-1])

    def test_unknown_width_code_raises(self):
        blob = bytearray(encode_node(rid_leaf([1, 2])))
        blob[self.RID_COUNT + 4] = 9  # the key width
        with pytest.raises(NodeCodecError, match="width"):
            decode_node(bytes(blob))

    @pytest.mark.parametrize("entry", [0, 2])  # the tuple-less anchor, the two-tuple entry
    def test_shared_x_on_an_entry_without_exactly_one_tuple_raises(self, entry):
        blob = bytearray(encode_node(xb_columns_node()))
        flags = 8 + 13  # header, name, head
        blob[flags + entry] |= 0x04
        with pytest.raises(NodeCodecError):
            decode_node(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["rid", "rid-tagged", "xb-leaf", "xb-internal"]),
           st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_corrupted_bytes_raise_only_codec_errors(self, kind, flips):
        node = {"rid": rid_leaf([1, 300, 70_000], 4), "rid-tagged": rid_leaf(["a", "b"]),
                "xb-leaf": xb_columns_node(True), "xb-internal": xb_columns_node(False)}[kind]
        blob = bytearray(encode_node(node))
        for index, value in flips:
            blob[2 + index % (len(blob) - 2)] = value  # past the magic and version
        try:
            decode_node(bytes(blob))
        except NodeCodecError:
            pass

    def test_columnar_types_are_refused_in_a_version_1_header(self):
        blob = bytearray(encode_node(rid_leaf([1])))
        blob[1] = 1
        with pytest.raises(NodeCodecError, match="version-1"):
            decode_node(bytes(blob))


# ---------------------------------------------------------------------- version 1
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "node_codec_v1.json")


def version1_nodes():
    """The nodes whose version-1 payloads the fixture file holds."""
    return {
        "bplus_leaf_record_ids": bplus_leaf(
            [-5, 10, 10, 70000],
            [RecordId(0, 1), RecordId(3, 7), RecordId(3, 8), RecordId(900, 0)],
            next_leaf=12,
        ),
        "bplus_leaf": bplus_leaf([1, 2, 2**40], ["a", -3, None]),
        "bplus_internal": bplus_internal([100, 200], [4, 5, 6]),
        "xb_leaf": xb_columns_node(is_leaf=True),
        "xb_internal": xb_columns_node(is_leaf=False),
        "mb_leaf": mb_leaf([5, 6], [50, 60], next_leaf=3),
        "mb_internal": mb_internal([7], [3, 4]),
    }


class TestVersion1Payloads:
    """Payloads written by the version-1 codec still decode to equal nodes,
    so existing data directories keep restoring."""

    with open(V1_FIXTURE, encoding="utf-8") as handle:
        PAYLOADS = json.load(handle)["payloads"]

    @pytest.mark.parametrize("name", sorted(version1_nodes()))
    def test_fixture_decodes_to_an_equal_node(self, name):
        blob = bytes.fromhex(self.PAYLOADS[name])
        assert blob[1] == 1
        assert_same_node(decode_node(blob), version1_nodes()[name])

    def test_fixture_covers_every_version1_node_type(self):
        types = {bytes.fromhex(blob)[2] for blob in self.PAYLOADS.values()}
        assert types == {0, 1, 2, 3, 4, 5}

    def test_re_encoding_a_version1_record_id_leaf_takes_the_columns(self):
        decoded = decode_node(bytes.fromhex(self.PAYLOADS["bplus_leaf_record_ids"]))
        assert encode_node(decoded)[1:3] == bytes([CODEC_VERSION, 6])
