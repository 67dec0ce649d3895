"""Unit tests for the compact node codec behind the paged store."""

import pickle

import pytest

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


class TestPickleFallback:
    def test_unknown_class_round_trips_through_pickle(self):
        payload = {"weird": (1, 2)}
        blob = encode_node(payload)
        assert blob[0] == CODEC_MAGIC  # still versioned, not a bare pickle
        assert decode_node(blob) == payload

    def test_bplus_leaf_with_record_ids_takes_pickled_layout(self):
        """Today's behaviour, pinned: the SP's B+-tree leaves hold heap-file
        ``RecordId``s, the tagged field form has no tag for them, so every
        such leaf is written as node type 0 (pickled) -- the fallback is on
        the serving path of every paged deployment and cannot be deleted
        until a typed record-id layout exists.  That change turns this test
        around: the node-type byte becomes the typed leaf's."""
        node = bplus_leaf([10, 20], [RecordId(0, 1), RecordId(3, 7)], next_leaf=4)
        blob = encode_node(node)
        assert blob[:3] == bytes([CODEC_MAGIC, CODEC_VERSION, 0])
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
