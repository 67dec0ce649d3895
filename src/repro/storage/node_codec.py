"""Compact binary codec for the tree nodes the paged store persists.

:class:`~repro.storage.node_store.PagedNodeStore` historically pickled whole
node objects into page chains.  Pickle is convenient but wasteful on the hot
path: every payload repeats class and attribute metadata, every
:class:`~repro.crypto.digest.Digest` costs a ``__reduce__`` round-trip, and
payload size directly drives page-chain length (and therefore pool traffic).
This module replaces it with a fixed per-node-type layout:

* keys, record ids and node references use a compact tagged field form:
  integers are zigzag varints, strings and byte strings carry varint
  lengths, so a child reference or a small key costs two bytes instead of
  the 13 the canonical record codec would spend (that codec's fixed widths
  are signature-relevant and must not change; node pages are storage-only,
  so they are free to be smaller);
* digests are stored as raw fixed-size bytes -- the digest scheme is named
  once in the payload header, so snapshot files are scheme-portable;
* counts are varints as well.

Every payload starts with a versioned header::

    magic (0x9E) | version (1) | node type | scheme-name length | scheme name

An unknown version raises a loud :class:`NodeCodecError` (no silent
corruption).  A node the codec does not know -- or a known node holding a
field value the tagged field form cannot carry -- falls back to a
pickle-wrapped payload under the same header (node type 0).  That fallback
is **not** a corner for exotic objects: the SP's B+-tree stores
:class:`~repro.storage.heapfile.RecordId` values in its leaves, the field
form has no tag for them, so *every* ``BPlusLeafNode`` of every paged
deployment is written as a pickled payload today (internal nodes, XB nodes
and MB nodes take their typed layouts).  A typed record-id layout is open
work; until it lands the fallback cannot be deleted
(``test_bplus_leaf_with_record_ids_takes_pickled_layout`` pins this).
Payloads written by pre-codec builds start with the pickle protocol opcode (0x80)
instead of the magic byte -- the store recognises those and migrates them
through :mod:`pickle` on read, so existing snapshots keep loading.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Tuple

from repro.crypto.digest import Digest, DigestError, get_scheme
from repro.crypto.encoding import EncodingError


class NodeCodecError(ValueError):
    """Raised on malformed or incompatible node payloads."""


#: First byte of every codec payload (never a valid pickle protocol opcode).
CODEC_MAGIC = 0x9E

#: Current payload format version.
CODEC_VERSION = 1

#: First byte of a pickle protocol>=2 stream (the pre-codec page format).
PICKLE_MAGIC = 0x80

_NT_PICKLED = 0
_NT_BPLUS_LEAF = 1
_NT_BPLUS_INTERNAL = 2
_NT_XB = 3
_NT_MB_LEAF = 4
_NT_MB_INTERNAL = 5

_HEADER = struct.Struct(">BBBB")  # magic, version, node type, scheme-name length
_FLOAT64 = struct.Struct(">d")

# Compact field tags (node payloads only; the canonical record codec of
# :mod:`repro.crypto.encoding` is signature-relevant and stays fixed-width).
_CF_NONE = 0x00
_CF_FALSE = 0x01
_CF_TRUE = 0x02
_CF_INT = 0x03
_CF_FLOAT = 0x04
_CF_STR = 0x05
_CF_BYTES = 0x06


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _encode_field(value: Any) -> bytes:
    """Encode one node field: tag byte, then a value-dependent payload."""
    if value is None:
        return b"\x00"
    if isinstance(value, bool):  # must precede int: bool is a subclass of int
        return b"\x02" if value else b"\x01"
    if isinstance(value, int):
        # Zigzag maps small negatives to small varints (arbitrary precision).
        zigzag = value * 2 if value >= 0 else -value * 2 - 1
        return bytes([_CF_INT]) + _encode_varint(zigzag)
    if isinstance(value, float):
        return bytes([_CF_FLOAT]) + _FLOAT64.pack(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([_CF_STR]) + _encode_varint(len(payload)) + payload
    if isinstance(value, (bytes, bytearray, memoryview)):
        payload = bytes(value)
        return bytes([_CF_BYTES]) + _encode_varint(len(payload)) + payload
    raise NodeCodecError(f"cannot encode node field of type {type(value).__name__}")


#: Lazily resolved node classes, in node-type order (see ``_node_classes``).
_NODE_CLASSES: List[Any] = []


def _node_classes() -> List[Any]:
    # Imported lazily: the tree modules import the node store package, which
    # imports this module, so module-level imports would be circular.
    if not _NODE_CLASSES:
        from repro.btree.node import BPlusInternalNode, BPlusLeafNode
        from repro.tom.mbtree import MBInternalNode, MBLeafNode
        from repro.xbtree.node import XBEntry, XBNode

        _NODE_CLASSES.extend(
            [BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
             MBLeafNode, MBInternalNode]
        )
    return _NODE_CLASSES


# ---------------------------------------------------------------------- encode
def _header(node_type: int, scheme_name: str = "") -> List[bytes]:
    name = scheme_name.encode("ascii")
    if len(name) > 255:
        raise NodeCodecError(f"digest scheme name too long: {scheme_name!r}")
    return [_HEADER.pack(CODEC_MAGIC, CODEC_VERSION, node_type, len(name)), name]


def _put_fields(parts: List[bytes], values) -> None:
    parts.append(_encode_varint(len(values)))
    for value in values:
        parts.append(_encode_field(value))


def _put_digests(parts: List[bytes], digests) -> None:
    parts.append(_encode_varint(len(digests)))
    for digest in digests:
        parts.append(digest.raw)


def _digest_scheme_of(digests) -> str:
    for digest in digests:
        return digest.scheme.name
    return ""


def encode_node(node: Any) -> bytes:
    """Serialise ``node`` to its compact payload.

    Nodes of unknown classes -- or known nodes holding field values the
    tagged field form cannot represent, which includes every B+-tree leaf
    whose values are ``heapfile.RecordId`` -- fall back to a pickle-wrapped
    payload (still versioned, still migratable).
    """
    try:
        return _encode_typed(node)
    except (EncodingError, DigestError, NodeCodecError, AttributeError, TypeError):
        parts = _header(_NT_PICKLED)
        parts.append(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL))
        return b"".join(parts)


def _encode_typed(node: Any) -> bytes:
    (BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
     MBLeafNode, MBInternalNode) = _node_classes()
    if type(node) is BPlusLeafNode:
        parts = _header(_NT_BPLUS_LEAF)
        _put_fields(parts, node.keys)
        _put_fields(parts, node.values)
        parts.append(_encode_field(node.next_leaf))
        return b"".join(parts)
    if type(node) is BPlusInternalNode:
        parts = _header(_NT_BPLUS_INTERNAL)
        _put_fields(parts, node.keys)
        _put_fields(parts, node.children)
        return b"".join(parts)
    if type(node) is XBNode:
        scheme_name = ""
        for entry in node.entries:
            scheme_name = entry.x.scheme.name
            break
        parts = _header(_NT_XB, scheme_name)
        parts.append(b"\x01" if node.is_leaf else b"\x00")
        parts.append(_encode_varint(len(node.entries)))
        for entry in node.entries:
            parts.append(_encode_field(entry.key))
            parts.append(entry.x.raw)
            parts.append(_encode_field(entry.child))
            parts.append(_encode_varint(len(entry.tuples)))
            for record_id, digest in entry.tuples:
                parts.append(_encode_field(record_id))
                parts.append(digest.raw)
        return b"".join(parts)
    if type(node) is MBLeafNode:
        parts = _header(_NT_MB_LEAF, _digest_scheme_of(node.digests))
        _put_fields(parts, node.keys)
        _put_fields(parts, node.rids)
        _put_digests(parts, node.digests)
        parts.append(_encode_field(node.next_leaf))
        return b"".join(parts)
    if type(node) is MBInternalNode:
        parts = _header(_NT_MB_INTERNAL, _digest_scheme_of(node.child_digests))
        _put_fields(parts, node.keys)
        _put_fields(parts, node.children)
        _put_digests(parts, node.child_digests)
        return b"".join(parts)
    raise NodeCodecError(f"no compact layout for {type(node).__name__}")


# ---------------------------------------------------------------------- decode
class _Reader:
    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: memoryview, offset: int):
        self.buffer = buffer
        self.offset = offset

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            if self.offset >= len(self.buffer):
                raise NodeCodecError("truncated varint in node payload")
            byte = self.buffer[self.offset]
            self.offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def field(self) -> Any:
        tag = self.byte()
        if tag == _CF_NONE:
            return None
        if tag == _CF_FALSE:
            return False
        if tag == _CF_TRUE:
            return True
        if tag == _CF_INT:
            zigzag = self.varint()
            return zigzag // 2 if zigzag % 2 == 0 else -(zigzag + 1) // 2
        if tag == _CF_FLOAT:
            return _FLOAT64.unpack(self.raw(_FLOAT64.size))[0]
        if tag == _CF_STR:
            return self.raw(self.varint()).decode("utf-8")
        if tag == _CF_BYTES:
            return self.raw(self.varint())
        raise NodeCodecError(f"unknown node field tag 0x{tag:02x}")

    def fields(self) -> List[Any]:
        return [self.field() for _ in range(self.varint())]

    def count(self) -> int:
        return self.varint()

    def byte(self) -> int:
        if self.offset >= len(self.buffer):
            raise NodeCodecError("truncated node payload")
        value = self.buffer[self.offset]
        self.offset += 1
        return value

    def raw(self, size: int) -> bytes:
        if self.offset + size > len(self.buffer):
            raise NodeCodecError("truncated bytes in node payload")
        value = bytes(self.buffer[self.offset:self.offset + size])
        self.offset += size
        return value


def decode_node(data: bytes) -> Any:
    """Inverse of :func:`encode_node` (codec payloads only).

    Raises :class:`NodeCodecError` on a wrong magic byte, an unsupported
    format version, or a truncated/garbled payload.
    """
    buffer = memoryview(data)
    if len(buffer) < _HEADER.size:
        raise NodeCodecError("truncated node payload header")
    magic, version, node_type, name_length = _HEADER.unpack_from(buffer, 0)
    if magic != CODEC_MAGIC:
        raise NodeCodecError(
            f"not a compact node payload (leading byte 0x{magic:02x}, "
            f"expected 0x{CODEC_MAGIC:02x})"
        )
    if version != CODEC_VERSION:
        raise NodeCodecError(
            f"node payload format version {version} is not supported by this "
            f"build (expected {CODEC_VERSION}); the snapshot was written by an "
            f"incompatible version"
        )
    offset = _HEADER.size
    scheme_name = bytes(buffer[offset:offset + name_length]).decode("ascii")
    offset += name_length
    if node_type == _NT_PICKLED:
        return pickle.loads(bytes(buffer[offset:]))
    scheme = get_scheme(scheme_name) if scheme_name else None
    reader = _Reader(buffer, offset)
    try:
        node = _decode_typed(node_type, scheme, reader)
    except (EncodingError, DigestError, struct.error, UnicodeDecodeError) as exc:
        raise NodeCodecError(f"garbled node payload: {exc}") from exc
    if reader.offset != len(buffer):
        raise NodeCodecError(
            f"{len(buffer) - reader.offset} trailing bytes after node payload"
        )
    return node


def _decode_typed(node_type: int, scheme, reader: _Reader) -> Any:
    (BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
     MBLeafNode, MBInternalNode) = _node_classes()
    if node_type == _NT_BPLUS_LEAF:
        node = BPlusLeafNode()
        node.keys = reader.fields()
        node.values = reader.fields()
        node.next_leaf = reader.field()
        return node
    if node_type == _NT_BPLUS_INTERNAL:
        node = BPlusInternalNode()
        node.keys = reader.fields()
        node.children = reader.fields()
        return node
    if node_type == _NT_XB:
        is_leaf = reader.byte() == 1
        entries: List[XBEntry] = []
        for _ in range(reader.count()):
            key = reader.field()
            x = Digest(reader.raw(scheme.digest_size), scheme=scheme)
            child = reader.field()
            tuples: List[Tuple[Any, Digest]] = []
            for _ in range(reader.count()):
                record_id = reader.field()
                tuples.append(
                    (record_id, Digest(reader.raw(scheme.digest_size), scheme=scheme))
                )
            entries.append(XBEntry(key, tuples=tuples, x=x, child=child, scheme=scheme))
        return XBNode(entries=entries, is_leaf=is_leaf)
    if node_type == _NT_MB_LEAF:
        node = MBLeafNode()
        node.keys = reader.fields()
        node.rids = reader.fields()
        node.digests = [
            Digest(reader.raw(scheme.digest_size), scheme=scheme)
            for _ in range(reader.count())
        ]
        node.next_leaf = reader.field()
        return node
    if node_type == _NT_MB_INTERNAL:
        node = MBInternalNode()
        node.keys = reader.fields()
        node.children = reader.fields()
        node.child_digests = [
            Digest(reader.raw(scheme.digest_size), scheme=scheme)
            for _ in range(reader.count())
        ]
        return node
    raise NodeCodecError(f"unknown node type {node_type} in payload header")
