"""Compact binary codec for the tree nodes the paged store persists.

:class:`~repro.storage.node_store.PagedNodeStore` historically pickled whole
node objects into page chains.  Pickle is convenient but wasteful on the hot
path: every payload repeats class and attribute metadata, every
:class:`~repro.crypto.digest.Digest` costs a ``__reduce__`` round-trip, and
payload size directly drives page-chain length (and therefore pool traffic).
This module replaces it with a fixed per-node-type layout.

Every payload starts with a versioned header::

    magic (0x9E) | version (2) | node type | scheme-name length | scheme name

The digest scheme is named once in the header, so snapshot files are
scheme-portable.  Two layouts follow it:

* **Columnar** (version 2) for the two node kinds the serving path reads
  most -- the SP's B+-tree leaves, whose values are heap-file
  :class:`~repro.storage.heapfile.RecordId`\\ s, and the TE's XB-tree nodes.
  A fixed ``struct`` head gives the counts and one width per column; each
  column is then one block of big-endian integers, as narrow as its values
  allow (1, 2, 4 or 8 bytes), and an XB node's digests are one contiguous
  slice at the end (an entry whose ``X`` is its one tuple's digest -- every
  leaf entry of a unique key -- stores that digest once).  A leaf's keys
  that are not all int64 (strings, say) become tagged fields instead of a
  block.  Decoding is a handful of ``unpack_from`` calls plus one trusted
  digest split (:func:`~repro.crypto.digest.split_digests`).  Every count
  is checked against the bytes that remain before anything is sliced.
* **Tagged** (the version-1 layout, still written for every other node, for
  a B+-tree leaf whose values are not ``RecordId``\\ s and for an XB node
  holding a value its columns cannot carry): integers are zigzag varints,
  strings and byte strings carry varint lengths, digests are raw bytes, and
  counts are varints.  The canonical record codec's fixed widths are
  signature-relevant and must not change; node pages are storage-only, so
  they are free to be smaller.

A node the codec has no layout for raises :class:`NodeCodecError`: nothing
is pickled on the write path.  An unknown version raises too (no silent
corruption).  Version-1 payloads keep decoding, including the
pickle-wrapped node type 0 that version-1 builds wrote for every B+-tree
leaf of ``RecordId``\\ s, and payloads written by pre-codec builds start
with the pickle protocol opcode (0x80) instead of the magic byte -- the store
recognises those and migrates them through :mod:`pickle` on read, so
existing snapshots keep loading until the old formats are retired.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.digest import Digest, DigestError, get_scheme, split_digests
from repro.crypto.encoding import EncodingError


class NodeCodecError(ValueError):
    """Raised on malformed or incompatible node payloads."""


#: First byte of every codec payload (never a valid pickle protocol opcode).
CODEC_MAGIC = 0x9E

#: Current payload format version.
CODEC_VERSION = 2

#: Versions :func:`decode_node` reads (version 1 has no columnar layouts).
_READABLE_VERSIONS = (1, CODEC_VERSION)

#: First byte of a pickle protocol>=2 stream (the pre-codec page format).
PICKLE_MAGIC = 0x80

_NT_PICKLED = 0  # version 1 only: decoded, never written
_NT_BPLUS_LEAF = 1
_NT_BPLUS_INTERNAL = 2
_NT_XB = 3
_NT_MB_LEAF = 4
_NT_MB_INTERNAL = 5
_NT_BPLUS_RID_LEAF = 6  # columnar, version 2
_NT_XB_COLUMNS = 7  # columnar, version 2

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

# Columnar heads.  A width code ``w`` means ``1 << w`` bytes per value.
# B+-tree leaf: entries, key / page / slot widths, next-leaf ref (-1: none).
# Its keys may instead be tagged fields (``_TAGGED``), e.g. string keys.
_RID_LEAF_HEAD = struct.Struct(">IBBBq")
_TAGGED = 0xFF
# XB node: is-leaf, entries, tuples, key / child / tuple-count / tuple-id widths.
_XB_HEAD = struct.Struct(">BIIBBBB")
_FLAG_KEYED = 0x01  # the entry has a key (the anchor has none)
_FLAG_CHILD = 0x02  # the entry has a child ref (internal nodes)
_FLAG_X_IS_TUPLE = 0x04  # X is the entry's one tuple digest: stored once
_XB_FLAGS = _FLAG_KEYED | _FLAG_CHILD | _FLAG_X_IS_TUPLE

_SIGNED = "bhiq"
_UNSIGNED = "BHIQ"


def _width(values: Sequence[Any], signed: bool) -> Optional[int]:
    """Narrowest width code for ``values``, or ``None`` if one is no 64-bit int."""
    if not values:
        return 0
    if not all(type(value) is int for value in values):
        return None
    low, high = min(values), max(values)
    for code in range(4):
        bits = 8 << code
        if signed:
            if -(1 << (bits - 1)) <= low and high < 1 << (bits - 1):
                return code
        elif low >= 0 and high < 1 << bits:
            return code
    return None


def _pack(values: Sequence[int], code: int, signed: bool) -> bytes:
    kind = (_SIGNED if signed else _UNSIGNED)[code]
    return struct.pack(f">{len(values)}{kind}", *values)


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
        from repro.storage.heapfile import RecordId
        from repro.tom.mbtree import MBInternalNode, MBLeafNode
        from repro.xbtree.node import XBEntry, XBNode

        _NODE_CLASSES.extend(
            [BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
             MBLeafNode, MBInternalNode, RecordId]
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

    Raises :class:`NodeCodecError` for a node of a class the codec has no
    layout for, or a field value no layout can carry.
    """
    try:
        return _encode_typed(node)
    except (EncodingError, DigestError, AttributeError, TypeError, struct.error) as exc:
        raise NodeCodecError(
            f"cannot encode {type(node).__name__} node: {exc}"
        ) from exc


def _encode_rid_leaf(node: Any, record_id_class: Any) -> Optional[bytes]:
    """The columnar payload of a B+-tree leaf of ``RecordId``\\ s, if it fits."""
    values = node.values
    if len(values) != len(node.keys):
        return None
    if not all(type(value) is record_id_class for value in values):
        return None
    next_leaf = node.next_leaf
    if next_leaf is None:
        next_leaf = -1
    elif type(next_leaf) is not int or not 0 <= next_leaf < 1 << 63:
        return None
    pages = [rid.page_no for rid in values]
    slots = [rid.slot for rid in values]
    page_width, slot_width = _width(pages, False), _width(slots, False)
    if page_width is None or slot_width is None:
        return None
    key_width = _width(node.keys, True)
    parts = _header(_NT_BPLUS_RID_LEAF)
    parts.append(_RID_LEAF_HEAD.pack(len(values), _TAGGED if key_width is None else key_width,
                                     page_width, slot_width, next_leaf))
    if key_width is None:
        parts.extend(_encode_field(key) for key in node.keys)
    else:
        parts.append(_pack(node.keys, key_width, True))
    parts.append(_pack(pages, page_width, False))
    parts.append(_pack(slots, slot_width, False))
    return b"".join(parts)


def _encode_xb_columns(node: Any) -> Optional[bytes]:
    """The columnar payload of an XB-tree node, if every value fits."""
    entries = node.entries
    flags = bytearray()
    keys: List[Any] = []
    children: List[Any] = []
    counts: List[int] = []
    ids: List[Any] = []
    digests: List[bytes] = []
    for entry in entries:
        flag = 0
        if entry.key is not None:
            flag |= _FLAG_KEYED
            keys.append(entry.key)
        tuples = entry.tuples
        if entry.child is not None:
            flag |= _FLAG_CHILD
            children.append(entry.child)
        elif len(tuples) == 1 and tuples[0][1].raw == entry.x.raw:
            flag |= _FLAG_X_IS_TUPLE
        if not flag & _FLAG_X_IS_TUPLE:
            digests.append(entry.x.raw)
        flags.append(flag)
        counts.append(len(tuples))
        for record_id, digest in tuples:
            ids.append(record_id)
            digests.append(digest.raw)
    widths = (_width(keys, True), _width(children, False),
              _width(counts, False), _width(ids, True))
    if None in widths:
        return None
    key_width, child_width, count_width, id_width = widths
    scheme_name = entries[0].x.scheme.name if entries else ""
    parts = _header(_NT_XB_COLUMNS, scheme_name)
    parts.append(_XB_HEAD.pack(1 if node.is_leaf else 0, len(entries), len(ids),
                               key_width, child_width, count_width, id_width))
    parts.append(bytes(flags))
    parts.append(_pack(keys, key_width, True))
    parts.append(_pack(children, child_width, False))
    parts.append(_pack(counts, count_width, False))
    parts.append(_pack(ids, id_width, True))
    parts.extend(digests)
    return b"".join(parts)


def _encode_typed(node: Any) -> bytes:
    (BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
     MBLeafNode, MBInternalNode, RecordId) = _node_classes()
    if type(node) is BPlusLeafNode:
        columnar = _encode_rid_leaf(node, RecordId)
        if columnar is not None:
            return columnar
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
        columnar = _encode_xb_columns(node)
        if columnar is not None:
            return columnar
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

    def fields(self, count: Optional[int] = None) -> List[Any]:
        if count is None:
            count = self.varint()
        elif count > len(self.buffer) - self.offset:  # a field takes >= 1 byte
            raise NodeCodecError(f"{count} fields cannot fit the remaining payload")
        return [self.field() for _ in range(count)]

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

    def digest(self, scheme) -> Digest:
        if scheme is None:
            raise NodeCodecError("node payload holds a digest but names no digest scheme")
        return Digest(self.raw(scheme.digest_size), scheme=scheme)

    def head(self, layout: struct.Struct) -> Tuple[Any, ...]:
        if self.offset + layout.size > len(self.buffer):
            raise NodeCodecError("truncated columnar head in node payload")
        values = layout.unpack_from(self.buffer, self.offset)
        self.offset += layout.size
        return values

    def column(self, count: int, code: int, signed: bool) -> List[int]:
        """``count`` integers of width code ``code``, checked before slicing."""
        if code > 3:
            raise NodeCodecError(f"unknown column width code {code}")
        size = count << code
        if self.offset + size > len(self.buffer):
            raise NodeCodecError(
                f"column of {count} values needs {size} bytes, "
                f"{len(self.buffer) - self.offset} remain"
            )
        kind = (_SIGNED if signed else _UNSIGNED)[code]
        values = list(struct.unpack_from(f">{count}{kind}", self.buffer, self.offset))
        self.offset += size
        return values


def decode_node(data: bytes) -> Any:
    """Inverse of :func:`encode_node` (codec payloads only).

    Reads both format versions.  Raises :class:`NodeCodecError` on a wrong
    magic byte, an unsupported format version, or a truncated/garbled
    payload.
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
    if version not in _READABLE_VERSIONS:
        raise NodeCodecError(
            f"node payload format version {version} is not supported by this "
            f"build (reads {', '.join(map(str, _READABLE_VERSIONS))}); the "
            f"snapshot was written by an incompatible version"
        )
    offset = _HEADER.size + name_length
    if offset > len(buffer):
        raise NodeCodecError("truncated digest scheme name in node payload")
    if node_type == _NT_PICKLED and version == 1:
        return pickle.loads(bytes(buffer[offset:]))
    if node_type >= _NT_BPLUS_RID_LEAF and version == 1:
        raise NodeCodecError(f"unknown node type {node_type} in a version-1 payload header")
    reader = _Reader(buffer, offset)
    try:
        scheme_name = bytes(buffer[_HEADER.size:offset]).decode("ascii")
        scheme = get_scheme(scheme_name) if scheme_name else None
        node = _decode_typed(node_type, scheme, reader)
    except (EncodingError, DigestError, struct.error, UnicodeDecodeError) as exc:
        raise NodeCodecError(f"garbled node payload: {exc}") from exc
    if reader.offset != len(buffer):
        raise NodeCodecError(
            f"{len(buffer) - reader.offset} trailing bytes after node payload"
        )
    return node


def _decode_rid_leaf(reader: _Reader, leaf_class: Any, record_id_class: Any) -> Any:
    count, key_width, page_width, slot_width, next_leaf = reader.head(_RID_LEAF_HEAD)
    keys = (reader.fields(count) if key_width == _TAGGED
            else reader.column(count, key_width, True))
    pages = reader.column(count, page_width, False)
    slots = reader.column(count, slot_width, False)
    # ``RecordId`` is a frozen dataclass; filling its ``__dict__`` skips the
    # per-field frozen-setattr path for values that are ints by construction.
    new = object.__new__
    values = []
    append = values.append
    for page_no, slot in zip(pages, slots):
        rid = new(record_id_class)
        rid.__dict__.update({"page_no": page_no, "slot": slot})
        append(rid)
    if next_leaf < -1:
        raise NodeCodecError(f"negative next-leaf reference {next_leaf}")
    node = leaf_class()
    node.keys = keys
    node.values = values
    node.next_leaf = None if next_leaf == -1 else next_leaf
    return node


def _decode_xb_columns(reader: _Reader, scheme, node_class: Any, entry_class: Any) -> Any:
    is_leaf, count, tuple_count, key_width, child_width, count_width, id_width = (
        reader.head(_XB_HEAD)
    )
    if is_leaf > 1:
        raise NodeCodecError(f"bad XB leaf flag {is_leaf}")
    if count > len(reader.buffer) - reader.offset:
        raise NodeCodecError(f"{count} XB entries cannot fit the remaining payload")
    flags = bytes(reader.buffer[reader.offset:reader.offset + count])
    reader.offset += count
    for flag in flags:
        if (flag & ~_XB_FLAGS) or (flag & _FLAG_CHILD and flag & _FLAG_X_IS_TUPLE):
            raise NodeCodecError(f"bad XB entry flags 0x{flag:02x}")
    keys = reader.column(sum(1 for flag in flags if flag & _FLAG_KEYED), key_width, True)
    children = reader.column(
        sum(1 for flag in flags if flag & _FLAG_CHILD), child_width, False
    )
    counts = reader.column(count, count_width, False)
    if sum(counts) != tuple_count:
        raise NodeCodecError(
            f"XB tuple counts sum to {sum(counts)}, the id block holds {tuple_count}"
        )
    ids = reader.column(tuple_count, id_width, True)
    block = bytes(reader.buffer[reader.offset:])
    reader.offset = len(reader.buffer)
    shared = sum(1 for flag in flags if flag & _FLAG_X_IS_TUPLE)
    expected = count - shared + tuple_count
    if scheme is None:
        if expected or block:
            raise NodeCodecError("XB payload with digests names no digest scheme")
        digests = []
    else:
        digests = split_digests(block, scheme)
    if len(digests) != expected:
        raise NodeCodecError(
            f"XB digest slice holds {len(digests)} digests, {expected} expected"
        )
    key_iter, child_iter = iter(keys), iter(children)
    new = object.__new__
    entries = []
    position = first_id = 0
    for flag, total in zip(flags, counts):
        entry = new(entry_class)
        entry.key = next(key_iter) if flag & _FLAG_KEYED else None
        entry.child = next(child_iter) if flag & _FLAG_CHILD else None
        if flag & _FLAG_X_IS_TUPLE and total != 1:
            raise NodeCodecError(f"XB entry shares its X with {total} tuples, not 1")
        entry.x = digests[position]
        if not flag & _FLAG_X_IS_TUPLE:
            position += 1
        entry.tuples = list(zip(ids[first_id:first_id + total],
                                digests[position:position + total]))
        position += total
        first_id += total
        entries.append(entry)
    return node_class(entries=entries, is_leaf=bool(is_leaf))


def _decode_typed(node_type: int, scheme, reader: _Reader) -> Any:
    (BPlusLeafNode, BPlusInternalNode, XBNode, XBEntry,
     MBLeafNode, MBInternalNode, RecordId) = _node_classes()
    if node_type == _NT_BPLUS_RID_LEAF:
        return _decode_rid_leaf(reader, BPlusLeafNode, RecordId)
    if node_type == _NT_XB_COLUMNS:
        return _decode_xb_columns(reader, scheme, XBNode, XBEntry)
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
            x = reader.digest(scheme)
            child = reader.field()
            tuples: List[Tuple[Any, Digest]] = []
            for _ in range(reader.count()):
                record_id = reader.field()
                tuples.append((record_id, reader.digest(scheme)))
            entries.append(XBEntry(key, tuples=tuples, x=x, child=child, scheme=scheme))
        return XBNode(entries=entries, is_leaf=is_leaf)
    if node_type == _NT_MB_LEAF:
        node = MBLeafNode()
        node.keys = reader.fields()
        node.rids = reader.fields()
        node.digests = [reader.digest(scheme) for _ in range(reader.count())]
        node.next_leaf = reader.field()
        return node
    if node_type == _NT_MB_INTERNAL:
        node = MBInternalNode()
        node.keys = reader.fields()
        node.children = reader.fields()
        node.child_digests = [reader.digest(scheme) for _ in range(reader.count())]
        return node
    raise NodeCodecError(f"unknown node type {node_type} in payload header")
