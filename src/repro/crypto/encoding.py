"""Canonical binary representation of records.

The paper hashes "the binary representation of ``r``" to obtain the record
digest.  For the digest algebra to be meaningful, all parties (DO, TE and
client) must agree on exactly the same byte string for a given record; this
module defines that canonical encoding.

The encoding is deliberately simple, deterministic and self-describing:

* every record is a sequence of fields;
* each field is encoded as a 1-byte type tag, a 4-byte big-endian length,
  and the field payload;
* integers are encoded as 8-byte signed big-endian values, floats as IEEE-754
  doubles, strings as UTF-8, byte strings verbatim, ``None`` as an empty
  payload.

Because lengths are explicit, the encoding is prefix-free per field and two
distinct records can never encode to the same byte string (which would
otherwise silently weaken the collision-resistance argument of the paper).

Every record of a relation usually has the same shape, so besides the
general :func:`decode_record` this module compiles a :class:`RecordLayout`
from one payload: a single ``struct`` unpack that reads any payload of the
same shape and accepts exactly what :func:`decode_record` accepts.
:func:`shape_decoder` is the one loop every reader of a result (the SAE
and TOM clients, the wire codec) decodes through.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, List, Optional, Sequence, Tuple

_TAG_NONE = 0x00
_TAG_INT = 0x01
_TAG_FLOAT = 0x02
_TAG_STR = 0x03
_TAG_BYTES = 0x04
_TAG_BOOL = 0x05

_COUNT = struct.Struct(">I")  # number of fields in the record
_HEADER = struct.Struct(">BI")  # type tag, payload length
_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class EncodingError(ValueError):
    """Raised when a value cannot be canonically encoded or decoded."""


def _encode_field(value: Any) -> bytes:
    """Encode a single field as ``tag | length | payload``."""
    if value is None:
        return _HEADER.pack(_TAG_NONE, 0)
    if isinstance(value, bool):  # must precede int: bool is a subclass of int
        payload = b"\x01" if value else b"\x00"
        return _HEADER.pack(_TAG_BOOL, len(payload)) + payload
    if isinstance(value, int):
        try:
            payload = _INT64.pack(value)
        except struct.error:
            # Arbitrary-precision fallback: sign byte + magnitude.
            magnitude = abs(value)
            size = max(1, (magnitude.bit_length() + 7) // 8)
            payload = (b"\x01" if value < 0 else b"\x00") + magnitude.to_bytes(size, "big")
            return _HEADER.pack(_TAG_INT, len(payload)) + payload
        return _HEADER.pack(_TAG_INT, len(payload)) + payload
    if isinstance(value, float):
        payload = _FLOAT64.pack(value)
        return _HEADER.pack(_TAG_FLOAT, len(payload)) + payload
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _HEADER.pack(_TAG_STR, len(payload)) + payload
    if isinstance(value, (bytes, bytearray, memoryview)):
        payload = bytes(value)
        return _HEADER.pack(_TAG_BYTES, len(payload)) + payload
    raise EncodingError(f"cannot encode field of type {type(value).__name__}")


def encode_record(fields: Sequence[Any]) -> bytes:
    """Encode a record (sequence of field values) to its canonical bytes.

    This byte string is what gets hashed to produce the record digest, and
    also what the heap file stores on disk.
    """
    parts: List[bytes] = [_COUNT.pack(len(fields))]
    for value in fields:
        parts.append(_encode_field(value))
    return b"".join(parts)


def _decode_big_int(payload: bytes) -> int:
    """Decode the arbitrary-precision INT fallback: sign byte + magnitude.

    Only the encoding :func:`_encode_field` writes is accepted: a sign byte
    of ``00`` or ``01``, a magnitude with no leading zero byte, and a value
    outside int64 (anything inside int64 is always encoded in 8 bytes).
    """
    sign, magnitude = payload[:1], payload[1:]
    if sign not in (b"\x00", b"\x01"):
        raise EncodingError(f"int field of {len(payload)} bytes is neither int64 nor a big int")
    if not magnitude or magnitude[0] == 0:
        raise EncodingError("big-int magnitude is empty or has a leading zero byte")
    value = int.from_bytes(magnitude, "big")
    if sign == b"\x01":
        value = -value
    if _INT64_MIN <= value <= _INT64_MAX:
        raise EncodingError(f"int field of {len(payload)} bytes holds an int64 value")
    return value


def decode_record(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_record`.

    The SAE client runs this over every payload an untrusted SP sends, so
    it is one flat loop over the ``bytes`` (no per-field call, no copy
    beyond the value itself) and every malformed input -- including a float
    of the wrong width, invalid UTF-8 and any non-canonical BOOL, NONE or INT
    payload -- raises :class:`EncodingError`, so whatever decodes re-encodes
    to exactly the input bytes.
    """
    if type(data) is not bytes:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise EncodingError(
                f"cannot decode a record from {type(data).__name__} "
                "(expected bytes, bytearray or memoryview)"
            )
        data = bytes(data)
    size = len(data)
    if size < 4:
        raise EncodingError("truncated record header")
    (count,) = _COUNT.unpack_from(data, 0)
    offset = 4
    fields: List[Any] = []
    append = fields.append
    unpack_header, header_size = _HEADER.unpack_from, _HEADER.size
    for _ in range(count):
        start = offset + header_size
        if start > size:
            raise EncodingError("truncated field header")
        tag, length = unpack_header(data, offset)
        offset = start + length
        if offset > size:
            raise EncodingError("truncated field payload")
        if tag == _TAG_INT:
            if length == 8:
                append(_INT64.unpack_from(data, start)[0])
            else:
                append(_decode_big_int(data[start:offset]))
        elif tag == _TAG_BYTES:
            append(data[start:offset])
        elif tag == _TAG_STR:
            try:
                append(data[start:offset].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError(f"string field is not valid UTF-8: {exc}") from None
        elif tag == _TAG_FLOAT:
            if length != 8:
                raise EncodingError(f"float field of {length} bytes (expected 8)")
            append(_FLOAT64.unpack_from(data, start)[0])
        elif tag == _TAG_NONE:
            if length:
                raise EncodingError(f"none field of {length} bytes (expected 0)")
            append(None)
        elif tag == _TAG_BOOL:
            flag = data[start:offset]
            if flag == b"\x01":
                append(True)
            elif flag == b"\x00":
                append(False)
            else:
                raise EncodingError(f"bool field {flag.hex() or 'of 0 bytes'} (expected 00 or 01)")
        else:
            raise EncodingError(f"unknown field tag 0x{tag:02x}")
    if offset != size:
        raise EncodingError(f"{size - offset} trailing bytes after record")
    return tuple(fields)


_FLAGS = {b"\x00": False, b"\x01": True}

#: tag -> (the one payload length a layout takes, struct code, value converter).
#: ``None`` length: any; ``None`` code: ``"<length>s"``; ``None`` converter:
#: the unpacked value is the field.  A big INT is absent because its width
#: is part of its value.
_LAYOUT_FIELDS = {
    _TAG_INT: (8, "q", None),
    _TAG_FLOAT: (8, "d", None),
    _TAG_BYTES: (None, None, None),
    _TAG_STR: (None, None, bytes.decode),  # UTF-8, strict
    _TAG_BOOL: (1, None, _FLAGS.__getitem__),
    _TAG_NONE: (0, None, lambda empty: None),
}


class RecordLayout:
    """One record shape -- field count, tags and lengths -- read in one unpack.

    A relation's records usually share every header word.  A layout is
    compiled by :func:`compile_layout` from one payload into a single
    ``struct.Struct`` that unpacks a payload of that length into header
    words and values, alternating: the count with the first field's
    ``(tag, length)`` header as one word, then each later header as one,
    each followed by its field's value.  :meth:`decode` compares the even
    words with the compiled payload's header bytes and takes the odd ones
    as the record; a payload of another length or with any other header
    word, and a STR or BOOL value the checks refuse, goes to
    :func:`decode_record`.  So :meth:`decode` returns what
    :func:`decode_record` returns and raises what it raises, message
    included.
    """

    __slots__ = ("_unpack", "_headers", "_converters")

    def __init__(self, data: bytes, fmt: str, converters: Sequence[Any]):
        self._unpack = struct.Struct(fmt).unpack
        self._headers = self._unpack(data)[0::2]
        if any(converters):
            self._converters = tuple(convert or (lambda value: value) for convert in converters)
        else:
            self._converters = None

    def decode(self, data: bytes) -> Tuple[Any, ...]:
        """:func:`decode_record` of ``data``, in one unpack when it has this shape."""
        try:
            words = self._unpack(data)
        except (struct.error, TypeError):  # another length, or not a buffer
            return decode_record(data)
        if words[0::2] != self._headers:
            return decode_record(data)
        if self._converters is None:
            return words[1::2]
        try:
            return tuple(convert(value) for convert, value in zip(self._converters, words[1::2]))
        except (UnicodeDecodeError, KeyError):  # bad UTF-8 or BOOL byte: name the first one
            return decode_record(data)


def compile_layout(data: bytes) -> Optional[RecordLayout]:
    """The :class:`RecordLayout` of ``data``, or ``None`` if it has none.

    ``data`` is meant to be a payload :func:`decode_record` has accepted.
    A record with a big INT has no layout, and neither has anything whose
    headers :func:`decode_record` would refuse, so a layout never accepts
    bytes :func:`decode_record` refuses.
    """
    size = len(data)
    if size < 4:
        return None
    (count,) = _COUNT.unpack_from(data, 0)
    fmt = [">"]
    lead = _COUNT.size  # the count rides in the first header word
    converters = []
    offset = 4
    for _ in range(count):
        if offset + _HEADER.size > size:
            return None
        tag, length = _HEADER.unpack_from(data, offset)
        spec = _LAYOUT_FIELDS.get(tag)
        if spec is None or (spec[0] is not None and length != spec[0]):
            return None
        fmt.append(f"{lead + _HEADER.size}s" + (spec[1] or f"{length}s"))
        lead = 0
        converters.append(spec[2])
        offset += _HEADER.size + length
    if offset != size:
        return None
    if not count:
        fmt.append(f"{lead}s")
    return RecordLayout(data, "".join(fmt), converters)


def shape_decoder() -> Callable[[bytes], Tuple[Any, ...]]:
    """A :func:`decode_record` for one run of payloads, such as one result.

    A relation's records usually all encode to one length, so when two
    consecutive payloads decoded here have the same length, the first one's
    :class:`RecordLayout` is compiled and reads every following payload of
    that length in one unpack (it hands anything of another shape to
    :func:`decode_record`).  A result where every payload has a different
    length pays one integer compare per payload over :func:`decode_record`.
    The returned function accepts and refuses exactly what
    :func:`decode_record` does; its layout lives as long as it does.
    """
    shape = -1  # length of the last payload decode_record accepted here
    previous = b""  # that payload
    decode_shape = None  # decodes a payload of length ``shape``, once compiled

    def decode(payload: bytes) -> Tuple[Any, ...]:
        nonlocal shape, previous, decode_shape
        size = len(payload)
        if size != shape:
            record = decode_record(payload)
            shape, previous, decode_shape = size, payload, None
            return record
        if decode_shape is None:
            layout = compile_layout(previous)
            decode_shape = decode_record if layout is None else layout.decode
        return decode_shape(payload)

    return decode


class RecordCodec:
    """A named-schema convenience wrapper around the canonical encoding.

    The SAE protocol itself only needs :func:`encode_record`, but the DBMS
    layer and the examples benefit from a schema-aware codec that checks the
    field count and exposes column names.
    """

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise EncodingError("a record codec needs at least one column")
        if len(set(columns)) != len(columns):
            raise EncodingError("duplicate column names in schema")
        self._columns = tuple(columns)

    @property
    def columns(self) -> Tuple[str, ...]:
        """The column names, in schema order."""
        return self._columns

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self._columns)

    def encode(self, fields: Sequence[Any]) -> bytes:
        """Encode ``fields``, validating the arity against the schema."""
        if len(fields) != len(self._columns):
            raise EncodingError(
                f"expected {len(self._columns)} fields ({', '.join(self._columns)}), "
                f"got {len(fields)}"
            )
        return encode_record(fields)

    def decode(self, data: bytes) -> Tuple[Any, ...]:
        """Decode ``data``, validating the arity against the schema."""
        fields = decode_record(data)
        if len(fields) != len(self._columns):
            raise EncodingError(
                f"decoded {len(fields)} fields but schema has {len(self._columns)}"
            )
        return fields

    def as_dict(self, fields: Sequence[Any]) -> dict:
        """Pair each field with its column name."""
        if len(fields) != len(self._columns):
            raise EncodingError("field count does not match schema")
        return dict(zip(self._columns, fields))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordCodec(columns={self._columns!r})"
