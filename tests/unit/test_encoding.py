"""Unit tests for the canonical record encoding."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    EncodingError,
    RecordCodec,
    decode_record,
    encode_record,
)


class TestEncodeDecodeRoundTrip:
    @pytest.mark.parametrize(
        "record",
        [
            (),
            (1,),
            (0, -5, 2**40),
            (3.25, -0.0),
            ("hello", "unicode-éßπ"),
            (b"raw-bytes", b""),
            (None, None),
            (True, False),
            (1, "mixed", b"types", 2.5, None, True),
            (2**100, -(2**90)),
        ],
    )
    def test_round_trip(self, record):
        assert decode_record(encode_record(record)) == tuple(record)

    def test_round_trip_paper_example_record(self):
        record = (15, "Canon", "SD850 IS", 250)
        assert decode_record(encode_record(record)) == record

    def test_encoding_is_deterministic(self):
        record = (1, "a", b"bytes", 2.0)
        assert encode_record(record) == encode_record(record)

    def test_distinct_records_encode_differently(self):
        assert encode_record((1, "ab")) != encode_record((1, "a", "b"))
        assert encode_record(("1",)) != encode_record((1,))
        assert encode_record((b"x",)) != encode_record(("x",))

    def test_bool_is_not_confused_with_int(self):
        assert encode_record((True,)) != encode_record((1,))
        assert decode_record(encode_record((True,))) == (True,)

    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            encode_record(([1, 2, 3],))

    def test_truncated_payload_raises(self):
        data = encode_record((1, "hello"))
        with pytest.raises(EncodingError):
            decode_record(data[:-3])

    def test_trailing_garbage_raises(self):
        data = encode_record((1,))
        with pytest.raises(EncodingError):
            decode_record(data + b"\x00")

    def test_empty_input_raises(self):
        with pytest.raises(EncodingError):
            decode_record(b"")

    def test_float_of_wrong_width_raises_encoding_error(self):
        blob = b"\x00\x00\x00\x01" + b"\x02" + b"\x00\x00\x00\x04" + b"\x00" * 4
        with pytest.raises(EncodingError, match="float field of 4 bytes"):
            decode_record(blob)

    def test_invalid_utf8_raises_encoding_error(self):
        blob = b"\x00\x00\x00\x01" + b"\x03" + b"\x00\x00\x00\x02" + b"\xff\xfe"
        with pytest.raises(EncodingError, match="not valid UTF-8"):
            decode_record(blob)

    def test_unknown_tag_raises(self):
        blob = b"\x00\x00\x00\x01" + b"\x7f" + b"\x00\x00\x00\x00"
        with pytest.raises(EncodingError, match="unknown field tag 0x7f"):
            decode_record(blob)


def one_field(tag: int, payload: bytes) -> bytes:
    """A one-field record with the given raw tag and payload."""
    return struct.pack(">IBI", 1, tag, len(payload)) + payload


#: Records whose headers are well formed but whose payloads are arbitrary,
#: so the property below reaches every tag's payload checks.
framed_records = st.lists(
    st.tuples(st.integers(0, 6), st.binary(max_size=12)), max_size=4
).map(lambda fields: struct.pack(">I", len(fields)) + b"".join(
    struct.pack(">BI", tag, len(payload)) + payload for tag, payload in fields
))


class TestNonCanonicalEncodingsRejected:
    @pytest.mark.parametrize(
        "blob",
        [
            one_field(0x05, b"\x00\x00"),            # BOOL of length 2
            one_field(0x05, b"\x07"),                # BOOL byte 0x07
            one_field(0x00, b"abc"),                 # NONE with a payload
            one_field(0x01, b""),                    # INT of length 0
            one_field(0x01, b"\x00\x00\x05"),        # big-int form of an int64 value
        ],
        ids=["bool-len-2", "bool-0x07", "none-len-3", "int-len-0", "int-short-5"],
    )
    def test_rejected(self, blob):
        with pytest.raises(EncodingError):
            decode_record(blob)

    @pytest.mark.parametrize(
        "payload",
        [b"\x02\x80" + b"\x00" * 8, b"\x00\x00\x80" + b"\x00" * 8, b"\x01"],
        ids=["sign-0x02", "leading-zero-byte", "no-magnitude"],
    )
    def test_big_int_must_be_minimal(self, payload):
        with pytest.raises(EncodingError):
            decode_record(one_field(0x01, payload))

    def test_big_int_edges_round_trip(self):
        for value in (2**63, -(2**63) - 1, 2**200, -(2**64)):
            assert decode_record(encode_record((value,))) == (value,)
        assert len(encode_record((-(2**63),))) == 4 + 5 + 8

    @given(st.one_of(st.binary(max_size=64), framed_records))
    @settings(max_examples=400, deadline=None)
    def test_whatever_decodes_re_encodes_to_the_same_bytes(self, blob):
        try:
            record = decode_record(blob)
        except EncodingError:
            return
        assert encode_record(record) == blob


class TestRecordCodec:
    def test_requires_columns(self):
        with pytest.raises(EncodingError):
            RecordCodec([])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(EncodingError):
            RecordCodec(["id", "id"])

    def test_round_trip_with_schema(self):
        codec = RecordCodec(["id", "key", "payload"])
        record = (7, 1234, b"data")
        assert codec.decode(codec.encode(record)) == record

    def test_encode_checks_arity(self):
        codec = RecordCodec(["id", "key"])
        with pytest.raises(EncodingError):
            codec.encode((1, 2, 3))

    def test_decode_checks_arity(self):
        codec = RecordCodec(["id", "key"])
        other = RecordCodec(["id", "key", "payload"])
        with pytest.raises(EncodingError):
            codec.decode(other.encode((1, 2, b"x")))

    def test_as_dict(self):
        codec = RecordCodec(["id", "manufacturer", "model", "price"])
        record = (15, "Canon", "SD850 IS", 250)
        assert codec.as_dict(record) == {
            "id": 15,
            "manufacturer": "Canon",
            "model": "SD850 IS",
            "price": 250,
        }

    def test_as_dict_checks_arity(self):
        codec = RecordCodec(["id", "key"])
        with pytest.raises(EncodingError):
            codec.as_dict((1,))

    def test_columns_and_arity(self):
        codec = RecordCodec(["a", "b", "c"])
        assert codec.columns == ("a", "b", "c")
        assert codec.arity == 3
