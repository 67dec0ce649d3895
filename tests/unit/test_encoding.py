"""Unit tests for the canonical record encoding."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    EncodingError,
    RecordCodec,
    compile_layout,
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

    @pytest.mark.parametrize("value", [4, [0, 0, 0, 0], "abc", None],
                             ids=["int", "list", "str", "none"])
    def test_input_that_is_not_a_buffer_raises_naming_its_type(self, value):
        with pytest.raises(EncodingError, match=f"from {type(value).__name__} "):
            decode_record(value)

    def test_bytearray_and_memoryview_decode_like_bytes(self):
        data = encode_record((1, "a", b"z"))
        assert decode_record(bytearray(data)) == decode_record(memoryview(data)) == (1, "a", b"z")


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


def outcome(decode, blob):
    """What ``decode(blob)`` returns, or the message it refuses ``blob`` with."""
    try:
        return repr(decode(blob))  # repr(): a mutated float may be a NaN
    except EncodingError as exc:
        return f"EncodingError: {exc}"


class TestRecordLayout:
    @pytest.mark.parametrize(
        "blob",
        [
            encode_record((1, 2**70)),               # a big INT's width is its value
            b"\x00\x00",                              # shorter than a count
            one_field(0x7F, b""),                    # unknown tag
            one_field(0x02, b"\x00" * 4),             # FLOAT of 4 bytes
            one_field(0x05, b"\x01\x01"),             # BOOL of 2 bytes
            encode_record((1,)) + b"\x00",            # trailing byte
            struct.pack(">I", 2) + encode_record((1,))[4:],  # a field short
        ],
        ids=["big-int", "short", "unknown-tag", "float-4", "bool-2", "trailing", "count-2"],
    )
    def test_shapes_decode_record_refuses_compile_to_nothing(self, blob):
        assert compile_layout(blob) is None

    @pytest.mark.parametrize(
        "genuine, forged",
        [
            (one_field(0x03, b"ab"), one_field(0x03, b"a\xff")),
            (one_field(0x05, b"\x01"), one_field(0x05, b"\x02")),
            (encode_record((1, "a", True)), encode_record((1, "a", True))[:-1] + b"\x07"),
            (encode_record((7,)), struct.pack(">I", 0) + b"\x00" * 13),   # no fields, trailing
        ],
        ids=["bad-utf8", "bool-0x02", "bool-last", "count-0"],
    )
    def test_decode_refuses_what_decode_record_refuses_with_its_message(self, genuine, forged):
        layout = compile_layout(genuine)
        assert layout.decode(genuine) == decode_record(genuine)
        assert len(forged) == len(genuine)
        assert outcome(layout.decode, forged) == outcome(decode_record, forged)
        assert outcome(layout.decode, forged).startswith("EncodingError")

    @pytest.mark.parametrize(
        "genuine, other",
        [
            (encode_record((1.5,)), encode_record((2,))),  # same length, INT for FLOAT
            (encode_record((1,)), encode_record((1, None))),
            (encode_record((1,)), encode_record((1,))[:-1]),
            (encode_record((1,)), "abc"),
            (encode_record((1,)), 4),
        ],
        ids=["retagged", "longer", "shorter", "str", "int"],
    )
    def test_other_shapes_and_types_go_to_decode_record(self, genuine, other):
        layout = compile_layout(genuine)
        assert outcome(layout.decode, other) == outcome(decode_record, other)

    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**63), 2**63 - 1), st.floats(), st.text(max_size=8),
                st.binary(max_size=8), st.booleans(), st.none(),
            ),
            max_size=5,
        ),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_decode_agrees_with_decode_record_on_same_length_rewrites(self, fields, writes):
        genuine = encode_record(fields)
        layout = compile_layout(genuine)
        forged = bytearray(genuine)
        for position, byte in writes:
            forged[position % len(forged)] = byte
        assert outcome(layout.decode, bytes(forged)) == outcome(decode_record, bytes(forged))


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
