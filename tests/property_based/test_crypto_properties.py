"""Property-based tests for the crypto substrate (encoding and XOR algebra)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.digest import SHA1, fold_xor
from repro.crypto.encoding import EncodingError, decode_record, encode_record
from repro.crypto.xor import digest_of_record, xor_of_records

# Field values the canonical encoding must support.
field_strategy = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=60),
    st.binary(max_size=60),
    st.booleans(),
    st.none(),
)

record_strategy = st.lists(field_strategy, min_size=0, max_size=8).map(tuple)


def reference_decode_record(data):
    """The field-by-field decoder ``decode_record`` was flattened from.

    Kept as the reference: the flat loop must read every blob to the same
    value, except the non-canonical ones it refuses, and must refuse every
    blob this one refuses (with any exception).
    """
    header, int64, float64 = struct.Struct(">BI"), struct.Struct(">q"), struct.Struct(">d")

    def decode_field(buffer, offset):
        if offset + header.size > len(buffer):
            raise EncodingError("truncated field header")
        tag, length = header.unpack_from(buffer, offset)
        offset += header.size
        if offset + length > len(buffer):
            raise EncodingError("truncated field payload")
        payload = bytes(buffer[offset:offset + length])
        offset += length
        if tag == 0x00:
            return None, offset
        if tag == 0x05:
            return payload == b"\x01", offset
        if tag == 0x01:
            if length == int64.size:
                return int64.unpack(payload)[0], offset
            sign = -1 if payload[:1] == b"\x01" else 1
            return sign * int.from_bytes(payload[1:], "big"), offset
        if tag == 0x02:
            return float64.unpack(payload)[0], offset
        if tag == 0x03:
            return payload.decode("utf-8"), offset
        if tag == 0x04:
            return payload, offset
        raise EncodingError(f"unknown field tag 0x{tag:02x}")

    buffer = memoryview(data)
    if len(buffer) < 4:
        raise EncodingError("truncated record header")
    (count,) = struct.unpack_from(">I", buffer, 0)
    offset = 4
    fields = []
    for _ in range(count):
        value, offset = decode_field(buffer, offset)
        fields.append(value)
    if offset != len(buffer):
        raise EncodingError("trailing bytes after record")
    return tuple(fields)


@st.composite
def mutated_blobs(draw):
    """An encoded record, then truncated, extended or with bytes overwritten."""
    blob = bytearray(encode_record(draw(record_strategy)))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["truncate", "extend", "overwrite"]))
        if action == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif action == "extend":
            blob += draw(st.binary(min_size=1, max_size=6))
        elif blob:
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


class TestEncodingProperties:
    @given(record_strategy)
    @settings(max_examples=200)
    def test_round_trip(self, record):
        assert decode_record(encode_record(record)) == record

    @given(record_strategy, record_strategy)
    @settings(max_examples=200)
    def test_injectivity(self, first, second):
        # The encoding distinguishes field *types* as well as values (0 vs 0.0
        # vs False encode differently), so compare type-aware identities.
        def identity(record):
            # repr() separates -0.0 from 0.0, which also encode differently.
            return tuple((type(value).__name__, repr(value)) for value in record)

        if identity(first) != identity(second):
            assert encode_record(first) != encode_record(second)
        else:
            assert encode_record(first) == encode_record(second)

    @given(mutated_blobs())
    @settings(max_examples=500)
    def test_flat_decoder_agrees_with_the_reference_on_mutated_blobs(self, blob):
        try:
            expected = reference_decode_record(blob)
        except (EncodingError, struct.error, UnicodeDecodeError):
            # Whatever the reference refused, the flat loop refuses -- and
            # always as an EncodingError, which is what the client catches.
            with pytest.raises(EncodingError):
                decode_record(blob)
        else:
            try:
                decoded = decode_record(blob)
            except EncodingError:
                # The reference also reads non-canonical fields (a BOOL byte
                # other than 00/01, a padded INT, ...); the flat loop refuses
                # exactly those, so what it refuses cannot be canonical.
                assert encode_record(expected) != blob
            else:
                # repr(): a mutated float may be a NaN, which is not == itself.
                assert repr(decoded) == repr(expected)

    @given(record_strategy)
    def test_encoding_longer_than_field_count_header(self, record):
        assert len(encode_record(record)) >= 4


class TestXorAlgebraProperties:
    @given(st.lists(st.binary(min_size=0, max_size=40), max_size=20))
    def test_fold_is_order_independent(self, payloads):
        digests = [SHA1.hash(payload) for payload in payloads]
        assert fold_xor(digests) == fold_xor(list(reversed(digests)))

    @given(st.lists(st.binary(max_size=40), max_size=15), st.lists(st.binary(max_size=40), max_size=15))
    def test_fold_is_homomorphic_over_concatenation(self, left, right):
        all_digests = [SHA1.hash(p) for p in left + right]
        split = fold_xor([SHA1.hash(p) for p in left]) ^ fold_xor([SHA1.hash(p) for p in right])
        assert fold_xor(all_digests) == split

    @given(st.lists(st.binary(max_size=40), min_size=1, max_size=15))
    def test_removing_equals_xoring_out(self, payloads):
        digests = [SHA1.hash(payload) for payload in payloads]
        total = fold_xor(digests)
        without_first = fold_xor(digests[1:])
        assert total ^ digests[0] == without_first

    @given(st.lists(record_strategy, max_size=12))
    def test_client_and_te_aggregation_agree(self, records):
        # The client hashes whole records; the TE folds precomputed digests.
        te_side = fold_xor(digest_of_record(record) for record in records)
        client_side = xor_of_records(records)
        assert te_side == client_side


class TestTokenSecurityProperties:
    @given(
        st.lists(record_strategy, min_size=1, max_size=10, unique_by=lambda r: r),
        st.data(),
    )
    @settings(max_examples=150)
    def test_dropping_any_subset_changes_the_token(self, records, data):
        """For distinct records, omitting a non-empty subset changes RS⊕.

        This is the computational core of the paper's security argument: the
        SP escapes detection only if the dropped and injected sets have equal
        XOR, which for collision-resistant digests of *distinct* records never
        happens in practice.
        """
        keep_mask = data.draw(
            st.lists(st.booleans(), min_size=len(records), max_size=len(records))
        )
        if all(keep_mask):
            return
        full = xor_of_records(records)
        partial = xor_of_records([r for r, keep in zip(records, keep_mask) if keep])
        assert full != partial

    @given(st.lists(record_strategy, max_size=8), record_strategy)
    @settings(max_examples=150)
    def test_injecting_a_new_record_changes_the_token(self, records, extra):
        if extra in records:
            return
        assert xor_of_records(records) != xor_of_records(records + [extra])
