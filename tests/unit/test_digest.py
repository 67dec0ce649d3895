"""Unit tests for the digest value object and its XOR algebra."""

import pytest

from repro.crypto.digest import (
    SHA1,
    MemoStats,
    RecordMemo,
    SHA256,
    Digest,
    DigestError,
    coerce_digest,
    default_scheme,
    fold_xor,
    get_scheme,
)
from repro.crypto.encoding import encode_record


class TestDigestScheme:
    def test_default_scheme_is_20_byte_sha1(self):
        scheme = default_scheme()
        assert scheme.name == "sha1"
        assert scheme.digest_size == 20

    def test_hash_produces_correct_length(self):
        assert SHA1.hash(b"hello").size == 20
        assert SHA256.hash(b"hello").size == 32

    def test_hash_is_deterministic(self):
        assert SHA1.hash(b"payload") == SHA1.hash(b"payload")

    def test_hash_differs_on_different_input(self):
        assert SHA1.hash(b"a") != SHA1.hash(b"b")

    def test_hash_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            SHA1.hash("not-bytes")

    def test_zero_digest_is_all_zero(self):
        assert SHA1.zero().raw == b"\x00" * 20
        assert SHA1.zero().is_zero()

    def test_from_bytes_validates_length(self):
        with pytest.raises(DigestError):
            SHA1.from_bytes(b"\x00" * 19)

    @pytest.mark.parametrize("raw", [20, [1] * 20, "a" * 20], ids=["int", "list", "str"])
    def test_from_bytes_refuses_what_is_not_a_byte_string(self, raw):
        # bytes(20) is twenty zero bytes and bytes([1] * 20) a made-up
        # digest: neither may pass for one.
        with pytest.raises(DigestError, match=type(raw).__name__):
            SHA1.from_bytes(raw)
        with pytest.raises(DigestError, match=type(raw).__name__):
            Digest(raw, scheme=SHA1)

    def test_from_bytes_accepts_every_byte_string_type(self):
        raw = bytes(range(20))
        for value in (raw, bytearray(raw), memoryview(raw)):
            assert SHA1.from_bytes(value).raw == raw

    def test_get_scheme_lookup(self):
        assert get_scheme("sha1") is SHA1
        assert get_scheme("SHA256") is SHA256

    def test_get_scheme_unknown_raises(self):
        with pytest.raises(DigestError):
            get_scheme("md5-oops")


class TestDigestValueObject:
    def test_construction_validates_length(self):
        with pytest.raises(DigestError):
            Digest(b"short", scheme=SHA1)

    def test_immutability(self):
        digest = SHA1.hash(b"x")
        with pytest.raises(AttributeError):
            digest.raw = b"\x00" * 20

    def test_equality_and_hashability(self):
        a = SHA1.hash(b"same")
        b = SHA1.hash(b"same")
        c = SHA1.hash(b"other")
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_equality_across_schemes_is_false(self):
        a = SHA1.hash(b"x")
        b = Digest(a.raw + b"\x00" * 12, scheme=SHA256)
        assert a != b

    def test_bytes_and_len(self):
        digest = SHA1.hash(b"abc")
        assert bytes(digest) == digest.raw
        assert len(digest) == 20

    def test_hex_rendering(self):
        digest = SHA1.hash(b"abc")
        assert digest.hex() == digest.raw.hex()
        assert len(digest.hex()) == 40


class TestXorAlgebra:
    def test_xor_with_zero_is_identity(self):
        digest = SHA1.hash(b"record")
        assert digest ^ SHA1.zero() == digest

    def test_xor_is_self_inverse(self):
        digest = SHA1.hash(b"record")
        assert (digest ^ digest).is_zero()

    def test_xor_commutative(self):
        a, b = SHA1.hash(b"a"), SHA1.hash(b"b")
        assert a ^ b == b ^ a

    def test_xor_associative(self):
        a, b, c = SHA1.hash(b"a"), SHA1.hash(b"b"), SHA1.hash(b"c")
        assert (a ^ b) ^ c == a ^ (b ^ c)

    def test_xor_across_schemes_raises(self):
        with pytest.raises(DigestError):
            SHA1.hash(b"a") ^ SHA256.hash(b"a")

    def test_xor_with_non_digest_not_implemented(self):
        with pytest.raises(TypeError):
            SHA1.hash(b"a") ^ b"raw-bytes"

    def test_fold_xor_empty_is_zero(self):
        assert fold_xor([]).is_zero()

    def test_fold_xor_matches_manual(self):
        digests = [SHA1.hash(bytes([i])) for i in range(7)]
        manual = digests[0]
        for digest in digests[1:]:
            manual = manual ^ digest
        assert fold_xor(digests) == manual

    def test_fold_xor_order_independent(self):
        digests = [SHA1.hash(bytes([i])) for i in range(9)]
        assert fold_xor(digests) == fold_xor(list(reversed(digests)))

    def test_pairs_cancel_in_fold(self):
        digests = [SHA1.hash(bytes([i])) for i in range(4)]
        assert fold_xor(digests + digests).is_zero()


class TestCoerceDigest:
    def test_passthrough_for_digest(self):
        digest = SHA1.hash(b"x")
        assert coerce_digest(digest) is digest

    def test_wraps_raw_bytes(self):
        raw = SHA1.hash(b"x").raw
        assert coerce_digest(raw) == SHA1.hash(b"x")

    def test_rejects_wrong_length(self):
        with pytest.raises(DigestError):
            coerce_digest(b"\x01\x02")


class TestRecordMemo:
    RECORD = (42, 1_250_000, "payload-bytes")

    def _memo(self, capacity=16):
        return RecordMemo(SHA1, capacity=capacity)

    def test_digest_matches_uncached_path(self):
        memo = self._memo()
        expected = SHA1.hash(encode_record(self.RECORD))
        assert memo.digest(self.RECORD) == expected
        assert memo.digest(list(self.RECORD)) == expected  # keyed on content

    def test_encoded_matches_canonical_codec(self):
        memo = self._memo()
        assert memo.encoded(self.RECORD) == encode_record(self.RECORD)

    def test_hit_and_miss_counting(self):
        memo = self._memo()
        memo.digest(self.RECORD)
        memo.digest(self.RECORD)
        memo.encoded(self.RECORD)
        assert (memo.stats.hits, memo.stats.misses) == (2, 1)

    def test_lru_eviction_at_capacity(self):
        memo = self._memo(capacity=2)
        first, second, third = (1, 1, "a"), (2, 2, "b"), (3, 3, "c")
        memo.digest(first)
        memo.digest(second)
        memo.digest(third)  # evicts ``first``
        memo.digest(first)
        assert memo.stats.misses == 4
        assert len(memo) == 2

    def test_scoped_stats_tallies_only_inside_block(self):
        memo = self._memo()
        memo.digest(self.RECORD)  # outside: not tallied
        with memo.scoped_stats() as outer:
            memo.digest(self.RECORD)
            with memo.scoped_stats() as inner:
                memo.digest(self.RECORD)
            memo.digest((9, 9, "fresh"))
        assert (inner.hits, inner.misses) == (1, 0)
        assert (outer.hits, outer.misses) == (2, 1)
        assert (memo.stats.hits, memo.stats.misses) == (2, 2)

    def test_clear_drops_entries_but_keeps_lifetime_stats(self):
        memo = self._memo()
        memo.digest(self.RECORD)
        memo.clear()
        assert len(memo) == 0
        memo.digest(self.RECORD)
        assert memo.stats.misses == 2

    def test_memo_stats_add(self):
        total = MemoStats(hits=1, misses=2) + MemoStats(hits=3, misses=4)
        assert (total.hits, total.misses) == (4, 6)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(DigestError):
            RecordMemo(SHA1, capacity=0)
