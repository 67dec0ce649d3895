"""Hostile result bytes are a verdict, not an exception.

The SAE and TOM clients decode what an untrusted SP sent.  These tests
corrupt the answer *below* the tuple-level ``AttackModel``s -- a stub in
front of ``ServiceProvider.execute`` (or ``TomServiceProvider.execute``)
rewrites the payload bytes themselves -- and require a REJECTED verification
naming the defect on every query path, never an ``EncodingError`` escaping
the scheme.  Each defect is sent as the second
payload and as the last one, long after the client has compiled the
result's record layout; the same-length defects keep that layout's length
and change only header words.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutsourcedDB
from repro.core.client import Client
from repro.core.design import PhysicalDesign
from repro.crypto.encoding import EncodingError, decode_record, encode_record
from repro.workloads import build_dataset

FULL = (0, 10_000_000)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(400, record_size=96, seed=5)


def sign_magnitude(payload):
    """Re-encode a genuine record with its first int in the sign+magnitude form.

    Every tuple and key stays right; only the bytes differ from what the
    owner's ``encode_record`` produced.  The big-int form is canonical only
    outside int64, so the client's decode refuses it.
    """
    record = decode_record(payload)
    canonical = encode_record(record[:1])[4:]
    loose = struct.pack(">BI", 0x01, 9) + b"\x00" + record[0].to_bytes(8, "big")
    forged = payload[:4] + loose + payload[4 + len(canonical):]
    assert forged != payload
    return forged


def retag(payload):
    return payload[:4] + b"\x7f" + payload[5:]


# Offsets in a genuine (id, key, blob) payload: the key's tag and length
# word, and the blob's length word.
KEY_TAG, KEY_LENGTH, BLOB_LENGTH = 17, slice(18, 22), slice(31, 35)


def bump_count(payload):
    (count,) = struct.unpack_from(">I", payload)
    return struct.pack(">I", count + 1) + payload[4:]


def swap_lengths(payload):
    """The key's and the blob's length words trade places."""
    forged = bytearray(payload)
    forged[KEY_LENGTH], forged[BLOB_LENGTH] = payload[BLOB_LENGTH], payload[KEY_LENGTH]
    return bytes(forged)


def flip_key_tag(payload):
    """The key's INT tag becomes BOOL (0x01 ^ 0x04): a known tag, same length."""
    assert payload[KEY_TAG] == 0x01
    return payload[:KEY_TAG] + b"\x05" + payload[KEY_TAG + 1:]


def with_fields(change):
    return lambda payload: encode_record(change(decode_record(payload)))


#: name -> (rewrite of one payload, fragment the rejection reason must carry)
DEFECTS = {
    "truncated": (lambda p: p[:-3], "truncated field payload"),
    "truncated-header": (lambda p: p[:2], "truncated record header"),
    "trailing-garbage": (lambda p: p + b"\x00", "trailing bytes"),
    "unknown-tag": (retag, "unknown field tag 0x7f"),
    "extra-field": (with_fields(lambda r: r + (1,)), "has 4 fields, the relation has 3"),
    "missing-fields": (with_fields(lambda r: r[:1]), "has 1 fields, the relation has 3"),
    "key-of-wrong-type": (with_fields(lambda r: (r[0], "nine", r[2])), "no key comparable"),
    "sp-supplied-tuple": (decode_record, "is not a byte string"),
    "non-canonical-int": (sign_magnitude, "big-int magnitude is empty or has a leading zero byte"),
    # Same length as the genuine payload, other header words:
    "bumped-field-count": (bump_count, "truncated field header"),
    "swapped-length-words": (swap_lengths, "big-int magnitude is empty or has a leading zero byte"),
    "flipped-tag": (flip_key_tag, "(expected 00 or 01)"),
}

#: (defect, index of the rewritten payload): the second payload, and the last.
CASES = [pytest.param(defect, 1, id=defect) for defect in sorted(DEFECTS)] + [
    pytest.param(defect, -1, id=f"{defect}-last") for defect in sorted(DEFECTS)
]


def install(monkeypatch, provider, rewrite, position=1):
    """Put a byte-level stub in front of one ``ServiceProvider.execute``."""
    honest = provider.execute

    def execute(query, ctx=None, record_cache=None):
        payloads = list(honest(query, ctx, record_cache=record_cache))
        if len(payloads) > abs(position):
            payloads[position] = rewrite(payloads[position])
        return payloads

    monkeypatch.setattr(provider, "execute", execute)


def assert_rejected(outcome, fragment):
    verification = outcome.verification
    assert not outcome.verified and not verification.ok and not verification.skipped
    assert fragment in verification.reason
    assert verification.records_hashed == 0
    assert verification.computed == verification.computed.scheme.zero()


@pytest.mark.parametrize("defect, position", CASES)
def test_query_rejects_malformed_payloads(monkeypatch, dataset, defect, position):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae").setup() as db:
        install(monkeypatch, db.provider, rewrite, position)
        assert_rejected(db.query(*FULL), fragment)
        monkeypatch.undo()
        assert db.query(*FULL).verified  # the stored data was never touched


@pytest.mark.parametrize("defect, position", CASES)
def test_query_many_rejects_malformed_payloads(monkeypatch, dataset, defect, position):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae").setup() as db:
        install(monkeypatch, db.provider, rewrite, position)
        outcomes = db.query_many([FULL, (0, 5_000_000), (9, 3)])
        assert_rejected(outcomes[0], fragment)
        assert_rejected(outcomes[1], fragment)
        assert outcomes[2].verified and outcomes[2].records == []  # reversed range


@pytest.mark.parametrize("defect, position", CASES)
def test_sharded_leg_pinpoints_the_shard_that_sent_malformed_bytes(
    monkeypatch, dataset, defect, position
):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae", design=PhysicalDesign(shards=3)).setup() as db:
        victim = 1
        install(monkeypatch, db.provider.shard(victim), rewrite, position)
        for outcome in [db.query(*FULL)] + db.query_many([FULL]):
            assert not outcome.verified
            assert f"shard(s) {victim} rejected" in outcome.verification.reason
            assert fragment in outcome.verification.reason
            verdicts = outcome.verification.details["shards"]
            assert [shard for shard, verdict in verdicts.items() if not verdict.ok] == [victim]
            assert verdicts[victim].records_hashed == 0
            assert outcome.receipt.matches_leg_sums()


def test_unverified_query_reports_malformed_bytes_without_raising(monkeypatch, dataset):
    with OutsourcedDB(dataset, scheme="sae").setup() as db:
        install(monkeypatch, db.provider, DEFECTS["truncated"][0])
        outcome = db.query(*FULL, verify=False)
        assert not outcome.verified and outcome.verification.skipped
        assert outcome.records == []
        assert "truncated field payload" in outcome.verification.reason


# ---------------------------------------------------------------------- TOM
def install_tom(monkeypatch, provider, rewrite, position=1):
    """Put a byte-level stub in front of one ``TomServiceProvider.execute``."""
    honest = provider.execute

    def execute(query, ctx=None):
        payloads, vo = honest(query, ctx)
        payloads = list(payloads)
        if len(payloads) > abs(position):
            payloads[position] = rewrite(payloads[position])
        return payloads, vo

    monkeypatch.setattr(provider, "execute", execute)


def tom_fragment(defect):
    """What the TOM client names: it hashes the received bytes before it
    decodes them, so any rewritten byte string -- a non-canonical encoding
    of the genuine record included -- breaks the root digest first."""
    if defect == "sp-supplied-tuple":
        return DEFECTS[defect][1]
    return "root digest does not match the owner's signature"


@pytest.mark.parametrize("shards", [1, 3], ids=["unsharded", "3-shard"])
@pytest.mark.parametrize("defect, position", CASES)
def test_tom_rejects_malformed_payloads(monkeypatch, dataset, defect, position, shards):
    rewrite, _ = DEFECTS[defect]
    design = PhysicalDesign(shards=shards)
    with OutsourcedDB(dataset, scheme="tom", key_bits=512, design=design).setup() as db:
        victim = 1 if shards > 1 else 0
        install_tom(monkeypatch, db.provider.shard(victim), rewrite, position)
        for outcome in [db.query(*FULL)] + db.query_many([FULL]):
            report = outcome.verification
            assert not outcome.verified and not report.ok
            assert tom_fragment(defect) in report.reason
            if shards > 1:
                assert f"shard(s) {victim} rejected" in report.reason
                verdicts = report.details["shards"]
                assert [s for s, verdict in verdicts.items() if not verdict.ok] == [victim]
            assert outcome.receipt.matches_leg_sums() or not outcome.receipt.legs
        monkeypatch.undo()
        assert db.query(*FULL).verified  # the stored data was never touched


def test_unverified_tom_query_reports_malformed_bytes_without_raising(monkeypatch, dataset):
    with OutsourcedDB(dataset, scheme="tom", key_bits=512).setup() as db:
        install_tom(monkeypatch, db.provider, DEFECTS["truncated"][0])
        outcome = db.query(*FULL, verify=False)
        assert not outcome.verified
        assert outcome.records == [] and outcome.payloads == []
        assert "truncated field payload" in outcome.verification.reason


# ---------------------------------------------------------------------- the layout vs the reference
def reference_open(client, payloads, digest_cache, hashed):
    """``Client._open`` as one ``decode_record`` call per payload: the reference."""
    hasher = client.scheme.hasher
    records, value = [], 0
    for payload in payloads:
        if type(payload) is not bytes:
            return [], 0, f"result item of type {type(payload).__name__} is not a byte string"
        opened = digest_cache.get(payload) if digest_cache is not None else None
        if opened is None:
            try:
                record = decode_record(payload)
            except EncodingError as exc:
                return [], 0, f"undecodable record payload: {exc}"
            if client._arity is not None and len(record) != client._arity:
                return [], 0, (
                    f"record payload has {len(record)} fields, "
                    f"the relation has {client._arity}"
                )
            digest = int.from_bytes(hasher(payload).digest(), "big") if hashed else 0
            opened = (record, digest)
            if digest_cache is not None:
                digest_cache[payload] = opened
        records.append(opened[0])
        value ^= opened[1]
    return records, value, None


#: kind -> strategy for one field of that kind, given the layout's width for
#: STR and BYTES.  Every record of a layout then encodes to the same length,
#: big INTs (2**64 <= |v| < 2**72) included.
FIELD_KINDS = {
    "int": lambda width: st.integers(-(2**63), 2**63 - 1),
    "big-int": lambda width: st.integers(2**64, 2**72 - 1) | st.integers(-(2**72) + 1, -(2**64)),
    "float": lambda width: st.floats(allow_nan=False),
    "str": lambda width: st.text("abcxyz019 -", min_size=width, max_size=width),
    "bytes": lambda width: st.binary(min_size=width, max_size=width),
    "bool": lambda width: st.booleans(),
    "none": lambda width: st.none(),
}

layouts = st.lists(
    st.tuples(st.sampled_from(sorted(FIELD_KINDS)), st.integers(0, 5)), max_size=4
)


@st.composite
def mixed_results(draw):
    """Runs of records from two or three layouts, some of them mutated."""
    shapes = draw(st.lists(layouts, min_size=2, max_size=3))
    payloads = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(shapes))
        for _ in range(draw(st.integers(1, 4))):
            record = tuple(draw(FIELD_KINDS[kind](width)) for kind, width in shape)
            blob = bytearray(encode_record(record))
            action = draw(st.sampled_from(["keep"] * 4 + ["overwrite", "truncate", "extend"]))
            if action == "overwrite":
                blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
            elif action == "truncate":
                del blob[draw(st.integers(0, len(blob) - 1)):]
            elif action == "extend":
                blob += draw(st.binary(min_size=1, max_size=3))
            payloads.append(bytes(blob))
    arity = draw(st.sampled_from([None, len(shapes[0])]))
    return payloads, arity


@given(mixed_results(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_open_agrees_with_a_per_record_decode_loop(result, cached, hashed):
    payloads, arity = result
    client = Client(arity=arity)
    opened = client._open(payloads, {} if cached else None, hashed)
    expected = reference_open(client, payloads, {} if cached else None, hashed)
    # repr(): a mutated float may be a NaN, which is not == itself.
    assert repr(opened) == repr(expected)
