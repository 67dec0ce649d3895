"""Hostile result bytes are a verdict, not an exception.

The SAE client decodes what an untrusted SP sent.  These tests corrupt the
answer *below* the tuple-level ``AttackModel``s -- a stub in front of
``ServiceProvider.execute`` rewrites the payload bytes themselves -- and
require a REJECTED verification naming the defect on every query path, never
an ``EncodingError`` escaping the scheme.
"""

import struct

import pytest

from repro.core import OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.crypto.encoding import decode_record, encode_record
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
}


def install(monkeypatch, provider, rewrite, position=1):
    """Put a byte-level stub in front of one ``ServiceProvider.execute``."""
    honest = provider.execute

    def execute(query, ctx=None, record_cache=None):
        payloads = list(honest(query, ctx, record_cache=record_cache))
        if len(payloads) > position:
            payloads[position] = rewrite(payloads[position])
        return payloads

    monkeypatch.setattr(provider, "execute", execute)


def assert_rejected(outcome, fragment):
    verification = outcome.verification
    assert not outcome.verified and not verification.ok and not verification.skipped
    assert fragment in verification.reason
    assert verification.records_hashed == 0
    assert verification.computed == verification.computed.scheme.zero()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_query_rejects_malformed_payloads(monkeypatch, dataset, defect):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae").setup() as db:
        install(monkeypatch, db.provider, rewrite)
        assert_rejected(db.query(*FULL), fragment)
        monkeypatch.undo()
        assert db.query(*FULL).verified  # the stored data was never touched


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_query_many_rejects_malformed_payloads(monkeypatch, dataset, defect):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae").setup() as db:
        install(monkeypatch, db.provider, rewrite)
        outcomes = db.query_many([FULL, (0, 5_000_000), (9, 3)])
        assert_rejected(outcomes[0], fragment)
        assert_rejected(outcomes[1], fragment)
        assert outcomes[2].verified and outcomes[2].records == []  # reversed range


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_sharded_leg_pinpoints_the_shard_that_sent_malformed_bytes(
    monkeypatch, dataset, defect
):
    rewrite, fragment = DEFECTS[defect]
    with OutsourcedDB(dataset, scheme="sae", design=PhysicalDesign(shards=3)).setup() as db:
        victim = 1
        install(monkeypatch, db.provider.shard(victim), rewrite)
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
