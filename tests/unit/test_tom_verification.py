"""Unit tests for TOM client-side verification (soundness and completeness)."""

import pytest

from repro.crypto.encoding import encode_record
from repro.crypto.xor import digest_of_record
from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.verification import verify_vo
from repro.tom.vo import VerificationObject, VODigest


def payloads_of(records):
    """What the SP ships: the records' canonical bytes."""
    return [encode_record(record) for record in records]


@pytest.fixture()
def world(rsa_pair):
    """A signed MB-tree over 80 records with key = 10 * id."""
    signer, verifier = rsa_pair
    records = {i: (i, i * 10, f"payload-{i}".encode()) for i in range(80)}
    tree = MBTree(layout=MBTreeLayout(page_size=256))
    tree.bulk_load(sorted((fields[1], rid, digest_of_record(fields))
                          for rid, fields in records.items()))
    tree.signature = signer.sign(tree.root_digest())
    return records, tree, verifier


def run_query(world, low, high):
    records, tree, verifier = world
    result, vo = tree.build_vo(low, high, record_loader=lambda rid: records[rid])
    result_records = [records[rid] for _, rid in result]
    return result_records, vo, verifier


class TestHonestResults:
    @pytest.mark.parametrize("bounds", [(200, 400), (0, 790), (-5, 5), (785, 2000),
                                        (333, 334), (201, 399)])
    def test_honest_result_verifies(self, world, bounds):
        low, high = bounds
        result_records, vo, verifier = run_query(world, low, high)
        report = verify_vo(vo, payloads_of(result_records), low, high, verifier=verifier, key_index=1)
        assert report.ok, report.reason

    def test_empty_result_verifies(self, world):
        result_records, vo, verifier = run_query(world, 101, 105)
        assert result_records == []
        report = verify_vo(vo, payloads_of(result_records), 101, 105, verifier=verifier, key_index=1)
        assert report.ok, report.reason

    def test_report_statistics(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert report.records_hashed == len(result_records) + report.boundaries
        assert report.digests_supplied == vo.count_digests()
        assert report.recomputed_root is not None


class TestSoundnessAttacks:
    def test_modified_record_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        result_records[0] = result_records[0][:2] + (b"tampered",)
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_injected_record_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        result_records.append((999, 250, b"forged"))
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_swapped_records_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        result_records[0], result_records[1] = result_records[1], result_records[0]
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_out_of_range_genuine_record_rejected(self, world):
        records, tree, verifier = world
        result, vo = tree.build_vo(200, 400, record_loader=lambda rid: records[rid])
        result_records = [records[rid] for _, rid in result]
        # Replace one result record with a *genuine* record outside the range.
        result_records[0] = records[79]
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_forged_signature_rejected(self, world, rsa_pair):
        records, tree, _ = world
        _, verifier = rsa_pair
        result, vo = tree.build_vo(200, 400, record_loader=lambda rid: records[rid])
        result_records = [records[rid] for _, rid in result]
        forged = VerificationObject(items=vo.items, is_leaf_root=vo.is_leaf_root,
                                    signature=vo.signature.__class__(
                                        scheme=vo.signature.scheme,
                                        value=b"\x00" * len(vo.signature.value)))
        report = verify_vo(forged, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok


class TestCompletenessAttacks:
    def test_dropped_record_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        del result_records[3]
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_dropped_record_with_patched_vo_rejected(self, world):
        """The SP drops a record *and* patches the VO to hide it behind a digest."""
        records, tree, verifier = world
        result, vo = tree.build_vo(200, 400, record_loader=lambda rid: records[rid])
        result_records = [records[rid] for _, rid in result]
        victim_index = 5
        victim = result_records.pop(victim_index)

        def patch(items, remaining):
            patched = []
            for item in items:
                if hasattr(item, "items"):
                    inner, remaining = patch(item.items, remaining)
                    patched.append(type(item)(items=tuple(inner), is_leaf=item.is_leaf))
                elif item.__class__.__name__ == "VOResultMarker":
                    if remaining == 0:
                        patched.append(VODigest(digest=digest_of_record(victim).raw))
                        remaining -= 1
                    else:
                        patched.append(item)
                        remaining -= 1
                else:
                    patched.append(item)
            return patched, remaining

        patched_items, _ = patch(vo.items, victim_index)
        patched_vo = VerificationObject(items=tuple(patched_items),
                                        is_leaf_root=vo.is_leaf_root,
                                        signature=vo.signature,
                                        query_low=vo.query_low, query_high=vo.query_high)
        report = verify_vo(patched_vo, payloads_of(result_records), 200, 400,
                           verifier=verifier, key_index=1)
        assert not report.ok
        assert "hidden" in report.reason or "digest" in report.reason

    def test_truncated_tail_rejected(self, world):
        """The SP pretends the result ends earlier than it does."""
        records, tree, verifier = world
        full_result, _ = tree.build_vo(200, 400, record_loader=lambda rid: records[rid])
        # Build an honest-looking VO for a *narrower* range and present it for
        # the client's wider query.
        narrow_result, narrow_vo = tree.build_vo(200, 300, record_loader=lambda rid: records[rid])
        narrow_records = [records[rid] for _, rid in narrow_result]
        assert len(narrow_records) < len(full_result)
        report = verify_vo(narrow_vo, payloads_of(narrow_records), 200, 400,
                           verifier=verifier, key_index=1)
        assert not report.ok

    def test_empty_result_claim_over_nonempty_range_rejected(self, world):
        records, tree, verifier = world
        # An honest VO for a truly-empty range, replayed for a range that
        # actually contains records.
        _, vo = tree.build_vo(101, 105, record_loader=lambda rid: records[rid])
        report = verify_vo(vo, payloads_of([]), 101, 505, verifier=verifier, key_index=1)
        assert not report.ok


class TestMalformedVO:
    def test_extra_result_records_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        result_records.append(result_records[-1])
        report = verify_vo(vo, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok

    def test_missing_result_records_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        report = verify_vo(vo, payloads_of(result_records[:-1]), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok
        assert "more result records" in report.reason

    def test_malformed_digest_rejected(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        broken = VerificationObject(items=(VODigest(digest=b"\x00" * 3),) + vo.items,
                                    is_leaf_root=vo.is_leaf_root, signature=vo.signature)
        report = verify_vo(broken, payloads_of(result_records), 200, 400, verifier=verifier, key_index=1)
        assert not report.ok


class _AcceptAnyRoot:
    """A verifier that lets any root past the signature check."""

    def verify(self, digest, signature):
        return True


class TestReceivedBytes:
    def test_report_hands_on_the_decoded_records_and_their_bytes(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        payloads = payloads_of(result_records)
        report = verify_vo(vo, payloads, 200, 400, verifier=verifier, key_index=1)
        assert report.ok
        assert report.records == result_records
        assert report.payloads == payloads

    def test_payload_that_is_not_bytes_is_a_rejection_naming_it(self, world):
        result_records, vo, verifier = run_query(world, 200, 400)
        payloads = payloads_of(result_records)
        payloads[1] = result_records[1]
        report = verify_vo(vo, payloads, 200, 400, verifier=verifier, key_index=1)
        assert not report.ok
        assert "result item of type tuple is not a byte string" in report.reason
        assert report.records == [] and report.payloads == []

    def test_undecodable_payload_is_a_rejection_naming_it(self, world):
        # Hostile bytes fail the root check first; with the signature check
        # out of the way, the decode names the defect.
        result_records, vo, verifier = run_query(world, 200, 400)
        payloads = payloads_of(result_records)
        payloads[1] += b"\x00"
        report = verify_vo(vo, payloads, 200, 400, verifier=verifier, key_index=1)
        assert report.reason == "root digest does not match the owner's signature"
        report = verify_vo(vo, payloads, 200, 400, verifier=_AcceptAnyRoot(), key_index=1)
        assert not report.ok
        assert "undecodable record payload: 1 trailing bytes after record" in report.reason
        assert report.records == []
