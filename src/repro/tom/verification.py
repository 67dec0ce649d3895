"""Client-side verification of TOM verification objects.

The client receives the result set from the SP -- the records' canonical
bytes, as the heap file stores them -- together with a VO.  It re-derives
the MB-tree root digest bottom-up: the result payloads it received and the
boundary records are hashed locally, pruned entries contribute the digests
embedded in the VO, and each expanded node's digest is the hash of the
concatenation of its items' digests.  The walk runs on raw digest bytes; the
reconstructed root digest is checked against the data owner's signature.
The payloads are decoded once, only for the key-range check.

Soundness follows from collision resistance (a tampered or fabricated record
would change a leaf digest and hence the root).  Completeness follows from
the two boundary records plus the *contiguity* of the revealed block: every
pruned digest lies entirely before the left boundary or after the right
boundary in key order, so it cannot hide a qualifying record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.crypto.digest import Digest, DigestScheme, default_scheme
from repro.crypto.encoding import EncodingError, encode_record, shape_decoder
from repro.crypto.signatures import Verifier
from repro.tom.vo import (
    VerificationObject,
    VOBoundary,
    VODigest,
    VOItem,
    VOResultMarker,
    VOSubtree,
)


@dataclass
class VerificationReport:
    """Outcome of a TOM client verification.

    ``records`` are the tuples the client decoded from the payloads it
    received, and ``payloads`` those bytes, one per record; a verdict
    reached before every payload was hashed and decoded carries neither.
    """

    ok: bool
    reason: str = "verified"
    records_hashed: int = 0
    digests_supplied: int = 0
    boundaries: int = 0
    recomputed_root: Optional[Digest] = None
    details: dict = field(default_factory=dict)
    records: List[Tuple[Any, ...]] = field(default_factory=list)
    payloads: Sequence[bytes] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def open_payloads(payloads: Sequence[bytes]) -> Tuple[List[Tuple[Any, ...]], Optional[str]]:
    """Decode result payloads through one ``shape_decoder``: ``(records, defect)``.

    Anything that is not a byte string or does not decode comes back as a
    ``defect`` naming it (with no records), never as an exception.
    """
    decode = shape_decoder()
    records: List[Tuple[Any, ...]] = []
    append = records.append
    for payload in payloads:
        if type(payload) is not bytes:
            return [], f"result item of type {type(payload).__name__} is not a byte string"
        try:
            append(decode(payload))
        except EncodingError as exc:
            return [], f"undecodable record payload: {exc}"
    return records, None


class _Walker:
    """Single in-order pass over the VO: digest reconstruction plus bookkeeping.

    Digests are raw ``bytes`` throughout; only the root becomes a
    :class:`~repro.crypto.digest.Digest`, for the signature check.
    """

    def __init__(self, payloads: Sequence[bytes], key_index: int, scheme: DigestScheme):
        self.payloads = payloads
        self.key_index = key_index
        self.hasher = scheme.hasher
        self.digest_size = scheme.digest_size
        self.next_record = 0
        self.records_hashed = 0
        self.digests_supplied = 0
        self.flat_kinds: List[str] = []          # "digest", "marker", "boundary"
        self.boundary_keys: List[Tuple[int, Any]] = []  # (flat position, key)
        self.error: Optional[str] = None
        # What a report hands on: set once every payload has decoded.
        self.records: List[Tuple[Any, ...]] = []
        self.opened: Sequence[bytes] = []

    def node_digest(self, items: Sequence[VOItem]) -> Optional[bytes]:
        """The hash of the node's items' digests (``None`` once ``error`` is set).

        A 0.5 % range's VO holds about 235 pruned digests and 100 result
        markers, so those two are dispatched inline on the exact item type.
        """
        parts: List[bytes] = []
        append = parts.append
        kinds = self.flat_kinds
        for item in items:
            kind = type(item)
            if kind is VODigest:
                kinds.append("digest")
                self.digests_supplied += 1
                digest = item.digest
                if type(digest) is not bytes or len(digest) != self.digest_size:
                    self.error = "malformed digest in VO"
                    return None
            elif kind is VOResultMarker:
                kinds.append("marker")
                if self.next_record >= len(self.payloads):
                    self.error = "VO references more result records than were returned"
                    return None
                payload = self.payloads[self.next_record]
                if type(payload) is not bytes:
                    self.error = f"result item of type {type(payload).__name__} is not a byte string"
                    return None
                self.next_record += 1
                self.records_hashed += 1
                digest = self.hasher(payload).digest()
            elif kind is VOBoundary:
                digest = self.boundary_digest(item)
            elif kind is VOSubtree:
                digest = self.node_digest(item.items)
            else:
                self.error = f"unknown VO item type {kind.__name__}"
                return None
            if digest is None:
                return None
            append(digest)
        return self.hasher(b"".join(parts)).digest()

    def boundary_digest(self, item: VOBoundary) -> Optional[bytes]:
        position = len(self.flat_kinds)
        self.flat_kinds.append("boundary")
        try:
            key = item.fields[self.key_index]
        except (IndexError, TypeError):
            self.error = "boundary record does not contain the query attribute"
            return None
        try:
            encoded = encode_record(item.fields)
        except (TypeError, EncodingError) as exc:
            self.error = f"boundary record cannot be encoded: {exc}"
            return None
        self.boundary_keys.append((position, key))
        self.records_hashed += 1
        return self.hasher(encoded).digest()


def verify_vo(
    vo: VerificationObject,
    payloads: Sequence[bytes],
    low: Any,
    high: Any,
    verifier: Verifier,
    key_index: int,
    scheme: Optional[DigestScheme] = None,
) -> VerificationReport:
    """Verify a TOM result set against its verification object.

    Parameters
    ----------
    vo:
        The verification object returned by the SP.
    payloads:
        The result records' canonical bytes, in the order the SP returned
        them.  Each is hashed as received (``scheme.hasher(p).digest()``)
        and decoded once, for the key-range check.
    low, high:
        The range-query bounds the client asked for.
    verifier:
        Signature verifier holding the data owner's public key.
    key_index:
        Position of the query attribute within each record.
    scheme:
        Digest scheme (defaults to the paper's 20-byte digests).

    Returns
    -------
    VerificationReport
        ``ok`` is ``True`` only if the result is provably sound and complete.
        A payload that is not a byte string or does not decode is a
        rejection naming the defect, never an exception.
    """
    scheme = scheme or default_scheme()
    walker = _Walker(payloads, key_index, scheme)

    root = walker.node_digest(vo.items)
    if walker.error is not None:
        return _failure(walker, walker.error)
    # Decoded before the checks so that every verdict after the walk hands
    # on the records; a decode defect is reported after the root check.
    records, defect = open_payloads(payloads)
    if defect is None:
        walker.records, walker.opened = records, payloads
    root_digest = Digest(root, scheme=scheme)

    # 1. Signature check over the reconstructed root digest.
    if not verifier.verify(root_digest, vo.signature):
        return _failure(walker, "root digest does not match the owner's signature",
                        root_digest)

    # 2. Every returned record must have been consumed by a marker, and
    #    every marker must have consumed a record.
    if walker.next_record != len(payloads):
        return _failure(
            walker,
            f"{len(payloads) - walker.next_record} returned records are not "
            "covered by the VO",
            root_digest,
        )

    # 3. Every result record must decode, and its key satisfy the query.
    if defect is not None:
        return _failure(walker, defect, root_digest)
    for record in records:
        try:
            key = record[key_index]
            inside = low <= key <= high
        except IndexError:
            return _failure(walker, "result record does not contain the query attribute",
                            root_digest)
        except TypeError:
            return _failure(walker, "result record key is not comparable with the query bounds",
                            root_digest)
        if not inside:
            return _failure(walker, f"result record key {key!r} is outside the query range",
                            root_digest)

    # 4. Completeness: the revealed block must be contiguous and anchored by
    #    boundary records (or by the edges of the tree).
    kinds = walker.flat_kinds
    non_digest_positions = [i for i, kind in enumerate(kinds) if kind != "digest"]
    if non_digest_positions:
        first, last = non_digest_positions[0], non_digest_positions[-1]
        if any(kinds[i] == "digest" for i in range(first, last + 1)):
            return _failure(walker, "pruned digests interleave the revealed block "
                                    "(possible hidden qualifying records)",
                            root_digest)
        left_anchor = kinds[first] == "boundary"
        right_anchor = kinds[last] == "boundary"
        if not left_anchor and first != 0:
            return _failure(walker, "no left boundary record and the result does not start "
                                    "at the beginning of the dataset",
                            root_digest)
        if not right_anchor and last != len(kinds) - 1:
            return _failure(walker, "no right boundary record and the result does not end "
                                    "at the end of the dataset",
                            root_digest)
    else:
        # No markers and no boundaries: only valid for an empty dataset.
        if kinds and not payloads:
            return _failure(walker, "empty result with no boundary records over a "
                                    "non-empty dataset",
                            root_digest)

    # 5. Boundary keys must actually lie outside the query range, on the
    #    correct side of the revealed block.
    marker_positions = [i for i, kind in enumerate(kinds) if kind == "marker"]
    first_marker = marker_positions[0] if marker_positions else None
    last_marker = marker_positions[-1] if marker_positions else None
    if len(walker.boundary_keys) > 2:
        return _failure(walker, "more than two boundary records in the VO",
                        root_digest)
    for position, key in walker.boundary_keys:
        if first_marker is None:
            # Empty result: one boundary below the range, one above.
            if not (key < low or key > high):
                return _failure(walker, f"boundary key {key!r} lies inside the query range",
                                root_digest)
        elif position < first_marker:
            if not (key < low):
                return _failure(walker, f"left boundary key {key!r} is not below the query range",
                                root_digest)
        elif position > last_marker:
            if not (key > high):
                return _failure(walker, f"right boundary key {key!r} is not above the query range",
                                root_digest)
        else:
            return _failure(walker, "boundary record appears inside the result block",
                            root_digest)
    if first_marker is None and len(walker.boundary_keys) == 2:
        keys = [key for _, key in walker.boundary_keys]
        if not (keys[0] < low and keys[1] > high):
            return _failure(walker, "empty result is not enclosed by boundary records",
                            root_digest)

    return _report(walker, True, "verified", root_digest)


def _failure(walker: _Walker, reason: str, recomputed_root: Optional[Digest] = None) -> VerificationReport:
    return _report(walker, False, reason, recomputed_root)


def _report(
    walker: _Walker, ok: bool, reason: str, recomputed_root: Optional[Digest]
) -> VerificationReport:
    return VerificationReport(
        ok=ok,
        reason=reason,
        records_hashed=walker.records_hashed,
        digests_supplied=walker.digests_supplied,
        boundaries=len(walker.boundary_keys),
        recomputed_root=recomputed_root,
        records=walker.records,
        payloads=walker.opened,
    )
