"""The SAE client.

The client receives the result set from the SP and the verification token
from the TE.  It recomputes ``RS_SP⊕`` -- the XOR of the digests of the
records it actually received -- and accepts the result iff that value equals
the token.  The cost is one digest per received record plus ``|RS|`` XORs,
which is the quantity plotted in Figure 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.epoch import classify_epoch
from repro.crypto.digest import Digest, DigestScheme, default_scheme
from repro.crypto.encoding import EncodingError, shape_decoder
from repro.dbms.query import RangeQuery


@dataclass
class SAEVerificationResult:
    """Outcome of an SAE client-side verification.

    A *skipped* verification (the caller asked for no verification at all)
    is explicitly distinct from a successful one: ``ok`` is ``False`` and
    ``skipped`` is ``True``, so an unverified result can never be mistaken
    for a verified one.

    ``records`` are the tuples the client itself decoded from the payload
    bytes it received (and, unless skipped, hashed), and ``payloads`` those
    bytes, one per record; a verdict reached before the token comparison
    carries neither.  ``cpu_ms`` covers the hash, the XOR fold *and* the
    decode the range check needs -- no re-encoding; a result of same-shape
    records is decoded one unpack per record through a compiled
    ``RecordLayout``.
    """

    ok: bool
    computed: Digest
    token: Digest
    records_hashed: int
    cpu_ms: float = 0.0
    reason: str = "verified"
    details: dict = field(default_factory=dict)
    skipped: bool = False
    records: List[Tuple[Any, ...]] = field(default_factory=list)
    payloads: Sequence[bytes] = field(default_factory=list)

    @classmethod
    def skipped_result(cls, scheme: DigestScheme) -> "SAEVerificationResult":
        """The explicit "verification was not performed" outcome."""
        return cls(
            ok=False,
            computed=scheme.zero(),
            token=scheme.zero(),
            records_hashed=0,
            reason="verification skipped",
            skipped=True,
        )

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class Client:
    """The querying party of SAE.

    All it takes from the SP are the result payloads (canonical record bytes)
    and the signed epoch stamp: it hashes the bytes it received and decodes
    them itself; ``key_index`` and ``arity`` are what it knows of the schema.
    """

    def __init__(
        self,
        scheme: Optional[DigestScheme] = None,
        key_index: Optional[int] = None,
        arity: Optional[int] = None,
    ):
        self._scheme = scheme or default_scheme()
        self._key_index = key_index
        self._arity = arity

    @property
    def scheme(self) -> DigestScheme:
        """Digest scheme shared with the TE."""
        return self._scheme

    def _digest_of(self, value: int) -> Digest:
        return self._scheme.from_bytes(value.to_bytes(self._scheme.digest_size, "big"))

    def _open(
        self,
        payloads: Sequence[bytes],
        digest_cache: Optional[Dict[bytes, Tuple[Tuple[Any, ...], int]]],
        hashed: bool,
    ) -> Tuple[List[Tuple[Any, ...]], int, Optional[str]]:
        """Decode (and hash) what the SP sent: ``(records, digest XOR, defect)``.

        The payloads are untrusted: anything that is not the encoding of a
        record of the relation's arity comes back as a ``defect`` naming
        it (with no records), never as an exception.

        The decode runs through one ``shape_decoder`` per call: from the
        second of two consecutive payloads of one length on, a payload is
        read in one unpack through the first one's compiled
        ``RecordLayout``.  The layout lives for this call only.
        """
        hasher, arity = self._scheme.hasher, self._arity
        records: List[Tuple[Any, ...]] = []
        append = records.append
        value = 0
        decode = shape_decoder()
        for payload in payloads:
            if type(payload) is not bytes:
                return [], 0, f"result item of type {type(payload).__name__} is not a byte string"
            opened = digest_cache.get(payload) if digest_cache is not None else None
            if opened is None:
                try:
                    record = decode(payload)
                except EncodingError as exc:
                    return [], 0, f"undecodable record payload: {exc}"
                if arity is not None and len(record) != arity:
                    return [], 0, (
                        f"record payload has {len(record)} fields, the relation has {arity}"
                    )
                digest = int.from_bytes(hasher(payload).digest(), "big") if hashed else 0
                opened = (record, digest)
                if digest_cache is not None:
                    digest_cache[payload] = opened
            append(opened[0])
            value ^= opened[1]
        return records, value, None

    def _out_of_range(self, records: List[Tuple[Any, ...]], query: RangeQuery) -> Optional[str]:
        """Name the first decoded key that does not satisfy ``query``."""
        key_index = self._key_index
        for record in records:
            try:
                key = record[key_index]
                inside = query.contains(key)
            except (IndexError, TypeError):
                return "record payload has no key comparable with the query bounds"
            if not inside:
                return f"record key {key!r} falls outside the query range"
        return None

    def _rejected(
        self, started: float, token: Digest, reason: str, details: Optional[dict] = None
    ) -> SAEVerificationResult:
        """A verdict reached before the token comparison: nothing is handed on."""
        return SAEVerificationResult(
            ok=False,
            computed=self._scheme.zero(),
            token=token,
            records_hashed=0,
            cpu_ms=(time.perf_counter() - started) * 1000.0,
            reason=reason,
            details=details or {},
        )

    def verify(
        self,
        payloads: Sequence[bytes],
        token: Optional[Digest],
        query: Optional[RangeQuery] = None,
        digest_cache: Optional[Dict[bytes, Tuple[Tuple[Any, ...], int]]] = None,
        epoch_stamp: Optional[Any] = None,
        expected_epoch: Optional[int] = None,
        epoch_verifier: Optional[Any] = None,
    ) -> SAEVerificationResult:
        """Verify the result payloads an SP sent against the TE's token.

        When ``expected_epoch`` and ``epoch_verifier`` are given, the SP's
        signed update-epoch stamp is checked *first*: a replica answering
        from an old epoch produces internally consistent records whose XOR
        would match a token over the same old state, so only the stamp can
        expose it.  The failure is reported with
        ``details["freshness_violation"]`` set, distinct from tampering.

        The client then decodes every payload itself, checks (when ``query``
        is given) that each decoded query-attribute value satisfies the
        range, and compares the XOR of the digests of **the bytes it
        received** with the token.  From the second of two consecutive
        payloads of one length on, the decode is one ``struct`` unpack
        through the first one's compiled ``RecordLayout``; a payload of
        another shape goes to ``decode_record``, and both accept the same
        bytes.  A malformed payload -- including a non-canonical encoding
        of a genuine record, which ``decode_record`` refuses -- is a
        REJECTED verdict naming the first defect, never an exception.

        ``digest_cache`` (payload -> decoded record and digest) lets a
        batched caller decode and hash each distinct payload once across
        many overlapping results.  ``token=None`` means the caller asked for
        no verification: the payloads are only decoded and the outcome is
        the explicit *skipped* one.
        """
        started = time.perf_counter()
        if token is None:
            records, _, defect = self._open(payloads, None, hashed=False)
            result = SAEVerificationResult.skipped_result(self._scheme)
            result.records = records
            if defect is None:
                result.payloads = payloads
            else:
                result.reason = f"verification skipped; {defect}"
            result.cpu_ms = (time.perf_counter() - started) * 1000.0
            return result
        if expected_epoch is not None and epoch_verifier is not None:
            verdict = classify_epoch(epoch_stamp, expected_epoch, epoch_verifier)
            if not verdict.ok:
                return self._rejected(started, token, verdict.reason, verdict.details())
        records, value, defect = self._open(payloads, digest_cache, hashed=True)
        if defect is None and query is not None and self._key_index is not None:
            defect = self._out_of_range(records, query)
        if defect is not None:
            return self._rejected(started, token, defect)
        computed = self._digest_of(value)
        ok = computed == token
        return SAEVerificationResult(
            ok=ok,
            computed=computed,
            token=token,
            records_hashed=len(records),
            cpu_ms=(time.perf_counter() - started) * 1000.0,
            reason="verified" if ok else "result XOR does not match the verification token",
            records=records,
            payloads=payloads,
        )

    def verify_shards(
        self,
        legs: Sequence[Tuple],
        query: Optional[RangeQuery] = None,
        digest_cache: Optional[Dict[bytes, Tuple[Tuple[Any, ...], int]]] = None,
        expected_epoch: Optional[int] = None,
        epoch_verifier: Optional[Any] = None,
    ) -> SAEVerificationResult:
        """Verify the shard legs of a scattered query and merge the verdicts.

        ``legs`` is a sequence of ``(shard_id, payloads, token)`` triples --
        or ``(shard_id, payloads, token, epoch_stamp)`` quadruples when the
        caller wants per-leg freshness checking -- one per shard the query
        was scattered to.  Every leg is verified independently -- which
        pinpoints *which* shard tampered (or is stale) -- and the merged
        result is accepted iff every leg verifies.  The merged computed
        value and token are the XORs over the legs, so they equal exactly
        what a single-shard deployment would have produced for the same
        result set (the XOR aggregate is partition-independent); the merged
        records are the legs' decoded records in leg order.
        """
        started = time.perf_counter()
        leg_results: Dict[int, SAEVerificationResult] = {}
        merged_computed = self._scheme.zero()
        merged_token = self._scheme.zero()
        records: List[Tuple[Any, ...]] = []
        received: List[bytes] = []
        records_hashed = 0
        rejected = []
        freshness = False
        for leg in legs:
            shard_id, payloads, token = leg[0], leg[1], leg[2]
            stamp = leg[3] if len(leg) > 3 else None
            result = self.verify(
                payloads,
                token,
                query=query,
                digest_cache=digest_cache,
                epoch_stamp=stamp,
                expected_epoch=expected_epoch,
                epoch_verifier=epoch_verifier,
            )
            leg_results[shard_id] = result
            merged_computed = merged_computed ^ result.computed
            merged_token = merged_token ^ token
            records.extend(result.records)
            received.extend(result.payloads)
            records_hashed += result.records_hashed
            if not result.ok:
                rejected.append(shard_id)
                freshness = freshness or bool(result.details.get("freshness_violation"))
        elapsed = (time.perf_counter() - started) * 1000.0
        if rejected:
            reason = (
                f"shard(s) {', '.join(str(s) for s in sorted(rejected))} rejected: "
                + "; ".join(leg_results[s].reason for s in sorted(rejected))
            )
        else:
            reason = "verified"
        details: dict = {"shards": leg_results}
        if freshness:
            details["freshness_violation"] = True
        return SAEVerificationResult(
            ok=not rejected,
            computed=merged_computed,
            token=merged_token,
            records_hashed=records_hashed,
            cpu_ms=elapsed,
            reason=reason,
            details=details,
            records=records,
            payloads=received,
        )
