"""Length-prefixed binary wire codec for serving a scheme over sockets.

PRs 1-3 kept every deployment in-process: the "network" was a set of
byte-counting :class:`~repro.network.channel.Channel` objects.  This module
is the real serving surface's vocabulary -- the frames a
:class:`~repro.network.server.SchemeServer` and a
:class:`~repro.network.client.RemoteSchemeClient` exchange over a TCP
stream:

* a self-describing **value codec** (None/bool/int/float/str/bytes plus
  lists and dicts, every field length-prefixed, no pickling and therefore
  nothing executable crossing the wire);
* **frames** -- an 8-byte header (magic, protocol version, frame kind,
  payload length) followed by one encoded value; :func:`read_frame` is the
  asyncio-side incremental reader;
* codecs for the domain objects that cross the wire: range-query requests,
  :class:`~repro.core.updates.UpdateBatch`, and -- the part the paper cares
  about -- the full per-request :class:`~repro.core.pipeline.QueryReceipt`
  (party cost receipts, per-channel bytes, shard legs), so a remote caller
  can check the same ``matches_leg_sums`` invariant an in-process caller
  can;
* :class:`RemoteQueryOutcome` -- the client-side view of a served query,
  shaped like the in-process outcome objects (``verified``, ``records``,
  ``cardinality``, ``receipt``, per-party accesses) so the load driver and
  the benchmark gate consume local and remote outcomes identically.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import CostReceipt, QueryReceipt, ShardLegReceipt
from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch
from repro.crypto.encoding import EncodingError, encode_record, shape_decoder
from repro.dbms.query import RangeQuery


class WireError(ValueError):
    """Raised for malformed, truncated or oversized wire data."""


# ---------------------------------------------------------------------- values
_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(bytes([_TAG_NONE]))
    elif value is True:
        out.append(bytes([_TAG_TRUE]))
    elif value is False:
        out.append(bytes([_TAG_FALSE]))
    elif isinstance(value, int):
        size = max(1, (abs(value).bit_length() + 8) // 8)  # room for the sign
        payload = value.to_bytes(size, "big", signed=True)
        out.append(bytes([_TAG_INT]) + _U32.pack(len(payload)) + payload)
    elif isinstance(value, float):
        out.append(bytes([_TAG_FLOAT]) + _F64.pack(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out.append(bytes([_TAG_STR]) + _U32.pack(len(payload)) + payload)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        payload = bytes(value)
        out.append(bytes([_TAG_BYTES]) + _U32.pack(len(payload)) + payload)
    elif isinstance(value, (list, tuple)):
        out.append(bytes([_TAG_LIST]) + _U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(bytes([_TAG_DICT]) + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        raise WireError(f"cannot encode {type(value).__name__} values on the wire")


def encode_value(value: Any) -> bytes:
    """Canonical binary encoding of a JSON-like value tree."""
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise WireError("truncated value: missing type tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        if offset + _F64.size > len(data):
            raise WireError("truncated float value")
        return _F64.unpack_from(data, offset)[0], offset + _F64.size
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_DICT):
        if offset + _U32.size > len(data):
            raise WireError("truncated value: missing length")
        length = _U32.unpack_from(data, offset)[0]
        offset += _U32.size
        if tag == _TAG_LIST:
            items = []
            for _ in range(length):
                item, offset = _decode_value(data, offset)
                items.append(item)
            return items, offset
        if tag == _TAG_DICT:
            mapping = {}
            for _ in range(length):
                key, offset = _decode_value(data, offset)
                item, offset = _decode_value(data, offset)
                mapping[key] = item
            return mapping, offset
        if offset + length > len(data):
            raise WireError("truncated value payload")
        payload = data[offset:offset + length]
        offset += length
        if tag == _TAG_INT:
            return int.from_bytes(payload, "big", signed=True), offset
        if tag == _TAG_STR:
            return payload.decode("utf-8"), offset
        return payload, offset
    raise WireError(f"unknown value tag 0x{tag:02x}")


def decode_value(data: bytes) -> Any:
    """Decode one value and require the buffer to be fully consumed.

    Every malformed payload surfaces as :class:`WireError` -- including
    invalid UTF-8 in a string field, unhashable dictionary keys, and
    nesting deep enough to exhaust the recursion limit -- so a server can
    treat "any WireError" as "desynced or hostile peer" without a second
    exception taxonomy leaking out of the codec.
    """
    try:
        value, offset = _decode_value(data, 0)
    except WireError:
        raise
    except (UnicodeDecodeError, TypeError, RecursionError) as exc:
        raise WireError(f"malformed value payload: {exc}") from exc
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after value")
    return value


# ---------------------------------------------------------------------- frames
#: Frame header: magic, protocol version, frame kind, payload length.
FRAME_HEADER = struct.Struct(">2sBBI")

#: Magic bytes opening every frame (cheap stream-desync detection).
FRAME_MAGIC = b"\xa5\xae"

#: Wire protocol version; bumped on incompatible codec changes.  Version 2
#: ships an outcome's records as one record block (see :func:`records_to_wire`).
WIRE_VERSION = 2

#: Refuse frames above this payload size (a corrupt length prefix must not
#: make the reader try to allocate gigabytes).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

# Request frame kinds.
FRAME_QUERY = 0x01
FRAME_QUERY_MANY = 0x02
FRAME_UPDATE = 0x03
FRAME_STORAGE_REPORT = 0x04
FRAME_PING = 0x05
#: Checkpoint the served deployment to its data directory (``OK`` reply with
#: the snapshotted epoch) -- what a live migration uses to bound how much
#: journal a crashed child needs replayed.
FRAME_SNAPSHOT = 0x06
#: Stream the deployment's authoritative record set in offset/limit chunks
#: (``RECORDS`` reply).  Payload: ``{"offset", "limit"}``.
FRAME_EXPORT = 0x07

# Response frame kinds.
FRAME_OUTCOME = 0x11
FRAME_OUTCOMES = 0x12
FRAME_OK = 0x13
FRAME_REPORT = 0x14
#: One ``EXPORT`` chunk: ``{"records", "total", "epoch"}``.
FRAME_RECORDS = 0x15
#: The server's deployment is older than the client's ``min_epoch`` floor --
#: a *freshness* refusal (distinct from the generic ``ERROR`` frame so that
#: callers can retry against a fresher replica instead of failing the query).
#: Payload: ``{"error", "message", "epoch", "min_epoch"}``.
FRAME_FRESHNESS = 0x1E
FRAME_ERROR = 0x1F


def encode_frame(kind: int, payload: Any) -> bytes:
    """Encode one frame: header plus the encoded payload value."""
    body = encode_value(payload)
    if len(body) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit"
        )
    return FRAME_HEADER.pack(FRAME_MAGIC, WIRE_VERSION, kind, len(body)) + body


def decode_frame_header(header: bytes) -> Tuple[int, int]:
    """Validate a frame header; returns ``(kind, payload_length)``."""
    magic, version, kind, length = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise WireError(f"bad frame magic {magic!r} (stream out of sync?)")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} (speaking {WIRE_VERSION})")
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"frame payload of {length} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte limit"
        )
    return kind, length


async def read_frame(reader: "asyncio.StreamReader") -> Optional[Tuple[int, Any]]:
    """Read one frame from an asyncio stream.

    Returns ``(kind, payload)``, or ``None`` on a clean EOF at a frame
    boundary.  A connection dropped mid-frame raises :class:`WireError`.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid-frame (truncated header)") from exc
    kind, length = decode_frame_header(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid-frame (truncated payload)") from exc
    return kind, decode_value(body)


# ---------------------------------------------------------------------- receipts
def _cost_to_wire(cost: CostReceipt) -> Dict[str, Any]:
    payload = {
        "accesses": cost.node_accesses,
        "cpu_ms": cost.cpu_ms,
        "io_ms": cost.io_cost_ms,
    }
    # Physical buffer-pool counters (paged storage tier); omitted when all
    # zero so memory-tier frames keep their historical byte size.
    if cost.pool_hits or cost.pool_misses or cost.pool_evictions:
        payload["pool"] = [cost.pool_hits, cost.pool_misses, cost.pool_evictions]
    # Record-memo counters; omitted when all zero for the same reason.
    if cost.memo_hits or cost.memo_misses:
        payload["memo"] = [cost.memo_hits, cost.memo_misses]
    return payload


def _cost_from_wire(payload: Dict[str, Any]) -> CostReceipt:
    pool = payload.get("pool") or (0, 0, 0)
    if not (isinstance(pool, (list, tuple)) and len(pool) == 3):
        raise WireError(f"malformed pool counters {pool!r} in cost receipt")
    memo = payload.get("memo") or (0, 0)
    if not (isinstance(memo, (list, tuple)) and len(memo) == 2):
        raise WireError(f"malformed memo counters {memo!r} in cost receipt")
    return CostReceipt(
        node_accesses=int(payload["accesses"]),
        cpu_ms=float(payload["cpu_ms"]),
        io_cost_ms=float(payload["io_ms"]),
        pool_hits=int(pool[0]),
        pool_misses=int(pool[1]),
        pool_evictions=int(pool[2]),
        memo_hits=int(memo[0]),
        memo_misses=int(memo[1]),
    )


def _query_to_wire(query: RangeQuery) -> Dict[str, Any]:
    return {"low": query.low, "high": query.high, "attribute": query.attribute}


def _query_from_wire(payload: Dict[str, Any]) -> RangeQuery:
    low, high = payload["low"], payload["high"]
    attribute = payload["attribute"]
    if low is not None and high is not None and low > high:
        # Reversed bounds never pass RangeQuery's validation; the receipt of
        # a degenerate (empty) query still carries the requested bounds.
        return RangeQuery.degenerate(low, high, attribute)
    return RangeQuery(low=low, high=high, attribute=attribute)


def receipt_to_wire(receipt: QueryReceipt) -> Dict[str, Any]:
    """Serialize a :class:`QueryReceipt`, shard legs and channel bytes included."""
    return {
        "query": _query_to_wire(receipt.query),
        "sp": _cost_to_wire(receipt.sp),
        "te": _cost_to_wire(receipt.te),
        "auth_bytes": receipt.auth_bytes,
        "result_bytes": receipt.result_bytes,
        "client_cpu_ms": receipt.client_cpu_ms,
        "bytes_by_channel": dict(receipt.bytes_by_channel),
        "legs": [_leg_to_wire(leg) for leg in receipt.legs],
    }


def _leg_to_wire(leg: ShardLegReceipt) -> Dict[str, Any]:
    payload = {
        "shard": leg.shard,
        "sp": _cost_to_wire(leg.sp),
        "te": _cost_to_wire(leg.te),
        "auth_bytes": leg.auth_bytes,
        "result_bytes": leg.result_bytes,
    }
    # Replication fields are omitted for the common case (primary served,
    # nothing failed over) so unreplicated frames keep their historical size.
    if leg.replica:
        payload["replica"] = leg.replica
    if leg.failed_replicas:
        payload["failed"] = list(leg.failed_replicas)
    return payload


def receipt_from_wire(payload: Dict[str, Any]) -> QueryReceipt:
    """Rebuild a :class:`QueryReceipt` (``matches_leg_sums`` works remotely)."""
    return QueryReceipt(
        query=_query_from_wire(payload["query"]),
        sp=_cost_from_wire(payload["sp"]),
        te=_cost_from_wire(payload["te"]),
        auth_bytes=int(payload["auth_bytes"]),
        result_bytes=int(payload["result_bytes"]),
        client_cpu_ms=float(payload["client_cpu_ms"]),
        bytes_by_channel=dict(payload["bytes_by_channel"]),
        legs=tuple(
            ShardLegReceipt(
                shard=int(leg["shard"]),
                sp=_cost_from_wire(leg["sp"]),
                te=_cost_from_wire(leg["te"]),
                auth_bytes=int(leg["auth_bytes"]),
                result_bytes=int(leg["result_bytes"]),
                replica=int(leg.get("replica", 0)),
                failed_replicas=tuple(int(r) for r in leg.get("failed", ())),
            )
            for leg in payload["legs"]
        ),
    )


# ---------------------------------------------------------------------- outcomes
def records_to_wire(payloads: Sequence[bytes]) -> bytes:
    """The record block: for each record, a u32 length, then its canonical bytes.

    The payloads are the bytes the SP's heap file stores and the client
    opened; they are framed as they are, never re-encoded.
    """
    pack = _U32.pack
    return b"".join([part for payload in payloads for part in (pack(len(payload)), payload)])


def records_from_wire(block: Any) -> Tuple[Tuple[Tuple[Any, ...], ...], Tuple[bytes, ...]]:
    """Split a record block and decode it: ``(records, payloads)``.

    Every length word is checked against the bytes that remain before
    anything is sliced, and the records decode through one
    ``shape_decoder``.  A truncated length word, a length past the block's
    end and an undecodable record (trailing bytes included) raise
    :class:`WireError`.
    """
    if type(block) is not bytes:
        raise WireError(f"record block is {type(block).__name__}, not bytes")
    size = len(block)
    offset = 0
    records: List[Tuple[Any, ...]] = []
    payloads: List[bytes] = []
    decode = shape_decoder()
    unpack_length = _U32.unpack_from
    while offset < size:
        if size - offset < _U32.size:
            raise WireError(
                f"truncated record length word: {size - offset} bytes left in the record block"
            )
        (length,) = unpack_length(block, offset)
        offset += _U32.size
        if length > size - offset:
            raise WireError(
                f"record of {length} bytes runs past the record block "
                f"({size - offset} bytes remain)"
            )
        payload = block[offset:offset + length]
        offset += length
        try:
            records.append(decode(payload))
        except EncodingError as exc:
            raise WireError(f"undecodable record in the record block: {exc}") from None
        payloads.append(payload)
    return tuple(records), tuple(payloads)


@dataclass(frozen=True)
class RemoteQueryOutcome:
    """The client-side view of one query served over the network.

    Shaped like the in-process outcome objects (:class:`QueryOutcome` /
    :class:`TomQueryOutcome`): the load driver, the scaling model and the
    benchmark gate read ``verified``, ``records``, ``cardinality``,
    ``receipt`` and the per-party access counts without caring whether the
    query ran in-process or over a socket.  ``payloads`` are the canonical
    record bytes received, one per record: ``records`` are decoded from them.
    """

    records: Tuple[Tuple[Any, ...], ...]
    verified: bool
    reason: str
    scheme: str
    receipt: Optional[QueryReceipt]
    #: Whether the rejection was a *freshness* violation (a replica answering
    #: from an old signed epoch) rather than tampering; always ``False`` for
    #: verified outcomes.
    freshness_violation: bool = False
    #: The server's update epoch while this query executed, when the server
    #: could pin it to a single definite value (its epoch was the same before
    #: and after execution).  ``None`` for pre-epoch servers *and* for torn
    #: reads -- the scatter-gather router uses this to demand that every leg
    #: of one query was served at the same epoch during a live migration.
    server_epoch: Optional[int] = None
    #: The server observed its epoch *change* while executing this query (a
    #: concurrent update/migration barrier landed mid-read).
    epoch_torn: bool = False
    payloads: Tuple[bytes, ...] = ()

    @property
    def cardinality(self) -> int:
        """Number of records the SP returned."""
        return len(self.records)

    @property
    def query(self) -> Optional[RangeQuery]:
        """The served query (from the receipt)."""
        return self.receipt.query if self.receipt is not None else None

    @property
    def sp_accesses(self) -> int:
        """Node accesses charged at the SP (summed over shard legs)."""
        return self.receipt.sp.node_accesses if self.receipt is not None else 0

    @property
    def te_accesses(self) -> int:
        """Node accesses charged at the TE (0 for schemes without one)."""
        return self.receipt.te.node_accesses if self.receipt is not None else 0

    @property
    def sp_cost_ms(self) -> float:
        """Simulated SP I/O cost in milliseconds."""
        return self.receipt.sp.io_cost_ms if self.receipt is not None else 0.0

    @property
    def te_cost_ms(self) -> float:
        """Simulated TE I/O cost in milliseconds."""
        return self.receipt.te.io_cost_ms if self.receipt is not None else 0.0

    @property
    def auth_bytes(self) -> int:
        """Authentication bytes (VT or VO) shipped for this query."""
        return self.receipt.auth_bytes if self.receipt is not None else 0

    @property
    def result_bytes(self) -> int:
        """Result payload bytes shipped for this query."""
        return self.receipt.result_bytes if self.receipt is not None else 0

    @property
    def client_cpu_ms(self) -> float:
        """Measured client-side verification CPU time."""
        return self.receipt.client_cpu_ms if self.receipt is not None else 0.0


def outcome_to_wire(
    outcome: Any,
    scheme: str = "",
    epoch: Optional[int] = None,
    torn: bool = False,
) -> Dict[str, Any]:
    """Serialize an in-process query outcome for the wire.

    ``epoch`` stamps the outcome with the definite update epoch it was
    served at; ``torn`` marks an outcome whose serving epoch changed
    mid-execution (the two are mutually exclusive -- a torn outcome carries
    no definite epoch).  Both are omitted when unset, so pre-migration
    frames keep their historical size.

    ``"records"`` is the record block of the payloads the outcome's client
    opened (:func:`records_to_wire`), framed without re-encoding.  Only a
    records-only view, which carries no received bytes, is encoded here.
    """
    receipt = outcome.receipt
    # A RemoteQueryOutcome (say, a router's merge) carries its verdict itself.
    verification = getattr(outcome, "verification", outcome)
    payloads = getattr(outcome, "payloads", None)
    if payloads is None:
        payloads = [encode_record(record) for record in outcome.records]
    elif len(payloads) != len(outcome.records):
        raise WireError(
            f"outcome carries {len(outcome.records)} records but {len(payloads)} payloads"
        )
    payload = {
        "records": records_to_wire(payloads),
        "verified": bool(outcome.verified),
        "reason": str(getattr(verification, "reason", "")),
        "scheme": scheme,
        "receipt": receipt_to_wire(receipt) if receipt is not None else None,
    }
    # Omitted unless set, so honest-path frames keep their historical size.
    details = getattr(verification, "details", None) or {}
    if details.get("freshness_violation") or getattr(outcome, "freshness_violation", False):
        payload["freshness"] = True
    if torn:
        payload["torn"] = True
    elif epoch is not None:
        payload["epoch"] = int(epoch)
    return payload


def outcome_from_wire(payload: Dict[str, Any]) -> RemoteQueryOutcome:
    """Rebuild the client-side view of a served outcome."""
    receipt_payload = payload["receipt"]
    records, payloads = records_from_wire(payload["records"])
    return RemoteQueryOutcome(
        records=records,
        payloads=payloads,
        verified=bool(payload["verified"]),
        reason=str(payload["reason"]),
        scheme=str(payload.get("scheme", "")),
        receipt=receipt_from_wire(receipt_payload) if receipt_payload is not None else None,
        freshness_violation=bool(payload.get("freshness", False)),
        server_epoch=(
            int(payload["epoch"]) if payload.get("epoch") is not None else None
        ),
        epoch_torn=bool(payload.get("torn", False)),
    )


# ---------------------------------------------------------------------- updates
def update_batch_to_wire(batch: UpdateBatch) -> List[Dict[str, Any]]:
    """Serialize an :class:`UpdateBatch` as a list of tagged operations."""
    operations: List[Dict[str, Any]] = []
    for operation in batch.operations:
        if isinstance(operation, InsertRecord):
            operations.append({"op": "insert", "fields": list(operation.fields)})
        elif isinstance(operation, DeleteRecord):
            operations.append({"op": "delete", "record_id": operation.record_id})
        elif isinstance(operation, ModifyRecord):
            operations.append({"op": "modify", "fields": list(operation.fields)})
        else:
            raise WireError(
                f"cannot encode update operation {type(operation).__name__} on the wire"
            )
    return operations


def update_batch_from_wire(payload: Sequence[Dict[str, Any]]) -> UpdateBatch:
    """Rebuild an :class:`UpdateBatch` from its wire form."""
    batch = UpdateBatch()
    for operation in payload:
        op = operation.get("op")
        if op == "insert":
            batch.insert(tuple(operation["fields"]))
        elif op == "delete":
            batch.delete(operation["record_id"])
        elif op == "modify":
            batch.modify(tuple(operation["fields"]))
        else:
            raise WireError(f"unknown update operation {op!r}")
    return batch
