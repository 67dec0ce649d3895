"""Typed messages exchanged between the SAE / TOM parties.

Each message computes its own wire size from the canonical record encoding,
so the communication figures (Figure 5) are derived from the same byte
layout as the storage figures rather than from ad-hoc estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from repro.crypto.digest import Digest
from repro.crypto.encoding import encode_record
from repro.dbms.query import RangeQuery

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.tom.vo import VerificationObject

#: Fixed per-message framing overhead (type tag + length), charged uniformly.
MESSAGE_HEADER_BYTES = 8


class Message:
    """Base class: every message knows its payload size in bytes."""

    def payload_bytes(self) -> int:
        """Size of the message payload (excluding framing)."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Total wire size including the fixed framing overhead."""
        return MESSAGE_HEADER_BYTES + self.payload_bytes()


@dataclass
class QueryRequest(Message):
    """A client's range query (sent to the SP, and to the TE for verification)."""

    query: RangeQuery

    def payload_bytes(self) -> int:
        return len(encode_record((self.query.low, self.query.high, self.query.attribute)))


@dataclass
class ResultResponse(Message):
    """The SP's answer: the full result records (no authentication data in SAE).

    ``payload_size_hint`` lets a sender that already holds the records'
    encodings supply the payload size instead of re-encoding every record
    here; the value must equal what ``sum(len(encode_record(r)))`` would
    produce.  Both schemes' SPs ship the stored canonical bytes themselves
    as ``records`` and always hint ``sum(len(payload))``.
    """

    records: List[Union[Tuple[Any, ...], bytes]]
    payload_size_hint: Optional[int] = None

    def payload_bytes(self) -> int:
        if self.payload_size_hint is not None:
            return self.payload_size_hint
        return sum(len(encode_record(record)) for record in self.records)

    @property
    def cardinality(self) -> int:
        """Number of records in the result."""
        return len(self.records)


@dataclass
class VTResponse(Message):
    """The TE's verification token: a single digest, independent of the result size."""

    token: Digest

    def payload_bytes(self) -> int:
        return self.token.size


@dataclass
class VOResponse(Message):
    """The TOM SP's verification object accompanying a result.

    The VO is sized once, when the message is made: the channel and the
    leg receipt both read that number instead of walking the VO (and
    re-encoding its boundary records) again.
    """

    vo: "VerificationObject"

    def __post_init__(self) -> None:
        self._size = self.vo.size_bytes()

    def payload_bytes(self) -> int:
        return self._size


@dataclass
class DatasetTransfer(Message):
    """The data owner shipping (part of) its dataset to the SP or the TE."""

    records: List[Tuple[Any, ...]]
    description: str = "dataset"

    def payload_bytes(self) -> int:
        return sum(len(encode_record(record)) for record in self.records)


@dataclass
class UpdateNotification(Message):
    """A batch of update operations forwarded by the data owner."""

    operations: List[Any] = field(default_factory=list)

    def payload_bytes(self) -> int:
        total = 0
        for operation in self.operations:
            encoded = getattr(operation, "encoded_size", None)
            if callable(encoded):
                total += encoded()
            else:
                total += len(encode_record((repr(operation),)))
        return total
