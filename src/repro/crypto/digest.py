"""Collision-resistant digests with an XOR algebra.

The paper computes, for every record ``r``, a digest ``h`` "by applying a
one-way, collision-resistant hash function on the binary representation of
``r``" and then aggregates sets of digests with bitwise XOR (the ``S⊕``
notation).  Both SAE (verification tokens) and TOM (MB-tree node digests)
are built from these digests.

This module provides:

* :class:`DigestScheme` -- a named hash algorithm with a fixed digest size.
  The paper's experiments use 20-byte digests, which corresponds to SHA-1;
  SHA-256 is also provided for ablations.
* :class:`Digest` -- an immutable value object wrapping the raw digest
  bytes.  Digests support ``^`` so the XOR algebra of the paper reads
  literally in code (``vt = d1 ^ d2 ^ d3``), and expose a :meth:`Digest.zero`
  identity element so folding over an empty set is well defined.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union


class DigestError(ValueError):
    """Raised on malformed digest input (wrong length, bad scheme, ...)."""


#: Cached ``hashlib`` constructors, keyed by algorithm name.  ``hashlib.new``
#: resolves the algorithm by string on every call; looking the constructor up
#: once makes the per-record hash path measurably cheaper.
_HASH_CONSTRUCTORS: Dict[str, Any] = {}


def _hash_constructor(name: str):
    ctor = _HASH_CONSTRUCTORS.get(name)
    if ctor is None:
        ctor = getattr(hashlib, name, None)
        if ctor is None:  # pragma: no cover - exotic algorithms only
            def ctor(data=b"", _name=name):
                return hashlib.new(_name, data)
        _HASH_CONSTRUCTORS[name] = ctor
    return ctor


@dataclass(frozen=True)
class DigestScheme:
    """A concrete hash algorithm used to digest record encodings.

    Attributes
    ----------
    name:
        ``hashlib`` algorithm name (``"sha1"``, ``"sha256"``, ...).
    digest_size:
        Size of the produced digest in bytes.  The paper charges 20 bytes
        per digest, which matches SHA-1.
    """

    name: str
    digest_size: int

    def hash(self, data: bytes) -> "Digest":
        """Digest ``data`` and return the result as a :class:`Digest`."""
        # Exact ``bytes`` input (the overwhelmingly common case: record
        # encodings and digest concatenations) skips the defensive copy.
        if type(data) is not bytes:
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise TypeError(f"expected bytes-like input, got {type(data).__name__}")
            data = bytes(data)
        raw = _hash_constructor(self.name)(data).digest()
        return Digest(raw, scheme=self)

    @property
    def hasher(self):
        """The ``hashlib`` constructor behind :meth:`hash`.

        ``hasher(data).digest()`` are the bytes ``hash(data).raw`` wraps; bulk
        folds over thousands of records use it to skip a :class:`Digest`
        object per record.
        """
        return _hash_constructor(self.name)

    def zero(self) -> "Digest":
        """Return the XOR identity element (all-zero digest) for this scheme."""
        return Digest(b"\x00" * self.digest_size, scheme=self)

    def from_bytes(self, raw: bytes) -> "Digest":
        """Wrap pre-computed digest bytes, validating their type and length."""
        return Digest(raw, scheme=self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}/{self.digest_size}B"


#: The scheme used throughout the paper's experiments: 20-byte digests.
SHA1 = DigestScheme(name="sha1", digest_size=20)

#: A stronger alternative used by the digest-size ablation.
SHA256 = DigestScheme(name="sha256", digest_size=32)

_SCHEMES = {"sha1": SHA1, "sha256": SHA256}


def default_scheme() -> DigestScheme:
    """Return the paper's default digest scheme (SHA-1, 20 bytes)."""
    return SHA1


def get_scheme(name: str) -> DigestScheme:
    """Look up a digest scheme by name.

    Parameters
    ----------
    name:
        Either ``"sha1"`` or ``"sha256"``.

    Raises
    ------
    DigestError
        If ``name`` does not correspond to a known scheme.
    """
    try:
        return _SCHEMES[name.lower()]
    except KeyError:
        raise DigestError(f"unknown digest scheme {name!r}; expected one of {sorted(_SCHEMES)}") from None


class Digest:
    """An immutable, XOR-able digest value.

    The class intentionally keeps a tiny surface: construction from raw
    bytes, XOR composition, equality, hashing (so digests can be set
    members), and hex rendering for debugging.  All higher-level semantics
    (what was hashed, how records are encoded) live elsewhere.
    """

    __slots__ = ("_raw", "_scheme")

    def __init__(self, raw: bytes, scheme: DigestScheme = SHA1):
        if type(raw) is not bytes:
            # bytes(20) would be twenty zero bytes and bytes([1] * 20) a
            # made-up digest: only a byte string is a digest.
            if not isinstance(raw, (bytes, bytearray, memoryview)):
                raise DigestError(
                    f"cannot make a digest from {type(raw).__name__} "
                    "(expected bytes, bytearray or memoryview)"
                )
            raw = bytes(raw)
        if len(raw) != scheme.digest_size:
            raise DigestError(
                f"digest length {len(raw)} does not match scheme {scheme.name} "
                f"(expected {scheme.digest_size} bytes)"
            )
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_scheme", scheme)

    # -- attribute protection -------------------------------------------------
    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Digest instances are immutable")

    def __reduce__(self):
        # The immutability guard above blocks the default slot-state
        # restoration, so pickling (used by the paged node store to persist
        # tree nodes) must go through the constructor instead.
        return (Digest, (self._raw, self._scheme))

    # -- accessors -------------------------------------------------------------
    @property
    def raw(self) -> bytes:
        """The raw digest bytes."""
        return self._raw

    @property
    def scheme(self) -> DigestScheme:
        """The :class:`DigestScheme` this digest belongs to."""
        return self._scheme

    @property
    def size(self) -> int:
        """Digest size in bytes (20 for the paper's configuration)."""
        return len(self._raw)

    def hex(self) -> str:
        """Hexadecimal rendering of the digest."""
        return self._raw.hex()

    def is_zero(self) -> bool:
        """True iff this digest is the XOR identity (all zero bytes)."""
        return not any(self._raw)

    # -- algebra ---------------------------------------------------------------
    @classmethod
    def zero(cls, scheme: DigestScheme = SHA1) -> "Digest":
        """The identity element for XOR aggregation."""
        return scheme.zero()

    @classmethod
    def of(cls, data: bytes, scheme: DigestScheme = SHA1) -> "Digest":
        """Hash ``data`` under ``scheme``."""
        return scheme.hash(data)

    def __xor__(self, other: "Digest") -> "Digest":
        if not isinstance(other, Digest):
            return NotImplemented
        # Schemes are module-level singletons, so an identity check settles
        # the common case without invoking the dataclass equality.
        if other._scheme is not self._scheme and other._scheme != self._scheme:
            raise DigestError(
                f"cannot XOR digests from different schemes "
                f"({self._scheme.name} vs {other._scheme.name})"
            )
        # XOR via big integers: substantially faster than a per-byte loop in
        # CPython, and the XB-tree aggregates XOR thousands of digests per
        # maintenance operation.
        size = len(self._raw)
        combined = (
            int.from_bytes(self._raw, "big") ^ int.from_bytes(other._raw, "big")
        ).to_bytes(size, "big")
        return Digest(combined, scheme=self._scheme)

    __rxor__ = __xor__

    # -- comparisons & hashing -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digest):
            return NotImplemented
        return self._raw == other._raw and (
            self._scheme is other._scheme or self._scheme == other._scheme
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self._raw, self._scheme.name))

    def __len__(self) -> int:
        return len(self._raw)

    def __bytes__(self) -> bytes:
        return self._raw

    def __repr__(self) -> str:
        return f"Digest({self.hex()[:12]}…, scheme={self._scheme.name})"


DigestLike = Union[Digest, bytes]


def coerce_digest(value: DigestLike, scheme: DigestScheme = SHA1) -> Digest:
    """Accept either a :class:`Digest` or raw bytes and return a Digest.

    Protocol code that deserialises messages frequently holds raw bytes; this
    helper centralises the validation.
    """
    if isinstance(value, Digest):
        return value
    return Digest(value, scheme=scheme)


_set_raw = Digest._raw.__set__
_set_scheme = Digest._scheme.__set__


def split_digests(block: bytes, scheme: DigestScheme) -> List[Digest]:
    """Cut ``block`` into consecutive ``scheme`` digests, in order.

    The one length check covers every digest, so each is built without
    :class:`Digest`'s per-object validation -- the paged node codec decodes
    hundreds of stored digests per node through here.
    """
    size = scheme.digest_size
    if type(block) is not bytes or len(block) % size:
        raise DigestError(
            f"a digest block must be bytes of a multiple of {size} "
            f"(the {scheme.name} digest size)"
        )
    new = object.__new__
    digests = []
    for start in range(0, len(block), size):
        digest = new(Digest)
        _set_raw(digest, block[start:start + size])
        _set_scheme(digest, scheme)
        digests.append(digest)
    return digests


def fold_xor(digests: Iterable[Digest], scheme: DigestScheme = SHA1) -> Digest:
    """XOR-fold an iterable of digests, returning the zero digest when empty.

    This is the ``S⊕`` operator of the paper applied to an arbitrary
    iterable.  The fold is order-independent because XOR is commutative and
    associative, which is precisely why the TE can aggregate digests in tree
    order while the client aggregates them in result order.

    The fold accumulates over big integers and builds a single
    :class:`Digest` at the end, instead of one intermediate Digest per
    element -- the same bulk-XOR form the XB-tree maintenance paths use.
    """
    value = 0
    for d in digests:
        if d._scheme is not scheme and d._scheme != scheme:
            raise DigestError(
                f"cannot XOR digests from different schemes "
                f"({scheme.name} vs {d._scheme.name})"
            )
        value ^= int.from_bytes(d._raw, "big")
    return Digest(value.to_bytes(scheme.digest_size, "big"), scheme=scheme)


@dataclass
class MemoStats:
    """Record-memo activity observed by one request (or since startup).

    ``hits`` counts record encodings/digests served from the memo; ``misses``
    counts the ones that had to be computed.  Shaped like
    :class:`~repro.storage.node_store.PoolStats` so the receipts can carry
    both side by side.
    """

    hits: int = 0
    misses: int = 0

    def __add__(self, other: "MemoStats") -> "MemoStats":
        if not isinstance(other, MemoStats):
            return NotImplemented
        return MemoStats(hits=self.hits + other.hits, misses=self.misses + other.misses)


class RecordMemo:
    """A bounded LRU over record encodings and digests.

    Keyed on record content (the field tuple) under one digest scheme and
    the canonical record codec, so an entry never goes stale: an update that
    replaces a record simply stops the old tuple from being looked up.  The
    memo is therefore safe to share across queries *and* update batches --
    exactly the "computed once, not per batch" behaviour the per-batch dict
    caches could not provide.

    Thread-safe; per-request hit/miss tallies use the same thread-local
    scoped-stats pattern as the paged store's pool counters.
    """

    def __init__(self, scheme: DigestScheme, capacity: int = 65536):
        if capacity < 1:
            raise DigestError(f"memo capacity must be at least 1, got {capacity}")
        self.scheme = scheme
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple[Any, ...], Tuple[bytes, Digest]]" = OrderedDict()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = MemoStats()  # lifetime totals

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ stats
    def _tallies(self) -> List[MemoStats]:
        stack = getattr(self._local, "tallies", None)
        if stack is None:
            stack = []
            self._local.tallies = stack
        return stack

    def _record(self, hit: bool) -> None:
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        for tally in self._tallies():
            if hit:
                tally.hits += 1
            else:
                tally.misses += 1

    @contextmanager
    def scoped_stats(self) -> Iterator[MemoStats]:
        """Tally the memo activity of the calling thread inside the block."""
        tally = MemoStats()
        stack = self._tallies()
        stack.append(tally)
        try:
            yield tally
        finally:
            stack.pop()

    # ------------------------------------------------------------------ lookups
    def _pair(self, record: Sequence[Any]) -> Tuple[bytes, Digest]:
        key = tuple(record)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._record(True)
                return entry
        # Compute outside the lock: encoding + hashing dominate, and two
        # threads racing on the same record converge on identical values.
        from repro.crypto.encoding import encode_record

        encoded = encode_record(key)
        entry = (encoded, self.scheme.hash(encoded))
        with self._lock:
            self._record(False)
            self._entries[key] = entry
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        return entry

    def encoded(self, record: Sequence[Any]) -> bytes:
        """The canonical encoding of ``record`` (memoised)."""
        return self._pair(record)[0]

    def digest(self, record: Sequence[Any]) -> Digest:
        """The digest of ``record``'s canonical encoding (memoised)."""
        return self._pair(record)[1]

    def clear(self) -> None:
        """Drop every entry (the lifetime stats are kept)."""
        with self._lock:
            self._entries.clear()
