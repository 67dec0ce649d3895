"""The MB-Tree: a Merkle-augmented B+-tree (the TOM authenticated data structure).

"A leaf node entry in the MB-tree is associated with a digest computed on
the binary representation of the corresponding record [...].  An
intermediate node entry is associated with a digest computed on the
concatenation of the digests in the page it points to.  The DO signs the
digest h_root associated with the root." (Section I of the paper.)

That is exactly what :class:`MBTree` is: a subclass of
:class:`~repro.btree.tree.BPlusTree` whose leaves carry ``rids`` and
``digests`` and whose internal nodes carry ``child_digests`` beside their
``children``.  Descent, range scan, insert/split, delete/borrow/merge, bulk
load, node storage, snapshot state and the structural half of validation are
the B+-tree's own code, which moves those parallel lists together; this
module adds only what the digests need:

* the repair hooks, which recompute child digests bottom-up wherever an
  insert, a root split, a rebalance or a bulk-load parent changes a child;
* :meth:`MBTree.root_digest` / :meth:`MBTree.node_digest` -- the value the
  data owner signs, and the owner's root :attr:`MBTree.signature`;
* :meth:`MBTree.build_vo` -- range query plus verification-object
  construction (boundary records, pruned-sibling digests);
* the digest half of :meth:`MBTree.validate` (every stored child digest is
  recomputed).

Because every entry additionally carries a 20-byte digest, the MB-tree's
fanout is lower than the plain B+-tree's; this is the mechanism behind the
24-39 % higher SP cost of TOM in Figure 6.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.btree.tree import BPlusTree, BPlusTreeConfig, BPlusTreeError
from repro.crypto.digest import Digest, DigestScheme, default_scheme
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter
from repro.storage.node_store import NodeStore
from repro.tom.vo import (
    VerificationObject,
    VOBoundary,
    VODigest,
    VOItem,
    VOResultMarker,
    VOSubtree,
)
from repro.crypto.signatures import Signature


class MBTreeError(BPlusTreeError):
    """Raised on invalid MB-tree operations or broken invariants."""


@dataclass(frozen=True)
class MBTreeLayout:
    """Byte layout of MB-tree entries.

    Every entry (leaf or internal) carries a digest in addition to the key
    and pointer, so both fanouts are lower than the plain B+-tree's.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    key_size: int = 4
    pointer_size: int = 8
    digest_size: int = 20
    header_size: int = 24

    @property
    def leaf_entry_size(self) -> int:
        """Bytes per leaf entry: key + record pointer + record digest."""
        return self.key_size + self.pointer_size + self.digest_size

    @property
    def internal_entry_size(self) -> int:
        """Bytes per internal entry: key + child pointer + child digest."""
        return self.key_size + self.pointer_size + self.digest_size

    @property
    def leaf_capacity(self) -> int:
        """Maximum entries per leaf node."""
        return max(3, (self.page_size - self.header_size) // self.leaf_entry_size)

    @property
    def internal_capacity(self) -> int:
        """Maximum separator keys per internal node."""
        return max(
            3,
            (self.page_size - self.header_size - self.pointer_size - self.digest_size)
            // self.internal_entry_size,
        )


class MBLeafNode:
    """Leaf node: parallel arrays of keys, record ids and record digests."""

    __slots__ = ("keys", "rids", "digests", "next_leaf")

    def __init__(self):
        self.keys: List[Any] = []
        self.rids: List[Any] = []
        self.digests: List[Digest] = []
        self.next_leaf: Optional[Any] = None

    is_leaf = True

    def entry_digests(self) -> List[Digest]:
        """Digests of this node's entries (the record digests)."""
        return self.digests


class MBInternalNode:
    """Internal node: separator keys plus per-child pointers and digests.

    ``children`` holds node-store references (the node objects themselves
    under the default memory store).
    """

    __slots__ = ("keys", "children", "child_digests")

    def __init__(self):
        self.keys: List[Any] = []
        self.children: List[Any] = []
        self.child_digests: List[Digest] = []

    is_leaf = False

    def entry_digests(self) -> List[Digest]:
        """Digests of this node's entries (one per child)."""
        return self.child_digests


class MBTree(BPlusTree):
    """The Merkle B+-tree used by the TOM data owner and service provider.

    Thread-safety: concurrent read operations are safe; mutations require
    external mutual exclusion (the schemes hold their read/write lock).
    With a paged store, operations additionally serialise on the store's
    own lock.
    """

    _leaf_class = MBLeafNode
    _internal_class = MBInternalNode
    _leaf_columns = ("rids", "digests")
    _child_columns = ("children", "child_digests")
    _error = MBTreeError

    def __init__(
        self,
        layout: Optional[MBTreeLayout] = None,
        scheme: Optional[DigestScheme] = None,
        counter: Optional[AccessCounter] = None,
        store: Optional[NodeStore] = None,
    ):
        self._scheme = scheme or default_scheme()
        self._signature: Optional[Signature] = None
        super().__init__(BPlusTreeConfig(layout=layout or MBTreeLayout()), counter, store)

    # ------------------------------------------------------------------ meta
    @property
    def layout(self) -> MBTreeLayout:
        """Byte layout used to derive capacities and storage size."""
        return self._config.layout

    @property
    def scheme(self) -> DigestScheme:
        """Digest scheme used for node digests."""
        return self._scheme

    @property
    def signature(self) -> Optional[Signature]:
        """The data owner's signature over the current root digest (if set)."""
        return self._signature

    @signature.setter
    def signature(self, value: Signature) -> None:
        self._signature = value

    def size_bytes(self) -> int:
        """Storage footprint: one page per node, plus the root signature."""
        signature_bytes = self._signature.size if self._signature is not None else 0
        return super().size_bytes() + signature_bytes

    def tree_state(self) -> dict:
        """Picklable structural metadata (for deployment snapshots).

        Includes the owner's root signature, so a restored TOM deployment
        serves verifiable results **without re-signing**.
        """
        return {**super().tree_state(), "signature": self._signature}

    def adopt_state(self, state: dict) -> None:
        """Re-attach to nodes already present in the store (snapshot restore)."""
        super().adopt_state(state)
        self._signature = state.get("signature")

    # ------------------------------------------------------------------ digests
    def node_digest(self, node: Any) -> Digest:
        """Digest of a node: hash of the concatenation of its entry digests."""
        payload = b"".join(d.raw for d in node.entry_digests())
        return self._scheme.hash(payload)

    def root_digest(self) -> Digest:
        """The digest the data owner signs (``h_root`` in the paper)."""
        return self.node_digest(self._load(self._root))

    def _refresh_child_digest(self, parent: MBInternalNode, index: int) -> None:
        if 0 <= index < len(parent.children):
            parent.child_digests[index] = self.node_digest(
                self._load(parent.children[index])
            )

    def _repair_after_insert(self, node: MBInternalNode, index: int, split: Any) -> None:
        if split is not None:
            node.child_digests.insert(index + 1, self.node_digest(self._load(split[1])))
        self._refresh_child_digest(node, index)
        if split is not None:
            self._refresh_child_digest(node, index + 1)

    def _repair_new_root(self, root: MBInternalNode, old_root: Any) -> None:
        root.child_digests = [
            self.node_digest(old_root),
            self.node_digest(self._load(root.children[1])),
        ]

    def _repair_children(self, parent: MBInternalNode, index: int) -> None:
        for child_index in range(max(0, index - 1), min(len(parent.children), index + 2)):
            self._refresh_child_digest(parent, child_index)

    def _repair_bulk_parent(self, parent: MBInternalNode) -> None:
        parent.child_digests = [self.node_digest(child) for child in parent.children]

    def _check_child(self, parent: MBInternalNode, index: int, child: Any) -> None:
        stored = parent.child_digests[index]
        expected = self.node_digest(child)
        if stored != expected:
            raise MBTreeError(
                f"child digest mismatch at position {index}: "
                f"stored {stored.hex()[:12]}, recomputed {expected.hex()[:12]}"
            )

    # ------------------------------------------------------------------ updates
    def insert(self, key: Any, rid: Any, digest: Digest) -> None:
        """Insert one record entry and repair digests along the path."""
        if not isinstance(digest, Digest):
            raise MBTreeError("the MB-tree stores Digest objects; got " + type(digest).__name__)
        self._insert_entry(key, (rid, digest))

    def bulk_load(self, items: Sequence[Tuple[Any, Any, Digest]], fill_factor: float = 1.0) -> None:
        """Rebuild the tree from ``(key, rid, digest)`` triples sorted by key.

        Raises :class:`MBTreeError` if the tree is non-empty, the input is
        not sorted or ``fill_factor`` lies outside ``(0, 1]``.  The build
        materialises the whole tree before writing it to the store, so setup
        needs memory proportional to the dataset even under paged storage;
        steady-state serving afterwards is bounded by the pool.
        """
        self._bulk_load(items, fill_factor)

    # ------------------------------------------------------------------ VO construction
    def build_vo(
        self,
        low: Any,
        high: Any,
        record_loader: Callable[[Any], Sequence[Any]],
        signature: Optional[Signature] = None,
    ) -> Tuple[List[Tuple[Any, Any]], VerificationObject]:
        """Answer the range query and build its verification object.

        Parameters
        ----------
        low, high:
            Inclusive query bounds.
        record_loader:
            Callback mapping a record id to the full record fields; used to
            embed the two boundary records in the VO.
        signature:
            The data owner's signature over the root digest.  Defaults to
            the signature previously attached to the tree.

        Returns
        -------
        (result, vo):
            ``result`` is the list of qualifying ``(key, rid)`` pairs in key
            order; ``vo`` is the :class:`VerificationObject`.

        Raises :class:`MBTreeError` when no signature is available -- an SP
        cannot fabricate a verifiable VO without the owner's signature.
        """
        signature = signature if signature is not None else self._signature
        if signature is None:
            raise MBTreeError("cannot build a VO without the owner's signature on the root digest")

        with self._store.read_op():
            result = self.range_search(low, high)
            left_boundary = self._predecessor_entry(low)
            right_boundary = self._successor_entry(high)

            included_rids = {rid for _, rid in result}
            boundary_rids = {}
            include_low, include_high = low, high
            if left_boundary is not None:
                boundary_rids[left_boundary[1]] = left_boundary[0]
                included_rids.add(left_boundary[1])
                include_low = left_boundary[0]
            if right_boundary is not None:
                boundary_rids[right_boundary[1]] = right_boundary[0]
                included_rids.add(right_boundary[1])
                include_high = right_boundary[0]

            root = self._load(self._root)
            items = self._build_vo_node(
                root, include_low, include_high, low, high,
                included_rids, boundary_rids, record_loader,
            )
            vo = VerificationObject(
                items=tuple(items),
                is_leaf_root=root.is_leaf,
                signature=signature,
                query_low=low,
                query_high=high,
            )
        return result, vo

    def _predecessor_entry(self, low: Any) -> Optional[Tuple[Any, Any]]:
        """The ``(key, rid)`` of the last entry with key strictly below ``low``."""
        node = self._load(self._root)
        best: Optional[Tuple[Any, Any]] = None
        self._charge()
        while not node.is_leaf:
            index = bisect.bisect_left(node.keys, low)
            node = self._load(node.children[index])
            self._charge()
        index = bisect.bisect_left(node.keys, low)
        if index > 0:
            return node.keys[index - 1], node.rids[index - 1]
        # The predecessor (if any) is the last entry of some preceding leaf;
        # locate it with a second descent biased to the left of ``low``.
        node = self._load(self._root)
        while not node.is_leaf:
            index = bisect.bisect_left(node.keys, low)
            if index > 0:
                candidate = self._load(node.children[index - 1])
                self._charge()
                best = self._rightmost_entry_below(candidate, low)
                if best is not None:
                    return best
            node = self._load(node.children[index])
            self._charge()
        return best

    def _rightmost_entry_below(self, node: Any, low: Any) -> Optional[Tuple[Any, Any]]:
        while not node.is_leaf:
            node = self._load(node.children[-1])
            self._charge()
        for index in range(len(node.keys) - 1, -1, -1):
            if node.keys[index] < low:
                return node.keys[index], node.rids[index]
        return None

    def _successor_entry(self, high: Any) -> Optional[Tuple[Any, Any]]:
        """The ``(key, rid)`` of the first entry with key strictly above ``high``."""
        leaf = self._find_leaf(high)
        while leaf is not None:
            for index, key in enumerate(leaf.keys):
                if key > high:
                    return key, leaf.rids[index]
            leaf = self._load(leaf.next_leaf) if leaf.next_leaf is not None else None
            if leaf is not None:
                self._charge()
        return None

    def _build_vo_node(
        self,
        node: Any,
        include_low: Any,
        include_high: Any,
        low: Any,
        high: Any,
        included_rids: set,
        boundary_rids: dict,
        record_loader: Callable[[Any], Sequence[Any]],
    ) -> List[VOItem]:
        items: List[VOItem] = []
        if node.is_leaf:
            for key, rid, digest in zip(node.keys, node.rids, node.digests):
                if rid in included_rids and low <= key <= high:
                    items.append(VOResultMarker())
                elif rid in boundary_rids and boundary_rids[rid] == key:
                    items.append(VOBoundary(fields=tuple(record_loader(rid))))
                else:
                    items.append(VODigest(digest=digest.raw))
            return items

        for index, child_ref in enumerate(node.children):
            child_low = node.keys[index - 1] if index > 0 else None
            child_high = node.keys[index] if index < len(node.keys) else None
            prune = False
            if child_low is not None and child_low > include_high:
                prune = True
            if child_high is not None and child_high < include_low:
                prune = True
            if prune:
                items.append(VODigest(digest=node.child_digests[index].raw))
            else:
                self._charge()
                child = self._load(child_ref)
                child_items = self._build_vo_node(
                    child, include_low, include_high, low, high,
                    included_rids, boundary_rids, record_loader,
                )
                items.append(VOSubtree(items=tuple(child_items), is_leaf=child.is_leaf))
        return items
