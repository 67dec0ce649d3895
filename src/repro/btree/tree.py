"""A disk-cost-aware B+-tree with duplicate-key support.

Node storage is pluggable through a
:class:`~repro.storage.node_store.NodeStore`: with the default
:class:`~repro.storage.node_store.MemoryNodeStore` the tree keeps its nodes
as a plain Python object graph (the historical behaviour -- the experiments
charge simulated I/O, so an actual disk round-trip would only add noise),
while a :class:`~repro.storage.node_store.PagedNodeStore` serialises every
node through a buffer pool over a pager, bounding resident memory by the
pool size.  In both cases the tree derives its fanout from the configured
page size and counts one node access per node visited, which is exactly the
quantity Figure 6 of the paper charges at 10 ms each.

Child and sibling pointers hold *store references*; every dereference goes
through the store inside a per-operation scope, so a paged traversal's path
stays pinned in the pool until the operation completes (see
:mod:`repro.storage.node_store` for the pinning discipline and
thread-safety contract -- the tree itself adds no locking and relies on its
caller for mutual exclusion between mutations, exactly as before).

Supported operations:

* :meth:`BPlusTree.insert` / :meth:`BPlusTree.delete` -- standard B+-tree
  maintenance with node splits, borrowing and merging.
* :meth:`BPlusTree.search` -- all values stored under a key.
* :meth:`BPlusTree.range_search` -- all ``(key, value)`` pairs with key in
  ``[lo, hi]``, in key order (descend to the lower bound, then follow leaf
  links).
* :meth:`BPlusTree.bulk_load` -- linear-time construction from sorted input,
  used to build the experiment datasets.

The maintenance algorithm is written once, over each node's *parallel
lists*: a leaf keeps its ``keys`` beside the lists named by
:attr:`BPlusTree._leaf_columns` (``values`` here), an internal node keeps its
``children`` beside those named by :attr:`BPlusTree._child_columns`
(``children`` alone here).  Splits, borrows, merges and the bulk load move
every column together, and a handful of ``_repair_*`` hooks -- no-ops here --
fire wherever per-child data would go stale.
:class:`~repro.tom.mbtree.MBTree`, the TOM baseline's Merkle B+-tree, is this
tree whose leaves carry ``rids`` and ``digests`` and whose internal nodes
carry ``child_digests``; it overrides only the hooks, the digests and the
verification-object construction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.btree.node import BPlusInternalNode, BPlusLeafNode, NodeLayout
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.cost_model import AccessCounter
from repro.storage.node_store import MEMORY_NODE_STORE, NodeStore


class BPlusTreeError(ValueError):
    """Raised on invalid B+-tree operations (e.g. deleting a missing key)."""


@dataclass
class BPlusTreeConfig:
    """Configuration of a :class:`BPlusTree`.

    Attributes
    ----------
    layout:
        Byte layout from which node capacities are derived (anything with
        ``page_size``, ``leaf_capacity`` and ``internal_capacity``; the
        MB-tree passes its :class:`~repro.tom.mbtree.MBTreeLayout`).
    fill_factor:
        Target occupancy used by :meth:`BPlusTree.bulk_load`, in ``(0, 1]``.
    """

    layout: NodeLayout = field(default_factory=NodeLayout)
    fill_factor: float = 1.0

    @classmethod
    def for_page_size(cls, page_size: int = DEFAULT_PAGE_SIZE, key_size: int = 4,
                      value_size: int = 8) -> "BPlusTreeConfig":
        """Build a configuration for a given page size and entry layout."""
        return cls(layout=NodeLayout(page_size=page_size, key_size=key_size, value_size=value_size))


class BPlusTree:
    """A B+-tree mapping (possibly duplicate) keys to opaque values.

    Thread-safety: concurrent read operations are safe; mutations require
    external mutual exclusion (the schemes hold their read/write lock).
    With a paged store, operations additionally serialise on the store's
    own lock.
    """

    # The node classes, and the lists each kind of node keeps parallel to
    # its keys (leaves; the first is what searches return) or to its
    # children (internal nodes; ``children`` first).
    _leaf_class = BPlusLeafNode
    _internal_class = BPlusInternalNode
    _leaf_columns: Tuple[str, ...] = ("values",)
    _child_columns: Tuple[str, ...] = ("children",)
    _error = BPlusTreeError

    def __init__(self, config: Optional[BPlusTreeConfig] = None,
                 counter: Optional[AccessCounter] = None,
                 store: Optional[NodeStore] = None):
        self._config = config or BPlusTreeConfig()
        self._counter = counter or AccessCounter()
        self._store = store or MEMORY_NODE_STORE
        self._load = self._store.load
        with self._store.write_op():
            self._root = self._store.register(self._leaf_class())
        self._height = 1
        self._num_entries = 0
        self._num_leaves = 1
        self._num_internal = 0

    # ------------------------------------------------------------------ meta
    @property
    def config(self) -> BPlusTreeConfig:
        """The tree configuration."""
        return self._config

    @property
    def counter(self) -> AccessCounter:
        """Node-access counter charged on every traversal."""
        return self._counter

    @property
    def store(self) -> NodeStore:
        """The node store backing this tree."""
        return self._store

    @property
    def leaf_capacity(self) -> int:
        """Maximum entries per leaf (the paper's leaf fanout)."""
        return self._config.layout.leaf_capacity

    @property
    def internal_capacity(self) -> int:
        """Maximum keys per internal node."""
        return self._config.layout.internal_capacity

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf)."""
        return self._height

    @property
    def num_entries(self) -> int:
        """Number of key/value entries stored."""
        return self._num_entries

    @property
    def num_nodes(self) -> int:
        """Total number of nodes (pages) in the tree."""
        return self._num_leaves + self._num_internal

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return self._num_leaves

    def size_bytes(self) -> int:
        """Storage footprint: one page per node, as on disk."""
        return self.num_nodes * self._config.layout.page_size

    def __len__(self) -> int:
        return self._num_entries

    def tree_state(self) -> dict:
        """Picklable structural metadata (for deployment snapshots).

        The nodes themselves live in the store; this captures the root
        reference and the derived counts a restored tree needs.
        """
        return {
            "root": self._root,
            "height": self._height,
            "num_entries": self._num_entries,
            "num_leaves": self._num_leaves,
            "num_internal": self._num_internal,
        }

    def adopt_state(self, state: dict) -> None:
        """Re-attach to nodes already present in the store (snapshot restore)."""
        self._free_initial_root(state["root"])
        self._root = state["root"]
        self._height = int(state["height"])
        self._num_entries = int(state["num_entries"])
        self._num_leaves = int(state["num_leaves"])
        self._num_internal = int(state["num_internal"])

    def _free_initial_root(self, new_root: Any) -> None:
        """Release the empty root the constructor registered (restore path)."""
        if self._root == new_root or self._num_entries:
            return
        from repro.storage.node_store import NodeStoreError

        try:
            with self._store.write_op():
                self._store.free(self._root)
        except NodeStoreError:
            pass  # the constructor's root was never committed to this store

    # ------------------------------------------------------------------ repair hooks
    # Where per-child data derived from a child's contents (the MB-tree's
    # child digests) goes stale.  All are no-ops for the plain B+-tree.
    def _repair_after_insert(self, node: Any, index: int, split: Any) -> None:
        """An insert went below ``node.children[index]``; ``split`` is the
        ``(separator, right_ref)`` now at ``index + 1``, or ``None``."""

    def _repair_new_root(self, root: Any, old_root: Any) -> None:
        """``root`` was just built over the split ``old_root`` and its sibling."""

    def _repair_children(self, parent: Any, index: int) -> None:
        """``parent.children[index]`` was rebalanced against its neighbours."""

    def _repair_bulk_parent(self, parent: Any) -> None:
        """A bulk-load parent got its (still in-construction) ``children``."""

    def _check_child(self, parent: Any, index: int, child: Any) -> None:
        """Validate whatever ``parent`` keeps about ``child`` at ``index``."""

    # ------------------------------------------------------------------ search
    def _charge(self, count: int = 1) -> None:
        self._counter.record_node_access(count)

    def _find_leaf(self, key: Any, charge: bool = True) -> Any:
        """Descend to the leftmost leaf that may contain ``key``."""
        node = self._load(self._root)
        if charge:
            self._charge()
        while not node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            node = self._load(node.children[index])
            if charge:
                self._charge()
        return node

    def search(self, key: Any) -> List[Any]:
        """Return all values stored under ``key`` (empty list if absent)."""
        column = self._leaf_columns[0]
        results: List[Any] = []
        with self._store.read_op():
            leaf = self._find_leaf(key)
            while leaf is not None:
                index = bisect.bisect_left(leaf.keys, key)
                if index == len(leaf.keys):
                    leaf = (
                        self._load(leaf.next_leaf)
                        if leaf.next_leaf is not None else None
                    )
                    if leaf is not None:
                        self._charge()
                    continue
                values = getattr(leaf, column)
                while index < len(leaf.keys) and leaf.keys[index] == key:
                    results.append(values[index])
                    index += 1
                if index < len(leaf.keys):
                    break
                leaf = (
                    self._load(leaf.next_leaf)
                    if leaf.next_leaf is not None else None
                )
                if leaf is not None and leaf.keys and leaf.keys[0] == key:
                    self._charge()
                else:
                    break
        return results

    def range_search(self, low: Any, high: Any) -> List[Tuple[Any, Any]]:
        """Return all ``(key, value)`` pairs with ``low <= key <= high`` in key order.

        The value is the first leaf column (the MB-tree's record id).
        """
        if low > high:
            return []
        column = self._leaf_columns[0]
        results: List[Tuple[Any, Any]] = []
        with self._store.read_op():
            leaf = self._find_leaf(low)
            while leaf is not None:
                keys, values = leaf.keys, getattr(leaf, column)
                start = bisect.bisect_left(keys, low)
                for index in range(start, len(keys)):
                    key = keys[index]
                    if key > high:
                        return results
                    results.append((key, values[index]))
                if keys and keys[-1] > high:
                    return results
                leaf = (
                    self._load(leaf.next_leaf)
                    if leaf.next_leaf is not None else None
                )
                if leaf is not None:
                    self._charge()
        return results

    def items(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all entries in key order without charging accesses.

        Each entry is the key followed by its leaf columns: ``(key, value)``
        here, ``(key, rid, digest)`` in the MB-tree.
        """
        columns = self._leaf_columns
        node = self._load(self._root)
        while not node.is_leaf:
            node = self._load(node.children[0])
        while node is not None:
            yield from zip(node.keys, *(getattr(node, column) for column in columns))
            node = self._load(node.next_leaf) if node.next_leaf is not None else None

    def min_key(self) -> Any:
        """Smallest key in the tree (``None`` when empty)."""
        if self._num_entries == 0:
            return None
        node = self._load(self._root)
        while not node.is_leaf:
            node = self._load(node.children[0])
        return node.keys[0]

    def max_key(self) -> Any:
        """Largest key in the tree (``None`` when empty)."""
        if self._num_entries == 0:
            return None
        node = self._load(self._root)
        while not node.is_leaf:
            node = self._load(node.children[-1])
        return node.keys[-1]

    # ------------------------------------------------------------------ insert
    def insert(self, key: Any, value: Any) -> None:
        """Insert ``(key, value)``; duplicate keys are allowed."""
        self._insert_entry(key, (value,))

    def _insert_entry(self, key: Any, entry: Tuple[Any, ...]) -> None:
        """Insert ``key`` with ``entry`` holding one value per leaf column."""
        with self._store.write_op():
            self._charge()
            root = self._load(self._root)
            split = self._insert_recursive(root, key, entry)
            if split is not None:
                separator, right_ref = split
                new_root = self._internal_class()
                new_root.keys = [separator]
                new_root.children = [self._root, right_ref]
                self._repair_new_root(new_root, root)
                self._root = self._store.register(new_root)
                self._height += 1
                self._num_internal += 1
            self._num_entries += 1

    def _insert_recursive(self, node: Any, key: Any, entry: Tuple[Any, ...]):
        index = bisect.bisect_right(node.keys, key)
        if node.is_leaf:
            node.keys.insert(index, key)
            for column, value in zip(self._leaf_columns, entry):
                getattr(node, column).insert(index, value)
            if len(node.keys) > self.leaf_capacity:
                return self._split_leaf(node)
            return None

        self._charge()
        split = self._insert_recursive(self._load(node.children[index]), key, entry)
        if split is not None:
            node.keys.insert(index, split[0])
            node.children.insert(index + 1, split[1])
        self._repair_after_insert(node, index, split)
        if split is not None and len(node.keys) > self.internal_capacity:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: Any):
        mid = len(leaf.keys) // 2
        right = self._leaf_class()
        for column in ("keys",) + self._leaf_columns:
            entries = getattr(leaf, column)
            setattr(right, column, entries[mid:])
            setattr(leaf, column, entries[:mid])
        right.next_leaf = leaf.next_leaf
        right_ref = self._store.register(right)
        leaf.next_leaf = right_ref
        self._num_leaves += 1
        return right.keys[0], right_ref

    def _split_internal(self, node: Any):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = self._internal_class()
        right.keys = node.keys[mid + 1:]
        node.keys = node.keys[:mid]
        for column in self._child_columns:
            entries = getattr(node, column)
            setattr(right, column, entries[mid + 1:])
            setattr(node, column, entries[:mid + 1])
        self._num_internal += 1
        return separator, self._store.register(right)

    # ------------------------------------------------------------------ delete
    def delete(self, key: Any, value: Any = None, *, rid: Any = None) -> None:
        """Delete one entry with ``key`` (and ``value``, when given).

        ``value`` is matched against the first leaf column; ``rid`` is the
        same argument under the name the MB-tree's callers use for it.
        Raises the tree's error (:class:`BPlusTreeError`) if no matching
        entry exists (the store then discards the scope, so a failed delete
        mutates nothing).
        """
        if rid is not None:
            value = rid
        with self._store.write_op():
            self._charge()
            root = self._load(self._root)
            removed = self._delete_recursive(root, key, value)
            if not removed:
                raise self._error(f"key {key!r} (value {value!r}) not found")
            if not root.is_leaf and len(root.children) == 1:
                old_root = self._root
                self._root = root.children[0]
                self._store.free(old_root)
                self._height -= 1
                self._num_internal -= 1
            self._num_entries -= 1

    def _delete_recursive(self, node: Any, key: Any, value: Any) -> bool:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            values = getattr(node, self._leaf_columns[0])
            while index < len(node.keys) and node.keys[index] == key:
                if value is None or values[index] == value:
                    for column in ("keys",) + self._leaf_columns:
                        getattr(node, column).pop(index)
                    return True
                index += 1
            return False

        index = bisect.bisect_left(node.keys, key)
        # With duplicates the matching entry may live in any of the children
        # whose key range can contain ``key``; try them left to right.
        removed = False
        while index < len(node.children):
            child = self._load(node.children[index])
            self._charge()
            removed = self._delete_recursive(child, key, value)
            if removed:
                break
            if index >= len(node.keys) or node.keys[index] > key:
                break
            index += 1
        if not removed:
            return False
        self._rebalance_child(node, index)
        return True

    def _min_leaf_entries(self) -> int:
        return max(1, self.leaf_capacity // 2)

    def _min_internal_keys(self) -> int:
        return max(1, self.internal_capacity // 2)

    def _rebalance_child(self, parent: Any, index: int) -> None:
        """Refill ``parent.children[index]`` if a delete left it underfull."""
        child = self._load(parent.children[index])
        if child.is_leaf:
            minimum, columns = self._min_leaf_entries(), self._leaf_columns
        else:
            minimum, columns = self._min_internal_keys(), self._child_columns
        if len(child.keys) < minimum:
            left_sibling = (
                self._load(parent.children[index - 1]) if index > 0 else None
            )
            right_sibling = (
                self._load(parent.children[index + 1])
                if index + 1 < len(parent.children) else None
            )
            if left_sibling is not None and len(left_sibling.keys) > minimum:
                # Borrow the left sibling's last entry; in an internal node
                # it rotates through the parent's separator.
                if child.is_leaf:
                    child.keys.insert(0, left_sibling.keys.pop())
                    parent.keys[index - 1] = child.keys[0]
                else:
                    child.keys.insert(0, parent.keys[index - 1])
                    parent.keys[index - 1] = left_sibling.keys.pop()
                for column in columns:
                    getattr(child, column).insert(0, getattr(left_sibling, column).pop())
            elif right_sibling is not None and len(right_sibling.keys) > minimum:
                if child.is_leaf:
                    child.keys.append(right_sibling.keys.pop(0))
                    parent.keys[index] = right_sibling.keys[0]
                else:
                    child.keys.append(parent.keys[index])
                    parent.keys[index] = right_sibling.keys.pop(0)
                for column in columns:
                    getattr(child, column).append(getattr(right_sibling, column).pop(0))
            elif left_sibling is not None:
                self._merge_children(parent, index - 1, left_sibling, child, columns)
            elif right_sibling is not None:
                self._merge_children(parent, index, child, right_sibling, columns)
        self._refresh_separators(parent, index)
        self._repair_children(parent, index)

    def _merge_children(self, parent: Any, position: int, left: Any, right: Any,
                        columns: Tuple[str, ...]) -> None:
        """Fold ``right`` (``parent.children[position + 1]``) into ``left``."""
        if left.is_leaf:
            left.next_leaf = right.next_leaf
            self._num_leaves -= 1
        else:
            left.keys.append(parent.keys[position])
            self._num_internal -= 1
        left.keys.extend(right.keys)
        for column in columns:
            getattr(left, column).extend(getattr(right, column))
        parent.keys.pop(position)
        self._store.free(parent.children.pop(position + 1))
        for column in self._child_columns[1:]:
            getattr(parent, column).pop(position + 1)

    @staticmethod
    def _leftmost_key_of(node: Any) -> Any:
        """Leftmost key of an in-construction object subtree (bulk load only)."""
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0] if node.keys else None

    def _leftmost_key(self, node: Any) -> Any:
        while not node.is_leaf:
            node = self._load(node.children[0])
        return node.keys[0] if node.keys else None

    def _refresh_separators(self, parent: Any, index: int) -> None:
        """Tighten the separators beside rebalanced ``parent.children[index]``.

        Only positions ``index - 2 .. index`` can have changed, so only the
        children to their right are walked: a delete's cost stays on its
        path.  A separator further away may be a looser bound than its right
        child's leftmost key; every separator is still a valid bound, which
        is all that searches and :meth:`validate` rely on.
        """
        for key_index in range(max(0, index - 2), min(index + 1, len(parent.keys))):
            child = self._load(parent.children[key_index + 1])
            leftmost = self._leftmost_key(child)
            if leftmost is not None:
                parent.keys[key_index] = leftmost

    # ------------------------------------------------------------------ bulk load
    def bulk_load(self, items: Sequence[Tuple[Any, Any]]) -> None:
        """Rebuild the tree from ``items`` sorted by key (ascending).

        Raises :class:`BPlusTreeError` if the tree is non-empty, the input
        is not sorted or the configured fill factor lies outside ``(0, 1]``.
        The build materialises the whole tree before writing it to the
        store, so setup needs memory proportional to the dataset even under
        paged storage; steady-state serving afterwards is bounded by the
        pool.
        """
        self._bulk_load(items, self._config.fill_factor)

    def _bulk_load(self, items: Sequence[Tuple[Any, ...]], fill_factor: float) -> None:
        """Build from ``(key, *leaf columns)`` tuples, ``fill_factor`` full."""
        if not 0 < fill_factor <= 1:
            raise self._error(f"fill factor must be in (0, 1], got {fill_factor!r}")
        if self._num_entries:
            raise self._error("bulk_load requires an empty tree")
        items = list(items)
        for i in range(1, len(items)):
            if items[i][0] < items[i - 1][0]:
                raise self._error("bulk_load input must be sorted by key")
        if not items:
            return

        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        per_internal = max(2, int(self.internal_capacity * fill_factor))
        columns = ("keys",) + self._leaf_columns

        leaves: List[Any] = []
        for start in range(0, len(items), per_leaf):
            leaf = self._leaf_class()
            for column, entries in zip(columns, zip(*items[start:start + per_leaf])):
                setattr(leaf, column, list(entries))
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        # Avoid a dangling underfull final leaf: rebalance the last two.
        if len(leaves) >= 2 and len(leaves[-1].keys) < max(1, per_leaf // 2):
            prev, last = leaves[-2], leaves[-1]
            half = (len(prev.keys) + len(last.keys)) // 2
            for column in columns:
                merged = getattr(prev, column) + getattr(last, column)
                setattr(prev, column, merged[:half])
                setattr(last, column, merged[half:])

        self._num_leaves = len(leaves)
        self._num_internal = 0
        self._num_entries = len(items)

        level: List[Any] = list(leaves)
        height = 1
        while len(level) > 1:
            parents = [
                self._bulk_parent(level[start:start + per_internal + 1])
                for start in range(0, len(level), per_internal + 1)
            ]
            # A trailing single-child parent joins its predecessor, or splits
            # the pair's children in half where joining would overfill it.
            if len(parents) >= 2 and len(parents[-1].children) == 1:
                group = parents[-2].children + parents.pop().children
                if len(group) <= self.internal_capacity + 1:
                    parents[-1] = self._bulk_parent(group)
                else:
                    half = len(group) // 2
                    parents[-1:] = [self._bulk_parent(group[:half]),
                                    self._bulk_parent(group[half:])]
            self._num_internal += len(parents)
            level = parents
            height += 1
        self._height = height
        with self._store.write_op():
            old_root = self._root
            # Register the leaf chain right-to-left so every leaf can hold
            # its successor's reference, then intern the internal levels.
            memo: dict = {}
            next_ref = None
            for leaf in reversed(leaves):
                leaf.next_leaf = next_ref
                next_ref = self._store.register(leaf)
                memo[id(leaf)] = next_ref
            self._root = self._intern_subtree(level[0], memo)
            self._store.free(old_root)

    def _bulk_parent(self, children: List[Any]) -> Any:
        """An internal node over in-construction ``children`` (bulk load only)."""
        parent = self._internal_class()
        parent.children = children
        parent.keys = [self._leftmost_key_of(child) for child in children[1:]]
        self._repair_bulk_parent(parent)
        return parent

    def _intern_subtree(self, node: Any, memo: dict) -> Any:
        """Register an object subtree with the store, bottom-up.

        Child object pointers are replaced by store references; ``memo``
        (``id(node) -> ref``) carries the already-registered leaves.  With
        the memory store this is the identity transformation.
        """
        ref = memo.get(id(node))
        if ref is not None:
            return ref
        if not node.is_leaf:
            node.children = [
                self._intern_subtree(child, memo) for child in node.children
            ]
        ref = self._store.register(node)
        memo[id(node)] = ref
        return ref

    # ------------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check structural invariants; raises the tree's error on violation.

        Used by the test suite (including the hypothesis state-machine tests)
        after random operation sequences.  Loads the entire tree inside one
        operation scope, so it is meant for tests, not for serving paths.
        """
        with self._store.read_op():
            leaves: List[Any] = []
            root = self._load(self._root)
            self._validate_node(root, None, None, self._height, leaves)
            # Leaf chain must cover exactly the leaves found by traversal, in
            # order (within one scope, loading a reference twice returns the
            # same object, so identity comparison is meaningful here).
            node = root
            while not node.is_leaf:
                node = self._load(node.children[0])
            chained = []
            while node is not None:
                chained.append(node)
                node = self._load(node.next_leaf) if node.next_leaf is not None else None
            if chained != leaves:
                raise self._error("leaf chain does not match tree traversal order")
            total = sum(len(leaf.keys) for leaf in leaves)
            if total != self._num_entries:
                raise self._error(
                    f"entry count mismatch: counted {total}, recorded {self._num_entries}"
                )
            all_keys = [key for leaf in leaves for key in leaf.keys]
            if all_keys != sorted(all_keys):
                raise self._error("keys are not globally sorted")

    def _validate_node(self, node: Any, low: Any, high: Any, depth: int,
                       leaves: List[Any]) -> None:
        if node.is_leaf:
            if depth != 1:
                raise self._error("leaves are not all at the same depth")
            if len(node.keys) > self.leaf_capacity:
                raise self._error(
                    f"leaf holds {len(node.keys)} entries, capacity {self.leaf_capacity}"
                )
            if node.keys != sorted(node.keys):
                raise self._error("leaf keys are not sorted")
            if any(len(getattr(node, column)) != len(node.keys)
                   for column in self._leaf_columns):
                raise self._error("leaf keys and value columns differ in length")
            for key in node.keys:
                if low is not None and key < low:
                    raise self._error(f"leaf key {key!r} below lower bound {low!r}")
                if high is not None and key > high:
                    raise self._error(f"leaf key {key!r} above upper bound {high!r}")
            leaves.append(node)
            return
        if len(node.keys) > self.internal_capacity:
            raise self._error(
                f"internal node holds {len(node.keys)} keys, "
                f"capacity {self.internal_capacity}"
            )
        if any(len(getattr(node, column)) != len(node.keys) + 1
               for column in self._child_columns):
            raise self._error("internal node children/keys arity mismatch")
        if node.keys != sorted(node.keys):
            raise self._error("internal keys are not sorted")
        for index, child_ref in enumerate(node.children):
            child = self._load(child_ref)
            self._check_child(node, index, child)
            child_low = node.keys[index - 1] if index > 0 else low
            child_high = node.keys[index] if index < len(node.keys) else high
            self._validate_node(child, child_low, child_high, depth - 1, leaves)
