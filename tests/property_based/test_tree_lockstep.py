"""One Hypothesis machine drives the MB-tree and the B+-tree in lockstep.

An ``MBTree`` over ``MBTreeLayout(page_size=P)`` and a ``BPlusTree`` over
``NodeLayout(page_size=P, value_size=28, pointer_size=28)`` have equal leaf
and internal capacities (a 28-byte value or pointer is the MB-tree's 8-byte
pointer plus its 20-byte digest), so the same inserts, deletes and range
queries must give both trees the same shape, charge both the same node
accesses and return the same answers -- while every MB child digest stays
equal to its recomputation.  The machine runs once over the memory store and
once over a paged store whose 4-page pool evicts on nearly every operation.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import NodeLayout
from repro.btree.tree import BPlusTreeError
from repro.crypto.xor import digest_of_record
from repro.storage.node_store import PagedNodeStore
from repro.tom.mbtree import MBTree, MBTreeError, MBTreeLayout

PAGE_SIZES = (128, 160, 256, 512)
keys = st.integers(min_value=0, max_value=120)


def key_shape(tree):
    """The keys of every node, level by level from the root."""
    levels, level = [], [tree.tree_state()["root"]]
    with tree.store.read_op():
        while level:
            nodes = [tree.store.load(ref) for ref in level]
            levels.append([list(node.keys) for node in nodes])
            level = [ref for node in nodes if not node.is_leaf for ref in node.children]
    return levels


class LockstepMachine(RuleBasedStateMachine):
    """Apply every rule to both trees; they must never tell apart."""

    paged = False

    @initialize(page_size=st.sampled_from(PAGE_SIZES))
    def build(self, page_size):
        def store():
            return PagedNodeStore(pool_pages=4) if self.paged else None

        self.mb = MBTree(MBTreeLayout(page_size=page_size), store=store())
        layout = NodeLayout(page_size=page_size, value_size=28, pointer_size=28)
        self.bp = BPlusTree(BPlusTreeConfig(layout=layout), store=store())
        assert (self.mb.leaf_capacity, self.mb.internal_capacity) == (
            self.bp.leaf_capacity, self.bp.internal_capacity)
        self.model = []
        self.next_rid = 0

    @rule(key=keys)
    def insert(self, key):
        rid = self.next_rid
        self.next_rid += 1
        self.mb.insert(key, rid, digest_of_record((rid, key, b"payload")))
        self.bp.insert(key, rid)
        self.model.append((key, rid))

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.model:
            return
        index = data.draw(st.integers(min_value=0, max_value=len(self.model) - 1))
        key, rid = self.model.pop(index)
        self.mb.delete(key, rid)
        self.bp.delete(key, rid)

    @rule(key=keys)
    def delete_missing(self, key):
        rid = self.next_rid  # never stored
        for tree, error in ((self.mb, MBTreeError), (self.bp, BPlusTreeError)):
            try:
                tree.delete(key, rid)
            except error:
                pass
            else:
                raise AssertionError("deleting an absent entry succeeded")

    @rule(low=keys, high=keys)
    def range_search(self, low, high):
        low, high = min(low, high), max(low, high)
        answer = self.mb.range_search(low, high)
        assert answer == self.bp.range_search(low, high)
        assert sorted(answer) == sorted(e for e in self.model if low <= e[0] <= high)

    @invariant()
    def trees_agree(self):
        self.mb.validate()
        self.bp.validate()
        assert key_shape(self.mb) == key_shape(self.bp)
        assert self.mb.counter.node_accesses == self.bp.counter.node_accesses
        assert len(self.mb) == len(self.bp) == len(self.model)


class PagedLockstepMachine(LockstepMachine):
    paged = True


_SETTINGS = settings(max_examples=25, stateful_step_count=80, deadline=None)
LockstepMachine.TestCase.settings = _SETTINGS
PagedLockstepMachine.TestCase.settings = _SETTINGS
TestMemoryLockstep = LockstepMachine.TestCase
TestPagedLockstep = PagedLockstepMachine.TestCase
