"""Property-based tests for the B+-tree against a reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import NodeLayout
from repro.storage.heapfile import RecordId
from repro.storage.node_store import PagedNodeStore


def make_tree():
    return BPlusTree(BPlusTreeConfig(layout=NodeLayout(page_size=128)))


keys = st.integers(min_value=0, max_value=200)


class TestBulkLoadProperties:
    @given(st.lists(keys, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_bulk_load_equals_reference_sort(self, key_list):
        items = sorted((key, index) for index, key in enumerate(key_list))
        tree = make_tree()
        tree.bulk_load(items)
        tree.validate()
        assert list(tree.items()) == items

    @given(st.lists(keys, max_size=300), st.tuples(keys, keys))
    @settings(max_examples=60, deadline=None)
    def test_range_search_equals_reference_filter(self, key_list, bounds):
        low, high = min(bounds), max(bounds)
        items = sorted((key, index) for index, key in enumerate(key_list))
        tree = make_tree()
        tree.bulk_load(items)
        expected = [(key, value) for key, value in items if low <= key <= high]
        assert tree.range_search(low, high) == expected


class BPlusTreeMachine(RuleBasedStateMachine):
    """Random insert/delete/query sequences checked against a plain list."""

    def __init__(self):
        super().__init__()
        self.tree = make_tree()
        self.model = []
        self.next_value = 0

    @rule(key=keys)
    def insert(self, key):
        self.tree.insert(key, self.next_value)
        self.model.append((key, self.next_value))
        self.next_value += 1

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.model:
            return
        index = data.draw(st.integers(min_value=0, max_value=len(self.model) - 1))
        key, value = self.model.pop(index)
        self.tree.delete(key, value)

    @rule(low=keys, high=keys)
    def range_query_matches_model(self, low, high):
        low, high = min(low, high), max(low, high)
        expected = sorted((k, v) for k, v in self.model if low <= k <= high)
        assert sorted(self.tree.range_search(low, high)) == expected

    @rule(key=keys)
    def point_query_matches_model(self, key):
        expected = sorted(v for k, v in self.model if k == key)
        assert sorted(self.tree.search(key)) == expected

    @invariant()
    def structural_invariants_hold(self):
        self.tree.validate()
        assert len(self.tree) == len(self.model)


BPlusTreeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestBPlusTreeStateMachine = BPlusTreeMachine.TestCase


duplicate_keys = st.integers(min_value=0, max_value=12)


class DuplicateKeyMachine(RuleBasedStateMachine):
    """Inserts and deletes over a dozen keys, so most keys repeat and
    deletes rebalance nodes whose separators equal their neighbours' keys.

    Values are heap-file ``RecordId``s, so the paged variant pages every
    leaf through the codec's record-id columns.  After every step the tree
    validates and each point and short range equals a sorted oracle.
    """

    paged = False

    def __init__(self):
        super().__init__()
        store = PagedNodeStore(pool_pages=4) if self.paged else None
        self.tree = BPlusTree(BPlusTreeConfig(layout=NodeLayout(page_size=96)), store=store)
        self.model = []
        self.next_value = 0

    @rule(key=duplicate_keys, copies=st.integers(min_value=1, max_value=4))
    def insert(self, key, copies):
        for _ in range(copies):
            value = RecordId(self.next_value // 5, self.next_value % 5)
            self.next_value += 1
            self.tree.insert(key, value)
            self.model.append((key, value))

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.model:
            return
        index = data.draw(st.integers(min_value=0, max_value=len(self.model) - 1))
        key, value = self.model.pop(index)
        self.tree.delete(key, value)

    @invariant()
    def every_range_matches_the_oracle(self):
        self.tree.validate()
        oracle = sorted(self.model)
        assert sorted(self.tree.range_search(0, 12)) == oracle
        for low in range(13):
            assert sorted(self.tree.search(low)) == [v for k, v in oracle if k == low]
            high = low + 2
            assert sorted(self.tree.range_search(low, high)) == [
                (k, v) for k, v in oracle if low <= k <= high
            ]


class PagedDuplicateKeyMachine(DuplicateKeyMachine):
    paged = True


_DUPLICATE_SETTINGS = settings(max_examples=20, stateful_step_count=50, deadline=None)
DuplicateKeyMachine.TestCase.settings = _DUPLICATE_SETTINGS
PagedDuplicateKeyMachine.TestCase.settings = _DUPLICATE_SETTINGS
TestDuplicateKeysMemory = DuplicateKeyMachine.TestCase
TestDuplicateKeysPaged = PagedDuplicateKeyMachine.TestCase
