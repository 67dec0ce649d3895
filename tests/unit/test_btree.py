"""Unit tests for the conventional B+-tree (the SAE service provider's index)."""

import random

import pytest

from repro.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import NodeLayout
from repro.btree.tree import BPlusTreeError


def small_tree(page_size=256, fill_factor=1.0):
    layout = NodeLayout(page_size=page_size)
    return BPlusTree(BPlusTreeConfig(layout=layout, fill_factor=fill_factor))


class TestLayoutAndCapacity:
    def test_leaf_capacity_from_page_size(self):
        layout = NodeLayout(page_size=4096, key_size=4, value_size=8)
        assert layout.leaf_capacity == (4096 - 24) // 12

    def test_internal_capacity_from_page_size(self):
        layout = NodeLayout(page_size=4096, key_size=4, value_size=8, pointer_size=8)
        assert layout.internal_capacity == (4096 - 24 - 8) // 12

    def test_bplus_fanout_exceeds_mbtree_fanout(self):
        # This inequality is the entire mechanism behind Figure 6.
        from repro.tom.mbtree import MBTreeLayout

        bplus = NodeLayout(page_size=4096)
        mb = MBTreeLayout(page_size=4096)
        assert bplus.leaf_capacity > mb.leaf_capacity
        assert bplus.internal_capacity > mb.internal_capacity

    def test_minimum_capacity_enforced(self):
        layout = NodeLayout(page_size=64)
        assert layout.leaf_capacity >= 3
        assert layout.internal_capacity >= 3


class TestInsertAndSearch:
    def test_empty_tree(self):
        tree = small_tree()
        assert len(tree) == 0
        assert tree.search(5) == []
        assert tree.range_search(0, 100) == []
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_single_insert(self):
        tree = small_tree()
        tree.insert(10, "a")
        assert tree.search(10) == ["a"]
        assert tree.min_key() == tree.max_key() == 10

    def test_many_inserts_and_point_lookups(self):
        tree = small_tree()
        for value, key in enumerate(range(0, 400, 2)):
            tree.insert(key, value)
        tree.validate()
        assert tree.search(100) == [50]
        assert tree.search(101) == []
        assert len(tree) == 200

    def test_duplicate_keys_supported(self):
        tree = small_tree()
        for value in range(10):
            tree.insert(42, value)
        tree.validate()
        assert sorted(tree.search(42)) == list(range(10))

    def test_range_search_inclusive_bounds(self):
        tree = small_tree()
        for key in range(50):
            tree.insert(key, key)
        assert [k for k, _ in tree.range_search(10, 20)] == list(range(10, 21))

    def test_range_search_empty_and_inverted(self):
        tree = small_tree()
        for key in range(0, 100, 10):
            tree.insert(key, key)
        assert tree.range_search(41, 49) == []
        assert tree.range_search(60, 50) == []

    def test_range_search_results_in_key_order(self, rng):
        tree = small_tree()
        keys = [rng.randint(0, 1000) for _ in range(500)]
        for value, key in enumerate(keys):
            tree.insert(key, value)
        result_keys = [k for k, _ in tree.range_search(200, 800)]
        assert result_keys == sorted(result_keys)

    def test_splits_grow_height_and_balance(self):
        tree = small_tree(page_size=128)
        for key in range(500):
            tree.insert(key, key)
        tree.validate()
        assert tree.height >= 3
        assert tree.num_nodes == tree.num_leaves + (tree.num_nodes - tree.num_leaves)

    def test_items_iterates_in_key_order(self, rng):
        tree = small_tree()
        keys = [rng.randint(0, 300) for _ in range(200)]
        for value, key in enumerate(keys):
            tree.insert(key, value)
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestDelete:
    def test_delete_missing_key_raises(self):
        tree = small_tree()
        tree.insert(1, "a")
        with pytest.raises(BPlusTreeError):
            tree.delete(2)

    def test_delete_specific_value_among_duplicates(self):
        tree = small_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        tree.delete(5, "a")
        assert tree.search(5) == ["b"]

    def test_delete_without_value_removes_one(self):
        tree = small_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        tree.delete(5)
        assert len(tree.search(5)) == 1

    def test_delete_everything(self, rng):
        tree = small_tree(page_size=128)
        entries = [(rng.randint(0, 200), i) for i in range(300)]
        for key, value in entries:
            tree.insert(key, value)
        rng.shuffle(entries)
        for key, value in entries:
            tree.delete(key, value)
        tree.validate()
        assert len(tree) == 0
        assert tree.range_search(0, 200) == []

    def test_random_interleaved_inserts_and_deletes(self, rng):
        tree = small_tree(page_size=128)
        reference = []
        for step in range(1500):
            if reference and rng.random() < 0.45:
                key, value = reference.pop(rng.randrange(len(reference)))
                tree.delete(key, value)
            else:
                key, value = rng.randint(0, 150), step
                reference.append((key, value))
                tree.insert(key, value)
        tree.validate()
        assert sorted(tree.range_search(0, 150)) == sorted(reference)
        assert len(tree) == len(reference)


class TestBulkLoad:
    def test_bulk_load_round_trip(self):
        items = [(key, key * 2) for key in range(1000)]
        tree = small_tree()
        tree.bulk_load(items)
        tree.validate()
        assert len(tree) == 1000
        assert tree.range_search(10, 15) == [(k, k * 2) for k in range(10, 16)]

    def test_bulk_load_requires_sorted_input(self):
        tree = small_tree()
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([(2, "b"), (1, "a")])

    def test_bulk_load_requires_empty_tree(self):
        tree = small_tree()
        tree.insert(1, "a")
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([(2, "b")])

    def test_bulk_load_empty_input(self):
        tree = small_tree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_with_duplicates(self):
        items = sorted([(key % 20, key) for key in range(300)])
        tree = small_tree()
        tree.bulk_load(items)
        tree.validate()
        assert sorted(tree.search(7)) == sorted(v for k, v in items if k == 7)

    def test_bulk_load_then_mutate(self):
        tree = small_tree()
        tree.bulk_load([(key, key) for key in range(500)])
        tree.insert(250, "extra")
        tree.delete(100, 100)
        tree.validate()
        assert "extra" in tree.search(250)
        assert tree.search(100) == []

    def test_fill_factor_controls_leaf_count(self):
        full = small_tree(fill_factor=1.0)
        full.bulk_load([(key, key) for key in range(1000)])
        loose = small_tree(fill_factor=0.5)
        loose.bulk_load([(key, key) for key in range(1000)])
        assert loose.num_leaves > full.num_leaves


class TestCostAccounting:
    def test_traversal_charges_node_accesses(self):
        tree = small_tree(page_size=128)
        tree.bulk_load([(key, key) for key in range(2000)])
        before = tree.counter.node_accesses
        tree.range_search(500, 510)
        charged = tree.counter.node_accesses - before
        assert charged >= tree.height

    def test_larger_ranges_charge_more_leaves(self):
        tree = small_tree(page_size=128)
        tree.bulk_load([(key, key) for key in range(5000)])
        before = tree.counter.node_accesses
        tree.range_search(0, 10)
        small_cost = tree.counter.node_accesses - before
        before = tree.counter.node_accesses
        tree.range_search(0, 2500)
        large_cost = tree.counter.node_accesses - before
        assert large_cost > small_cost

    def test_size_bytes_is_pages_times_page_size(self):
        tree = small_tree(page_size=256)
        tree.bulk_load([(key, key) for key in range(1000)])
        assert tree.size_bytes() == tree.num_nodes * 256


def nodes_of(tree):
    """Every node of ``tree``, loaded through its store (test helper)."""
    nodes, pending = [], [tree.tree_state()["root"]]
    with tree.store.read_op():
        while pending:
            node = tree.store.load(pending.pop())
            nodes.append(node)
            if not node.is_leaf:
                pending.extend(node.children)
    return nodes


def assert_within_capacity(tree):
    for node in nodes_of(tree):
        capacity = tree.leaf_capacity if node.is_leaf else tree.internal_capacity
        assert len(node.keys) <= capacity


class TestFillFactorAndCapacity:
    @pytest.mark.parametrize("fill_factor", [1.5, -1.0, 0.0])
    def test_bulk_load_refuses_fill_factor_outside_unit_interval(self, fill_factor):
        tree = small_tree(fill_factor=fill_factor)
        with pytest.raises(BPlusTreeError, match="fill factor"):
            tree.bulk_load([(key, key) for key in range(200)])
        assert len(tree) == 0

    @pytest.mark.parametrize("count", [73, 80, 152, 656])
    def test_full_bulk_load_never_overfills_an_internal_node(self, count):
        # 128-byte pages hold 8 keys per node, so these counts leave one
        # child for the last parent of some level; joining it to the parent
        # before must not push that parent past its capacity.
        tree = small_tree(page_size=128)
        tree.bulk_load([(key, key) for key in range(count)])
        assert_within_capacity(tree)
        tree.validate()
        assert list(tree.items()) == [(key, key) for key in range(count)]

    def test_validate_rejects_an_overfull_leaf(self):
        tree = small_tree()
        tree.bulk_load([(key, key) for key in range(10)])
        leaf = tree.store.load(tree.tree_state()["root"])
        extra = range(10, tree.leaf_capacity + 1)
        leaf.keys.extend(extra)
        leaf.values.extend(extra)
        with pytest.raises(BPlusTreeError, match="capacity"):
            tree.validate()

    @pytest.mark.parametrize("scheme", ["sae", "tom"])
    def test_deployment_refuses_fill_factor_above_one(self, scheme):
        from repro import OutsourcedDB
        from repro.workloads.datasets import build_dataset

        dataset = build_dataset(300, record_size=64, seed=3)
        extra = {"key_bits": 512} if scheme == "tom" else {}
        with pytest.raises(BPlusTreeError, match="fill factor"):
            OutsourcedDB(dataset, scheme, index_fill_factor=1.5, **extra).setup()
