"""Unit tests for the MB-Tree (the TOM authenticated data structure)."""

import pytest

from repro.crypto.digest import SHA1
from repro.crypto.xor import digest_of_record
from repro.tom.mbtree import MBTree, MBTreeError, MBTreeLayout


def record(rid, key, payload=b"payload"):
    return (rid, key, payload)


def triple(rid, key):
    fields = record(rid, key)
    return key, rid, digest_of_record(fields)


def make_tree(page_size=256):
    return MBTree(layout=MBTreeLayout(page_size=page_size))


class TestLayout:
    def test_entry_sizes_include_digest(self):
        layout = MBTreeLayout(page_size=4096)
        assert layout.leaf_entry_size == 4 + 8 + 20
        assert layout.internal_entry_size == 4 + 8 + 20

    def test_fanout_lower_than_plain_bplus_tree(self):
        from repro.btree.node import NodeLayout

        assert MBTreeLayout(page_size=4096).leaf_capacity < NodeLayout(page_size=4096).leaf_capacity


class TestDigestMaintenance:
    def test_empty_tree_root_digest_is_hash_of_empty(self):
        tree = make_tree()
        assert tree.root_digest() == SHA1.hash(b"")

    def test_root_digest_changes_on_insert(self):
        tree = make_tree()
        before = tree.root_digest()
        tree.insert(*triple(1, 10))
        assert tree.root_digest() != before

    def test_root_digest_changes_on_delete(self):
        tree = make_tree()
        tree.insert(*triple(1, 10))
        tree.insert(*triple(2, 20))
        before = tree.root_digest()
        tree.delete(20, 2)
        assert tree.root_digest() != before

    def test_root_digest_independent_of_insertion_order(self):
        # The MB-tree digest depends on the *structure*, so two trees built by
        # the same bulk load must agree (this is what lets the DO and SP hold
        # identical copies).
        items = [triple(rid, rid * 3) for rid in range(200)]
        a, b = make_tree(), make_tree()
        a.bulk_load(sorted(items))
        b.bulk_load(sorted(items))
        assert a.root_digest() == b.root_digest()

    def test_validate_checks_digest_consistency(self, rng):
        tree = make_tree(page_size=128)
        for rid in range(300):
            tree.insert(*triple(rid, rng.randint(0, 100)))
        tree.validate()

    def test_validate_detects_corruption(self):
        tree = make_tree()
        for rid in range(50):
            tree.insert(*triple(rid, rid))
        # Corrupt one leaf digest behind the tree's back.
        node = tree._root
        while not node.is_leaf:
            node = node.children[0]
        node.digests[0] = SHA1.hash(b"corrupted")
        with pytest.raises(MBTreeError):
            tree.validate()


class TestQueriesAndMaintenance:
    def test_range_search_matches_reference(self, rng):
        tree = make_tree(page_size=128)
        reference = []
        for rid in range(600):
            key = rng.randint(0, 400)
            tree.insert(*triple(rid, key))
            reference.append((key, rid))
        result = tree.range_search(100, 200)
        assert sorted(result) == sorted((k, r) for k, r in reference if 100 <= k <= 200)

    def test_insert_requires_digest(self):
        tree = make_tree()
        with pytest.raises(MBTreeError):
            tree.insert(1, 1, b"raw")

    def test_delete_missing_raises(self):
        tree = make_tree()
        tree.insert(*triple(1, 5))
        with pytest.raises(MBTreeError):
            tree.delete(99)

    def test_delete_with_rid_among_duplicates(self):
        tree = make_tree()
        tree.insert(*triple(1, 5))
        tree.insert(*triple(2, 5))
        tree.delete(5, rid=1)
        remaining = tree.range_search(5, 5)
        assert remaining == [(5, 2)]
        tree.validate()

    def test_mass_delete_keeps_invariants(self, rng):
        tree = make_tree(page_size=128)
        entries = []
        for rid in range(400):
            key = rng.randint(0, 150)
            tree.insert(*triple(rid, key))
            entries.append((key, rid))
        rng.shuffle(entries)
        for key, rid in entries[:300]:
            tree.delete(key, rid)
        tree.validate()
        remaining = sorted(entries[300:])
        assert sorted(tree.range_search(0, 150)) == remaining

    def test_bulk_load_matches_incremental_content(self):
        items = sorted(triple(rid, rid % 37) for rid in range(500))
        bulk = make_tree()
        bulk.bulk_load(items)
        bulk.validate()
        assert bulk.num_entries == 500
        assert sorted(k for k, _, _ in bulk.items()) == sorted(k for k, _, _ in items)

    def test_bulk_load_requires_sorted(self):
        tree = make_tree()
        with pytest.raises(MBTreeError):
            tree.bulk_load([triple(1, 5), triple(2, 1)])

    def test_items_in_key_order(self, rng):
        tree = make_tree()
        for rid in range(200):
            tree.insert(*triple(rid, rng.randint(0, 99)))
        keys = [k for k, _, _ in tree.items()]
        assert keys == sorted(keys)

    def test_size_bytes_includes_signature(self, rsa_pair):
        signer, _ = rsa_pair
        tree = make_tree()
        tree.bulk_load(sorted(triple(rid, rid) for rid in range(100)))
        bare = tree.size_bytes()
        tree.signature = signer.sign(tree.root_digest())
        assert tree.size_bytes() == bare + tree.signature.size


class TestSharedBPlusTree:
    def test_mbtree_is_the_bplus_tree_with_digests(self):
        from repro.btree.tree import BPlusTree, BPlusTreeError

        assert issubclass(MBTree, BPlusTree)
        assert issubclass(MBTreeError, BPlusTreeError)
        maintenance = {
            "_find_leaf", "range_search", "delete", "_delete_recursive",
            "_rebalance_child", "_split_leaf", "_split_internal", "_leftmost_key",
            "_leftmost_key_of", "_intern_subtree", "_min_leaf_entries",
            "_min_internal_keys", "_free_initial_root", "_charge", "counter",
            "store", "height", "num_entries", "num_nodes", "num_leaves",
            "leaf_capacity", "internal_capacity", "__len__",
        }
        assert maintenance.isdisjoint(vars(MBTree))

    @pytest.mark.parametrize("fill_factor", [1.5, -1.0, 0.0])
    def test_bulk_load_refuses_fill_factor_outside_unit_interval(self, fill_factor):
        tree = make_tree()
        with pytest.raises(MBTreeError, match="fill factor"):
            tree.bulk_load([triple(rid, rid) for rid in range(100)], fill_factor=fill_factor)
        assert len(tree) == 0

    @pytest.mark.parametrize("count", [50, 56, 350])
    def test_full_bulk_load_never_overfills_an_internal_node(self, count):
        # 256-byte pages hold 7 entries per leaf and 6 keys per internal
        # node: these counts leave the last parent of a level one child.
        tree = make_tree()
        tree.bulk_load([triple(rid, rid) for rid in range(count)])
        pending = [tree.tree_state()["root"]]
        with tree.store.read_op():
            while pending:
                node = tree.store.load(pending.pop())
                if node.is_leaf:
                    assert len(node.keys) <= tree.leaf_capacity
                else:
                    assert len(node.keys) <= tree.internal_capacity
                    pending.extend(node.children)
        tree.validate()

    def test_validate_rejects_an_overfull_internal_node(self):
        tree = make_tree()
        tree.bulk_load([triple(rid, rid) for rid in range(30)])  # a root over 5 leaves
        root = tree.store.load(tree.tree_state()["root"])
        root.keys.extend([10**6] * (tree.internal_capacity + 1 - len(root.keys)))
        with pytest.raises(MBTreeError, match="capacity"):
            tree.validate()
