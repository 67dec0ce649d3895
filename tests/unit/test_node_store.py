"""Unit tests for the pluggable node-store layer (repro.storage.node_store)."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.node import BPlusInternalNode
from repro.storage import (
    MEMORY_NODE_STORE,
    MemoryNodeStore,
    NodeStoreError,
    PagedNodeStore,
    PoolStats,
    StorageConfig,
)
from repro.storage import node_store as node_store_module
from repro.storage.node_codec import CODEC_MAGIC, NodeCodecError, encode_node

#: The version-1 header of a pickle-wrapped payload (magic, version 1, node
#: type 0, no scheme name), which the store still reads.
_V1_PICKLED = bytes([CODEC_MAGIC, 1, 0, 0])


@pytest.fixture(autouse=True)
def toy_nodes_as_version1_pickles(monkeypatch):
    """Most tests here page toy nodes (lists, dicts) that have no codec
    layout; the store writes them as the version-1 pickle-wrapped payload,
    byte for byte what it wrote for them before the pickle writer was
    retired, and reads them back through the version-1 decoder."""
    def encode(node):
        try:
            return encode_node(node)
        except NodeCodecError:
            return _V1_PICKLED + pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)

    monkeypatch.setattr(node_store_module, "encode_node", encode)


class TestMemoryNodeStore:
    def test_references_are_the_objects(self):
        store = MemoryNodeStore()
        node = {"payload": 1}
        with store.write_op():
            ref = store.register(node)
        assert ref is node
        assert store.load(ref) is node

    def test_scopes_and_free_are_noops(self):
        store = MEMORY_NODE_STORE
        with store.read_op():
            with store.write_op():
                store.free(store.register([1])) is None
        assert store.stats == PoolStats()

    def test_scoped_stats_yield_zero(self):
        with MEMORY_NODE_STORE.scoped_stats() as tally:
            pass
        assert (tally.hits, tally.misses, tally.evictions) == (0, 0, 0)


class TestPagedNodeStore:
    def test_register_load_roundtrip(self):
        store = PagedNodeStore(pool_pages=4, page_size=256)
        with store.write_op():
            ref = store.register({"keys": [1, 2, 3]})
        assert isinstance(ref, int)
        assert store.load(ref) == {"keys": [1, 2, 3]}

    def test_multi_page_nodes(self):
        store = PagedNodeStore(pool_pages=2, page_size=128)
        big = list(range(500))  # far larger than one 128-byte page
        with store.write_op():
            ref = store.register(big)
        assert store.load(ref) == big
        assert len(store.snapshot_state()["chains"][ref]) > 1

    def test_identity_within_an_operation_scope(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            ref = store.register([1])
        with store.read_op():
            assert store.load(ref) is store.load(ref)
        # outside a scope every load deserialises a fresh object
        assert store.load(ref) is not store.load(ref)

    def test_mutation_writes_back_on_scope_exit(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            ref = store.register([1])
        with store.write_op():
            store.load(ref).append(2)
        assert store.load(ref) == [1, 2]

    def test_failed_write_scope_rolls_back(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            ref = store.register([1])
        with pytest.raises(RuntimeError):
            with store.write_op():
                store.load(ref).append(99)
                raise RuntimeError("mid-operation failure")
        assert store.load(ref) == [1]

    def test_failed_scope_discards_registrations(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        captured = []
        with pytest.raises(RuntimeError):
            with store.write_op():
                captured.append(store.register([1]))
                raise RuntimeError("boom")
        with pytest.raises(NodeStoreError):
            store.load(captured[0])

    def test_register_and_free_require_write_scope(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with pytest.raises(NodeStoreError):
            store.register([1])
        with store.write_op():
            ref = store.register([1])
        with pytest.raises(NodeStoreError):
            store.free(ref)
        with store.read_op():
            with pytest.raises(NodeStoreError):
                store.register([2])

    def test_free_releases_pages_for_reuse(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            ref = store.register([1, 2, 3])
        pages_before = store.pool.pager.num_pages
        with store.write_op():
            store.free(ref)
        with pytest.raises(NodeStoreError):
            store.load(ref)
        with store.write_op():
            store.register([4, 5, 6])
        assert store.pool.pager.num_pages == pages_before  # freed page reused

    def test_unknown_reference_raises(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with pytest.raises(NodeStoreError):
            store.load(12345)
        with pytest.raises(NodeStoreError):
            store.load("not-a-ref")

    def test_traversal_pins_exceed_capacity_transiently(self):
        """A scope touching more nodes than the pool holds must not evict
        its own path; capacity is restored when the scope closes."""
        store = PagedNodeStore(pool_pages=1, page_size=256)
        with store.write_op():
            refs = [store.register([i]) for i in range(5)]
        with store.read_op():
            nodes = [store.load(ref) for ref in refs]
            assert [node[0] for node in nodes] == list(range(5))
            assert store.pool.resident_pages >= 5  # everything pinned
            assert store.pool.pinned_pages >= 5
        assert store.pool.pinned_pages == 0
        assert store.pool.resident_pages <= 1

    def test_pool_smaller_than_node_count_stays_bounded(self):
        store = PagedNodeStore(pool_pages=3, page_size=256)
        with store.write_op():
            refs = [store.register([i] * 8) for i in range(40)]
        for ref in refs:
            store.load(ref)
        assert store.pool.resident_pages <= 3
        assert store.num_nodes == 40
        assert store.stats.evictions > 0

    def test_scoped_stats_tally_hits_and_misses(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        store.pool.evict_all()
        with store.scoped_stats() as tally:
            store.load(ref)  # miss
            store.load(ref)  # hit
        assert tally.misses == 1
        assert tally.hits == 1

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "trees.nodes")
        store = PagedNodeStore(path=path, pool_pages=2, page_size=256)
        with store.write_op():
            refs = [store.register({"i": i}) for i in range(10)]
        store.flush()
        state = store.snapshot_state()
        store.close()

        reopened = PagedNodeStore(path=path, pool_pages=2, page_size=256)
        reopened.restore_state(state)
        assert [reopened.load(ref)["i"] for ref in refs] == list(range(10))

    def test_restore_state_rejects_out_of_range_pages(self, tmp_path):
        path = str(tmp_path / "trees.nodes")
        store = PagedNodeStore(path=path, pool_pages=2, page_size=256)
        with store.write_op():
            store.register([1])
        store.flush()
        state = store.snapshot_state()
        state["chains"][0] = [999]
        store.close()
        reopened = PagedNodeStore(path=path, pool_pages=2, page_size=256)
        with pytest.raises(NodeStoreError):
            reopened.restore_state(state)

    def test_nested_write_inside_read_escalates(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            ref = store.register([1])
        with store.read_op():
            with store.write_op():
                store.load(ref).append(2)
        assert store.load(ref) == [1, 2]

    def test_rejects_non_positive_pool(self):
        with pytest.raises(NodeStoreError):
            PagedNodeStore(pool_pages=0)

    def test_state_is_picklable(self):
        store = PagedNodeStore(pool_pages=2, page_size=256)
        with store.write_op():
            store.register([1])
        assert pickle.loads(pickle.dumps(store.snapshot_state()))


def scoped_load(store, ref):
    """One read scope loading ``ref``: the object and the scope's pool tally."""
    with store.scoped_stats() as tally, store.read_op():
        node = store.load(ref)
    return node, tally


class TestResidentNodes:
    """The ref -> decoded-node map kept beside the pooled pages."""

    def test_warm_scopes_share_one_object_and_still_count_every_page(self):
        def run(clear_between):
            store = PagedNodeStore(pool_pages=8, page_size=128)
            with store.write_op():
                ref = store.register(list(range(200)))  # a multi-page chain
            nodes, tallies = [], []
            for _ in range(2):
                if clear_between:
                    store._resident.clear()
                node, tally = scoped_load(store, ref)
                nodes.append(node)
                tallies.append(tally)
            return store, ref, nodes, tallies

        store, ref, warm, warm_tallies = run(clear_between=False)
        cleared, _, cold, cold_tallies = run(clear_between=True)
        assert warm[0] is warm[1]
        assert cold[0] is not cold[1] and cold[0] == cold[1] == warm[0]
        pages = len(store.snapshot_state()["chains"][ref])
        assert pages > 1
        assert warm_tallies[1] == PoolStats(hits=pages)
        assert warm_tallies == cold_tallies
        assert store.stats == cleared.stats

    def test_failed_write_scope_never_leaks_an_in_place_mutation(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        resident, _ = scoped_load(store, ref)
        with pytest.raises(RuntimeError):
            with store.write_op():
                assert store.load(ref) is resident
                store.load(ref).append(99)
                raise RuntimeError("mid-operation failure")
        after, _ = scoped_load(store, ref)
        assert after == [1]
        assert after is not resident

    def test_failed_escalated_read_scope_never_leaks_either(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
            bystander = store.register([7])
        resident, _ = scoped_load(store, ref)
        seen_bystander, _ = scoped_load(store, bystander)
        with pytest.raises(RuntimeError):
            with store.read_op():
                node = store.load(ref)  # loaded before the escalation
                store.load(bystander)
                with store.write_op():
                    node.append(99)
                raise RuntimeError("failed after the nested write returned")
        after, _ = scoped_load(store, ref)
        assert after == [1] and after is not resident
        # every ref the failed operation loaded is dropped, mutated or not
        assert scoped_load(store, bystander)[0] is not seen_bystander

    def test_failed_scope_drops_a_node_it_mutated_and_then_freed(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        resident, _ = scoped_load(store, ref)
        with pytest.raises(RuntimeError):
            with store.write_op():
                store.load(ref).clear()  # a merge empties the node it frees
                store.free(ref)
                raise RuntimeError("failed after the free")
        after, _ = scoped_load(store, ref)  # the free never happened
        assert after == [1] and after is not resident

    def test_failed_pure_read_scope_keeps_its_nodes_resident(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        resident, _ = scoped_load(store, ref)
        with pytest.raises(RuntimeError):
            with store.read_op():
                store.load(ref)
                raise RuntimeError("a reader gave up")
        assert scoped_load(store, ref)[0] is resident

    def test_committed_mutation_is_served_and_survives_a_restart(self, tmp_path):
        path = str(tmp_path / "trees.nodes")
        store = PagedNodeStore(path=path, pool_pages=8, page_size=256)
        node = BPlusInternalNode()
        node.keys, node.children = [10], [0, 1]
        with store.write_op():
            ref = store.register(node)
        resident, _ = scoped_load(store, ref)
        with store.write_op():
            loaded = store.load(ref)
            assert loaded is resident
            loaded.keys.append(20)
            loaded.children.append(2)
        served, _ = scoped_load(store, ref)
        assert served is resident and served.keys == [10, 20]
        store.flush()
        state = store.snapshot_state()
        store.close()

        reopened = PagedNodeStore(path=path, pool_pages=8, page_size=256)
        reopened.restore_state(state)
        from_disk, tally = scoped_load(reopened, ref)
        assert tally.misses == 1
        assert from_disk is not resident
        assert encode_node(from_disk) == encode_node(resident)

    def test_an_evicted_page_costs_a_miss_and_a_fresh_decode(self):
        store = PagedNodeStore(pool_pages=2, page_size=128)
        with store.write_op():
            small = store.register([1])
            wide = store.register(list(range(60)))  # two pages: fills the pool
        first, _ = scoped_load(store, small)
        assert scoped_load(store, small)[0] is first
        scoped_load(store, wide)  # pushes small's page out; its map entry stays
        assert small in store._resident
        again, tally = scoped_load(store, small)
        assert tally.misses == 1
        assert again == first and again is not first
        assert store._resident[small] is again

    def test_evict_all_makes_every_next_load_decode_afresh(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        first, _ = scoped_load(store, ref)
        store.pool.evict_all()
        again, tally = scoped_load(store, ref)
        assert (tally.hits, tally.misses) == (0, 1)
        assert again is not first

    def test_scopeless_load_neither_reads_nor_fills_the_map(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        store._resident.clear()
        private = store.load(ref)
        assert ref not in store._resident
        resident, _ = scoped_load(store, ref)
        assert store.load(ref) is not resident
        private.append(2)  # walks own their objects outright
        assert scoped_load(store, ref)[0] == [1]

    def test_a_freed_ref_number_never_resurrects_its_old_object(self):
        store = PagedNodeStore(pool_pages=8, page_size=256)
        before = store.snapshot_state()
        with store.write_op():
            ref = store.register(["old"])
        old, _ = scoped_load(store, ref)
        with store.write_op():
            store.load(ref)
            store.free(ref)
        assert ref not in store._resident
        # The allocator only hands a number out again after a restore to an
        # earlier state.
        store.restore_state(before)
        with store.write_op():
            assert store.register(["new"]) == ref
        new, _ = scoped_load(store, ref)
        assert new == ["new"] and new is not old

    def test_restore_and_close_clear_the_map(self, tmp_path):
        store = PagedNodeStore(path=str(tmp_path / "n.nodes"), pool_pages=8, page_size=256)
        with store.write_op():
            ref = store.register([1])
        store.flush()
        state = store.snapshot_state()
        assert ref in store._resident
        store.restore_state(state)
        assert not store._resident
        scoped_load(store, ref)
        store.close()
        assert not store._resident

    @settings(max_examples=60, deadline=None)
    @given(
        pool_pages=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["load", "register", "mutate", "free", "fail", "evict"]),
                st.integers(0, 40),
                st.integers(1, 70),
            ),
            max_size=60,
        ),
    )
    def test_map_stays_pool_sized_and_equal_to_the_stored_bytes(self, pool_pages, ops):
        store = PagedNodeStore(pool_pages=pool_pages, page_size=128)
        model = {}

        def pick(index):
            return sorted(model)[index % len(model)]

        for op, index, width in ops:
            if op == "register" or not model:
                with store.write_op():
                    model[store.register(list(range(width)))] = list(range(width))
            elif op == "load":
                assert scoped_load(store, pick(index))[0] == model[pick(index)]
            elif op == "mutate":
                with store.write_op():
                    for ref in {pick(index), pick(index + 1)}:
                        store.load(ref)
                    store.load(pick(index)).append(width)
                model[pick(index)].append(width)
            elif op == "free":
                ref = pick(index)
                with store.write_op():
                    store.load(ref)
                    store.free(ref)
                del model[ref]
            elif op == "fail":
                with pytest.raises(RuntimeError):
                    with store.read_op():
                        node = store.load(pick(index))
                        with store.write_op():
                            node.append(-1)
                            store.register(["never committed"])
                            raise RuntimeError("boom")
            else:
                store.pool.evict_all()
            assert len(store._resident) <= store.pool.capacity
            assert set(store._resident) <= set(model)
        for ref, expected in model.items():
            assert scoped_load(store, ref)[0] == expected
            assert store.load(ref) == expected


class TestWriteBack:
    def test_commit_dirties_only_the_pages_whose_bytes_changed(self):
        store = PagedNodeStore(pool_pages=64, page_size=128)
        with store.write_op():
            refs = [store.register(list(range(60))) for _ in range(10)]  # 2 pages each
        store.flush()
        writes = store.pool.pager.counter.page_writes
        with store.write_op():
            for ref in refs:
                store.load(ref)
            store.load(refs[3])[-1] = 7  # same width: only the last page's bytes move
        store.flush()
        assert store.pool.pager.counter.page_writes - writes == 1
        assert store.load(refs[3])[-1] == 7

    def test_new_nodes_and_grown_chains_are_always_written(self):
        store = PagedNodeStore(pool_pages=64, page_size=128)
        with store.write_op():
            ref = store.register([1])
        store.flush()
        writes = store.pool.pager.counter.page_writes
        with store.write_op():
            store.load(ref).extend(range(100))
            fresh = store.register(list(range(60)))
        store.flush()
        chains = store.snapshot_state()["chains"]
        written = store.pool.pager.counter.page_writes - writes
        assert written == len(chains[ref]) + len(chains[fresh])
        assert store.load(ref) == [1, *range(100)]

    def test_unchanged_commit_keeps_the_pool_counters_of_a_rewrite(self):
        """Skipping a write skips no fetch: hits, misses and LRU order are
        what they were when every loaded page was rewritten."""
        store = PagedNodeStore(pool_pages=4, page_size=128)
        with store.write_op():
            refs = [store.register([i]) for i in range(3)]
        with store.scoped_stats() as tally, store.write_op():
            for ref in refs:
                store.load(ref)
        assert (tally.hits, tally.misses) == (6, 0)  # 3 loads + 3 write-back fetches


class TestStorageConfig:
    def test_memory_default(self):
        config = StorageConfig()
        assert not config.is_paged
        assert config.node_store("sp") is MEMORY_NODE_STORE
        assert config.heap_pager("sp") is None

    def test_paged_without_dir_is_bounded_but_volatile(self):
        config = StorageConfig(mode="paged", pool_pages=4)
        store = config.node_store("sp")
        assert isinstance(store, PagedNodeStore)
        assert store.pool.capacity == 4
        assert config.heap_pager("sp") is None

    def test_paged_with_dir_creates_files(self, tmp_path):
        config = StorageConfig(mode="paged", data_dir=str(tmp_path), pool_pages=4)
        store = config.node_store("sp0")
        with store.write_op():
            store.register([1])
        store.flush()
        pager = config.heap_pager("sp0")
        assert (tmp_path / "sp0.nodes").exists()
        assert pager is not None
        pager.close()
        store.close()

    def test_rejects_unknown_mode_and_bad_pool(self):
        with pytest.raises(NodeStoreError):
            StorageConfig(mode="cloud")
        with pytest.raises(NodeStoreError):
            StorageConfig(mode="paged", pool_pages=0)

