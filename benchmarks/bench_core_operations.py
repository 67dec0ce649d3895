"""Micro-benchmarks of the hot operations of both protocols.

Unlike the figure benchmarks (which run a whole experiment once), these
measure single operations with proper repetition so that pytest-benchmark's
statistics are meaningful:

* ``GenerateVT`` on the XB-tree (the TE's per-query work),
* the B+-tree range search (the SAE SP's index work),
* the MB-tree range search and VO construction (the TOM SP's work),
* SAE client verification (decode, hash + XOR of the result records), over
  fixed-width payloads and payloads of all different lengths,
* TOM client verification (hash the received payloads, root reconstruction,
  RSA signature check, decode for the range check),
* XB-tree maintenance (insert + delete of one tuple),
* the paged tier's node codec: encode and decode of a full B+-tree leaf of
  record ids and of a full XB-tree leaf.
"""

import pytest

from repro.core.client import Client
from repro.core.tuples import digest_record
from repro.crypto.digest import fold_xor
from repro.crypto.encoding import encode_record
from repro.crypto.signatures import make_rsa_pair
from repro.crypto.xor import digest_of_record
from repro.dbms.query import RangeQuery
from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.verification import verify_vo
from repro.btree import BPlusTree, BPlusTreeConfig
from repro.btree.node import BPlusLeafNode, NodeLayout
from repro.storage.heapfile import RecordId
from repro.storage.node_codec import decode_node, encode_node
from repro.xbtree import XBTree
from repro.xbtree.node import XBTreeLayout

N_RECORDS = 20_000
QUERY_LOW, QUERY_HIGH = 400_000, 450_000  # 0.5 % of the 10^7 domain
KEY_STEP = 500  # keys 0, 500, 1000, ... -> ~100 qualifying records


@pytest.fixture(scope="module")
def records():
    return {rid: (rid, rid * KEY_STEP, f"payload-{rid}".encode() * 4)
            for rid in range(N_RECORDS)}


@pytest.fixture(scope="module")
def xbtree(records):
    tree = XBTree(layout=XBTreeLayout(page_size=4096))
    tree.bulk_load(sorted((fields[1], rid, digest_record(fields))
                          for rid, fields in records.items()))
    return tree


@pytest.fixture(scope="module")
def bplus_tree(records):
    tree = BPlusTree(BPlusTreeConfig(layout=NodeLayout(page_size=4096)))
    tree.bulk_load(sorted((fields[1], rid) for rid, fields in records.items()))
    return tree


@pytest.fixture(scope="module")
def signed_mbtree(records):
    signer, verifier = make_rsa_pair(bits=1024, seed=3)
    tree = MBTree(layout=MBTreeLayout(page_size=4096))
    tree.bulk_load(sorted((fields[1], rid, digest_record(fields))
                          for rid, fields in records.items()))
    tree.signature = signer.sign(tree.root_digest())
    return tree, verifier


@pytest.fixture(scope="module")
def query_result(records):
    return [fields for fields in records.values()
            if QUERY_LOW <= fields[1] <= QUERY_HIGH]


def test_xbtree_generate_vt(benchmark, xbtree):
    token = benchmark(lambda: xbtree.generate_vt(QUERY_LOW, QUERY_HIGH, charge=False))
    assert not token.is_zero()


def test_bplus_tree_range_search(benchmark, bplus_tree):
    result = benchmark(lambda: bplus_tree.range_search(QUERY_LOW, QUERY_HIGH))
    assert len(result) > 0


def test_mbtree_range_search(benchmark, signed_mbtree):
    tree, _ = signed_mbtree
    result = benchmark(lambda: tree.range_search(QUERY_LOW, QUERY_HIGH))
    assert len(result) > 0


def test_mbtree_vo_construction(benchmark, signed_mbtree, records):
    tree, _ = signed_mbtree
    result, vo = benchmark(
        lambda: tree.build_vo(QUERY_LOW, QUERY_HIGH, record_loader=lambda rid: records[rid])
    )
    assert vo.count_markers() == len(result)


@pytest.mark.parametrize("widths", ["fixed", "all-different"])
def test_sae_client_verification(benchmark, query_result, widths):
    # "all-different": no two consecutive payloads share a length, so the
    # client never compiles a record layout and decodes field by field.
    if widths == "all-different":
        query_result = [(rid, key, payload + b"+" * index)
                        for index, (rid, key, payload) in enumerate(query_result)]
    client = Client(key_index=1)
    payloads = [encode_record(fields) for fields in query_result]  # what the SP ships
    assert len({len(payload) for payload in payloads}) == (
        1 if widths == "fixed" else len(payloads))
    token = fold_xor(digest_record(fields) for fields in query_result)
    outcome = benchmark(lambda: client.verify(payloads, token,
                                              query=RangeQuery(low=QUERY_LOW, high=QUERY_HIGH)))
    assert outcome.ok


def test_tom_client_verification(benchmark, signed_mbtree, records, query_result):
    tree, verifier = signed_mbtree
    _, vo = tree.build_vo(QUERY_LOW, QUERY_HIGH, record_loader=lambda rid: records[rid])
    payloads = [encode_record(fields) for fields in query_result]  # what the SP ships
    report = benchmark(lambda: verify_vo(vo, payloads, QUERY_LOW, QUERY_HIGH,
                                         verifier=verifier, key_index=1))
    assert report.ok, report.reason


def test_xbtree_insert_delete_cycle(benchmark, xbtree):
    digest = digest_of_record((10**9, 123_456, b"temporary"))

    def cycle():
        xbtree.insert(123_456, 10**9, digest)
        xbtree.delete(123_456, 10**9)

    benchmark(cycle)
    assert xbtree.num_tuples == N_RECORDS


def test_record_digest_throughput(benchmark, records):
    sample = list(records.values())[:500]
    benchmark(lambda: [digest_record(record) for record in sample])


@pytest.fixture(scope="module")
def full_leaves(xbtree):
    """A full 4 KB B+-tree leaf of record ids and a leaf of the XB-tree."""
    bplus = BPlusLeafNode()
    capacity = NodeLayout(page_size=4096).leaf_capacity
    bplus.keys = [index * KEY_STEP for index in range(capacity)]
    bplus.values = [RecordId(index // 8, index % 8) for index in range(capacity)]
    bplus.next_leaf = 1
    xb = xbtree.root
    while not xb.is_leaf:
        xb = xb.entries[0].child
    return {"bplus-leaf": bplus, "xb-leaf": xb}


@pytest.mark.parametrize("kind", ["bplus-leaf", "xb-leaf"])
def test_node_encode(benchmark, full_leaves, kind):
    blob = benchmark(lambda: encode_node(full_leaves[kind]))
    assert blob[2] == {"bplus-leaf": 6, "xb-leaf": 7}[kind]  # the columnar layouts


@pytest.mark.parametrize("kind", ["bplus-leaf", "xb-leaf"])
def test_node_decode(benchmark, full_leaves, kind):
    blob = encode_node(full_leaves[kind])
    node = benchmark(lambda: decode_node(blob))
    assert encode_node(node) == blob
