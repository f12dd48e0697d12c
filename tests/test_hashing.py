"""Hash and Merkle tree tests against frozen golden vectors.

The golden file was produced by a standalone hashlib-only script
(scripts/make_golden_vectors.py) so these tests never trust the code
under test to generate its own expectations.
"""
import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mitto.hashing import (
    EMPTY_ROOT,
    Digest,
    IndexOutOfRange,
    ScBlockEntries,
    build_merkle,
    build_stc,
    fold_path,
    hash_bytes,
    merkle_path,
    merkle_root,
    verify_path,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "hash_vectors.json").read_text())


def d(i: int) -> Digest:
    return hash_bytes(bytes([i]))


def test_sha256_known_answers():
    assert hash_bytes(b"").hex() == GOLDEN["sha256_empty"]
    assert hash_bytes(b"abc").hex() == GOLDEN["sha256_abc"]
    assert EMPTY_ROOT.hex() == GOLDEN["empty_root"]


def test_leaf_digests_match_golden():
    for name, hexval in GOLDEN["leaves"].items():
        assert d(int(name[1:])).hex() == hexval


def test_domain_separated_node_hashing():
    assert hash_bytes(b"\x00" + d(0)).hex() == GOLDEN["leaf_d0"]
    left = hash_bytes(b"\x00" + d(0))
    right = hash_bytes(b"\x00" + d(1))
    assert hash_bytes(b"\x01" + left + right).hex() == GOLDEN["inner_d0_d1"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_merkle_roots_match_golden(n):
    tree = build_merkle([d(i) for i in range(n)])
    assert tree.root.hex() == GOLDEN[f"root_{n}"]


def test_empty_tree_root_is_empty_root():
    assert build_merkle([]).root == EMPTY_ROOT


@pytest.mark.parametrize("n", range(6))
def test_merkle_root_matches_golden(n):
    expected = GOLDEN["empty_root"] if n == 0 else GOLDEN[f"root_{n}"]
    assert merkle_root([d(i) for i in range(n)]).hex() == expected


def test_merkle_root_is_the_tree_root_for_every_size_to_70():
    for n in range(71):
        leaves = [d(i) for i in range(n)]
        root = merkle_root(leaves)
        assert root == build_merkle(leaves).root, n
        assert merkle_root(tuple(leaves)) == root, n
        assert type(root) is Digest, n


def test_single_leaf_has_path_of_length_one():
    tree = build_merkle([d(0)])
    path = merkle_path(tree, 0)
    assert len(path.siblings) == 1
    assert verify_path(tree.root, d(0), path)


def test_leaf_and_inner_prefixes_differ():
    # A leaf digest fed back in as an inner node must not collide.
    leaves = [d(0), d(1)]
    tree = build_merkle(leaves)
    assert tree.root != hash_bytes(d(0) + d(1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_every_path_verifies(n):
    leaves = [d(i) for i in range(n)]
    tree = build_merkle(leaves)
    for i, leaf in enumerate(leaves):
        path = merkle_path(tree, i)
        assert fold_path(leaf, path) == tree.root
        assert verify_path(tree.root, leaf, path)


def test_index_of_finds_the_first_occurrence():
    tree = build_merkle([d(0), d(1), d(0)])
    assert [tree.index_of(leaf) for leaf in (d(0), d(1), d(2))] == [0, 1, None]
    assert build_merkle([]).index_of(d(0)) is None


def test_path_beyond_real_leaves_raises():
    tree = build_merkle([d(0), d(1), d(2)])
    with pytest.raises(IndexOutOfRange):
        merkle_path(tree, 3)
    with pytest.raises(IndexOutOfRange):
        merkle_path(tree, 7)


def test_tampered_leaf_fails_verification():
    tree = build_merkle([d(0), d(1), d(2)])
    path = merkle_path(tree, 1)
    assert not verify_path(tree.root, d(2), path)


def test_merkle_path_steps_are_exact_bytes_bool_pairs():
    tree = build_merkle([d(i) for i in range(5)])
    for i in range(5):
        steps = merkle_path(tree, i).siblings
        assert type(steps) is tuple and len(steps) == 3
        for index, step in enumerate(steps):
            assert type(step) is tuple and len(step) == 2
            assert type(step[0]) is bytes and type(step[1]) is bool
            assert step[1] is bool(i >> index & 1)


def test_tampered_sibling_fails_verification():
    from dataclasses import replace

    tree = build_merkle([d(0), d(1), d(2), d(3)])
    path = merkle_path(tree, 2)
    bad = (d(4), path.siblings[0][1])
    tampered = replace(path, siblings=(bad,) + path.siblings[1:])
    assert not verify_path(tree.root, d(2), tampered)


def test_inconsistent_index_and_sides_returns_none():
    tree = build_merkle([d(0), d(1)])
    path = merkle_path(tree, 0)
    from dataclasses import replace

    lying = replace(path, leaf_index=1)  # sides say "leaf on left", index says right
    assert fold_path(d(0), lying) is None


bytes32 = st.binary(min_size=1, max_size=64).map(hash_bytes)


@settings(max_examples=60, deadline=None)
@given(st.lists(bytes32, min_size=1, max_size=16), st.data())
def test_path_roundtrip_property(leaves, data):
    tree = build_merkle(leaves)
    idx = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    path = merkle_path(tree, idx)
    assert fold_path(leaves[idx], path) == tree.root


@settings(max_examples=60, deadline=None)
@given(st.lists(bytes32, max_size=16))
def test_merkle_root_is_the_tree_root_property(leaves):
    assert merkle_root(leaves) == build_merkle(leaves).root


@settings(max_examples=60, deadline=None)
@given(st.lists(bytes32, min_size=2, max_size=16, unique=True), st.data())
def test_wrong_leaf_never_verifies_property(leaves, data):
    tree = build_merkle(leaves)
    idx = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    other = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1).filter(lambda j: j != idx))
    path = merkle_path(tree, idx)
    assert fold_path(leaves[other], path) != tree.root


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))))
def test_leaf_order_changes_root(perm):
    base = [d(i) for i in range(6)]
    permuted = [base[i] for i in perm]
    if permuted == base:
        assert build_merkle(permuted).root == build_merkle(base).root
    else:
        assert build_merkle(permuted).root != build_merkle(base).root


class TestStcTree:
    def entries(self):
        return {
            3: ScBlockEntries(cert_digest=d(0), tx_digests=(d(1), d(2))),
            7: ScBlockEntries(tx_digests=(d(3),)),
        }

    def test_deterministic(self):
        a = build_stc(self.entries())
        b = build_stc(dict(reversed(list(self.entries().items()))))
        assert a.tree.root == b.tree.root

    def test_cert_path_folds_to_root(self):
        stc = build_stc(self.entries())
        assert fold_path(d(0), stc.cert_path(3)) == stc.tree.root

    def test_txs_path_folds_to_root(self):
        stc = build_stc(self.entries())
        txs_root = stc.txs_trees[7].root
        assert fold_path(txs_root, stc.txs_path(7)) == stc.tree.root

    def test_missing_cert_slot_is_empty_root(self):
        stc = build_stc(self.entries())
        assert fold_path(EMPTY_ROOT, stc.cert_path(7)) == stc.tree.root

    def test_tx_digest_provable_via_two_folds(self):
        stc = build_stc(self.entries())
        txs_tree = stc.txs_trees[3]
        inner = merkle_path(txs_tree, 1)
        assert fold_path(d(2), inner) == txs_tree.root
        assert fold_path(txs_tree.root, stc.txs_path(3)) == stc.tree.root


def test_hash_bytes_returns_a_digest():
    assert type(hash_bytes(b"")) is Digest


def _plain(value) -> bool:
    """Exact ``bytes``, which the cyclic garbage collector does not track."""
    return type(value) is bytes and not gc.is_tracked(value)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_hash_outputs_roots_and_nodes_are_plain_bytes(n):
    leaves = [d(i) for i in range(n)]
    tree = build_merkle(leaves)
    path = merkle_path(tree, n - 1)
    assert all(_plain(value) for value in (hash_bytes(b"x"), EMPTY_ROOT, tree.root, merkle_root(leaves)))
    assert all(_plain(node) for level in tree.levels for node in level)
    assert _plain(fold_path(leaves[-1], path))
    stc = build_stc({3: ScBlockEntries(cert_digest=d(0), tx_digests=tuple(leaves))})
    assert _plain(stc.root) and all(_plain(node) for level in stc.tree.levels for node in level)


def _reference_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree, padding with EMPTY_ROOT and hashing every
    node, straight from hashlib."""
    padded = list(leaves)
    while len(padded) < 2 or len(padded) & (len(padded) - 1):
        padded.append(hashlib.sha256(b"").digest())
    levels = [[hashlib.sha256(b"\x00" + leaf).digest() for leaf in padded]]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([hashlib.sha256(b"\x01" + below[i] + below[i + 1]).digest() for i in range(0, len(below), 2)])
    return levels


@pytest.mark.parametrize("n", range(1, 34))
def test_padding_table_matches_hashing_every_node(n):
    leaves = [d(i) for i in range(n)]
    tree = build_merkle(leaves)
    levels = _reference_levels(leaves)
    assert [list(level) for level in tree.levels] == levels
    assert tree.root == levels[-1][0]
    assert all(type(node) is Digest for level in tree.levels for node in level)
