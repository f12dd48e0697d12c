"""Commitment hashing: digests, Merkle trees, and the per-block sidechain commitment tree.

Every commitment in the simulator reduces to SHA-256. Trees pad their leaf
list to a power of two (minimum two) with EMPTY_ROOT sentinels and use
domain-separated node hashing: leaf-level nodes are hash(0x00 || leaf),
internal nodes hash(0x01 || left || right), which keeps an internal node
from ever being replayed as a leaf. The node over an all-padding subtree
depends only on its height, so it comes from a table, not from hashing.

A digest is plain ``bytes``, which the cyclic garbage collector does not
track. Nothing here checks its length: the wire codecs read exactly 32
bytes for a digest and refuse to write one of any other length.
``hash_bytes`` is the one SHA-256 call, once per tree node too, and it
reads ``_sha256`` when called. A path step is a plain ``(digest, on_left)``
tuple, not an object of its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property


#: A 32-byte SHA-256 output.
Digest = bytes

_sha256 = hashlib.sha256


def hash_bytes(data: bytes) -> Digest:
    return _sha256(data).digest()


#: Root of an empty tree, also the padding sentinel: SHA-256 of the empty string.
EMPTY_ROOT = hash_bytes(b"")

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _padding_nodes(heights: int) -> tuple[Digest, ...]:
    nodes = [hash_bytes(_LEAF_PREFIX + EMPTY_ROOT)]
    while len(nodes) < heights:
        nodes.append(hash_bytes(_NODE_PREFIX + nodes[-1] + nodes[-1]))
    return tuple(nodes)


#: ``_PADDING[h]`` is the node over an all-padding subtree of height ``h``.
#: 64 heights cover any tree a list can hold.
_PADDING = _padding_nodes(64)


class IndexOutOfRange(Exception):
    """Path requested for an index that is padding or beyond the leaf list."""


@dataclass(frozen=True, init=False)
class MerklePath:
    """Authentication path of one leaf: per level, a plain ``(digest,
    on_left)`` pair naming the sibling node and the side it sits on. Its
    wire form, constructor included, is declared in ``encoding``, beside
    the codecs it is built from; ``import mitto`` loads both."""

    leaf_index: int
    siblings: tuple[tuple[Digest, bool], ...]


@dataclass(frozen=True, eq=False, repr=False)
class MerkleTree:
    """Padded binary commitment tree.

    ``leaves`` holds the caller's digests in insertion order, unpadded.
    ``levels[0]`` holds the leaf-level nodes over the padded list; each later
    level halves the previous one; the last level is [root]. An empty tree
    has no levels and root EMPTY_ROOT.
    """

    leaves: tuple[Digest, ...]
    levels: tuple[tuple[Digest, ...], ...]
    root: Digest

    def index_of(self, leaf: Digest) -> int | None:
        """Where ``leaf`` first occurs in ``leaves``, or None."""
        return self._positions.get(leaf)

    @cached_property
    def _positions(self) -> dict[Digest, int]:
        positions: dict[Digest, int] = {}
        for index, leaf in enumerate(self.leaves):
            positions.setdefault(leaf, index)
        return positions


def _padded_size(n: int) -> int:
    size = 2
    while size < n:
        size *= 2
    return size


def build_merkle(leaves: list[Digest]) -> MerkleTree:
    """Build the tree over ``leaves`` in the given order.

    The leaf list is padded to the next power of two (minimum two) with
    EMPTY_ROOT sentinels, so a single real leaf still has a one-step path.
    """
    if not leaves:
        return MerkleTree(leaves=(), levels=(), root=EMPTY_ROOT)
    # ``nodes`` holds a level's nodes up to the last one over a real leaf;
    # the rest of the level is padding, taken from the table.
    nodes = [hash_bytes(_LEAF_PREFIX + d) for d in leaves]
    width = _padded_size(len(nodes))
    levels: list[tuple[Digest, ...]] = []
    for pad in _PADDING:
        levels.append(tuple(nodes) + (pad,) * (width - len(nodes)))
        if width == 1:
            break
        if len(nodes) % 2:
            nodes.append(pad)
        pairs = iter(nodes)  # zipped with itself: (nodes[0], nodes[1]), (nodes[2], nodes[3]), ...
        nodes = [hash_bytes(_NODE_PREFIX + left + right) for left, right in zip(pairs, pairs)]
        width //= 2
    return MerkleTree(leaves=tuple(leaves), levels=tuple(levels), root=levels[-1][0])


def merkle_root(leaves) -> Digest:
    """``build_merkle(leaves).root``, computed level by level without
    keeping the levels: for callers that read nothing but the root."""
    if not leaves:
        return EMPTY_ROOT
    nodes = [hash_bytes(_LEAF_PREFIX + d) for d in leaves]
    for pad in _PADDING:
        if len(nodes) % 2:
            nodes.append(pad)
        pairs = iter(nodes)
        nodes = [hash_bytes(_NODE_PREFIX + left + right) for left, right in zip(pairs, pairs)]
        if len(nodes) == 1:
            return nodes[0]


def merkle_path(tree: MerkleTree, index: int) -> MerklePath:
    """Authentication path for the real leaf at ``index``.

    Padding positions are not provable: asking for them (or anything past
    the padded width) raises IndexOutOfRange.
    """
    if index < 0 or index >= len(tree.leaves):
        raise IndexOutOfRange(f"leaf index {index} outside 0..{len(tree.leaves) - 1}")
    sibs = []
    node = index
    for level in tree.levels[:-1]:
        sib = node ^ 1
        sibs.append((level[sib], sib < node))
        node //= 2
    return MerklePath(leaf_index=index, siblings=tuple(sibs))


def fold_path(leaf: Digest, path: MerklePath) -> Digest | None:
    """Root obtained by folding ``leaf`` up through ``path``.

    Returns None for a malformed path: side flags disagreeing with the leaf
    index, or an index wider than the path allows.
    """
    index = path.leaf_index
    if index < 0 or index >> len(path.siblings):
        return None
    node = hash_bytes(_LEAF_PREFIX + leaf)
    for digest, on_left in path.siblings:
        if on_left != bool(index & 1):
            return None
        node = hash_bytes(_NODE_PREFIX + digest + node if on_left else _NODE_PREFIX + node + digest)
        index >>= 1
    return node


def verify_path(root: Digest, leaf: Digest, path: MerklePath) -> bool:
    """True iff folding ``leaf`` up through ``path`` reproduces ``root``."""
    return fold_path(leaf, path) == root


# ---------------------------------------------------------------------------
# Per-block sidechain transactions commitment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class ScBlockEntries:
    """Everything one sidechain contributed to a single mainchain block:
    at most one certificate digest, and its transaction digests in order."""

    cert_digest: Digest | None = None
    tx_digests: tuple[Digest, ...] = ()


@dataclass(frozen=True, eq=False, repr=False)
class StcTree:
    """Commitment over all sidechain activity in one block.

    Leaf layout: for each contributing sidechain in ascending ScId order,
    two adjacent leaves (certificate digest or EMPTY_ROOT, root of that
    sidechain's tx-digest tree). The node directly above each pair is the
    per-sidechain subtree root; the overall root commits them all. With this
    layout a certificate digest or a tx-tree root is an ordinary leaf, so
    commitment paths come straight from merkle_path.
    """

    tree: MerkleTree
    txs_trees: dict[int, MerkleTree]

    @property
    def root(self) -> Digest:
        return self.tree.root

    def ordered_ids(self) -> list[int]:
        return sorted(self.txs_trees)

    def cert_leaf_index(self, sc_id: int) -> int:
        return 2 * self.ordered_ids().index(sc_id)

    def txs_leaf_index(self, sc_id: int) -> int:
        return 2 * self.ordered_ids().index(sc_id) + 1

    def cert_path(self, sc_id: int) -> MerklePath:
        return merkle_path(self.tree, self.cert_leaf_index(sc_id))

    def txs_path(self, sc_id: int) -> MerklePath:
        return merkle_path(self.tree, self.txs_leaf_index(sc_id))


def build_stc(entries: dict[int, ScBlockEntries]) -> StcTree:
    """Build the block commitment from per-sidechain contributions: per
    sidechain, its certificate digest (EMPTY_ROOT when it has none) and the
    root of its tx-digest tree. No entries at all commits to EMPTY_ROOT.
    """
    txs_trees: dict[int, MerkleTree] = {}
    leaves: list[Digest] = []
    for sc_id in sorted(entries):
        e = entries[sc_id]
        txs_tree = build_merkle(list(e.tx_digests))
        txs_trees[sc_id] = txs_tree
        leaves.append(EMPTY_ROOT if e.cert_digest is None else e.cert_digest)
        leaves.append(txs_tree.root)
    return StcTree(tree=build_merkle(leaves), txs_trees=txs_trees)


#: The commitment of a block that commits nothing: root EMPTY_ROOT and no
#: sidechain subtrees. Every such block shares it; nothing writes to it.
EMPTY_STC = build_stc({})
