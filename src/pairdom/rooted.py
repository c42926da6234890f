"""Rooted block decomposition by whole-array passes.

Rooting a block graph at a vertex ``r`` hangs every block from its vertex
closest to ``r``, its *attachment*; the block's other vertices are its
children.  One graph search from ``r`` ranks the vertices.  Every vertex
is found after the attachment of its upper block and before anything
below it, so a vertex's neighbour of smallest rank is that attachment,
called its parent here.

A connected graph with such parents is a block graph exactly when every
edge joins a vertex to its parent or two vertices with the same parent,
and those same-parent edges split the children of each parent into
cliques.  Each clique plus its parent is then one block: the cliques
cover every edge, and gluing each one to the rest at a single vertex
builds a tree of cliques.  The check needs no per-block loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import require_block_graph
from .errors import InternalInconsistency
from .graph import WeightedGraph, search_order


@dataclass(frozen=True, eq=False)
class RootedBlocks:
    """Blocks of a block graph hung from a root vertex.

    ``kids`` lists the non-root vertices grouped by block, and the blocks
    are grouped by attachment in search order: block ``b`` is
    ``attach[b]`` plus ``kids[block_ptr[b]:block_ptr[b + 1]]``, and vertex
    ``v`` is the attachment of blocks ``block_lo[v]`` to ``block_hi[v] - 1``.
    """

    root: int
    order: np.ndarray           # vertices in search order, root first
    parent: np.ndarray          # attachment of each vertex's upper block; -1 at the root
    kids: np.ndarray
    block_ptr: np.ndarray       # int64[num_blocks + 1]
    attach: np.ndarray          # int64[num_blocks]
    block_of: np.ndarray        # block in which each vertex is a child; -1 at the root
    block_lo: np.ndarray        # first block attached at each vertex
    block_hi: np.ndarray        # one past its last block (== block_lo if none)

    @property
    def num_blocks(self) -> int:
        return int(self.attach.shape[0])


def root_blocks(g: WeightedGraph, root: int) -> RootedBlocks:
    """Decompose a connected graph on n >= 2 vertices, rooted at ``root``.

    Raises Disconnected or NotBlockGraph through
    :func:`require_block_graph`, which runs only once a violation has
    been found, so the messages name what Tarjan's decomposition finds.
    """
    n = g.n
    order = search_order(g, root)
    if order.shape[0] < n:
        _reject(g)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    parent = order[np.minimum.reduceat(rank[g.adj_indices], g.adj_indptr[:-1])]
    parent[root] = -1

    # every edge joins a vertex to its parent or two siblings
    u, v = g.edges[:, 0], g.edges[:, 1]
    pu, pv = parent[u], parent[v]
    sib = pu == pv
    if not (sib | (pu == v) | (pv == u)).all():
        _reject(g)
    # label each child by the smallest vertex of its sibling clique
    su, sv = u[sib], v[sib]
    label = np.arange(n, dtype=np.int64)
    np.minimum.at(label, su, sv)
    np.minimum.at(label, sv, su)
    if (label[su] != label[sv]).any():
        _reject(g)
    kids = order[1:]
    size = np.bincount(label[kids], minlength=n)
    if (np.bincount(label[su], minlength=n) != size * (size - 1) // 2).any():
        _reject(g)

    # blocks: children grouped by (parent rank, label); search order
    # already groups them by parent
    key = rank[parent[kids]] * n + label[kids]
    perm = np.argsort(key, kind="stable")
    kids = kids[perm]
    key = key[perm]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    nb = starts.shape[0]
    block_ptr = np.append(starts, n - 1)
    attach = parent[kids[starts]]
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[kids] = np.repeat(np.arange(nb, dtype=np.int64), np.diff(block_ptr))
    first = np.flatnonzero(np.diff(attach, prepend=-1))
    block_lo = np.zeros(n, dtype=np.int64)
    block_hi = np.zeros(n, dtype=np.int64)
    block_lo[attach[first]] = first
    block_hi[attach[first]] = np.append(first[1:], nb)
    return RootedBlocks(root=root, order=order, parent=parent, kids=kids,
                        block_ptr=block_ptr, attach=attach, block_of=block_of,
                        block_lo=block_lo, block_hi=block_hi)


def _reject(g: WeightedGraph):
    """Raise the error that the Tarjan decomposition gives for ``g``."""
    require_block_graph(g)
    raise InternalInconsistency(
        "the array decomposition rejected a graph that Tarjan's accepts")
