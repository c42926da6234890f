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

Each way the check can fail yields a witness, built in O(n + m) on the
failure path only: a vertex the search did not reach, or a cycle with two
non-adjacent vertices on it.  Two vertices on one cycle lie in one block,
so that block is not a clique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, NotBlockGraph
from .graph import WeightedGraph, search_order


@dataclass(frozen=True, eq=False)
class RootedBlocks:
    """Blocks of a block graph hung from a root vertex.

    ``kids`` lists the non-root vertices grouped by block, and the blocks
    are grouped by attachment in search order: block ``b`` is
    ``attach[b]`` plus ``kids[block_ptr[b]:block_ptr[b + 1]]``.
    """

    order: np.ndarray           # vertices in search order, root first
    parent: np.ndarray          # attachment of each vertex's upper block; -1 at the root
    kids: np.ndarray
    block_ptr: np.ndarray       # int64[num_blocks + 1]
    attach: np.ndarray          # int64[num_blocks]
    block_of: np.ndarray        # block in which each vertex is a child; -1 at the root

    @property
    def num_blocks(self) -> int:
        return int(self.attach.shape[0])


def root_blocks(g: WeightedGraph, root: int) -> RootedBlocks:
    """Decompose a connected graph on n >= 2 vertices, rooted at ``root``.

    Raises Disconnected with ``witness={"root", "unreached"}``, a vertex
    the search from ``root`` did not reach, or NotBlockGraph with
    ``witness={"cycle", "pair"}``, a cycle of at least four vertices and
    two non-adjacent vertices on it.
    """
    n = g.n
    order = search_order(g, root)
    if order.shape[0] < n:
        lost = int(np.argmin(np.bincount(order, minlength=n)))
        raise Disconnected(
            f"graph is disconnected: vertex {lost + 1} is not reached from vertex "
            f"{root + 1} ({order.shape[0]} of {n} reachable)",
            witness={"root": root, "unreached": lost})
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    parent = order[np.minimum.reduceat(rank[g.adj_indices], g.adj_indptr[:-1])]
    parent[root] = -1
    kids = order[1:]
    label = _sibling_labels(g, rank, parent, kids)

    # blocks: children grouped by (parent rank, label); search order
    # already groups them by parent
    key = rank[parent[kids]] * n + label[kids]
    perm = np.argsort(key, kind="stable")
    kids = kids[perm]
    key = key[perm]
    head = _heads(key)
    starts = np.flatnonzero(head)
    block_ptr = np.append(starts, n - 1)
    attach = parent[kids[starts]]
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[kids] = np.cumsum(head) - 1
    return RootedBlocks(order=order, parent=parent, kids=kids,
                        block_ptr=block_ptr, attach=attach, block_of=block_of)


def _heads(x):
    """Where each run of equal values in ``x`` starts."""
    out = np.empty(x.shape[0], dtype=bool)
    out[:1] = True
    np.not_equal(x[1:], x[:-1], out=out[1:])
    return out


def pair_off(rb: RootedBlocks, up: np.ndarray) -> np.ndarray:
    """The matching in which each vertex marked in the bool array ``up``
    pairs inside its upper block: the marked children of each block pair
    off in ``kids`` order, and an odd one out pairs with the block's
    attachment.  One int64 row per pair."""
    d = rb.kids[up[rb.kids]]
    blk = rb.block_of[d]                                # nondecreasing
    left = np.flatnonzero((np.arange(d.shape[0]) - np.searchsorted(blk, blk)) % 2 == 0)
    right = np.minimum(left + 1, d.shape[0] - 1)
    inside = (left + 1 < d.shape[0]) & (blk[right] == blk[left])
    return np.column_stack((d[left], np.where(inside, d[right], rb.attach[blk[left]])))


def _sibling_labels(g: WeightedGraph, rank, parent, kids) -> np.ndarray:
    """Each vertex's label, the smallest vertex of its sibling clique.
    Raises NotBlockGraph unless every edge joins a vertex to its parent or
    two siblings and the sibling edges split each parent's children into
    cliques.  The edge arrays live only here."""
    n = g.n
    u, v = g.edges.T        # sorted, so a witness depends on the graph alone
    pu, pv = parent[u], parent[v]
    sib = pu == pv
    cross = ~(sib | (pu == v) | (pv == u))
    del pu, pv
    if cross.any():
        i = int(np.argmax(cross))
        raise _cross_edge(g, rank, parent, int(u[i]), int(v[i]))
    # label each child by the smallest vertex of its sibling clique
    su, sv = u[sib], v[sib]
    label = np.arange(n, dtype=np.int64)
    np.minimum.at(label, su, sv)
    np.minimum.at(label, sv, su)
    lsu = label[su]
    mixed = lsu != label[sv]
    if mixed.any():
        # c = label[a] is a sibling of a that b misses, or b's label
        # would be c too
        i = int(np.argmax(mixed))
        a, b = int(su[i]), int(sv[i])
        if label[a] > label[b]:
            a, b = b, a
        c = int(label[a])
        raise _not_clique([int(parent[a]), c, a, b], c, b)
    size = np.bincount(label[kids], minlength=n)
    short = np.bincount(lsu, minlength=n) != size * (size - 1) // 2
    if short.any():
        # every member of group c is adjacent to c, so the member x of
        # fewest sibling edges is not c, and a member y that x misses is
        # not c either
        c = int(np.argmax(short))
        members = kids[label[kids] == c]
        degree = np.bincount(su, minlength=n) + np.bincount(sv, minlength=n)
        x = int(members[np.argmin(degree[members])])
        near = np.zeros(n, dtype=bool)
        near[g.neighbors(x)] = near[x] = True
        y = int(members[~near[members]][0])
        raise _not_clique([int(parent[x]), x, c, y], x, y)
    return label


def _cross_edge(g: WeightedGraph, rank, parent, u: int, v: int) -> NotBlockGraph:
    """The rejection of an edge (u, v) that is neither a parent nor a
    sibling edge.  In a breadth-first tree neither end is an ancestor of
    the other, so the parents lead from u and v up to where they meet and
    close a cycle through both parents.  u and parent[v] are not adjacent,
    or else v and parent[u] are not: a parent is the neighbour of smallest
    rank, so if both pairs were adjacent each would outrank the other."""
    up, down = [u], [v]
    while up[-1] != down[-1]:
        if rank[up[-1]] > rank[down[-1]]:
            up.append(int(parent[up[-1]]))
        else:
            down.append(int(parent[down[-1]]))
    x, y = u, int(parent[v])
    if y in g.neighbors(x):
        x, y = v, int(parent[u])
    return _not_clique(up + down[-2::-1], x, y)


def _not_clique(cycle: list, x: int, y: int) -> NotBlockGraph:
    """The rejection naming non-adjacent ``x`` and ``y`` on ``cycle``."""
    return NotBlockGraph(
        f"vertices {x + 1} and {y + 1} lie on a cycle of {len(cycle)} vertices "
        "but are not adjacent, so their block is not a clique",
        witness={"cycle": cycle, "pair": [x, y]})
