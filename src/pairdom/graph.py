"""Vertex-weighted undirected graphs and the domination predicates.

The graph is stored in CSR form (``adj_indptr``/``adj_indices``) so the
same object feeds both the pure-Python predicates and the array kernels.
Vertex ids are dense 0-based integers; instance files use 1-based ids and
are converted at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateEdge, OutOfRange, SelfLoop, WeightOverflow
from .weights import MAX_TOTAL_WEIGHT


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Simple undirected graph with nonnegative integer vertex weights."""

    n: int
    m: int
    weights: np.ndarray            # int64[n]
    adj_indptr: np.ndarray         # int64[n + 1]
    adj_indices: np.ndarray        # int64[2 * m]
    max_degree: int
    edges: np.ndarray = field(repr=False)   # int64[m, 2], each row u < v

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[v]:self.adj_indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.adj_indptr[v + 1] - self.adj_indptr[v])

    def weight_of(self, vertices: Iterable[int]) -> int:
        # build_graph keeps the total below 2^59, so the int64 sum cannot wrap
        return int(self.weights[np.fromiter(vertices, np.int64)].sum())

    def edge_list(self) -> list:
        return [(int(u), int(v)) for u, v in self.edges]


@dataclass(frozen=True)
class VertexSet:
    """Sorted vertex set with its precomputed total weight."""

    members: tuple
    total_weight: int

    @classmethod
    def from_iterable(cls, g: WeightedGraph, vertices: Iterable[int]) -> "VertexSet":
        members = tuple(sorted(set(int(v) for v in vertices)))
        return cls(members, g.weight_of(members))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v):
        return v in self.members


def build_graph(n: int, weights: Sequence[int], edges) -> WeightedGraph:
    """Validate and build a :class:`WeightedGraph`.

    ``edges`` is a sequence of (u, v) pairs or an int array of shape
    (m, 2).  Rejects out-of-range ids, self loops, duplicate edges,
    negative weights, and totals that could overflow downstream
    arithmetic.
    """
    try:
        w_arr = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                           dtype=np.int64)
    except OverflowError:
        raise WeightOverflow("a weight is outside the 64-bit integer range") from None
    if w_arr.shape != (n,):
        raise WeightOverflow(f"expected {n} weights, got {w_arr.shape}")
    if n and int(w_arr.min()) < 0:
        v = int(np.argmin(w_arr))
        raise WeightOverflow(f"vertex {v} has negative weight {int(w_arr[v])}")
    # exact total via split sums (a straight int64 sum could wrap silently)
    total = int(np.sum(w_arr >> 30, dtype=np.int64)) * (1 << 30) \
        + int(np.sum(w_arr & ((1 << 30) - 1), dtype=np.int64))
    if total >= MAX_TOTAL_WEIGHT:
        raise WeightOverflow(f"total weight {total} exceeds the supported range")

    try:
        e = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        raise OutOfRange("a vertex id is outside the 64-bit integer range") from None
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise OutOfRange("edges must be pairs of vertex ids")
    m = e.shape[0]
    if m:
        if int(e.min()) < 0 or int(e.max()) >= n:
            bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
            raise OutOfRange(f"edge ({int(bad[0])}, {int(bad[1])}) is out of range for n={n}")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            v = int(e[int(np.argmax(loops)), 0])
            raise SelfLoop(f"edge ({v}, {v}) is a self loop")
        canon = np.empty((m, 2), dtype=np.int64)
        lo, hi = canon[:, 0], canon[:, 1]
        np.minimum(e[:, 0], e[:, 1], out=lo)
        np.maximum(e[:, 0], e[:, 1], out=hi)
        # one sort of the arc keys src * n + dst gives the CSR, neighbours
        # ascending; the smallest repeated arc key is the smallest
        # repeated edge key lo * n + hi
        arcs = np.empty(2 * m, dtype=np.int64)
        np.multiply(lo, n, out=arcs[:m])
        arcs[:m] += hi
        np.multiply(hi, n, out=arcs[m:])
        arcs[m:] += lo
        arcs.sort()
        repeated = np.flatnonzero(arcs[1:] == arcs[:-1])
        if repeated.size:
            k = int(arcs[repeated[0]])
            raise DuplicateEdge(f"edge ({k // n}, {k % n}) appears more than once")
        indices = np.remainder(arcs, n, out=arcs)
        deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        max_deg = int(deg.max())
    else:
        canon = np.empty((0, 2), dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        max_deg = 0
    return WeightedGraph(
        n=n,
        m=m,
        weights=w_arr,
        adj_indptr=indptr,
        adj_indices=indices,
        max_degree=max_deg,
        edges=canon,
    )


def search_order(g: WeightedGraph, root: int) -> np.ndarray:
    """Breadth-first order of the vertices reachable from ``root``."""
    ptr = g.adj_indptr.tolist()
    lo, hi = ptr[:-1], ptr[1:]
    adj = memoryview(g.adj_indices)     # as fast as a list here, and no copy
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    append = order.append
    for u in order:
        for v in adj[lo[u]:hi[u]]:
            if not seen[v]:
                seen[v] = True
                append(v)
    return np.array(order, dtype=np.int64)


def is_connected(g: WeightedGraph) -> bool:
    """True iff a search from vertex 0 reaches every vertex (n=0 is connected)."""
    return g.n == 0 or search_order(g, 0).shape[0] == g.n


def is_dominating_set(g: WeightedGraph, s) -> bool:
    """Every vertex not in ``s`` has a neighbor in ``s``; ids outside the
    graph are ignored."""
    ids = np.asarray(s, dtype=np.int64) if isinstance(s, np.ndarray) else np.fromiter(s, np.int64)
    member = np.zeros(g.n, dtype=bool)
    member[ids[(ids >= 0) & (ids < g.n)]] = True
    u, v = g.edges[:, 0], g.edges[:, 1]
    dominated = member.copy()
    dominated[v[member[u]]] = True
    dominated[u[member[v]]] = True
    return bool(dominated.all())


def has_perfect_matching(g: WeightedGraph, s) -> bool:
    """True iff the subgraph that ``s`` induces in the connected block
    graph ``g`` has a perfect matching; False if an id is outside 0..n-1.

    Leaf-first greedy over the blocks of :func:`root_blocks`, deepest
    first: a block's children in ``s`` not yet matched below it can only
    pair inside the block, so when they are odd in number one of them
    takes the block's attachment, which must be in ``s`` and still free.
    With ``|s|`` even this leaves nothing free, the root included.  The
    empty set is vacuously matched; for another even set, a graph that
    is not a connected block graph raises Disconnected or NotBlockGraph.
    """
    members = set(int(v) for v in s)
    if not members:
        return True
    if len(members) % 2 or min(members) < 0 or max(members) >= g.n:
        return False
    from .rooted import root_blocks     # rooted imports this module
    rb = root_blocks(g, 0)
    free = [False] * g.n
    for v in members:
        free[v] = True
    ptr = rb.block_ptr.tolist()
    kids = rb.kids.tolist()
    attach = rb.attach.tolist()
    for b in range(rb.num_blocks - 1, -1, -1):
        odd = False
        for v in kids[ptr[b]:ptr[b + 1]]:
            if free[v]:
                free[v] = False
                odd = not odd
        if odd:
            a = attach[b]
            if not free[a]:
                return False
            free[a] = False
    return True


def is_paired_dominating_set(g: WeightedGraph, s, pairs=None) -> bool:
    """Dominating set whose induced subgraph has a perfect matching.

    The empty set never paired-dominates a nonempty graph; for n=0 the
    empty set qualifies.  A set with an id outside 0..n-1 does not.

    Without ``pairs`` the matching is searched for by
    :func:`has_perfect_matching`, on connected block graphs only.  Given
    ``pairs``, a (k, 2) array or sequence of id pairs such as the one
    ``solve(g, pairs=True)`` returns, the pairs are the certificate: every
    member of ``s`` lies in exactly one pair, no other vertex lies in any,
    and every pair is an edge.  This check runs on any graph, in
    O(n + m + k log m), and uses no block decomposition.
    """
    if pairs is not None:
        ids = np.fromiter(s, dtype=np.int64)
        p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = g.n
        if ((ids < 0) | (ids >= n)).any() or ((p < 0) | (p >= n)).any():
            return False
        member = np.zeros(n, dtype=bool)
        member[ids] = True
        if not np.array_equal(np.bincount(p.ravel(), minlength=n), member):
            return False
        # the arc keys src * n + dst of the CSR are sorted
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.adj_indptr)) * n + g.adj_indices
        want = p[:, 0] * n + p[:, 1]
        at = np.searchsorted(keys, want)
        hit = at < keys.shape[0]
        hit[hit] = keys[at[hit]] == want[hit]
        return bool(hit.all()) and is_dominating_set(g, ids)
    members = set(int(v) for v in s)
    if g.n == 0:
        return not members
    if not members:
        return False
    return is_dominating_set(g, members) and has_perfect_matching(g, members)
