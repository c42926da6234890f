"""Vertex-weighted undirected graphs and the domination predicates.

A graph stores its weights and its adjacency in CSR form (``adj_indptr``/
``adj_indices``, neighbours ascending) and derives everything else.  Vertex
ids are dense 0-based integers; instance files use 1-based ids and are
converted at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import length_hint
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateEdge, OutOfRange, SelfLoop, WeightOverflow
from .weights import MAX_TOTAL_WEIGHT


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Simple undirected graph with nonnegative integer vertex weights.
    ``m``, ``max_degree`` and ``edges`` are derived from the CSR, ``edges``
    in O(n + m) on every access: a caller that reads it often keeps it."""

    n: int
    weights: np.ndarray            # int64[n]
    adj_indptr: np.ndarray         # int64[n + 1]
    adj_indices: np.ndarray        # int64[2 * m], each vertex's neighbours ascending

    @property
    def m(self) -> int:
        return self.adj_indices.shape[0] // 2

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.adj_indptr).max(initial=0))

    @property
    def edges(self) -> np.ndarray:
        """int64[m, 2]: each edge once as a row u < v, the rows sorted.
        A view of a (2, m) array, so each column is contiguous."""
        # each arc's source, in the smallest dtype: fewer fresh pages to fault in
        src = np.repeat(np.arange(self.n, dtype=np.min_scalar_type(self.n)),
                        self.adj_indptr[1:] - self.adj_indptr[:-1])
        up = np.flatnonzero(src < self.adj_indices)
        out = np.empty((2, up.shape[0]), dtype=np.int64)
        out[0] = src[up]
        np.take(self.adj_indices, up, out=out[1])
        return out.T

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[v]:self.adj_indptr[v + 1]]

    def weight_of(self, vertices: Iterable[int]) -> int:
        # build_graph keeps the total below 2^59, so the int64 sum cannot wrap
        return int(self.weights[_vertex_ids(self, vertices)].sum())

    def edge_list(self) -> list:
        return [(int(u), int(v)) for u, v in self.edges]


@dataclass(frozen=True)
class VertexSet:
    """Sorted vertex set with its precomputed total weight."""

    members: tuple
    total_weight: int

    @classmethod
    def from_iterable(cls, g: WeightedGraph, vertices: Iterable[int]) -> "VertexSet":
        ids = np.unique(_vertex_ids(g, vertices))
        return cls(tuple(ids.tolist()), int(g.weights[ids].sum()))

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
    if m and (int(e.min()) < 0 or int(e.max()) >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise OutOfRange(f"edge ({int(bad[0])}, {int(bad[1])}) is out of range for n={n}")
    loops = e[:, 0] == e[:, 1]
    if loops.any():
        v = int(e[int(np.argmax(loops)), 0])
        raise SelfLoop(f"edge ({v}, {v}) is a self loop")
    # one sort of the arc keys src * n + dst, each edge both ways round,
    # gives the CSR with neighbours ascending; the smallest repeated arc
    # key is the smallest repeated edge key lo * n + hi
    u, v = e[:, 0], e[:, 1]
    arcs = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=arcs[:m])
    arcs[:m] += v
    np.multiply(v, n, out=arcs[m:])
    arcs[m:] += u
    arcs.sort()
    repeated = np.flatnonzero(arcs[1:] == arcs[:-1])
    if repeated.size:
        k = int(arcs[repeated[0]])
        raise DuplicateEdge(f"edge ({k // n}, {k % n}) appears more than once")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e.ravel(), minlength=n), out=indptr[1:])
    return WeightedGraph(n=n, weights=w_arr, adj_indptr=indptr,
                         adj_indices=np.remainder(arcs, n, out=arcs))


_RUN = 64        # vertices the loop pops between two looks at the queue
_WIDE = 128      # waiting vertices from which numpy steps expand the queue


def search_order(g: WeightedGraph, root: int) -> np.ndarray:
    """Breadth-first order of the vertices reachable from ``root``: each
    vertex's neighbours ascending, the unseen ones appended to the queue.

    The search switches between two modes by the length of the queue.
    While it is thin, a Python loop pops ``_RUN`` vertices at a time.
    When at least ``_WIDE`` vertices wait after a run, numpy steps expand
    all of them at once, and then the vertices each step finds, until
    fewer than ``_WIDE`` wait; the loop takes those.  A step gathers the
    waiting vertices' neighbour ranges in queue order, drops the vertices
    already found and keeps the first occurrence of each of the rest.
    That is what the loop would append, in its order, so the result does
    not depend on the mode.

    A step costs O(its vertices and their arcs): it finds a vertex that
    two waiting vertices share by stamping each found vertex with its
    place in the step, and sorts only then, which never happens on a
    block graph.  The loop learns what the steps found by one assignment
    per vertex, or, once they found at least n / 8 vertices, from the
    stamps in O(n).  So the search takes O(n + m).
    """
    ptr = g.adj_indptr.tolist()
    hi = ptr[1:]
    adj = memoryview(g.adj_indices)     # as fast as a list here, and no copy
    seen = [False] * g.n
    seen[root] = True
    order = [root]                      # the vertices the loop pops
    append = order.append
    queue = iter(order)                 # a list iterator also yields what is appended
    parts = []                          # the search order before order[cut:]
    cut = 0
    stamp = None                        # >= 0 for the vertices found, once a step runs
    while True:
        for u in islice(queue, _RUN):
            for v in adj[ptr[u]:hi[u]]:
                if not seen[v]:
                    seen[v] = True
                    append(v)
        waiting = length_hint(queue)
        if waiting < _WIDE:
            if waiting:
                continue
            if not parts:
                return np.array(order, dtype=np.int64)
            parts.append(np.array(order[cut:], dtype=np.int64))
            return np.concatenate(parts)
        if stamp is None:
            stamp = np.full(g.n, -1, dtype=np.int64)
        tail = np.array(order[cut:], dtype=np.int64)
        stamp[tail] = 0
        parts.append(tail)
        steps = [tail[tail.shape[0] - waiting:]]
        while steps[-1].shape[0] >= _WIDE:
            steps.append(_expand(g, steps[-1], stamp))
        next(islice(queue, waiting, waiting), None)         # the steps expanded these
        parts += steps[1:-1]
        cut = len(order)
        order += steps[-1].tolist()
        if 8 * sum(map(len, steps[1:])) >= g.n:     # then O(n) is the cheaper way
            seen = (stamp >= 0).tolist()
        else:
            for found in steps[1:]:
                for v in found.tolist():
                    seen[v] = True


def _expand(g: WeightedGraph, front: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """The vertices that expanding ``front`` in order finds, stamped."""
    lo = g.adj_indptr[front]
    cnt = g.adj_indptr[front + 1] - lo
    ends = np.cumsum(cnt)
    near = g.adj_indices[np.repeat(lo - ends + cnt, cnt) + np.arange(ends[-1])]
    near = near[stamp[near] < 0]
    place = np.arange(near.shape[0])
    stamp[near] = place
    if np.array_equal(stamp[near], place):
        return near
    return near[np.sort(np.unique(near, return_index=True)[1])]    # first occurrences


def is_connected(g: WeightedGraph) -> bool:
    """True iff a search from vertex 0 reaches every vertex (n=0 is connected)."""
    return g.n == 0 or search_order(g, 0).shape[0] == g.n


def is_dominating_set(g: WeightedGraph, s) -> bool:
    """Every vertex not in ``s`` has a neighbor in ``s``; ids outside the
    graph are ignored, and ids that are not integers refused."""
    ids = _int_ids(s)
    if ids is None:
        return False
    member = np.zeros(g.n, dtype=bool)
    member[ids[(ids >= 0) & (ids < g.n)]] = True
    dominated = member.copy()
    dominated[g.adj_indices[np.repeat(member, g.adj_indptr[1:] - g.adj_indptr[:-1])]] = True
    return bool(dominated.all())


def has_perfect_matching(g: WeightedGraph, s) -> bool:
    """True iff the subgraph that ``s`` induces in the connected block
    graph ``g`` has a perfect matching, found by :func:`_leaf_first_pairs`;
    False if an id is outside 0..n-1 or not an integer."""
    ids = _int_ids(s)
    return ids is not None and _leaf_first_pairs(g, ids) is not None


def _leaf_first_pairs(g: WeightedGraph, ids: np.ndarray):
    """Leaf-first greedy over the blocks of :func:`root_blocks`, deepest
    first: a block's children in the set not yet matched below it pair
    inside the block (:func:`pair_off`); when they are odd in number, one
    takes the block's attachment, which must be in the set and free.
    Returns the matching or None; a nonempty even set raises Disconnected
    or NotBlockGraph unless ``g`` is a connected block graph."""
    if not ids.size:
        return np.empty((0, 2), dtype=np.int64)
    if ids.min() < 0 or ids.max() >= g.n:
        return None
    free = bytearray(g.n)                           # the loop's flags, which up views
    up = np.frombuffer(free, dtype=bool)
    up[ids] = True
    if np.count_nonzero(up) % 2:
        return None
    from .rooted import pair_off, root_blocks     # rooted imports this module
    rb = root_blocks(g, 0)
    odd = (np.add.reduceat(up[rb.kids], rb.block_ptr[:-1], dtype=np.int64) % 2).tolist()
    block_of, attach = rb.block_of.tolist(), rb.attach.tolist()
    for b in range(rb.num_blocks - 1, -1, -1):
        if odd[b]:
            a = attach[b]
            if not free[a]:
                return None
            free[a] = False
            odd[block_of[a]] ^= 1   # a leaves its block; the root's -1 is a block done
    return pair_off(rb, up)         # the children left free pair inside their blocks


def _int_ids(x):
    """``x`` as an int64 array, or None if it is ragged or holds a float
    or an int past 64 bits.  A uint64 past int64 wraps to a negative id,
    which no graph has."""
    x = x.members if isinstance(x, VertexSet) else x
    try:
        a = np.asarray(x if isinstance(x, (list, tuple, np.ndarray)) else list(x))
    except ValueError:
        return None
    return a.astype(np.int64, copy=False) if a.dtype.kind in "iu" or not a.size else None


def _vertex_ids(g: WeightedGraph, x) -> np.ndarray:
    """``x`` as int64 ids; ValueError unless each is an integer in 0..n-1."""
    ids = _int_ids(x)
    if ids is None or ids.ndim != 1 or ((ids < 0) | (ids >= g.n)).any():
        raise ValueError(f"vertex ids must be integers in 0..{g.n - 1}")
    return ids


def is_paired_dominating_set(g: WeightedGraph, s, pairs=None) -> bool:
    """Dominating set whose induced subgraph has a perfect matching.

    The empty set never paired-dominates a nonempty graph; for n=0 the
    empty set qualifies.  A set with an id outside 0..n-1, or an id that
    is not an integer, does not.

    It decides by one check of the certificate ``pairs``, (k, 2) ids such
    as ``solve(g, pairs=True)`` returns: each member of ``s`` in exactly
    one pair, no other vertex in any, each pair an edge, ``s`` dominating
    ``g``.  Pairs of another shape are refused.  It runs on any graph in
    O(n + m) and decomposes nothing.  Without ``pairs``, a dominating
    ``s`` brings the matching of :func:`has_perfect_matching`, which
    takes a connected block graph."""
    ids = _int_ids(s)
    if pairs is None and ids is not None and is_dominating_set(g, ids):
        pairs = _leaf_first_pairs(g, ids)
    if pairs is None:           # none given, and none found for a dominating s
        return False
    p = _int_ids(pairs)
    if ids is None or p is None:
        return False
    if p.size == 0:
        p = p.reshape(0, 2)
    n = g.n
    if ids.ndim != 1 or p.ndim != 2 or p.shape[1] != 2 \
            or ((ids < 0) | (ids >= n)).any() or ((p < 0) | (p >= n)).any():
        return False
    member = np.zeros(n, dtype=bool)
    member[ids] = True
    if not np.array_equal(np.bincount(p.ravel(), minlength=n), member):
        return False
    # now each member has one mate, and each edge is two arcs of the CSR
    mate = np.full(n, -1, dtype=np.int64)
    mate[p[:, 0]] = p[:, 1]
    mate[p[:, 1]] = p[:, 0]
    mated = np.repeat(mate, g.adj_indptr[1:] - g.adj_indptr[:-1]) == g.adj_indices
    return int(np.count_nonzero(mated)) == 2 * p.shape[0] and is_dominating_set(g, ids)
