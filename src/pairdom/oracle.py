"""Brute-force ground truth, independent of the dynamic program.

Subsets are handled as bitmasks with doubling-built tables of coverage
(union of closed neighborhoods) and weight, then scanned in (weight,
popcount, mask) order with an explicit matching check.  Nothing here
shares code with the merge procedures.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import TooLarge
from .graph import VertexSet, WeightedGraph, build_graph
from .solver import StateKind
from .weights import INFEASIBLE

PDS_MAX_N = 22
STATE_MAX_N = 18


class _SubsetTables:
    """Per-graph bitmask tables: closed-neighborhood cover and weight of
    every subset, plus a memoized perfect-matching test."""

    def __init__(self, g: WeightedGraph):
        n = g.n
        self.n = n
        self.full = (1 << n) - 1
        self.adj_mask = [0] * n
        for u, v in g.edges:
            self.adj_mask[int(u)] |= 1 << int(v)
            self.adj_mask[int(v)] |= 1 << int(u)
        self.closed = [self.adj_mask[v] | (1 << v) for v in range(n)]
        size = 1 << n
        cover = np.zeros(size, dtype=np.int64)
        wsum = np.zeros(size, dtype=np.int64)
        for b in range(n):
            half = 1 << b
            cover[half:2 * half] = cover[:half] | np.int64(self.closed[b])
            wsum[half:2 * half] = wsum[:half] + np.int64(g.weights[b])
        self.cover = cover
        self.wsum = wsum
        self._pm_cache = {0: True}

    def has_pm(self, s: int) -> bool:
        cached = self._pm_cache.get(s)
        if cached is not None:
            return cached
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        cand = self.adj_mask[v] & rest
        ok = False
        while cand:
            u = cand & -cand
            if self.has_pm(rest & ~u):
                ok = True
                break
            cand &= cand - 1
        self._pm_cache[s] = ok
        return ok

    def candidates_sorted(self, masks: np.ndarray) -> Iterator[int]:
        """Masks in (weight, popcount, mask) order."""
        if masks.size == 0:
            return iter(())
        w = self.wsum[masks]
        pc = np.array([int(m).bit_count() for m in masks], dtype=np.int64)
        order = np.lexsort((masks, pc, w))
        return (int(masks[i]) for i in order)


@lru_cache(maxsize=32)
def _tables(g: WeightedGraph) -> _SubsetTables:
    return _SubsetTables(g)


def _mask_to_set(g: WeightedGraph, s: int) -> VertexSet:
    return VertexSet.from_iterable(g, (v for v in range(g.n) if s >> v & 1))


def oracle_min_pds(g: WeightedGraph) -> Optional[tuple]:
    """Minimum-weight paired-dominating set by exhaustive subset scan.

    Returns (VertexSet, weight) or None when no paired-dominating set
    exists (isolated vertex, or n = 1).  For n = 0 the empty set
    qualifies.  Guarded to n <= 22.
    """
    if g.n > PDS_MAX_N:
        raise TooLarge(f"oracle_min_pds is limited to n <= {PDS_MAX_N}, got {g.n}")
    if g.n == 0:
        return VertexSet((), 0), 0
    t = _tables(g)
    all_masks = np.arange(1 << g.n, dtype=np.int64)
    pc_parity = np.zeros(1 << g.n, dtype=np.uint8)
    for b in range(g.n):
        half = 1 << b
        pc_parity[half:2 * half] = pc_parity[:half] ^ 1
    good = (t.cover == t.full) & (pc_parity == 0) & (all_masks != 0)
    for s in t.candidates_sorted(all_masks[good]):
        if t.has_pm(s):
            return _mask_to_set(g, s), int(t.wsum[s])
    return None


def oracle_state(g: WeightedGraph, u: int, kind: StateKind) -> int:
    """Brute-force optimum of one root state; INFEASIBLE when empty.

    Definitions over the whole graph ``g`` rooted at ``u``:
      D        u in S, S dominates g, S - u perfectly matched
      P        u in S, S dominates g, S perfectly matched
      P'       u not in S, S dominates g, S perfectly matched
      Pbar     S avoids the closed neighborhood of u, S dominates every
               vertex except u, S perfectly matched
    Guarded to n <= 18.
    """
    if g.n > STATE_MAX_N:
        raise TooLarge(f"oracle_state is limited to n <= {STATE_MAX_N}, got {g.n}")
    t = _tables(g)
    all_masks = np.arange(1 << g.n, dtype=np.int64)
    ubit = np.int64(1 << int(u))
    kind = StateKind(kind)
    if kind == StateKind.D:
        good = ((all_masks & ubit) != 0) & (t.cover == t.full)
    elif kind == StateKind.P:
        good = ((all_masks & ubit) != 0) & (t.cover == t.full)
    elif kind == StateKind.P_PRIME:
        good = ((all_masks & ubit) == 0) & (t.cover == t.full)
    else:
        closed = np.int64(t.closed[int(u)])
        good = ((all_masks & closed) == 0) & ((t.cover | ubit) == t.full)
    for s in t.candidates_sorted(all_masks[good]):
        body = s & ~int(ubit) if kind == StateKind.D else s
        if t.has_pm(body):
            return int(t.wsum[s])
    return INFEASIBLE


def _block_tree_certificate(blocks: tuple) -> tuple:
    """Canonical form of the connected block graph with these blocks
    (tuples of vertices).

    A block graph is determined up to isomorphism by its block-cut tree
    with blocks labeled by size, so an AHU-style certificate of that
    labeled tree (rooted at the tree's center) is a complete invariant.
    """
    nb = len(blocks)
    count = Counter(v for blk in blocks for v in blk)
    cuts = [v for v in count if count[v] > 1]
    cut_index = {c: nb + i for i, c in enumerate(cuts)}
    size = nb + len(cuts)
    nbrs = [[] for _ in range(size)]
    for b, blk in enumerate(blocks):
        for c in blk:
            if c in cut_index:
                nbrs[b].append(cut_index[c])
                nbrs[cut_index[c]].append(b)
    labels = [("B", len(blk)) for blk in blocks] + [("C", 0)] * len(cuts)

    # tree center by leaf stripping
    deg = [len(x) for x in nbrs]
    alive = size
    removed = [False] * size
    layer = [v for v in range(size) if deg[v] <= 1]
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            alive -= 1
            for w in nbrs[v]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(size) if not removed[v]]

    def cert(v: int, parent: int) -> tuple:
        kids = sorted(cert(w, v) for w in nbrs[v] if w != parent)
        return (labels[v], tuple(kids))

    return min(cert(c, -1) for c in centers)


def enumerate_block_graphs(n_max: int) -> Iterator[WeightedGraph]:
    """All connected block graphs on 2..n_max vertices, one per
    isomorphism class, unit weights, deterministic order.

    Grown by gluing a fresh clique onto an existing vertex (every block
    graph arises this way, pendant block by pendant block) and deduped
    with the block-tree certificate.  Guarded to n_max <= 8.
    """
    if n_max > 8:
        raise TooLarge(f"enumerate_block_graphs is limited to n_max <= 8, got {n_max}")
    found = {}      # certificate -> (n, edge tuple)
    queue = []      # (n, edge tuple, block tuple)
    for s in range(2, n_max + 1):
        edges = tuple((i, j) for i in range(s) for j in range(i + 1, s))
        blocks = (tuple(range(s)),)
        c = _block_tree_certificate(blocks)
        if c not in found:
            found[c] = (s, edges)
            queue.append((s, edges, blocks))
    while queue:
        n, edges, blocks = queue.pop(0)
        for v in range(n):
            for s in range(2, n_max - n + 2):
                block = (v,) + tuple(range(n, n + s - 1))
                extra = tuple((block[i], block[j])
                              for i in range(len(block))
                              for j in range(i + 1, len(block)))
                c = _block_tree_certificate(blocks + (block,))
                if c not in found:
                    found[c] = (n + s - 1, edges + extra)
                    queue.append((n + s - 1, edges + extra, blocks + (block,)))
    ordered = sorted(found.items(), key=lambda kv: (kv[1][0], repr(kv[0])))
    for _, (n, edges) in ordered:
        yield build_graph(n, [1] * n, edges)
