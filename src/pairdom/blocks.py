"""Blocks, cut vertices, the block-cut tree, and the elimination order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Disconnected, NotBlockGraph
from .graph import WeightedGraph


@dataclass(frozen=True)
class Block:
    block_id: int
    vertices: tuple


@dataclass(eq=False)
class BlockCutTree:
    """Decomposition of a connected graph into blocks and cut vertices.

    Array form: ``block_ptr``/``block_verts`` is a CSR over blocks,
    ``is_cut`` flags articulation points.  Blocks are numbered in the
    order a depth-first search from vertex 0 completes them, so removing
    them in id order (``elimination_order``) removes a leaf of the
    remaining tree each time; ``block_roots[b]`` is the cut vertex that
    block ``b`` hangs from then (-1 for the last block).
    """

    n: int
    num_blocks: int
    block_ptr: np.ndarray
    block_verts: np.ndarray
    block_edge_counts: np.ndarray
    block_roots: np.ndarray
    is_cut: np.ndarray

    @property
    def cut_vertices(self) -> tuple:
        return tuple(int(v) for v in np.nonzero(self.is_cut)[0])

    def block_vertices(self, b: int) -> np.ndarray:
        return self.block_verts[self.block_ptr[b]:self.block_ptr[b + 1]]

    def block_size(self, b: int) -> int:
        return int(self.block_ptr[b + 1] - self.block_ptr[b])

    def block_cuts(self, b: int) -> list:
        return [int(v) for v in self.block_vertices(b) if self.is_cut[v]]

    def tree_edges(self) -> list:
        """Bipartite tree adjacency as (block_id, cut_vertex) pairs."""
        return [(b, c) for b in range(self.num_blocks) for c in self.block_cuts(b)]

    def pendant_blocks(self) -> list:
        """Blocks containing exactly one cut vertex (the leaves of the tree)."""
        return [b for b in range(self.num_blocks) if len(self.block_cuts(b)) == 1]

    @property
    def elimination_order(self) -> np.ndarray:
        return np.arange(self.num_blocks, dtype=np.int64)


def find_blocks(g: WeightedGraph) -> BlockCutTree:
    """Biconnected components, articulation points, and the block-cut tree.

    Bridges become 2-vertex blocks; a single-vertex graph is one block.
    Raises :class:`Disconnected` when the graph is not connected.
    """
    if g.n == 0:
        raise Disconnected("empty graph")
    from ._kernels import tarjan_blocks    # loads on first use
    if g.n == 1:
        return BlockCutTree(
            n=1,
            num_blocks=1,
            block_ptr=np.array([0, 1], dtype=np.int64),
            block_verts=np.array([0], dtype=np.int64),
            block_edge_counts=np.array([0], dtype=np.int64),
            block_roots=np.array([-1], dtype=np.int64),
            is_cut=np.zeros(1, dtype=np.uint8),
        )
    comp_ptr, comp_verts, comp_ecnt, comp_top, is_cut, visited = tarjan_blocks(
        g.n, g.adj_indptr, g.adj_indices)
    if int(visited) < g.n:
        raise Disconnected(f"graph is disconnected ({int(visited)} of {g.n} reachable)")
    return BlockCutTree(
        n=g.n,
        num_blocks=int(comp_ptr.shape[0]) - 1,
        block_ptr=np.asarray(comp_ptr),
        block_verts=np.asarray(comp_verts),
        block_edge_counts=np.asarray(comp_ecnt),
        block_roots=np.asarray(comp_top),
        is_cut=np.asarray(is_cut),
    )


def is_block_graph(g: WeightedGraph) -> bool:
    """True iff every block induces a clique (k vertices, k(k-1)/2 edges)."""
    return first_non_clique_block(find_blocks(g)) is None


def first_non_clique_block(bct: BlockCutTree) -> Optional[Block]:
    """Lowest-id block that is not a clique, or None."""
    sizes = np.diff(bct.block_ptr)
    expected = sizes * (sizes - 1) // 2
    bad = np.nonzero(bct.block_edge_counts != expected)[0]
    if bad.size == 0:
        return None
    b = int(bad[0])
    return Block(b, tuple(int(v) for v in bct.block_vertices(b)))


def require_block_graph(g: WeightedGraph) -> BlockCutTree:
    """Block-cut tree of ``g``; raises Disconnected, or NotBlockGraph
    naming the lowest-id block that is not a clique."""
    bct = find_blocks(g)        # raises Disconnected
    bad = first_non_clique_block(bct)
    if bad is not None:
        verts = " ".join(str(v + 1) for v in sorted(bad.vertices))
        raise NotBlockGraph(
            f"block {bad.block_id + 1} ({{{verts}}}) is not a clique",
            block_vertices=bad.vertices)
    return bct


def to_dot(bct: BlockCutTree, one_based: bool = True) -> str:
    """DOT rendering of the block-cut tree (blocks as boxes, cuts as circles)."""
    off = 1 if one_based else 0
    lines = ["graph blockcut {"]
    for b in range(bct.num_blocks):
        vs = " ".join(str(int(v) + off) for v in bct.block_vertices(b))
        lines.append(f'  B{b + off} [shape=box, label="B{b + off}: {vs}"];')
    for c in bct.cut_vertices:
        lines.append(f'  c{c + off} [shape=circle, label="{c + off}"];')
    for b, c in bct.tree_edges():
        lines.append(f"  B{b + off} -- c{c + off};")
    lines.append("}")
    return "\n".join(lines)
