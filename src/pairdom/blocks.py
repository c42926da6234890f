"""Blocks, cut vertices and the block-cut tree: a view of the rooted
decomposition (:func:`pairdom.rooted.root_blocks`) from vertex 0."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Disconnected, NotBlockGraph
from .graph import WeightedGraph
from .rooted import root_blocks


@dataclass(frozen=True)
class Block:
    block_id: int
    vertices: tuple


@dataclass(eq=False)
class BlockCutTree:
    """Decomposition of a connected block graph into blocks and cut vertices.

    Array form: ``block_ptr``/``block_verts`` is a CSR over blocks, and
    ``is_cut`` flags the vertices in two or more blocks.  Blocks are
    numbered deepest first, the reverse of the rooted decomposition's
    order, so removing them in id order (``elimination_order``) removes a
    leaf of the remaining tree each time; ``block_roots[b]`` is the vertex
    that block ``b`` hangs from then, its attachment (-1 for the last
    block, which holds vertex 0).
    """

    n: int
    num_blocks: int
    block_ptr: np.ndarray
    block_verts: np.ndarray
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
    """Blocks, cut vertices and the block-cut tree of a connected block graph.

    Bridges become 2-vertex blocks; a single-vertex graph is one block.
    Any other graph raises Disconnected (the empty graph too) or
    NotBlockGraph, with the witness of :func:`root_blocks`.
    """
    if g.n == 0:
        raise Disconnected("empty graph")
    if g.n == 1:
        verts = np.zeros(1, dtype=np.int64)
        ptr = np.array([0, 1], dtype=np.int64)
        roots = np.array([-1], dtype=np.int64)
    else:
        rb = root_blocks(g, 0)
        # each block as its attachment then its children; reversing the
        # whole list numbers the blocks deepest first
        start = rb.block_ptr + np.arange(rb.num_blocks + 1)
        verts = np.insert(rb.kids, rb.block_ptr[:-1], rb.attach)[::-1]
        ptr = (start[-1] - start)[::-1]
        roots = np.append(rb.attach[:0:-1], -1)
    return BlockCutTree(n=g.n, num_blocks=int(roots.shape[0]), block_ptr=ptr,
                        block_verts=verts, block_roots=roots,
                        is_cut=np.bincount(verts, minlength=g.n) >= 2)


def is_block_graph(g: WeightedGraph) -> bool:
    """True iff ``g`` is connected and every block induces a clique."""
    try:
        find_blocks(g)
    except (Disconnected, NotBlockGraph):
        return False
    return True


def first_non_clique_block(bct: BlockCutTree) -> Optional[Block]:
    """Lowest-id block that is not a clique, or None.

    Always None: :func:`find_blocks` builds no tree for a graph with such
    a block, and raises NotBlockGraph with a witness instead.
    """
    return None


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
