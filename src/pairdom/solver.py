"""Bottom-up dynamic program over the block-cut tree.

Each vertex that currently roots a processed subgraph H carries four
state weights:

  D       min-weight dominating set of H containing the root, with the
          rest of the set perfectly matched (the root pairs later),
  P       min-weight paired-dominating set of H containing the root,
  P'      min-weight paired-dominating set of H avoiding the root,
  Pbar    min-weight paired-dominating set of H minus the root that also
          leaves the root undominated.

The winning weight of the whole graph is min(P, P') at the root.
:func:`solve` roots the graph at a vertex, folds each block's children
and each vertex's blocks with min-plus products, and evaluates the folds
in whole-array rounds over heavy paths (``rooted`` and ``arraydp``).  It
has no loop per block.  The tests check every state of every vertex
against the brute-force oracle (``oracle``) on small graphs.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .arraydp import D, P, StateKind, TreePlan
from .errors import InternalInconsistency, NoPairedDominatingSet
from .graph import VertexSet, WeightedGraph
from .rooted import RootedBlocks, root_blocks
from .weights import INFEASIBLE


def solve(g: WeightedGraph, final_root: Optional[int] = None,
          stats: Optional[dict] = None, pairs: bool = False):
    """Minimum-weight paired-dominating set of a connected block graph.

    Returns ``(VertexSet, weight)``.  Runs in time linear in the graph
    size, in three whole-array stages: root the graph and find its blocks
    (one breadth-first search, then vectorised checks), fold the blocks
    bottom up along heavy paths, and rebuild the set top down.

    ``final_root`` is the vertex the program is rooted at (default 0);
    any vertex gives the same weight, and an id outside the graph raises
    ValueError.  Among sets of equal weight the one returned depends on
    the root.

    If ``stats`` is a dict, it receives ``blocks`` (the number of blocks)
    and the seconds of each stage: ``decompose_s``, ``plan_s`` (laying out
    the heavy paths and rounds), ``sweep_s`` and ``reconstruct_s``
    (building the pairs, if asked, included).

    With ``pairs=True`` it returns ``(VertexSet, weight, pairs)``: the
    perfect matching of the set that the states fix, one edge per int64
    row, a certificate for :func:`is_paired_dominating_set` to check.

    Raises NoPairedDominatingSet (n <= 1), Disconnected, NotBlockGraph.
    """
    t0 = time.perf_counter()
    if g.n <= 1:
        raise NoPairedDominatingSet(
            f"a graph on {g.n} vertex(es) has no paired-dominating set")
    root = 0 if final_root is None else int(final_root)
    if not 0 <= root < g.n:
        raise ValueError(f"final root {final_root} is not a vertex of a graph on {g.n}")
    rb = root_blocks(g, root)
    num_blocks = rb.num_blocks
    t1 = time.perf_counter()
    plan = TreePlan(rb)
    rb = rb if pairs else None  # the plan keeps what the sweep needs
    t_plan = time.perf_counter()
    val, choices = plan.sweep(g.weights)
    t2 = time.perf_counter()
    state = plan.reconstruct(val, choices, root)
    weight = int(val[state[root], root])
    if weight >= INFEASIBLE or (state < 0).any():
        raise InternalInconsistency(
            "no paired-dominating set found on a connected block graph")
    members = np.flatnonzero(state >= P)     # states P and D hold the vertex
    total = int(g.weights[members].sum())
    if total != weight:
        raise InternalInconsistency(
            f"reconstructed weight {total} != stored weight {weight}")
    certificate = (_pairs(rb, state),) if pairs else ()
    t3 = time.perf_counter()
    if stats is not None:
        stats.update(blocks=num_blocks, decompose_s=t1 - t0, plan_s=t_plan - t1,
                     sweep_s=t2 - t_plan, reconstruct_s=t3 - t2)
    return (VertexSet(tuple(members.tolist()), total), weight, *certificate)


def _pairs(rb: RootedBlocks, state: np.ndarray) -> np.ndarray:
    """The matching the states fix.  A child in state D is matched inside
    its block, where its only partners are: the D-children of each block
    pair off in ``kids`` order, and an odd one out pairs with the block's
    attachment, which is then in state P (its one odd block)."""
    d = rb.kids[state[rb.kids] == D]
    blk = rb.block_of[d]                                # nondecreasing
    left = np.flatnonzero((np.arange(d.shape[0]) - np.searchsorted(blk, blk)) % 2 == 0)
    right = np.minimum(left + 1, d.shape[0] - 1)
    inside = (left + 1 < d.shape[0]) & (blk[right] == blk[left])
    return np.column_stack((d[left], np.where(inside, d[right], rb.attach[blk[left]])))
