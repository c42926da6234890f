"""Linear-time check of a ``pairdom solve --json`` answer.

The checker works from the instance's own construction (see
``workloads.Instance``), so it shares no code with the solver.  It checks
that the reported weight is the weight of the set, that the set dominates
the graph, and that the subgraph the set induces has a perfect matching.
Optimality is checked by the caller against a known optimum.
"""

from __future__ import annotations

import numpy as np

from workloads import Instance


def dominates(inst: Instance, in_s: np.ndarray) -> bool:
    """Every vertex is in the set or shares a block with a set vertex."""
    owner = inst.owner()
    glued = inst.glue >= 0
    block_hit = np.bincount(owner, weights=in_s, minlength=inst.num_blocks) > 0
    block_hit[glued] |= in_s[inst.glue[glued]]
    via_glue = np.bincount(inst.glue[glued], weights=block_hit[glued],
                           minlength=inst.n) > 0
    return bool((in_s | block_hit[owner] | via_glue).all())


def has_perfect_matching(inst: Instance, in_s: np.ndarray) -> bool:
    """Perfect matching of the induced subgraph, by leaf-first greedy.

    Blocks are visited newest first, so every block glued onto one of a
    block's new vertices is done before that block.  A new vertex still
    unmatched then can only be matched inside its own block: pair those up,
    and an odd one out must take the block's glue vertex.  Induced subgraphs
    of block graphs are block graphs, so this greedy is exact.
    """
    matched = np.zeros(inst.n, dtype=bool)
    for b in range(inst.num_blocks - 1, -1, -1):
        s = int(inst.start[b])
        own = slice(s, s + int(inst.new[b]))
        free = in_s[own] & ~matched[own]
        matched[own] |= free
        if int(free.sum()) % 2:
            g = int(inst.glue[b])
            if g < 0 or not in_s[g] or matched[g]:
                return False
            matched[g] = True
    return True


def check_answer(inst: Instance, members: list, weight: int) -> str | None:
    """Why the answer (1-based ``members``, reported ``weight``) is not a
    paired-dominating set of that weight, or None when it is one."""
    s = np.asarray(members, dtype=np.int64) - 1
    if s.size and (int(s.min()) < 0 or int(s.max()) >= inst.n):
        return "vertex id out of range"
    in_s = np.zeros(inst.n, dtype=bool)
    in_s[s] = True
    if int(in_s.sum()) != s.size:
        return "a vertex is listed twice"
    if int(inst.weights[s].sum()) != weight:
        return f"reported weight {weight} != set weight {int(inst.weights[s].sum())}"
    if not dominates(inst, in_s):
        return "the set does not dominate the graph"
    if not has_perfect_matching(inst, in_s):
        return "the induced subgraph has no perfect matching"
    return None
