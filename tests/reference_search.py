"""The breadth-first search that ``pairdom.graph.search_order`` is tested
against: the package's one-vertex-at-a-time loop, kept as it was before
the search learnt to expand a wide queue in numpy steps."""

import numpy as np


def search_order(g, root: int) -> np.ndarray:
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
