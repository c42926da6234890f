"""Tarjan's block decomposition.

This backs :func:`pairdom.blocks.find_blocks`, which serves ``pairdom
decompose``, the oracle's enumerator and the rejection messages of
:func:`pairdom.solve`; the solve itself decomposes on whole arrays
(``rooted``).  It runs as plain Python over lists, and ``blocks`` imports
this module on first use, so importing the package does not compile it.
"""

import numpy as np


def tarjan_blocks(n, indptr, adj):
    """Biconnected components by iterative depth-first search from vertex 0.

    A block is popped only after every block below it in the search, so
    the numbering is a pendant order: block ``b`` shares with blocks
    ``b+1 ..`` just its top vertex ``comp_top[b]`` (-1 for the last).
    Returns (comp_ptr, comp_verts, comp_edge_counts, comp_top, is_cut,
    visited).  ``visited < n`` signals a disconnected input.  Requires
    n >= 2.
    """
    indptr = indptr.tolist()
    adj = adj.tolist()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    ptr = indptr[:n]
    is_cut = [0] * n
    edges = []                  # stack of tree and back edges (u, v)
    comp_ptr = [0]
    comp_verts = []
    comp_ecnt = []
    comp_top = []
    rootpops = 0
    disc[0] = 0
    timer = 1
    stack = [0]
    while stack:
        u = stack[-1]
        if ptr[u] < indptr[u + 1]:
            v = adj[ptr[u]]
            ptr[u] += 1
            if disc[v] == -1:
                parent[v] = u
                edges.append((u, v))
                disc[v] = low[v] = timer
                timer += 1
                stack.append(v)
            elif v != parent[u] and disc[v] < disc[u]:
                edges.append((u, v))
                if disc[v] < low[u]:
                    low[u] = disc[v]
            continue
        stack.pop()
        if not stack:
            break
        w = stack[-1]
        if low[u] < low[w]:
            low[w] = low[u]
        if low[u] >= disc[w]:
            # pop one block, up to and including tree edge (w, u)
            seen = set()
            count = 0
            while True:
                e = edges.pop()
                count += 1
                for x in e:
                    if x not in seen:
                        seen.add(x)
                        comp_verts.append(x)
                if e == (w, u):
                    break
            comp_ecnt.append(count)
            comp_top.append(w)
            comp_ptr.append(len(comp_verts))
            if parent[w] != -1:
                is_cut[w] = 1
            else:
                rootpops += 1
    if rootpops >= 2:
        is_cut[0] = 1
    if comp_top:
        comp_top[-1] = -1
    return (np.array(comp_ptr, dtype=np.int64), np.array(comp_verts, dtype=np.int64),
            np.array(comp_ecnt, dtype=np.int64), np.array(comp_top, dtype=np.int64),
            np.array(is_cut, dtype=np.uint8), timer)
