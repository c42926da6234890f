"""Tarjan's block decomposition, the reference that the package's rooted
decomposition (``pairdom.rooted.root_blocks``) is tested against, and an
independent check of the witnesses that come with its rejections.

Nothing here calls the package's decomposition: the reference runs its
own depth-first search, and ``check_witness`` reads only the graph's
edges.
"""

import numpy as np

from pairdom import Disconnected, NotBlockGraph


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


def reference_rejection(g):
    """The error class a graph on n >= 2 vertices must be rejected with, or
    None for a connected block graph: Disconnected if a search from vertex
    0 misses a vertex, else NotBlockGraph if some block is not a clique."""
    ptr, _, ecnt, _, _, visited = tarjan_blocks(g.n, g.adj_indptr, g.adj_indices)
    if visited < g.n:
        return Disconnected
    size = np.diff(ptr)
    return NotBlockGraph if (ecnt != size * (size - 1) // 2).any() else None


def check_witness(g, exc):
    """Assert that the witness of ``exc`` shows why ``g`` is rejected.

    Disconnected: ``unreached`` is a vertex that a search from ``root``
    does not reach.  NotBlockGraph: ``cycle`` is a cycle of at least four
    distinct vertices, each adjacent to the next and the last to the
    first, and ``pair`` is two non-adjacent vertices on it, so that one
    block holds both and is not a clique.
    """
    edges = {frozenset(e) for e in g.edge_list()}
    w = exc.witness
    if isinstance(exc, Disconnected):
        seen = {w["root"]}
        todo = [w["root"]]
        while todo:
            for x in g.neighbors(todo.pop()).tolist():
                if x not in seen:
                    seen.add(x)
                    todo.append(x)
        assert 0 <= w["unreached"] < g.n and w["unreached"] not in seen, w
    else:
        assert isinstance(exc, NotBlockGraph), exc
        cycle, (x, y) = w["cycle"], w["pair"]
        assert len(cycle) >= 4 and len(set(cycle)) == len(cycle), w
        assert all(frozenset((cycle[i - 1], cycle[i])) in edges
                   for i in range(len(cycle))), w
        assert x in cycle and y in cycle and x != y, w
        assert frozenset((x, y)) not in edges, w
