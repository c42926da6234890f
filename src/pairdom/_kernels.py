"""Tarjan's block decomposition and the pendant-block elimination order.

These back :func:`pairdom.blocks.find_blocks` and
:attr:`pairdom.blocks.BlockCutTree.elimination_order`, which serve
``pairdom decompose``, the oracle's enumerator and the rejection messages
of :func:`pairdom.solve`; the solve itself decomposes on whole arrays
(``rooted``).  Both run as plain Python over lists, and ``blocks`` imports
this module on first use, so importing the package does not compile it.
"""

import heapq

import numpy as np


def tarjan_blocks(n, indptr, adj):
    """Biconnected components by iterative depth-first search from vertex 0.

    Returns (comp_ptr, comp_verts, comp_edge_counts, is_cut, visited).
    ``visited < n`` signals a disconnected input.  Requires n >= 2.
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
            comp_ptr.append(len(comp_verts))
            if parent[w] != -1:
                is_cut[w] = 1
            else:
                rootpops += 1
    if rootpops >= 2:
        is_cut[0] = 1
    return (np.array(comp_ptr, dtype=np.int64), np.array(comp_verts, dtype=np.int64),
            np.array(comp_ecnt, dtype=np.int64), np.array(is_cut, dtype=np.uint8), timer)


def eliminate(nb, block_ptr, block_verts, is_cut, n):
    """Pendant-block elimination order of the block-cut tree.

    Repeatedly removes the smallest-id block that is currently a leaf of
    the tree; a cut vertex left in a single block is absorbed into it.
    Returns (order, root_of_block, ok) where root_of_block[b] is the cut
    vertex the block hangs from at its removal (-1 for the final block).
    """
    ptr = block_ptr.tolist()
    verts = block_verts.tolist()
    cut = is_cut.tolist()
    blocks = [verts[ptr[b]:ptr[b + 1]] for b in range(nb)]
    bdeg = [0] * nb
    cdeg = [0] * n
    cut_blocks = {}
    for b, vs in enumerate(blocks):
        for v in vs:
            if cut[v]:
                bdeg[b] += 1
                cdeg[v] += 1
                cut_blocks.setdefault(v, []).append(b)

    active = list(cut)
    removed = [False] * nb
    heap = [b for b in range(nb) if bdeg[b] <= 1]
    pushed = [d <= 1 for d in bdeg]
    order = []
    root_of = [-1] * nb
    while heap:
        b = heapq.heappop(heap)
        order.append(b)
        removed[b] = True
        for v in blocks[b]:
            if active[v]:
                root_of[b] = v
        for v in blocks[b]:
            if cut[v] and cdeg[v] > 0:
                cdeg[v] -= 1
                if cdeg[v] == 1 and active[v]:
                    # absorbed: the one remaining block loses a tree edge
                    active[v] = 0
                    for b2 in cut_blocks[v]:
                        if not removed[b2]:
                            bdeg[b2] -= 1
                            if bdeg[b2] <= 1 and not pushed[b2]:
                                heapq.heappush(heap, b2)
                                pushed[b2] = True
                            break
    return (np.array(order, dtype=np.int64), np.array(root_of, dtype=np.int64),
            len(order) == nb)
