"""Shared fixtures: canonical small graphs and the per-vertex state check."""

import pytest

from pairdom import StateKind, build_graph, find_blocks, oracle_state
from pairdom.arraydp import TreePlan
from pairdom.rooted import root_blocks

# Fifteen-vertex golden instance: eight cliques glued at six cut vertices.
# 1-based vertex labels; blocks 1,2,4,5,7 are pendant and block 8 is the
# central K4.  Unit weights; optimal paired-domination weight 6 (frozen,
# derived from the brute-force oracle).
GOLDEN_BLOCKS = [
    (10, 14),
    (11, 15),
    (6, 10, 11),
    (7, 8, 12),
    (5, 9, 13),
    (4, 5),
    (1, 2, 4),
    (3, 4, 6, 7),
]
GOLDEN_N = 15
GOLDEN_PENDANT_SETS = {
    frozenset({10, 14}), frozenset({11, 15}), frozenset({7, 8, 12}),
    frozenset({5, 9, 13}), frozenset({1, 2, 4}),
}
GOLDEN_WEIGHT = 6


def golden_graph():
    edges = []
    for blk in GOLDEN_BLOCKS:
        vs = [v - 1 for v in blk]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                edges.append((vs[i], vs[j]))
    return build_graph(GOLDEN_N, [1] * GOLDEN_N, edges)


@pytest.fixture(scope="session")
def golden():
    return golden_graph()


def path_graph(n, weights=None):
    return build_graph(n, weights or [1] * n, [(i, i + 1) for i in range(n - 1)])


def clique_graph(n, weights=None):
    return build_graph(n, weights or [1] * n,
                       [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves, weights=None):
    return build_graph(leaves + 1, weights or [1] * (leaves + 1),
                       [(0, i) for i in range(1, leaves + 1)])


def cycle_graph(n, weights=None):
    return build_graph(n, weights or [1] * n,
                       [(i, (i + 1) % n) for i in range(n)])


def sweep(g, root):
    """The rooted decomposition of ``g`` and the sweep's (4, n) weights."""
    rb = root_blocks(g, root)
    return rb, TreePlan(rb).sweep(g.weights)[0]


def check_vertex_states(g, root, vertices=None, where=""):
    """Sweep ``g`` rooted at ``root`` and check the four weights of each of
    ``vertices`` (default all) against :func:`oracle_state` on the
    subgraph below that vertex: the vertex and its descendants through
    ``parent``.  Returns the number of states checked."""
    rb, val = sweep(g, root)
    children = [[] for _ in range(g.n)]
    for v in rb.order[1:].tolist():
        children[rb.parent[v]].append(v)
    checked = 0
    for v in range(g.n) if vertices is None else vertices:
        below = [v]
        for u in below:             # grows as it goes: v's whole subtree
            below.extend(children[u])
        index = {u: i for i, u in enumerate(below)}
        edges = [(i, index[x]) for i, u in enumerate(below)
                 for x in g.neighbors(u).tolist() if index.get(x, -1) > i]
        sub = build_graph(len(below), g.weights[below], edges)
        for kind in StateKind:
            expected = oracle_state(sub, 0, kind)
            stored = int(val[kind, v])
            assert stored == expected, (
                f"{where}root {root}, vertex {v}, state {kind.name}: "
                f"expected {expected}, stored {stored}")
            checked += 1
    return checked


def pendant_blocks(bct):
    """Blocks holding exactly one cut vertex: the leaves of the block-cut tree."""
    return [b for b in range(bct.num_blocks)
            if int(bct.is_cut[bct.block_vertices(b)].sum()) == 1]


def assert_valid_elimination(g, bct=None):
    """Each listed block must be pendant in the tree remaining after its
    predecessors are removed (at most one cut vertex shared with what is
    left); the last block absorbs everything."""
    bct = bct or find_blocks(g)
    order = [int(b) for b in bct.elimination_order]
    assert sorted(order) == list(range(bct.num_blocks))
    remaining = set(order)
    for pos, b in enumerate(order):
        remaining.discard(b)
        shared = set()
        mine = set(int(v) for v in bct.block_vertices(b))
        for b2 in remaining:
            shared |= mine & set(int(v) for v in bct.block_vertices(b2))
        if pos < len(order) - 1:
            assert len(shared) == 1, (order, pos, b, shared)
            root = int(bct.block_roots[b])
            assert root in shared
        else:
            assert not shared
    return order
