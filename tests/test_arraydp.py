"""The whole-array solve: its pieces against loop references, its answers
at sizes the oracle cannot reach, and its decomposition and rejections
against Tarjan's (``tarjan``), each rejection with a checked witness."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdom import (Disconnected, NotBlockGraph, build_graph,
                     chain_of_triangles, find_blocks, format_instance,
                     has_perfect_matching, is_dominating_set,
                     is_paired_dominating_set, oracle_min_pds,
                     random_block_graph, solve)
from pairdom import arraydp
from pairdom.oracle import enumerate_block_graphs
from pairdom.rooted import root_blocks
from pairdom.weights import INFEASIBLE as INF

from conftest import check_vertex_states, clique_graph, cycle_graph
from tarjan import check_witness, reference_rejection, tarjan_blocks


def _block_graph_matched(g, members):
    """Perfect matching of the subgraph that ``members`` induce in the
    block graph ``g``, by leaf-first greedy over Tarjan's pendant order: a
    set vertex left unmatched when its block is removed can only pair
    inside that block, with another such vertex or with the block's root.
    A reference for :func:`has_perfect_matching`, which runs the same
    greedy over the blocks of ``root_blocks``."""
    ptr, verts, _, top, _, _ = tarjan_blocks(g.n, g.adj_indptr, g.adj_indices)
    in_set = set(members)
    matched = set()
    for b, root in enumerate(top.tolist()):
        free = [v for v in verts[ptr[b]:ptr[b + 1]].tolist()
                if v != root and v in in_set and v not in matched]
        matched.update(free)
        if len(free) % 2:
            if root < 0 or root not in in_set or root in matched:
                return False
            matched.add(root)
    return matched == in_set


# ----------------------------------------------------------- decomposition

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), nb=st.integers(1, 30),
       ms=st.integers(2, 6), data=st.data())
def test_root_blocks_match_tarjan(seed, nb, ms, data):
    g = random_block_graph(nb, ms, 5, seed=seed)
    root = data.draw(st.integers(0, g.n - 1))
    rb = root_blocks(g, root)
    mine = {frozenset([int(rb.attach[b])] + rb.kids[rb.block_ptr[b]:rb.block_ptr[b + 1]].tolist())
            for b in range(rb.num_blocks)}
    ptr, verts, _, _, is_cut, _ = tarjan_blocks(g.n, g.adj_indptr, g.adj_indices)
    assert mine == {frozenset(verts[ptr[b]:ptr[b + 1]].tolist()) for b in range(len(ptr) - 1)}
    assert rb.num_blocks == len(ptr) - 1
    assert int(rb.order[0]) == root and rb.parent[root] == -1
    # the view from vertex 0: the same blocks, and the same cut vertices
    bct = find_blocks(g)
    assert {frozenset(bct.block_vertices(b).tolist()) for b in range(bct.num_blocks)} == mine
    assert bct.is_cut.tolist() == is_cut.astype(bool).tolist()


def _cycle_through_cliques(draw):
    k = draw(st.integers(4, 9))
    return cycle_graph(k)


def _clique_missing_edge(draw):
    k = draw(st.integers(4, 7))
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges.pop(draw(st.integers(0, len(edges) - 1)))
    return build_graph(k, [1] * k, edges)


def _cliques_joined_twice(draw):
    a = draw(st.integers(2, 5))
    b = draw(st.integers(2, 5))
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(a + i, a + j) for i in range(b) for j in range(i + 1, b)]
    x1, x2 = draw(st.lists(st.integers(0, a - 1), min_size=2, max_size=2, unique=True))
    y1, y2 = draw(st.lists(st.integers(a, a + b - 1), min_size=2, max_size=2, unique=True))
    return build_graph(a + b, [1] * (a + b), edges + [(x1, y1), (x2, y2)])


def _disconnected(draw):
    g1 = random_block_graph(draw(st.integers(1, 4)), 3, 5, seed=draw(st.integers(0, 99)))
    g2 = random_block_graph(draw(st.integers(1, 4)), 3, 5, seed=draw(st.integers(0, 99)))
    edges = g1.edge_list() + [(u + g1.n, v + g1.n) for u, v in g2.edge_list()]
    return build_graph(g1.n + g2.n, [1] * (g1.n + g2.n), edges)


@st.composite
def _rejected_graphs(draw):
    """A disconnected graph or a non-block graph, glued at one vertex to a
    random block graph and relabelled at random."""
    bad = draw(st.sampled_from([_cycle_through_cliques, _clique_missing_edge,
                                _cliques_joined_twice, _disconnected]))(draw)
    host = random_block_graph(draw(st.integers(1, 6)), 4, 5,
                              seed=draw(st.integers(0, 10 ** 6)))
    glue = draw(st.integers(0, host.n - 1))
    shift = host.n - 1
    relabel = [glue if v == 0 else v + shift for v in range(bad.n)]
    edges = host.edge_list() + [(relabel[u], relabel[v]) for u, v in bad.edge_list()]
    n = host.n + bad.n - 1
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [1] * n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(g=_rejected_graphs(), data=st.data())
def test_rejection_matches_tarjan(g, data):
    expected = reference_rejection(g)
    assert expected is not None
    for root in data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3,
                                   unique=True)):
        with pytest.raises(expected) as got:
            solve(g, final_root=root)
        check_witness(g, got.value)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_random_graphs_accepted_or_rejected_like_tarjan(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = build_graph(n, [1] * n, edges)
    root = data.draw(st.integers(0, n - 1))
    expected = reference_rejection(g)
    if expected is None:
        assert solve(g, final_root=root)[1] == oracle_min_pds(g)[1]
    else:
        with pytest.raises(expected) as got:
            solve(g, final_root=root)
        check_witness(g, got.value)


def test_rejection_messages():
    with pytest.raises(NotBlockGraph, match=r"^vertices 3 and 1 lie on a cycle of 4 "
                       r"vertices but are not adjacent, so their block is not a clique$"):
        solve(cycle_graph(4))
    with pytest.raises(Disconnected, match=r"^graph is disconnected: vertex 3 is not "
                       r"reached from vertex 1 \(2 of 4 reachable\)$") as got:
        solve(build_graph(4, [1] * 4, [(0, 1), (2, 3)]))
    assert got.value.witness == {"root": 0, "unreached": 2}


# two 4-cycles glued at vertex 0
TWO_C4 = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]


def _k4_without(edge):
    return build_graph(4, [1] * 4, [e for e in clique_graph(4).edge_list() if e != edge])


# One graph per way root_blocks can fail, rooted at 0, with its witness:
# an edge that is neither a parent nor a sibling edge (u, v) gives the
# cycle through both parents and the pair (u, parent[v]), or (v,
# parent[u]) when u is adjacent to parent[v]; an edge between siblings
# with different labels, or a sibling group short of edges, gives a
# diamond.
@pytest.mark.parametrize("g, witness", [
    (cycle_graph(4), {"cycle": [2, 1, 0, 3], "pair": [2, 0]}),
    (cycle_graph(6), {"cycle": [3, 2, 1, 0, 5, 4], "pair": [3, 5]}),
    (_k4_without((0, 3)), {"cycle": [2, 0, 1, 3], "pair": [3, 0]}),
    (_k4_without((1, 3)), {"cycle": [0, 1, 2, 3], "pair": [1, 3]}),
    (_k4_without((2, 3)), {"cycle": [0, 2, 1, 3], "pair": [2, 3]}),
    # the same graph in three edge orders: the witness is the graph's own
    *[(build_graph(7, [1] * 7, edges), {"cycle": [2, 1, 0, 3], "pair": [2, 0]})
      for edges in (TWO_C4, TWO_C4[4:] + TWO_C4[:4], [(v, u) for u, v in reversed(TWO_C4)])],
], ids=["cross-c4", "cross-c6", "cross-other-pair", "mixed-labels", "short-group",
        "two-c4", "two-c4-rotated", "two-c4-reversed"])
def test_witness_of_each_rejection(g, witness):
    with pytest.raises(NotBlockGraph) as got:
        root_blocks(g, 0)
    assert got.value.witness == witness
    check_witness(g, got.value)


def test_final_root_out_of_range():
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            solve(clique_graph(3), final_root=bad)


# ------------------------------------------------------------- large sizes

def _large(g, optimum=None):
    return pytest.param(g, optimum, id=f"n{g.n}")


LARGE = [
    _large(chain_of_triangles(100), 68),        # 2 ceil(b / 3) on b unit triangles
    _large(chain_of_triangles(5000), 3334),     # a path longer than one kernel chunk
    _large(random_block_graph(1000, 2, 30, seed=11)),       # a tree
    _large(random_block_graph(1000, 3, 100, seed=12)),
    _large(random_block_graph(300, 12, 1000, seed=13)),
    _large(random_block_graph(200, 6, 1, seed=14)),         # unit weights: many ties
]


def _small_subtrees(g, root, most=12, count=200):
    """Up to ``count`` vertices whose subtree from ``root`` has at most
    ``most`` vertices, the largest subtrees first."""
    rb = root_blocks(g, root)
    size = [1] * g.n
    for v in rb.order[:0:-1].tolist():
        size[rb.parent[v]] += size[v]
    return sorted((v for v in range(g.n) if size[v] <= most), key=lambda v: -size[v])[:count]


@pytest.mark.parametrize("g, optimum", LARGE)
def test_solve_on_large_graphs(g, optimum):
    vset, weight = solve(g)
    assert vset.total_weight == weight == g.weight_of(vset.members)
    assert optimum is None or weight == optimum
    assert len(vset) % 2 == 0
    assert is_dominating_set(g, vset.members)
    assert _block_graph_matched(g, vset.members)
    assert has_perfect_matching(g, vset.members)
    same, _, pairs = solve(g, pairs=True)
    assert same == vset and is_paired_dominating_set(g, vset, pairs)
    hub = int(np.argmax(np.diff(g.adj_indptr)))
    for root in (g.n - 1, g.n // 2, hub):
        other, w = solve(g, final_root=root)
        assert w == weight
        assert other.total_weight == w and _block_graph_matched(g, other.members)
        assert has_perfect_matching(g, other.members)
    # the answer with one vertex swapped for one outside it, matched or not
    rng = np.random.default_rng(g.n)
    outside = np.setdiff1d(np.arange(g.n), vset.members)
    for _ in range(40):
        s = (set(vset.members) - {int(rng.choice(vset.members))}) | {int(rng.choice(outside))}
        assert has_perfect_matching(g, s) == _block_graph_matched(g, s)
    check_vertex_states(g, 0, _small_subtrees(g, 0))


@pytest.mark.parametrize("seed", range(5))
def test_check_is_fast_on_random_400_block_graphs(seed):
    """The output check on graphs where a backtracking matcher took
    seconds to minutes: now one linear pass."""
    g = random_block_graph(400, 5, 100, seed=seed)
    vset, _ = solve(g)
    assert is_paired_dominating_set(g, vset)
    assert _block_graph_matched(g, vset.members)


def _loaded_after(calls, names) -> str:
    """Exit codes of ``cli.main`` over ``calls`` in a fresh process, and
    which of ``names`` that process then holds in ``sys.modules``."""
    code = ("import sys; from pairdom.cli import main; "
            f"codes = [main(argv) for argv in {calls!r}]; "
            f"print(codes, sorted(m for m in {names!r} if m in sys.modules))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout.splitlines()[-1]


def test_solve_path_loads_no_scalar_kernels(tmp_path):
    """``pairdom solve --json`` and ``solve --json --check`` on a file,
    parsing and the output check included, and ``solve --json`` on a
    rejected file load neither the line-by-line parser, numba, scipy, the
    generator nor the oracle; ``decompose`` on a good file, in a process of
    its own, loads none of the first three."""
    path, bad = tmp_path / "chain.pd", tmp_path / "c4.pd"
    path.write_text(format_instance(chain_of_triangles(3)))
    bad.write_text(format_instance(cycle_graph(4)))
    path, bad = str(path), str(bad)
    scalar = ("pairdom._linewise", "numba", "scipy")
    solves = [["solve", path, "--json"], ["solve", path, "--json", "--check"],
              ["solve", bad, "--json"]]
    assert (_loaded_after(solves, scalar + ("pairdom.generator", "pairdom.oracle"))
            == "[0, 0, 2] []")
    assert _loaded_after([["decompose", path]], scalar) == "[0] []"


def _with_chunk(chunk, f, *args):
    """``f(*args)`` with the kernels' column chunk set to ``chunk``."""
    saved = arraydp._CHUNK
    arraydp._CHUNK = chunk
    try:
        return f(*args)
    finally:
        arraydp._CHUNK = saved


SMALL_GRAPHS = pytest.mark.parametrize(
    "g", [chain_of_triangles(40), random_block_graph(300, 6, 50, seed=15),
          random_block_graph(300, 2, 50, seed=16)], ids=lambda g: f"n{g.n}")


@SMALL_GRAPHS
def test_chunking_changes_nothing(g):
    """Splitting the kernels' columns into chunks of 3 gives the same set."""
    assert _with_chunk(3, solve, g) == solve(g)


@SMALL_GRAPHS
@pytest.mark.parametrize("piece", [2, 3])
def test_piece_size_changes_nothing(g, piece, monkeypatch):
    """Cutting the heavy paths into pieces of 2 or 3 vertices, so that
    the scan recurses several times, gives the same set."""
    want = solve(g)
    monkeypatch.setattr(arraydp, "_PIECE", piece)
    assert solve(g) == want


# sha256 of the sets solve returns at every root, one line of members per
# root: among sets of equal weight the choice is fixed, and a changed
# tie-break changes these
TIE_ORDER = [
    (lambda: enumerate_block_graphs(7),
     "9daa99349afadad68c9f7fd472bffe059ca28a0c3319bb83200120b3a55d9266"),
    (lambda: [random_block_graph(200, 6, 1, seed=14)],
     "456986bc73e40c7ea81440e862ef118a4b9225bd174fe835d1d6bb8c5c2dad2d"),
]


@pytest.mark.parametrize("graphs, digest", TIE_ORDER, ids=["enum7", "unit200"])
def test_tie_order_is_pinned(graphs, digest):
    """Among sets of equal weight, solve keeps returning the same one."""
    h = hashlib.sha256()
    for g in graphs():
        for root in range(g.n):
            h.update((" ".join(map(str, solve(g, final_root=root)[0].members)) + "\n").encode())
    assert h.hexdigest() == digest


def test_stats():
    stats = {}
    solve(chain_of_triangles(5), stats=stats)
    assert stats["blocks"] == 5
    assert all(stats[k] >= 0 for k in ("decompose_s", "plan_s", "sweep_s", "reconstruct_s"))


# ------------------------------------------------- pieces against loops

def _convolve(a, b, pairs):
    return [min(min(a[x] + b[y], INF) for x, y in zp) for zp in pairs]


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([arraydp.F, arraydp.H]), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([1, 2, 5, arraydp._NARROW - 1, arraydp._NARROW,
                              arraydp._NARROW + 1, 300]))
def test_product_matches_pairs_one_at_a_time(m, seed, width):
    """The product at widths on both sides of ``_NARROW``, and with each
    of its two forms forced: each entry's value, and its first cheapest
    pair by the unsaturated sums, against taking the pairs one at a time.
    The entries are drawn from 0..3 and INF, so ties are common."""
    rng = np.random.default_rng(seed)
    a, b = rng.choice(np.array([0, 1, 2, 3, INF]), size=(2, 4, width))
    want = [_convolve(a[:, j], b[:, j], m.pairs) for j in range(width)]
    first = [[min(range(len(zp)), key=lambda i: a[zp[i][0], j] + b[zp[i][1], j])
              for zp in m.pairs] for j in range(width)]
    for narrow in (arraydp._NARROW, 0, width + 1):
        best = np.empty((4, width), dtype=np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arraydp, "_NARROW", narrow)
            got = arraydp._product(a, b, best, m)
        assert got.T.tolist() == want
        assert best.T.tolist() == first


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_matches_sequential_product(data):
    _check_fold(data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_with_the_cut_at_0_matches_sequential_product(data):
    """Every product takes its pairs one at a time, however narrow."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arraydp, "_NARROW", 0)
        _check_fold(data)


def _check_fold(data):
    sizes = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
    m = data.draw(st.sampled_from([arraydp.F, arraydp.H]))
    pairs, one = m.pairs, m.one
    weight = st.one_of(st.integers(0, 50), st.just(INF))
    cols = [[data.draw(weight) for _ in range(4)] for _ in range(sum(sizes))]
    x = np.array(cols, dtype=np.int64).reshape(-1, 4).T.copy()
    seg = np.repeat(np.arange(len(sizes)), sizes)
    total, folded = arraydp._fold(x, seg, len(sizes), m)
    target = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(sizes),
                                         max_size=len(sizes))))
    choice = arraydp._unfold(folded, target, m)
    start = 0
    for s, k in enumerate(sizes):
        ref = one.tolist()
        for c in cols[start:start + k]:
            ref = _convolve(ref, c, pairs)
        assert total[:, s].tolist() == ref
        if k and ref[target[s]] < INF:
            # the chosen entries multiply to the target and add up to its weight
            got, prod = 0, None
            for c, z in zip(cols[start:start + k], choice[start:start + k]):
                got += c[z]
                prod = z if prod is None else next(
                    zz for zz, zp in enumerate(pairs) if (prod, z) in zp)
            assert prod == target[s] and got == ref[target[s]]
        start += k


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_matches_sequential_products(data):
    """The path evaluator on step matrices, with each path's end below
    it, against multiplying the matrices in one at a time.  With chunks
    of 3 columns, the first level's matrices are built as needed.  The
    matrices built in one gather equal those built a row at a time."""
    lengths = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=4)) + [1, 2]
    k = sum(lengths)
    small = st.one_of(st.integers(0, 30), st.just(INF))
    hp = np.array([[data.draw(small) for _ in range(k)] for _ in range(4)], dtype=np.int64)
    g = np.array([[data.draw(small) for _ in range(k)] for _ in range(4)], dtype=np.int64)
    w = np.array([data.draw(st.integers(0, 30)) for _ in range(k)], dtype=np.int64)
    tail = np.array([[data.draw(small) for _ in lengths] for _ in range(4)], dtype=np.int64)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    m = arraydp._step_matrix(hp, g, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arraydp, "_NARROW", 0)
        assert arraydp._step_matrix(hp, g, w).tolist() == m.tolist()
    for chunk in (arraydp._CHUNK, 3):
        got = _with_chunk(chunk, arraydp._chain, hp, g, w, seg, tail)
        start = 0
        for s, n in enumerate(lengths):
            x = tail[:, s].tolist()
            for j in reversed(range(start, start + n)):
                x = [min(min(int(m[4 * i + y, j]) + x[y] for y in range(4)), INF)
                     for i in range(4)]
                assert got[:, j].tolist() == x
            start += n


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_map_scan_matches_sequential_composition(data):
    """The path evaluator on coded state maps, run over the reversed
    paths with each path's end above it as the reconstruction runs it,
    against applying the maps one at a time from each start state."""
    lengths = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=4)) + [1, 2]
    codes = [data.draw(st.integers(0, 255)) for _ in range(sum(lengths))]
    seg = np.repeat(np.arange(len(lengths)), lengths)
    rev = np.array(codes, dtype=np.uint8)[::-1]
    for chunk, top in [(arraydp._CHUNK, t) for t in range(4)] + [(3, 1)]:
        got = _with_chunk(chunk, arraydp._paths, lambda i: rev[i], arraydp._compose_maps,
                          arraydp._apply_maps, seg[::-1], np.full(len(lengths), top))[::-1]
        start = 0
        for n in lengths:
            state = top
            for j in range(start, start + n):
                state = (codes[j] >> (2 * state)) & 3
                assert got[j] == state
            start += n


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
       piece=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_piece_scan_matches_sequential_loops(lengths, piece, seed):
    """With pieces of 2 or 3 ops, paths of up to 40 vertices recurse two
    or more times: the chain of step matrices and the pass over state
    maps, as the sweep and the reconstruction run them, against applying
    the ops one at a time; in chunks of 3 columns too."""
    rng = np.random.default_rng(seed)
    k = sum(lengths)

    def weights(*shape):
        return np.where(rng.random(shape) < 0.2, INF, rng.integers(0, 30, shape))

    hp, g, tail, w = weights(4, k), weights(4, k), weights(4, len(lengths)), rng.integers(0, 30, k)
    codes = rng.integers(0, 256, k).astype(np.uint8)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    starts = rng.integers(0, 4, len(lengths))
    m = arraydp._step_matrix(hp, g, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arraydp, "_PIECE", piece)
        for chunk in (arraydp._CHUNK, 3):
            got = _with_chunk(chunk, arraydp._chain, hp, g, w, seg, tail)
            states = _with_chunk(chunk, arraydp._paths, lambda i: codes[::-1][i],
                                 arraydp._compose_maps, arraydp._apply_maps, seg[::-1], starts)
            states = states[::-1]
            start = 0
            for s, n in enumerate(lengths):
                x = tail[:, s].tolist()
                for j in reversed(range(start, start + n)):
                    x = [min(min(int(m[4 * i + y, j]) + x[y] for y in range(4)), INF)
                         for i in range(4)]
                    assert got[:, j].tolist() == x
                state = starts[s]
                for j in range(start, start + n):
                    state = (codes[j] >> (2 * state)) & 3
                    assert states[j] == state
                start += n


def _reference_unfold(x, seg, target, m):
    """Fold and unfold as they ran before the sweep recorded its choices:
    pair each segment's kept columns (0, 1), (2, 3), ... level by level,
    keeping the left of each pair, and top down evaluate every pair again
    for its target, the first cheapest (unsaturated) sum winning."""
    cols = x.T.tolist()
    got = [None] * len(cols)
    for s in dict.fromkeys(seg.tolist()):
        kept = [j for j, t in enumerate(seg.tolist()) if t == s]
        val = {j: cols[j] for j in kept}
        levels = []
        while len(kept) > 1:
            pairs = list(zip(kept[::2], kept[1::2]))
            levels.append((pairs, dict(val)))
            for a, b in pairs:
                val[a] = _convolve(val[a], val[b], m.pairs)
            kept = kept[::2]
        got[kept[0]] = int(target[s])
        for pairs, before in reversed(levels):
            for a, b in pairs:
                got[a], got[b] = min(m.pairs[got[a]],
                                     key=lambda xy: before[a][xy[0]] + before[b][xy[1]])
    return np.array(got, dtype=np.intp)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_unfold_matches_reevaluated_pairs(data):
    """The choices that the folds record give the ones that evaluating
    every pair again gives, ties included: columns over {0, 1, INF},
    segments of 0 to 9 columns, every target, in chunks of 3 columns too."""
    sizes = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    m = data.draw(st.sampled_from([arraydp.F, arraydp.H]))
    entry = st.sampled_from([0, 1, INF])
    x = np.array([[data.draw(entry) for _ in range(sum(sizes))] for _ in range(4)],
                 dtype=np.int64).reshape(4, -1)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    mixed = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(sizes),
                                        max_size=len(sizes))))
    for chunk in (arraydp._CHUNK, 3):
        _, folded = _with_chunk(chunk, arraydp._fold, x, seg, len(sizes), m)
        for target in [np.full(len(sizes), t) for t in range(4)] + [mixed]:
            got = arraydp._unfold(folded, target, m)
            assert got.tolist() == _reference_unfold(x, seg, target, m).tolist()


@pytest.mark.parametrize("root", [0, 150, 299])
def test_reconstruct_replays_the_sweep(root, monkeypatch):
    """The reconstruction reads the sweep's choices back: with the folds,
    the product kernel and the path choice table made to raise, it gives
    the states of an unpatched run."""
    g = random_block_graph(300, 6, 50, seed=15)
    plan = arraydp.TreePlan(root_blocks(g, root))
    val, choices = plan.sweep(g.weights)
    want = plan.reconstruct(val, choices, root)

    def fail(*args):
        raise AssertionError("the reconstruction computed a choice again")

    for name in ("_fold", "_choices", "_product"):
        monkeypatch.setattr(arraydp, name, fail)
    assert plan.reconstruct(val, choices, root).tolist() == want.tolist()
