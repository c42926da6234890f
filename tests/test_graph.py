"""Graph construction and the domination predicates."""

import itertools
import random
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairdom.arraydp
import pairdom.graph
import pairdom.rooted
from pairdom import (DuplicateEdge, NotBlockGraph, OutOfRange, SelfLoop,
                     VertexSet, WeightOverflow, build_graph, chain_of_triangles,
                     enumerate_block_graphs, has_perfect_matching, is_connected,
                     is_dominating_set, is_paired_dominating_set,
                     random_block_graph, solve)
from pairdom.graph import search_order
from pairdom.oracle import _tables
from pairdom.weights import MAX_TOTAL_WEIGHT

import reference_search
from conftest import (GOLDEN_BLOCKS, GOLDEN_N, clique_graph, cycle_graph, golden_graph,
                      path_graph)


def test_build_k2():
    g = build_graph(2, [5, 3], [(0, 1)])
    assert (g.n, g.m, g.max_degree) == (2, 1, 1)
    assert list(g.neighbors(0)) == [1]
    assert int(g.weights.sum()) == 8
    # weight_of takes any iterable of ids, the empty one too, and gives an int
    for vertices, weight in [([0, 1], 8), ((v for v in [1]), 3), ((), 0)]:
        got = g.weight_of(vertices)
        assert got == weight and type(got) is int
    assert VertexSet.from_iterable(g, []) == VertexSet((), 0)


def test_weight_of_refuses_ids_that_are_not_vertices():
    """-1 is not the last vertex, and 0.5 is not vertex 0."""
    g = build_graph(3, [1, 10, 100], [(0, 1), (1, 2)])
    assert g.weight_of([0, 2]) == 101
    for ids in ([-1], [0.5], [3], [[0, 1]]):
        with pytest.raises(ValueError):
            g.weight_of(ids)
    with pytest.raises(ValueError):
        VertexSet.from_iterable(g, [-1, 0.7])
    assert VertexSet.from_iterable(g, (v for v in [2, 0, 2])) == VertexSet((0, 2), 101)


def test_build_k3():
    g = build_graph(3, [1, 1, 1], [(0, 1), (1, 2), (0, 2)])
    assert (g.n, g.m, g.max_degree) == (3, 3, 2)


def _random_edges():
    g = random_block_graph(60, 6, 10, seed=4)
    return g.n, g.edge_list()


# (n, edges) as the fixture builders pass them to build_graph
EDGE_LISTS = [
    (GOLDEN_N, [(a - 1, b - 1) for blk in GOLDEN_BLOCKS for a, b in itertools.combinations(blk, 2)]),
    (6, [(i, (i + 1) % 6) for i in range(6)]),
    (5, list(itertools.combinations(range(5), 2))),
    (4, [(i, i + 1) for i in range(3)]),
    (1, []),
    (0, []),
    _random_edges(),
]


@pytest.mark.parametrize("n, edges", EDGE_LISTS,
                         ids=["golden", "c6", "k5", "p4", "k1", "empty", "random60"])
def test_edges_are_the_sorted_input_set(n, edges):
    """``edges`` lists each input edge once as u < v, the rows sorted,
    whatever the order of the input and of each pair; ``m`` and
    ``max_degree`` count the input."""
    rng = random.Random(n)
    want = sorted((min(e), max(e)) for e in edges)
    degree = Counter(v for e in edges for v in e)
    for _ in range(5):
        shuffled = [e[::-1] if rng.random() < 0.5 else e for e in rng.sample(edges, len(edges))]
        g = build_graph(n, [1] * n, shuffled)
        got = g.edges
        assert got.dtype == np.int64 and got.shape == (len(edges), 2)
        assert (got[:, 0] < got[:, 1]).all()
        assert (np.lexsort((got[:, 1], got[:, 0])) == np.arange(len(edges))).all()
        assert got.tolist() == [list(e) for e in want]
        assert (g.m, g.max_degree) == (len(edges), max(degree.values(), default=0))


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [1, 1], [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [1, 1], [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        build_graph(2, [1, 1], [(0, 2)])


def test_build_rejects_vertex_id_beyond_int64():
    with pytest.raises(OutOfRange, match="64-bit"):
        build_graph(2, [1, 1], [(0, 10 ** 20)])


def test_build_rejects_negative_weight():
    with pytest.raises(WeightOverflow):
        build_graph(2, [1, -1], [(0, 1)])


def test_build_rejects_total_overflow():
    with pytest.raises(WeightOverflow):
        build_graph(2, [MAX_TOTAL_WEIGHT, 1], [(0, 1)])


def test_zero_weight_allowed():
    g = build_graph(2, [0, 0], [(0, 1)])
    assert int(g.weights.sum()) == 0


def test_is_connected():
    assert is_connected(build_graph(2, [1, 1], [(0, 1)]))
    assert not is_connected(build_graph(4, [1] * 4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, [1], []))
    assert is_connected(build_graph(0, [], []))


# (run length, queue width that starts the numpy steps) of search_order
SEARCH_MODES = pytest.mark.parametrize("run, wide", [(1, 1), (2 ** 62, 2 ** 62), (2, 3)],
                                       ids=["steps", "loop", "mixed"])


def _search_agrees(g, run, wide):
    """From every root, search_order with the run length and width given
    returns the one-vertex loop's order."""
    with mock.patch.multiple(pairdom.graph, _RUN=run, _WIDE=wide):
        for root in range(g.n):
            assert np.array_equal(search_order(g, root),
                                  reference_search.search_order(g, root)), (g.n, root)


@st.composite
def _any_graphs(draw):
    """Simple graphs on 1 to 20 vertices, connected or not."""
    n = draw(st.integers(1, 20))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return build_graph(n, [1] * n, sorted(edges))


@SEARCH_MODES
@settings(max_examples=150, deadline=None)
@given(g=_any_graphs())
def test_search_order_matches_the_loop(run, wide, g):
    _search_agrees(g, run, wide)


@SEARCH_MODES
def test_search_order_matches_the_loop_on_enumerated_block_graphs(run, wide):
    for g in enumerate_block_graphs(6):
        _search_agrees(g, run, wide)


def test_search_order_keeps_the_first_of_a_shared_neighbour():
    """In C4 and K_{2,3} two waiting vertices share an unseen neighbour:
    a step keeps it once, where the loop finds it first."""
    k23 = build_graph(5, [1] * 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        for g in (cycle_graph(4), k23):
            _search_agrees(g, 1, 1)
    assert unique.called


def _caterpillar(vertices, leaves):
    """A path of hubs, each followed by its ``leaves`` leaves, on at most
    ``vertices`` vertices."""
    hub = np.arange(vertices // (leaves + 1)) * (leaves + 1)
    n = hub.shape[0] * (leaves + 1)
    spine = np.column_stack((hub[:-1], hub[1:]))
    legs = np.column_stack((np.repeat(hub, leaves),
                            (hub[:, None] + np.arange(1, leaves + 1)).ravel()))
    return build_graph(n, np.ones(n, dtype=np.int64), np.concatenate((spine, legs)))


def _timed_search(g):
    t0 = time.perf_counter()
    search_order(g, 0)
    return time.perf_counter() - t0


def test_search_order_scales_linearly_on_wide_levels():
    """A caterpillar whose hubs have 2 * _WIDE leaves each keeps the queue
    wide, so the search runs one numpy step per hub.  A step that cost
    O(n) would make the search quadratic: 10x the vertices must take at
    most 20x the time, A5's bound."""
    leaves = 2 * pairdom.graph._WIDE
    small = _caterpillar(10 ** 5, leaves)
    assert np.array_equal(search_order(small, 0), reference_search.search_order(small, 0))
    t_small = min(_timed_search(small) for _ in range(3))
    big = _caterpillar(10 ** 6, leaves)
    t_big = min(_timed_search(big) for _ in range(2))
    assert t_big / t_small <= 20.0, (t_small, t_big)


def test_is_dominating_set():
    k3 = clique_graph(3)
    assert is_dominating_set(k3, {0})
    p3 = path_graph(3)
    assert not is_dominating_set(p3, {0})
    assert is_dominating_set(p3, {1})


def _dominates_by_loop(g, s):
    members = set(int(v) for v in s)
    return all(v in members or any(int(u) in members for u in g.neighbors(v))
               for v in range(g.n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_is_dominating_set_matches_loop(seed, data):
    g = random_block_graph(data.draw(st.integers(1, 6)), 4, 5, seed=seed)
    subset = data.draw(st.lists(st.integers(-2, g.n + 2), max_size=g.n + 2))
    assert is_dominating_set(g, subset) == _dominates_by_loop(g, subset)


def test_is_dominating_set_edge_cases():
    empty = build_graph(0, [], [])
    assert is_dominating_set(empty, []) and is_dominating_set(empty, [3])
    single = build_graph(1, [1], [])
    assert not is_dominating_set(single, [-1, 1]) and is_dominating_set(single, [0])


def test_has_perfect_matching_basics():
    k2 = build_graph(2, [1, 1], [(0, 1)])
    assert has_perfect_matching(k2, {0, 1})
    k3 = clique_graph(3)
    assert not has_perfect_matching(k3, {0, 1, 2})   # odd
    p4 = path_graph(4)
    assert has_perfect_matching(p4, {0, 1, 2, 3})
    assert has_perfect_matching(p4, set())           # empty matching
    # 0 and 2 are not adjacent in the path
    assert not has_perfect_matching(p4, {0, 2})


def test_has_perfect_matching_needs_backtracking():
    # the path 2-0-1-3: pairing the lowest vertex with its first neighbor
    # (0,1) strands 2 and 3; the leaf-first greedy pairs the leaves first
    g = build_graph(4, [1] * 4, [(0, 1), (0, 2), (1, 3)])
    assert has_perfect_matching(g, {0, 1, 2, 3})     # pairs (0,2),(1,3)


def test_has_perfect_matching_rejects_non_block_graph():
    with pytest.raises(NotBlockGraph):
        has_perfect_matching(cycle_graph(4), {0, 1, 2, 3})


def test_ids_outside_graph_are_not_matched():
    g = chain_of_triangles(2)                        # vertices 0..4
    for s in ({0, 1, 2, 5}, {-1, 0}, {-1, 5}, {-1, 3}):     # -1 is not vertex 4
        assert not has_perfect_matching(g, s)
        assert not is_paired_dominating_set(g, s)
    assert is_paired_dominating_set(g, {1, 2})


def test_is_paired_dominating_set():
    k2 = build_graph(2, [1, 1], [(0, 1)])
    assert is_paired_dominating_set(k2, {0, 1})
    p4 = path_graph(4)
    assert is_paired_dominating_set(p4, {1, 2})
    k3 = clique_graph(3)
    assert not is_paired_dominating_set(k3, {0})
    assert not is_paired_dominating_set(k3, set())
    empty = build_graph(0, [], [])
    assert is_paired_dominating_set(empty, set())


def _all_matchings_cover(g, members):
    """Exhaustive check: does some set of disjoint edges cover members?"""
    members = sorted(members)
    if not members:
        return True
    if len(members) % 2:
        return False
    v = members[0]
    rest = set(members[1:])
    for u in g.neighbors(v):
        u = int(u)
        if u in rest and _all_matchings_cover(g, rest - {u}):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), nb=st.integers(1, 8), ms=st.integers(2, 5),
       data=st.data())
def test_has_perfect_matching_matches_enumeration(seed, nb, ms, data):
    g = random_block_graph(nb, ms, 5, seed=seed)
    size = g.n if g.n <= 14 else 8
    subset = data.draw(st.sets(st.integers(0, size - 1), max_size=size))
    assert has_perfect_matching(g, subset) == _all_matchings_cover(g, subset)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_adjacency_symmetry(seed):
    g = random_block_graph(4, 4, 5, seed=seed)
    for v in range(g.n):
        for u in g.neighbors(v):
            assert v in set(int(x) for x in g.neighbors(int(u)))


def test_paired_dominating_sets_are_even_and_bounded():
    # every PDS has even size >= 2; with unit weights |S| >= n / max_degree
    for n in (2, 3, 4, 5):
        for edges in itertools.combinations(
                [(i, j) for i in range(n) for j in range(i + 1, n)], n - 1):
            try:
                g = build_graph(n, [1] * n, edges)
            except Exception:
                continue
            if not is_connected(g):
                continue
            for r in range(n + 1):
                for sub in itertools.combinations(range(n), r):
                    if is_paired_dominating_set(g, sub):
                        assert len(sub) % 2 == 0 and len(sub) >= 2
                        assert len(sub) >= n / g.max_degree


# ------------------------------------------------------- pairing certificate

def _matching(g, members):
    """Some perfect matching of the subgraph ``members`` induces, as a list
    of pairs, by exhaustive search; None if there is none."""
    members = sorted(members)
    if not members:
        return []
    v, rest = members[0], set(members[1:])
    for u in g.neighbors(v).tolist():
        if u in rest:
            found = _matching(g, rest - {u})
            if found is not None:
                return [(v, u)] + found
    return None


def _three_checks_agree(g, s, pairs):
    """The certificate check, the leaf-first greedy and the oracle's
    matching test give one answer for ``s``; returns it."""
    matched = _tables(g).has_pm(sum(1 << v for v in s))
    assert has_perfect_matching(g, s) == matched
    expect = is_dominating_set(g, s) and matched
    assert is_paired_dominating_set(g, s) == expect
    if pairs is not None:
        assert is_paired_dominating_set(g, s, pairs) == expect
    return expect


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), nb=st.integers(1, 6), ms=st.integers(2, 4),
       data=st.data())
def test_certificate_check_agrees_with_greedy_and_oracle(seed, nb, ms, data):
    g = random_block_graph(nb, ms, 20, seed=seed)
    root = data.draw(st.integers(0, g.n - 1))
    vset, _, pairs = solve(g, final_root=root, pairs=True)
    assert _three_checks_agree(g, vset.members, pairs)
    subset = data.draw(st.sets(st.integers(0, g.n - 1)))
    _three_checks_agree(g, subset, _matching(g, subset))


def test_certificate_check_on_enumerated_block_graphs():
    for g in enumerate_block_graphs(7):
        for root in range(g.n):
            vset, _, pairs = solve(g, final_root=root, pairs=True)
            assert _three_checks_agree(g, vset.members, pairs)


def _corruptions(g, members, pairs):
    """Each way to spoil a valid certificate, by name: the pairs after it."""
    member = np.zeros(g.n, dtype=bool)
    member[list(members)] = True
    adjacent = {tuple(e) for e in g.edge_list()}
    adjacent |= {(v, u) for u, v in adjacent}
    pairs = pairs.tolist()
    (a, b), (c, d) = next((p, q) for p, q in itertools.combinations(pairs, 2)
                          if (p[0], q[0]) not in adjacent)
    rest = [p for p in pairs if p not in ([a, b], [c, d])]
    outside = next(list(e) for e in g.edge_list() if not member[list(e)].any())
    return {"not an edge": rest + [[a, c], [b, d]],
            "repeated vertex": pairs + [pairs[0]],
            "member left out": pairs[1:],
            "non-member paired": pairs + [outside],
            "id past the last vertex": pairs + [[g.n, g.n + 1]],
            "negative id": pairs[1:] + [[pairs[0][0], -1], [pairs[0][1], -2]]}


@pytest.mark.parametrize("g", [golden_graph(), random_block_graph(300, 5, 50, seed=3)],
                         ids=["golden", "random300"])
def test_corrupted_certificates_are_rejected(g):
    vset, _, pairs = solve(g, pairs=True)
    assert is_paired_dominating_set(g, vset, pairs)
    bad = _corruptions(g, vset.members, pairs)
    for name, spoiled in bad.items():
        assert not is_paired_dominating_set(g, vset, spoiled), name
    # the non-member pair is fine once its vertices join the set
    assert is_paired_dominating_set(g, vset.members + tuple(bad["non-member paired"][-1]),
                                    bad["non-member paired"])


def test_certificate_check_on_a_graph_that_is_not_a_block_graph():
    c4 = cycle_graph(4)
    assert is_paired_dominating_set(c4, {0, 1, 2, 3}, [(0, 1), (3, 2)])
    assert is_paired_dominating_set(c4, {0, 1}, np.array([[1, 0]]))
    assert not is_paired_dominating_set(c4, {0, 1, 2, 3}, [(0, 2), (1, 3)])
    assert not is_paired_dominating_set(c4, {0, 2}, [(0, 2)])
    two = build_graph(2, [1, 1], [])              # no edges to search
    assert not is_paired_dominating_set(two, {0, 1}, [(0, 1)])
    empty = build_graph(0, [], [])
    assert is_paired_dominating_set(empty, set(), [])
    assert not is_paired_dominating_set(clique_graph(3), set(), [])


def test_certificate_check_refuses_pairs_not_of_two():
    g = path_graph(6)
    assert is_paired_dominating_set(g, range(6), [[0, 1], [2, 3], [4, 5]])
    assert not is_paired_dominating_set(g, range(6), [[0, 1, 2], [3, 4, 5]])
    assert not is_paired_dominating_set(g, range(6), [0, 1, 2, 3, 4, 5])
    assert not is_paired_dominating_set(g, range(6), np.arange(6).reshape(1, 3, 2))


def test_certificate_check_refuses_ids_not_integers():
    """A float id is not truncated, a ragged pairing raises nothing and an
    id past int64 no overflow: each certificate is refused."""
    g = path_graph(3)
    assert is_paired_dominating_set(g, [0, 1], [[0, 1]])
    assert not is_paired_dominating_set(g, [0, 1], np.array([[0.9, 1.2]]))
    assert not is_paired_dominating_set(g, [0.5, 1], [[0, 1]])
    assert not is_paired_dominating_set(g, [0, 1], [[0, 1], [2]])
    assert not is_paired_dominating_set(g, [0, 2 ** 64], [[0, 2 ** 64]])


def test_id_checks_refuse_ids_not_integers():
    """Without a certificate too, a float id is not truncated and an id
    past int64 raises no overflow: the set is refused."""
    g = path_graph(3)
    assert is_dominating_set(g, [0, 1]) and has_perfect_matching(g, [0, 1])
    assert not is_dominating_set(g, [0.5, 1])
    assert not has_perfect_matching(g, [0.5, 1.7])
    assert not is_paired_dominating_set(g, [0.5, 1])
    assert not is_paired_dominating_set(g, [0, 2 ** 64])
    assert not is_dominating_set(g, [0, 1, 2 ** 64])
    assert is_dominating_set(g, np.array([1])) and is_dominating_set(g, (1,))


def test_certificate_check_needs_no_decomposition(monkeypatch):
    g = random_block_graph(300, 5, 50, seed=4)
    vset, _, pairs = solve(g, pairs=True)

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate check decomposed the graph")

    monkeypatch.setattr(pairdom.rooted, "root_blocks", refuse)
    monkeypatch.setattr(pairdom.arraydp, "TreePlan", refuse)
    assert is_paired_dominating_set(g, vset, pairs)
    assert not is_paired_dominating_set(g, vset, pairs[1:])
    with pytest.raises(AssertionError):
        is_paired_dominating_set(g, vset)         # the greedy decomposes


def test_greedy_matching_on_every_subset_of_enumerated_block_graphs():
    """The leaf-first greedy finds a matching exactly when the oracle's
    search does, and what it finds pairs off exactly the subset along
    edges, so the certificate check accepts it."""
    for g in enumerate_block_graphs(6):
        has_pm = _tables(g).has_pm
        for r in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), r):
                pairs = pairdom.graph._leaf_first_pairs(g, np.array(sub, dtype=np.int64))
                assert (pairs is not None) == has_pm(sum(1 << v for v in sub))
                if pairs is not None:
                    assert sorted(pairs.ravel().tolist()) == list(sub)
                    assert is_paired_dominating_set(g, sub, pairs) == is_dominating_set(g, sub)


def test_check_without_pairs_decides_by_the_certificate(monkeypatch):
    """Without pairs, the greedy's matching goes through the certificate
    check: a pairing along edges is accepted even on C4, which the greedy
    itself would refuse, and one across non-edges is refused.  Domination
    is checked first, so a set that fails it needs no search."""
    c6 = cycle_graph(6)
    assert not is_paired_dominating_set(c6, {0, 1})
    with pytest.raises(NotBlockGraph):
        is_paired_dominating_set(c6, {0, 1, 3, 4})
    c4 = cycle_graph(4)
    for found, expect in [([(0, 1), (3, 2)], True), ([(0, 2), (1, 3)], False)]:
        monkeypatch.setattr(pairdom.graph, "_leaf_first_pairs", lambda g, ids: found)
        assert is_paired_dominating_set(c4, {0, 1, 2, 3}) is expect
    monkeypatch.setattr(pairdom.graph, "_leaf_first_pairs", lambda g, ids: None)
    assert not is_paired_dominating_set(c4, {0, 1, 2, 3})
