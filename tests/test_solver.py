"""Every state of every vertex against brute force, and end-to-end solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairdom.solver
from pairdom import (INFEASIBLE, Disconnected, NoPairedDominatingSet,
                     NotBlockGraph, StateKind, build_graph,
                     enumerate_block_graphs, is_paired_dominating_set,
                     oracle_min_pds, oracle_state, random_block_graph, solve)
from pairdom.arraydp import TreePlan
from pairdom.rooted import root_blocks

from conftest import (GOLDEN_WEIGHT, check_vertex_states, clique_graph,
                      cycle_graph, path_graph, star_graph, sweep)

# ----------------------------------------------------------- vertex states

HAND_BUILT = {
    "K2": build_graph(2, [5, 3], [(0, 1)]),
    "K3-weighted": build_graph(3, [1, 2, 3], [(0, 1), (1, 2), (0, 2)]),
    "P3": path_graph(3),
    "star": star_graph(3),
    # triangle 0-1-2 with a two-edge path hanging off 1 and off 2: leaving
    # 0 undominated forces each path's root-avoiding state
    "spider": build_graph(7, [1] * 7, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4),
                                       (2, 5), (5, 6)]),
    # triangle r(0), x(3), y(6) with a pendant path r-s1-s2, a triangle
    # below x whose P' beats its P, and a path below y that is cheapest
    # left undominated: P' at r (16) takes x and y at their P', neither at
    # its cheapest state
    "T8": build_graph(10, [1, 1, 1, 8, 5, 5, 50, 3, 1, 2],
                      [(0, 1), (1, 2), (0, 3), (0, 6), (3, 6), (3, 4), (3, 5),
                       (4, 5), (6, 7), (7, 8), (8, 9)]),
    # K4 with a pendant leaf on three corners and a pendant path on the
    # fourth: rooted at 0 or on the path, the K4 has three children whose
    # cheapest state is D
    "three-D-children": build_graph(9, [1] * 9,
                                    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                     (1, 4), (2, 5), (3, 6), (0, 7), (7, 8)]),
}


@pytest.mark.parametrize("name", [*HAND_BUILT, "enumerated"])
def test_vertex_states_match_oracle(name):
    """At every root, each vertex's four weights equal the brute-force
    optimum of its state on the subgraph below it; "enumerated" runs every
    connected block graph on up to 7 vertices."""
    graphs = enumerate_block_graphs(7) if name == "enumerated" else [HAND_BUILT[name]]
    for g in graphs:
        for root in range(g.n):
            check_vertex_states(g, root)


# ------------------------------------------------- named states, by hand

def state(g, root, v, kind):
    """The sweep's weight of ``kind`` at ``v``, rooted at ``root``."""
    return int(sweep(g, root)[1][kind, v])


def test_init_states():
    # a leaf keeps its initial weights: D its own weight, P-bar 0, P and
    # P' infeasible (nothing below to pair with or to dominate it)
    g = star_graph(3, [1, 7, 0, 4])
    _, val = sweep(g, 0)
    for leaf in (1, 2, 3):
        assert val[:, leaf].tolist() == [INFEASIBLE, 0, INFEASIBLE, int(g.weights[leaf])]
    assert state(build_graph(2, [7, 0], [(0, 1)]), 0, 1, StateKind.D) == 0


def test_initial_reconstruction():
    g = build_graph(2, [7, 3], [(0, 1)])
    plan = TreePlan(root_blocks(g, 0))
    states = plan.reconstruct(*plan.sweep(g.weights), 0)
    assert states.tolist() == [StateKind.P, StateKind.D]


def test_merge_d_k2():
    g = HAND_BUILT["K2"]
    assert state(g, 0, 0, StateKind.D) == 5 == oracle_state(g, 0, StateKind.D)


def test_merge_d_k3():
    g = clique_graph(3)
    assert state(g, 0, 0, StateKind.D) == 1 == oracle_state(g, 0, StateKind.D)


def test_merge_d_even_r_keeps_base():
    # triangle 0-1-2 with a pendant of weight 4 on 1 and on 2: both
    # children are cheapest at D (1, against 5 at P) and pair with each
    # other, so D at the root adds just their weights
    g = build_graph(5, [4, 1, 1, 4, 4], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    _, val = sweep(g, 0)
    assert val[[StateKind.D, StateKind.P], 1].tolist() == [1, 5]
    assert val[StateKind.D, 0] == 4 + 1 + 1 == oracle_state(g, 0, StateKind.D)


def test_merge_d_odd_r_repairs():
    # path 0-1-2: the one child is cheapest at D (1) but has nobody to
    # pair with, so D at the root takes it at P (1 + 2)
    g = build_graph(3, [4, 1, 2], [(0, 1), (1, 2)])
    _, val = sweep(g, 0)
    assert val[[StateKind.D, StateKind.P], 1].tolist() == [1, 3]
    assert val[StateKind.D, 0] == 4 + 1 + 2 == oracle_state(g, 0, StateKind.D)


def test_merge_p_k2():
    g = HAND_BUILT["K2"]
    assert state(g, 0, 0, StateKind.P) == 8 == oracle_state(g, 0, StateKind.P)


def test_merge_p_path3_second_merge():
    g = path_graph(3)
    for root in range(3):
        assert state(g, root, root, StateKind.P) == 2 == oracle_state(g, root, StateKind.P)


def test_merge_p_r_odd_base_feasible():
    # paw: triangle 0-1-2 plus pendant edge 2-3; the pendant makes 2's
    # cheapest state D, and the root pairs across the triangle
    g = build_graph(4, [1] * 4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert state(g, 0, 2, StateKind.D) == 1
    assert state(g, 0, 0, StateKind.P) == 2 == oracle_state(g, 0, StateKind.P)


def test_merge_pprime_path3():
    g = path_graph(3)
    assert state(g, 0, 0, StateKind.P_PRIME) == 2 == oracle_state(g, 0, StateKind.P_PRIME)


def test_merge_pprime_k2_infeasible():
    g = build_graph(2, [1, 1], [(0, 1)])
    for root in range(2):
        assert (state(g, root, root, StateKind.P_PRIME) == INFEASIBLE
                == oracle_state(g, root, StateKind.P_PRIME))


def test_merge_pbar():
    # a leaf child has no root-avoiding state, so neither has K2's root
    g = build_graph(2, [1, 1], [(0, 1)])
    assert state(g, 0, 0, StateKind.P_BAR) == INFEASIBLE
    # otherwise P-bar is the sum of the children's P'
    for seed in range(20):
        g = random_block_graph(4, 4, 9, seed=seed)
        rb, val = sweep(g, 0)
        total = [0] * g.n
        for v in range(1, g.n):
            total[rb.parent[v]] += int(val[StateKind.P_PRIME, v])
        assert val[StateKind.P_BAR].tolist() == [min(t, INFEASIBLE) for t in total], seed
    legs = build_graph(7, [1] * 7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert state(legs, 0, 0, StateKind.P_BAR) == 2 + 2 == oracle_state(legs, 0, StateKind.P_BAR)


def test_pbar_oracle_on_spider():
    g = HAND_BUILT["spider"]
    assert state(g, 0, 0, StateKind.P_BAR) == 4 == oracle_state(g, 0, StateKind.P_BAR)


def test_three_d_children_cases():
    g = HAND_BUILT["three-D-children"]
    _, val = sweep(g, 0)
    for corner in (1, 2, 3):
        assert int(val[:, corner].argmin()) == StateKind.D
    for root in range(g.n):
        check_vertex_states(g, root)
    assert solve(g)[1] == oracle_min_pds(g)[1]


def test_engineered_t8_winner():
    g = HAND_BUILT["T8"]
    rb, val = sweep(g, 0)
    assert rb.parent[3] == rb.parent[6] == 0
    order = [StateKind.D, StateKind.P, StateKind.P_PRIME, StateKind.P_BAR]
    assert val[order, 3].tolist() == [8, 13, 10, INFEASIBLE]
    assert val[order, 6].tolist() == [53, 56, 4, 3]
    assert val[StateKind.P_PRIME, 0] == oracle_state(g, 0, StateKind.P_PRIME) == 16
    assert solve(g)[1] == oracle_min_pds(g)[1]


# --------------------------------------------------------------------- solve

def test_solve_k2():
    g = build_graph(2, [5, 3], [(0, 1)])
    vset, w = solve(g)
    assert (vset.members, w) == ((0, 1), 8)


def test_solve_k3_weighted():
    g = build_graph(3, [1, 2, 3], [(0, 1), (1, 2), (0, 2)])
    vset, w = solve(g)
    assert w == 3 and vset.members == (0, 1)


def test_solve_star():
    g = star_graph(3)
    vset, w = solve(g)
    assert w == 2
    assert 0 in vset.members and len(vset) == 2


def test_solve_golden_matches_oracle(golden):
    ref = oracle_min_pds(golden)
    vset, w = solve(golden)
    assert w == ref[1] == GOLDEN_WEIGHT
    assert is_paired_dominating_set(golden, vset)


def test_solve_builds_pairs_only_when_asked(monkeypatch):
    g = random_block_graph(40, 4, 20, seed=79)
    vset, w, pairs = solve(g, pairs=True)
    assert pairs.dtype == np.int64 and pairs.shape == (len(vset) // 2, 2)
    assert sorted(pairs.ravel().tolist()) == list(vset.members)
    assert is_paired_dominating_set(g, vset, pairs)

    def refuse(*args):
        raise AssertionError("pairs built unasked")

    monkeypatch.setattr(pairdom.solver, "_pairs", refuse)
    assert solve(g) == (vset, w)


def test_solve_errors():
    with pytest.raises(NoPairedDominatingSet):
        solve(build_graph(1, [1], []))
    with pytest.raises(Disconnected):
        solve(build_graph(4, [1] * 4, [(0, 1), (2, 3)]))
    with pytest.raises(NotBlockGraph):
        solve(cycle_graph(4))


def test_solve_deterministic():
    g = random_block_graph(5, 4, 20, seed=77)
    a = solve(g)
    b = solve(g)
    assert a[0].members == b[0].members and a[1] == b[1]


def test_solve_weight_invariant_under_edge_permutation():
    import numpy as np
    g = random_block_graph(5, 4, 20, seed=78)
    edges = g.edge_list()
    rng = np.random.default_rng(5)
    base = solve(g)[1]
    for _ in range(3):
        perm = [edges[i] for i in rng.permutation(len(edges))]
        g2 = build_graph(g.n, [int(w) for w in g.weights], perm)
        assert solve(g2)[1] == base


def test_solve_reconstruction_consistency():
    for g in (HAND_BUILT["K2"], HAND_BUILT["T8"]):
        for root in range(g.n):
            _, val = sweep(g, root)
            vset, w = solve(g, final_root=root)
            assert w == vset.total_weight == min(val[StateKind.P, root],
                                                 val[StateKind.P_PRIME, root])
            assert solve(g, final_root=root)[0].members == vset.members


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), nb=st.integers(1, 6),
       ms=st.integers(2, 4), wmax=st.integers(1, 50))
def test_solve_matches_oracle_random(seed, nb, ms, wmax):
    g = random_block_graph(nb, ms, wmax, seed=seed)
    if g.n > 14:
        return
    ref = oracle_min_pds(g)
    vset, w = solve(g)
    assert ref is not None and ref[1] == w
    assert is_paired_dominating_set(g, vset)
    assert vset.total_weight == w
    assert len(vset) % 2 == 0
