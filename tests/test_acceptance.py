"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  A1/A3/A6/A7 share two corpora built once per session: the
full isomorphism-free enumeration of connected block graphs on up to 7
vertices (unit weights) and 5000 seeded random weighted instances with
n <= 12 and weights in 1..100.
"""

import time

import numpy as np
import pytest

from pairdom import (StateKind, chain_of_triangles, enumerate_block_graphs,
                     find_blocks, is_paired_dominating_set, oracle_min_pds,
                     random_block_graph, solve)

from conftest import (GOLDEN_PENDANT_SETS, GOLDEN_WEIGHT, check_vertex_states,
                      golden_graph, pendant_blocks, sweep)

RANDOM_COUNT = 5000
RANDOM_FAMILIES = [(5, 3), (3, 4), (2, 5), (4, 3), (11, 2), (1, 6), (6, 2), (2, 6)]
A2_COUNT = 1000
A2_FAMILIES = [(4, 3), (3, 3), (2, 4), (8, 2), (9, 2), (5, 2), (2, 3), (6, 2)]


def _random_instance(seed):
    nb, ms = RANDOM_FAMILIES[seed % len(RANDOM_FAMILIES)]
    return random_block_graph(nb, ms, 100, seed=seed)


@pytest.fixture(scope="session")
def enum_corpus():
    return list(enumerate_block_graphs(7))


@pytest.fixture(scope="session")
def solved_corpus(enum_corpus):
    """Solve + oracle over both corpora; returns per-instance records."""
    records = []
    for g in enum_corpus:
        records.append(_solve_record(g, kind="enum"))
    for seed in range(RANDOM_COUNT):
        records.append(_solve_record(_random_instance(seed), kind="random", seed=seed))
    return records


def _solve_record(g, kind, seed=None):
    bct = find_blocks(g)
    vset, weight, pairs = solve(g, pairs=True)
    ref = oracle_min_pds(g)
    return {
        "kind": kind,
        "seed": seed,
        "n": g.n,
        "x": bct.num_blocks,
        "sum_blocks": int(bct.block_ptr[-1]),
        "max_degree": g.max_degree,
        "unit": bool(np.all(np.asarray(g.weights) == 1)),
        "weight": weight,
        "oracle_weight": None if ref is None else ref[1],
        "set_size": len(vset),
        "set_weight": vset.total_weight,
        "valid": is_paired_dominating_set(g, vset, pairs),
    }


def test_a1_end_to_end_exactness(solved_corpus):
    mismatches = [r for r in solved_corpus
                  if r["oracle_weight"] != r["weight"] or not r["valid"]]
    assert not mismatches, mismatches[:5]
    n_enum = sum(1 for r in solved_corpus if r["kind"] == "enum")
    n_rand = len(solved_corpus) - n_enum
    assert n_rand >= 5000
    print(f"\nA1 end-to-end exactness: PASS "
          f"({n_enum} enumerated + {n_rand} random instances, exact match)")


def test_a2_per_state_exactness():
    checked = 0
    for seed in range(A2_COUNT):
        nb, ms = A2_FAMILIES[seed % len(A2_FAMILIES)]
        g = random_block_graph(nb, ms, 100, seed=seed)
        assert g.n <= 10
        for root in (0, g.n - 1):
            checked += check_vertex_states(g, root, where=f"seed {seed}, ")
    assert checked >= 19500
    print(f"\nA2 per-state exactness: PASS "
          f"({A2_COUNT} instances, {checked} state checks, exact match)")


def test_a3_parity_and_validity(solved_corpus, enum_corpus):
    for r in solved_corpus:
        assert r["set_size"] % 2 == 0, r
        assert r["set_weight"] == r["weight"], r
        if r["unit"]:
            assert r["set_size"] >= r["n"] / r["max_degree"], r
    # the set rebuilt from every root weighs the sweep's optimum there, is
    # the same set on a second call, and its pairing passes the certificate
    # check; the leaf-first greedy agrees
    for g in enum_corpus:
        for root in range(g.n):
            _, val = sweep(g, root)
            vset, weight, pairs = solve(g, final_root=root, pairs=True)
            assert weight == vset.total_weight == min(val[StateKind.P, root],
                                                      val[StateKind.P_PRIME, root])
            assert solve(g, final_root=root)[0] == vset
            assert is_paired_dominating_set(g, vset, pairs)
            assert is_paired_dominating_set(g, vset)
    print(f"\nA3 parity and validity invariants: PASS "
          f"({len(solved_corpus)} instances)")


def test_a4_golden_instance():
    g = golden_graph()
    bct = find_blocks(g)
    assert bct.num_blocks == 8
    assert len(bct.cut_vertices) == 6
    pendant = {frozenset(int(v) + 1 for v in bct.block_vertices(b))
               for b in pendant_blocks(bct)}
    assert pendant == GOLDEN_PENDANT_SETS
    vset, weight = solve(g)
    ref = oracle_min_pds(g)
    assert weight == ref[1] == GOLDEN_WEIGHT
    assert is_paired_dominating_set(g, vset)
    print(f"\nA4 golden 15-vertex instance: PASS "
          f"(8 blocks, 6 cut vertices, optimum {weight})")


def test_a5_linear_scaling():
    solve(chain_of_triangles(4))          # one-time costs of a first call stay untimed
    g_small = chain_of_triangles(10 ** 5)
    t_small, s_small = min((_timed_solve(g_small) for _ in range(3)), key=_seconds)
    g_big = chain_of_triangles(10 ** 6)
    t_big, s_big = min((_timed_solve(g_big) for _ in range(2)), key=_seconds)
    ratio = t_big / t_small
    assert t_big < 10.0, f"10^6 blocks took {t_big:.2f}s ({_stages(s_big)})"
    assert 5.0 <= ratio <= 20.0, (f"scaling ratio {ratio:.2f} outside [5, 20] "
                                  f"(10^5: {_stages(s_small)}; 10^6: {_stages(s_big)})")
    print(f"\nA5 linear scaling: PASS "
          f"(10^5: {t_small:.3f}s, 10^6: {t_big:.3f}s, ratio {ratio:.1f}; "
          f"10^6 {_stages(s_big)})")


def _timed_solve(g):
    """Seconds of one solve, and its per-stage seconds."""
    stats = {}
    t0 = time.perf_counter()
    solve(g, stats=stats)
    return time.perf_counter() - t0, stats


def _seconds(timed):
    return timed[0]


def _stages(stats):
    return ", ".join(f"{name} {stats[name + '_s']:.2f}s"
                     for name in ("decompose", "plan", "sweep", "reconstruct"))


def test_a6_structure_identities(solved_corpus):
    for r in solved_corpus:
        assert r["sum_blocks"] == r["n"] + r["x"] - 1, r
        assert r["x"] <= r["n"] - 1, r
    for nb in (1, 2, 17):
        g = chain_of_triangles(nb)
        bct = find_blocks(g)
        assert int(bct.block_ptr[-1]) == g.n + bct.num_blocks - 1
    print(f"\nA6 structure identities: PASS ({len(solved_corpus)} instances)")


def test_a7_final_root_independence(enum_corpus):
    checked = 0
    for g in enum_corpus:
        base = solve(g)[1]
        bct = find_blocks(g)
        final_block = int(bct.elimination_order[-1])
        for v in bct.block_vertices(final_block):
            assert solve(g, final_root=int(v))[1] == base
            checked += 1
    print(f"\nA7 final-root independence: PASS ({checked} re-solves)")
