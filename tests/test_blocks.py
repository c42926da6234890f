"""The block-cut tree view of the rooted decomposition, block-graph
recognition, and the elimination order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdom import (Disconnected, NotBlockGraph, build_graph, find_blocks,
                     first_non_clique_block, is_block_graph,
                     random_block_graph, to_dot)

from conftest import (GOLDEN_PENDANT_SETS, assert_valid_elimination,
                      clique_graph, cycle_graph, path_graph)
from tarjan import check_witness


def _block_sets(bct):
    return {frozenset(int(v) for v in bct.block_vertices(b))
            for b in range(bct.num_blocks)}


def test_k3_single_block():
    bct = find_blocks(clique_graph(3))
    assert bct.num_blocks == 1
    assert bct.cut_vertices == ()
    assert _block_sets(bct) == {frozenset({0, 1, 2})}


def test_path_two_blocks():
    bct = find_blocks(path_graph(3))
    assert bct.num_blocks == 2
    assert bct.cut_vertices == (1,)
    assert _block_sets(bct) == {frozenset({0, 1}), frozenset({1, 2})}


def test_single_vertex():
    bct = find_blocks(build_graph(1, [1], []))
    assert bct.num_blocks == 1
    assert bct.cut_vertices == ()


def test_disconnected_rejected():
    g = build_graph(4, [1] * 4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected) as got:
        find_blocks(g)
    check_witness(g, got.value)
    with pytest.raises(Disconnected):
        find_blocks(build_graph(0, [], []))


def test_golden_decomposition(golden):
    bct = find_blocks(golden)
    assert bct.num_blocks == 8
    assert len(bct.cut_vertices) == 6
    pendant = {frozenset(int(v) + 1 for v in bct.block_vertices(b))
               for b in bct.pendant_blocks()}
    assert pendant == GOLDEN_PENDANT_SETS
    # counting identity over the blocks
    assert int(bct.block_ptr[-1]) == golden.n + bct.num_blocks - 1
    assert_valid_elimination(golden, bct)


def test_is_block_graph(golden):
    assert is_block_graph(golden)
    assert not is_block_graph(cycle_graph(4))
    # block graphs are connected
    assert not is_block_graph(build_graph(4, [1] * 4, [(0, 1), (2, 3)]))
    assert not is_block_graph(build_graph(0, [], []))
    # any tree is a block graph (every block is an edge)
    tree = build_graph(6, [1] * 6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert is_block_graph(tree)
    assert first_non_clique_block(find_blocks(golden)) is None
    with pytest.raises(NotBlockGraph) as got:
        find_blocks(cycle_graph(4))
    check_witness(cycle_graph(4), got.value)


def test_tree_blocks_are_edges():
    tree = build_graph(5, [1] * 5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    bct = find_blocks(tree)
    assert bct.num_blocks == tree.m
    assert all(bct.block_size(b) == 2 for b in range(bct.num_blocks))


def test_elimination_single_block():
    bct = find_blocks(clique_graph(3))
    assert bct.elimination_order.tolist() == [0]


def test_elimination_two_block_path():
    g = path_graph(3)
    bct = find_blocks(g)
    # blocks are numbered bottom-up, so the order is the block numbering
    assert bct.elimination_order.tolist() == [0, 1]
    assert bct.block_roots.tolist() == [1, -1]
    assert_valid_elimination(g, bct)


def test_partition_independent_of_edge_order():
    g1 = random_block_graph(5, 4, 5, seed=11)
    edges = g1.edge_list()
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = [edges[i] for i in rng.permutation(len(edges))]
        flipped = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(perm)]
        g2 = build_graph(g1.n, [int(w) for w in g1.weights], flipped)
        assert _block_sets(find_blocks(g1)) == _block_sets(find_blocks(g2))


def test_find_blocks_idempotent():
    g = random_block_graph(4, 3, 5, seed=3)
    a = find_blocks(g)
    b = find_blocks(g)
    assert _block_sets(a) == _block_sets(b)
    assert list(a.elimination_order) == list(b.elimination_order)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6), nb=st.integers(1, 8))
def test_counting_identity_and_valid_order(seed, nb):
    g = random_block_graph(nb, 4, 5, seed=seed)
    bct = find_blocks(g)
    sizes = [bct.block_size(b) for b in range(bct.num_blocks)]
    assert sum(sizes) == g.n + bct.num_blocks - 1
    assert bct.num_blocks <= max(1, g.n - 1)
    assert_valid_elimination(g, bct)


def test_dot_export(golden):
    dot = to_dot(find_blocks(golden))
    assert dot.startswith("graph")
    assert dot.count("shape=box") == 8
    assert dot.count("shape=circle") == 6
