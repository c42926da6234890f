#!/usr/bin/env python3
"""Long-running differential soak: solver vs brute force vs state oracle.

Like `pairdom verify`, it compares each answer's weight with brute force
and checks the pairing certificate that comes with it.  It is heavier:
every instance is also swept from two roots, its first and its last
vertex, and each vertex's four state weights are checked against the
brute-force state oracle on the subgraph below that vertex, so a
disagreement names the root, vertex and state where it starts.

Usage:
  python3 scripts/soak_verify.py --instances 2000
"""

import argparse
import sys

from pairdom import (StateKind, build_graph, is_paired_dominating_set,
                     oracle_min_pds, oracle_state, random_block_graph, solve)
from pairdom.arraydp import TreePlan
from pairdom.rooted import root_blocks

FAMILIES = [(4, 3), (3, 3), (2, 4), (8, 2), (9, 2), (5, 2), (2, 3), (6, 2)]


def state_problems(g, root: int) -> list:
    """Vertex states of the sweep from ``root`` that differ from the oracle
    on the subgraph below the vertex (it and its descendants)."""
    rb = root_blocks(g, root)
    val, _ = TreePlan(rb).sweep(g.weights)
    children = [[] for _ in range(g.n)]
    for v in rb.order[1:].tolist():
        children[rb.parent[v]].append(v)
    problems = []
    for v in range(g.n):
        below = [v]
        for u in below:             # grows as it goes: v's whole subtree
            below.extend(children[u])
        index = {u: i for i, u in enumerate(below)}
        edges = [(i, index[x]) for i, u in enumerate(below)
                 for x in g.neighbors(u).tolist() if index.get(x, -1) > i]
        sub = build_graph(len(below), g.weights[below], edges)
        for kind in StateKind:
            expect = oracle_state(sub, 0, kind)
            if expect != val[kind, v]:
                problems.append(f"root {root}, vertex {v}, state {kind.name}: "
                                f"stored {int(val[kind, v])}, oracle {expect}")
    return problems


def check_instance(seed: int) -> list:
    nb, ms = FAMILIES[seed % len(FAMILIES)]
    g = random_block_graph(nb, ms, 100, seed=seed)
    vset, weight, pairs = solve(g, pairs=True)
    problems = []
    ref = oracle_min_pds(g)
    if ref is None or ref[1] != weight:
        problems.append(f"weight {weight} != oracle {ref and ref[1]}")
    if not is_paired_dominating_set(g, vset, pairs):
        problems.append("output is not a paired-dominating set with the pairing given")
    for root in (0, g.n - 1):
        problems += state_problems(g, root)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.instances < 1 or args.seed < 0:
        parser.error("--instances must be at least 1 and --seed at least 0")
    bad = 0
    for i in range(args.instances):
        seed = args.seed + i
        problems = check_instance(seed)
        if problems:
            bad += 1
            print(f"seed {seed}:")
            for p in problems:
                print(f"  {p}")
        if (i + 1) % 200 == 0:
            print(f"... {i + 1}/{args.instances} checked, {bad} bad")
    print(f"done: {args.instances} instances, {bad} with mismatches")
    return 3 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
