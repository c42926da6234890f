"""Seeded benchmark inputs, made by the benchmark's own code.

Every instance is a block graph built by attach-a-clique: one clique, then
each further clique glued onto one existing vertex.  The procedure and its
random stream (numpy PCG64) live here rather than in ``pairdom.generator``,
so a change to the package cannot change the inputs it is measured on.

An instance keeps its construction, which is also its block decomposition:
block ``b`` is the clique made of ``glue[b]`` (-1 for block 0) and the new
vertices ``start[b] .. start[b] + new[b] - 1``.  The answer checker relies on
this to test domination and perfect matching in linear time.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("chain", "bushy", "cliques", "checked")

CHAIN_BLOCKS = 10_000
BUSHY_BLOCKS = 10_000
CLIQUES_BLOCKS = 2_000
CHECKED_INSTANCES = 1000
CHECKED_MAX_BLOCKS = 100


@dataclass(frozen=True, eq=False)
class Instance:
    """A block graph as its attach-a-clique construction (0-based ids)."""

    weights: np.ndarray     # int64[n]
    glue: np.ndarray        # int64[blocks], -1 for block 0
    start: np.ndarray       # int64[blocks], first vertex new in the block
    new: np.ndarray         # int64[blocks], number of vertices new in the block

    @property
    def n(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_blocks(self) -> int:
        return int(self.glue.shape[0])

    @property
    def m(self) -> int:
        k = self.new + (self.glue >= 0)
        return int((k * (k - 1) // 2).sum())

    def owner(self) -> np.ndarray:
        """Block in which each vertex is new."""
        return np.repeat(np.arange(self.num_blocks, dtype=np.int64), self.new)

    def block_vertices(self, b: int) -> list:
        s = int(self.start[b])
        own = list(range(s, s + int(self.new[b])))
        g = int(self.glue[b])
        return own if g < 0 else [g] + own

    def structure(self) -> dict:
        """Decomposition counts: blocks, cut vertices, largest block, and
        block-cut-tree depth in blocks from block 0."""
        glued = self.glue >= 0
        owner = self.owner()
        depth = np.ones(self.num_blocks, dtype=np.int64)
        for b in np.nonzero(glued)[0]:
            depth[b] = depth[owner[self.glue[b]]] + 1
        return {"blocks": self.num_blocks,
                "cut_vertices": int(np.unique(self.glue[glued]).size),
                "max_size": int((self.new + glued).max()),
                "tree_depth": int(depth.max())}

    def edges(self) -> list:
        out = []
        for b in range(self.num_blocks):
            out.extend(itertools.combinations(self.block_vertices(b), 2))
        return out

    def to_text(self) -> str:
        """The ``.pd`` file form: header, weight lines, edge lines, 1-based."""
        lines = [f"p pdom {self.n} {self.m}"]
        lines.extend(f"w {v + 1} {int(w)}" for v, w in enumerate(self.weights))
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def chain_of_triangles(n_blocks: int) -> Instance:
    """Triangles glued end to end at cut vertices, unit weights."""
    b = np.arange(n_blocks, dtype=np.int64)
    glue = np.where(b == 0, -1, 2 * b)
    start = np.where(b == 0, 0, 2 * b + 1)
    new = np.where(b == 0, 3, 2)
    return Instance(np.ones(2 * n_blocks + 1, dtype=np.int64), glue, start, new)


def chain_optimum(n_blocks: int) -> int:
    """Minimum paired-domination weight of a unit-weight triangle chain."""
    return 2 * math.ceil(n_blocks / 3)


def attach_a_clique(rng: np.random.Generator, n_blocks: int, max_size: int,
                    weight_max: int) -> Instance:
    """Clique sizes uniform in [2, max_size], glue vertex uniform over the
    vertices so far, weights uniform in [1, weight_max]."""
    size = int(rng.integers(2, max_size + 1))
    glue, start, new = [-1], [0], [size]
    n = size
    for _ in range(n_blocks - 1):
        glue.append(int(rng.integers(0, n)))
        size = int(rng.integers(2, max_size + 1))
        start.append(n)
        new.append(size - 1)
        n += size - 1
    weights = rng.integers(1, weight_max + 1, size=n, dtype=np.int64)
    return Instance(weights, *(np.asarray(xs, dtype=np.int64)
                               for xs in (glue, start, new)))


def make_instances(workload: str, seed: int) -> list:
    """The instances one pass of ``workload`` solves, in order."""
    rng = np.random.default_rng(seed)
    if workload == "chain":
        return [chain_of_triangles(CHAIN_BLOCKS)]
    if workload == "bushy":
        return [attach_a_clique(rng, BUSHY_BLOCKS, 3, 100)]
    if workload == "cliques":
        return [attach_a_clique(rng, CLIQUES_BLOCKS, 12, 100)]
    if workload == "checked":
        # Every block count in 1..CHECKED_MAX_BLOCKS equally often, in random
        # order: uniform sizes without a seed-dependent total.
        counts = np.arange(CHECKED_INSTANCES) % CHECKED_MAX_BLOCKS + 1
        return [attach_a_clique(rng, int(nb), 4, 100) for nb in rng.permutation(counts)]
    raise ValueError(f"unknown workload {workload!r}")
