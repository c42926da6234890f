#!/usr/bin/env python3
"""Wall-time scaling of the solver on triangle chains or random block graphs.

Doubles the instance size across a range.  Each instance is written to a
temporary ``.pd`` file by ``save_instance`` and loaded by
``load_instance`` in a fresh Python process: ``load_s`` is the load's
seconds (the parse scan and ``build_graph``) and ``load_mb`` its peak
resident memory over that process's memory just before it.  The script
then reports solve time per block, so deviations from linear scaling are
visible at a glance, and the seconds of each stage of that solve that
``solve`` reports: decomposition (which includes the search),
``TreePlan``, sweep and reconstruction.  A stage the solver does not
report prints as ``-``.  ``search_s`` is ``search_order`` from vertex 0
timed alone on the same graph.  Last it times what ``pairdom solve
--check`` runs: a solve that also returns its pairing, then the
certificate check of ``is_paired_dominating_set``.  ``check_s`` is the
check's seconds and ``+check`` the share that solve and check together
add to the plain solve.  Every time is the best of ``--repeat`` runs.

Families:
  chain   ``chain_of_triangles(2**exp)`` (the default): one heavy path, so
          the reconstruction is its smallest share.
  blocks  2**exp cliques of 2 to 4 vertices, weights 1 to 100, each glued
          at a uniformly drawn earlier vertex: a shallow tree with wide
          search levels.  Drawn by numpy at once, 2**20 blocks (n about 2.1M,
          m about 3.5M) in about 1 s.
  random  ``random_block_graph(2**exp, 12, 100, seed=exp)``: blocks of 2
          to 12 vertices.  Its generator is a Python loop over every edge
          (about 26 per block): on a 2-vCPU VM it builds 2**15 blocks in
          about 2 s and 150 MB, so keep ``--max-exp`` near 16 for it.

``--json PATH`` also writes the rows, one object per row with its family,
and a record of the run: the Python and numpy versions, the number of
CPUs, the commit of the ``pairdom`` package measured (``git describe
--dirty``) and ``"backend": "numpy"``.

Usage:
  python3 scripts/bench_scaling.py
  python3 scripts/bench_scaling.py --max-exp 21 --repeat 5
  python3 scripts/bench_scaling.py --family chain blocks --max-exp 20 --json BENCH.json
  python3 scripts/bench_scaling.py --family random --max-exp 16
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pairdom
from pairdom import (build_graph, chain_of_triangles, is_paired_dominating_set,
                     random_block_graph, save_instance, solve)
from pairdom.graph import search_order

STAGES = ("decompose_s", "plan_s", "sweep_s", "reconstruct_s")   # seconds that solve's stats report


def random_blocks(blocks: int, seed: int):
    """``blocks`` cliques of 2 to 4 vertices on vertex 0 onwards: block i
    makes its size - 1 new vertices and glues them, as a clique, to vertex
    floor(u_i * n_i), with n_i the vertices made before it."""
    rng = np.random.default_rng(seed)
    size = rng.integers(2, 5, size=blocks)
    made = np.cumsum(size - 1) - (size - 1) + 1        # n_i
    glue = (rng.random(blocks) * made).astype(np.int64)
    n = int(made[-1] + size[-1] - 1)
    edges = []
    for s in range(2, 5):
        pick = np.flatnonzero(size == s)
        clique = np.empty((pick.shape[0], s), dtype=np.int64)
        clique[:, 0] = glue[pick]
        clique[:, 1:] = made[pick, None] + np.arange(s - 1)
        i, j = np.triu_indices(s, 1)
        edges.append(np.column_stack((clique[:, i].ravel(), clique[:, j].ravel())))
    return build_graph(n, rng.integers(1, 101, size=n), np.concatenate(edges))


FAMILIES = {      # the instance of 2**exp blocks
    "chain": lambda exp: chain_of_triangles(2 ** exp),
    "blocks": lambda exp: random_blocks(2 ** exp, seed=exp),
    "random": lambda exp: random_block_graph(2 ** exp, 12, 100, seed=exp),
}
MIN_EXP = 10
# a fresh process: its VmHWM (peak resident memory, in kB) starts at the
# exec, where getrusage's maximum would carry over the spawning process's
LOAD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from pairdom import load_instance
def kb(key):
    return next(int(x.split()[1]) for x in open("/proc/self/status") if x.startswith(key))
before = kb("VmRSS:")
t0 = time.perf_counter()
load_instance(sys.argv[2])
print(time.perf_counter() - t0, kb("VmHWM:") - before)
"""


def run(family: str, max_exp: int, repeat: int) -> list:
    """Print one row per size, and return the rows."""
    make = FAMILIES[family]
    solve(make(2))      # one-time costs of a first call stay untimed
    print(f"{family}:")
    print(f"{'blocks':>10} {'n':>10} {'load_s':>8} {'load_mb':>8} {'time_s':>10} "
          f"{'ns/block':>10} " + " ".join(f"{k:>13}" for k in STAGES)
          + f" {'search_s':>10} {'check_s':>10} {'+check':>7}")
    rows = []
    for exp in range(MIN_EXP, max_exp + 1):
        blocks = 2 ** exp
        g = make(exp)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.pd"
            save_instance(g, path)
            load_s, load_mb = min(_timed_load(path) for _ in range(repeat))
        runs = [(_timed_solve(g), _timed_check(g)) for _ in range(repeat)]   # interleaved
        best, stats = min((plain for plain, _ in runs), key=lambda run: run[0])
        checked, check = min(with_check for _, with_check in runs)
        search = min(_timed_search(g) for _ in range(repeat))
        row = dict(family=family, blocks=blocks, n=g.n, m=g.m, load_s=load_s,
                   load_mb=load_mb, time_s=best, ns_per_block=best / blocks * 1e9,
                   **{k: stats.get(k) for k in STAGES}, search_s=search,
                   check_s=check, with_check=checked / best - 1)
        growth = "" if not rows else f"  x{best / rows[-1]['time_s']:.2f}"
        stages = " ".join("            -" if row[k] is None else f"{row[k]:>13.4f}"
                          for k in STAGES)
        print(f"{blocks:>10} {g.n:>10} {load_s:>8.3f} {load_mb:>8.1f} {best:>10.4f} "
              f"{row['ns_per_block']:>10.1f} {stages} {search:>10.4f} {check:>10.4f} "
              f"{row['with_check']:>+7.1%}{growth}")
        rows.append(row)
    return rows


def record(rows: list) -> dict:
    """The rows, and what they were measured with."""
    root = Path(pairdom.__file__).resolve().parents[2]
    try:
        commit = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty",
                                 "--abbrev=40"], check=True, capture_output=True,
                                text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "commit": commit, "backend": "numpy", "rows": rows}


def _timed_load(path):
    """Seconds and peak memory growth, in MiB, of ``load_instance(path)``
    in a fresh process: the peak of this one has been set by earlier sizes."""
    root = Path(pairdom.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", LOAD, str(root), str(path)],
                         check=True, capture_output=True, text=True).stdout.split()
    return float(out[0]), int(out[1]) / 1024


def _timed_solve(g):
    """Wall time of one solve, and the stage times it reports."""
    stats = {}
    t0 = time.perf_counter()
    solve(g, stats=stats)
    return time.perf_counter() - t0, stats


def _timed_search(g):
    t0 = time.perf_counter()
    search_order(g, 0)
    return time.perf_counter() - t0


def _timed_check(g):
    """Wall time of a solve that returns its pairs followed by the
    certificate check, and of the check alone."""
    t0 = time.perf_counter()
    vset, _, pairs = solve(g, pairs=True)
    t1 = time.perf_counter()
    if not is_paired_dominating_set(g, vset, pairs):
        raise SystemExit(f"the certificate check failed on n={g.n}")
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=sorted(FAMILIES), nargs="+", default=["chain"],
                        help="instances to solve, one table each (default chain)")
    parser.add_argument("--max-exp", type=int, default=20,
                        help=f"largest instance is 2**max_exp blocks, at least {MIN_EXP} "
                             "(default 20)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the rows and the run's record to PATH")
    args = parser.parse_args()
    if args.max_exp < MIN_EXP:
        parser.error(f"--max-exp must be at least {MIN_EXP}, got {args.max_exp}")
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    rows = [row for family in args.family for row in run(family, args.max_exp, args.repeat)]
    if args.json is not None:
        args.json.write_text(json.dumps(record(rows), indent=1) + "\n")
