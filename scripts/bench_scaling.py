#!/usr/bin/env python3
"""Wall-time scaling of the solver on triangle chains or random block graphs.

Doubles the instance size across a range.  Each instance is written to a
temporary ``.pd`` file by ``save_instance`` and loaded by
``load_instance`` in a fresh Python process: ``load_s`` is the load's
seconds (the parse scan and ``build_graph``) and ``load_mb`` its peak
resident memory over that process's memory just before it.  The script
then reports solve time per block, so deviations from linear scaling are
visible at a glance, and the seconds of each stage of that solve:
decomposition, sweep and reconstruction.  Last it times what ``pairdom
solve --check`` runs: a solve that also returns its pairing, then the
certificate check of ``is_paired_dominating_set``.  ``check_s`` is the
check's seconds and ``+check`` the share that solve and check together
add to the plain solve.  The ``chain`` family (the default) solves
``chain_of_triangles(2**exp)``: one heavy path, so the reconstruction is
its smallest share.  The ``random`` family solves
``random_block_graph(2**exp, 12, 100, seed=exp)``: blocks of 2 to 12
vertices glued at random, with many light children and rounds.  Its
generator is a Python loop over every edge (about 26 per block): on a
2-vCPU VM it builds 2**15 blocks in about 2 s and 150 MB, and both grow
linearly with the size, so keep ``--max-exp`` near 16 for this family.

Usage:
  python3 scripts/bench_scaling.py
  python3 scripts/bench_scaling.py --max-exp 21 --repeat 5
  python3 scripts/bench_scaling.py --family random --max-exp 16
"""

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pairdom
from pairdom import (chain_of_triangles, is_paired_dominating_set, random_block_graph,
                     save_instance, solve)

STAGES = ("decompose_s", "sweep_s", "reconstruct_s")     # seconds that solve's stats report
FAMILIES = {      # the instance of 2**exp blocks
    "chain": lambda exp: chain_of_triangles(2 ** exp),
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


def run(family: str, max_exp: int, repeat: int) -> None:
    make = FAMILIES[family]
    solve(make(2))      # one-time costs of a first call stay untimed
    print(f"{'blocks':>10} {'n':>10} {'load_s':>8} {'load_mb':>8} {'time[s]':>10} "
          f"{'ns/block':>10} " + " ".join(f"{k:>13}" for k in STAGES)
          + f" {'check_s':>10} {'+check':>7}")
    prev = None
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
        rate = best / blocks * 1e9
        growth = "" if prev is None else f"  x{best / prev:.2f}"
        stages = " ".join(f"{stats[k]:>13.4f}" for k in STAGES)
        print(f"{blocks:>10} {g.n:>10} {load_s:>8.3f} {load_mb:>8.1f} {best:>10.4f} "
              f"{rate:>10.1f} {stages} {check:>10.4f} {checked / best - 1:>+7.1%}{growth}")
        prev = best


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
    parser.add_argument("--family", choices=sorted(FAMILIES), default="chain",
                        help="instances to solve (default chain)")
    parser.add_argument("--max-exp", type=int, default=20,
                        help=f"largest instance is 2**max_exp blocks, at least {MIN_EXP} "
                             "(default 20)")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.max_exp < MIN_EXP:
        parser.error(f"--max-exp must be at least {MIN_EXP}, got {args.max_exp}")
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    run(args.family, args.max_exp, args.repeat)
