#!/usr/bin/env python3
"""Wall-time scaling of the solver on triangle chains.

Doubles the instance size across a range and reports solve time per
block, so deviations from linear scaling are visible at a glance, and
the seconds of each stage of that solve: decomposition, sweep and
reconstruction.

Usage:
  python3 scripts/bench_scaling.py
  python3 scripts/bench_scaling.py --max-exp 21 --repeat 5
"""

import argparse
import time

from pairdom import chain_of_triangles, solve

STAGES = ("decompose_s", "sweep_s", "reconstruct_s")     # seconds that solve's stats report


def run(max_exp: int, repeat: int) -> None:
    solve(chain_of_triangles(4))      # one-time costs of a first call stay untimed
    print(f"{'blocks':>10} {'n':>10} {'time[s]':>10} {'ns/block':>10} "
          + " ".join(f"{k:>13}" for k in STAGES))
    prev = None
    for exp in range(10, max_exp + 1):
        blocks = 2 ** exp
        g = chain_of_triangles(blocks)
        best, stats = min((_timed_solve(g) for _ in range(repeat)), key=lambda run: run[0])
        rate = best / blocks * 1e9
        growth = "" if prev is None else f"  x{best / prev:.2f}"
        stages = " ".join(f"{stats[k]:>13.4f}" for k in STAGES)
        print(f"{blocks:>10} {g.n:>10} {best:>10.4f} {rate:>10.1f} {stages}{growth}")
        prev = best


def _timed_solve(g):
    """Wall time of one solve, and the stage times it reports."""
    stats = {}
    t0 = time.perf_counter()
    solve(g, stats=stats)
    return time.perf_counter() - t0, stats


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exp", type=int, default=20,
                        help="largest chain is 2**max_exp blocks (default 20)")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    run(args.max_exp, args.repeat)
