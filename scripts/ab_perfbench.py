#!/usr/bin/env python3
"""Paired runs of perfbench on a parent and a change, and the rule a
claimed gain must meet.

Each side is a tree, given as a directory or a git revision.  The script
copies both into one fresh directory, as ``a/`` and ``b/``, so that the
two checkouts have paths of equal length: the resident memory that
perfbench reports moves with the checkout's path as well as with the
code.  A git revision is exported with ``git archive``; a directory is
copied without its ``.git``, its caches and its results.  Every run has
``PYTHONDONTWRITEBYTECODE=1`` in its environment, so each set-up compiles
the package from source, as on a fresh checkout.

For each seed, and for each workload of that seed, the script runs
``perfbench/run.py --workload W --seed S --trace 0`` once on each side.
Which side runs first alternates from one pair of a workload to the
next, and each pair's metrics are printed as it ends.  After the runs it
prints, for each workload and each end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the pairs each side
won (ties count for neither) and the change's median against the
parent's, and last whether the claim rule holds:

  the change wins at least nine tenths of the pairs, and its median is
  better than the parent's by more than the distance between the
  parent's quartiles.

It also marks a metric whose change median is worse than the parent's by
more than the metric's bound, and marks it UNRESOLVED when the parent's
quartile distance is wider than that bound, as a share of the parent's
median, unless every change run beats every parent run: runs that spread
so widely can show neither a regression nor its absence.  A run that
exits nonzero, or reports a failed op, stops the script.

Usage, from the repository root:
  python3 scripts/ab_perfbench.py --parent HEAD~1 --change . \\
      --workload checked --seeds 31-40
  python3 scripts/ab_perfbench.py --parent ../old --change . \\
      --workload chain bushy cliques checked --seeds 41-46
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SKIP = shutil.ignore_patterns(".git", ".perfbench", "__pycache__", ".hypothesis",
                              ".pytest_cache")


def export(tree: str, dest: Path) -> None:
    """Copy the directory ``tree``, or export the git revision ``tree``
    of the repository in the working directory, to ``dest``."""
    if Path(tree).is_dir():
        shutil.copytree(tree, dest, ignore=SKIP)
        return
    archive = subprocess.run(["git", "archive", "--format=tar", tree],
                             capture_output=True, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run; returns its metrics by name."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: "
                         f"{result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare paired runs of one metric, ``better`` being "lower" or
    "higher".  The claim holds when the change wins at least nine tenths
    of the pairs and its median is better than the parent's by more than
    the parent's quartile distance.  The metric is unresolved when that
    distance is wider than ``bound`` times the parent's median, unless
    every change run beats every parent run."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (pq[1] - cq[1])
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {"parent": pq, "change": cq, "pairs": len(parent), "wins": wins,
            "losses": losses, "spread": pq[2] - pq[0],
            "unresolved": pq[2] - pq[0] > bound * abs(pq[1]) and not beats_all,
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "claim": 10 * wins >= 9 * len(parent) and gain > pq[2] - pq[0]}


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="directory or git revision")
    parser.add_argument("--change", required=True, help="directory or git revision")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="seeds as 31-40 or 1,4,7; one pair per seed and workload")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="ab-perfbench-"))
    try:
        sides = {"parent": work / "a", "change": work / "b"}
        export(args.parent, sides["parent"])
        export(args.change, sides["change"])
        bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        runs = {w: {"parent": [], "change": []} for w in args.workload}
        for seed in args.seeds:
            for workload in args.workload:
                pair = len(runs[workload]["parent"]) + 1
                order = ["parent", "change"] if pair % 2 else ["change", "parent"]
                for side in order:
                    runs[workload][side].append(run_once(sides[side], workload, seed))
                print(f"{workload} pair {pair}, seed {seed}, {order[0]} first; "
                      + "; ".join(f"{side} " + " ".join(f"{k} {v:.6g}" for k, v in
                                                        runs[workload][side][-1].items())
                                  for side in ("parent", "change")), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, sides_runs in runs.items():
        for spec in bench["end_to_end"]:
            name = spec["name"]
            parent = [r[name] for r in sides_runs["parent"]]
            change = [r[name] for r in sides_runs["change"]]
            s = summary(parent, change, spec["better"], spec["bound"])
            worse = s["ratio"] is not None and (
                s["ratio"] - 1 > spec["bound"] if spec["better"] == "lower"
                else 1 - s["ratio"] > spec["bound"])
            print(f"{workload} {name} ({spec['unit']}), {s['pairs']} pairs: "
                  f"parent {s['parent'][1]:.6g} [{s['parent'][0]:.6g}, {s['parent'][2]:.6g}] "
                  f"change {s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}] "
                  f"ratio {s['ratio'] or float('nan'):.4f}, change won {s['wins']}, "
                  f"parent won {s['losses']}, "
                  f"claim {'met' if s['claim'] else 'not met'}"
                  f"{' WORSE THAN BOUND' if worse else ''}"
                  f"{' UNRESOLVED' if s['unresolved'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
