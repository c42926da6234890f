#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``pairdom solve``.

One op is the user's path called in-process:
``pairdom.cli.main(["solve", <file.pd>, "--json"])``, with ``--check`` added
on the ``checked`` workload.  Ops run one at a time in this single process
(a closed loop with one client), cycling over the workload's instances
until ``--seconds`` have passed and every instance has run once.  Every
answer is checked outside the timed region; an op fails on a nonzero exit
code, an exception, an invalid answer or a non-optimal weight.

End-to-end times are high percentiles (nearest rank) of the op times,
``latency_ms.p95`` and ``latency_ms.p99``.  On a shared host the speed of an
identical op switches between a fast and a slow level for seconds to
minutes at a time.  The median and the mean of a run follow the share of
time spent fast more closely than the p95 does, which stays nearer the
slow level; in sets of ten runs per workload on a 2-vCPU VM they spread
by up to 0.28 and 0.26 of themselves (quartile distance over median),
above what a bound can allow.  So the median (``solve_s.p50``, or
``latency_ms.p50`` on ``checked``) and ``blocks_per_s`` (the blocks of all
timed ops over their seconds) are printed for reading but not reported.
``setup_s`` is the median of the set-ups made through the run (see
``set_up`` and ``loop``).  ``rss_growth_mb`` is the peak resident memory
of the first pass over the instances minus the resident memory just
before it, so it leaves out the interpreter, numpy, pairdom's import and
the benchmark's own data.  Every op time goes to the result file.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
from the spans of the traced ones (see ``spans.py``).  The metric names and
units are those of ``BENCHMARK.json``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A result file
with an environment record goes to ``.perfbench/results/`` and the spans of
a traced run to ``.perfbench/traces/``.

Usage, from the repository root:
  python3 perfbench/run.py --workload chain --seed 1 --seconds 22 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
SETUP_EVERY_S = 0.5
REFERENCE_OPS = 50
ORACLE_MAX_N = 22
WARMUP = workloads.chain_of_triangles(4)
LIBC = ctypes.CDLL(None)
M_MMAP_THRESHOLD = -3       # mallopt parameter number in glibc's malloc.h


def run_op(argv: list) -> tuple:
    """One call of ``pairdom.cli.main``: (seconds, exit code, stdout)."""
    cli = sys.modules["pairdom.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            rc = repr(exc)
        seconds = time.perf_counter() - t0
    return seconds, rc, out.getvalue()


def judge(inst: workloads.Instance, rc, stdout: str) -> tuple:
    """(reported weight, set size, why the op failed or None)."""
    if rc != 0:
        return None, 0, f"exit {rc}"
    try:
        answer = json.loads(stdout)
        weight, members = answer["weight"], answer["set"]
        return weight, len(members), checker.check_answer(inst, members, weight)
    except (ValueError, KeyError, TypeError) as exc:
        return None, 0, f"unreadable output: {exc!r}"


def solve_argv(workload: str, path: Path) -> list:
    argv = ["solve", str(path), "--json"]
    return argv + ["--check"] if workload == "checked" else argv


def set_up(workload: str, path: Path, baseline: set) -> float:
    """Import pairdom from ``src/`` afresh and solve the instance at
    ``path`` (a 4-triangle chain) once; returns the seconds.  It first drops
    every module imported since ``baseline``, the benchmark's own imports,
    so it pays for pairdom and for each module pairdom pulls in that the
    benchmark had not loaded already (numpy, json and argparse it had)."""
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    gc.collect()    # a fresh process has no old pairdom modules to collect
    t0 = time.perf_counter()
    importlib.import_module("pairdom.cli")
    _, rc, stdout = run_op(solve_argv(workload, path))
    seconds = time.perf_counter() - t0
    where = Path(sys.modules["pairdom"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"pairdom was imported from {where}, not from {SRC}")
    weight, _, why = judge(WARMUP, rc, stdout)
    if why or weight != workloads.chain_optimum(WARMUP.num_blocks):
        raise RuntimeError(f"warm-up solve failed: {why or weight}")
    return seconds


def rss_mb() -> float:
    """Resident memory of this process now, in MiB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    numba = getattr(sys.modules.get("pairdom._kernels"), "NUMBA_ENABLED", None)
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "backend": {True: "numba", False: "python", None: "unknown"}[numba],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def percentile(values, q: float) -> float:
    """Nearest rank: with 1000 samples, 10 lie above the 0.99 one."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def known_weights(workload: str, texts: list) -> tuple:
    """Known optima of the run's instances (None where only the oracle can
    tell) and the seed-0 reference cases the run also solves, untimed.

    The seed-0 instances must still hash to the record in expected.json.
    When the run's instances are those, the recorded weights are their
    optima and no reference is needed; otherwise the first
    ``REFERENCE_OPS`` seed-0 instances are solved after the timed loop and
    compared with the record, so every run checks optimality on the
    workload's shape whatever its seed."""
    record = json.loads(EXPECTED.read_text())["workloads"][workload]
    ref = workloads.make_instances(workload, DEFAULT_SEED)
    ref_texts = [inst.to_text() for inst in ref]
    digest = workloads.sha256_text("".join(ref_texts))
    if digest != record["sha256"]:
        raise RuntimeError(f"{workload} seed-{DEFAULT_SEED} instances changed: "
                           f"sha256 {digest}, recorded {record['sha256']}")
    if ref_texts == texts:
        known, cases = list(record["weights"]), []
    else:
        known = [None] * len(texts)
        cases = list(zip(ref, ref_texts, record["weights"]))[:REFERENCE_OPS]
    if workload == "chain":
        known = [workloads.chain_optimum(inst.num_blocks) for inst in ref]
    return known, cases


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # glibc raises its mmap threshold each time a large block is freed, so
    # where an op's arrays land, and what they add to the resident memory,
    # would depend on what the benchmark freed before.  Fix the threshold at
    # its starting value, which is what a fresh ``pairdom`` process gets.
    LIBC.mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    t0 = time.perf_counter()
    instances = workloads.make_instances(workload, seed)
    texts = [inst.to_text() for inst in instances]
    known, references = known_weights(workload, texts)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        paths = write_files(tmp, "", texts)
        ref_paths = write_files(tmp, "ref-", [text for _, text, _ in references])
        warm_path = write_files(tmp, "warmup-", [WARMUP.to_text()])[0]
        generation_s = time.perf_counter() - t0

        baseline = set(sys.modules)
        sys.path.insert(0, str(SRC))
        setup_times = [set_up(workload, warm_path, baseline)]

        def set_up_again():
            setup_times.append(set_up(workload, warm_path, baseline))

        tracer = spans.Tracer() if trace else None
        ops, rss_growth = loop(workload, instances, paths, known, seconds, tracer,
                               None if trace else set_up_again)
        reference_ops = [solve_once(workload, inst, path, weight, op=f"ref-{i}", inst_id=i)
                         for i, ((inst, _, weight), path)
                         in enumerate(zip(references, ref_paths))]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    process_peak = peak_rss_mb()
    check_against_oracle(instances, known, ops)

    failed = [op for op in ops + reference_ops if op["why"]]
    result = {"env": environment(workload, seed, trace),
              "generation_s": generation_s, "setup_samples_s": setup_times,
              "attempted": len(ops) + len(reference_ops), "failed": len(failed),
              "failures": [f"op {op['op']} instance {op['inst']}: {op['why']}"
                           for op in failed[:20]]}
    if trace:
        result["metrics"] = traced_metrics(instances, texts, ops, tracer)
        write_json(OUT / "traces" / f"{workload}-seed{seed}.json",
                   {"env": result["env"], "missing": tracer.missing,
                    "spans": tracer.spans})
    else:
        lat = result["latencies_s"] = [op["s"] for op in ops]
        blocks = sum(instances[op["inst"]].num_blocks for op in ops)
        median = ("latency_ms.p50", statistics.median(lat) * 1e3, "ms")
        if workload != "checked":
            median = ("solve_s.p50", statistics.median(lat), "s")
        result["printed"] = [median, ("blocks_per_s", blocks / sum(lat), "1/s"),
                             ("peak_rss_mb", process_peak, "MB")]
        result["metrics"] = {
            "latency_ms.p95": (percentile(lat, 0.95) * 1e3, len(lat)),
            "latency_ms.p99": (percentile(lat, 0.99) * 1e3, len(lat)),
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "rss_growth_mb": (rss_growth, 1),
        }
    write_json(OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json", result)
    return result


def write_files(directory: Path, prefix: str, texts: list) -> list:
    paths = []
    for i, text in enumerate(texts):
        paths.append(directory / f"{prefix}{i}.pd")
        paths[-1].write_text(text, encoding="ascii")
    return paths


def solve_once(workload, inst, path, known, op, inst_id) -> dict:
    """One op on ``inst``, judged against the optimum ``known`` if given."""
    s, rc, stdout = run_op(solve_argv(workload, path))
    weight, size, why = judge(inst, rc, stdout)
    if why is None and known is not None and weight != known:
        why = f"weight {weight}, optimum {known}"
    return {"op": op, "inst": inst_id, "s": s, "traced": False,
            "weight": weight, "set_size": size, "why": why}


def loop(workload, instances, paths, known, seconds, tracer, set_up_again) -> tuple:
    """Closed loop over the instances; returns the ops and the first pass's
    peak resident memory over the resident memory before it, in MiB.

    After the first pass ``set_up_again`` (if given) runs between ops, as
    often as is due at one every ``SETUP_EVERY_S`` seconds, so the set-ups
    meet the same fast and slow spells of the host as the ops.  A traced
    run alternates untraced and traced passes and ends after a traced one."""
    ops = []
    n = len(instances)
    gc.collect()
    LIBC.malloc_trim(0)     # hand back what set-up freed: count only live memory
    rss_before = rss_mb()
    rss_growth = None
    t_start = time.perf_counter()
    next_set_up = math.inf
    while (len(ops) < (2 * n if tracer else n)
           or time.perf_counter() - t_start < seconds
           or (tracer and len(ops) % (2 * n))):
        k = len(ops)
        i = k % n
        if k == n:
            rss_growth = peak_rss_mb() - rss_before
            next_set_up = time.perf_counter()
        while set_up_again and time.perf_counter() >= next_set_up:
            set_up_again()
            next_set_up += SETUP_EVERY_S
        traced = bool(tracer) and (k // n) % 2 == 1
        if traced:
            tracer.install(k)
        try:
            op = solve_once(workload, instances[i], paths[i], known[i], op=k, inst_id=i)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        ops.append(op)
    if rss_growth is None:
        rss_growth = peak_rss_mb() - rss_before
    return ops, rss_growth


def check_against_oracle(instances, known, ops) -> None:
    """Compare small answers with ``pairdom.oracle_min_pds``.  Runs after
    peak memory is read, since the oracle's tables outgrow the solver."""
    pairdom = sys.modules["pairdom"]
    optimum = {}
    for op in ops:
        inst = instances[op["inst"]]
        if op["why"] or known[op["inst"]] is not None or inst.n > ORACLE_MAX_N:
            continue
        if op["inst"] not in optimum:
            g = pairdom.build_graph(inst.n, inst.weights, inst.edges())
            optimum[op["inst"]] = pairdom.oracle_min_pds(g)[1]
        if op["weight"] != optimum[op["inst"]]:
            op["why"] = f"weight {op['weight']}, oracle {optimum[op['inst']]}"


def traced_metrics(instances, texts, ops, tracer) -> dict:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    shape = [instances[op["inst"]].structure() for op in traced]

    def per_op(values):
        return sum(values) / len(traced)

    metrics = spans.layer_metrics(tracer, len(traced), sum(s["blocks"] for s in shape))
    metrics.update({
        "instance_io.bytes": per_op(len(texts[op["inst"]]) for op in traced),
        "graph.n": per_op(instances[op["inst"]].n for op in traced),
        "graph.m": per_op(instances[op["inst"]].m for op in traced),
        "blocks.count": per_op(s["blocks"] for s in shape),
        "blocks.cut_vertices": per_op(s["cut_vertices"] for s in shape),
        "blocks.max_size": per_op(s["max_size"] for s in shape),
        "blocks.tree_depth": per_op(s["tree_depth"] for s in shape),
        "solver.set_size": per_op(op["set_size"] for op in traced),
        "trace.overhead_s": (per_op(op["s"] for op in traced)
                             - sum(op["s"] for op in untraced) / len(untraced)),
    })
    return {name: (value, len(traced)) for name, value in metrics.items()}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")


def report(result: dict, wanted: list) -> None:
    """Human-readable lines, then the one-line JSON result with the
    ``wanted`` metrics of BENCHMARK.json."""
    print("env " + json.dumps(result["env"]))
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['failed'] / result['attempted']:.6g}")
    for line in result["failures"]:
        print("FAILED " + line)
    for name, value, unit in result.get("printed", []):
        print(f"{name} {value:.6g} {unit} (printed only, not gated)")
    metrics = {}
    for spec in wanted:
        value, samples = result["metrics"].get(spec["name"], (None, 0))
        if value is None:
            print(f"{spec['name']} missing")
            metrics[spec["name"]] = {"value": None, "unit": spec["unit"], "missing": True}
        else:
            print(f"{spec['name']} {value:.6g} {spec['unit']} ({samples} samples)")
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    report(run(args.workload, args.seed, args.seconds, args.trace), wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
