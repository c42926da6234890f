"""Tests of the benchmark's own code: instances, answer checker, metrics.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import pairdom  # noqa: E402
import pairdom.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())


def _graph(inst):
    return pairdom.build_graph(inst.n, inst.weights, inst.edges())


# ---------------------------------------------------------------- checker

def test_checker_accepts_optimum_of_small_chain():
    # triangles {1,2,3} {3,4,5} {5,6,7}; the pair 3-5 dominates everything
    assert checker.check_answer(workloads.chain_of_triangles(3), [3, 5], 2) is None


@pytest.mark.parametrize("members, weight, reason", [
    ([1, 2], 2, "does not dominate"),
    ([2, 4, 6, 7], 4, "no perfect matching"),   # 2 has no partner in the set
    ([3, 5], 3, "reported weight"),
    ([3, 8], 2, "out of range"),
    ([3, 3, 5, 5], 4, "listed twice"),
])
def test_checker_rejects(members, weight, reason):
    why = checker.check_answer(workloads.chain_of_triangles(3), members, weight)
    assert why is not None and reason in why


def test_checker_agrees_with_pairdom_predicates():
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = workloads.attach_a_clique(rng, int(rng.integers(1, 6)), 4, 9)
        if inst.n > 10:
            continue
        g = _graph(inst)
        for bits in itertools.product((False, True), repeat=inst.n):
            in_s = np.array(bits, dtype=bool)
            members = np.nonzero(in_s)[0].tolist()
            assert (checker.has_perfect_matching(inst, in_s)
                    == pairdom.has_perfect_matching(g, members))
            assert checker.dominates(inst, in_s) == pairdom.is_dominating_set(g, members)


# ---------------------------------------------------------------- instances

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_instances_match_recorded_hashes(workload):
    texts = [inst.to_text() for inst in workloads.make_instances(workload, run.DEFAULT_SEED)]
    assert workloads.sha256_text("".join(texts)) == EXPECTED["workloads"][workload]["sha256"]


def test_instances_are_the_block_graphs_they_describe():
    rng = np.random.default_rng(3)
    inst = workloads.attach_a_clique(rng, 300, 5, 100)
    g = pairdom.parse_instance(inst.to_text())
    bct = pairdom.find_blocks(g)
    assert pairdom.is_block_graph(g)
    shape = inst.structure()
    assert shape["blocks"] == bct.num_blocks
    assert shape["cut_vertices"] == len(bct.cut_vertices)
    assert shape["max_size"] == int(np.diff(bct.block_ptr).max())
    assert workloads.chain_of_triangles(7).structure()["tree_depth"] == 7


def test_chain_closed_form_matches_oracle():
    for b in range(1, 11):
        inst = workloads.chain_of_triangles(b)
        assert pairdom.oracle_min_pds(_graph(inst))[1] == workloads.chain_optimum(b)


def test_recorded_weights_match_known_optima():
    rec = EXPECTED["workloads"]
    assert rec["chain"]["weights"] == [workloads.chain_optimum(workloads.CHAIN_BLOCKS)]
    small = [(inst, w) for inst, w in zip(workloads.make_instances("checked", run.DEFAULT_SEED),
                                          rec["checked"]["weights"])
             if inst.n <= 16]
    assert small
    for inst, w in small:
        assert pairdom.oracle_min_pds(_graph(inst))[1] == w


def test_runs_off_the_default_seed_check_seed_0_references():
    texts = [inst.to_text() for inst in workloads.make_instances("bushy", 5)]
    known, cases = run.known_weights("bushy", texts)
    assert known == [None]
    assert [w for _, _, w in cases] == EXPECTED["workloads"]["bushy"]["weights"]

    texts = [inst.to_text() for inst in workloads.make_instances("bushy", run.DEFAULT_SEED)]
    assert run.known_weights("bushy", texts) == (EXPECTED["workloads"]["bushy"]["weights"], [])


def test_a_wrong_weight_fails_the_op(tmp_path):
    path = tmp_path / "chain.pd"
    path.write_text(run.WARMUP.to_text())
    optimum = workloads.chain_optimum(run.WARMUP.num_blocks)
    assert run.solve_once("chain", run.WARMUP, path, optimum, op=0, inst_id=0)["why"] is None
    op = run.solve_once("chain", run.WARMUP, path, optimum + 1, op=0, inst_id=0)
    assert "optimum" in op["why"]


# ---------------------------------------------------------------- metrics

def _bench_run(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chain", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed(trace, section):
    lines = _bench_run(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK[section]]
    assert list(result["metrics"]) == names
    for spec in BENCHMARK[section]:
        metric = result["metrics"][spec["name"]]
        assert metric == {"value": metric["value"], "unit": spec["unit"]}
        assert isinstance(metric["value"], float)
        assert any(line.startswith(spec["name"] + " ") for line in lines[:-1])


def test_missing_layer_function_prints_as_missing():
    targets = dict(spans.TARGETS)
    targets["blocks.elimination_order"] = ("pairdom.blocks", "BlockCutTree.gone")
    tracer = spans.Tracer(targets)
    metrics = spans.layer_metrics(tracer, traced_ops=1, traced_blocks=1)
    assert metrics["blocks.elimination_order.s"] is None
    assert metrics["graph.build_graph.s"] == 0.0      # exists, not called

    result = {"env": {}, "attempted": 1, "failed": 0, "failures": [],
              "metrics": {name: (value, 1) for name, value in metrics.items()}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result, BENCHMARK["per_layer"])
    lines = out.getvalue().splitlines()
    assert "blocks.elimination_order.s missing" in lines
    printed = json.loads(lines[-1])["metrics"]["blocks.elimination_order.s"]
    assert printed["value"] is None and printed["missing"] is True


def test_tracer_restores_originals():
    tracer = spans.Tracer()
    before = pairdom.cli.load_instance
    order = pairdom.blocks.BlockCutTree.__dict__["elimination_order"]
    tracer.install(0)
    assert pairdom.cli.load_instance is not before
    tracer.uninstall()
    assert pairdom.cli.load_instance is before
    assert pairdom.blocks.BlockCutTree.__dict__["elimination_order"] is order
