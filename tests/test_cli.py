"""Instance file round-trips and the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pairdom import ParseError, format_instance, parse_instance, random_block_graph
from pairdom.cli import main

from conftest import golden_graph

K2_TEXT = """c tiny example
p pdom 2 1
w 1 5
w 2 3
e 1 2
"""

C4_TEXT = """p pdom 4 4
w 1 1
w 2 1
w 3 1
w 4 1
e 1 2
e 2 3
e 3 4
e 4 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ file I/O

def test_parse_k2():
    g = parse_instance(K2_TEXT)
    assert g.n == 2 and g.m == 1
    assert list(g.weights) == [5, 3]


def test_round_trip():
    g = random_block_graph(6, 4, 30, seed=9)
    text = format_instance(g)
    g2 = parse_instance(text)
    assert g2.n == g.n
    assert sorted(g2.edge_list()) == sorted(g.edge_list())
    assert list(g2.weights) == list(g.weights)
    assert format_instance(g2) == text        # canonical form is stable


@pytest.mark.parametrize("text", [
    "w 1 5\n",                                  # missing header
    "p pdom 2 1\nw 1 5\ne 1 2\n",               # missing a weight line
    "p pdom 2 0\nw 1 5\nw 2 3\ne 1 2\n",        # edge count mismatch
    "p pdom 2 1\nw 1 5\nw 2 -3\ne 1 2\n",       # negative weight
    "p pdom 2 1\nw 1 5\nw 3 3\ne 1 2\n",        # vertex id out of range
    "p pdom 2 1\nw 1 5\nw 1 3\ne 1 2\n",        # duplicate weight line
    "q pdom 2 1\n",                             # unknown line type
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_instance(text)


# ---------------------------------------------------------------------- solve

def test_cli_solve(tmp_path, capsys):
    path = _write(tmp_path, "k2.pd", K2_TEXT)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["weight 8", "set 1 2"]


def test_cli_solve_check_json(tmp_path, capsys):
    path = _write(tmp_path, "k2.pd", K2_TEXT)
    assert main(["solve", path, "--json", "--check"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"weight": 8, "set": [1, 2], "n": 2, "blocks": 1}


def test_cli_solve_rejects_non_block_graph(tmp_path, capsys):
    path = _write(tmp_path, "c4.pd", C4_TEXT)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "not a clique" in err
    assert "1 2 3 4" in err


def test_cli_solve_rejects_single_vertex(tmp_path, capsys):
    path = _write(tmp_path, "one.pd", "p pdom 1 0\nw 1 4\n")
    assert main(["solve", path]) == 2
    assert "paired-dominating" in capsys.readouterr().err


def test_cli_solve_rejects_disconnected(tmp_path, capsys):
    text = "p pdom 4 2\nw 1 1\nw 2 1\nw 3 1\nw 4 1\ne 1 2\ne 3 4\n"
    path = _write(tmp_path, "disc.pd", text)
    assert main(["solve", path]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_cli_solve_rejects_malformed(tmp_path, capsys):
    path = _write(tmp_path, "bad.pd", "p pdom 2 1\nw 1 5\nw 2 -3\ne 1 2\n")
    assert main(["solve", path]) == 2


@pytest.mark.parametrize("text", [
    "p pdom 2 1\nw 1 99999999999999999999\nw 2 3\ne 1 2\n",    # weight beyond int64
    "p pdom 99999999999999999999 0\n",                          # n beyond the file
], ids=["weight", "header"])
def test_cli_solve_rejects_oversized_numbers(tmp_path, capsys, text):
    path = _write(tmp_path, "big.pd", text)
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_file(capsys):
    assert main(["solve", "/nonexistent/file.pd"]) == 2


# ------------------------------------------------------------- gen and verify

def test_cli_gen_round_trip(tmp_path, capsys):
    out = str(tmp_path / "inst.pd")
    assert main(["gen", "--blocks", "5", "--max-size", "4", "--wmax", "20",
                 "--seed", "3", "-o", out]) == 0
    g = random_block_graph(5, 4, 20, seed=3)
    with open(out, encoding="utf-8") as f:
        text = f.read()
    assert "c generator numpy-pcg64 seed=3" in text.splitlines()[0]
    g2 = parse_instance(text)
    assert g2.edge_list() == sorted(g.edge_list())
    assert list(g2.weights) == list(g.weights)


def test_cli_gen_deterministic(tmp_path):
    a = str(tmp_path / "a.pd")
    b = str(tmp_path / "b.pd")
    main(["gen", "--blocks", "8", "--max-size", "4", "--seed", "42", "-o", a])
    main(["gen", "--blocks", "8", "--max-size", "4", "--seed", "42", "-o", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_cli_verify(capsys):
    assert main(["verify", "--seed", "7", "--instances", "25",
                 "--max-blocks", "4", "--max-size", "3", "--wmax", "30"]) == 0
    assert "verified 25 instances" in capsys.readouterr().out


# ----------------------------------------------------------- decompose, bench

def test_cli_decompose(tmp_path, capsys):
    path = _write(tmp_path, "g.pd", format_instance(golden_graph()))
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert "blocks 8" in out
    assert "cut-vertices 6" in out
    assert out.count("block ") == 8
    assert "order:" in out


def test_cli_decompose_dot(tmp_path, capsys):
    path = _write(tmp_path, "g.pd", format_instance(golden_graph()))
    assert main(["decompose", path, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph")


def test_cli_bench_smoke(capsys):
    assert main(["bench", "--chain", "50", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 101 blocks 50")
    assert "time" in out


# -------------------------------------------------------------------- scripts

@pytest.mark.parametrize("args", [["soak_verify.py", "--instances", "20"],
                                  ["bench_scaling.py", "--max-exp", "10", "--repeat", "1"]],
                         ids=lambda args: args[0])
def test_script_runs(args):
    script = Path(__file__).resolve().parents[1] / "scripts" / args[0]
    subprocess.run([sys.executable, str(script), *args[1:]], check=True,
                   capture_output=True, timeout=300)
