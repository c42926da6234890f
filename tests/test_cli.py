"""Instance file round-trips and the command-line interface."""

import importlib.util
import json
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pairdom
from pairdom import (ParseError, build_graph, chain_of_triangles, find_blocks,
                     format_instance, is_block_graph, parse_instance, random_block_graph)
from pairdom import _linewise, instance_io
from pairdom.arraydp import TreePlan
from pairdom.cli import main
from pairdom.graph import search_order
from pairdom.rooted import root_blocks

from conftest import golden_graph
from tarjan import check_witness

K2_TEXT = """c tiny example
p pdom 2 1
w 1 5
w 2 3
e 1 2
"""

P3_TEXT = "p pdom 3 2\nw 1 1\nw 2 1\nw 3 1\ne 1 2\ne 2 3\n"

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


PARSE_ERRORS = {
    "w 1 5\n": "line 1: 'w' before header",
    "p pdom 2 1\nw 1 5\ne 1 2\n": "expected 2 weight lines, got 1",
    "p pdom 2 0\nw 1 5\nw 2 3\ne 1 2\n": "expected 0 edge lines, got 1",
    "p pdom 2 1\nw 1 5\nw 2 -3\ne 1 2\n": "line 3: negative weight -3",
    "p pdom 2 1\nw 1 5\nw 3 3\ne 1 2\n": "line 3: vertex 3 out of range 1..2",
    "p pdom 2 1\nw 1 5\nw 1 3\ne 1 2\n": "line 3: duplicate weight for vertex 1",
    "q pdom 2 1\n": "line 1: unknown line type 'q'",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(ParseError, match=f"^{re.escape(PARSE_ERRORS[text])}$"):
        parse_instance(text)


def _outcome(parse, text):
    try:
        g = parse(text)
    except Exception as exc:        # the class and message are compared
        return type(exc), str(exc)
    return g.n, g.m, g.weights.tolist(), g.edges.tolist()


def _mutate(rng, text):
    """One random change of the kinds the numpy parser leaves to the line
    loop (odd layouts, odd numbers) or must reject (malformed files)."""
    lines = text.split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    line = lines[i]
    kind = rng.randrange(12)
    if kind == 0:       # layout: tabs, CR, whitespace-only lines, indents
        return rng.choice([text.replace(" ", "\t", 1), text.replace("\n", "\r\n"),
                           text.replace("\n", "\n \n", 1), text.replace(" ", "  ", 1),
                           text.replace("\n", " \n", 1), text.rstrip("\n"),
                           text.replace("\n", "\n\n", 1), text.replace("\nw", "\n w", 1)])
    if kind == 1:       # comments, some the line loop would split
        lines.insert(i, rng.choice(["c", "cw 1 2", " c indented", "c \u00e9",
                                    "c a\u2028p pdom 1 0", "c \x0bx"]))
    elif kind == 2:     # numbers int() takes and the numpy path does not
        lines[i] = line.replace(" ", rng.choice([" +", " 0", " 1_"]), 1)
    elif kind == 3:     # 18, 19 and 25 digits
        lines[i] = line + rng.choice(["9" * 17, "0" * 18, "9" * 24])
    elif kind == 4:
        del lines[i]
    elif kind == 5:
        lines.insert(j, line)
    elif kind == 6:
        lines[i], lines[j] = lines[j], line
    elif kind == 7:     # one byte replaced
        k = rng.randrange(len(text))
        return text[:k] + rng.choice("0 9\nwepcx-_\x7f\x0c\x1c\x1f\x85") + text[k + 1:]
    elif kind == 8:     # a foreign or broken line
        lines.insert(i, rng.choice(["x 1 2", "w 1", "e 1 2 3", "p pdom 1 1", "e 1 1",
                                    "e 0 1", "w 0 1", "pdom", "p pdom 1"]))
    elif kind == 9:     # header sizes off by one
        lines = [re.sub(r"^p pdom (\d+) (\d+)",
                        lambda h: f"p pdom {int(h[1]) + rng.choice([-1, 1])} {h[2]}", x)
                 for x in lines]
    elif kind == 10:    # fields moved across lines, a digit before the type
        s = list(text)
        for sep in rng.sample([" ", "\n"], rng.randrange(1, 3)):
            k = rng.choice([x.start() for x in re.finditer(sep, text)])
            s[k] = " \n"[sep == " "]
        return rng.choice(["".join(s), text.replace("\n", "\n1", 1),
                           text.replace(line, line[:-1], 1)])
    else:
        lines[i] = line.replace("1", "3", 1)
    return "\n".join(lines)


def test_numpy_parser_matches_line_loop():
    """parse_instance gives the graph, or the error class and message, of
    the line loop on canonical and mutated instance texts."""
    for text in ["p pdom 2 1 w\n1 5\nw 2 3\ne 1 2\n", "p pdom 2 1\nw 1 5 w\n2 3\ne 1 2\n",
                 "p pdom 2 1\nw 1 5\nw 2 3\nx 1 2\n", "p pdom 2 1\nw 1 5\nw 2 3\ne 1  2\n",
                 f"p pdom {'0' * 5000}2 1\nw 1 5\nw 2 3\ne 1 2\n"]:
        assert _outcome(parse_instance, text) == _outcome(_linewise.parse_lines, text)
    rng = random.Random(5)
    fast = 0
    for seed in range(600):
        g = random_block_graph(rng.randrange(1, 7), rng.randrange(2, 5),
                               rng.choice([1, 50, 10 ** 15]), seed=seed)
        text = format_instance(g, comments=["seed %d" % seed] * rng.randrange(2))
        for _ in range(rng.randrange(3)):
            text = _mutate(rng, text)
        expected = _outcome(_linewise.parse_lines, text)
        assert _outcome(parse_instance, text) == expected, repr(text)
        fast += instance_io._parse_fast(text) is not None
    assert fast > 100       # the numpy path is exercised, not only skipped


def test_canonical_text_skips_line_loop(monkeypatch):
    def line_loop(text):
        raise AssertionError("parsed line by line")
    texts = [format_instance(random_block_graph(40, 5, 30, seed=s)) for s in range(5)]
    texts += [format_instance(random_block_graph(3, 3, 10 ** 15, seed=1), comments=["a", "b"]),
              K2_TEXT.replace("\n", "\n\n").rstrip("\n"), "\n" + C4_TEXT,
              C4_TEXT.replace("\nw", "\n\nw", 1), "p pdom 0 0", "p pdom 1 0\nw 1 0\n",
              "p pdom 2 1\nw 2 0\ne 2 1\nw 1 100000000000000000\n"]
    expected = [_outcome(parse_instance, t) for t in texts]
    monkeypatch.setattr(_linewise, "parse_lines", line_loop)
    assert [_outcome(parse_instance, t) for t in texts] == expected


@pytest.mark.parametrize("g", [chain_of_triangles(10 ** 4),
                               random_block_graph(2000, 12, 100, seed=1)],
                         ids=["chain", "cliques"])
def test_numpy_parser_peak_memory(g):
    """The numpy parser's peak allocation is at most the line loop's."""
    text = format_instance(g)
    peaks = []
    for parse in (parse_instance, _linewise.parse_lines):
        tracemalloc.start()
        try:
            parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def _mutated_texts(count):
    """Canonical instance texts, some with comments, each mutated up to
    twice by ``_mutate``."""
    rng = random.Random(5)
    for seed in range(count):
        g = random_block_graph(rng.randrange(1, 7), rng.randrange(2, 5),
                               rng.choice([1, 50, 10 ** 15]), seed=seed)
        text = format_instance(g, comments=["seed %d" % seed] * rng.randrange(2))
        for _ in range(rng.randrange(3)):
            text = _mutate(rng, text)
        yield text


@pytest.mark.parametrize("size", [1, 7, 64])
def test_sliced_parser_matches_line_loop(monkeypatch, size):
    """Slices of a few bytes split the lines, comments and errors of the
    mutated texts across slices; the outcome is still the line loop's."""
    monkeypatch.setattr(instance_io, "_SLICE", size)
    fast = 0
    for text in _mutated_texts(300):
        assert _outcome(parse_instance, text) == _outcome(_linewise.parse_lines, text), repr(text)
        fast += instance_io._parse_fast(text) is not None
    assert fast > 50


def _line_end_copies(tmp_path, text):
    """Paths of ``text`` written with LF, CRLF and CR-only line ends."""
    paths = []
    for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        paths.append(tmp_path / f"{name}.pd")
        paths[-1].write_bytes(text.replace("\n", end).encode())
    return paths


def test_crlf_and_cr_files_load_as_lf_files(tmp_path):
    """Through load_instance, CRLF and CR-only copies give the graph or the
    error of the LF file, which is what the line loop makes of the text
    that text mode reads."""
    texts = [format_instance(random_block_graph(30, 5, 30, seed=3), comments=["a"])]
    for text in texts + [t for t in _mutated_texts(150) if "\r" not in t]:
        lf, crlf, cr = _line_end_copies(tmp_path, text)
        expected = _outcome(_linewise.parse_lines, lf.read_text(encoding="utf-8"))
        assert _outcome(instance_io.load_instance, lf) == expected, repr(text)
        assert _outcome(instance_io.load_instance, crlf) == expected, repr(text)
        assert _outcome(instance_io.load_instance, cr) == expected, repr(text)


def test_canonical_crlf_file_skips_line_loop(tmp_path, monkeypatch):
    def line_loop(text):
        raise AssertionError("parsed line by line")
    text = format_instance(random_block_graph(40, 5, 30, seed=2), comments=["x"])
    paths = _line_end_copies(tmp_path, text)
    expected = _outcome(parse_instance, text)
    monkeypatch.setattr(_linewise, "parse_lines", line_loop)
    assert [_outcome(instance_io.load_instance, p) for p in paths] == [expected] * 3


PEAK_GRAPHS = pytest.mark.parametrize(
    "g", [chain_of_triangles(10 ** 4), random_block_graph(2000, 12, 100, seed=1)],
    ids=["chain", "cliques"])


@PEAK_GRAPHS
def test_sliced_parser_peak_memory(g):
    """The numpy parser holds the text's bytes, its outputs (n weights and
    2m edge ids) and one slice's arrays: at most 1 MiB above the first two."""
    text = format_instance(g)
    tracemalloc.start()
    try:
        assert instance_io._parse_fast(text) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(text) + 8 * (g.n + 2 * g.m) + 2 ** 20, peak


@PEAK_GRAPHS
def test_build_graph_peak_memory(g):
    """build_graph allocates the 2m int64 arc keys that become
    ``adj_indices``, and ``adj_indptr`` with at most two more temporaries
    of its size: no edge-sized copy of the input."""
    parsed = instance_io._parse_fast(format_instance(g))
    tracemalloc.start()
    try:
        built = build_graph(*parsed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.m == g.m
    assert peak <= 16 * g.m + 24 * (g.n + 1) + 2 ** 16, peak


@PEAK_GRAPHS
def test_search_order_peak_memory(g):
    """The search holds no more than the one-vertex loop did, about 112
    bytes a vertex: the offsets as a list of ints and a slice of it, the
    seen flags, the order as a list of ints and as an array."""
    tracemalloc.start()
    try:
        order = search_order(g, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order.shape[0] == g.n
    assert peak <= 112 * (g.n + 1) + 2 ** 16, peak


@PEAK_GRAPHS
def test_certificate_check_peak_memory(g):
    """The check of a pairing compares each arc's target with its source's
    mate, gathered row by row (8 bytes an arc), and holds a few n-sized
    arrays: the mates, the degrees, the members.  No arc keys."""
    vset, _, pairs = pairdom.solve(g, pairs=True)
    tracemalloc.start()
    try:
        assert pairdom.is_paired_dominating_set(g, vset, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 * g.m + 16 * g.n, peak


@PEAK_GRAPHS
def test_sweep_peak_memory(g):
    """The sweep holds the (4, n) weights, its recorded choices and one
    round's arrays: at most 220 bytes a vertex.  The step matrices of a
    long heavy path, built all at once as (16, N) int64, go over it."""
    plan = TreePlan(root_blocks(g, 0))
    tracemalloc.start()
    try:
        plan.sweep(g.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 220 * g.n + 2 ** 16, peak


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
    assert data == {"weight": 8, "set": [1, 2], "n": 2, "blocks": 1, "pairs": [[2, 1]]}


def test_cli_solve_check_json_prints_a_checkable_pairing(tmp_path, capsys):
    g = random_block_graph(60, 5, 30, seed=9)
    path = _write(tmp_path, "g.pd", format_instance(g))
    assert main(["solve", path, "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert list(plain) == ["weight", "set", "n", "blocks"]
    assert main(["solve", path, "--json", "--check"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {k: data[k] for k in plain} == plain
    members = [v - 1 for v in data["set"]]
    pairs = [(u - 1, v - 1) for u, v in data["pairs"]]
    assert sorted(x for p in pairs for x in p) == members
    assert pairdom.is_paired_dominating_set(g, members, pairs)


def test_cli_solve_rejects_non_block_graph(tmp_path, capsys):
    path = _write(tmp_path, "c4.pd", C4_TEXT)
    assert main(["solve", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: vertices 3 and 1 lie on a cycle of 4 vertices but are "
                   "not adjacent, so their block is not a clique\n")


DISCONNECTED_TEXT = "p pdom 4 2\nw 1 1\nw 2 1\nw 3 1\nw 4 1\ne 1 2\ne 3 4\n"


@pytest.mark.parametrize("text, error, witness", [
    (C4_TEXT, "NotBlockGraph", {"cycle": [3, 2, 1, 4], "pair": [3, 1]}),
    (DISCONNECTED_TEXT, "Disconnected", {"root": 1, "unreached": 3}),
], ids=["c4", "disconnected"])
def test_cli_solve_json_error_carries_witness(tmp_path, capsys, text, error, witness):
    path = _write(tmp_path, "bad.pd", text)
    assert main(["solve", path, "--json"]) == 2
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data == {"error": error, "message": err[len("error: "):-1], "witness": witness}
    zero_based = {k: [v - 1 for v in ids] if isinstance(ids, list) else ids - 1
                  for k, ids in witness.items()}
    check_witness(parse_instance(text), getattr(pairdom, error)("", witness=zero_based))


def test_cli_solve_json_error_without_witness(tmp_path, capsys):
    path = _write(tmp_path, "one.pd", "p pdom 1 0\nw 1 4\n")
    assert main(["solve", path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["witness"] is None


def test_cli_solve_rejects_single_vertex(tmp_path, capsys):
    path = _write(tmp_path, "one.pd", "p pdom 1 0\nw 1 4\n")
    assert main(["solve", path]) == 2
    assert "paired-dominating" in capsys.readouterr().err


def test_cli_solve_rejects_disconnected(tmp_path, capsys):
    path = _write(tmp_path, "disc.pd", DISCONNECTED_TEXT)
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


def test_cli_solve_rejects_non_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.pd"
    path.write_bytes(b"c caf\xe9\np pdom 2 1\nw 1 5\nw 2 3\ne 1 2\n")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: not UTF-8 text: byte 0xe9 at offset 5\n"


def test_cli_solve_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    plain = _write(tmp_path, "k2.pd", K2_TEXT)
    marked = tmp_path / "bom.pd"
    marked.write_bytes(b"\xef\xbb\xbf" + K2_TEXT.encode())
    assert main(["solve", plain, "--json"]) == 0
    expected = capsys.readouterr()
    assert main(["solve", str(marked), "--json"]) == 0
    assert capsys.readouterr() == expected
    marked.write_bytes(b"\xef\xbb\xbfc caf\xe9\n")      # the offset counts the mark
    assert main(["solve", str(marked)]) == 2
    assert capsys.readouterr().err == "error: not UTF-8 text: byte 0xe9 at offset 8\n"


def test_cli_missing_file(capsys):
    assert main(["solve", "/nonexistent/file.pd"]) == 2


def test_cli_missing_file_json(capsys):
    assert main(["solve", "/nonexistent/file.pd", "--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "FileNotFoundError", "message": err[len("error: "):-1],
                               "witness": None}
    assert err.startswith("error: ") and "/nonexistent/file.pd" in err


def test_cli_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    """The parser is built once per process; no call leaves state in it
    that changes what a later call prints."""
    chain = _write(tmp_path, "chain.pd", format_instance(chain_of_triangles(7)))
    calls = [["solve", chain, "--json"], ["solve", chain],
             ["gen", "--blocks", "4", "--seed", "2"], ["gen", "--blocks", "0"],
             ["solve", chain, "--check", "--json"], ["solve", chain, "--check"],
             ["solve", chain, "--json"]]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "pairdom.cli", *argv],
                               capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.mark.parametrize("command", ["solve", "decompose"])
def test_cli_directory_as_instance(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


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


# ------------------------------------------------------------------ decompose

def test_cli_decompose(tmp_path, capsys):
    path = _write(tmp_path, "g.pd", format_instance(golden_graph()))
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert "blocks 8" in out
    assert "cut-vertices 6" in out
    assert out.count("block ") == 8
    assert "order:" in out


def test_cli_decompose_numbers_blocks_deepest_first(tmp_path, capsys):
    path = _write(tmp_path, "p3.pd", P3_TEXT)
    assert main(["decompose", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "blocks 2", "cut-vertices 1", "block 1: 2 3", "block 2: 1 2", "cuts: 2",
        "order: 1 2"]


def test_cli_decompose_dot(tmp_path, capsys):
    path = _write(tmp_path, "p3.pd", P3_TEXT)
    assert main(["decompose", path, "--dot"]) == 0
    assert capsys.readouterr().out == (
        'graph blockcut {\n'
        '  B1 [shape=box, label="B1: 3 2"];\n'
        '  B2 [shape=box, label="B2: 2 1"];\n'
        '  c2 [shape=circle, label="2"];\n'
        '  B1 -- c2;\n'
        '  B2 -- c2;\n'
        '}\n')
    path = _write(tmp_path, "g.pd", format_instance(golden_graph()))
    assert main(["decompose", path, "--dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph blockcut {" and lines[-1] == "}"
    # one edge per block-cut incidence: a tree on 8 blocks and 6 cut vertices
    assert sum(" -- " in line for line in lines) == 8 + 6 - 1


@pytest.mark.parametrize("flags", [[], ["--dot"]], ids=["text", "dot"])
def test_cli_decompose_rejects_non_block_graph(tmp_path, capsys, flags):
    path = _write(tmp_path, "c4.pd", C4_TEXT)
    assert main(["decompose", path] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: vertices 3 and 1 lie on a cycle")


@pytest.mark.parametrize("argv", [
    ["gen", "--blocks", "0"],
    ["gen", "--blocks", "3", "--max-size", "1"],
    ["gen", "--blocks", "3", "--wmax", "0"],
    ["verify", "--max-blocks", "0"],
    ["verify", "--max-size", "1"],
    ["verify", "--instances", "-3"],
    ["verify", "--seed", "-1"],
    ["gen", "--blocks", "3", "--seed", "-1"],
    ["gen", "--blocks", "three"],
], ids=" ".join)
def test_cli_rejects_out_of_range_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# -------------------------------------------------------------------- scripts

@pytest.mark.parametrize("args", [["soak_verify.py", "--instances", "20"],
                                  ["bench_scaling.py", "--max-exp", "10", "--repeat", "1"],
                                  ["bench_scaling.py", "--max-exp", "10", "--repeat", "1",
                                   "--family", "random"]],
                         ids=lambda args: " ".join([args[0]] + args[5:]))
def test_script_runs(args):
    script = Path(__file__).resolve().parents[1] / "scripts" / args[0]
    subprocess.run([sys.executable, str(script), *args[1:]], check=True,
                   capture_output=True, timeout=300)


def test_bench_scaling_writes_json(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_scaling.py"
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(script), "--max-exp", "10", "--repeat", "1",
                    "--family", "blocks", "chain", "--json", str(out)],
                   check=True, capture_output=True, timeout=300)
    record = json.loads(out.read_text())
    assert set(record) == {"python", "numpy", "nproc", "commit", "backend", "rows"}
    assert record["backend"] == "numpy" and record["nproc"] >= 1
    keys = {"family", "blocks", "n", "m", "load_s", "load_mb", "time_s", "ns_per_block",
            "decompose_s", "plan_s", "sweep_s", "reconstruct_s", "search_s", "check_s",
            "with_check"}
    assert [row["family"] for row in record["rows"]] == ["blocks", "chain"]
    for row in record["rows"]:
        assert set(row) == keys and row["blocks"] == 1024
        assert all(row[k] is not None for k in keys)
    assert record["rows"][1]["n"] == 2 * 1024 + 1


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_blocks_family_is_a_block_graph():
    """The script's vectorised generator makes a block graph with the
    blocks asked for, each of 2 to 4 vertices."""
    bench = _script("bench_scaling")
    for blocks, seed in [(1, 0), (2, 3), (500, 1)]:
        g = bench.random_blocks(blocks, seed)
        assert is_block_graph(g)
        bct = find_blocks(g)
        assert bct.num_blocks == blocks
        sizes = [len(bct.block_vertices(b)) for b in range(blocks)]
        assert min(sizes) >= 2 and max(sizes) <= 4
        assert 1 <= g.weights.min() and g.weights.max() <= 100


def test_ab_perfbench_claim_rule():
    """A gain is claimed when the change wins 9 of 10 pairs and its
    median beats the parent's by more than the parent's quartile
    distance: 8 wins are too few, and so is a gap inside that distance."""
    summary = _script("ab_perfbench").summary
    parent = [10.0, 10.2, 10.4, 10.1, 10.3, 9.9, 10.0, 10.2, 10.1, 10.3]
    nine = [p - 2 for p in parent[:9]] + [parent[9] + 0.5]
    got = summary(parent, nine, "lower")
    assert (got["wins"], got["losses"], got["claim"]) == (9, 1, True)
    eight = [p - 2 for p in parent[:8]] + [parent[8], parent[9] + 0.5]
    got = summary(parent, eight, "lower")
    assert (got["wins"], got["losses"], got["claim"]) == (8, 1, False)
    close = [p - 0.05 for p in parent]
    got = summary(parent, close, "lower")
    assert got["wins"] == 10 and got["parent"][1] - got["change"][1] < got["spread"]
    assert not got["claim"]
    assert summary(parent, [p + 2 for p in parent], "higher")["claim"]
    assert not summary(parent, [p + 2 for p in parent], "lower")["claim"]


@pytest.mark.parametrize("args", [["bench_scaling.py", "--repeat", "0"],
                                  ["bench_scaling.py", "--max-exp", "9"],
                                  ["bench_scaling.py", "--max-exp", "-3"],
                                  ["soak_verify.py", "--instances", "0"],
                                  ["soak_verify.py", "--seed", "-1"]], ids=" ".join)
def test_script_rejects_out_of_range_arguments(args):
    script = Path(__file__).resolve().parents[1] / "scripts" / args[0]
    run = subprocess.run([sys.executable, str(script), *args[1:]],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "usage:" in run.stderr
