"""Instance file format: text, LF line endings, 1-based vertex ids.

    p pdom <n> <m>
    w <vertex> <weight>     exactly n lines, every vertex once
    e <u> <v>               exactly m lines, u != v

Lines starting with ``c`` are comments and are ignored.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError
from .graph import WeightedGraph, build_graph


def parse_instance(text: str) -> WeightedGraph:
    """Parse the text form of an instance; raises ParseError on any
    deviation from the format (graph-level validation errors, such as
    duplicate edges, propagate from build_graph)."""
    n = m = None
    weights = None
    weight_seen = None
    edges = []
    lines = text.splitlines()
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "pdom":
                raise ParseError(f"line {lineno}: expected 'p pdom <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header fields") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative sizes")
            if n > len(lines) or m > len(lines):
                raise ParseError(f"line {lineno}: sizes {n} {m} exceed the "
                                 f"file's {len(lines)} lines")
            weights = [None] * n
            weight_seen = 0
        elif parts[0] == "w":
            if n is None:
                raise ParseError(f"line {lineno}: 'w' before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'w <vertex> <weight>'")
            try:
                v, w = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer weight line") from None
            if not (1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex {v} out of range 1..{n}")
            if w < 0:
                raise ParseError(f"line {lineno}: negative weight {w}")
            if weights[v - 1] is not None:
                raise ParseError(f"line {lineno}: duplicate weight for vertex {v}")
            weights[v - 1] = w
            weight_seen += 1
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: 'e' before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge line") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: edge ({u}, {v}) out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    del lines       # free the lines before build_graph allocates its arrays
    if n is None:
        raise ParseError("missing 'p pdom' header")
    if weight_seen != n:
        raise ParseError(f"expected {n} weight lines, got {weight_seen}")
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, got {len(edges)}")
    return build_graph(n, weights, edges)


def format_instance(g: WeightedGraph, comments: Iterable[str] = ()) -> str:
    """Canonical text form: comments, header, weights ascending, edges
    sorted ascending.  Byte-stable for a given graph."""
    out = [f"c {c}" for c in comments]
    out.append(f"p pdom {g.n} {g.m}")
    for v in range(g.n):
        out.append(f"w {v + 1} {int(g.weights[v])}")
    for u, v in sorted((int(u), int(v)) for u, v in g.edges):
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def load_instance(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(f.read())


def save_instance(g: WeightedGraph, path, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_instance(g, comments))
