"""The line-by-line instance parser, behind ``parse_instance`` for
malformed files and for layouts other than the plain one.  It loads on
first use: files in the plain layout never need it, and compiling it
would add to every import of the CLI."""

from __future__ import annotations

from .errors import ParseError
from .graph import WeightedGraph, build_graph


def parse_lines(text: str) -> WeightedGraph:
    """Parse ``text`` line by line: any layout is taken, and an error
    names the first malformed line."""
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
