"""Instance file format: UTF-8 text, 1-based vertex ids.

    p pdom <n> <m>
    w <vertex> <weight>     exactly n lines, every vertex once
    e <u> <v>               exactly m lines, u != v

Lines starting with ``c`` are comments and are ignored, as are blank
lines and whitespace around fields.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParseError
from .graph import WeightedGraph, build_graph


def parse_instance(text: str) -> WeightedGraph:
    """Parse the text form of an instance; raises ParseError on any
    deviation from the format (graph-level validation errors, such as
    duplicate edges, propagate from build_graph).  Text in the plain layout
    is read with numpy; any other goes through the line loop."""
    parsed = _parse_fast(text)
    if parsed is None:
        from ._linewise import parse_lines     # loaded on first use
        return parse_lines(text)
    return build_graph(*parsed)


def _parse_fast(text: str):
    """``(n, weights, edges)`` read with numpy over the bytes of ``text``,
    or None unless it is a valid instance in the plain layout: ASCII, lines
    ended by ``\\n``, fields split by one space, comments with ``c`` in
    column 0, numbers of at most 18 digits.  The line loop
    (``_linewise.parse_lines``) takes every other input, and gives the
    error of a malformed one.  Per-byte arrays are uint8 or bool; the int
    arrays hold one entry per field."""
    if not text.isascii():
        return None
    data = (text if text.endswith("\n") else text + "\n").encode()
    b = np.frombuffer(data, np.uint8)
    if b"c" in data or b"\n\n" in data or data[0] == 10:   # comments, blank lines
        ends = np.flatnonzero(b == 10)
        if np.count_nonzero(b < 32) != ends.size:
            return None                 # tabs, \r and other control bytes
        starts = np.concatenate(([0], ends[:-1] + 1))
        skip = (b[starts] == 10) | (b[starts] == ord("c"))
        b = b[~np.repeat(skip, ends - starts + 1)]
        del ends, starts, skip
    del data
    # fields end at a space or a newline (any other byte up to 32 fails the
    # count below): the header's four, then three a line
    end = np.flatnonzero(b <= 32)
    rows = (end.size - 4) // 3
    sep = b[end]
    eol = sep == 10
    if (rows < 0 or not eol[3] or not eol[6::3].all()
            or np.count_nonzero(sep == 32) != end.size - rows - 1):
        return None
    head = b[:end[3]].tobytes().split(b" ")
    if head[:2] != [b"p", b"pdom"] or not all(t.isdigit() and len(t) <= 18 for t in head[2:]):
        return None
    n, m = int(head[2]), int(head[3])
    # then lines of a one-byte type and two numbers
    end = end[3:]
    kind = b[end[1::3] - 1]
    is_w = kind == ord("w")
    gap = np.diff(end).reshape(rows, 3)             # field length + 1
    if (gap[:, 0] != 2).any() or not (is_w | (kind == ord("e"))).all():
        return None
    length = np.subtract(gap[:, 1:], 1).ravel()
    top = int(length.max(initial=0))
    at = np.subtract(end[1:].reshape(rows, 3)[:, 1:], top).ravel()
    del sep, eol, end, gap, kind
    if length.size and (length.min() < 1 or top > 18):
        return None
    # the numbers, right-aligned, digit by digit from the left; a read left
    # of a shorter number is masked (the first number ends 13 or more bytes
    # in, so an index is -4 at the lowest, which numpy reads from the end)
    val = np.zeros(length.size, dtype=np.int64)
    for k in range(top - 1, -1, -1):
        digit = b[at]
        digit -= ord("0")
        digit *= length > k
        if (digit > 9).any():
            return None
        val *= 10
        val += digit
        at += 1
    del b, length, at
    val = val.reshape(rows, 2)
    wv, e = np.compress(is_w, val, axis=0), np.compress(~is_w, val, axis=0)
    e -= 1
    v = wv[:, 0] - 1
    if (wv.shape[0] != n or e.shape[0] != m or n and (v.min() < 0 or v.max() >= n)
            or m and (e.min() < 0 or e.max() >= n)):
        return None
    seen = np.zeros(n, dtype=bool)
    seen[v] = True
    weights = np.zeros(n, dtype=np.int64)
    weights[v] = wv[:, 1]
    return (n, weights, e) if seen.all() else None


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
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                             f"at offset {exc.start}") from None
    return parse_instance(text)


def save_instance(g: WeightedGraph, path, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_instance(g, comments))
