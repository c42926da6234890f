"""Instance file format: UTF-8 text, 1-based vertex ids.

    p pdom <n> <m>
    w <vertex> <weight>     exactly n lines, every vertex once
    e <u> <v>               exactly m lines, u != v

Lines starting with ``c`` are comments and are ignored, as are blank
lines and whitespace around fields.  A leading byte-order mark is dropped,
and ``\\r\\n`` and ``\\r`` end lines as ``\\n`` does.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .errors import ParseError
from .graph import WeightedGraph, build_graph

_SLICE = 1 << 16    # bytes a numpy pass reads; more outgrow malloc's 128 KiB mmap threshold
_ROWS = 1 << 16     # lines the writer formats at a time
_HEAD = re.compile(rb"(?:c[ -\x7f]*\n|\n)*p pdom (\d{1,18}) (\d{1,18})(?:\n|\Z)")


def parse_instance(text: str) -> WeightedGraph:
    """Parse the text form of an instance; raises ParseError on any
    deviation from the format (graph-level validation errors, such as
    duplicate edges, propagate from build_graph)."""
    return _parse(text)


def _parse(data) -> WeightedGraph:
    """The graph in ``data``, text or bytes.  A caller that passes its only
    reference to the bytes has them freed before build_graph allocates."""
    parsed = _parse_fast(data)
    if parsed is None:
        from ._linewise import parse_lines     # loaded on first use
        return parse_lines(data if isinstance(data, str) else data.decode())
    del data
    return build_graph(*parsed)


def _parse_fast(data):
    """``(n, weights, edges)`` read with numpy from ``data`` (bytes, or text
    to encode), or None unless it is a valid instance in the plain layout:
    ASCII, lines ended by ``\\n``, fields split by one space, comments with
    ``c`` in column 0, numbers of at most 18 digits; the line loop takes any
    other input.  The lines after the header are read in slices cut after a
    newline, into arrays of the header's sizes."""
    if isinstance(data, str):
        data = data.encode(errors="surrogatepass")
    head = _HEAD.match(data)
    if head is None or not data.isascii():
        return None
    n, m, lo = int(head[1]), int(head[2]), head.end()
    if 6 * (n + m) > len(data) - lo + 1:      # a line takes 6 bytes or more
        return None
    weights = np.full(n, -1, dtype=np.int64)
    edges = np.empty((m, 2), dtype=np.int64)
    buf, nw, ne = np.frombuffer(data, np.uint8), 0, 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _SLICE - 1) + 1 or len(data)
        b = buf[lo:hi] if data[hi - 1] == 10 else np.append(buf[lo:hi], np.uint8(10))
        if data.find(b"c", lo, hi) >= 0 or data.find(b"\n\n", lo - 1, hi) >= 0:
            ends = np.flatnonzero(b == 10)      # drop comment and blank lines
            if np.count_nonzero(b < 32) != ends.size:
                return None                     # tabs, \r and other control bytes
            starts = np.concatenate(([0], ends[:-1] + 1))
            skip = (b[starts] == 10) | (b[starts] == ord("c"))
            b = b[~np.repeat(skip, ends - starts + 1)]
        lo = hi
        # lines of a type byte after a newline (b[-1] on the first) and two numbers;
        # a field ends at a space or a newline, any other byte up to 32 fails
        end = np.flatnonzero(b <= 32)
        if end.size % 3:
            return None
        end = end.reshape(-1, 3)
        length = np.diff(end)       # of the numbers, plus 1
        kind, top = b[end[:, 0] - 1], int(length.max(initial=1)) - 1
        is_w = kind == ord("w")
        if ((b[end] != (32, 32, 10)).any() or (b[end[:, 0] - 2] != 10).any() or top > 18
                or not (is_w | (kind == ord("e"))).all() or length.min(initial=2) < 2):
            return None
        # the numbers, right-aligned, digit by digit from the left; a read left
        # of a shorter one is masked (an index >= 3 - top wraps within b)
        at = end[:, 1:] - top
        del end
        val = np.zeros(at.shape, dtype=np.int64)
        for k in range(top, 0, -1):
            digit = b[at]
            digit -= ord("0")
            digit *= length > k
            if (digit > 9).any():
                return None
            val *= 10
            val += digit
            at += 1
        w = np.compress(is_w, val, axis=0)
        nw, ne = nw + w.shape[0], ne + val.shape[0] - w.shape[0]
        if nw > n or ne > m or w[:, 0].min(initial=1) < 1 or w[:, 0].max(initial=0) > n:
            return None
        weights[w[:, 0] - 1] = w[:, 1]
        np.compress(~is_w, val, axis=0, out=edges[ne - val.shape[0] + w.shape[0]:ne])
        del length, at, val, w      # before the next slice allocates its own
    edges -= 1
    bad = nw != n or ne != m or weights.min(initial=0) < 0 or m and edges.max() >= n
    return None if bad or edges.min(initial=0) < 0 else (n, weights, edges)


def format_instance(g: WeightedGraph, comments: Iterable[str] = ()) -> str:
    """Canonical text form: comments, header, weights ascending, edges
    sorted ascending.  Byte-stable for a given graph."""
    return "".join(_chunks(g, comments))


def _chunks(g: WeightedGraph, comments: Iterable[str]):
    """The canonical text in pieces of at most ``_ROWS`` lines each."""
    yield "".join(f"c {c}\n" for c in comments) + f"p pdom {g.n} {g.m}\n"
    for kind, a, b in [("w", np.arange(1, g.n + 1), g.weights), ("e", *(g.edges + 1).T)]:
        for i in range(0, a.shape[0], _ROWS):
            yield "".join(f"{kind} {x} {y}\n" for x, y in
                          zip(a[i:i + _ROWS].tolist(), b[i:i + _ROWS].tolist()))


def load_instance(path) -> WeightedGraph:
    return _parse(_read(path))


def _read(path) -> bytes:
    """The bytes of the file at ``path`` as text mode would decode them,
    without a leading byte-order mark; raises ParseError unless UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    bom = 3 * data.startswith(b"\xef\xbb\xbf")
    data = data[bom:]
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                             f"at offset {exc.start + bom}") from None
    if b"\r" in data:       # text mode's line ends
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def save_instance(g: WeightedGraph, path, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(_chunks(g, comments))
