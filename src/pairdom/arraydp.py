"""The block-graph dynamic program, evaluated on whole arrays.

Vertex states.  A vertex ``v`` tops the subgraph below it, and has four
weights there, indexed by :class:`StateKind` (short names in brackets):

  P_PRIME = 0  [Q]  paired-dominating set avoiding v
  P_BAR   = 1  [R]  paired-dominating set of all but v, leaving v undominated
  P       = 2  [P]  paired-dominating set containing v
  D       = 3  [D]  dominating set containing v, all of it but v perfectly matched

Block fold.  The children of a block combine into four weights, indexed
by what they bring to the block's attachment, an element of a monoid:

  EN = 0  an even number of D-children, none in the set, none in state R
  EP = 1  even, none in the set, some in state R (needing a dominator)
  EI = 2  even, some child in the set
  OI = 3  an odd number of D-children (so some child in the set)

A child in state Q, R, P or D brings EN, EP, EI or OI, the element with
the same index, so the block's weights are the min-plus product of its
children's over this monoid (``F``).

Vertex fold.  The blocks hanging from a vertex combine likewise (``H``):
HE = 0, every block even; HO = 1, one block odd and the rest even;
HI = 2, every block EN or EI and some block EI; HN = 3, every block EN.
A block brings ``(min(EN, EP, EI), OI, EI, EN)`` of its weights, and the
vertex's own weights are ``Q = HI``, ``R = HN``, ``P = HO + w`` and
``D = HE + w``.  These are the merge equations of the four-state
program, written as two folds.

Evaluation.  With every other input fixed, a vertex's weights are
min-plus linear in those of any one child.  The vertices are split into
heavy paths (each vertex continues its path into the child with the
largest subtree), and the paths are handled in rounds, deepest light
depth first, so a path's light children are done before it.  The folds
of a round multiply over a tree on the offsets within each segment
(:func:`_fold`).  Along a path, x_j = M_j x_(j+1) with M_j a 4x4
min-plus step matrix.  :func:`_paths` scans paths of at most ``_PIECE``
vertices height by height, one numpy step per height for all of them;
a longer path is first cut from its bottom into pieces of ``_PIECE``,
and its lower pieces are composed and their tops found the same way.
Below ``_NARROW`` columns, where numpy calls cost more than arithmetic,
a product or a step matrix takes all its terms in one gather, not one
at a time.  A vertex lies below at most log2(n) light edges, so there
are O(log n) rounds of O(log n) scans, and O(n) work in all.

Reconstruction reads back what the sweep chose.  Each choice takes the
first minimum in a fixed order: the pair order of the folds, and along a
path the order of :func:`_path_combos`'s ways.  The sweep records them
once, in uint8: per level of each fold the first cheapest pair for each
target, per path vertex the first cheapest way to each of its states,
and per block that is not heavy the cheapest of EN, EP and EI.  The
rounds then run top down with gathers only.  The heavy child's state in
each way makes a map on the four states, and :func:`_paths` carries the
top's state down these maps by the same scan, run over the reversed
path; the folds are undone down their offset trees from the recorded
pairs.  All sums saturate at ``INFEASIBLE``.
"""

from __future__ import annotations

from enum import IntEnum
from types import SimpleNamespace

import numpy as np

from .rooted import RootedBlocks, _heads
from .weights import INFEASIBLE as INF


class StateKind(IntEnum):
    """The four vertex states, numbered as the rows of the sweep's weights."""

    P_PRIME = 0
    P_BAR = 1
    P = 2
    D = 3


Q, R, P, D = map(int, StateKind)
EN, EP, EI, OI = 0, 1, 2, 3
HE, HO, HI, HN = 0, 1, 2, 3


class _Monoid:
    """A min-plus product over a four-element monoid: out[z] is the least
    a[x] + b[y] over the pairs (x, y) listed for z, ties going to the
    first listed.  ``one`` is its identity; ``x`` and ``y`` (4, k) hold
    the pairs of each z in order, padded to k with its first pair, so
    that pair j of z has factors x[z, j] and y[z, j]."""

    def __init__(self, pairs, one):
        self.pairs = pairs
        self.one = np.array(one, dtype=np.int64)
        k = max(map(len, pairs))
        self.x, self.y = np.array([zp + zp[:1] * (k - len(zp)) for zp in pairs]).transpose(2, 0, 1)


F = _Monoid((((EN, EN),),
             ((EN, EP), (EP, EN), (EP, EP)),
             ((EN, EI), (EP, EI), (EI, EN), (EI, EP), (EI, EI), (OI, OI)),
             ((EN, OI), (EP, OI), (EI, OI), (OI, EN), (OI, EP), (OI, EI))),
            (0, INF, INF, INF))
H = _Monoid((((HE, HE),),
             ((HO, HE), (HE, HO)),
             ((HN, HI), (HI, HI), (HI, HN)),
             ((HN, HN),)),
            (0, INF, INF, 0))
BLOCK_OUT = ((EN, EP, EI), (OI,), (EI,), (EN,))     # H[h] = min of F over these
STATE_H = np.array([HI, HN, HO, HE])                # vertex state -> H entry


def _path_combos():
    """The ways (s, a, g, y) a path vertex reaches state s: with entry a
    of the H of its other blocks, entry g of the F of its heavy block's
    light children, and its heavy child in state y.  Returns the a, g and
    y of each way, sorted stably by (s, y) so that the first cheapest way
    breaks ties, and where the ways of each s start; and for the step
    matrix, the distinct sets of sums 4 a + g (16 standing for INF) that
    feed a row, padded with their firsts, and the set of each row 4 s + y."""
    out = []
    for s in range(4):
        for a, b in H.pairs[STATE_H[s]]:
            for f in BLOCK_OUT[b]:
                for g, y in F.pairs[f]:
                    if (s, a, g, y) not in out:
                        out.append((s, a, g, y))
    out.sort(key=lambda way: (way[0], way[3]))
    s, a, g, y = (np.array(col) for col in zip(*out))
    feeds = [tuple(sorted(set((4 * a + g)[4 * s + y == c].tolist()))) or (16,)
             for c in range(16)]
    unique = list(dict.fromkeys(feeds))
    k = max(map(len, unique))
    return (a, g, y.astype(np.uint8), np.searchsorted(s, np.arange(5)).tolist(),
            np.array([f + f[:1] * (k - len(f)) for f in unique]),
            np.array([unique.index(f) for f in feeds]))


_WA, _WG, _WY, _WAYS_OF, _FEEDS, _FEED_ROW = _path_combos()
_SHIFT = 2 * np.arange(4, dtype=np.uint8)[:, None]


# ----------------------------------------------------------------- min-plus

_CHUNK = 2048       # columns per call of a kernel below: in cache, small temporaries
_PIECE = 16         # ops of a path piece, the steps of one scan in _paths
_NARROW = 128       # columns below which a product takes all its terms at once


def _chunked(f, *args):
    """``f(*args)`` over chunks of ``_CHUNK`` columns (the last axis) of
    its array arguments, joined; other arguments pass whole.  Each chunk
    of an array is a view, so what ``f`` writes to one lands in it."""
    n = args[0].shape[-1]
    if n <= _CHUNK:
        return f(*args)
    out = None
    for lo in range(0, n, _CHUNK):
        part = f(*(a[..., lo:lo + _CHUNK] if isinstance(a, np.ndarray) else a for a in args))
        if out is None:
            out = np.empty(part.shape[:-1] + (n,), dtype=part.dtype)
        out[..., lo:lo + _CHUNK] = part
    return out


def _sat(x):
    return np.minimum(x, INF, out=x)


def _product(a, b, best, m):
    """Columnwise product of (4, N) weight arrays in the monoid ``m``.
    Also writes to ``best`` (4, N) the first cheapest pair for each entry,
    as its index among the pairs of its target (``argmin`` takes the
    first)."""
    if a.shape[1] < _NARROW:
        cost = a.take(m.x, axis=0) + b.take(m.y, axis=0)       # (4, k, N)
        best[...] = cost.argmin(axis=1)
        return _sat(cost.min(axis=1))
    out = np.empty(a.shape, dtype=np.int64)
    cost = np.empty(a.shape[1], dtype=np.int64)
    less = np.empty(a.shape[1], dtype=bool)
    for total, pick, ((x, y), *rest) in zip(out, best, m.pairs):
        np.add(a[x], b[y], out=total)
        pick.fill(0)
        for j, (x, y) in enumerate(rest, 1):
            np.add(a[x], b[y], out=cost)
            np.less(cost, total, out=less)
            np.minimum(total, cost, out=total)
            np.putmask(pick, less, j)
    return _sat(out)


def _fold(x, seg, nseg, m):
    """Fold the columns of ``x`` (4, N) within segments ``seg`` (sorted,
    in [0, nseg)) in the monoid ``m``: at level l, the element at offset
    o = 0 (mod 2^(l+1)) of its segment absorbs the one at o + 2^l, those
    whose offset has 2^l as its lowest set bit, so the total ends at
    offset 0.  Returns the (4, nseg) totals, ``m.one`` for empty
    segments, and what :func:`_unfold` needs: per level the left
    elements, the distance to their right partners and, for each left one
    and each target, its first cheapest pair (uint8); and ``seg``."""
    size = np.bincount(seg, minlength=nseg)
    start = size.cumsum() - size
    off = np.arange(seg.shape[0]) - start[seg]
    low = off & -off                            # 2^l for the one absorbed at level l
    levels = []
    while True:
        s = 1 << len(levels)
        right = (low == s).nonzero()[0]
        if not right.size:
            break
        if not levels:
            x = x.copy()
        left = right - s
        best = np.empty((4, left.shape[0]), dtype=np.uint8)
        x[:, left] = _chunked(_product, x.take(left, axis=1), x.take(right, axis=1), best, m)
        levels.append((left, s, best))
    out = m.one[:, None].repeat(nseg, axis=1)
    full = size.nonzero()[0]
    out[:, full] = x.take(start[full], axis=1)
    return out, (levels, seg)


def _unfold(folded, target, m):
    """Per-column choices of a fold, given the chosen entry of each
    segment's total."""
    levels, seg = folded
    t = target[seg]
    for left, s, best in reversed(levels):
        z = t[left]
        pick = best[z, np.arange(left.shape[0])] + m.x.shape[1] * z     # in the flat pairs
        t[left + s] = m.y.take(pick)
        t[left] = m.x.take(pick)
    return t


def _paths(take, compose, apply, seg, end):
    """Values along paths, the segments of ``seg``: x_j = op_j(x_(j+1))
    within a path, and x beyond a path's last op is ``end[..., seg]``.
    ``take(idx)`` gives the ops at columns ``idx``, ``compose(a, b)`` the
    op a(b(.)) and ``apply(a, x)`` the value a(x); ops and values are
    arrays over their last axis.

    Paths of at most ``_PIECE`` ops are scanned from their bottoms, height
    by height: the columns are laid out by height and within it by path,
    largest first, so that each step applies the ops of one slice.  A
    longer path is first cut from its bottom into pieces of ``_PIECE``
    ops, the top piece taking the rest; the lower pieces' composites give
    by recursion the value below each piece, and the pieces are scanned."""
    n = seg.shape[0]
    head = _heads(seg)
    first = head.nonzero()[0]
    path = head.cumsum() - 1
    size = np.bincount(path)
    height = (first + size - 1)[path] - np.arange(n)       # ops below each in its path
    end = end[..., seg[first]]
    if size.max() > _PIECE:
        height %= _PIECE
        low = np.flatnonzero(height == _PIECE - 1)
        low = low[~head[low]]                           # the lower pieces' tops
        comp = take(low + _PIECE - 1)
        for h in range(_PIECE - 2, -1, -1):
            comp = _chunked(lambda i, c: compose(take(i), c), low + h, comp)
        tops = _paths(lambda i: comp.take(i, axis=-1), compose, apply, path[low], end)
        head[low] = True                                # now the pieces' tops
        end = end.take(path[head], axis=-1)
        path = head.cumsum() - 1
        end[..., path[low] - 1] = tops                  # below the piece above each
    order = (-height[head]).argsort(kind="stable")      # the paths, tallest first
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    count = np.bincount(height)                         # the paths reaching each height
    at = count.cumsum() - count
    col = at[height] + rank[path]
    perm = np.empty(n, dtype=np.int64)
    perm[col] = np.arange(n)
    x = end.take(order, axis=-1)
    out = np.empty(end.shape[:-1] + (n,), dtype=end.dtype)
    ops = take(perm) if n <= _CHUNK else None          # then each step applies a slice
    for lo, c in zip(at.tolist(), count.tolist()):
        e = x[..., :c]
        x = out[..., lo:lo + c] = (apply(ops[..., lo:lo + c], e) if ops is not None else
                                   _chunked(lambda i, e: apply(take(i), e), perm[lo:lo + c], e))
    return out.take(col, axis=-1)


def _matmul(a, b):
    """Columnwise product of 4x4 min-plus matrices stored as (16, N)."""
    a = a.reshape(4, 4, -1)
    b = b.reshape(4, 4, -1)
    out = a[:, 0, None] + b[0]
    for k in range(1, 4):
        np.minimum(out, a[:, k, None] + b[k], out=out)
    return _sat(out).reshape(16, -1)


def _matvec(a, x):
    return _sat((a.reshape(4, 4, -1) + x).min(axis=1))


def _step_matrix(hp, g, w):
    """Matrix from a path vertex's heavy child's weights to its own,
    given the H of its other blocks, the F of its heavy block's other
    children and its own weight."""
    sums = np.empty((17, g.shape[1]), dtype=np.int64)
    np.add(hp[:, None], g[None], out=sums[:16].reshape(4, 4, -1))
    sums[16] = INF
    if g.shape[1] < _NARROW:
        rows = sums.take(_FEEDS, axis=0).min(axis=1)
    else:
        rows = np.empty((len(_FEEDS), g.shape[1]), dtype=np.int64)
        for row, (first, *rest) in zip(rows, map(dict.fromkeys, _FEEDS.tolist())):
            row[...] = sums[first]
            for f in rest:
                np.minimum(row, sums[f], out=row)
    out = rows[_FEED_ROW]
    out[8:] += w
    return _sat(out)


def _chain(hp, g, w, seg, tail):
    """Weights along heavy paths: x_j = M_j x_(j+1) within each path, M_j
    the step matrix of column j, and x below a path's last matrix
    ``tail[:, seg]``.  The matrices are built once if they fit in one
    chunk, and otherwise as they are needed, from the inputs of each
    column side by side, so that a step gathers one row per column."""
    if seg.shape[0] <= _CHUNK:
        mats = _step_matrix(hp, g, w)
        return _paths(lambda i: mats.take(i, axis=1), _matmul, _matvec, seg, tail)
    cols = np.empty((seg.shape[0], 9), dtype=np.int64)     # C order, or take copies it
    np.concatenate((hp.T, g.T, w[:, None]), axis=1, out=cols)
    return _paths(lambda i: _step_matrix(*np.split(cols.take(i, axis=0).T, (4, 8))),
                  _matmul, _matvec, seg, tail)


def _compose_maps(f, g):
    """Maps on the four states, coded as f(0) + 4 f(1) + 16 f(2) + 64 f(3)
    in uint8, composed columnwise: f(g(.))."""
    return np.bitwise_or.reduce((f >> 2 * (g >> _SHIFT & 3) & 3) << _SHIFT, axis=0)


def _apply_maps(f, s):
    return f >> 2 * s & 3


def _choices(hp, g, x):
    """For each state of a path vertex, the first cheapest way to reach
    it, given the H of its other blocks, the F of its heavy block's light
    children and its heavy child's weights ``x``."""
    out = np.empty((4, x.shape[1]), dtype=np.uint8)
    for s, (lo, hi) in enumerate(zip(_WAYS_OF, _WAYS_OF[1:])):
        cost = hp.take(_WA[lo:hi], axis=0) + g.take(_WG[lo:hi], axis=0)
        cost += x.take(_WY[lo:hi], axis=0)
        out[s] = lo + cost.argmin(axis=0)
    return out


def _ranges(lo, hi):
    """Concatenated ranges [lo[i], hi[i]) and the i of each element."""
    cnt = hi - lo
    owner = np.repeat(np.arange(lo.shape[0]), cnt)
    start = np.cumsum(cnt) - cnt
    return np.arange(owner.shape[0]) - start[owner] + lo[owner], owner


# --------------------------------------------------------------------- plan

class TreePlan:
    """Heavy paths of the rooted block tree, and the rounds over them.

    The vertices with blocks are laid out round by round (light depth
    descending is the sweep order), path by path, each path top down; the
    blocks and their light children follow the layout of the attachments,
    so each round reads contiguous slices."""

    def __init__(self, rb: RootedBlocks):
        n = rb.parent.shape[0]
        # the blocks come grouped by attachment in search order, root first
        first = _heads(rb.attach)
        inner = rb.attach[first]
        k = inner.shape[0]
        index = np.full(n, -1, dtype=np.int64)
        index[inner] = np.arange(k)
        up = index[rb.parent[inner[1:]]]            # nondecreasing: search order
        par = up.tolist()
        desc = np.add.reduceat(rb.block_ptr[1:] - rb.block_ptr[:-1],
                               first.nonzero()[0]).tolist()          # children
        for i, p in zip(range(k - 1, 0, -1), reversed(par)):
            desc[p] += desc[i]
        desc = np.array(desc, dtype=np.int64)
        heavy = np.full(k, -1, dtype=np.int64)      # child with the most descendants
        if k > 1:
            first = _heads(up).nonzero()[0]
            group = np.cumsum(_heads(up)) - 1
            most = np.maximum.reduceat(desc[1:], first)
            pick = np.flatnonzero(desc[1:] == most[group])
            pick = pick[_heads(group[pick])]
            heavy[up[pick]] = pick + 1
        # the top of each vertex's path, by pointer jumping up heavy edges
        head = np.arange(k)
        child = np.arange(1, k)
        on_path = heavy[up] == child
        head[child[on_path]] = up[on_path]
        while True:
            above = head[head]
            if (above == head).all():
                break
            head = above
        # light depth: a path's top hangs one below the path of its parent
        tops = np.flatnonzero(head == np.arange(k))[1:]
        above = head[up[tops - 1]]
        depth = np.zeros(k, dtype=np.int64)
        while tops.size:
            below = depth[above] + 1
            if (below == depth[tops]).all():
                break
            depth[tops] = below
        depth = depth[head]
        layout = np.lexsort((np.arange(k), head, depth))
        self.bounds = np.searchsorted(depth[layout], np.arange(int(depth.max()) + 2))
        self.verts = inner[layout]
        head = head[layout]
        self.new_path = _heads(head)
        self.heavy = np.where(heavy >= 0, inner[heavy], -1)[layout]
        pos = np.full(n, -1, dtype=np.int64)
        pos[self.verts] = np.arange(k)

        order = np.argsort(pos[rb.attach], kind="stable")
        self.attach_pos = pos[rb.attach][order]
        hvb = self.heavy[self.attach_pos]
        self.is_heavy = (hvb >= 0) & (rb.block_of[hvb] == order)
        kpos, kblock = _ranges(rb.block_ptr[order], rb.block_ptr[order + 1])
        kids = rb.kids[kpos]
        is_light = kids != self.heavy[self.attach_pos[kblock]]
        self.light = kids[is_light]
        self.light_seg = kblock[is_light]
        self.block_bounds = np.searchsorted(self.attach_pos, self.bounds)
        self.light_bounds = np.searchsorted(self.light_seg, self.block_bounds)
        # each light child's block, counted from the first block of its round
        self.light_seg -= np.repeat(self.block_bounds[:-1],
                                    self.light_bounds[1:] - self.light_bounds[:-1])

    @property
    def rounds(self) -> int:
        return self.bounds.shape[0] - 1

    def round(self, r: int) -> SimpleNamespace:
        """The index slices of round ``r``:

        verts, seg, heavy: its path vertices, path by path and each path
            top down; the path of each (from 0); the heavy child of each,
            -1 at a path's bottom.
        mid: the vertices with a heavy child.
        owner: for each block attached at verts, the index of its attachment.
        heavy_block, other: the blocks holding their attachment's heavy
            child, and the rest; the heavy blocks are in the order of
            their attachments, so they line up with mid.
        light, light_seg: the children of those blocks other than heavy
            children, and the block of each.
        """
        lo, hi = self.bounds[r], self.bounds[r + 1]
        b0, b1 = self.block_bounds[r], self.block_bounds[r + 1]
        l0, l1 = self.light_bounds[r], self.light_bounds[r + 1]
        heavy = self.heavy[lo:hi]
        is_heavy = self.is_heavy[b0:b1]
        return SimpleNamespace(verts=self.verts[lo:hi], seg=self.new_path[lo:hi].cumsum() - 1,
                               heavy=heavy, mid=(heavy >= 0).nonzero()[0],
                               owner=self.attach_pos[b0:b1] - lo,
                               heavy_block=is_heavy.nonzero()[0], other=(~is_heavy).nonzero()[0],
                               light=self.light[l0:l1], light_seg=self.light_seg[l0:l1])

    def sweep(self, weights: np.ndarray) -> tuple:
        """Weights (4, n) of every vertex, leaves keeping their initial
        ones, and per round the choices that :meth:`reconstruct` reads
        back: the first cheapest pairs of both folds, each path vertex's
        first cheapest way to each state, and which of EN, EP and EI is
        cheapest for each block that is not heavy."""
        val = np.array([[INF], [0], [INF], [0]]).repeat(weights.shape[0], axis=1)
        val[D] = weights                            # Q, R and P as at a leaf
        choices = [None] * self.rounds
        for r in reversed(range(self.rounds)):
            rd = self.round(r)
            f, f_fold = _fold(val.take(rd.light, axis=1), rd.light_seg, rd.owner.shape[0], F)
            fo = f.take(rd.other, axis=1)
            he = fo[:3].argmin(axis=0).astype(np.uint8)    # the entry each brings to HE
            out = fo[[EN, OI, EI, EN]]                  # the H that each block brings
            np.minimum(out[HE], np.minimum(fo[EP], fo[EI]), out=out[HE])
            hp, h_fold = _fold(out, rd.owner[rd.other], rd.verts.shape[0], H)
            bottom = rd.heavy < 0
            vb = rd.verts[bottom]
            quad = hp[:, bottom][[HI, HN, HO, HE]]
            quad[2:] += weights[vb]
            val[:, vb] = _sat(quad)
            way = None
            if rd.mid.size:
                heavy, vm, seg = rd.heavy, rd.verts[rd.mid], rd.seg[rd.mid]
                hp, g = hp.take(rd.mid, axis=1), f.take(rd.heavy_block, axis=1)
                rd = f = fo = out = None        # free what the chain does not need
                val[:, vm] = _chain(hp, g, weights[vm], seg, val[:, vb])
                way = _chunked(_choices, hp, g, val.take(heavy[heavy >= 0], axis=1))
            choices[r] = (f_fold, h_fold, way, he)
        return val, choices

    def reconstruct(self, val: np.ndarray, choices: list, root: int) -> np.ndarray:
        """State of every vertex in the optimum, top down from ``root``,
        from the weights and choices of a :meth:`sweep`."""
        state = np.full(val.shape[1], -1, dtype=np.intp)
        state[root] = P if val[P, root] <= val[Q, root] else Q
        for r, (f_fold, h_fold, way, he) in enumerate(choices):
            rd = self.round(r)
            mid = rd.mid
            block_t = np.empty(rd.owner.shape[0], dtype=np.intp)
            if mid.size:
                maps = np.bitwise_or.reduce(_WY[way] << _SHIFT, axis=0)[::-1]
                tops = rd.verts[_heads(rd.seg)]
                state[rd.heavy[mid][::-1]] = _paths(lambda i: maps[i], _compose_maps, _apply_maps,
                                                    rd.seg[mid][::-1], state[tops])
            s = state[rd.verts]
            a = STATE_H[s]
            if mid.size:
                pick = way[s[mid], np.arange(mid.shape[0])]
                a[mid] = _WA[pick]
                block_t[rd.heavy_block] = _WG[pick]
            ht = _unfold(h_fold, a, H)
            ft = np.where(ht == HO, OI, np.where(ht == HI, EI, EN))
            is_he = ht == HE
            ft[is_he] = he[is_he]
            block_t[rd.other] = ft
            state[rd.light] = _unfold(f_fold, block_t, F)
        return state
