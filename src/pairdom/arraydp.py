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
depth first, so a path's light children are done before it.  Within a
round the folds run as segmented pairwise reductions, and each path is a
chain of 4x4 min-plus matrices, evaluated by recursive pairing.  A vertex
lies below at most log2(n) light edges, so there are O(log n) rounds of
O(log n) numpy steps each, and O(n) work in all.

Reconstruction runs the rounds again top down.  Each choice takes the
first minimum in a fixed order: the pair order of the folds, and the
order of :func:`_path_combos` along a path.  A path's states follow from
its top's state by composing per-vertex choice maps, again by recursive
pairing.  All sums saturate at ``INFEASIBLE``.
"""

from __future__ import annotations

from enum import IntEnum
from types import SimpleNamespace

import numpy as np

from .rooted import RootedBlocks
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
    first listed.  ``one`` is its identity."""

    def __init__(self, pairs, one):
        self.pairs = pairs
        self.one = np.array(one, dtype=np.int64)
        self.x = np.array([x for zp in pairs for x, _ in zp])
        self.y = np.array([y for zp in pairs for _, y in zp])
        self.z = np.repeat(np.arange(4), [len(zp) for zp in pairs])
        self.start = np.r_[0, np.cumsum([len(zp) for zp in pairs])[:-1]]


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
    light children, and its heavy child in state y.  Returns the a and g
    of each way, in the order that breaks ties; the ways of each code
    4 s + y, padded with -1; and for the step matrix, the distinct sets of
    sums 4 a + g (16 standing for INF) that feed a row, with the set of
    each row 4 s + y."""
    out = []
    for s in range(4):
        for a, b in H.pairs[STATE_H[s]]:
            for f in BLOCK_OUT[b]:
                for g, y in F.pairs[f]:
                    if (s, a, g, y) not in out:
                        out.append((s, a, g, y))
    s, a, g, y = (np.array(col) for col in zip(*out))
    by_code = [np.flatnonzero(4 * s + y == c).tolist() for c in range(16)]
    width = max(len(c) for c in by_code)
    by_code = np.array([c + [-1] * (width - len(c)) for c in by_code])
    feeds = [tuple(sorted(set((4 * a + g)[4 * s + y == c].tolist()))) or (16,)
             for c in range(16)]
    unique = list(dict.fromkeys(feeds))
    return a, g, by_code, unique, np.array([unique.index(f) for f in feeds])


_CA, _CG, _BY_CODE, _FEEDS, _FEED_ROW = _path_combos()
_MAX = np.iinfo(np.int64).max
_SHIFT = 2 * np.arange(4, dtype=np.uint8)[:, None]


# ----------------------------------------------------------------- min-plus

_CHUNK = 2048       # columns per call of a kernel below: in cache, small temporaries


def _chunked(kernel, rows, *args):
    """``kernel(out, *args)`` over column chunks of a new (rows, N) array;
    arguments other than arrays pass whole."""
    n = args[0].shape[-1]
    out = np.empty((rows, n), dtype=np.int64)
    if n <= _CHUNK:
        kernel(out, *args)
        return out
    for lo in range(0, n, _CHUNK):
        kernel(out[:, lo:lo + _CHUNK], *(a[..., lo:lo + _CHUNK] if isinstance(a, np.ndarray)
                                          else a for a in args))
    return out


def _sat(x):
    return np.minimum(x, INF, out=x)


def _heads(x):
    """Where each run of equal values in ``x`` starts."""
    out = np.empty(x.shape[0], dtype=bool)
    out[:1] = True
    np.not_equal(x[1:], x[:-1], out=out[1:])
    return out


def _segments(seg):
    """Offset of each element within its segment, and whether it is the
    segment's last."""
    n = seg.shape[0]
    pos = np.arange(n)
    head = _heads(seg)
    last = np.empty(n, dtype=bool)
    last[:-1] = head[1:]
    last[-1:] = True
    return pos - np.maximum.accumulate(np.where(head, pos, 0)), last


def _product(out, a, b, m):
    """Columnwise product of (4, N) weight arrays in the monoid ``m``."""
    np.minimum.reduceat(a[m.x] + b[m.y], m.start, axis=0, out=out)
    _sat(out)


def _split(out, a, b, z, m):
    """For each column i, the first pair (x, y) for z[i] that minimises
    a[x, i] + b[y, i], as the pair's index in ``m``."""
    cost = a[m.x] + b[m.y]
    cost[m.z[:, None] != z[0]] = _MAX
    out[0] = cost.argmin(axis=0)


def _fold(x, seg, nseg, m):
    """Fold the columns of ``x`` (4, N) within segments ``seg`` (sorted,
    in [0, nseg)) in the monoid ``m``, pairing neighbours until one column
    is left per segment.  Returns the (4, nseg) totals, ``m.one`` for empty
    segments, and the levels :func:`_unfold` needs."""
    levels = []
    while True:
        off, last = _segments(seg)
        if last.all():
            break
        keep = (off % 2 == 0).nonzero()[0]
        paired = ~last[keep]
        left = keep[paired]
        y = x[:, keep]
        y[:, paired] = _chunked(_product, 4, x[:, left], x[:, left + 1], m)
        levels.append((keep, paired, x))
        x, seg = y, seg[keep]
    if seg.shape[0] == nseg:        # no segment is empty
        return x, (levels, seg)
    out = np.repeat(m.one[:, None], nseg, axis=1)
    out[:, seg] = x
    return out, (levels, seg)


def _unfold(folded, target, m):
    """Per-column choices of a fold, given the chosen entry of each
    segment's total."""
    levels, seg = folded
    t = target[seg]
    for keep, paired, x in reversed(levels):
        down = np.empty(x.shape[1], dtype=np.intp)
        down[keep] = t
        left = keep[paired]
        pick = _chunked(_split, 1, x[:, left], x[:, left + 1], t[None, paired], m)[0]
        down[left] = m.x[pick]
        down[left + 1] = m.y[pick]
        t = down
    return t


def _matmul(out, a, b):
    """Columnwise product of 4x4 min-plus matrices stored as (16, N)."""
    a = a.reshape(4, 4, -1)
    b = b.reshape(4, 4, -1)
    out = out.reshape(4, 4, -1)
    np.add(a[:, 0, None], b[0], out=out)
    for k in range(1, 4):
        np.minimum(out, a[:, k, None] + b[k], out=out)
    _sat(out)


def _matvec(out, a, x):
    a = a.reshape(4, 4, -1)
    np.add(a[:, 0], x[0], out=out)
    for k in range(1, 4):
        np.minimum(out, a[:, k] + x[k], out=out)
    _sat(out)


def _step_matrix(out, hp, g, w):
    """Matrix from a path vertex's heavy child's weights to its own,
    given the H of its other blocks, the F of its heavy block's other
    children and its own weight."""
    sums = np.empty((17, w.shape[0]), dtype=np.int64)
    np.add(hp[:, None], g[None], out=sums[:16].reshape(4, 4, -1))
    sums[16] = INF
    rows = np.empty((len(_FEEDS), w.shape[0]), dtype=np.int64)
    for row, (first, *rest) in zip(rows, _FEEDS):
        row[...] = sums[first]
        for f in rest:
            np.minimum(row, sums[f], out=row)
    np.take(rows, _FEED_ROW, axis=0, out=out)
    out[8:] += w
    _sat(out)


def _next_state(out, hp, g, x):
    """Coded map from each state of a path vertex to the state of its
    heavy child that reaches it most cheaply (the first on ties)."""
    m = np.empty((16, x.shape[1]), dtype=np.int64)
    _step_matrix(m, hp, g, np.zeros(x.shape[1], dtype=np.int64))
    best = (m.reshape(4, 4, -1) + x[None]).argmin(axis=1)
    out[0] = (best << _SHIFT).sum(axis=0)


def _path_choice(out, hp, g, code):
    """For path vertices in state s whose heavy child is in state y
    (``code`` = 4 s + y): the first cheapest combo of the other blocks'
    H entry and the heavy block's F entry, as (a, g)."""
    combo = _BY_CODE[code[0]].T
    cols = np.arange(code.shape[1])
    cost = hp[_CA[combo], cols] + g[_CG[combo], cols]
    cost[combo < 0] = _MAX
    pick = combo[cost.argmin(axis=0), cols]
    out[0] = _CA[pick]
    out[1] = _CG[pick]


def _step_matrix_of(hp, g, w):
    out = np.empty((16, w.shape[0]), dtype=np.int64)
    _step_matrix(out, hp, g, w)
    return out


def _matrices(source, idx):
    """Matrices ``idx`` of a chain level: stored as ``(mats,)``, or built
    by :func:`_step_matrix` from ``(hp, g, w)``."""
    if len(source) == 1:
        return source[0][:, idx]
    hp, g, w = source
    return _step_matrix_of(hp[:, idx], g[:, idx], w[idx])


def _pair_products(out, ev, od, source):
    _matmul(out, _matrices(source, ev), _matrices(source, od))


def _apply(out, idx, x, source):
    _matvec(out, _matrices(source, idx), x)


def _chain(hp, g, w, seg, tail):
    """Weights along heavy paths: x_j = M_j x_(j+1) within each path, and
    x below a path's last matrix is ``tail[:, seg]``; M_j is the step
    matrix of column j.  Each level sets aside the last matrix of every
    odd-length path, applied to the tail, and multiplies the rest in
    neighbouring pairs; the levels are then undone.  The first level's
    matrices are built once if they fit in one chunk, and otherwise as
    they are needed, a chunk at a time."""
    source = (hp, g, w)
    if seg.shape[0] <= _CHUNK:
        source = (_step_matrix_of(hp, g, w),)
    levels = []
    while seg.shape[0]:
        off, last = _segments(seg)
        is_peel = last & (off % 2 == 0)
        peel = is_peel.nonzero()[0]
        x_peel = _chunked(_apply, 4, peel, tail[:, seg[peel]], source)
        tail = tail.copy()
        tail[:, seg[peel]] = x_peel
        rest = (~is_peel).nonzero()[0]
        ev, od = rest[::2], rest[1::2]
        levels.append((seg, peel, x_peel, ev, od, source, tail))
        source = (_chunked(_pair_products, 16, ev, od, source),)
        seg = seg[ev]
    x = np.empty((4, 0), dtype=np.int64)
    for seg, peel, x_peel, ev, od, source, tail in reversed(levels):
        pair_seg = seg[ev]
        below = tail[:, pair_seg]
        nxt = (pair_seg[1:] == pair_seg[:-1]).nonzero()[0]    # next pair, same path
        below[:, nxt] = x[:, nxt + 1]
        up = np.empty((4, seg.shape[0]), dtype=np.int64)
        up[:, ev] = x
        up[:, od] = _chunked(_apply, 4, od, below, source)
        up[:, peel] = x_peel
        x = up
    return x


def _then(f, g):
    """Maps on the four states, coded as f(0) + 4 f(1) + 16 f(2) + 64 f(3)
    in uint8, composed columnwise: first ``f``, then ``g``."""
    return np.bitwise_or.reduce((g >> 2 * (f >> _SHIFT & 3) & 3) << _SHIFT, axis=0)


def _map_scan(phi, seg):
    """Inclusive prefix compositions of the coded maps ``phi`` within
    segments, earliest map applied first."""
    off, last = _segments(seg)
    if last.all():
        return phi
    keep = (off % 2 == 0).nonzero()[0]
    paired = ~last[keep]
    left = keep[paired]
    y = phi[keep]
    y[paired] = _then(phi[left], phi[left + 1])
    pre = _map_scan(y, seg[keep])
    out = np.empty_like(phi)
    out[left + 1] = pre[paired]
    first = off[keep] == 0
    out[keep[first]] = phi[keep[first]]
    rest = (~first).nonzero()[0]
    out[keep[rest]] = _then(pre[rest - 1], phi[keep[rest]])
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
        inner = rb.order[(rb.block_hi > rb.block_lo)[rb.order]]   # root first
        k = inner.shape[0]
        index = np.full(n, -1, dtype=np.int64)
        index[inner] = np.arange(k)
        up = index[rb.parent[inner[1:]]]            # nondecreasing: search order
        par = up.tolist()
        desc = np.bincount(rb.parent[rb.kids], minlength=n)[inner].tolist()
        for i, p in zip(range(k - 1, 0, -1), reversed(par)):
            desc[p] += desc[i]
        desc = np.array(desc, dtype=np.int64)
        heavy = np.full(k, -1, dtype=np.int64)      # child with the most descendants
        if k > 1:
            first = _heads(up).nonzero()[0]
            group = np.repeat(np.arange(first.shape[0]), np.diff(np.append(first, k - 1)))
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
        self.light_block = kblock[is_light]
        self.block_bounds = np.searchsorted(self.attach_pos, self.bounds)
        self.light_bounds = np.searchsorted(self.light_block, self.block_bounds)

    @property
    def rounds(self) -> int:
        return self.bounds.shape[0] - 1

    def round(self, r: int, val: np.ndarray) -> SimpleNamespace:
        """Round ``r`` given the weights of every vertex below it:

        verts, seg, heavy: its path vertices, path by path and each path
            top down; the path of each (from 0); the heavy child of each,
            -1 at a path's bottom.
        owner: for each block attached at verts, the index of its attachment.
        heavy_block, other: the blocks holding their attachment's heavy
            child, and the rest.
        light: the children of those blocks other than heavy children.
        f, f_fold: F of each block over its light children, and the fold.
        hp, h_fold: H of each vertex over its other blocks, and the fold.
        mid, g: the vertices with a heavy child, and the F of the heavy
            block of each over that block's light children; the heavy
            blocks are in the order of their attachments, so g lines up
            with mid.
        """
        lo, hi = self.bounds[r], self.bounds[r + 1]
        b0, b1 = self.block_bounds[r], self.block_bounds[r + 1]
        l0, l1 = self.light_bounds[r], self.light_bounds[r + 1]
        owner = self.attach_pos[b0:b1] - lo
        light = self.light[l0:l1]
        f, f_fold = _fold(val[:, light], self.light_block[l0:l1] - b0, b1 - b0, F)
        heavy_block = self.is_heavy[b0:b1].nonzero()[0]
        other = (~self.is_heavy[b0:b1]).nonzero()[0]
        fo = f[:, other]
        out = fo[[EN, OI, EI, EN]]                  # the H that each block brings
        np.minimum(out[HE], np.minimum(fo[EP], fo[EI]), out=out[HE])
        hp, h_fold = _fold(out, owner[other], hi - lo, H)
        heavy = self.heavy[lo:hi]
        return SimpleNamespace(verts=self.verts[lo:hi], seg=np.cumsum(self.new_path[lo:hi]) - 1,
                               heavy=heavy, mid=(heavy >= 0).nonzero()[0], owner=owner,
                               heavy_block=heavy_block, other=other, light=light,
                               f=f, f_fold=f_fold, hp=hp, h_fold=h_fold,
                               g=f[:, heavy_block])

    def sweep(self, weights: np.ndarray) -> np.ndarray:
        """Weights (4, n) of every vertex; leaves keep their initial ones."""
        val = np.empty((4, weights.shape[0]), dtype=np.int64)
        val[Q] = INF
        val[R] = 0
        val[P] = INF
        val[D] = weights
        for r in reversed(range(self.rounds)):
            rd = self.round(r, val)
            bottom = rd.heavy < 0
            vb = rd.verts[bottom]
            quad = rd.hp[:, bottom][[HI, HN, HO, HE]]
            quad[2:] += weights[vb]
            val[:, vb] = _sat(quad)
            if rd.mid.size:
                vm = rd.verts[rd.mid]
                hp, g, seg = rd.hp[:, rd.mid], rd.g, rd.seg[rd.mid]
                rd = None           # free what the chain does not need
                val[:, vm] = _chain(hp, g, weights[vm], seg, val[:, vb])
        return val

    def reconstruct(self, val: np.ndarray, root: int) -> np.ndarray:
        """State of every vertex in the optimum, top down from ``root``."""
        state = np.full(val.shape[1], -1, dtype=np.intp)
        state[root] = P if val[P, root] <= val[Q, root] else Q
        for r in range(self.rounds):
            rd = self.round(r, val)
            mid = rd.mid
            hp, g = rd.hp[:, mid], rd.g
            if mid.size:
                hm = rd.heavy[mid]
                seg = rd.seg[mid]
                tops = rd.verts[_heads(rd.seg)]
                phi = _chunked(_next_state, 1, hp, g, val[:, hm])[0].astype(np.uint8)
                state[hm] = _map_scan(phi, seg) >> 2 * state[tops][seg] & 3
            s = state[rd.verts]
            a = STATE_H[s]
            block_t = np.empty(rd.owner.shape[0], dtype=np.intp)
            if mid.size:
                code = 4 * s[mid] + state[hm]
                a[mid], block_t[rd.heavy_block] = _chunked(_path_choice, 2, hp, g, code[None])
            ht = _unfold(rd.h_fold, a, H)
            ft = np.where(ht == HO, OI, np.where(ht == HI, EI, EN))
            he = (ht == HE).nonzero()[0]
            ft[he] = np.argmin(rd.f[:3, rd.other[he]], axis=0)
            block_t[rd.other] = ft
            state[rd.light] = _unfold(rd.f_fold, block_t, F)
        return state
