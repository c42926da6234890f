"""Command-line front door.

Exit codes: 0 success, 2 invalid input (parse error, disconnected, not a
block graph, no paired-dominating set, negative weight), 3 differential
verification mismatch, 1 internal error.

Invalid input, or an instance path that cannot be read, prints an
``error:`` line on stderr; ``solve --json`` also prints
``{"error", "message", "witness"}`` on stdout, the witness of
``pairdom.errors`` with 1-based vertex ids, or null.

The solve path loads neither the generator nor the oracle: the commands
that need them import them when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .blocks import find_blocks, to_dot
from .errors import InternalInconsistency, PairdomError, TooLarge
from .graph import is_paired_dominating_set
from .instance_io import format_instance, load_instance
from .solver import solve


def _cmd_solve(args) -> int:
    g = load_instance(args.file)
    stats = {}
    pairs = None
    if args.check:
        vset, weight, pairs = solve(g, stats=stats, pairs=True)
        if not is_paired_dominating_set(g, vset, pairs):
            raise InternalInconsistency("output failed the paired-domination check")
        if vset.total_weight != weight:
            raise InternalInconsistency("output weight mismatch")
    else:
        vset, weight = solve(g, stats=stats)
    members = [v + 1 for v in vset]
    if args.json:
        answer = {"weight": weight, "set": members, "n": g.n, "blocks": stats["blocks"]}
        if pairs is not None:
            answer["pairs"] = (pairs + 1).tolist()      # 1-based, as in "set"
        print(json.dumps(answer))
    else:
        print(f"weight {weight}")
        print("set " + " ".join(str(v) for v in members))
    return 0


def _cmd_verify(args) -> int:
    from .generator import random_block_graph
    from .oracle import oracle_min_pds
    mismatches = 0
    for i in range(args.instances):
        sub_seed = args.seed + i
        rng = np.random.default_rng(sub_seed)
        nb = int(rng.integers(1, args.max_blocks + 1))
        g = random_block_graph(nb, args.max_size, args.wmax, seed=sub_seed)
        try:
            ref = oracle_min_pds(g)
        except TooLarge:
            print(f"seed {sub_seed}: n={g.n} exceeds the oracle guard; "
                  "reduce --max-blocks/--max-size", file=sys.stderr)
            return 2
        vset, weight, pairs = solve(g, pairs=True)
        ok = (ref is not None and ref[1] == weight
              and is_paired_dominating_set(g, vset, pairs)
              and vset.total_weight == weight)
        if not ok:
            mismatches += 1
            refw = "none" if ref is None else ref[1]
            print(f"MISMATCH seed={sub_seed} n={g.n} solver={weight} oracle={refw}")
            print(format_instance(g, comments=[f"seed {sub_seed}"]), end="")
    if mismatches:
        print(f"{mismatches} mismatch(es) in {args.instances} instances")
        return 3
    print(f"verified {args.instances} instances: solver matches oracle")
    return 0


def _cmd_gen(args) -> int:
    from .generator import GENERATOR_ALGORITHM, random_block_graph
    g = random_block_graph(args.blocks, args.max_size, args.wmax, seed=args.seed)
    text = format_instance(g, comments=[
        f"generator {GENERATOR_ALGORITHM} seed={args.seed} blocks={args.blocks} "
        f"max-size={args.max_size} wmax={args.wmax}",
    ])
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    from .generator import chain_of_triangles
    # one-time costs of a first call stay untimed
    solve(chain_of_triangles(4))
    g = chain_of_triangles(args.chain)
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        _, weight = solve(g)
        times.append(time.perf_counter() - t0)
    best = min(times)
    print(f"n {g.n} blocks {args.chain} weight {weight} time {best:.6f}s")
    return 0


def _cmd_decompose(args) -> int:
    g = load_instance(args.file)
    bct = find_blocks(g)
    if args.dot:
        print(to_dot(bct))
        return 0
    print(f"blocks {bct.num_blocks}")
    print(f"cut-vertices {len(bct.cut_vertices)}")
    for b in range(bct.num_blocks):
        vs = " ".join(str(int(v) + 1) for v in sorted(bct.block_vertices(b)))
        print(f"block {b + 1}: {vs}")
    print("cuts: " + " ".join(str(c + 1) for c in bct.cut_vertices))
    print("order: " + " ".join(str(b + 1) for b in bct.elimination_order.tolist()))
    return 0


def _at_least(lo):
    """An argparse type: an integer no smaller than ``lo``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


@functools.cache          # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdom",
        description="Exact minimum-weight paired domination on block graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--check", action="store_true",
                   help="check the set and its pairing before printing")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="differential test: solver vs brute force")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--instances", type=_at_least(1), default=100)
    p.add_argument("--max-blocks", type=_at_least(1), default=4)
    p.add_argument("--max-size", type=_at_least(2), default=4)
    p.add_argument("--wmax", type=_at_least(1), default=100)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--blocks", type=_at_least(1), required=True)
    p.add_argument("--max-size", type=_at_least(2), default=3)
    p.add_argument("--wmax", type=_at_least(1), default=10)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the solver on a triangle chain")
    p.add_argument("--chain", type=_at_least(1), required=True, help="number of triangles")
    p.add_argument("--repeat", type=_at_least(1), default=3)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("decompose", help="print blocks, cut vertices, order")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (OSError, PairdomError) as exc:    # OSError: a path missing, a directory or unreadable
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            w = getattr(exc, "witness", None)
            w = w and {k: (np.asarray(ids) + 1).tolist() for k, ids in w.items()}  # 1-based, as in "set"
            print(json.dumps({"error": type(exc).__name__, "message": str(exc), "witness": w}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
