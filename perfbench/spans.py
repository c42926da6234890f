"""Spans around calls into pairdom's public functions, for the traced run.

``Tracer.install`` replaces each target function by a wrapper in every
loaded ``pairdom`` module that holds it, so calls made through
``from .x import f`` names are caught too; ``uninstall`` puts the originals
back.  Each span is (name, start, end, parent, op id), kept in memory and
written out by the caller when the run ends.  A target that no longer
exists is listed in ``missing``; the metrics built on it print as missing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute); "Class.attr" names a property.
TARGETS = {
    "cli.main": ("pairdom.cli", "main"),
    "instance_io.load_instance": ("pairdom.instance_io", "load_instance"),
    "graph.build_graph": ("pairdom.graph", "build_graph"),
    "blocks.find_blocks": ("pairdom.blocks", "find_blocks"),
    "blocks.first_non_clique_block": ("pairdom.blocks", "first_non_clique_block"),
    "blocks.elimination_order": ("pairdom.blocks", "BlockCutTree.elimination_order"),
    "solver.solve": ("pairdom.solver", "solve"),
    "graph.is_paired_dominating_set": ("pairdom.graph", "is_paired_dominating_set"),
    "graph.is_dominating_set": ("pairdom.graph", "is_dominating_set"),
    "graph.has_perfect_matching": ("pairdom.graph", "has_perfect_matching"),
}


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.spans = []          # [name, start, end, parent index, op id]
        self.op = -1
        self._stack = []
        self._wrapped = []       # (class or None, attribute, original, wrapper)
        self._undo = []
        self.missing = {}
        for name, (modname, attr) in targets.items():
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing[name] = f"{modname}.{attr} not found"
            elif isinstance(original, property):
                wrapper = property(self._wrap(name, original.fget))
                self._wrapped.append((owner, leaf, original, wrapper))
            else:
                self._wrapped.append((None, None, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def install(self, op: int) -> None:
        """Wrap the targets for op ``op``.  A property is replaced on its
        class; a function wherever a pairdom module holds it by name."""
        self.op = op
        for owner, leaf, original, wrapper in self._wrapped:
            if owner is not None:
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mname, module in list(sys.modules.items()):
                if mname != "pairdom" and not mname.startswith("pairdom."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# Per-layer metric -> the span it times, in mean seconds per traced op.
SPAN_SECONDS = {
    "cli.main.s": "cli.main",
    "graph.build_graph.s": "graph.build_graph",
    "blocks.find_blocks.s": "blocks.find_blocks",
    "blocks.first_non_clique_block.s": "blocks.first_non_clique_block",
    "blocks.elimination_order.s": "blocks.elimination_order",
    "solver.solve.s": "solver.solve",
    "graph.is_dominating_set.s": "graph.is_dominating_set",
    "graph.has_perfect_matching.s": "graph.has_perfect_matching",
    "graph.is_paired_dominating_set.s": "graph.is_paired_dominating_set",
}

# Derived self time: a span minus the public calls it is known to make.
# cli.main keeps its own second find_blocks call for the --json output.
SELF_SECONDS = {
    "instance_io.load_instance.self_s": (
        "instance_io.load_instance", ("graph.build_graph",)),
    "solver.solve.self_s": (
        "solver.solve", ("blocks.find_blocks", "blocks.first_non_clique_block",
                         "blocks.elimination_order")),
    "cli.main.self_s": (
        "cli.main", ("instance_io.load_instance", "solver.solve",
                     "graph.is_paired_dominating_set")),
}


def layer_metrics(tracer: Tracer, traced_ops: int, traced_blocks: int) -> dict:
    """Per-layer numbers from the spans of ``traced_ops`` ops that solved
    ``traced_blocks`` blocks in all.  A metric whose span target is
    missing is None; a target that exists but was not called reads 0."""
    total, calls, under = defaultdict(float), Counter(), defaultdict(float)
    for name, start, end, parent, _op in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            under[tracer.spans[parent][0], name] += end - start

    out = {}
    for metric, name in SPAN_SECONDS.items():
        out[metric] = total[name] / traced_ops
    for metric, (name, kids) in SELF_SECONDS.items():
        out[metric] = (total[name] - sum(under[name, k] for k in kids)) / traced_ops
    out["blocks.find_blocks.calls"] = calls["blocks.find_blocks"] / traced_ops
    out["solver.self_ns_per_block"] = (out["solver.solve.self_s"] * traced_ops
                                       / traced_blocks * 1e9)
    main_total = total["cli.main"]
    out["graph.check_share"] = (total["graph.is_paired_dominating_set"] / main_total
                                if main_total else 0.0)
    needs = {"blocks.find_blocks.calls": "blocks.find_blocks",
             "solver.self_ns_per_block": "solver.solve",
             "graph.check_share": "graph.is_paired_dominating_set"}
    needs.update(SPAN_SECONDS)
    needs.update({metric: name for metric, (name, _) in SELF_SECONDS.items()})
    for metric, name in needs.items():
        if name in tracer.missing:
            out[metric] = None
    return out
