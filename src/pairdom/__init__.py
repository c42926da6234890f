"""Exact minimum-weight paired domination on block graphs.

A paired-dominating set is a dominating set whose induced subgraph has a
perfect matching.  On block graphs (every biconnected component a
clique) the optimum is found exactly by a bottom-up dynamic program over
the block-cut tree, in time linear in the graph size.
"""

from .blocks import BlockCutTree, find_blocks, is_block_graph, to_dot
from .errors import (Disconnected, DuplicateEdge, InternalInconsistency,
                     NoPairedDominatingSet, NotBlockGraph, OutOfRange,
                     PairdomError, ParseError, SelfLoop, TooLarge,
                     WeightOverflow)
from .graph import (VertexSet, WeightedGraph, build_graph,
                    has_perfect_matching, is_connected, is_dominating_set,
                    is_paired_dominating_set)
from .instance_io import (format_instance, load_instance, parse_instance,
                          save_instance)
from .solver import StateKind, solve
from .weights import INFEASIBLE

# The brute-force oracle and the generator load on first use: solving needs
# neither, and compiling them would add to every import of the package.
_LAZY = {**dict.fromkeys(("enumerate_block_graphs", "oracle_min_pds", "oracle_state"), "oracle"),
         **dict.fromkeys(("GENERATOR_ALGORITHM", "chain_of_triangles", "random_block_graph"), "generator")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__version__ = "0.1.0"

__all__ = [
    "BlockCutTree", "Disconnected", "DuplicateEdge", "GENERATOR_ALGORITHM",
    "INFEASIBLE", "InternalInconsistency", "NoPairedDominatingSet",
    "NotBlockGraph", "OutOfRange", "PairdomError", "ParseError",
    "SelfLoop", "StateKind", "TooLarge", "VertexSet", "WeightOverflow",
    "WeightedGraph", "build_graph", "chain_of_triangles",
    "enumerate_block_graphs", "find_blocks", "format_instance",
    "has_perfect_matching", "is_block_graph", "is_connected",
    "is_dominating_set", "is_paired_dominating_set", "load_instance",
    "oracle_min_pds", "oracle_state", "parse_instance",
    "random_block_graph", "save_instance", "solve", "to_dot",
]
