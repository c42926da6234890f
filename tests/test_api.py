"""The package's public names: a change to the API has to edit this list."""

import subprocess
import sys

import pairdom

PUBLIC = [
    "BlockCutTree", "Disconnected", "DuplicateEdge", "GENERATOR_ALGORITHM",
    "INFEASIBLE", "InternalInconsistency", "NoPairedDominatingSet",
    "NotBlockGraph", "OutOfRange", "PairdomError", "ParseError", "SelfLoop",
    "StateKind", "TooLarge", "VertexSet", "WeightOverflow", "WeightedGraph",
    "build_graph", "chain_of_triangles", "enumerate_block_graphs",
    "find_blocks", "format_instance", "has_perfect_matching",
    "is_block_graph", "is_connected", "is_dominating_set",
    "is_paired_dominating_set", "load_instance", "oracle_min_pds",
    "oracle_state", "parse_instance", "random_block_graph", "save_instance",
    "solve", "to_dot",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(pairdom.__all__) == PUBLIC
    assert len(set(pairdom.__all__)) == len(pairdom.__all__)
    for name in pairdom.__all__:
        assert getattr(pairdom, name) is not None, name


def test_lazy_names_are_the_ones_not_bound_at_import():
    code = ("import pairdom; "
            "print(sorted(n for n in pairdom.__all__ if n not in vars(pairdom)))")
    unbound = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
    assert unbound == repr(sorted(pairdom._LAZY))
