"""Exception hierarchy for instance validation and solver failures."""


class PairdomError(Exception):
    """Base class for all errors raised by this package.

    ``witness`` is None or a dict of 0-based vertex ids (ints or lists)
    that confirms the error independently: see Disconnected, NotBlockGraph.
    """

    def __init__(self, *args, witness=None):
        super().__init__(*args)
        self.witness = witness


class OutOfRange(PairdomError):
    """A vertex id is outside [0, n)."""


class SelfLoop(PairdomError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(PairdomError):
    """The same undirected edge appears more than once."""


class WeightOverflow(PairdomError):
    """A weight is negative or the total weight exceeds the safe range."""


class Disconnected(PairdomError):
    """The graph is not connected.

    ``witness={"root": r, "unreached": v}``: no path joins v to r (None
    for the empty graph).
    """


class NotBlockGraph(PairdomError):
    """Some block of the graph is not a clique.

    ``witness={"cycle": [v0, .., vk], "pair": [x, y]}``: a simple cycle of
    at least four vertices (vk is adjacent to v0) and two vertices on it
    that are not adjacent.  They lie in one block, which is not a clique.
    """


class NoPairedDominatingSet(PairdomError):
    """The graph admits no paired-dominating set (single vertex)."""


class TooLarge(PairdomError):
    """Instance exceeds the brute-force oracle size guard."""


class ParseError(PairdomError):
    """Malformed instance file."""


class InternalInconsistency(PairdomError):
    """Reconstructed solution disagrees with stored weights; indicates a bug."""
