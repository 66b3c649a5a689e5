"""compseq: convergence and limits of m-step competition graph sequences.

The m-step competition graph of a digraph D joins two vertices iff some
vertex is reachable from both by a directed walk of length exactly m;
equivalently it is the row-intersection graph of the m-th Boolean power
of D's adjacency matrix.  For digraphs whose strong components form a
chain, this package decides whether that graph sequence converges,
constructs the limit when every component is nontrivial, tests whether
the limit is a disjoint union of cliques, and cross-checks every analytic
answer against an exact brute-force simulation.
"""

from . import bmat, graphs, oracle, theory
from .bmat import *
from .graphs import *
from .oracle import *
from .theory import *

__version__ = "0.1.0"

__all__ = ["__version__", *bmat.__all__, *graphs.__all__, *theory.__all__, *oracle.__all__]
