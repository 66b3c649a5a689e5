"""compseq: convergence and limits of m-step competition graph sequences.

The m-step competition graph of a digraph D joins two vertices iff some
vertex is reachable from both by a directed walk of length exactly m;
equivalently it is the row-intersection graph of the m-th Boolean power
of D's adjacency matrix.  For digraphs whose strong components form a
chain, this package decides whether that graph sequence converges,
constructs the limit when every component is nontrivial, tests whether
the limit is a disjoint union of cliques, and cross-checks every analytic
answer against an exact brute-force simulation.  That simulation,
``oracle``, and its names load on first use, so only the commands that
run it, ``verify`` and ``analyze --simulate-fallback``, compile it.
"""

from . import bmat, graphs, theory
from .bmat import *
from .graphs import *
from .theory import *

__version__ = "0.1.0"

# oracle.__all__: __getattr__ serves these names, loading the oracle on first use
_ORACLE_ALL = ("DEFAULT_SIZE_CAP", "SizeCapError", "SimulationResult", "CheckResult",
               "VerificationReport", "GeneratorSpec", "simulate_limit", "verify", "random_instance")
__all__ = ["__version__", *bmat.__all__, *graphs.__all__, *theory.__all__, *_ORACLE_ALL]


def __getattr__(name):
    if name != "oracle" and name not in _ORACLE_ALL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # "from . import oracle" would call this __getattr__ again, and unlike
    # importlib.import_module, __import__ is timed by -X importtime
    oracle = __import__("oracle", globals(), level=1)
    return oracle if name == "oracle" else getattr(oracle, name)


def __dir__():
    return sorted({*globals(), "oracle", *_ORACLE_ALL})
