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

from .bmat import (
    DEFAULT_MEMORY_CAP,
    BoolMatrix,
    DimensionMismatchError,
    ParseError,
    PowerCycle,
    PowerCycleMemoryError,
    bool_mul,
    bool_pow,
    format_matrix,
    gamma,
    parse_matrix,
    power_cycle,
    power_trajectory,
)
from .graphs import (
    ComponentChain,
    Digraph,
    ImprimitivityData,
    InternalCheckError,
    NotLinearlyConnectedError,
    SelfLoopError,
    UndirectedGraph,
    component_chain,
    detect_format,
    format_edge_list,
    from_matrix,
    imprimitivity,
    m_step_competition,
    parse_digraph,
    parse_edge_list,
    to_matrix,
)
from .oracle import (
    DEFAULT_SIZE_CAP,
    CheckResult,
    GeneratorSpec,
    SimulationResult,
    SizeCapError,
    VerificationReport,
    random_instance,
    simulate_limit,
    verify,
)
from .theory import (
    RULE_ALL_TRIVIAL,
    RULE_NONTRIVIAL_TAIL,
    RULE_TRAILING_CONDITION,
    ConvergenceVerdict,
    DivergenceWitness,
    JbdVerdict,
    SkeletonGraph,
    TrivialComponentError,
    ascending_reach,
    b_graph,
    converges,
    cs_graph,
    interface_pairs,
    jbd_condition,
    l_set,
    lambda_set,
    limit_graph,
    shifted_union,
    union_of_cliques,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bmat
    "DEFAULT_MEMORY_CAP",
    "BoolMatrix",
    "PowerCycle",
    "DimensionMismatchError",
    "PowerCycleMemoryError",
    "ParseError",
    "bool_mul",
    "bool_pow",
    "gamma",
    "power_cycle",
    "power_trajectory",
    "parse_matrix",
    "format_matrix",
    # graphs
    "Digraph",
    "UndirectedGraph",
    "ComponentChain",
    "ImprimitivityData",
    "SelfLoopError",
    "NotLinearlyConnectedError",
    "InternalCheckError",
    "from_matrix",
    "to_matrix",
    "component_chain",
    "imprimitivity",
    "m_step_competition",
    "parse_edge_list",
    "format_edge_list",
    "parse_digraph",
    "detect_format",
    # theory
    "RULE_ALL_TRIVIAL",
    "RULE_NONTRIVIAL_TAIL",
    "RULE_TRAILING_CONDITION",
    "SkeletonGraph",
    "DivergenceWitness",
    "ConvergenceVerdict",
    "JbdVerdict",
    "TrivialComponentError",
    "interface_pairs",
    "lambda_set",
    "l_set",
    "shifted_union",
    "converges",
    "b_graph",
    "cs_graph",
    "ascending_reach",
    "limit_graph",
    "jbd_condition",
    "union_of_cliques",
    # oracle
    "DEFAULT_SIZE_CAP",
    "SizeCapError",
    "SimulationResult",
    "CheckResult",
    "VerificationReport",
    "GeneratorSpec",
    "simulate_limit",
    "verify",
    "random_instance",
]
