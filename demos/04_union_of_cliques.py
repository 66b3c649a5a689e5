"""When is the limit a disjoint union of cliques?

A graph is a disjoint union of cliques exactly when its adjacency matrix
is block diagonal with all-ones off-diagonal blocks — the tidiest
possible limit.  For an all-nontrivial chain this happens iff two
conditions hold at every interface p -> p+1:

* kappa_eta divides kappa_p (indices stay compatible down the chain), and
* all interface class pairs (k, l) agree on (k - l) mod kappa_eta
  (every crossing shifts phase by the same amount).

The per-level report of jbd_condition shows exactly where an instance
fails.
"""

from compseq import (
    Digraph,
    component_chain,
    cs_graph,
    jbd_condition,
    limit_graph,
    simulate_limit,
    union_of_cliques,
)

ALIGNED = Digraph.from_arcs(
    6, [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5), (2, 3), (4, 5)]
)
MISALIGNED = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 3)])


def report(name: str, d: Digraph) -> None:
    chain = component_chain(d)
    verdict = jbd_condition(d, chain)
    print(f"=== {name} ===")
    for line in verdict.levels:
        print(f"  {line}")
    print(f"  union of cliques: {verdict.holds}")

    limit = limit_graph(cs_graph(d, chain), chain)
    sim = simulate_limit(d)
    print(f"  limit edges {limit.edge_list()}")
    print(f"  shape check against simulation: "
          f"{union_of_cliques(sim.limit) == verdict.holds}")
    print()


def main() -> None:
    report("aligned interfaces (single lane-preserving arcs)", ALIGNED)
    report("misaligned interfaces (two residues at one interface)", MISALIGNED)


if __name__ == "__main__":
    main()
