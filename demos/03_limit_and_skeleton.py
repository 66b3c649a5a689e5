"""Building the limit graph from the class skeleton.

When every strong component of a linearly connected digraph is
nontrivial, the sequence always converges, and its limit has a clean
recipe.  Each component D_p splits into kappa_p cyclic classes
U_1, ..., U_kappa (every arc advances the class by one).  For large
enough m, two vertices of the same class always share m-step prey, so
each class becomes a clique.  Whether two different classes are joined
is decided by the class skeleton: an eta-partite graph on class labels
whose level-p edges say which class pairs of D_p and D_(p+1) admit
arbitrarily long walks of matching length.

The limit rule is a reachability test on that skeleton: x in U_i of D_p
and y in U_j of D_q (p <= q) are adjacent iff walking the skeleton one
level per step from (p, i) and from (q, j) lands on a common class at
some level r >= q.  The demo builds two three-component chains — one
where the skeleton keeps two parallel lanes, one where it mixes
completely — and checks both limits against the brute-force simulation.
"""

from compseq import (
    Digraph,
    component_chain,
    cs_graph,
    limit_graph,
    simulate_limit,
)

PARALLEL = Digraph.from_arcs(
    6, [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5), (2, 3), (4, 5)]
)
MIXING = Digraph.from_arcs(
    6,
    [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5), (1, 3), (2, 3), (3, 5), (4, 5)],
)


def vertices(mask: int) -> list[int]:
    """A vertex set is a mask: bit v-1 is set iff vertex v belongs to it."""
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


def walk_through(name: str, d: Digraph) -> None:
    chain = component_chain(d)
    print(f"=== {name} ===")
    for p, mask in enumerate(chain.masks, start=1):
        classes = [vertices(c) for c in chain.class_masks[p - 1]]
        print(f"  D_{p}: vertices {vertices(mask)}, kappa {chain.kappa(p)}, classes {classes}")
    for p, pairs in enumerate(chain.pairs, start=1):
        print(f"  interface {p}->{p + 1}: class pairs {sorted(pairs)}")

    # joins[p-1][i-1] is a mask over the labels of level p + 1: bit j-1 for label j
    joins = cs_graph(chain)
    edges = [
        ((p, i), (p + 1, j))
        for p, level in enumerate(joins, start=1)
        for i, mask in enumerate(level, start=1)
        for j in vertices(mask)
    ]
    print("  skeleton edges:", edges)

    limit = limit_graph(joins, chain)
    sim = simulate_limit(d)
    print("  limit edges:", limit.edge_list())
    print("  matches simulation:", limit == sim.limit)
    print()


def main() -> None:
    walk_through("parallel lanes (single-arc interfaces)", PARALLEL)
    walk_through("complete mixing (both classes feed each interface)", MIXING)
    print("in the first chain the two lanes never meet, so each lane forms")
    print("its own clique chain; in the second, every cross-component pair")
    print("is joined — but classes inside the last component still are not,")
    print("because no level above them exists where their reaches could meet.")


if __name__ == "__main__":
    main()
