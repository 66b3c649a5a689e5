"""When does the m-step competition graph sequence settle down?

For a linearly connected digraph — strong components D_1, ..., D_eta in a
chain, every arc inside a component or crossing to the next one — the
answer is decided by exact modular arithmetic:

* every component trivial: the sequence is eventually edgeless (converges);
* last component nontrivial: the sequence always converges;
* otherwise, look at the last nontrivial component D_p with index kappa.
  Each class j of D_p reaches the next (trivial) vertex with walk lengths
  in a residue set L_j mod kappa.  The sequence converges iff for every
  pair of classes, the union over eta - p shifts of (i + L_j1) ∩ (i + L_j2)
  is all of Z_kappa or empty — anything in between makes two vertices
  flicker: adjacent for some residues of m, apart for others.

The flickering is visible in the simulation: the divergent example below
has four distinct competition graphs rotating forever.
"""

from compseq import (
    Digraph,
    component_chain,
    converges,
    l_set,
    shifted_union,
    simulate_limit,
)

ALL_TRIVIAL = Digraph.from_arcs(3, [(1, 2), (2, 3)])
STRONG = Digraph.from_arcs(4, [(1, 2), (1, 4), (2, 3), (3, 1), (4, 3)])


def feeder(k: int) -> Digraph:
    """Directed 4-cycle with the first k cycle vertices feeding vertex 5."""
    arcs = [(1, 2), (2, 3), (3, 4), (4, 1)] + [(i, 5) for i in range(1, k + 1)]
    return Digraph.from_arcs(5, arcs)


def residues(mask: int, kappa: int) -> list[int]:
    """The residues of Z_kappa whose bits are set in mask."""
    return [r for r in range(kappa) if mask >> r & 1]


def report(name: str, d: Digraph) -> None:
    v = converges(component_chain(d))
    sim = simulate_limit(d)
    print(f"{name}: rule {v.rule}, converged={v.converged} "
          f"(simulation says {sim.converged})")
    if v.witness is not None:
        w = v.witness
        print(f"  witness: classes {w.j1} and {w.j2}, "
              f"residue {w.excluded_residue} never appears in their union")


def main() -> None:
    report("path of trivial components", ALL_TRIVIAL)
    report("strongly connected digraph ", STRONG)
    report("4-cycle feeding one vertex twice ", feeder(2))
    report("4-cycle feeding one vertex from all", feeder(4))
    print()

    d = feeder(2)
    chain = component_chain(d)
    p = chain.last_nontrivial
    kappa = chain.kappa(p)
    lam = sum(1 << (k - 1) for k, _ in chain.pairs[p - 1])  # bit j-1 set iff class j feeds
    print(f"anatomy of the divergent case: kappa = {kappa}, "
          f"feeding classes {tuple(r + 1 for r in residues(lam, kappa))}")
    lsets = {j: l_set(lam, j, kappa) for j in range(1, kappa + 1)}
    for j, ls in lsets.items():
        print(f"  L_{j} = {residues(ls, kappa)}")
    shifts = chain.eta - p
    full = (1 << kappa) - 1
    for j1 in range(1, kappa + 1):
        for j2 in range(j1 + 1, kappa + 1):
            u = shifted_union(lsets[j1], lsets[j2], shifts, kappa)
            verdict = "full" if u == full else ("empty" if not u else "PARTIAL")
            print(f"  classes ({j1},{j2}): shifted union {residues(u, kappa)} -> {verdict}")
    print()

    sim = simulate_limit(d)
    print(f"simulation: power cycle index {sim.index_mu}, period {sim.period_pi}; "
          f"{len(sim.gamma_cycle)} distinct competition graphs rotate:")
    for k, g in enumerate(sim.gamma_cycle):
        print(f"  m = {sim.index_mu + k} (mod {sim.period_pi}): {g.edge_list()}")


if __name__ == "__main__":
    main()
