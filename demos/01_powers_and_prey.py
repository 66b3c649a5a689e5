"""Boolean matrix powers and the row-intersection operator.

A Boolean matrix A is the adjacency matrix of a digraph D: entry (i, j)
says "i preys on j".  Entry (i, j) of A^m says "j is reachable from i in
exactly m steps", so the row-intersection operator Gamma — join i and j
when rows i and j of A^m share a set column — produces the m-step
competition graph of D.

Because there are finitely many n x n Boolean matrices, the power
sequence A, A^2, A^3, ... is eventually periodic.  This demo walks the
classic 4 x 4 example whose powers cycle with period 3 while the
competition graph never changes at all.
"""

from compseq import (
    BoolMatrix,
    UndirectedGraph,
    bool_pow,
    format_matrix,
    gamma,
    simulate_limit,
)

A = BoolMatrix.from_entries(
    [
        [0, 1, 0, 1],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
    ]
)


def edge_set(a: BoolMatrix) -> list[tuple[int, int]]:
    return UndirectedGraph.from_adjacency_matrix(gamma(a)).edge_list()


def main() -> None:
    print("A =")
    print(format_matrix(A))

    for m in (2, 3, 4):
        print(f"A^{m} =")
        print(format_matrix(bool_pow(A, m)))
    print("A^4 equals A:", bool_pow(A, 4) == A)

    sim = simulate_limit(A)
    print(f"power cycle: index {sim.index_mu}, period {sim.period_pi}")
    print()

    print("m-step competition graphs (edges of Gamma(A^m)):")
    for m in range(1, 7):
        print(f"  m={m}: {edge_set(bool_pow(A, m))}")
    print()
    print("the powers rotate with period 3, yet every single one of them")
    print("yields the same competition graph — the sequence has converged")
    print("to the one-edge graph {2,4} from the very first step.")


if __name__ == "__main__":
    main()
