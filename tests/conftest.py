"""Shared fixtures: named instances, naive oracles, hypothesis strategies.

The naive oracles here are deliberately independent of the package's
kernels: a literal triple loop and numpy's dense boolean product for
matrix multiplication, exhaustive DFS for cycle lengths, and direct walk
sweeps over the power trajectory for reachability semantics.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from compseq import (
    BoolMatrix,
    ComponentChain,
    Digraph,
    UndirectedGraph,
    bool_mul,
)

# ---------------------------------------------------------------- instances


def period3_matrix() -> BoolMatrix:
    """4x4 matrix whose powers cycle with period 3 (A^4 = A) while the
    row-intersection graph stays fixed at the single edge {2,4}."""
    return BoolMatrix.from_entries(
        [
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
        ]
    )


def period3_digraph() -> Digraph:
    return Digraph.from_arcs(4, [(1, 2), (1, 4), (2, 3), (3, 1), (4, 3)])


def two_chain() -> Digraph:
    """Two 2-cycles {1,2} -> {3,4} joined by the single arc 2->3."""
    return Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3)])


def cycle4_feeders(k: int) -> Digraph:
    """Directed 4-cycle on 1..4 with arcs from the first k cycle vertices
    into the trailing vertex 5.  k=2 diverges; k=4 converges."""
    arcs = [(1, 2), (2, 3), (3, 4), (4, 1)] + [(i, 5) for i in range(1, k + 1)]
    return Digraph.from_arcs(5, arcs)


def three_chain_parallel() -> Digraph:
    """Three 2-cycles chained by single arcs 2->3 and 4->5; every level of
    the skeleton is {(1,1),(2,2)}."""
    return Digraph.from_arcs(
        6, [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5), (2, 3), (4, 5)]
    )


def three_chain_complete() -> Digraph:
    """Three 2-cycles with both classes feeding each interface; every level
    of the skeleton is complete bipartite."""
    return Digraph.from_arcs(
        6,
        [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5), (1, 3), (2, 3), (3, 5), (4, 5)],
    )


def mixed_residue_chain() -> Digraph:
    """Two 2-cycles with interface pairs (1,1) and (2,1): residues 0 and 1
    differ mod kappa_2 = 2, so the limit is not a union of cliques."""
    return Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 3)])


def gcd2_merge_chain() -> Digraph:
    """A 2-cycle into a 4-cycle into a 2-cycle, kappas (2, 4, 2), by arcs
    1->3 and 3->7: each class of the first level joins two classes of the
    second, and those two lanes merge again in one class of the third."""
    return Digraph.from_arcs(
        8, [(1, 2), (2, 1), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8), (8, 7), (1, 3), (3, 7)]
    )


def aperiodic_middle_chain() -> Digraph:
    """A 2-cycle into {3, 4, 5} (cycles of lengths 2 and 3, so kappa 1)
    into a 3-cycle, kappas (2, 1, 3): both lanes of the first level merge
    in the middle one, which joins every class of the last."""
    return Digraph.from_arcs(
        8, [(1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 3), (6, 7), (7, 8), (8, 6), (1, 3), (5, 6)]
    )


def chorded_six_cycle() -> Digraph:
    """One component: the 6-cycle 1..6 and the chord 1->5, which closes a
    3-cycle, so kappa is 3 and the limit is three disjoint edges."""
    arcs = [(v, v % 6 + 1) for v in range(1, 7)] + [(1, 5)]
    return Digraph.from_arcs(6, arcs)


def cycle_chain(lengths: tuple[int, ...]) -> Digraph:
    """Directed cycles of the given lengths, each joined to the next by an
    arc between their first vertices, plus an arc from the last cycle's
    first vertex to a trailing vertex.  Converges; the period of its powers
    is lcm(lengths)."""
    arcs = []
    firsts = []
    start = 1
    for length in lengths:
        arcs += [(start + i, start + (i + 1) % length) for i in range(length)]
        if firsts:
            arcs.append((firsts[-1], start))
        firsts.append(start)
        start += length
    arcs.append((firsts[-1], start))
    return Digraph.from_arcs(start, arcs)


def wielandt(n: int) -> BoolMatrix:
    """Arcs i -> i+1, n -> 1 and n -> 2 on 1..n: the primitive digraph
    whose index (n-1)^2 + 1 meets the bound of Heap & Lynn."""
    rows = [1 << (i + 1) for i in range(n - 1)] + [0b11]
    return BoolMatrix(n, tuple(rows))


# ------------------------------------------------------------ naive oracles


def zeros(n: int) -> BoolMatrix:
    """The n x n zero matrix."""
    return BoolMatrix(n, (0,) * n)


def entry(a: BoolMatrix, i: int, j: int) -> int:
    """Entry (i, j) of a, 0-based."""
    return (a.rows[i] >> j) & 1


def adjacent(g: UndirectedGraph, u: int, v: int) -> bool:
    """Whether u and v, 1-based, are adjacent in g."""
    return bool((g.rows[u - 1] >> (v - 1)) & 1)


def to_entries(a: BoolMatrix) -> list[list[int]]:
    """a as n lists of n entries 0/1, the inverse of BoolMatrix.from_entries."""
    return [[(r >> j) & 1 for j in range(a.n)] for r in a.rows]


def reference_powers(a: BoolMatrix) -> tuple[int, int, list[BoolMatrix]]:
    """(mu, pi, [A^1, ..., A^(mu+pi-1)]): every distinct power of a, stepped
    as A^m * A (the other factor order from the oracle's) until the first
    repeat A^(mu+pi) = A^mu."""
    seen = {a.rows: 1}
    powers = [a]
    current = a
    while True:
        current = bool_mul(current, a)
        first = seen.get(current.rows)
        if first is not None:
            return first, len(powers) + 1 - first, powers
        powers.append(current)
        seen[current.rows] = len(powers)


def naive_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Literal triple-loop Boolean product."""
    ea, eb = to_entries(a), to_entries(b)
    n = a.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if ea[i][k] and eb[k][j]:
                    out[i][j] = 1
                    break
    return BoolMatrix.from_entries(out)


def numpy_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Dense boolean product via numpy (OR-AND semiring on bool dtype)."""
    na = np.array(to_entries(a), dtype=bool)
    nb = np.array(to_entries(b), dtype=bool)
    return BoolMatrix.from_entries(np.dot(na, nb).astype(int).tolist())


def random_matrix(rng: random.Random, n: int, density: float) -> BoolMatrix:
    rows = tuple(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
    )
    return BoolMatrix(n, rows)


def random_digraph(
    rng: random.Random, n: int, density: float, allow_loops: bool = True
) -> Digraph:
    arcs = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if (u != v or allow_loops) and rng.random() < density:
                arcs.add((u, v))
    return Digraph.from_arcs(n, arcs)


def vertices(mask: int) -> frozenset[int]:
    """The 1-based vertices whose bits are set in a vertex mask."""
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def skeleton_edges(joins) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every edge ((p, i), (p + 1, j)) of the class skeleton whose joins
    cs_graph returned: label j of level p + 1 is bit j - 1 of joins[p-1][i-1]."""
    return [
        ((p, i), (p + 1, j))
        for p, level in enumerate(joins, start=1)
        for i, mask in enumerate(level, start=1)
        for j in sorted(vertices(mask))
    ]


def simple_cycle_lengths(d: Digraph, vertices: frozenset[int]) -> set[int]:
    """Lengths of all simple directed cycles inside the given vertex set,
    by exhaustive DFS (small instances only)."""
    succ: dict[int, list[int]] = {}
    for u, w in d.arc_list():
        succ.setdefault(u, []).append(w)
    lengths: set[int] = set()
    for start in sorted(vertices):
        work = [(start, frozenset((start,)), 0)]
        while work:
            u, visited, length = work.pop()
            for w in succ.get(u, ()):
                if w == start:
                    lengths.add(length + 1)
                elif w in vertices and w > start and w not in visited:
                    work.append((w, visited | {w}, length + 1))
    return lengths


def rotate_classes(chain: ComponentChain, shifts: tuple[int, ...]) -> ComponentChain:
    """Relabel every component's classes by a rotation, the interface
    pairs along with them: new U_j of D_p is old U_(j + shifts[p-1]).  The
    arc invariant is preserved, only the anchoring of U_1 changes."""
    new_classes = []
    for cls, s in zip(chain.class_masks, shifts):
        k = len(cls)
        new_classes.append(tuple(cls[(j + s) % k] for j in range(k)))

    def relabel(j: int, p: int) -> int:
        """The new label of old label j of D_p."""
        return (j - 1 - shifts[p - 1]) % chain.kappa(p) + 1

    pairs = tuple(
        frozenset((relabel(k, p), relabel(l, p + 1)) for k, l in level)
        for p, level in enumerate(chain.pairs, start=1)
    )
    return ComponentChain(tuple(new_classes), chain.loops, pairs)


def class_level_chains(kmax: int, eta_max: int):
    """Every chain with one vertex per class, as (digraph, pairs), in a
    fixed order: eta from 1 to eta_max, each component of a kind 0..kmax,
    and each interface a nonempty set of class pairs.  Kind 0 is a lone
    vertex (a trivial component), kind kappa >= 1 a kappa-cycle (a loop
    for kappa 1) whose class j is its j-th vertex; pair (k, l) of
    interface p is one arc from class k of D_p to class l of D_(p+1).
    pairs is what ``component_chain`` must record for the digraph."""
    for eta in range(1, eta_max + 1):
        for kinds in itertools.product(range(kmax + 1), repeat=eta):
            counts = [max(kind, 1) for kind in kinds]
            starts = list(itertools.accumulate(counts, initial=0))
            cycles = [
                (s + j, s + j % kind + 1) for s, kind in zip(starts, kinds) for j in range(1, kind + 1)
            ]
            grids = [
                list(itertools.product(range(1, a + 1), range(1, b + 1)))
                for a, b in zip(counts, counts[1:])
            ]
            for masks in itertools.product(*(range(1, 1 << len(grid)) for grid in grids)):
                pairs = tuple(
                    frozenset(pair for i, pair in enumerate(grid) if mask >> i & 1)
                    for grid, mask in zip(grids, masks)
                )
                arcs = cycles + [
                    (starts[p] + k, starts[p + 1] + l)
                    for p, level in enumerate(pairs)
                    for k, l in level
                ]
                yield Digraph.from_arcs(starts[-1], arcs), pairs


# --------------------------------------------------------------- strategies


@st.composite
def bool_matrices(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return BoolMatrix(n, rows)


@st.composite
def digraphs(draw, max_n: int = 7, allow_loops: bool = True):
    n = draw(st.integers(1, max_n))
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if allow_loops or u != v
    ]
    arcs = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Digraph.from_arcs(n, arcs)
