"""Convergence, limits, and clique structure for competition-graph
sequences of linearly connected digraphs.

Everything here is exact modular arithmetic on imprimitivity classes; the
simulation oracle (see ``oracle``) provides the independent ground truth
these computations are tested against.

Conventions used throughout:

* A digraph is its adjacency matrix, a ``BoolMatrix``.  Vertex sets are
  masks in the layout of one of its rows, bit v-1 for vertex v: U_j of
  D_p is ``chain.class_masks[p-1][j-1]`` and D_p is ``chain.masks[p-1]``.
  ``interface_pairs``, the one reader of a digraph's rows, ANDs ORs of
  rows with these masks; the classes feeding the trailing vertex are
  read off its pairs.  No layer keeps a vertex -> class map.
* Class labels are 1-based: the classes of a component with index kappa
  are U_1 .. U_kappa, and label j is residue j - 1 of Z_kappa =
  {0 .. kappa-1} everywhere.  A residue set is an int mask over Z_kappa,
  bit r for residue r, so shifting it by s is a rotation of its kappa
  bits.  ``lambda_set`` sets bit j - 1 for label j, and ``b_graph`` turns
  residue r back into label r + 1.  Walk-length residues live in Z_kappa
  with no label mapping.
* The class skeleton is label masks too: ``cs_graph`` returns its joins,
  where ``joins[p-1][i-1]`` is the mask of the labels j of level p + 1
  joined to (p, i), bit j - 1 for label j; ``b_graph`` builds one level
  of it.  The label counts are the chain's: level p has chain.kappa(p).
* Skeleton paths are ascending: one partite level per step.  Under that
  reading the three limit adjacency clauses (same class, same component,
  cross component) collapse to one rule between classes: x in U_i of D_p
  and y in U_j of D_q with p <= q are adjacent iff the ascending reach
  sets of (p, i) and (q, j) meet at some level r >= q.  The reach of
  (q, j) has no class below level q, so the bound r >= q holds by itself
  and the rule is just that the reaches meet.  ``limit_graph`` applies it
  with two passes of vertex-mask ORs along the skeleton joins.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from ._record import frozen
from .graphs import (
    ComponentChain,
    Digraph,
    UndirectedGraph,
    _bit_indices,
    component_chain,
)

__all__ = [
    "RULE_ALL_TRIVIAL",
    "RULE_NONTRIVIAL_TAIL",
    "RULE_TRAILING_CONDITION",
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
    "limit_graph",
    "jbd_condition",
    "union_of_cliques",
]

RULE_ALL_TRIVIAL = "AllTrivial"
RULE_NONTRIVIAL_TAIL = "NontrivialTail"
RULE_TRAILING_CONDITION = "TrailingCondition"


class TrivialComponentError(ValueError):
    """A construction that needs every component nontrivial met a trivial one."""


@frozen
class DivergenceWitness:
    """A class pair whose shifted union is neither empty nor all of Z_kappa;
    excluded_residue is one residue missing from the nonempty union."""

    j1: int
    j2: int
    excluded_residue: int


@frozen
class ConvergenceVerdict:
    """The rule that decided, and the witness of a divergence; the
    sequence converges iff there is none."""

    rule: str
    witness: DivergenceWitness | None

    @property
    def converged(self) -> bool:
        return self.witness is None


@frozen
class JbdVerdict:
    """Whether the limit is block diagonal with all-ones diagonal blocks
    (a disjoint union of cliques).  levels[p-1] is the line of interface
    level p, marked "ok   " or "FAIL "; failing_level is the first failing
    level, or None.  holds and detail are derived from these two."""

    failing_level: int | None
    levels: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return self.failing_level is None

    @property
    def detail(self) -> str | None:
        """The failing level's line without its "FAIL " mark, or None."""
        p = self.failing_level
        return None if p is None else self.levels[p - 1].removeprefix("FAIL ")

    def __bool__(self) -> bool:
        return self.holds


def interface_pairs(d: Digraph, chain: ComponentChain, p: int) -> frozenset[tuple[int, int]]:
    """Class-index pairs (k, l) with an arc from U_k of D_p to U_l of D_(p+1).

    The rows of U_k are ORed into one out-neighbour mask; when it reaches
    D_(p+1), it is tested against each class mask there.
    """
    if not (1 <= p <= chain.eta - 1):
        raise ValueError(f"interface index {p} outside 1..{chain.eta - 1}")
    rows = d.rows
    pairs = set()
    for k, members in enumerate(chain.class_masks[p - 1], start=1):
        out = 0
        for u in _bit_indices(members):
            out |= rows[u]
        if out & chain.masks[p]:
            for l, target in enumerate(chain.class_masks[p], start=1):
                if out & target:
                    pairs.add((k, l))
    return frozenset(pairs)


def lambda_set(d: Digraph, chain: ComponentChain) -> int:
    """Classes of the last nontrivial component D_p that feed the one
    vertex of the trivial D_(p+1), the labels k of the interface pairs
    (k, 1), as a mask over Z_kappa with kappa = chain.kappa(p): class
    label j is bit j - 1.

    Requires a trailing trivial part: some component after the last
    nontrivial one.
    """
    p = chain.last_nontrivial
    if p is None:
        raise ValueError("every component is trivial; no reference component exists")
    if p == chain.eta:
        raise ValueError("last component is nontrivial; no trailing trivial part")
    return sum({1 << (k - 1) for k, _ in interface_pairs(d, chain, p)})


def _rotate(mask: int, s: int, kappa: int) -> int:
    """s + mask over Z_kappa: bit r moves to bit (r + s) mod kappa."""
    s %= kappa
    return (mask << s | mask >> (kappa - s)) & ((1 << kappa) - 1)


def l_set(lam: int, j: int, kappa: int) -> int:
    """Walk-length residues from class j into the trailing vertex:
    {(k - j + 1) mod kappa : k a class label in lam}.  Label k is bit
    k - 1 of lam, so this is lam rotated by 2 - j."""
    if not (1 <= j <= kappa):
        raise ValueError(f"class label {j} outside 1..{kappa}")
    if lam < 0 or lam >> kappa:
        raise ValueError(f"mask {lam:#b} has bits outside Z_{kappa}")
    return _rotate(lam, 2 - j, kappa)


def shifted_union(l1: int, l2: int, shifts: int, kappa: int) -> int:
    """Union over i = 0..shifts-1 of (i + l1) intersect (i + l2), for
    masks l1, l2 over Z_kappa.

    Shifting is a rotation of Z_kappa, so (i + l1) intersect (i + l2) is
    i + (l1 & l2): the intersection is taken once, and shifts past kappa
    repeat earlier ones.
    """
    if shifts < 1:
        raise ValueError(f"shift count must be >= 1, got {shifts}")
    if kappa < 1 or l1 < 0 or l2 < 0 or (l1 | l2) >> kappa:
        raise ValueError(f"masks {l1:#b}, {l2:#b} have bits outside Z_{kappa}")
    common = l1 & l2
    union = 0
    for i in range(min(shifts, kappa)):
        union |= _rotate(common, i, kappa)
    return union


def converges(d: Digraph, *, chain: ComponentChain | None = None) -> ConvergenceVerdict:
    """Decide whether the m-step competition graph sequence of d becomes
    constant for large m.

    Rules, in order: every component trivial (the sequence is eventually
    edgeless); last component nontrivial (always converges); otherwise the
    trailing condition: writing p for the last nontrivial component, kappa
    for its index, and L_j for the walk-length residues from class j into
    the next component's vertex, the sequence converges iff for every
    unordered pair j1 != j2 the union over i = 0..eta-p-1 of
    (i + L_j1) intersect (i + L_j2) is empty or all of Z_kappa.

    Only the pairs (1, j2) are tested.  Every L_j is L_1 rotated by
    -(j - 1), and rotation commutes with intersection, union and the
    shifts, so the union for (j1, j2) is the union for (1, 1 + j2 - j1)
    rotated by -(j1 - 1).  A rotation keeps an empty set empty and a full
    one full, so (j1, j2) fails iff (1, 1 + j2 - j1) does.  The first
    failing pair in (j1, j2) order is therefore (1, 1 + d) for the
    smallest failing difference d, and the witness, its excluded residue
    included, is the one a loop over all pairs would report.

    A loop is a 1-cycle, so its component has kappa 1.  The rules use a
    nontrivial component only through the long-walk residue rule of an
    irreducible block (Brualdi & Ryser, 1991): for large m, a walk of
    length m runs from U_i to U_j iff m = j - i (mod kappa).  A looped
    single vertex is the block [1]: its loop walks from it to itself in
    every m >= 1 steps, so the rule holds with kappa 1 and it is
    nontrivial; a loopless one has no walk inside it.  If D_p has kappa 1,
    every union is empty or all of Z_1, and the sequence converges.
    """
    if chain is None:
        chain = component_chain(d)
    if chain.all_trivial:
        return ConvergenceVerdict(RULE_ALL_TRIVIAL, None)
    if not chain.trivial_flags[-1]:
        return ConvergenceVerdict(RULE_NONTRIVIAL_TAIL, None)
    p = chain.last_nontrivial
    assert p is not None
    kappa = chain.kappa(p)
    shifts = chain.eta - p
    lam = lambda_set(d, chain)
    l1 = l_set(lam, 1, kappa)
    full = (1 << kappa) - 1
    for j2 in range(2, kappa + 1):
        union = shifted_union(l1, l_set(lam, j2, kappa), shifts, kappa)
        if union and union != full:
            # union + 1 carries into the lowest residue missing from union
            excluded = (~union & (union + 1)).bit_length() - 1
            return ConvergenceVerdict(
                RULE_TRAILING_CONDITION,
                DivergenceWitness(j1=1, j2=j2, excluded_residue=excluded),
            )
    return ConvergenceVerdict(RULE_TRAILING_CONDITION, None)


def b_graph(kappa1: int, kappa2: int, pairs: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Bipartite skeleton between the classes of two consecutive nontrivial
    components, as the joins of one skeleton level: entry i - 1 is the
    mask of the labels j joined to label i, bit j - 1 for label j.  Labels
    (i, j) are joined iff for some interface pair (k, l) and some t in
    0..lcm(kappa1,kappa2)-1, i = k + 1 + t (mod kappa1) and
    j = l + t (mod kappa2).

    Along the walk of (k, l), i - j = k - l + 1 (mod g), g = gcd(kappa1,
    kappa2), and by the Chinese remainder theorem the walk reaches every
    (i, j) with that difference.  So the j - 1 joined to i are, mod g, the
    residues l - k - 1 of the pairs rotated by i - 1, and the mask of i
    repeats that g-bit pattern in every block of g labels.
    """
    if kappa1 < 1 or kappa2 < 1:
        raise ValueError(f"class counts must be >= 1, got {kappa1}, {kappa2}")
    for k, l in pairs:
        if not (1 <= k <= kappa1 and 1 <= l <= kappa2):
            raise ValueError(
                f"interface pair ({k},{l}) inconsistent with moduli ({kappa1},{kappa2})"
            )
    g = gcd(kappa1, kappa2)
    comb = ((1 << kappa2) - 1) // ((1 << g) - 1)  # bits 0, g, 2g, ... below kappa2
    pattern = sum({1 << (l - k - 1) % g for k, l in pairs})
    return tuple(comb * _rotate(pattern, i, g) for i in range(kappa1))


def cs_graph(d: Digraph, chain: ComponentChain) -> tuple[tuple[int, ...], ...]:
    """The joins of the class skeleton of the whole chain, an eta-partite
    graph on the labels (p, 1) .. (p, kappa_p) of each level p: entry
    p - 1 is the ``b_graph`` level between D_p and D_(p+1).  Defined only
    when every component is nontrivial."""
    _require_nontrivial(chain, "the class skeleton")
    return tuple(
        b_graph(chain.kappa(p), chain.kappa(p + 1), interface_pairs(d, chain, p))
        for p in range(1, chain.eta)
    )


def _require_nontrivial(chain: ComponentChain, needs: str) -> None:
    """Raise TrivialComponentError naming the first trivial component, if any."""
    for p, trivial in enumerate(chain.trivial_flags, start=1):
        if trivial:
            raise TrivialComponentError(
                f"component {p} is trivial; {needs} needs every component nontrivial"
            )


def limit_graph(joins: tuple[tuple[int, ...], ...], chain: ComponentChain) -> UndirectedGraph:
    """The limit of the m-step competition graph sequence, built from the
    skeleton joins = cs_graph(d, chain).  Defined, as they are, only
    when every component is nontrivial (the sequence then converges unconditionally).

    x in class a and y in class b are adjacent iff R_a and R_b meet, R_c
    being the ascending reach of class c, c included.  Each class's vertex
    mask starts as its members.  Bottom-up, every join (p, i) -> (p + 1, j)
    ORs mask (p, i) into mask (p + 1, j), so mask c becomes D_c, the
    vertices whose class reaches c.  Top-down, every join ORs the finished
    mask (p + 1, j) into mask (p, i).  R_a is {a} and the R_a' of the
    classes a' that a joins, so mask a becomes the union of D_c over c in
    R_a: the vertices whose class's reach meets R_a.  Each vertex takes its
    class's mask minus its own bit.  A looped single vertex is a
    nontrivial class of kappa 1, by the residue rule in ``converges``.
    """
    masks = [list(level) for level in chain.class_masks]
    steps = list(zip(masks, masks[1:], joins))
    for below, above, level in steps:
        for i, joined in enumerate(level):
            for j in _bit_indices(joined):
                above[j] |= below[i]
    for below, above, level in reversed(steps):
        for i, joined in enumerate(level):
            for j in _bit_indices(joined):
                below[i] |= above[j]
    # the classes of an all-nontrivial chain partition the vertices 1..n
    rows = [0] * sum(m.bit_count() for m in chain.masks)
    for level, finished in zip(chain.class_masks, masks):
        for members, row in zip(level, finished):
            for v in _bit_indices(members):
                rows[v] = row & ~(1 << v)
    return UndirectedGraph(len(rows), tuple(rows))


def jbd_condition(d: Digraph, chain: ComponentChain) -> JbdVerdict:
    """Whether the limit graph is a disjoint union of cliques, decided from
    the interfaces alone: for every p < eta, kappa_eta must divide kappa_p
    and all interface pairs (k, l) of D_p -> D_(p+1) must share one value
    of (k - l) mod kappa_eta.  A single component satisfies this vacuously.

    Defined only when every component is nontrivial.
    """
    _require_nontrivial(chain, "the clique criterion")
    eta = chain.eta
    kappa_last = chain.kappa(eta)
    lines = []
    for p in range(1, eta):
        kappa_p = chain.kappa(p)
        if kappa_p % kappa_last != 0:
            lines.append(
                f"FAIL level {p}: kappa_{eta} = {kappa_last} does not divide kappa_{p} = {kappa_p}"
            )
            continue
        residues: dict[int, tuple[int, int]] = {}
        for k, l in sorted(interface_pairs(d, chain, p)):
            residues.setdefault((k - l) % kappa_last, (k, l))
        if len(residues) > 1:
            (r1, pair1), (r2, pair2) = sorted(residues.items())[:2]
            lines.append(
                f"FAIL level {p}: interface pairs {pair1} and {pair2} have residues "
                f"{r1} != {r2} (mod kappa_{eta} = {kappa_last})"
            )
        else:
            shared = next(iter(residues)) if residues else None
            lines.append(
                f"ok   level {p}: kappa_{eta} = {kappa_last} divides kappa_{p} = {kappa_p}; "
                f"shared residue {shared}"
            )
    failing = (p for p, line in enumerate(lines, start=1) if line.startswith("FAIL"))
    return JbdVerdict(next(failing, None), tuple(lines))


def union_of_cliques(g: UndirectedGraph) -> bool:
    """True iff every connected component of g induces a complete graph.

    Vertices are grouped by closed neighbourhood N[v] = N(v) + v.  g is a
    union of cliques iff every group is as large as its mask: a group lies
    inside its mask, so equal sizes make the mask a clique whose members
    all have exactly that neighbourhood.
    """
    groups = Counter(r | (1 << i) for i, r in enumerate(g.rows))
    return all(size == mask.bit_count() for mask, size in groups.items())
