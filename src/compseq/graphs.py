"""Digraphs on 1-based vertex ids and their competition-graph machinery.

``component_chain`` accepts exactly the linearly connected digraphs: the
strong components, listed in topological order D_1, ..., D_eta, must form a
directed path in the condensation, every arc either staying inside one
component or going from some D_p straight to D_(p+1), with at least one arc
across every consecutive interface; a loop is a 1-cycle like any other.
A digraph's chain is found once: ``component_chain`` keeps it on the digraph.

``imprimitivity`` splits each strong component into its cyclic classes
U_1, ..., U_kappa (kappa = gcd of the component's directed cycle lengths;
every arc advances the class index by one, cyclically).  Classes are
anchored so the smallest vertex id of a nontrivial component lands in U_1;
any other rotation of the labels is equally consistent and yields the same
downstream answers.  The chain is those classes: U_j of D_p is
``chain.class_masks[p-1][j-1]``, and D_p is the union of its classes.

Each class, and each component derived from them, is one vertex mask, in
the layout of a matrix row: bit v-1 is set iff vertex v belongs to it.

A digraph is its adjacency matrix: ``Digraph`` is another name for
``BoolMatrix``, where bit v-1 of ``rows[u-1]`` is set iff (u, v) is an
arc.  ``UndirectedGraph`` stores its adjacency matrix in the same layout,
bit v-1 of ``rows[u-1]`` set iff u ~ v, and every construction checks
that it is symmetric with a zero diagonal.  The arc and edge sets are
derived from the rows only when asked for; ``arc_list`` and
``edge_list`` read the rows in order, which yields them sorted.

``m_step_competition`` joins u and v iff some vertex is reachable from both
by a directed walk of length exactly m.  It computes the graph and A^m by
two independent routes, ``gamma`` of the repeated-squaring power A^m and a
DP on the int masks of the vertices each vertex reaches, read off as
reach * reach^T without ``bool_mul`` or ``gamma``, and raises
InternalCheckError on any difference in their rows, an asymmetric row
included.  Only the DP's rows become a graph, the one returned, so its
symmetry check runs once.  The DP builds its own successor lists, not the
cached ``successors`` that ``bool_mul`` and the oracle share, so the two
routes share no state; both square, so any m costs O(log m) steps.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable

from ._record import frozen
from .bmat import BoolMatrix, ParseError, _bit_indices, _bit_select, _decimal
from .bmat import bool_pow, gamma, parse_matrix

__all__ = [
    "Digraph",
    "UndirectedGraph",
    "ComponentChain",
    "NotLinearlyConnectedError",
    "InternalCheckError",
    "component_chain",
    "imprimitivity",
    "power_period",
    "m_step_competition",
    "parse_edge_list",
    "format_edge_list",
    "parse_digraph",
    "detect_format",
]

class NotLinearlyConnectedError(ValueError):
    """The strong components do not form a single consecutive chain.

    ``witness_arc`` names an offending arc when one exists (an arc that
    skips a level of the chain); it is None when the failure is a missing
    interface or disconnection.
    """

    def __init__(self, message: str, witness_arc: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness_arc = witness_arc


class InternalCheckError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


Digraph = BoolMatrix


@frozen
class UndirectedGraph:
    """Simple undirected graph on 1..n stored as bitset rows: bit v-1 of
    ``rows[u-1]`` is set iff u and v are adjacent.

    Every construction checks that the rows form a symmetric matrix with
    zero diagonal and no bit outside 0..n-1, naming the first bad entry in
    row order.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        # BoolMatrix's own checks on these fields: n >= 1, the row count
        # and the bit range
        BoolMatrix.__post_init__(self)
        cols = BoolMatrix.columns(self)
        for i, (r, c) in enumerate(zip(self.rows, cols)):
            if (r >> i) & 1:
                raise ValueError(f"adjacency matrix has nonzero diagonal at {i}")
            diff = (r ^ c) >> (i + 1)
            if diff:
                j = i + (diff & -diff).bit_length()
                raise ValueError(f"adjacency matrix not symmetric at ({i},{j})")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        rows = [0] * n
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        return cls(n, tuple(rows))

    @classmethod
    def from_adjacency_matrix(cls, a: BoolMatrix) -> "UndirectedGraph":
        """The graph whose adjacency matrix is a; raises ValueError on a
        nonzero diagonal or an asymmetric entry."""
        return cls(a.n, a.rows)

    def edge_list(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, in sorted order."""
        ids = range(1, self.n + 1)
        return [(u, v) for u, r in zip(ids, self.rows) for v in _bit_select(ids[u:], r >> u)]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v."""
        return frozenset(self.edge_list())


def _strong_components(d: Digraph) -> list[int]:
    """Kosaraju's two searches; the vertex masks of the components in
    topological order.

    A DFS along d.successors from roots 0..n-1 marks the vertices and lists
    them as they finish; then each one still marked, latest finisher first,
    gathers and unmarks the marked vertices reaching it along predecessor
    lists.  A component is first met at the vertex the DFS entered it by,
    the last of it to finish, as Tarjan's algorithm on the same DFS emits
    it when that vertex finishes: this order is Tarjan's reversed.
    """
    n = d.n
    succ = d.successors
    marked = [False] * n
    finished = []
    for root in range(n):
        if marked[root]:
            continue
        marked[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, out = work[-1]
            for w in out:
                if not marked[w]:
                    marked[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    preds = [[] for _ in range(n)]
    for v, out in enumerate(succ):
        for w in out:
            preds[w].append(v)
    components = []
    for root in reversed(finished):
        if not marked[root]:
            continue
        marked[root] = False
        comp = 1 << root
        stack = [root]
        while stack:
            for u in preds[stack.pop()]:
                if marked[u]:
                    marked[u] = False
                    comp |= 1 << u
                    stack.append(u)
        components.append(comp)
    return components


@frozen
class ComponentChain:
    """Strong components D_1..D_eta of a linearly connected digraph, in
    chain order, as their cyclic classes: class_masks[p-1][j-1] is the
    vertex mask of U_j of D_p.  kappa_p, the gcd of D_p's directed cycle
    lengths (1 for a trivial D_p), is its class count.  Every arc inside
    D_p goes from some U_j to U_(j+1), indices cyclic.  loops masks the
    looped vertices, read off d's diagonal: a looped single vertex is
    the block [1], nontrivial with one class.

    masks[p-1], the vertex mask of D_p, and the trivial flags are derived
    from the fields only when asked for.
    """

    class_masks: tuple[tuple[int, ...], ...]
    loops: int

    def __post_init__(self):
        for p, classes in enumerate(self.class_masks, start=1):
            if not classes:
                raise ValueError(f"component {p} has no class")
            if not all(classes):
                raise ValueError(f"component {p}: empty imprimitivity class")

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(reduce(or_, classes) for classes in self.class_masks)

    @property
    def kappas(self) -> tuple[int, ...]:
        return tuple(map(len, self.class_masks))

    def kappa(self, p: int) -> int:
        return len(self.class_masks[p - 1])

    @property
    def eta(self) -> int:
        return len(self.class_masks)

    @cached_property
    def trivial_flags(self) -> tuple[bool, ...]:
        return tuple(m.bit_count() == 1 and not m & self.loops for m in self.masks)

    @property
    def all_trivial(self) -> bool:
        return all(self.trivial_flags)

    @property
    def last_nontrivial(self) -> int | None:
        """Largest p with D_p nontrivial, or None."""
        for p in range(self.eta, 0, -1):
            if not self.trivial_flags[p - 1]:
                return p
        return None


def component_chain(d: Digraph) -> ComponentChain:
    """Strong-component chain of d with the cyclic classes of every
    component, or NotLinearlyConnectedError.

    A chain on n vertices needs at least n - 1 arcs that are not loops,
    since a loop links nothing, so fewer are rejected before any
    per-component work.

    A chain found is kept in d's instance dict, as ``cached_property``
    keeps ``successors`` there, and returned by every later call on d; a
    refusal is not kept, so it raises again on every call.
    """
    chain = d.__dict__.get("_component_chain")
    if chain is not None:
        return chain
    loops = sum(1 << u for u, r in enumerate(d.rows) if r >> u & 1)
    arc_count = sum(map(int.bit_count, d.rows)) - loops.bit_count()
    if arc_count < d.n - 1:
        raise NotLinearlyConnectedError(
            f"{arc_count} arc{'' if arc_count == 1 else 's'} cannot link {d.n} vertices "
            f"in a chain (at least {d.n - 1} needed)"
        )
    comps = _strong_components(d)
    masks = comps + [0]
    pos = [0] * d.n
    for p, comp in enumerate(comps):
        for v in _bit_indices(comp):
            pos[v] = p
    linked = [False] * (len(comps) - 1)
    # rows in vertex order and bits upwards: the witness is the first jump in (u, v) order
    for u, row in enumerate(d.rows):
        p = pos[u]
        out = row & ~masks[p]
        if not out:
            continue
        jump = out & ~masks[p + 1]
        if jump:
            v = (jump & -jump).bit_length() - 1
            raise NotLinearlyConnectedError(
                f"arc ({u + 1},{v + 1}) jumps from component {p + 1} to component {pos[v] + 1}",
                witness_arc=(u + 1, v + 1),
            )
        linked[p] = True
    for p, ok in enumerate(linked):
        if not ok:
            raise NotLinearlyConnectedError(
                f"no arcs from component {p + 1} to component {p + 2}"
            )
    chain = d.__dict__["_component_chain"] = ComponentChain(imprimitivity(d, comps), loops)
    return chain


def _bfs_levels(root: int, comp: int, rows: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The BFS levels from root without leaving the vertex mask comp, and
    their out-masks: levels[t] holds the vertices at distance t from root,
    and outs[t] is the OR of their rows inside comp."""
    levels, outs = [], []
    seen = frontier = 1 << (root - 1)
    while frontier:
        levels.append(frontier)
        nxt = 0
        for u in _bit_indices(frontier):
            nxt |= rows[u]
        nxt &= comp
        outs.append(nxt)
        frontier = nxt & ~seen
        seen |= frontier
    return levels, outs


def imprimitivity(d: Digraph, masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The class masks U_1..U_kappa of each strong component of d, given
    as the vertex masks in masks, in that order.

    A single vertex is one class.  For a larger component, BFS from its
    smallest vertex gives levels and each level's out-mask.  An arc out of
    level t that lands on a vertex w below level t + 1 closes a
    cycle-length discrepancy t + 1 - level(w), and kappa is the gcd of
    these (so the gcd of all directed cycle lengths; a loop closes a
    discrepancy of 1, so its component has kappa 1); U_j collects the
    vertices with level = j - 1 (mod kappa), putting the BFS root in U_1.
    """
    rows = d.rows
    all_classes = []
    for cm in masks:
        if cm.bit_count() == 1:
            all_classes.append((cm,))
            continue
        root = (cm & -cm).bit_length()
        levels, outs = _bfs_levels(root, cm, rows)
        if sum(map(int.bit_count, levels)) != cm.bit_count():
            raise InternalCheckError(
                f"component containing {root} not strongly connected"
            )
        level = {v: t for t, members in enumerate(levels) for v in _bit_indices(members)}
        levels.append(0)  # the empty level after the last
        kappa = 0
        for t, out in enumerate(outs):
            for w in _bit_indices(out & ~levels[t + 1]):
                kappa = gcd(kappa, t + 1 - level[w])
        if kappa < 1:
            raise InternalCheckError(
                f"component containing {root} has no cycle discrepancy"
            )
        classes = [0] * kappa
        for t, members in enumerate(levels):
            classes[t % kappa] |= members
        for t, out in enumerate(outs):
            stray = out & ~classes[(t + 1) % kappa]
            if stray:  # only then look for the first arc out of level t into stray
                u = next(u for u in _bit_indices(levels[t]) if rows[u] & stray)
                w = next(_bit_indices(rows[u] & stray)) + 1
                raise InternalCheckError(f"arc ({u + 1},{w}) does not advance its class by one")
        all_classes.append(tuple(classes))
    return tuple(all_classes)


def _m_step_reach(d: Digraph, m: int) -> list[int]:
    """reach[v-1] has bit w-1 set iff a walk of length exactly m runs from
    v to w.

    Binary powering from reach_0(v) = {v}, reading m's bits from the top:
    each bit squares each distinct list once, reach_2t(v) = OR of reach_t(w)
    over w in reach_t(v), and a set bit then takes one arc step, the OR of
    reach_t(w) over the arcs (v, w).  About 2 log2(m) steps for any m."""
    succ = [list(_bit_indices(r)) for r in d.rows]  # its own, not d.successors
    reach = [1 << v for v in range(d.n)]
    for bit in format(m, "b"):
        squared = {r: reduce(or_, _bit_select(reach, r), 0) for r in set(reach)}
        reach = [squared[r] for r in reach]
        if bit == "1":
            nxt = []
            for out in succ:
                acc = 0
                for w in out:
                    acc |= reach[w]
                nxt.append(acc)
            reach = nxt
    return reach


def power_period(d: Digraph) -> int:
    """The period pi of the powers of d's adjacency matrix: the lcm of the
    kappas of its strong components."""
    return lcm(*map(len, imprimitivity(d, _strong_components(d))))


def m_step_competition(d: Digraph, m: int) -> UndirectedGraph:
    """Join u and v iff some vertex is reachable from both by a directed
    walk of length exactly m.

    Evaluated twice: once as ``gamma`` of A^m from ``bool_pow``, once by
    the walk DP reach_(t+1)(v) = OR of reach_t(w) over the arcs (v, w),
    from reach_0(v) = {v}, as reach * reach^T with the diagonal cleared:
    row u ORs the predecessor masks of u's reach, once per distinct list.
    Both routes square, so any m costs about 2 log2(m) reach-list steps
    and log2(m) products, with no cap: Wielandt's digraph, whose index
    (n-1)^2 + 1 is the largest, answers m = 10^12 at n = 2048 in about
    4 s on a 2-core Intel Xeon.  The DP shares no kernel (no ``bool_mul``,
    no ``gamma``) and no successor list with the matrix route.  Their rows
    are compared, the graphs' and then A^m's: a mismatch, an asymmetric
    row included, raises InternalCheckError.  Only the DP's rows become a
    graph, the one returned, so the symmetry check runs once.
    """
    if m < 1:
        raise ValueError(f"step count must be >= 1, got {m}")
    power = bool_pow(d, m)
    reach = tuple(_m_step_reach(d, m))
    preds = BoolMatrix(d.n, reach).columns()
    shared = {r: reduce(or_, _bit_select(preds, r), 0) for r in set(reach)}
    rows = tuple(shared[r] & ~(1 << v) for v, r in enumerate(reach))
    for a, b, what in (
        (gamma(power).rows, rows, f"m-step competition routes disagree at m={m}, first difference"),
        (power.rows, reach, f"m-step routes disagree on A^{m} at"),
    ):
        if a != b:
            diff = BoolMatrix(d.n, tuple(x ^ y for x, y in zip(a, b))).arc_list()[0]
            raise InternalCheckError(f"{what} {diff}")
    return UndirectedGraph(d.n, rows)


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format: line 1 is "n m", then m lines "u v".

    Rejects duplicate arcs; ids are 1-based, and "v v" is a loop on v.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"expected 'n m', got {lines[0].strip()!r}")
    try:
        n, m = _decimal(head[0]), _decimal(head[1])
    except ValueError:
        raise ParseError(1, f"expected integers, got {lines[0].strip()!r}") from None
    if n < 1:
        raise ParseError(1, f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise ParseError(1, f"arc count must be >= 0, got {m}")
    if len(lines) < m + 1:
        raise ParseError(
            len(lines) + 1, f"expected {m} arcs, input ends after arc {len(lines) - 1}"
        )
    try:
        rows = [0] * n
    except (OverflowError, MemoryError):
        raise ParseError(1, f"vertex count {n} is too large") from None
    for i in range(m):
        lineno = i + 2
        toks = lines[i + 1].split()
        if len(toks) != 2:
            raise ParseError(lineno, f"expected 'u v', got {lines[i + 1].strip()!r}")
        try:
            u, v = _decimal(toks[0]), _decimal(toks[1])
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {lines[i + 1].strip()!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"arc ({u},{v}) outside 1..{n}")
        bit = 1 << (v - 1)
        if rows[u - 1] & bit:
            raise ParseError(lineno, f"duplicate arc ({u},{v})")
        rows[u - 1] |= bit
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, "trailing content after arc list")
    return Digraph(n, tuple(rows))


def format_edge_list(d: Digraph) -> str:
    """Inverse of parse_edge_list; arcs sorted, newline-terminated."""
    arcs = d.arc_list()
    lines = [f"{d.n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


def detect_format(text: str) -> str:
    """"matrix" when the first line holds one token, "edge-list" when it
    holds two; ParseError otherwise.  Only the first line is read, up to
    the first line boundary that str.splitlines knows."""
    ntoks = len(re.match("[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*", text)[0].split())
    if ntoks == 0:
        raise ParseError(1, "empty input")
    if ntoks == 1:
        return "matrix"
    if ntoks == 2:
        return "edge-list"
    raise ParseError(1, f"expected 1 token (matrix) or 2 tokens (edge list), got {ntoks}")


def parse_digraph(text: str, fmt: str = "") -> Digraph:
    """Parse text in fmt, "matrix" or "edge-list", by default the format
    ``detect_format`` finds.  A diagonal entry of a matrix is a loop."""
    if (fmt or detect_format(text)) == "edge-list":
        return parse_edge_list(text)
    return parse_matrix(text)

