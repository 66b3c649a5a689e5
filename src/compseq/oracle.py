"""Brute-force ground truth and differential verification.

``simulate_limit`` decides convergence by pure simulation: the power
sequence of a Boolean matrix repeats after finitely many steps, so the
whole infinite sequence of competition graphs is read off its periodic
tail.  A walk to the first repeated power, or past WALK_BUDGET powers a
jump to the tail by squaring and a period certificate, gives the index
mu and the period pi exactly in bounded memory and time, and hands the
tail pass one power, A^mu.  All step on bare row tuples, each row an OR
of rows of the last power picked by A's cached successor lists.  The tail
pass stops at the first power past A^mu whose competition graph equals
that of A^mu, because from there the graphs repeat (the argument is in
``simulate_limit``).  No theory enters; this is the oracle the analytic
route is tested against.

``verify`` refuses a digraph that is not linearly connected, runs both
routes once on any other, and compares verdicts, limits, clique structure
and the period (pi = lcm of the components' imprimitivity indices); an
exception raised by the analytic route counts as a failed check.  On a
failure it greedily deletes arcs (keeping the digraph linearly connected)
to return a minimal counterexample.
``component_chain`` keeps its result on the digraph, so the chain that
``random_instance`` checks is the one ``verify`` reads, and each shrink
candidate finds its chain once.

``random_instance`` draws a linearly connected digraph deterministically
from a seed: a Hamiltonian cycle plus random chords per nontrivial
component, and at least one arc across every consecutive interface.
"""

from __future__ import annotations

import math
import random
from functools import reduce

from . import graphs, theory
from ._record import frozen
from .bmat import BoolMatrix, _bit_select, _ladder_power, _times, bool_mul, gamma
from .graphs import (
    ComponentChain,
    Digraph,
    InternalCheckError,
    NotLinearlyConnectedError,
    UndirectedGraph,
    component_chain,
)

# the package lists this module's names, so that it can serve them before loading it
from . import _ORACLE_ALL as __all__

DEFAULT_SIZE_CAP = 2048
PERIOD_CAP = 100_000  # steps of the walk that counts pi if lcm kappa fails its certificate
WALK_BUDGET = 64  # powers simulate_limit stores before it jumps to the tail

CHECK_NAMES = ("verdict", "limit", "jbd", "period")


class SizeCapError(ValueError):
    """The simulation will not run on this input: the matrix has more rows
    than DEFAULT_SIZE_CAP, or the walk that counts an uncertified period
    passes PERIOD_CAP steps."""


@frozen
class SimulationResult:
    """Exact behavior of the competition graph sequence of one matrix.

    index_mu/period_pi describe the power sequence; gamma_cycle lists the
    distinct competition graphs appearing over one full period of the
    tail, in order of first appearance.  converged, derived, holds iff
    that list has length one; limit is then its single entry.
    """

    index_mu: int
    period_pi: int
    gamma_cycle: tuple[UndirectedGraph, ...]

    @property
    def converged(self) -> bool:
        return len(self.gamma_cycle) == 1

    @property
    def limit(self) -> UndirectedGraph | None:
        return self.gamma_cycle[0] if self.converged else None


def simulate_limit(a: BoolMatrix) -> SimulationResult:
    """Evaluate the competition graph of the powers of a from A^mu on, up
    to the first return of that graph; every graph of the tail shows up
    before it.

    The sequence of competition graphs is eventually constant iff it is
    constant on the periodic tail, so this is an exact decision.  Raises
    SizeCapError when a has more than DEFAULT_SIZE_CAP rows or the jump's
    walk passes PERIOD_CAP steps; both caps are read at call time, and a
    cap only refuses inputs, it never changes an answer.

    Walk: a power is its tuple of rows, and A^(m+1) is A * A^m
    (``_times``): row i ORs the rows of A^m picked by ``a.successors[i]``,
    one row OR per arc of the sparse A; powers commute, so every product
    puts a factor with kept successor lists on the left.  A repeat
    A^(mu+pi) = A^mu within WALK_BUDGET stored powers gives mu, pi and A^mu.

    Jump, past the budget: every n x n Boolean matrix has index mu <= M =
    (n-1)^2 + 1 (Heap & Lynn, 1966), so the first squaring B = A^(2^K)
    with 2^K >= M lies on the tail, where A^e * B = B iff pi divides e.
    So pi0 = lcm kappa is pi iff A^pi0 * B = B and A^(pi0/r) * B != B for
    each prime r | pi0, all r <= n (Cohen, 1993, 1.4); if not, a walk
    R <- A * R back to B, capped at PERIOD_CAP steps, counts pi.  A^m
    recurs iff m >= mu, so a binary lift over the squarings finds mu, the
    least m with A^pi * A^m = A^m, and hands the tail pass A^mu.  With K
    and L the bit lengths of (n-1)^2 and pi0, that is max(K, L) squarings,
    (omega(pi0) + 1) * L certificate products (one per set bit of each
    exponent, a square on the left) and 3K for the lift (k + 1 find the
    lowest tail square A^(2^k), then two per level and one for A^mu).

    Stop rule: the tail pass drops the stored powers, steps on from A^mu
    as the walk does, and ends at the first m > mu with
    gamma(A^m) = gamma(A^mu).  Let G_m = A^m (A^m)^T.  Then
    G_(m+1) = A G_m A^T, so G_m determines every later G.  G_m is
    gamma(A^m) plus a diagonal marking the nonzero rows of A^m; that row
    mask can only shrink as m grows and is periodic on the tail, so it is
    constant for m >= mu.  A return of gamma to gamma(A^mu) is therefore a
    return of G to G_mu, and the tail repeats from there: the distinct
    graphs, their order of first appearance, and so the verdict and the
    limit are those of the full period mu .. mu+pi-1.
    """
    if a.n > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"matrix dimension {a.n} exceeds size cap {DEFAULT_SIZE_CAP}")
    succ = a.successors
    seen: dict[tuple[int, ...], int] = {}  # the rows of A^1, A^2, ... in order
    rows = a.rows
    while rows not in seen and len(seen) < WALK_BUDGET:
        seen[rows] = len(seen) + 1
        rows = _times(succ, rows)
    if rows in seen:  # rows is A^(mu+pi) = A^mu
        mu = seen[rows]
        pi = len(seen) + 1 - mu
    else:
        mu, pi, rows = _jump(a, succ)
    seen.clear()  # the tail pass steps from A^mu and holds no stored power
    # the rows of the tail's distinct gammas, in order of first appearance
    distinct: dict[tuple[int, ...], None] = {}
    for _ in range(pi):
        g = gamma(BoolMatrix(a.n, rows)).rows
        if distinct and g == next(iter(distinct)):
            break  # back at gamma(A^mu): the rest of the period repeats what is here
        distinct[g] = None
        rows = _times(succ, rows)
    cycle = tuple(UndirectedGraph(a.n, g) for g in distinct)
    return SimulationResult(index_mu=mu, period_pi=pi, gamma_cycle=cycle)


def _jump(a: BoolMatrix, succ: tuple[tuple[int, ...], ...]):
    """mu, pi and the rows of A^mu, as ``simulate_limit`` says."""
    squares = [a]  # squares[k] is A^(2^k)
    b = _ladder_power(squares, 1 << ((a.n - 1) ** 2).bit_length())  # 2^K >= (n-1)^2 + 1
    pi = rest = graphs.power_period(a)
    primes = []  # the primes r <= n dividing pi; rest keeps any factor above n
    for r in range(2, a.n + 1):
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
    p = _ladder_power(squares, pi)
    if rest > 1 or bool_mul(p, b) != b or any(_shift(squares, pi // r, b) == b for r in primes):
        rows, pi = _times(succ, b.rows), 1  # pi0 is not pi: walk R <- A * R back to B
        while rows != b.rows:
            if pi >= PERIOD_CAP:
                raise SizeCapError(f"power period exceeds the walk cap of {PERIOD_CAP} steps")
            rows, pi = _times(succ, rows), pi + 1
        p = _ladder_power(squares, pi)
    # P * A^m = A^m iff A^m is on the tail; A^(2^k), the lowest squaring there, puts mu in
    # (2^(k-1), 2^k], and the lift keeps A^m off the tail and A^(m + 2^(j+1)) on it: mu = m + 1
    k = next(k for k, s in enumerate(squares) if bool_mul(s, p) == s)
    m, x = (1 << (k - 1), squares[k - 1]) if k else (0, None)
    for j in reversed(range(k - 1)):
        y = bool_mul(squares[j], x)
        if bool_mul(p, y) != y:
            m, x = m + (1 << j), y
    return m + 1, pi, a.rows if x is None else _times(succ, x.rows)  # A^mu, mu = m + 1


def _shift(squares: list[BoolMatrix], e: int, x: BoolMatrix) -> BoolMatrix:
    """A^e * X, one product by squares[k] = A^(2^k) per set bit k of e."""
    return reduce(lambda y, s: bool_mul(s, y), _bit_select(squares, e), x)


@frozen
class CheckResult:
    name: str
    passed: bool
    detail: str


@frozen
class VerificationReport:
    """The checks of one ``verify`` run and the shrunken counterexample of
    the first failing one, whose name is the derived failed_check."""

    checks: tuple[CheckResult, ...]
    counterexample: Digraph | None

    @property
    def failed_check(self) -> str | None:
        return next((c.name for c in self.checks if not c.passed), None)

    @property
    def passed(self) -> bool:
        return self.failed_check is None


def _run_checks(d: Digraph, names: tuple[str, ...]) -> list[CheckResult]:
    """The named comparisons between the analytic and simulated routes, in
    the order given, all read off one chain and one simulation of d.  A
    non-chain raises NotLinearlyConnectedError before any power is taken.
    A check whose precondition does not hold for d is left out; one whose
    analytic side raises fails, with the exception as its detail."""
    chain = component_chain(d)
    sim = simulate_limit(d)
    results = []
    for name in names:
        try:
            result = _compare(name, d, chain, sim)
        except Exception as e:
            result = CheckResult(name, False, f"raised {type(e).__name__}: {e}")
        if result is not None:
            results.append(result)
    return results


def _compare(
    name: str, d: Digraph, chain: ComponentChain, sim: SimulationResult
) -> CheckResult | None:
    """One named comparison, or None when its precondition does not hold."""
    if name == "verdict":
        verdict = theory.converges(chain)
        return CheckResult(
            "verdict",
            verdict.converged == sim.converged,
            f"analytic {verdict.converged} ({verdict.rule}) vs simulated {sim.converged}",
        )
    if name == "period":
        # the period of a reducible Boolean matrix is the lcm of its
        # components' periods; a trivial component has kappa 1
        expected = math.lcm(*chain.kappas)
        return CheckResult(
            "period",
            sim.period_pi == expected,
            f"lcm of kappas {expected} vs simulated {sim.period_pi}",
        )
    if any(chain.trivial_flags) or not sim.converged:
        return None
    assert sim.limit is not None
    if name == "limit":
        analytic = theory.limit_graph(theory.cs_graph(chain), chain)
        if analytic == sim.limit:
            return CheckResult("limit", True, "graphs equal")
        pairs = list(zip(analytic.rows, sim.limit.rows))
        extra = UndirectedGraph(d.n, tuple(a & ~b for a, b in pairs)).edge_list()
        missing = UndirectedGraph(d.n, tuple(b & ~a for a, b in pairs)).edge_list()
        return CheckResult("limit", False, f"extra {extra[:3]} missing {missing[:3]}")
    jbd = theory.jbd_condition(chain)
    actual = theory.union_of_cliques(sim.limit)
    return CheckResult(
        "jbd",
        jbd.holds == actual,
        f"analytic {jbd.holds} vs simulated {actual}",
    )


def _check_fails(d: Digraph, name: str) -> bool:
    try:
        results = _run_checks(d, (name,))
    except SizeCapError:
        # a candidate the simulation cannot decide is useless as a counterexample
        return False
    return any(not r.passed for r in results)


def _shrink(d: Digraph, name: str) -> Digraph:
    """Greedy arc deletion: remove any single arc whose removal keeps the
    digraph linearly connected and keeps the named check failing, until no
    single deletion survives.  Deterministic (arcs scanned in sorted order)."""
    current = d
    improved = True
    while improved:
        improved = False
        for u, v in current.arc_list():
            rows = list(current.rows)
            rows[u - 1] ^= 1 << (v - 1)
            candidate = Digraph(current.n, tuple(rows))
            try:
                component_chain(candidate)
            except NotLinearlyConnectedError:
                continue
            if _check_fails(candidate, name):
                current = candidate
                improved = True
                break
    return current


def verify(d: Digraph) -> VerificationReport:
    """Compare every applicable analytic answer against the simulation.

    Checks: the convergence verdict and the period (simulated pi equal to
    the lcm of the components' kappas) always; the limit graph and the
    union-of-cliques criterion when every component is nontrivial (the
    analytic constructions exist exactly then).  An exception raised by the
    analytic side of a check fails that check with detail "raised
    <Type>: <message>"; the simulation's SizeCapError propagates.  The
    first failing check is shrunk to a minimal counterexample by greedy arc
    deletion.  A digraph that is not linearly connected raises
    NotLinearlyConnectedError before any power is taken.
    """
    report = VerificationReport(tuple(_run_checks(d, CHECK_NAMES)), None)
    if report.passed:
        return report
    return VerificationReport(report.checks, _shrink(d, report.failed_check))


@frozen
class GeneratorSpec:
    """Deterministic recipe for one random linearly connected digraph.

    sizes is either one (lo, hi) range used for every component or a
    per-component tuple of ranges; allow_trivial likewise one flag or a
    per-component tuple.  A component that may not be trivial draws its
    size from max(lo, 2)..hi, so every range needs hi >= 2 unless trivial
    is allowed there.
    """

    eta: int
    sizes: tuple = (1, 5)
    allow_trivial: bool | tuple[bool, ...] = True
    seed: int = 0

    def __post_init__(self):
        if self.eta < 1:
            raise ValueError(f"need at least one component, got eta={self.eta}")
        self.size_ranges  # force validation
        trivs = self.trivial_flags
        for p, ((lo, hi), allow) in enumerate(zip(self.size_ranges, trivs), start=1):
            if not allow and hi < 2:
                raise ValueError(
                    f"component {p}: range ({lo},{hi}) cannot fit a nontrivial component"
                )

    @property
    def size_ranges(self) -> tuple[tuple[int, int], ...]:
        raw = self.sizes
        if raw and isinstance(raw[0], int):
            ranges = (tuple(raw),) * self.eta
        else:
            ranges = tuple(tuple(r) for r in raw)
        if len(ranges) != self.eta:
            raise ValueError(f"expected {self.eta} size ranges, got {len(ranges)}")
        for lo, hi in ranges:
            if not (1 <= lo <= hi):
                raise ValueError(f"bad size range ({lo},{hi})")
        return ranges

    @property
    def trivial_flags(self) -> tuple[bool, ...]:
        if isinstance(self.allow_trivial, bool):
            return (self.allow_trivial,) * self.eta
        flags = tuple(self.allow_trivial)
        if len(flags) != self.eta:
            raise ValueError(f"expected {self.eta} trivial flags, got {len(flags)}")
        return flags


def random_instance(spec: GeneratorSpec) -> Digraph:
    """Draw the digraph described by spec; identical spec, identical digraph.

    Each nontrivial component is a Hamiltonian cycle on its vertices plus
    a random number of chords (biased toward none, so large imprimitivity
    indices stay common); consecutive components are joined by one to
    three random interface arcs.  The result always passes
    component_chain; vertex ids are scattered randomly so component order
    never correlates with id order.
    """
    rng = random.Random(spec.seed)
    sizes = []
    for (lo, hi), allow in zip(spec.size_ranges, spec.trivial_flags):
        effective_lo = lo if allow else max(lo, 2)
        sizes.append(rng.randint(effective_lo, hi))
    total = sum(sizes)
    ids = list(range(1, total + 1))
    rng.shuffle(ids)
    components: list[list[int]] = []
    at = 0
    for s in sizes:
        components.append(sorted(ids[at : at + s]))
        at += s
    rows = [0] * total
    for comp in components:
        if len(comp) == 1:
            continue
        order = comp[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a - 1] |= 1 << (b - 1)
        if rng.random() >= 0.45:
            for _ in range(rng.randint(1, len(comp))):
                u, v = rng.sample(comp, 2)
                rows[u - 1] |= 1 << (v - 1)
    for left, right in zip(components, components[1:]):
        for _ in range(rng.randint(1, 3)):
            u, v = rng.choice(left), rng.choice(right)
            rows[u - 1] |= 1 << (v - 1)
    d = Digraph(total, tuple(rows))
    chain = component_chain(d)  # generator soundness: must always hold
    if chain.eta != spec.eta:
        raise InternalCheckError(
            f"generator produced {chain.eta} components, wanted {spec.eta}"
        )
    return d
