"""Simulation oracle, differential verification harness, and the seeded
instance generator."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from compseq import (
    DEFAULT_SIZE_CAP,
    BoolMatrix,
    CheckResult,
    Digraph,
    GeneratorSpec,
    InternalCheckError,
    NotLinearlyConnectedError,
    SimulationResult,
    SizeCapError,
    UndirectedGraph,
    bool_mul,
    bool_pow,
    component_chain,
    gamma,
    m_step_competition,
    random_instance,
    simulate_limit,
    verify,
)
from compseq import bmat, graphs, oracle, theory
from conftest import (
    bool_matrices,
    cycle4_feeders,
    cycle_chain,
    period3_matrix,
    random_matrix,
    reference_powers,
    three_chain_complete,
    two_chain,
    vertices,
    wielandt,
    zeros,
)

COPRIME_CYCLE_CHAINS = [(3, 5, 7, 11), (4, 5, 7, 9), (3, 7, 8, 11), (3, 5, 7, 8)]


def full_period_simulation(a: BoolMatrix) -> SimulationResult:
    """The oracle without its stop rule, as the reference: powers stepped as
    A^m * A, and gamma applied to every power of one full tail period."""
    mu, pi, powers = reference_powers(a)
    distinct = {}
    for power in powers[mu - 1 : mu - 1 + pi]:
        g = gamma(power)
        distinct.setdefault(g.rows, g)
    graphs = tuple(UndirectedGraph.from_adjacency_matrix(g) for g in distinct.values())
    return SimulationResult(mu, pi, graphs)


def transpose(x: BoolMatrix) -> BoolMatrix:
    return BoolMatrix(x.n, tuple(x.columns()))


def gram(x: BoolMatrix) -> BoolMatrix:
    """X X^T: entry (i, j) is 1 iff rows i and j of X share a set column."""
    return bool_mul(x, transpose(x))


@st.composite
def matrix_pairs(draw, max_n: int = 6):
    """Two matrices of one dimension; the second has a drawn set of zero rows."""
    n = draw(st.integers(1, max_n))
    a = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    p = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    zero = draw(st.integers(0, (1 << n) - 1))
    p = tuple(0 if (zero >> i) & 1 else r for i, r in enumerate(p))
    return BoolMatrix(n, a), BoolMatrix(n, p)


class TestSimulateLimit:
    def test_convergent_worked_example(self):
        sim = simulate_limit(period3_matrix())
        assert (sim.index_mu, sim.period_pi) == (1, 3)
        assert sim.converged
        assert sim.limit.edge_list() == [(2, 4)]
        assert len(sim.gamma_cycle) == 1

    def test_divergent_feeder(self):
        sim = simulate_limit(cycle4_feeders(2))
        assert (sim.index_mu, sim.period_pi) == (1, 4)
        assert not sim.converged
        assert sim.limit is None
        # one edge rotates around the cycle, one residue class of m each
        assert [g.edge_list() for g in sim.gamma_cycle] == [
            [(1, 2)],
            [(1, 4)],
            [(3, 4)],
            [(2, 3)],
        ]

    def test_size_cap(self, monkeypatch):
        assert DEFAULT_SIZE_CAP == 2048
        simulate_limit(zeros(2048))
        with pytest.raises(SizeCapError, match="size cap 2048"):
            simulate_limit(zeros(2049))
        # the cap is read when called
        monkeypatch.setattr(oracle, "DEFAULT_SIZE_CAP", 9)
        with pytest.raises(SizeCapError, match="size cap 9"):
            simulate_limit(zeros(10))

    @settings(max_examples=50, deadline=None)
    @given(bool_matrices(max_n=5))
    def test_cycle_contract(self, a):
        sim = simulate_limit(a)
        mu, pi = sim.index_mu, sim.period_pi
        tail = [
            UndirectedGraph.from_adjacency_matrix(gamma(bool_pow(a, m)))
            for m in range(mu, mu + 2 * pi)
        ]
        for k in range(pi):
            assert tail[k] == tail[k + pi]  # the tail really is pi-periodic
        assert set(sim.gamma_cycle) == set(tail[:pi])
        first_appearance = []
        for g in tail[:pi]:
            if g not in first_appearance:
                first_appearance.append(g)
        assert list(sim.gamma_cycle) == first_appearance
        assert sim.converged == (len(first_appearance) == 1)
        assert sim.limit == (tail[0] if sim.converged else None)


class TestTailStopRule:
    """simulate_limit stops at the first return of gamma(A^mu); it must give
    exactly what a pass over the whole period gives.  On the walk path,
    where mu+pi-1 <= WALK_BUDGET, the walk takes mu+pi-1 products and the
    tail pass one per distinct graph; past it the jump counts its own."""

    def test_matches_full_period_on_seeded_instances(self, monkeypatch):
        calls = []
        products = []

        def counted_gamma(x):
            calls.append(x)
            return gamma(x)

        times = oracle._times

        def counted_times(succ, rows):
            products.append(rows)
            return times(succ, rows)

        monkeypatch.setattr(oracle, "gamma", counted_gamma)
        monkeypatch.setattr(oracle, "_times", counted_times)
        master = random.Random(20261018)
        cycle_lengths = set()
        divergent_early_stops = 0
        for _ in range(2000):
            spec = GeneratorSpec(
                eta=master.randint(1, 5),
                sizes=(1, 6),
                allow_trivial=master.random() < 0.8,
                seed=master.getrandbits(32),
            )
            a = random_instance(spec)
            calls.clear()
            products.clear()
            sim = simulate_limit(a)
            assert sim == full_period_simulation(a)
            if sim.index_mu + sim.period_pi - 1 <= oracle.WALK_BUDGET:
                # the walk to the first repeat, and one step past each distinct graph
                assert len(products) == sim.index_mu + sim.period_pi - 1 + len(sim.gamma_cycle)
            # one gamma per distinct graph, plus the one that sees the return
            assert len(calls) == min(len(sim.gamma_cycle) + 1, sim.period_pi)
            cycle_lengths.add(len(sim.gamma_cycle))
            divergent_early_stops += not sim.converged and len(calls) < sim.period_pi
        # divergent tails of several lengths occur, and some end early
        assert {1, 2, 3} <= cycle_lengths
        assert divergent_early_stops > 0

    def test_matches_full_period_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(500):
            a = random_matrix(rng, rng.randint(1, 7), rng.choice([0.1, 0.2, 0.3, 0.5]))
            assert simulate_limit(a) == full_period_simulation(a)

    @pytest.mark.parametrize("lengths", COPRIME_CYCLE_CHAINS)
    def test_matches_full_period_on_coprime_cycle_chains(self, lengths):
        a = cycle_chain(lengths)
        sim = simulate_limit(a)
        assert sim == full_period_simulation(a)
        assert sim.converged and sim.period_pi == math.lcm(*lengths)

    def test_matches_the_reference_walk_at_both_ends_of_the_size_range(self, monkeypatch):
        # the reference steps A^m * A with bool_mul; at n = 64 and half the
        # entries set that product goes through the Four Russians tables,
        # while the oracle's walk ORs rows picked by A's successor lists
        tables = []
        inner = bmat._four_russians
        monkeypatch.setattr(bmat, "_four_russians", lambda *args: tables.append(1) or inner(*args))
        rng = random.Random(64)
        dense = [random_matrix(rng, 64, 0.5) for _ in range(3)]
        # 8 classes of 8 vertices, each vertex with arcs to half of the next
        # class: 16 * 256 set entries = 64^2, and the powers fill their rows
        # over several steps before they cycle with period 8
        cyclic = BoolMatrix(64, tuple(
            sum(1 << (8 * ((v // 8 + 1) % 8) + w) for w in rng.sample(range(8), 4))
            for v in range(64)
        ))
        ones = BoolMatrix(64, ((1 << 64) - 1,) * 64)
        singles = [BoolMatrix(1, (0,)), BoolMatrix(1, (1,))]
        for a in singles + dense + [cyclic, ones]:
            assert simulate_limit(a) == full_period_simulation(a)
        assert len(tables) > 0
        assert simulate_limit(cyclic).period_pi == 8
        assert simulate_limit(ones).limit.edge_list() == [
            (u, v) for u in range(1, 65) for v in range(u + 1, 65)
        ]
        assert [simulate_limit(a).limit for a in singles] == [UndirectedGraph(1, (0,))] * 2

    @settings(max_examples=200, deadline=None)
    @given(matrix_pairs())
    def test_gram_identity(self, pair):
        # (AP)(AP)^T = A (P P^T) A^T: G_(m+1) is a function of G_m
        a, p = pair
        assert gram(bool_mul(a, p)) == bool_mul(bool_mul(a, gram(p)), transpose(a))

    @settings(max_examples=200, deadline=None)
    @given(bool_matrices(max_n=6))
    def test_gram_is_gamma_plus_nonzero_row_diagonal(self, x):
        diagonal = [(1 << i) if r else 0 for i, r in enumerate(x.rows)]
        assert gram(x).rows == tuple(g | d for g, d in zip(gamma(x).rows, diagonal))

    @settings(max_examples=200, deadline=None)
    @given(bool_matrices(max_n=6))
    def test_nonzero_row_mask_constant_on_tail(self, a):
        mu, _, powers = reference_powers(a)
        masks = [sum(1 << i for i, r in enumerate(p.rows) if r) for p in powers]
        masks.append(masks[mu - 1])  # A^(mu+pi) = A^mu
        for before, after in zip(masks, masks[1:]):
            assert after & ~before == 0  # rows only ever become zero
        assert len(set(masks[mu - 1 :])) == 1


class TestJump:
    """Past WALK_BUDGET stored powers, simulate_limit jumps to A^(2^K) on the
    tail and lifts mu off the squarings; the answer is the walk's."""

    @pytest.mark.parametrize("n", [*range(3, 13), 40])
    def test_wielandt_index_meets_the_bound(self, n):
        sim = simulate_limit(wielandt(n))
        assert (sim.index_mu, sim.period_pi) == ((n - 1) ** 2 + 1, 1)
        if n <= 12:
            assert sim == full_period_simulation(wielandt(n))

    def test_first_index_past_the_budget(self):
        # n = 9 has mu = 65: the 64 stored powers are all distinct
        assert oracle.WALK_BUDGET == 64
        assert simulate_limit(wielandt(9)).index_mu == oracle.WALK_BUDGET + 1

    def test_forced_jump_matches_full_period(self, monkeypatch):
        jumps = []
        jump = oracle._jump

        def checked_jump(a, succ):
            # the one power the jump hands the tail pass is A^mu
            mu, pi, rows = jump(a, succ)
            assert rows == bool_pow(a, mu).rows
            jumps.append(a)
            return mu, pi, rows

        monkeypatch.setattr(oracle, "_jump", checked_jump)
        monkeypatch.setattr(oracle, "WALK_BUDGET", 1)
        master = random.Random(20261019)
        for _ in range(2000):
            spec = GeneratorSpec(
                eta=master.randint(1, 4),
                sizes=(1, 6),
                allow_trivial=master.random() < 0.5,
                seed=master.getrandbits(32),
            )
            a = random_instance(spec)
            assert simulate_limit(a) == full_period_simulation(a)
        for lengths in [*COPRIME_CYCLE_CHAINS, (2, 3, 5)]:
            a = cycle_chain(lengths)
            assert simulate_limit(a) == full_period_simulation(a)
        assert len(jumps) > 1500

    @pytest.mark.parametrize("lengths", COPRIME_CYCLE_CHAINS)
    def test_jump_holds_few_matrices(self, lengths):
        # storing every power of the tail would take 2.36 MiB on (3, 7, 8, 11)
        a = cycle_chain(lengths)
        tracemalloc.start()
        try:
            sim = simulate_limit(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.period_pi == math.lcm(*lengths)
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize("wrong", [lambda p: 2 * p, lambda p: p + 1], ids=["double", "plus-one"])
    def test_failed_certificate_falls_back_to_the_walk(self, monkeypatch, wrong):
        # a wrong lcm kappa, as _jump reads it, fails the certificate, and the
        # walk back to the tail square counts the true pi
        power_period, times = graphs.power_period, oracle._times
        steps = []
        monkeypatch.setattr(graphs, "power_period", lambda d: wrong(power_period(d)))
        monkeypatch.setattr(oracle, "_times", lambda succ, rows: steps.append(1) or times(succ, rows))
        monkeypatch.setattr(oracle, "WALK_BUDGET", 1)
        master = random.Random(20261020)
        for _ in range(200):
            spec = GeneratorSpec(eta=master.randint(1, 4), sizes=(1, 6), seed=master.getrandbits(32))
            a = random_instance(spec)
            assert simulate_limit(a) == full_period_simulation(a)
        for lengths in COPRIME_CYCLE_CHAINS:
            a = cycle_chain(lengths)
            steps.clear()
            assert simulate_limit(a) == full_period_simulation(a)
            assert len(steps) > math.lcm(*lengths)

    def test_period_cap_bounds_only_the_fallback_walk(self, monkeypatch):
        a = cycle_chain((3, 7, 8, 11))  # period 1848
        monkeypatch.setattr(oracle, "PERIOD_CAP", 1847)
        assert simulate_limit(a).period_pi == 1848  # certified, so under no cap
        # a wrong lcm kappa walks, under the cap read when called
        power_period = graphs.power_period
        monkeypatch.setattr(graphs, "power_period", lambda d: 2 * power_period(d))
        with pytest.raises(SizeCapError, match="^power period exceeds the walk cap of 1847 steps$"):
            simulate_limit(a)
        monkeypatch.setattr(oracle, "PERIOD_CAP", 1848)
        assert simulate_limit(a).period_pi == 1848

    @pytest.mark.parametrize(
        "lengths",
        [(5, 7, 8, 9, 11, 13), (2, 3, 5, 7, 11, 13, 17), (2, 3, 5, 7, 11, 13, 17, 19, 23)],
        ids=["360360", "510510", "primes-to-23"],
    )
    def test_long_period_answered(self, lengths):
        # periods 360360, 510510 and 223092870, all above the period cap; each
        # answer is checked on powers and m-step graphs, without the oracle
        a = cycle_chain(lengths)
        sim = simulate_limit(a)
        mu, pi = sim.index_mu, sim.period_pi
        assert pi == math.lcm(*lengths) > oracle.PERIOD_CAP
        assert bool_pow(a, mu + pi) == bool_pow(a, mu)
        assert bool_pow(a, mu - 1 + pi) != bool_pow(a, mu - 1)
        primes = [r for r in range(2, 24) if pi % r == 0 and all(r % q for q in range(2, r))]
        for r in primes:
            assert bool_pow(a, mu + pi // r) != bool_pow(a, mu)
        assert sim.limit == m_step_competition(a, 10**12)

    def test_jump_product_count_within_the_stated_bound(self, monkeypatch):
        a = cycle_chain((16, 9, 5, 7, 11))  # n = 49, pi = 55440 = 2^4 3^2 5 7 11
        products = []
        # the squaring ladder multiplies in bmat, the certificate and the lift in oracle
        for owner, name in [(oracle, "_times"), (oracle, "bool_mul"), (bmat, "bool_mul")]:
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda x, y, f=f: products.append(1) or f(x, y))
        sim = simulate_limit(a)
        assert (sim.period_pi, len(sim.gamma_cycle)) == (55440, 1)
        # simulate_limit's bound, with K = 12, L = 16 and omega = 5, plus one step per
        # stored power of the walk in front and per graph of the tail pass
        k, l, omega = ((a.n - 1) ** 2).bit_length(), sim.period_pi.bit_length(), 5
        jump = max(k, l) + (omega + 1) * l + 3 * k
        assert len(products) <= oracle.WALK_BUDGET + jump + 1 == 213  # no 55440-step walk


class TestVerify:
    def test_all_checks_pass_on_nontrivial_chain(self):
        report = verify(two_chain())
        assert report.passed
        assert [c.name for c in report.checks] == ["verdict", "limit", "jbd", "period"]
        assert report.failed_check is None
        assert report.counterexample is None

    def test_trivial_tail_runs_verdict_only(self):
        report = verify(cycle4_feeders(2))
        assert report.passed
        assert [c.name for c in report.checks] == ["verdict", "period"]

    def test_not_linearly_connected_is_refused(self, monkeypatch):
        # two 2-cycles with no arc between them: refused before any power is taken
        def no_power(*args):
            raise AssertionError("a power was taken")

        monkeypatch.setattr(oracle, "_times", no_power)
        monkeypatch.setattr(oracle, "bool_mul", no_power)
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        with pytest.raises(NotLinearlyConnectedError, match="^no arcs from component 1 to component 2$"):
            verify(d)

    def test_failure_reporting(self, monkeypatch):
        def fake_run(d, names):
            if "verdict" in names:
                return [CheckResult("verdict", False, "forced failure")]
            return []

        monkeypatch.setattr(oracle, "_run_checks", fake_run)
        report = verify(two_chain())
        assert not report.passed
        assert report.failed_check == "verdict"
        # the fake fails on every digraph, so shrinking bottoms out at the
        # smallest chain on the same vertices: the directed path
        assert report.counterexample == Digraph.from_arcs(
            4, [(1, 2), (2, 3), (3, 4)]
        )
        component_chain(report.counterexample)  # still linearly connected

    def test_analytic_exception_is_a_shrunken_failed_check(self, monkeypatch):
        def broken_limit(joins, chain):
            raise InternalCheckError("injected")

        monkeypatch.setattr(theory, "limit_graph", broken_limit)
        report = verify(three_chain_complete())
        assert not report.passed
        assert report.failed_check == "limit"
        limit = next(c for c in report.checks if c.name == "limit")
        assert limit.detail == "raised InternalCheckError: injected"
        assert [c.passed for c in report.checks] == [True, False, True, True]
        # the fault shows on every all-nontrivial chain, so shrinking keeps
        # the three 2-cycles and one arc per interface
        ce = report.counterexample
        assert len(ce.arc_list()) == 8
        assert set(ce.arc_list()) < set(three_chain_complete().arc_list())
        assert not any(component_chain(ce).trivial_flags)

    def test_limit_mismatch_names_extra_and_missing_edges(self, monkeypatch):
        # the limit of two_chain is {(1, 3), (2, 4)}: drop (2, 4), add (1, 2)
        true_limit = theory.limit_graph

        def skewed_limit(joins, chain):
            g = true_limit(joins, chain)
            return UndirectedGraph.from_edges(g.n, set(g.edge_list()) - {(2, 4)} | {(1, 2)})

        monkeypatch.setattr(theory, "limit_graph", skewed_limit)
        d = two_chain()
        chain = component_chain(d)
        assert oracle._compare("limit", d, chain, simulate_limit(d)) == CheckResult(
            "limit", False, "extra [(1, 2)] missing [(2, 4)]"
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_kept_chain_gives_the_fresh_report(self, seed):
        # random_instance has found the chain of d and kept it; a copy
        # made from the rows alone has none
        d = random_instance(GeneratorSpec(eta=3, sizes=(1, 5), seed=seed))
        assert component_chain(d) is component_chain(d)
        assert verify(d) == verify(Digraph(d.n, d.rows))

    def test_kept_chain_gives_the_fresh_shrunken_failure(self, monkeypatch):
        def broken_limit(joins, chain):
            raise InternalCheckError("injected")

        monkeypatch.setattr(theory, "limit_graph", broken_limit)
        d = three_chain_complete()
        component_chain(d)
        report = verify(d)
        assert not report.passed
        assert report == verify(three_chain_complete())

    def test_period_check_compares_lcm_of_kappas(self):
        d = cycle_chain((2, 3))
        chain = component_chain(d)
        sim = simulate_limit(d)
        assert oracle._compare("period", d, chain, sim) == CheckResult(
            "period", True, "lcm of kappas 6 vs simulated 6"
        )
        wrong = SimulationResult(sim.index_mu, 3, sim.gamma_cycle)
        assert oracle._compare("period", d, chain, wrong) == CheckResult(
            "period", False, "lcm of kappas 6 vs simulated 3"
        )

    def test_period_failure_is_shrunk(self, monkeypatch):
        def doubled_period(a):
            sim = simulate_limit(a)
            return SimulationResult(sim.index_mu, 2 * sim.period_pi, sim.gamma_cycle)

        monkeypatch.setattr(oracle, "simulate_limit", doubled_period)
        report = verify(two_chain())
        assert report.failed_check == "period"
        assert [c.passed for c in report.checks] == [True, True, True, False]
        component_chain(report.counterexample)
        assert set(report.counterexample.arc_list()) <= set(two_chain().arc_list())

    @pytest.mark.parametrize(
        "error, fails",
        [(SizeCapError("size cap"), False), (SizeCapError("walk cap"), False), (None, True)],
    )
    def test_check_fails_skips_only_capped_candidates(self, monkeypatch, error, fails):
        def run_checks(d, names):
            if error is not None:
                raise error
            return [CheckResult(names[0], False, "forced failure")]

        monkeypatch.setattr(oracle, "_run_checks", run_checks)
        assert oracle._check_fails(two_chain(), "verdict") is fails

    def test_check_fails_lets_other_errors_through(self, monkeypatch):
        def run_checks(d, names):
            raise InternalCheckError("imprimitivity split")

        monkeypatch.setattr(oracle, "_run_checks", run_checks)
        with pytest.raises(InternalCheckError):
            oracle._check_fails(two_chain(), "verdict")

    def test_shrink_deletes_all_removable_arcs(self, monkeypatch):
        def fake_fails(d, name):
            return len(d.arc_list()) >= 5

        monkeypatch.setattr(oracle, "_check_fails", fake_fails)
        start = Digraph.from_arcs(4, two_chain().arc_list() + [(1, 3)])
        shrunk = oracle._shrink(start, "verdict")
        assert len(shrunk.arc_list()) == 5
        component_chain(shrunk)  # deletions never leave the chain class


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one component"):
            GeneratorSpec(eta=0)
        with pytest.raises(ValueError, match="bad size range"):
            GeneratorSpec(eta=1, sizes=(3, 2))
        with pytest.raises(ValueError, match="expected 2 size ranges"):
            GeneratorSpec(eta=2, sizes=((1, 2),))
        with pytest.raises(ValueError, match="expected 2 trivial flags"):
            GeneratorSpec(eta=2, allow_trivial=(True,))
        with pytest.raises(ValueError, match="cannot fit"):
            GeneratorSpec(eta=1, sizes=(1, 1), allow_trivial=False)

    def test_broadcast(self):
        spec = GeneratorSpec(eta=3, sizes=(2, 4), allow_trivial=False)
        assert spec.size_ranges == ((2, 4),) * 3
        assert spec.trivial_flags == (False,) * 3

    def test_deterministic(self):
        spec = GeneratorSpec(eta=3, sizes=(1, 5), seed=42)
        assert random_instance(spec) == random_instance(spec)

    def test_seeds_vary(self):
        instances = {random_instance(GeneratorSpec(eta=2, seed=s)) for s in range(8)}
        assert len(instances) > 1

    def test_respects_eta_and_sizes(self):
        for seed in range(25):
            spec = GeneratorSpec(eta=3, sizes=(2, 4), allow_trivial=False, seed=seed)
            d = random_instance(spec)
            chain = component_chain(d)
            assert chain.eta == 3
            assert all(2 <= m.bit_count() <= 4 for m in chain.masks)
            assert not any(chain.trivial_flags)

    def test_per_component_settings(self):
        spec = GeneratorSpec(
            eta=2, sizes=((1, 1), (2, 4)), allow_trivial=(True, False), seed=7
        )
        d = random_instance(spec)
        chain = component_chain(d)
        assert chain.masks[0].bit_count() == 1
        assert 2 <= chain.masks[1].bit_count() <= 4

    def test_ids_are_scattered(self):
        # component order must not correlate with vertex id order
        hits = 0
        for seed in range(20):
            d = random_instance(GeneratorSpec(eta=2, sizes=(2, 3), seed=seed))
            chain = component_chain(d)
            if max(vertices(chain.masks[0])) > min(vertices(chain.masks[1])):
                hits += 1
        assert hits > 0


class TestDifferentialSoak:
    def test_seeded_campaign(self):
        master = random.Random(20260817)
        names = []
        for _ in range(200):
            spec = GeneratorSpec(
                eta=master.randint(1, 4),
                sizes=(1, 4),
                allow_trivial=master.random() < 0.5,
                seed=master.getrandbits(32),
            )
            d = random_instance(spec)
            report = verify(d)
            assert report.passed, format(d)
            names.extend(c.name for c in report.checks)
        # the campaign exercised every check, not just the verdict
        assert names.count("verdict") == 200
        assert names.count("limit") >= 30
        assert names.count("jbd") >= 30
        assert names.count("period") == 200

    def test_looped_campaign(self):
        # a loop is a 1-cycle: draws of the verify command's shape, half with
        # 1-3 loops on any vertices, half with loops on single vertices only,
        # where a loop turns a trivial component into the block [1]
        master = random.Random(20261020)
        names = []
        looped_single = looped_last_nontrivial = looped_last = 0
        for draw in range(2000):
            spec = GeneratorSpec(
                eta=master.randint(1, 4),
                sizes=(1, 6),
                allow_trivial=True,
                seed=master.getrandbits(32),
            )
            d = random_instance(spec)
            if draw % 2:
                targets = master.sample(range(d.n), min(d.n, master.randint(1, 3)))
            else:
                singles = [m.bit_length() - 1 for m in component_chain(d).masks if m.bit_count() == 1]
                targets = [v for v in singles if master.random() < 0.5]
            d = Digraph(d.n, tuple(r | (v in targets) << v for v, r in enumerate(d.rows)))
            report = verify(d)
            assert report.passed, format(d)
            names.extend(c.name for c in report.checks)
            chain = component_chain(d)
            lone = [p for p, m in enumerate(chain.masks, start=1) if m.bit_count() == 1 and m & chain.loops]
            looped_single += bool(lone)
            looped_last_nontrivial += chain.last_nontrivial in lone and chain.last_nontrivial < chain.eta
            looped_last += chain.eta in lone
        assert names.count("verdict") == names.count("period") == 2000
        assert names.count("limit") == names.count("jbd") >= 1000
        assert looped_single >= 200
        assert looped_last_nontrivial >= 1 and looped_last >= 1
