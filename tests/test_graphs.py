"""Digraph structure: strong components, chain recognition, imprimitivity
classes, competition graphs, text formats."""

import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compseq import (
    BoolMatrix,
    ComponentChain,
    Digraph,
    GeneratorSpec,
    InternalCheckError,
    NotLinearlyConnectedError,
    ParseError,
    UndirectedGraph,
    bool_pow,
    component_chain,
    detect_format,
    format_edge_list,
    gamma,
    imprimitivity,
    m_step_competition,
    parse_digraph,
    parse_edge_list,
    power_period,
    random_instance,
    simulate_limit,
)
from compseq import graphs
from compseq.graphs import _strong_components
from conftest import (
    adjacent,
    bool_matrices,
    cycle4_feeders,
    cycle_chain,
    digraphs,
    entry,
    period3_digraph,
    period3_matrix,
    random_digraph,
    simple_cycle_lengths,
    to_entries,
    two_chain,
    vertices,
    wielandt,
)


def naive_sccs(d: Digraph) -> set[frozenset[int]]:
    """Partition by mutual reachability, computed from the reflexive
    transitive closure (A + I)^n."""
    closure = bool_pow(
        BoolMatrix(d.n, tuple(r | (1 << i) for i, r in enumerate(d.rows))),
        d.n,
    )
    comps = set()
    for v in range(d.n):
        comps.add(
            frozenset(
                u + 1
                for u in range(d.n)
                if entry(closure, v, u) and entry(closure, u, v)
            )
        )
    return comps


class TestDigraph:
    def test_arc_bounds_checked(self):
        with pytest.raises(ValueError, match="outside"):
            Digraph.from_arcs(2, [(1, 3)])

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Digraph.from_arcs(0, [])
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            Digraph(0, ())

    def test_rows_validated(self):
        with pytest.raises(ValueError, match="expected 3 rows, got 2"):
            Digraph(3, (0b010, 0b100))
        with pytest.raises(ValueError, match="row 1 has bits outside 0..2"):
            Digraph(3, (0b010, 0b1000, 0))

    def test_out_in_sets(self):
        d = two_chain()
        assert d.rows[1] == 0b0101  # out-neighbours of 2: {1, 3}
        assert d.columns()[2] == 0b1010  # in-neighbours of 3: {2, 4}
        assert d.rows[3] == 0b0100  # out-neighbours of 4: {3}
        assert d.arc_list() == [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]
        assert d.arcs == set(d.arc_list())

    @given(digraphs())
    def test_arcs_round_trip(self, d):
        assert Digraph.from_arcs(d.n, d.arc_list()) == d
        assert d.arc_list() == sorted(d.arcs)


class TestUndirectedGraph:
    def test_edges_normalized(self):
        g = UndirectedGraph.from_edges(3, [(3, 1), (2, 3)])
        assert g.edge_list() == [(1, 3), (2, 3)]
        assert g.rows == (0b100, 0b100, 0b011)

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
            UndirectedGraph(3, (0b100, 0, 0))
        with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
            UndirectedGraph(3, (0, 0, 0b001))

    def test_diagonal_bit_rejected(self):
        with pytest.raises(ValueError, match="nonzero diagonal at 1"):
            UndirectedGraph(3, (0, 0b010, 0))

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError, match="bits outside 0..1"):
            UndirectedGraph(2, (0b110, 0b001))
        with pytest.raises(ValueError, match="expected 2 rows"):
            UndirectedGraph(2, (0,))
        with pytest.raises(ValueError, match="outside 1..2"):
            UndirectedGraph.from_edges(2, [(1, 3)])

    @given(bool_matrices())
    def test_edge_list_is_sorted_upper_bits(self, a):
        # a OR its transpose, diagonal cleared
        rows = zip(a.rows, a.columns())
        s = BoolMatrix(a.n, tuple((r | c) & ~(1 << i) for i, (r, c) in enumerate(rows)))
        g = UndirectedGraph.from_adjacency_matrix(s)
        expected = [
            (i + 1, j + 1) for i in range(a.n) for j in range(i + 1, a.n) if entry(s, i, j)
        ]
        assert g.edge_list() == expected
        assert g.edges == set(expected)
        assert all(
            adjacent(g, u, v) == ((min(u, v), max(u, v)) in expected)
            for u in range(1, a.n + 1)
            for v in range(1, a.n + 1)
        )

    def test_loops_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            UndirectedGraph.from_edges(2, [(1, 1)])

    def test_from_adjacency_matrix_validates(self):
        with pytest.raises(ValueError, match="diagonal"):
            UndirectedGraph.from_adjacency_matrix(BoolMatrix.identity(2))
        lop = BoolMatrix.from_entries([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="not symmetric"):
            UndirectedGraph.from_adjacency_matrix(lop)

    @given(bool_matrices())
    def test_from_adjacency_matrix_round_trips_symmetric(self, a):
        # mirror the strict upper triangle of a: symmetric, zero diagonal
        s = BoolMatrix.from_entries(
            [[entry(a, min(i, j), max(i, j)) if i != j else 0 for j in range(a.n)]
             for i in range(a.n)]
        )
        g = UndirectedGraph.from_adjacency_matrix(s)
        assert g.edge_list() == [
            (i + 1, j + 1) for i in range(a.n) for j in range(i + 1, a.n) if entry(s, i, j)
        ]
        assert g.rows == s.rows

    @given(bool_matrices())
    def test_from_adjacency_matrix_rejects_like_entry_scan(self, a):
        # reference: scan rows in order, the diagonal before the pairs (i, j>i)
        expected = None
        for i in range(a.n):
            if entry(a, i, i):
                expected = f"adjacency matrix has nonzero diagonal at {i}"
                break
            bad = [j for j in range(i + 1, a.n) if entry(a, i, j) != entry(a, j, i)]
            if bad:
                expected = f"adjacency matrix not symmetric at ({i},{bad[0]})"
                break
        if expected is None:
            assert UndirectedGraph.from_adjacency_matrix(a).rows == a.rows
        else:
            with pytest.raises(ValueError) as exc:
                UndirectedGraph.from_adjacency_matrix(a)
            assert str(exc.value) == expected

    def test_adjacent(self):
        g = UndirectedGraph.from_edges(3, [(1, 2)])
        assert adjacent(g, 2, 1) and adjacent(g, 1, 2)
        assert not adjacent(g, 1, 3)
        assert not adjacent(g, 1, 1)


class TestMatrixConversion:
    def test_worked_example(self):
        assert period3_digraph() == period3_matrix()


class TestStrongComponents:
    @settings(max_examples=150, deadline=None)
    @given(digraphs())
    def test_matches_transitive_closure(self, d):
        expected = [sum(1 << (v - 1) for v in comp) for comp in naive_sccs(d)]
        assert sorted(_strong_components(d)) == sorted(expected)

    @settings(max_examples=100, deadline=None)
    @given(digraphs())
    def test_order_is_topological(self, d):
        comps = _strong_components(d)
        pos = {v: p for p, comp in enumerate(comps) for v in range(1, d.n + 1) if comp >> (v - 1) & 1}
        for u, v in d.arc_list():
            assert pos[u] <= pos[v]


class TestComponentChain:
    def test_single_component(self):
        chain = component_chain(period3_digraph())
        assert chain.eta == 1
        assert chain.masks == (0b1111,)
        assert chain.trivial_flags == (False,)
        assert chain.last_nontrivial == 1
        assert not chain.all_trivial

    def test_two_component_chain(self):
        chain = component_chain(two_chain())
        assert chain.masks == (0b0011, 0b1100)

    def test_trailing_trivial(self):
        chain = component_chain(cycle4_feeders(2))
        assert chain.trivial_flags == (False, True)
        assert chain.last_nontrivial == 1

    def test_all_trivial_path(self):
        chain = component_chain(Digraph.from_arcs(3, [(1, 2), (2, 3)]))
        assert chain.all_trivial
        assert chain.last_nontrivial is None

    def test_looped_vertex_is_a_nontrivial_component(self):
        # the loop on 2 makes {2} the irreducible block [1]; {1} stays trivial
        chain = component_chain(Digraph.from_arcs(2, [(1, 2), (2, 2)]))
        assert chain.masks == (0b01, 0b10)
        assert chain.loops == 0b10
        assert chain.kappas == (1, 1)
        assert chain.trivial_flags == (True, False)
        assert chain.last_nontrivial == 2

    def test_skipping_arc_rejected_with_witness(self):
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(d)
        assert exc.value.witness_arc == (1, 3)

    def test_witness_is_first_skipping_arc(self):
        # path 1 -> 2 -> 3 -> 4 -> 5 with four skipping arcs, two out of vertex 1
        for skips in itertools.permutations([(2, 4), (1, 4), (1, 3), (3, 5)]):
            d = Digraph.from_arcs(5, [(1, 2), (2, 3), (3, 4), (4, 5), *skips])
            with pytest.raises(NotLinearlyConnectedError, match=r"arc \(1,3\) jumps") as exc:
                component_chain(d)
            assert exc.value.witness_arc == (1, 3)

    def test_disconnected_components_rejected(self):
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        with pytest.raises(NotLinearlyConnectedError, match="no arcs") as exc:
            component_chain(d)
        assert exc.value.witness_arc is None

    def test_too_few_arcs_rejected_before_tarjan(self, monkeypatch):
        def no_search(d):
            raise AssertionError("strong components computed")

        monkeypatch.setattr(graphs, "_strong_components", no_search)
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(Digraph.from_arcs(3, [(1, 2)]))
        assert str(exc.value) == "1 arc cannot link 3 vertices in a chain (at least 2 needed)"
        assert exc.value.witness_arc is None
        # a loop links nothing, so it is not counted
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(Digraph.from_arcs(3, [(1, 1), (1, 2)]))
        assert str(exc.value) == "1 arc cannot link 3 vertices in a chain (at least 2 needed)"
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(Digraph.from_arcs(3, [(2, 2)]))
        assert str(exc.value) == "0 arcs cannot link 3 vertices in a chain (at least 2 needed)"

    def test_too_few_arcs_on_a_huge_header(self):
        # the refusal is linear in n: about 0.4 s here on a 2-core Xeon,
        # where a pre-check building an n-bit int per row takes about 13 s
        d = Digraph(3_000_000, (0,) * 3_000_000)
        start = time.perf_counter()
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(d)
        assert time.perf_counter() - start < 5.0
        assert str(exc.value) == (
            "0 arcs cannot link 3000000 vertices in a chain (at least 2999999 needed)"
        )

    # each condensation below leaves two components unordered: the order is
    # the reverse of Tarjan's emission order from the DFS with roots 1..n
    def test_branching_condensation_rejected(self):
        d = Digraph.from_arcs(3, [(1, 2), (1, 3)])
        assert _strong_components(d) == [0b001, 0b100, 0b010]
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(d)
        assert str(exc.value) == "arc (1,2) jumps from component 1 to component 3"

    def test_merging_condensation_rejected(self):
        d = Digraph.from_arcs(3, [(1, 3), (2, 3)])
        assert _strong_components(d) == [0b010, 0b001, 0b100]
        with pytest.raises(NotLinearlyConnectedError) as exc:
            component_chain(d)
        assert str(exc.value) == "arc (2,3) jumps from component 1 to component 3"

    def test_chain_is_found_once_per_digraph(self, monkeypatch):
        d = two_chain()
        chain = component_chain(d)
        assert component_chain(d) is chain

        def no_search(d):
            raise AssertionError("strong components computed again")

        monkeypatch.setattr(graphs, "_strong_components", no_search)
        assert component_chain(d) is chain
        assert d == two_chain()  # the kept chain is not a field

    def test_refusal_raises_on_every_call(self, monkeypatch):
        calls = []
        search = graphs._strong_components
        monkeypatch.setattr(graphs, "_strong_components", lambda d: calls.append(d) or search(d))
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (1, 3)])
        for attempt in range(1, 4):
            with pytest.raises(NotLinearlyConnectedError, match=r"arc \(1,3\) jumps"):
                component_chain(d)
            assert len(calls) == attempt  # nothing was kept
        looped = Digraph.from_arcs(2, [(1, 2), (2, 2)])
        assert component_chain(looped) is component_chain(looped)  # a loop is no refusal
        assert len(calls) == 4

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_accepted_chains_have_consecutive_arcs(self, seed):
        d = random_instance(GeneratorSpec(eta=3, sizes=(1, 4), seed=seed))
        chain = component_chain(d)
        idx = {v: p for p, mask in enumerate(chain.masks, start=1) for v in vertices(mask)}
        # every arc stays or steps one component up, and every interface has one
        steps = {(idx[u], idx[v]) for u, v in d.arc_list() if idx[u] != idx[v]}
        assert steps == {(p, p + 1) for p in range(1, chain.eta)}

    @settings(max_examples=300, deadline=None)
    @given(digraphs(allow_loops=True))
    def test_loops_change_only_kappa_and_triviality(self, d):
        # a loop is a 1-cycle: the chain of d is that of d without its
        # loops, except that a looped component has kappa 1 and a looped
        # single vertex is nontrivial
        loops = sum(1 << i for i, r in enumerate(d.rows) if r >> i & 1)
        cleared = Digraph(d.n, tuple(r & ~(1 << i) for i, r in enumerate(d.rows)))
        try:
            bare = component_chain(cleared)
        except NotLinearlyConnectedError as e:
            with pytest.raises(NotLinearlyConnectedError, match=f"^{re.escape(str(e))}$"):
                component_chain(d)
            return
        chain = component_chain(d)
        assert chain.loops == loops
        assert chain.masks == bare.masks
        for p, mask in enumerate(chain.masks):
            has_loop = bool(mask & loops)
            assert chain.kappas[p] == (1 if has_loop else bare.kappas[p])
            if mask.bit_count() == 1:
                assert chain.trivial_flags[p] == (not has_loop)
            else:
                assert not chain.trivial_flags[p]


class TestImprimitivity:
    def test_worked_example_classes(self):
        d = period3_digraph()
        chain = component_chain(d)
        assert chain.kappas == (3,)
        assert chain.kappa(1) == 3
        assert chain.class_masks == ((0b0001, 0b1010, 0b0100),)
        assert imprimitivity(d, chain.masks) == chain.class_masks

    def test_chord_halves_the_index(self):
        d = Digraph.from_arcs(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
        chain = component_chain(d)
        assert chain.kappas == (2,)
        assert chain.class_masks[0] == (0b0101, 0b1010)

    def test_class_check_names_the_first_stray_arc(self, monkeypatch):
        # a wrong kappa of 2 on the 3-cycle 1 -> 2 -> 3 -> 1 puts 1 and 3 in one
        # class, so the arc (3,1) out of the last level stays in its class
        monkeypatch.setattr(graphs, "gcd", lambda a, b: 2)
        d = Digraph.from_arcs(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        with pytest.raises(InternalCheckError) as exc:
            imprimitivity(d, [0b0111])
        assert str(exc.value) == "arc (3,1) does not advance its class by one"

    def test_acyclic_mask_is_refused(self):
        # 2 is reachable from 1 inside the mask, but the mask holds no cycle
        d = Digraph.from_arcs(2, [(1, 2)])
        with pytest.raises(InternalCheckError) as exc:
            imprimitivity(d, [0b11])
        assert str(exc.value) == "component containing 1 has no cycle discrepancy"

    def test_trivial_component_has_index_one(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        assert chain.kappas == (4, 1)
        assert chain.class_masks[1] == (0b10000,)

    def test_validation(self):
        with pytest.raises(ValueError, match="component 2 has no class"):
            ComponentChain(((0b1,), ()), 0)
        with pytest.raises(ValueError, match="empty"):
            ComponentChain(((0,),), 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_index_is_gcd_of_cycle_lengths(self, seed, eta):
        import math

        d = random_instance(GeneratorSpec(eta=eta, sizes=(1, 5), seed=seed))
        chain = component_chain(d)
        for p, mask in enumerate(chain.masks, start=1):
            lengths = simple_cycle_lengths(d, vertices(mask))
            if chain.trivial_flags[p - 1]:
                assert chain.kappa(p) == 1
                assert not lengths
            else:
                assert chain.kappa(p) == math.gcd(*lengths)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_classes_partition_and_arcs_advance(self, seed, eta):
        d = random_instance(GeneratorSpec(eta=eta, sizes=(1, 5), seed=seed))
        chain = component_chain(d)
        for p, mask in enumerate(chain.masks, start=1):
            comp = vertices(mask)
            cls = [vertices(c) for c in chain.class_masks[p - 1]]
            assert frozenset().union(*cls) == comp
            assert sum(len(c) for c in cls) == len(comp)
            assert min(comp) in cls[0]  # anchoring: smallest id in U_1
            kappa = chain.kappa(p)
            label = {v: j for j, members in enumerate(cls, start=1) for v in members}
            for u, w in d.arc_list():
                if u in comp and w in comp:
                    assert label[w] == label[u] % kappa + 1


class TestCompetitionGraph:
    """The one-step competition graph, m_step_competition(d, 1)."""

    def test_worked_example(self):
        assert m_step_competition(period3_digraph(), 1).edge_list() == [(2, 4)]

    def test_no_common_prey_three_cycle(self):
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert m_step_competition(d, 1).edge_list() == []

    @given(digraphs())
    def test_matches_common_prey_definition(self, d):
        out = {u: {w for x, w in d.arc_list() if x == u} for u in range(1, d.n + 1)}
        expected = [
            (u, v)
            for u in range(1, d.n + 1)
            for v in range(u + 1, d.n + 1)
            if out[u] & out[v]
        ]
        assert m_step_competition(d, 1).edge_list() == expected


class TestMStepCompetition:
    def test_step_count_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            m_step_competition(two_chain(), 0)

    def test_route_split_raises(self, monkeypatch):
        # every vertex reaches everything: the walk route claims a complete graph
        monkeypatch.setattr(
            graphs, "_m_step_reach", lambda d, m: [(1 << d.n) - 1] * d.n
        )
        # gamma of A is the one edge (2, 4), so (1, 2) is the first pair the
        # routes disagree on
        message = r"disagree at m=1, first difference \(1, 2\)$"
        with pytest.raises(InternalCheckError, match=message):
            m_step_competition(two_chain(), 1)

    def test_asymmetric_gamma_is_a_route_split(self, monkeypatch):
        # 1 <-> 2, 3 <-> 4, 1 -> 3: the graph at m=2 is {1,4}, {2,3}; a gamma
        # that adds (1, 2) to row 1 alone is a fault of a route, not an input
        # to refuse, so it raises the route split, not the symmetry check
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3)])
        assert m_step_competition(d, 2).edge_list() == [(1, 4), (2, 3)]

        def one_way_gamma(a):
            rows = gamma(a).rows
            return BoolMatrix(a.n, (rows[0] | 0b10,) + rows[1:])

        monkeypatch.setattr(graphs, "gamma", one_way_gamma)
        message = r"disagree at m=2, first difference \(1, 2\)$"
        with pytest.raises(InternalCheckError, match=message):
            m_step_competition(d, 2)

    @pytest.mark.parametrize("m", [1, 5, 10**12])
    @pytest.mark.parametrize("d", [two_chain(), wielandt(12)], ids=["two_chain", "wielandt12"])
    def test_transposes_twice(self, monkeypatch, d, m):
        # the walk route's predecessor masks, then the symmetry check of the
        # one graph built, the answer; the matrix route is compared as rows
        calls = []
        columns = BoolMatrix.columns
        monkeypatch.setattr(BoolMatrix, "columns", lambda self: calls.append(self) or columns(self))
        g = m_step_competition(d, m)
        assert len(calls) == 2
        assert type(calls[0]) is BoolMatrix and calls[1] is g

    def test_power_split_raises(self, monkeypatch):
        # 1 -> 2 <-> 3: nothing reaches vertex 1, so a walk from 3 into it
        # joins 3 to no one and leaves the graph equal, but not A^m
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 2)])
        reach = graphs._m_step_reach
        monkeypatch.setattr(
            graphs, "_m_step_reach", lambda d, m: [r | (v == 2) for v, r in enumerate(reach(d, m))]
        )
        message = r"^m-step routes disagree on A\^5 at \(3, 1\)$"
        with pytest.raises(InternalCheckError, match=message):
            m_step_competition(d, 5)

    def test_far_tail_matches_simulated_gamma_cycle(self):
        # one period of m, starting at a multiple of pi past mu with m >> n,
        # lists the simulated gamma cycle in the same order
        divergent = 0
        for seed in range(40):
            d = random_instance(GeneratorSpec(eta=1 + seed % 4, sizes=(1, 4), seed=seed))
            sim = simulate_limit(d)
            start = sim.index_mu + sim.period_pi * 10 * d.n
            cycle = []
            for m in range(start, start + sim.period_pi):
                g = m_step_competition(d, m)
                if g not in cycle:
                    cycle.append(g)
            assert tuple(cycle) == sim.gamma_cycle, seed
            divergent += len(cycle) > 1
        assert divergent >= 2

    def test_edge_appears_at_the_right_step(self):
        # 1 -> 2 -> 3 and 4 -> 3, with 3 looping on itself: vertex 1 first
        # reaches the shared prey 3 at two steps, vertex 4 at one, so the
        # edge {1,4} exists for every m >= 2 but not at m = 1
        d = Digraph.from_arcs(4, [(1, 2), (2, 3), (4, 3), (3, 3)])
        assert (1, 4) not in m_step_competition(d, 1).edge_list()
        assert (1, 4) in m_step_competition(d, 2).edge_list()
        assert (1, 4) in m_step_competition(d, 7).edge_list()

    @settings(max_examples=300, deadline=None)
    @given(digraphs(max_n=7))
    def test_period_is_lcm_of_kappas(self, d):
        # the premise of the oracle's period cap: the period of A's powers is
        # known before the walk, on any digraph, loops and non-chains included
        kappas = map(len, imprimitivity(d, _strong_components(d)))
        assert power_period(d) == math.lcm(*kappas) == simulate_limit(d).period_pi

    def test_long_period_answers_a_far_step_count(self):
        d = cycle_chain((2, 3, 5, 7, 11, 13, 17))  # period 510510
        g = m_step_competition(d, 10**12)
        assert g.rows == gamma(bool_pow(d, 10**12)).rows
        # 759760 lies past the index, with the residue of 10^12 mod 510510
        assert g == m_step_competition(d, 759760)

    def test_long_period_answers_a_step_count_under_the_cap(self):
        # a step count below the period answers as well
        d = cycle_chain((2, 3, 5, 7, 11, 13, 17))
        assert m_step_competition(d, 1000).rows == gamma(bool_pow(d, 1000)).rows

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6), st.integers(1, 6))
    def test_matches_walk_counting(self, d, m):
        counts = np.linalg.matrix_power(
            np.array(to_entries(d), dtype=np.int64), m
        )
        expected = []
        for u in range(d.n):
            for v in range(u + 1, d.n):
                if any(counts[u][k] and counts[v][k] for k in range(d.n)):
                    expected.append((u + 1, v + 1))
        assert m_step_competition(d, m).edge_list() == expected


def stepped_reach(d: Digraph, m: int) -> list[int]:
    """The walk DP stepped m times, one arc at a time: reach_(t+1)(v) is
    the OR of reach_t(w) over the arcs (v, w), from reach_0(v) = {v}.
    This is the loop ``_m_step_reach`` replaced, kept as its reference."""
    succ = [[w for w in range(d.n) if (r >> w) & 1] for r in d.rows]
    reach = [1 << v for v in range(d.n)]
    for _ in range(m):
        nxt = []
        for out in succ:
            acc = 0
            for w in out:
                acc |= reach[w]
            nxt.append(acc)
        reach = nxt
    return reach


def seeded_digraphs():
    """Chains with and without trivial components, a cycle chain of
    period 60, and random digraphs, loops allowed, that need not be
    chains."""
    rng = random.Random(2024)
    out = [two_chain(), cycle4_feeders(2), cycle_chain((3, 4, 5))]
    for k in range(8):
        spec = GeneratorSpec(eta=1 + k % 4, sizes=(1, 5), allow_trivial=k % 2 == 1, seed=k)
        out.append(random_instance(spec))
    for _ in range(10):
        out.append(random_digraph(rng, rng.randint(1, 7), rng.choice((0.15, 0.3, 0.5))))
    return out


def pairwise_gamma(reach: list[int]) -> tuple[int, ...]:
    """The walk route's graph by its old vertex-pair loop: u and v joined
    iff their reach masks intersect.  The reference for reach * reach^T."""
    rows = [0] * len(reach)
    for u, ru in enumerate(reach):
        for v in range(u + 1, len(reach)):
            if ru & reach[v]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


class TestWalkRouteGraph:
    """The walk route reads its graph off the distinct reach lists; the
    pairwise loop over the same reach lists is the reference."""

    def test_matches_pairwise_loop(self):
        # a sink has an empty reach list from m = 1 on
        extra = [Digraph(1, (0,)), Digraph(1, (1,)), Digraph.from_arcs(3, [(1, 2), (2, 3)])]
        empty = 0
        for d in seeded_digraphs() + extra:
            sim = simulate_limit(d)
            mu, pi = sim.index_mu, sim.period_pi
            for m in {1, 2, 3, mu, mu + pi, 10**5}:
                reach = graphs._m_step_reach(d, m)
                assert m_step_competition(d, m).rows == pairwise_gamma(reach), (d, m)
                empty += 0 in reach
        assert empty > 0

    def test_wielandt_one_distinct_list(self):
        for n in range(12, 41):
            d = wielandt(n)
            reach = graphs._m_step_reach(d, 10**12)
            assert len(set(reach)) == 1, n
            assert m_step_competition(d, 10**12).rows == pairwise_gamma(reach), n


class TestDoubling:
    """``_m_step_reach`` squares its reach lists along the bits of m and
    steps one arc at each set bit; the plain m-step loop is the reference."""

    def test_matches_stepped_loop(self):
        far = 10**5
        around_powers = {m for k in range(8) for m in (2**k - 1, 2**k, 2**k + 1)}
        for d in seeded_digraphs():
            sim = simulate_limit(d)
            mu, pi = sim.index_mu, sim.period_pi
            for m in {0, 1, 2, 3, mu - 1, mu, mu + pi, mu + pi + 1} | around_powers:
                assert graphs._m_step_reach(d, m) == stepped_reach(d, m), (d, m)
            assert graphs._m_step_reach(d, far) == stepped_reach(d, far), d

    def test_wielandt_far_step_count(self):
        # primitive, so pi = 1 and every m past the index (n-1)^2 + 1, the
        # largest there is, gives the reach at the index
        for n in range(12, 41):
            d = wielandt(n)
            assert graphs._m_step_reach(d, 10**12) == stepped_reach(d, (n - 1) ** 2 + 1), n

    def test_reads_no_cached_successors(self):
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        graphs._m_step_reach(d, 100)
        assert "successors" not in vars(d)

    def test_huge_step_count_is_one_period_past_the_index(self):
        far = 10**12
        for d in seeded_digraphs():
            sim = simulate_limit(d)
            mu, pi = sim.index_mu, sim.period_pi
            assert m_step_competition(d, far) == m_step_competition(d, mu + (far - mu) % pi), d


class TestEdgeListText:
    def test_parse_worked_example(self):
        text = "4 5\n1 2\n2 1\n2 3\n3 4\n4 3\n"
        assert parse_edge_list(text) == two_chain()

    def test_format_sorts_arcs(self):
        assert format_edge_list(two_chain()) == "4 5\n1 2\n2 1\n2 3\n3 4\n4 3\n"

    @given(digraphs(allow_loops=False))
    def test_round_trip(self, d):
        assert parse_edge_list(format_edge_list(d)) == d

    def test_errors_name_lines(self):
        cases = [
            ("", 1, "empty"),
            ("3\n", 1, "expected 'n m'"),
            ("x y\n", 1, "integers"),
            ("0 0\n", 1, ">= 1"),
            ("2 -1\n", 1, ">= 0"),
            ("2 2\n1 2\n", 3, "ends after arc 1"),
            ("2 1\n1 2 3\n", 2, "expected 'u v'"),
            ("2 1\n1 x\n", 2, "integers"),
            ("2 1\n1 3\n", 2, "outside"),
            ("2 2\n1 2\n1 2\n", 3, "duplicate"),
            ("2 1\n1 2\njunk\n", 3, "trailing"),
        ]
        for text, line, fragment in cases:
            with pytest.raises(ParseError, match=fragment) as exc:
                parse_edge_list(text)
            assert exc.value.line == line, text


# every line boundary str.splitlines knows: "\r\n", and each of these alone
LINE_BOUNDARIES = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def splitlines_format(text: str) -> str:
    """detect_format as it read the whole text's splitlines: the reference
    the first-line reader must agree with."""
    lines = text.splitlines()
    ntoks = len(lines[0].split()) if lines else 0
    if ntoks == 0:
        raise ParseError(1, "empty input")
    if ntoks == 1:
        return "matrix"
    if ntoks == 2:
        return "edge-list"
    raise ParseError(1, f"expected 1 token (matrix) or 2 tokens (edge list), got {ntoks}")


def outcome(detect, text: str) -> str:
    try:
        return detect(text)
    except ParseError as e:
        return str(e)


class TestDetectFormat:
    @pytest.mark.parametrize(
        "text, fmt",
        [
            ("4\n0101\n", "matrix"),
            ("4 5\n1 2\n", "edge-list"),
            ("7", "matrix"),
            ("\t2  0 ", "edge-list"),
            ("3 2\r\n1 2\r\n2 3\r\n", "edge-list"),
            ("3\r\n010\r\n", "matrix"),
            # a lone "\r" ends the first line before the three tokens after it
            ("3 1\r1 2 3", "edge-list"),
            ("3\r1 2 3\r", "matrix"),
        ],
    )
    def test_tokens_on_the_first_line(self, text, fmt):
        assert detect_format(text) == fmt

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            (" \t\n4 5\n", "empty input"),
            ("\n4\n0101\n", "empty input"),
            ("\r\n2 1\n", "empty input"),
            ("1 2 3\n", "expected 1 token (matrix) or 2 tokens (edge list), got 3"),
            ("1 2 3 4", "expected 1 token (matrix) or 2 tokens (edge list), got 4"),
        ],
    )
    def test_refused(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message) + "$") as exc:
            detect_format(text)
        assert exc.value.line == 1

    @pytest.mark.parametrize("boundary", ["\r\n", *LINE_BOUNDARIES])
    @pytest.mark.parametrize("first", ["", "5", "5 6", "5 6 7"])
    def test_every_line_boundary_ends_the_first_line(self, boundary, first):
        text = first + boundary + "1 2 3" + boundary + "4"
        assert outcome(detect_format, text) == outcome(splitlines_format, text)

    # "\t" and "\x1f" split tokens but end no line
    @given(st.text(alphabet=["1", " ", "\t", "\x1f", *LINE_BOUNDARIES], max_size=12))
    def test_agrees_with_splitlines(self, text):
        assert outcome(detect_format, text) == outcome(splitlines_format, text)


class TestParseDigraph:
    def test_detects_matrix(self):
        assert parse_digraph("4\n0101\n0010\n1000\n0010\n") == period3_digraph()

    def test_detects_edge_list(self):
        assert parse_digraph("4 5\n1 2\n2 1\n2 3\n3 4\n4 3\n") == two_chain()

    def test_loops_read_in_both_formats(self):
        # a matrix's diagonal entry and an edge list's "v v" line are loops
        looped = Digraph.from_arcs(2, [(1, 2), (2, 2)])
        assert parse_digraph("2\n01\n01\n") == looped
        assert parse_digraph("2 2\n1 2\n2 2\n") == looped

    def test_ambiguous_header_rejected(self):
        with pytest.raises(ParseError, match="1 token .* or 2 tokens"):
            parse_digraph("1 2 3\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_digraph("  \n")

    # int() takes each of these tokens; only ASCII digits after an optional
    # "-" are numbers here, and a "-" still reaches the range messages
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("+2\n01\n10\n", 1, "expected a decimal dimension, got '+2'"),
            ("0_2\n01\n10\n", 1, "expected a decimal dimension, got '0_2'"),
            ("\u0662\n01\n10\n", 1, "expected a decimal dimension, got '\u0662'"),
            ("-2\n", 1, "dimension must be >= 1, got -2"),
            ("2_0 1\n1 2\n", 1, "expected integers, got '2_0 1'"),
            ("+2 1\n1 2\n", 1, "expected integers, got '+2 1'"),
            ("2 \u0661\n1 2\n", 1, "expected integers, got '2 \u0661'"),
            ("-1 0\n", 1, "vertex count must be >= 1, got -1"),
            ("3 2\n1 2\n2 \u0663\n", 3, "expected integers, got '2 \u0663'"),
            ("3 2\n+1 2\n2 3\n", 2, "expected integers, got '+1 2'"),
            ("3 2\n1 2\n2 3_0\n", 3, "expected integers, got '2 3_0'"),
        ],
    )
    def test_int_literal_syntax_rejected(self, text, line, message):
        with pytest.raises(ParseError, match=re.escape(message) + "$") as exc:
            parse_digraph(text)
        assert exc.value.line == line

    @given(digraphs(allow_loops=False))
    def test_edge_list_round_trip(self, d):
        assert parse_digraph(format_edge_list(d)) == d
