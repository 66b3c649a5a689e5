"""Convergence verdicts, skeletons, limits, and the clique criterion,
pinned on worked examples and property-tested against the simulation."""

import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from compseq import (
    RULE_ALL_TRIVIAL,
    RULE_NONTRIVIAL_TAIL,
    RULE_TRAILING_CONDITION,
    ConvergenceVerdict,
    Digraph,
    DivergenceWitness,
    GeneratorSpec,
    TrivialComponentError,
    UndirectedGraph,
    b_graph,
    component_chain,
    converges,
    cs_graph,
    interface_pairs,
    jbd_condition,
    l_set,
    lambda_set,
    limit_graph,
    random_instance,
    shifted_union,
    simulate_limit,
    union_of_cliques,
)
from compseq.cli import _join_runs
from compseq.theory import _rotate
from conftest import (
    adjacent,
    aperiodic_middle_chain,
    chorded_six_cycle,
    cycle4_feeders,
    gcd2_merge_chain,
    mixed_residue_chain,
    period3_digraph,
    reference_powers,
    rotate_classes,
    skeleton_edges,
    three_chain_complete,
    three_chain_parallel,
    two_chain,
    vertices,
)


class TestResidueSet:
    """Residue sets are int masks over Z_kappa: bit r is residue r."""

    def test_members_validated(self):
        with pytest.raises(ValueError, match="outside Z_3"):
            l_set(0b1000, 1, 3)
        with pytest.raises(ValueError, match="outside Z_3"):
            l_set(-1, 1, 3)
        with pytest.raises(ValueError, match="outside Z_3"):
            shifted_union(0b001, 0b1001, 1, 3)
        with pytest.raises(ValueError, match="outside Z_0"):
            shifted_union(0, 0, 1, 0)

    def test_shift_wraps(self):
        assert _rotate(0b1100, 2, 4) == 0b0011
        assert _rotate(0b0010, 0, 4) == 0b0010
        assert _rotate(0b0001, -1, 4) == 0b1000
        assert _rotate(0b0110, 9, 4) == 0b1100

    @given(st.data(), st.integers(1, 9), st.integers(-20, 20))
    def test_set_algebra(self, data, kappa, s):
        # rotation is a bijection of Z_kappa: it commutes with & and |,
        # which is what lets converges test only the pairs (1, j2)
        masks = st.integers(0, (1 << kappa) - 1)
        a, b = data.draw(masks), data.draw(masks)
        assert _rotate(a & b, s, kappa) == _rotate(a, s, kappa) & _rotate(b, s, kappa)
        assert _rotate(a | b, s, kappa) == _rotate(a, s, kappa) | _rotate(b, s, kappa)
        assert _rotate(_rotate(a, s, kappa), -s, kappa) == a

    def test_empty_and_full(self):
        assert shifted_union(0b001, 0b010, 3, 3) == 0
        assert shifted_union(0b011, 0b110, 3, 3) == 0b111
        assert shifted_union(0b011, 0b110, 2, 3) == 0b110

    def test_class_label_convention(self):
        # label j is bit j - 1: bit 0 holds label 1
        d = cycle4_feeders(2)
        chain = component_chain(d)
        assert lambda_set(d, chain) == 0b0011
        # L_1 = {k : k a label in lam}: labels 1 and 3 are residues 1 and 3
        assert l_set(0b0101, 1, 4) == 0b1010
        with pytest.raises(ValueError, match="label"):
            l_set(0b0101, 0, 4)
        with pytest.raises(ValueError, match="label"):
            l_set(0b0101, 5, 4)


class TestLambdaAndLSets:
    def test_lambda_set_of_divergent_feeder(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        assert chain.kappa(chain.last_nontrivial) == 4
        assert lambda_set(d, chain) == 0b0011  # labels 1 and 2

    def test_lambda_set_full_when_all_classes_feed(self):
        d = cycle4_feeders(4)
        chain = component_chain(d)
        assert lambda_set(d, chain) == 0b1111

    def test_lambda_set_matches_its_definition(self):
        # Lambda by its definition: the labels of the classes of D_p that
        # hold a row hitting the column of the trailing vertex, found by
        # scanning every row, on chains ending in one to three trivial
        # components
        rng = random.Random(11)
        compared = partial = 0
        while compared < 2000:
            eta = rng.randint(2, 5)
            tail = rng.randint(1, min(3, eta - 1))
            hi = rng.choice((6, 12))
            spec = GeneratorSpec(
                eta=eta,
                sizes=((1, hi),) * (eta - tail) + ((1, 1),) * tail,
                seed=rng.getrandbits(32),
            )
            d = random_instance(spec)
            chain = component_chain(d)
            p = chain.last_nontrivial
            if p is None:
                continue
            column = chain.masks[p]
            feeders = sum(1 << u for u, row in enumerate(d.rows) if row & column)
            expected = sum(
                1 << (j - 1)
                for j, members in enumerate(chain.class_masks[p - 1], start=1)
                if feeders & members
            )
            assert lambda_set(d, chain) == expected, spec
            compared += 1
            partial += expected != (1 << chain.kappa(p)) - 1
        assert partial >= 100

    def test_lambda_set_requires_trailing_trivial_part(self):
        d = two_chain()
        chain = component_chain(d)
        with pytest.raises(ValueError, match="last component is nontrivial"):
            lambda_set(d, chain)

    def test_lambda_set_requires_a_nontrivial_component(self):
        d = Digraph.from_arcs(3, [(1, 2), (2, 3)])
        chain = component_chain(d)
        with pytest.raises(ValueError, match="every component is trivial"):
            lambda_set(d, chain)

    def test_l_set_examples(self):
        lam = 0b01  # label 1 of Z_2
        assert l_set(lam, 1, 2) == 0b10
        assert l_set(lam, 2, 2) == 0b01

    def test_l_set_formula(self):
        lam = 0b0011  # labels 1 and 2 of Z_4
        assert l_set(lam, 1, 4) == 0b0110  # {1, 2}
        assert l_set(lam, 2, 4) == 0b0011  # {0, 1}
        assert l_set(lam, 3, 4) == 0b1001  # {3, 0}
        assert l_set(lam, 4, 4) == 0b1100  # {2, 3}

    def test_l_set_label_validated(self):
        with pytest.raises(ValueError, match="label"):
            l_set(0b001, 4, 3)


class TestShiftedUnion:
    def test_disjoint_stays_empty(self):
        assert shifted_union(0b10, 0b01, 1, 2) == 0

    def test_caption_arithmetic(self):
        l1 = 0b0111  # {0, 1, 2}
        l2 = 0b1011  # {0, 1, 3}
        assert shifted_union(l1, l2, 2, 4) == 0b0111
        assert shifted_union(l1, l2, 3, 4) == 0b1111

    def test_union_grows_with_shifts(self):
        l1, l2 = 0b0110, 0b0011
        small = shifted_union(l1, l2, 1, 4)
        big = shifted_union(l1, l2, 3, 4)
        assert small & ~big == 0

    @given(st.data(), st.integers(1, 9), st.integers(1, 20))
    def test_matches_per_shift_definition(self, data, kappa, shifts):
        masks = st.integers(0, (1 << kappa) - 1)
        l1, l2 = data.draw(masks), data.draw(masks)
        # r is in i + L iff r - i is in L
        literal = 0
        for i in range(shifts):
            for r in range(kappa):
                if (l1 & l2) >> ((r - i) % kappa) & 1:
                    literal |= 1 << r
        assert shifted_union(l1, l2, shifts, kappa) == literal

    def test_validation(self):
        with pytest.raises(ValueError, match="outside Z_2"):
            shifted_union(0b01, 0b100, 1, 2)
        with pytest.raises(ValueError, match="shift count"):
            shifted_union(0b01, 0b01, 0, 2)


def all_pairs_verdict(d):
    """The trailing condition read literally, with frozensets of residues:
    every unordered class pair (j1, j2) in order, the union over the
    shifts i of (i + L_j1) & (i + L_j2), and as witness the first pair
    whose union is neither empty nor full, with its smallest missing
    residue.  d must end in a trivial component after a nontrivial one."""
    chain = component_chain(d)
    p = chain.last_nontrivial
    kappa = chain.kappa(p)
    (v,) = vertices(chain.masks[p])
    arcs = set(d.arc_list())
    feeders = {
        j
        for j, cls in enumerate(chain.class_masks[p - 1], start=1)
        if any((u, v) in arcs for u in vertices(cls))
    }
    lsets = {
        j: frozenset((k - j + 1) % kappa for k in feeders) for j in range(1, kappa + 1)
    }
    everything = frozenset(range(kappa))
    for j1 in range(1, kappa + 1):
        for j2 in range(j1 + 1, kappa + 1):
            union = frozenset()
            for i in range(chain.eta - p):
                union |= frozenset((r + i) % kappa for r in lsets[j1]) & frozenset(
                    (r + i) % kappa for r in lsets[j2]
                )
            if union and union != everything:
                witness = DivergenceWitness(j1, j2, min(everything - union))
                return ConvergenceVerdict(RULE_TRAILING_CONDITION, witness)
    return ConvergenceVerdict(RULE_TRAILING_CONDITION, None)


def full_feed_cycle(kappa: int) -> Digraph:
    """A directed kappa-cycle on 1..kappa with every vertex feeding vertex
    kappa + 1, followed by one more trivial vertex."""
    arcs = [(v, v % kappa + 1) for v in range(1, kappa + 1)]
    arcs += [(v, kappa + 1) for v in range(1, kappa + 1)] + [(kappa + 1, kappa + 2)]
    return Digraph.from_arcs(kappa + 2, arcs)


class TestConverges:
    def test_all_trivial_rule(self):
        v = converges(Digraph.from_arcs(3, [(1, 2), (2, 3)]))
        assert v.converged and v.rule == RULE_ALL_TRIVIAL and v.witness is None

    def test_nontrivial_tail_rule(self):
        v = converges(period3_digraph())
        assert v.converged and v.rule == RULE_NONTRIVIAL_TAIL
        assert converges(two_chain()).rule == RULE_NONTRIVIAL_TAIL

    def test_divergent_feeder_witness(self):
        v = converges(cycle4_feeders(2))
        assert not v.converged
        assert v.rule == RULE_TRAILING_CONDITION
        assert v.witness == DivergenceWitness(j1=1, j2=2, excluded_residue=0)

    def test_full_feeder_converges(self):
        v = converges(cycle4_feeders(4))
        assert v.converged and v.rule == RULE_TRAILING_CONDITION and v.witness is None

    def test_large_full_feeder_converges(self):
        # kappa = 197: every L_j is all of Z_197, so every union is full
        d = full_feed_cycle(197)
        v = converges(d)
        assert v.converged and v.rule == RULE_TRAILING_CONDITION and v.witness is None

    def test_disjoint_l_sets_converge(self):
        # single class feeds the tail: every L-pair intersection is empty
        d = Digraph.from_arcs(3, [(1, 2), (2, 1), (1, 3)])
        v = converges(d)
        assert v.converged and v.rule == RULE_TRAILING_CONDITION

    def test_matches_all_pairs_loop(self):
        # the loop over (1, j2) against the literal loop over all pairs,
        # on chains that end in one to three trivial components
        rng = random.Random(7)
        compared = divergent = later_witness = 0
        while compared < 5000:
            eta = rng.randint(2, 5)
            tail = rng.randint(1, min(3, eta - 1))
            hi = rng.choice((6, 12))
            spec = GeneratorSpec(
                eta=eta,
                sizes=((1, hi),) * (eta - tail) + ((1, 1),) * tail,
                seed=rng.getrandbits(32),
            )
            d = random_instance(spec)
            if component_chain(d).all_trivial:
                continue
            got = converges(d)
            assert got == all_pairs_verdict(d), spec
            compared += 1
            divergent += not got.converged
            later_witness += got.witness is not None and got.witness.j2 > 2
        assert divergent >= 100 and later_witness >= 5

    def test_witness_present_iff_divergent(self):
        # converged is derived from the witness, so no verdict contradicts it
        assert not ConvergenceVerdict(RULE_TRAILING_CONDITION, DivergenceWitness(1, 2, 0)).converged
        assert ConvergenceVerdict(RULE_TRAILING_CONDITION, None).converged

    def test_verdict_ignores_class_anchoring(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        base = converges(d, chain=chain)
        for s in range(4):
            rot = rotate_classes(chain, (s, 0))
            v = converges(d, chain=rot)
            assert (v.converged, v.rule) == (base.converged, base.rule)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 4))
    def test_matches_simulation(self, seed, eta):
        d = random_instance(GeneratorSpec(eta=eta, sizes=(1, 4), seed=seed))
        assert converges(d).converged == simulate_limit(d).converged


class TestInterfacePairs:
    def test_two_chain(self):
        d = two_chain()
        chain = component_chain(d)
        iset = interface_pairs(d, chain, 1)
        assert iset == {(2, 1)}

    def test_index_validated(self):
        d = two_chain()
        chain = component_chain(d)
        with pytest.raises(ValueError, match="interface index"):
            interface_pairs(d, chain, 2)


def per_pair_b_graph(kappa1, kappa2, pairs):
    """b_graph as it walked every interface pair over the full lcm period."""
    edges = set()
    period = math.lcm(kappa1, kappa2)
    for k, l in pairs:
        for t in range(period):
            edges.add(((k + t) % kappa1 + 1, (l - 1 + t) % kappa2 + 1))
    return frozenset(edges)


def joined(masks):
    """The label pairs (i, j) of b_graph's joins masks."""
    return {(i, j) for i, mask in enumerate(masks, start=1) for j in vertices(mask)}


class TestBGraph:
    def test_single_pair_two_by_two(self):
        # (1, 1) and (2, 2)
        assert b_graph(2, 2, frozenset({(2, 1)})) == (0b01, 0b10)

    def test_coprime_moduli_fill_completely(self):
        assert b_graph(2, 3, frozenset({(1, 1)})) == (0b111, 0b111)

    def test_matches_congruence_definition(self):
        # every interface set of up to two pairs with kappa1, kappa2 <= 5
        for k1, k2 in itertools.product(range(1, 6), repeat=2):
            period = k1 * k2 // math.gcd(k1, k2)
            pairs = list(itertools.product(range(1, k1 + 1), range(1, k2 + 1)))
            for size in (1, 2):
                for iset in itertools.combinations(pairs, size):
                    expected = {
                        (i, j)
                        for i in range(1, k1 + 1)
                        for j in range(1, k2 + 1)
                        for k, l in iset
                        for t in range(period)
                        if (i - k - 1 - t) % k1 == 0 and (j - l - t) % k2 == 0
                    }
                    got = b_graph(k1, k2, frozenset(iset))
                    assert joined(got) == expected, (k1, k2, iset)

    def test_matches_per_pair_loop(self):
        # pair sets large enough that many pairs share (k - l) mod gcd, then
        # the kappas of the benchmark's nt278 chain, a coprime pair with a
        # 19 044-edge skeleton, and a gcd-6 pair
        rng = random.Random(808)
        shapes = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(300)]
        shapes += [(96, 114), (138, 137), (12, 18)] * 3
        repeated = 0
        for k1, k2 in shapes:
            g = math.gcd(k1, k2)
            pairs = frozenset(
                (rng.randint(1, k1), rng.randint(1, k2)) for _ in range(rng.randint(1, 10))
            )
            repeated += len({(k - l) % g for k, l in pairs}) < len(pairs)
            expected = per_pair_b_graph(k1, k2, pairs)
            assert joined(b_graph(k1, k2, pairs)) == expected, (k1, k2, pairs)
        assert repeated >= 100

    def test_validation(self):
        with pytest.raises(ValueError, match="class counts"):
            b_graph(0, 2, frozenset())
        with pytest.raises(ValueError, match="inconsistent"):
            b_graph(2, 2, frozenset({(3, 1)}))


class TestSkeleton:
    def test_parallel_chain(self):
        d = three_chain_parallel()
        chain = component_chain(d)
        joins = cs_graph(d, chain)
        assert chain.kappas == (2, 2, 2)
        assert joins == ((0b01, 0b10), (0b01, 0b10))
        assert skeleton_edges(joins) == [
            ((1, 1), (2, 1)),
            ((1, 2), (2, 2)),
            ((2, 1), (3, 1)),
            ((2, 2), (3, 2)),
        ]

    def test_complete_chain(self):
        d = three_chain_complete()
        chain = component_chain(d)
        assert skeleton_edges(cs_graph(d, chain)) == [
            ((p, i), (p + 1, j)) for p in (1, 2) for i in (1, 2) for j in (1, 2)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_list_is_sorted(self, seed):
        # the report's skeleton edges, as the CLI writes them from the joins
        d = random_instance(GeneratorSpec(eta=4, sizes=(2, 12), allow_trivial=False, seed=seed))
        chain = component_chain(d)
        joins = cs_graph(d, chain)
        head = "[{}, {}, {}, ".format
        runs = _join_runs(joins, chain, head, lambda *c: "], " + head(*c), "]")
        edges = [tuple(e) for e in json.loads("[" + ", ".join(runs) + "]")]
        assert edges == sorted(set(edges))
        assert edges == [(p, i, q, j) for (p, i), (q, j) in skeleton_edges(joins)]
        assert len(edges) == sum(map(int.bit_count, itertools.chain(*joins)))

    def test_levels_fit_the_chain(self):
        # b_graph's layout: eta - 1 levels, kappa_p masks at level p, and
        # every mask's labels within 1 .. kappa_(p+1)
        rng = random.Random(22)
        kappas_seen = set()
        for _ in range(300):
            spec = GeneratorSpec(
                eta=rng.randint(1, 5), sizes=(2, 12), allow_trivial=False, seed=rng.getrandbits(32)
            )
            d = random_instance(spec)
            chain = component_chain(d)
            joins = cs_graph(d, chain)
            assert len(joins) == chain.eta - 1
            for p, level in enumerate(joins, start=1):
                assert len(level) == chain.kappa(p)
                assert all(0 <= mask < 1 << chain.kappa(p + 1) for mask in level)
            kappas_seen.update(chain.kappas)
        assert len(kappas_seen) > 3

    def test_trivial_component_rejected(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        with pytest.raises(TrivialComponentError, match="component 2 is trivial"):
            cs_graph(d, chain)


def ascending_reach(joins, p, i):
    """Labels reachable from (p, i) by skeleton paths that advance exactly
    one level per step; maps each level r >= p to its label set (level p
    maps to {i})."""
    reach = {p: frozenset((i,))}
    for r in range(p, len(joins) + 1):
        reach[r + 1] = frozenset(
            j for (q, k), (_, j) in skeleton_edges(joins) if q == r and k in reach[r]
        )
    return reach


def class_labels(chain):
    """vertex -> (component p, class label j), both 1-based."""
    return {
        v: (p, j)
        for p, cls in enumerate(chain.class_masks, start=1)
        for j, members in enumerate(cls, start=1)
        for v in vertices(members)
    }


class TestAscendingReach:
    """The reference reach that the pairwise limit rule is built on."""

    def test_parallel_chain_tracks_one_lane(self):
        d = three_chain_parallel()
        chain = component_chain(d)
        joins = cs_graph(d, chain)
        assert ascending_reach(joins, 1, 2) == {
            1: frozenset({2}),
            2: frozenset({2}),
            3: frozenset({2}),
        }
        assert ascending_reach(joins, 2, 1) == {2: frozenset({1}), 3: frozenset({1})}
        assert ascending_reach(joins, 3, 1) == {3: frozenset({1})}

    def test_complete_chain_spreads(self):
        d = three_chain_complete()
        chain = component_chain(d)
        assert ascending_reach(cs_graph(d, chain), 1, 1)[3] == frozenset({1, 2})


# hand-built chains where skeleton lanes merge (kappas (2, 4, 2) and
# (2, 1, 3)), and a lone component with kappa 3
LANE_MERGES = (gcd2_merge_chain(), aperiodic_middle_chain(), chorded_six_cycle())


def pairwise_limit_graph(d, chain):
    """The limit by the vertex-pair rule: x in U_i of D_p and y in U_j of
    D_q with p <= q are adjacent iff the ascending reach sets of (p, i) and
    (q, j) meet at some level r >= q."""
    joins = cs_graph(d, chain)
    reach = {
        (p, i): ascending_reach(joins, p, i)
        for p in range(1, chain.eta + 1)
        for i in range(1, chain.kappa(p) + 1)
    }
    label = class_labels(chain)
    edges = []
    for u in range(1, d.n + 1):
        for v in range(u + 1, d.n + 1):
            (p, i), (q, j) = sorted((label[u], label[v]))
            ru, rv = reach[(p, i)], reach[(q, j)]
            if any(ru[r] & rv[r] for r in range(q, chain.eta + 1)):
                edges.append((u, v))
    return UndirectedGraph.from_edges(d.n, edges)


class TestLimitGraph:
    def limit(self, d):
        chain = component_chain(d)
        return limit_graph(cs_graph(d, chain), chain)

    def test_two_chain(self):
        assert self.limit(two_chain()).edge_list() == [(1, 3), (2, 4)]

    def test_single_component_worked_example(self):
        assert self.limit(period3_digraph()).edge_list() == [(2, 4)]

    def test_complete_chain(self):
        got = self.limit(three_chain_complete())
        cross = {
            (u, v)
            for u in range(1, 7)
            for v in range(u + 1, 7)
            if (u - 1) // 2 != (v - 1) // 2
        }
        assert got.edge_list() == sorted(cross | {(1, 2), (3, 4)})
        assert not adjacent(got, 5, 6)

    def test_trivial_component_rejected(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        with pytest.raises(TrivialComponentError):
            limit_graph(cs_graph(d, chain), chain)

    def test_ignores_class_anchoring(self):
        d = three_chain_parallel()
        chain = component_chain(d)
        base = limit_graph(cs_graph(d, chain), chain)
        base_jbd = jbd_condition(d, chain).holds
        for shifts in itertools.product(range(2), repeat=3):
            rotated = rotate_classes(chain, shifts)
            assert limit_graph(cs_graph(d, rotated), rotated) == base
            assert jbd_condition(d, rotated).holds == base_jbd

    @settings(max_examples=50, deadline=None)
    @given(
        st.builds(
            lambda seed, eta: random_instance(
                GeneratorSpec(eta=eta, sizes=(2, 4), allow_trivial=False, seed=seed)
            ),
            st.integers(0, 100_000),
            st.integers(1, 4),
        )
    )
    @example(LANE_MERGES[0])
    @example(LANE_MERGES[1])
    @example(LANE_MERGES[2])
    def test_matches_simulation(self, d):
        chain = component_chain(d)
        sim = simulate_limit(d)
        assert sim.converged
        assert limit_graph(cs_graph(d, chain), chain) == sim.limit

    def test_matches_pairwise_rule(self):
        rng = random.Random(3)
        seen_kappa, seen_jbd_fail = False, False
        randoms = (
            random_instance(
                GeneratorSpec(
                    eta=rng.randint(1, 4),
                    sizes=(2, 15),
                    allow_trivial=False,
                    seed=rng.getrandbits(32),
                )
            )
            for _ in range(60)
        )
        for d in itertools.chain(LANE_MERGES, randoms):
            chain = component_chain(d)
            assert limit_graph(cs_graph(d, chain), chain) == pairwise_limit_graph(d, chain)
            seen_kappa |= max(chain.kappas) > 1
            seen_jbd_fail |= not jbd_condition(d, chain).holds
        assert seen_kappa and seen_jbd_fail

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 3))
    def test_classes_become_cliques(self, seed, eta):
        d = random_instance(
            GeneratorSpec(eta=eta, sizes=(2, 4), allow_trivial=False, seed=seed)
        )
        chain = component_chain(d)
        got = limit_graph(cs_graph(d, chain), chain)
        for cls in chain.class_masks:
            for members in map(vertices, cls):
                for u in members:
                    for v in members:
                        if u < v:
                            assert adjacent(got, u, v)


class TestStepCommonPrey:
    """The per-level characterization behind the limit rule: x and y have a
    common m-step prey in D_r for some m iff their ascending reach sets in
    the class skeleton intersect at level r."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 4))
    def test_characterization(self, seed, eta):
        d = random_instance(
            GeneratorSpec(eta=eta, sizes=(2, 4), allow_trivial=False, seed=seed)
        )
        chain = component_chain(d)
        joins = cs_graph(d, chain)
        _, _, powers = reference_powers(d)
        masks = dict(enumerate(chain.masks, start=1))
        reach = {
            (p, i): ascending_reach(joins, p, i)
            for p in range(1, chain.eta + 1)
            for i in range(1, chain.kappa(p) + 1)
        }
        label = class_labels(chain)
        for x in range(1, d.n + 1):
            for y in range(x + 1, d.n + 1):
                (p, i), (q, j) = sorted((label[x], label[y]))
                for r in range(max(p + 1, q), chain.eta + 1):
                    simulated = any(
                        a.rows[x - 1] & a.rows[y - 1] & masks[r] for a in powers
                    )
                    analytic = bool(reach[(p, i)][r] & reach[(q, j)][r])
                    assert analytic == simulated, (x, y, r)


class TestJbdCondition:
    def verdict(self, d):
        chain = component_chain(d)
        return jbd_condition(d, chain)

    def test_parallel_chain_holds(self):
        v = self.verdict(three_chain_parallel())
        assert v.holds and bool(v)
        assert v.failing_level is None and v.detail is None
        assert len(v.levels) == 2
        assert all(line.startswith("ok") for line in v.levels)

    def test_single_component_holds_vacuously(self):
        v = self.verdict(period3_digraph())
        assert v.holds and v.levels == ()

    def test_mixed_residues_fail(self):
        v = self.verdict(mixed_residue_chain())
        assert not v.holds and not bool(v)
        assert v.failing_level == 1
        assert "(1, 1)" in v.detail and "(2, 1)" in v.detail
        assert "0 != 1" in v.detail

    def test_divisibility_failure(self):
        d = Digraph.from_arcs(
            6, [(1, 2), (2, 1), (3, 4), (4, 5), (5, 6), (6, 3), (1, 3)]
        )
        v = self.verdict(d)
        assert not v.holds
        assert v.failing_level == 1
        assert "does not divide" in v.detail

    def test_trivial_component_rejected(self):
        d = cycle4_feeders(2)
        chain = component_chain(d)
        with pytest.raises(TrivialComponentError):
            jbd_condition(d, chain)

    def test_named_instances_match_limit_shape(self):
        for d in (
            two_chain(),
            three_chain_parallel(),
            three_chain_complete(),
            mixed_residue_chain(),
        ):
            chain = component_chain(d)
            assert jbd_condition(d, chain).holds == union_of_cliques(
                limit_graph(cs_graph(d, chain), chain)
            )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 4))
    def test_matches_simulation(self, seed, eta):
        d = random_instance(
            GeneratorSpec(eta=eta, sizes=(2, 4), allow_trivial=False, seed=seed)
        )
        chain = component_chain(d)
        sim = simulate_limit(d)
        assert jbd_condition(d, chain).holds == union_of_cliques(sim.limit)


def connected_components(g):
    """The vertex sets of g's connected components, by search over edges."""
    neighbours = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edge_list():
        neighbours[u].add(v)
        neighbours[v].add(u)
    comps, seen = [], set()
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in neighbours[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


class TestUnionOfCliques:
    @given(st.data(), st.integers(1, 9))
    def test_matches_component_edge_count(self, data, n):
        # cliques on the blocks of a random partition, with up to two pairs
        # toggled, so that both answers come up
        block = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        cliques = {(u, v) for u, v in pairs if block[u - 1] == block[v - 1]}
        toggled = data.draw(st.sets(st.sampled_from(pairs), max_size=2)) if pairs else set()
        g = UndirectedGraph.from_edges(n, cliques ^ toggled)
        expected = all(
            sum(1 for u, v in g.edge_list() if u in comp) == len(comp) * (len(comp) - 1) // 2
            for comp in connected_components(g)
        )
        assert union_of_cliques(g) == expected

    def test_cases(self):
        assert union_of_cliques(UndirectedGraph.from_edges(3, []))
        assert union_of_cliques(
            UndirectedGraph.from_edges(5, [(1, 2), (1, 3), (2, 3)])
        )
        assert not union_of_cliques(UndirectedGraph.from_edges(3, [(1, 2), (2, 3)]))
        assert union_of_cliques(
            UndirectedGraph.from_edges(4, [(1, 2), (3, 4)])
        )
