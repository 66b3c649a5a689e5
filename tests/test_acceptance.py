"""Acceptance gate: the binding end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion is exact (zero tolerance); the timed ones assert
their stated wall-clock budgets.
"""

import random
import time

from compseq import (
    BoolMatrix,
    Digraph,
    GeneratorSpec,
    UndirectedGraph,
    bool_mul,
    bool_pow,
    b_graph,
    component_chain,
    converges,
    cs_graph,
    gamma,
    jbd_condition,
    limit_graph,
    m_step_competition,
    random_instance,
    shifted_union,
    simulate_limit,
    union_of_cliques,
)
from conftest import (
    entry,
    naive_mul,
    numpy_mul,
    period3_matrix,
    random_matrix,
    reference_powers,
    vertices,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _draw_bounded(master: random.Random, *, max_n: int, allow_trivial) -> Digraph:
    """One linearly connected instance with at most max_n vertices,
    redrawing (deterministically) when a draw comes out larger."""
    while True:
        spec = GeneratorSpec(
            eta=master.randint(1, 4),
            sizes=(1, 5) if allow_trivial else (2, 5),
            allow_trivial=allow_trivial,
            seed=master.getrandbits(32),
        )
        d = random_instance(spec)
        if d.n <= max_n:
            return d


def test_criterion_1_worked_example():
    start = time.perf_counter()
    a = period3_matrix()
    expected = [(2, 4)]
    for m in range(1, 13):
        g = UndirectedGraph.from_adjacency_matrix(gamma(bool_pow(a, m)))
        assert g.edge_list() == expected, f"edge set changed at m={m}"
    sim = simulate_limit(a)
    assert (sim.index_mu, sim.period_pi) == (1, 3)
    assert bool_pow(a, 4) == a
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        elapsed < 1.0,
        f"edge set {{2,4}} stable for m=1..12, period 3, A^4=A ({elapsed:.3f}s)",
    )


def test_criterion_2_caption_arithmetic():
    start = time.perf_counter()
    l1 = 0b0111  # {0, 1, 2} as a mask over Z_4
    l2 = 0b1011  # {0, 1, 3}
    with_three = shifted_union(l1, l2, 3, 4)
    with_two = shifted_union(l1, l2, 2, 4)
    assert with_three == 0b1111
    assert with_two == 0b0111
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        elapsed < 1.0,
        f"3 shifts fill Z_4, 2 shifts leave {{0,1,2}} ({elapsed:.3f}s)",
    )


def test_criterion_3_verdict_equivalence():
    start = time.perf_counter()
    master = random.Random(3001)
    divergent = trailing = 0
    for _ in range(500):
        d = _draw_bounded(master, max_n=16, allow_trivial=master.random() < 0.6)
        sim = simulate_limit(d)
        verdict = converges(component_chain(d))
        assert verdict.converged == sim.converged, format(d.arc_list())
        divergent += not sim.converged
        chain = component_chain(d)
        trailing += chain.last_nontrivial not in (None, chain.eta)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        elapsed < 300.0,
        f"500/500 verdicts agree ({divergent} divergent, "
        f"{trailing} with trailing trivial parts, {elapsed:.1f}s)",
    )


def _nontrivial_corpus(count: int):
    master = random.Random(4001)
    for _ in range(count):
        yield random_instance(
            GeneratorSpec(
                eta=master.randint(1, 4),
                sizes=(2, 5),
                allow_trivial=False,
                seed=master.getrandbits(32),
            )
        )


def test_criterion_4_limit_equivalence():
    start = time.perf_counter()
    edges_checked = 0
    for d in _nontrivial_corpus(500):
        chain = component_chain(d)
        sim = simulate_limit(d)
        assert sim.converged
        analytic = limit_graph(cs_graph(chain), chain)
        assert analytic == sim.limit, format(d.arc_list())
        edges_checked += len(analytic.edge_list())
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        elapsed < 300.0,
        f"500/500 limits equal edge-for-edge ({edges_checked} edges, {elapsed:.1f}s)",
    )


def test_criterion_5_jbd_equivalence():
    start = time.perf_counter()
    holds_count = 0
    for d in _nontrivial_corpus(500):
        chain = component_chain(d)
        sim = simulate_limit(d)
        analytic = jbd_condition(chain).holds
        assert analytic == union_of_cliques(sim.limit), format(d.arc_list())
        holds_count += analytic
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        True,
        f"500/500 clique criteria agree ({holds_count} unions of cliques, {elapsed:.1f}s)",
    )


def test_criterion_6_dual_route_identity():
    start = time.perf_counter()
    rng = random.Random(6001)
    edge_total = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, rng.uniform(0.1, 0.5))
        for m in range(1, 21):
            # both routes run inside and raise InternalCheckError on any split
            edge_total += len(m_step_competition(a, m).edge_list())
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        True,
        f"200 digraphs x m=1..20, routes agree ({edge_total} edges total, {elapsed:.1f}s)",
    )


def test_criterion_7_irreducible_case():
    start = time.perf_counter()
    master = random.Random(7001)
    imprimitive = 0
    for _ in range(200):
        d = random_instance(
            GeneratorSpec(
                eta=1,
                sizes=(2, 12),
                allow_trivial=False,
                seed=master.getrandbits(32),
            )
        )
        chain = component_chain(d)
        sim = simulate_limit(d)
        assert sim.converged
        class_cliques = sorted(
            (u, v)
            for cls in map(vertices, chain.class_masks[0])
            for u in cls
            for v in cls
            if u < v
        )
        assert sim.limit.edge_list() == class_cliques, format(d.arc_list())
        assert union_of_cliques(sim.limit)
        imprimitive += chain.kappa(1) > 1
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        True,
        f"200/200 limits are the class cliques ({imprimitive} with kappa > 1, {elapsed:.1f}s)",
    )


def test_criterion_8_skeleton_soundness():
    start = time.perf_counter()
    master = random.Random(8001)
    edges_confirmed = 0
    for _ in range(100):
        d = random_instance(
            GeneratorSpec(
                eta=2,
                sizes=(2, 5),
                allow_trivial=False,
                seed=master.getrandbits(32),
            )
        )
        chain = component_chain(d)
        k1, k2 = chain.kappa(1), chain.kappa(2)
        skeleton = b_graph(k1, k2, chain.pairs[0])
        stride = bool_pow(d, 2 * k1 * k2)
        _, _, powers = reference_powers(stride)  # all distinct A^(2s*k1*k2), s >= 1
        for i in range(1, k1 + 1):
            for j in range(1, k2 + 1):
                walk_exists = any(
                    entry(m, u - 1, v - 1)
                    for m in powers
                    for u in vertices(chain.class_masks[0][i - 1])
                    for v in vertices(chain.class_masks[1][j - 1])
                )
                assert (skeleton[i - 1] >> (j - 1) & 1) == walk_exists, (d.arc_list(), i, j)
                edges_confirmed += walk_exists
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        True,
        f"100/100 skeletons match walk existence ({edges_confirmed} edges confirmed, {elapsed:.1f}s)",
    )


def test_criterion_9_kernel_performance():
    rng = random.Random(9001)
    n = 2048
    a = BoolMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
    b = BoolMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
    start = time.perf_counter()
    bool_mul(a, b)
    product_time = time.perf_counter() - start

    for _ in range(100):
        size = rng.randint(1, 256)
        x = random_matrix(rng, size, rng.uniform(0.05, 0.6))
        y = random_matrix(rng, size, rng.uniform(0.05, 0.6))
        assert bool_mul(x, y) == numpy_mul(x, y)
    # ground the dense comparator itself in the literal definition
    for _ in range(15):
        size = rng.randint(1, 24)
        x = random_matrix(rng, size, 0.3)
        y = random_matrix(rng, size, 0.3)
        assert numpy_mul(x, y) == naive_mul(x, y)
    _criterion(
        9,
        product_time < 5.0,
        f"n=2048 product in {product_time:.2f}s; 100 cases vs dense kernel at n<=256",
    )
