"""Seeded inputs and the operations each workload runs on them.

Every input is a pinned base instance under a vertex relabeling drawn from
the benchmark seed.  The relabeling keeps, in every component, the vertex
that holds the smallest id in that component, so compseq anchors its cyclic
classes on the same vertex and every class label it prints is unchanged.
Mapping the printed vertex ids back through the inverse relabeling then
gives output that the digests pinned in ``expected.json`` must match.  A
relabeling changes neither the sizes nor the structure, so the amount of
work in a run barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ANALYZE, EXPORT_DOT, EXPORT_CS, VERIFY = "analyze", "export-dot", "export-cs", "verify"


@dataclass(frozen=True)
class Base:
    """A digraph on 1..n with its strong components listed in chain order."""

    n: int
    arcs: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]


@dataclass
class Op:
    """One CLI invocation and what its output must be.

    ``kind`` selects how the output is read (see check.observe); ``inv``
    maps the ids of the relabeled input back to the base instance.
    ``expect`` is filled from expected.json unless the op computes it.
    """

    key: str
    kind: str
    argv: list[str]
    inv: list[int] = field(default_factory=list)
    expect: dict | None = None


def random_chain(eta: int, sizes, allow_trivial, seed: int) -> Base:
    """The digraph compseq.oracle.random_instance draws for
    GeneratorSpec(eta, sizes, allow_trivial, seed) at the commit the
    expectations were pinned on.  It is repeated here so that a change to
    the program's generator cannot change the benchmark's inputs."""
    ranges = [tuple(sizes)] * eta if isinstance(sizes[0], int) else [tuple(r) for r in sizes]
    flags = [allow_trivial] * eta if isinstance(allow_trivial, bool) else list(allow_trivial)
    rng = random.Random(seed)
    drawn = [rng.randint(lo if allow else max(lo, 2), hi) for (lo, hi), allow in zip(ranges, flags)]
    ids = list(range(1, sum(drawn) + 1))
    rng.shuffle(ids)
    components = []
    at = 0
    for s in drawn:
        components.append(sorted(ids[at : at + s]))
        at += s
    arcs: set[tuple[int, int]] = set()
    for comp in components:
        if len(comp) == 1:
            continue
        order = comp[:]
        rng.shuffle(order)
        arcs.update(zip(order, order[1:] + order[:1]))
        if rng.random() >= 0.45:
            for _ in range(rng.randint(1, len(comp))):
                u, v = rng.sample(comp, 2)
                arcs.add((u, v))
    for left, right in zip(components, components[1:]):
        for _ in range(rng.randint(1, 3)):
            arcs.add((rng.choice(left), rng.choice(right)))
    return Base(len(ids), tuple(sorted(arcs)), tuple(tuple(c) for c in components))


def cycle_chain(lengths: tuple[int, ...]) -> Base:
    """Directed cycles of the given lengths, each joined to the next by an
    arc between their first vertices, and one arc from the last cycle's
    first vertex to a trailing vertex.  The chain ends in a trivial
    component and converges, so ``analyze --simulate-fallback`` runs the
    oracle, whose period is lcm(lengths)."""
    arcs = []
    components = []
    start = 1
    for length in lengths:
        comp = tuple(range(start, start + length))
        arcs += [(comp[i], comp[(i + 1) % length]) for i in range(length)]
        if components:
            arcs.append((components[-1][0], comp[0]))
        components.append(comp)
        start += length
    arcs.append((components[-1][0], start))
    components.append((start,))
    return Base(start, tuple(sorted(arcs)), tuple(components))


def relabeling(base: Base, rng: random.Random) -> list[int]:
    """perm[v] is the new id of base vertex v (perm[0] unused).  The smallest
    new id of each component goes to that component's smallest base id."""
    labels = list(range(1, base.n + 1))
    rng.shuffle(labels)
    perm = [0] + labels
    for comp in base.components:
        root = min(comp)
        first = min(comp, key=perm.__getitem__)
        perm[root], perm[first] = perm[first], perm[root]
    return perm


def write_input(path: Path, base: Base, perm: list[int], fmt: str) -> None:
    arcs = sorted((perm[u], perm[v]) for u, v in base.arcs)
    if fmt == "matrix":
        rows = [bytearray(b"0" * base.n) for _ in range(base.n)]
        for u, v in arcs:
            rows[u - 1][v - 1] = ord("1")
        text = f"{base.n}\n" + "".join(r.decode() + "\n" for r in rows)
    else:
        text = f"{base.n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    path.write_text(text, encoding="ascii")


def _relabeled_ops(inputs, rng, workdir: Path, root: Path) -> list[Op]:
    """inputs: (name, base, fmt, commands run on the input)."""
    ops = []
    for name, base, fmt, commands in inputs:
        perm = relabeling(base, rng)
        inv = [0] * (base.n + 1)
        for v in range(1, base.n + 1):
            inv[perm[v]] = v
        path = workdir / f"{name}.txt"
        write_input(path, base, perm, fmt)
        rel = str(path.relative_to(root))
        for suffix, kind, extra in commands:
            argv = [extra[0], rel, *extra[1:]]
            ops.append(Op(f"{name}:{suffix}", kind, argv, inv))
    return ops


# (op suffix, kind, argv with the input file left out)
ANALYZE_CMD = ("analyze", ANALYZE, ["analyze"])
LIMIT_CMD = ("export-limit", EXPORT_DOT, ["export", "--what", "limit"])
CS_CMD = ("export-cs-graph", EXPORT_CS, ["export", "--what", "cs-graph"])
FALLBACK_CMD = ("analyze-sim", ANALYZE, ["analyze", "--simulate-fallback"])


def _competition(m: int):
    return (f"competition-{m}", EXPORT_DOT, ["export", "--what", "competition", str(m)])


# name, generator and its arguments, input format, commands run on the input.
# n, kappas and verdicts in the comments are those of the base instance.
ANALYZE_CORPUS = {
    "full": [
        # n=278, kappas (1,96,114), jbd fails
        ("nt278", random_chain, (3, (60, 120), False, 1), "matrix", [ANALYZE_CMD, LIMIT_CMD]),
        # n=349, kappas (1,1,1), jbd holds
        ("nt349", random_chain, (3, (60, 120), False, 2), "edges", [ANALYZE_CMD, LIMIT_CMD]),
        # n=474, kappas (107,1,1,146), jbd fails
        ("nt474", random_chain, (4, (100, 200), False, 2), "matrix", [ANALYZE_CMD, LIMIT_CMD, CS_CMD]),
        # n=686, kappas (1,1,1,1), jbd holds
        ("nt686", random_chain, (4, (100, 200), False, 11), "edges", [ANALYZE_CMD, CS_CMD]),
        # n=6, every component trivial: AllTrivial
        ("all-trivial", random_chain, (6, (1, 1), True, 1), "edges", [ANALYZE_CMD]),
        # n=378, kappas (179,197,1,1): TrailingCondition, converges
        ("tail-conv", random_chain, (4, ((150, 250), (150, 250), (1, 1), (1, 1)), (False, False, True, True), 8), "matrix", [ANALYZE_CMD]),
        # n=413, kappas (1,182,1,1): TrailingCondition, diverges
        ("tail-div", random_chain, (4, ((150, 250), (150, 250), (1, 1), (1, 1)), (False, False, True, True), 5), "edges", [ANALYZE_CMD]),
        # n=186, kappas (96,1,87,1,1): TrailingCondition, diverges
        ("mid-trivial-div", random_chain, (5, ((60, 100), (1, 1), (60, 100), (1, 1), (1, 1)), (False, True, False, True, True), 10), "edges", [ANALYZE_CMD]),
    ],
    "smoke": [
        ("nt", random_chain, (3, (4, 9), False, 1), "matrix", [ANALYZE_CMD, LIMIT_CMD, CS_CMD]),
        ("nt-b", random_chain, (2, (3, 7), False, 2), "edges", [ANALYZE_CMD, LIMIT_CMD, CS_CMD]),
        ("all-trivial", random_chain, (3, (1, 1), True, 1), "edges", [ANALYZE_CMD]),
        ("tail-conv", random_chain, (4, ((3, 7), (3, 7), (1, 1), (1, 1)), (False, False, True, True), 4), "edges", [ANALYZE_CMD]),
        ("tail-div", random_chain, (4, ((3, 7), (3, 7), (1, 1), (1, 1)), (False, False, True, True), 3), "matrix", [ANALYZE_CMD]),
    ],
}

POWER_SEQUENCE = {
    "full": [
        ("cycles-3-5-7-11", cycle_chain, ((3, 5, 7, 11),), "edges", [FALLBACK_CMD]),
        ("cycles-4-5-7-9", cycle_chain, ((4, 5, 7, 9),), "matrix", [FALLBACK_CMD]),
        ("cycles-3-7-8-11", cycle_chain, ((3, 7, 8, 11),), "edges", [FALLBACK_CMD]),
        ("cycles-3-5-7-8", cycle_chain, ((3, 5, 7, 8),), "matrix", [FALLBACK_CMD]),
        # n=206, a random 4-component chain
        ("chain206", random_chain, (4, (40, 60), False, 3), "edges", [_competition(1000)]),
    ],
    "smoke": [
        ("cycles-2-3-5", cycle_chain, ((2, 3, 5),), "edges", [FALLBACK_CMD]),
        ("chain", random_chain, (3, (4, 8), False, 3), "matrix", [_competition(60)]),
    ],
}

# per invocation: instance count, eta range, size range, --allow-trivial
VERIFY_CAMPAIGN = {
    "full": [(250, "1..4", "1..6", k % 2 == 1) for k in range(8)],
    "smoke": [(15, "1..3", "1..4", k % 2 == 1) for k in range(2)],
}


def _pool_ops(pool, rng, workdir, root) -> list[Op]:
    inputs = [(name, make(*args), fmt, cmds) for name, make, args, fmt, cmds in pool]
    return _relabeled_ops(inputs, rng, workdir, root)


def verify_ops(scale: str, rng: random.Random) -> list[Op]:
    ops = []
    for k, (count, eta, sizes, trivial) in enumerate(VERIFY_CAMPAIGN[scale]):
        seed = rng.getrandbits(31)
        argv = ["verify", "--count", str(count), "--seed", str(seed), "--eta", eta, "--sizes", sizes]
        if trivial:
            argv.append("--allow-trivial")
        note = "allow-trivial" if trivial else "nontrivial-only"
        line = f"verified {count}/{count} instances (seed {seed}, eta {eta}, sizes {sizes}, {note})"
        ops.append(Op(f"verify-{k}", VERIFY, argv, expect={"exit": 0, "line": line}))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    pool: dict | None  # pinned inputs per scale; None for the verify campaign

    def ops(self, scale: str, seed: int, workdir: Path, root: Path) -> list[Op]:
        """The fixed batch of invocations for this seed; writes its input files."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.pool is None:
            return verify_ops(scale, rng)
        return _pool_ops(self.pool[scale], rng, workdir, root)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "analyze-corpus",
            "analyze on all-nontrivial chains (n 278..686, jbd holding and failing) with "
            "export limit and cs-graph, and on chains ending in trivial components",
            "theory.limit_graph's O(n^2) pair loop and the CLI's edge-dump serialisation "
            "(json.dumps, DOT); parse, chain, imprimitivity, cs_graph and jbd_condition lightly",
            "bmat products and the oracle: no power sequence is simulated",
            ANALYZE_CORPUS,
        ),
        Workload(
            "verify-campaign",
            "verify campaigns of 2000 tiny random instances in total (sizes 1..6, eta 1..4, "
            "half with --allow-trivial), so fixed per-call cost dominates",
            "every layer on tiny inputs with small periods: object construction, dataclass "
            "validation, converters, random_instance, verify, simulate_limit",
            "large-n paths: nothing here is big enough for an O(n^2) loop to dominate",
            None,
        ),
        Workload(
            "power-sequence",
            "analyze --simulate-fallback on chains of coprime cycles plus a trailing vertex "
            "(period 840..1848) and export competition 1000 on a random chain with n=206",
            "bmat.power_trajectory's stored powers, one gamma and one from_adjacency_matrix "
            "per tail power, and m_step_competition's DP that is linear in M",
            "limit_graph and the large edge dumps: outputs are small",
            POWER_SEQUENCE,
        ),
    ]
}
