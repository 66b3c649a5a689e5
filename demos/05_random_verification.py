"""Differential verification: analytic answers vs brute force, at scale.

Every analytic answer in this package — the convergence verdict, the
limit graph, the union-of-cliques criterion — has an independent oracle:
simulate_limit literally walks the power sequence to its cycle and reads
the competition graphs off the tail.  verify() runs both routes on one
digraph and compares; random_instance() supplies seeded, reproducible
linearly connected digraphs of any shape.

This demo runs a small campaign (the CLI command `compseq verify` wraps
the same loop) and tallies what the corpus actually exercised.  If a
comparison ever failed, verify() would shrink the instance to a minimal
failing example by greedy arc deletion — with a correct implementation
that path never triggers, which is precisely the claim being tested.
"""

import random
from collections import Counter

from compseq import GeneratorSpec, component_chain, converges, random_instance, verify

CAMPAIGN_SEED = 71
INSTANCES = 150


def main() -> None:
    master = random.Random(CAMPAIGN_SEED)
    tally: Counter[str] = Counter()
    for _ in range(INSTANCES):
        spec = GeneratorSpec(
            eta=master.randint(1, 4),
            sizes=(1, 5),
            allow_trivial=master.random() < 0.5,
            seed=master.getrandbits(32),
        )
        d = random_instance(spec)
        report = verify(d)
        assert report.passed, f"counterexample found: {report.counterexample}"
        for check in report.checks:
            tally[check.name] += 1
        tally["instances"] += 1
        tally["divergent"] += not converges(component_chain(d)).converged

    print(f"campaign seed {CAMPAIGN_SEED}: "
          f"{tally['instances']}/{INSTANCES} instances passed")
    print(f"  verdict comparisons: {tally['verdict']}")
    print(f"  limit comparisons:   {tally['limit']}")
    print(f"  clique comparisons:  {tally['jbd']}")
    print(f"  divergent instances: {tally['divergent']}")
    print()
    print("the limit and clique checks only run on all-nontrivial instances")
    print("(the analytic constructions exist exactly there); the verdict is")
    print("checked on every single draw, including trailing trivial tails.")


if __name__ == "__main__":
    main()
