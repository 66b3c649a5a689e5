#!/usr/bin/env python3
"""Re-pin expected.json from the program in ./src.

    python3 bench/pin.py

Run it from the root of a checkout whose answers are trusted (the
expectations in the repository were pinned on the commit that added the
benchmark).  For each pinned input it checks that the generator in
corpus.py still reproduces compseq.oracle.random_instance, runs every
operation under two different relabelings, requires the two observations
to agree, and writes them to expected.json.
"""

from __future__ import annotations

import json
import shutil
import sys

import corpus
import run
from check import observe

PIN_SEEDS = (0, 1)


def check_generator(pool) -> None:
    sys.path.insert(0, str(run.SRC))
    from compseq.oracle import GeneratorSpec, random_instance

    for name, make, args, _, _ in pool:
        if make is corpus.random_chain:
            eta, sizes, allow, seed = args
            d = random_instance(GeneratorSpec(eta=eta, sizes=sizes, allow_trivial=allow, seed=seed))
            base = make(*args)
            if (d.n, sorted(d.arcs)) != (base.n, list(base.arcs)):
                raise SystemExit(f"{name}: corpus.random_chain no longer matches oracle.random_instance")


def main() -> int:
    with run.Launcher() as launcher:
        pins = collect(launcher)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(run.WORK / "pin", ignore_errors=True)
    return 0


def collect(launcher: run.Launcher) -> dict:
    pins: dict = {}
    for scale in ("full", "smoke"):
        pins[scale] = {}
        for name, workload in corpus.WORKLOADS.items():
            if workload.pool is None:
                continue
            check_generator(workload.pool[scale])
            seen: dict[str, dict] = {}
            for seed in PIN_SEEDS:
                workdir = run.WORK / "pin"
                workdir.mkdir(parents=True, exist_ok=True)
                for op in workload.ops(scale, seed, workdir, run.ROOT):
                    child = launcher.run([sys.executable, "-m", "compseq", *op.argv], float("inf"))
                    if child.error:
                        raise SystemExit(f"{scale} {op.key}: {child.error}")
                    obs = observe(op, child.code, child.out.decode("utf-8"))
                    if seen.setdefault(op.key, obs) != obs:
                        raise SystemExit(f"{scale} {op.key}: output depends on the relabeling")
            pins[scale][name] = seen
            print(f"pinned {scale} {name}: {len(seen)} operations", file=sys.stderr)
    return pins


if __name__ == "__main__":
    sys.exit(main())
