#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 bench/smoke.py

From the root of a compseq checkout it runs every workload at tiny scale,
untraced and traced, and requires every check to pass.  It then runs one
workload against a deliberately wrong pinned expectation and requires the
failure to be counted, so the checker cannot pass silently.  It also
checks that BENCHMARK.json names exactly the metrics run.py reports, and
that run.py refuses to run where there are no compseq sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
from corpus import WORKLOADS


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {message}")


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end metrics")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer metrics")

    for name in WORKLOADS:
        for trace in (False, True):
            r = run.run_workload(name, seed=7, seconds=0.1, trace=trace, scale="smoke")
            expect(r["attempted"] > 0 and r["failed"] == 0 and r["correct"], f"{name} trace={trace}: {r['failures']}")
            units = run.PER_LAYER if trace else run.END_TO_END
            expect(set(r["metrics"]) == set(units), f"{name} trace={trace}: metric names")
            print(f"smoke: {name} trace={int(trace)}: {r['attempted']} operations, all correct")

    pins = copy.deepcopy(run.load_pins("smoke"))
    pins["analyze-corpus"]["nt:analyze"]["jbd_holds"] = not pins["analyze-corpus"]["nt:analyze"]["jbd_holds"]
    for trace in (False, True):
        r = run.run_workload("analyze-corpus", seed=7, seconds=0.1, trace=trace, scale="smoke", pins=pins)
        expect(r["failed"] >= 1 and not r["correct"], f"wrong pin not counted (trace={trace})")
        expect(all(f.startswith("nt:analyze: jbd_holds") for f in r["failures"]), f"unexpected failures {r['failures']}")
        print(f"smoke: wrong pin counted (trace={int(trace)}): failed_frac {r['failed']}/{r['attempted']}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "analyze-corpus", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "run.py must fail without compseq sources")
    print("smoke: no sources -> exit", proc.returncode)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
