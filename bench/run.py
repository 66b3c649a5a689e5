#!/usr/bin/env python3
"""compseq benchmark.

Run from the root of a compseq checkout:

    python3 bench/run.py --workload analyze-corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client drives ``python -m compseq`` (with ``src`` on PYTHONPATH) in a
closed loop: one invocation at a time, no threads.  Each workload is a
fixed batch of invocations built from the seed (see corpus.py); the batch
repeats until ``--seconds`` would be exceeded.  Every invocation's exit
code and output are checked against expectations pinned in expected.json.

``--trace 0`` reports the end-to-end metrics from child processes;
``--trace 1`` runs the same batch in-process through ``cli.main`` with and
without the span recorder (spans.py) and reports per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from check import Verifier
from corpus import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 60.0
# a run ends within this many seconds even if the program hangs
RUN_BUDGET_S = 165.0
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
    "stdout_mb": "MiB",
}

# every layer metric the traced run reports, with its unit
_TIMED = [
    "theory.limit_graph", "cli.cmd_analyze", "cli.json_dumps", "cli.cmd_export",
    "bmat.power_trajectory", "bmat.bool_mul", "bmat.gamma",
    "graphs.UndirectedGraph.from_adjacency_matrix", "oracle.simulate_limit",
    "graphs.m_step_competition", "graphs.competition_graph", "bmat.bool_pow",
    "graphs.parse_digraph", "graphs.component_chain", "graphs.imprimitivity",
    "graphs.to_matrix", "graphs.from_matrix", "bmat.parse_matrix",
    "theory.converges", "theory.cs_graph", "theory.jbd_condition", "theory.union_of_cliques",
    "oracle.verify", "oracle.random_instance",
]
_COUNTED = [
    "theory.limit_graph", "bmat.power_trajectory", "bmat.bool_mul", "bmat.gamma",
    "graphs.UndirectedGraph.from_adjacency_matrix", "oracle.simulate_limit",
    "graphs.m_step_competition",
]
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _COUNTED},
    **{f"{name}.self_s": "s" for name in _TIMED},
    "theory.limit_graph.edges": "count",
    "bmat.power_trajectory.powers_stored": "count",
    "bmat.power_trajectory.stored_mb_computed": "MiB",
    "oracle.simulate_limit.useful_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    verifier: Verifier = field(default_factory=Verifier)

    def record(self, op: Op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{op.key}: {problem}")


def machine() -> str:
    u = platform.uname()
    return (
        f"{u.system} {u.release} {u.machine}; python {platform.python_version()}; "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


@dataclass
class Child:
    wall: float
    code: int
    out: bytes
    maxrss_kib: int
    error: str | None


class Launcher:
    """The launch.py process that spawns every timed child (see its docstring
    for why).  Use as a context manager; leaving it stops the process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd: list[str], deadline: float) -> Child:
        """Run cmd to completion and return its wall time, exit code, stdout
        and peak RSS (ru_maxrss from wait4).  A child is killed after
        OP_TIMEOUT_S or at the deadline (a perf_counter value), whichever
        comes first."""
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            return Child(0.0, -1, b"", 0, f"not run: the {RUN_BUDGET_S:.0f} s run budget is spent")
        out_path, err_path = WORK / "stdout.bin", WORK / "stderr.txt"
        request = {"cmd": cmd, "out": str(out_path), "err": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"launch.py exited with code {self.proc.wait()}")
        reply = json.loads(line)
        error = None
        if reply["timed_out"]:
            error = f"timed out after {timeout:.0f} s"
        elif reply["code"] not in (0, 2):
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            error = f"exit {reply['code']}: {' '.join(tail)}"
        return Child(reply["wall"], reply["code"], out_path.read_bytes(), reply["maxrss_kib"], error)


# The host's CPU speed drifts by up to 2x over minutes (other tenants).  A
# fixed reference child (REF_CODE: interpreter start-up, a bytecode loop, set
# and json work, no compseq) runs about once a second between invocations,
# and wall times are reported in reference seconds: wall * REF_NOMINAL_S /
# (median reference wall over the run).  A machine on which the reference
# takes REF_NOMINAL_S reads in plain seconds.
REF_CODE = (
    "import json\n"
    "acc = 0\n"
    "table = {}\n"
    "for i in range(60000):\n"
    "    acc ^= (i * 2654435761) & 0xFFFFFFFF\n"
    "    table[i & 1023] = acc\n"
    "s = set(range(2000))\n"
    "for i in range(300):\n"
    "    s &= set(range(i, 2000 + i))\n"
    "json.dumps([[i, i + 1] for i in range(30000)])\n"
)
REF_NOMINAL_S = 0.15
REF_EVERY_S = 1.0


class Clock:
    """Runs children, and the reference child whenever REF_EVERY_S passed."""

    def __init__(self, launcher: Launcher, deadline: float):
        self.launcher = launcher
        self.deadline = deadline
        self.refs: list[float] = []
        self.last_ref = 0.0
        self.sample()

    def sample(self) -> None:
        child = self.launcher.run([sys.executable, "-c", REF_CODE], self.deadline)
        if child.code != 0:
            raise SetupError(f"reference child failed: {child.error}")
        self.refs.append(child.wall)
        self.last_ref = time.perf_counter()

    def run(self, cmd: list[str]) -> Child:
        child = self.launcher.run(cmd, self.deadline)
        now = time.perf_counter()
        if now - self.last_ref >= REF_EVERY_S and now < self.deadline:
            self.sample()
        return child

    def scale(self) -> float:
        """Factor from plain to reference seconds."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def measure_setup(clock: Clock) -> float:
    """Median time, in plain seconds, for a fresh interpreter to import
    compseq.cli and exit."""
    cmd = [sys.executable, "-c", "import compseq.cli"]
    first = clock.launcher.run(cmd, clock.deadline)  # writes bytecode caches; not timed
    if first.code != 0:
        raise SetupError(f"cannot import compseq.cli from {SRC}: {first.error}")
    return statistics.median(clock.run(cmd).wall for _ in range(SETUP_SAMPLES))


def untraced(ops: list[Op], seconds: float, tally: Tally, deadline: float) -> tuple[dict, list[str]]:
    with Launcher() as launcher:
        return _untraced(ops, seconds, tally, Clock(launcher, deadline))


def _untraced(ops: list[Op], seconds: float, tally: Tally, clock: Clock) -> tuple[dict, list[str]]:
    setup = measure_setup(clock)
    walls: list[list[float]] = [[] for _ in ops]
    peak_kib = 0
    batch_bytes = []
    t0 = time.perf_counter()
    slowest = 0.0
    while True:
        t_batch = time.perf_counter()
        nbytes = 0
        for op, op_walls in zip(ops, walls):
            child = clock.run([sys.executable, "-m", "compseq", *op.argv])
            op_walls.append(child.wall)
            peak_kib = max(peak_kib, child.maxrss_kib)
            nbytes += len(child.out)
            tally.record(op, child.error or tally.verifier.problem(op, child.code, child.out))
        batch_bytes.append(nbytes)
        slowest = max(slowest, time.perf_counter() - t_batch)
        if time.perf_counter() - t0 + slowest > seconds:
            break
    per_op = [statistics.median(w) for w in walls]
    scale = clock.scale()
    metrics = {
        "setup_s": setup * scale,
        "wall_s": sum(per_op) * scale,
        "op_p50_s": statistics.median(per_op) * scale,
        "peak_rss_mb": peak_kib / 1024,
        "stdout_mb": max(batch_bytes) / 2**20,
    }
    reps = len(batch_bytes)
    notes = [
        f"times are in reference seconds: plain seconds x {scale:.4f}, since the reference child "
        f"took {REF_NOMINAL_S / scale:.4f} s (median of {len(clock.refs)}) against a nominal "
        f"{REF_NOMINAL_S} s; in plain seconds: setup_s {setup:.4f}, "
        f"wall_s {sum(per_op):.4f}, op_p50_s {statistics.median(per_op):.4f}",
        f"setup_s: median of {SETUP_SAMPLES} fresh imports of compseq.cli",
        f"wall_s: sum over the batch's {len(ops)} invocations of each one's median over {reps} repetitions",
        f"op_p50_s: median of those {len(ops)} per-invocation medians ({len(ops) * reps} invocations timed)",
        "peak_rss_mb: largest ru_maxrss of any child; stdout_mb: bytes one batch writes to stdout",
    ]
    if len(set(batch_bytes)) > 1:
        tally.failures.append(f"stdout size differs between batches: {batch_bytes}")
    return metrics, notes


class _Sink:
    """Stands in for sys.stdout/sys.stderr: keeps the text, counts bytes."""

    def __init__(self):
        self.parts: list[str] = []
        self.nbytes = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.nbytes += len(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


def _in_process_batch(ops: list[Op], cli, tally: Tally, rec=None) -> tuple[float, int]:
    """Run the batch through cli.main; returns (wall, stdout bytes)."""
    wall = 0.0
    nbytes = 0
    for k, op in enumerate(ops):
        if rec is not None:
            rec.op_id = k
        out, err = _Sink(), _Sink()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # a crash is a failed operation, not a failed run
                code, problem = None, f"raised {type(e).__name__}: {e}"
            wall += time.perf_counter() - t0
        nbytes += out.nbytes
        if problem is None and code not in (0, 2):
            problem = f"exit {code}: {''.join(err.parts).strip()[-200:]}"
        tally.record(op, problem or tally.verifier.problem(op, code, "".join(out.parts).encode("utf-8")))
    return wall, nbytes


def traced(ops: list[Op], seconds: float, tally: Tally, deadline: float) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(SRC))
    try:
        import compseq.cli as cli
    except ImportError as e:
        raise SetupError(f"cannot import compseq.cli from {SRC}: {e}") from None
    import spans

    rec = spans.Recorder("compseq")
    plain_walls, traced_walls, layers = [], [], []
    t0 = time.perf_counter()
    slowest = 0.0
    while True:
        t_pair = time.perf_counter()
        # alternate which side of a pair runs first, so warm-up favours neither
        if len(layers) % 2 == 0:
            plain_walls.append(_in_process_batch(ops, cli, tally)[0])
        rec.counts = defaultdict(float)
        lo = rec.mark()
        rec.enable()
        try:
            wall, nbytes = _in_process_batch(ops, cli, tally, rec)
        finally:
            rec.disable()
        traced_walls.append(wall)
        if len(layers) % 2 == 1:
            plain_walls.append(_in_process_batch(ops, cli, tally)[0])
        batch = rec.rollup(lo, rec.mark())
        batch.update(rec.counts)
        batch["cli.stdout_bytes"] = nbytes
        tails = batch["oracle.simulate_limit.tail_powers"]
        batch["oracle.simulate_limit.useful_ratio"] = (
            batch["oracle.simulate_limit.distinct_gammas"] / tails if tails else 0.0
        )
        layers.append(batch)
        slowest = max(slowest, time.perf_counter() - t_pair)
        if time.perf_counter() + slowest > min(t0 + seconds, deadline):
            break
    metrics = {
        name: statistics.median(b.get(name, 0.0) for b in layers)
        for name in PER_LAYER
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    notes = [
        f"in-process: {len(layers)} untraced and {len(layers)} traced batches of {len(ops)} invocations; "
        "each layer metric is the median over traced batches",
        "trace.overhead_frac: median traced batch wall / median untraced in-process batch wall - 1",
    ]
    return metrics, notes


def load_pins(scale: str) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[scale]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", pins=None) -> dict:
    """Build the seeded batch, measure it, and return the result object."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pins = load_pins(scale) if pins is None else pins
    ops = workload.ops(scale, seed, workdir, ROOT)
    for op in ops:
        if op.expect is None:
            op.expect = pins.get(name, {}).get(op.key)
    tally = Tally()
    try:
        metrics, notes = (traced if trace else untraced)(ops, seconds, tally, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": tally.failed == 0 and not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "failures": tally.failures,
    }


def report(name: str, result: dict, seed: int, seconds: float, trace: bool) -> None:
    w = WORKLOADS[name]
    print(f"# compseq bench: workload {name}, seed {seed}, seconds {seconds:g}, trace {int(trace)}")
    print(f"# machine: {machine()}")
    print(f"# why: {w.why}")
    print(f"# loads: {w.loads}")
    print(f"# bypasses: {w.bypasses}")
    for note in result["notes"]:
        print(f"# {note}")
    for key, m in result["metrics"].items():
        print(f"{name:16} {key:52} {m['value']:>14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name:16} {'failed_frac':52} {frac:>14.6g} ratio ({result['failed']}/{result['attempted']})")
    for line in result["failures"][:20]:
        print(f"# FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compseq" / "cli.py").is_file():
        print(f"error: no compseq sources at {SRC}; run from the root of a compseq checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # the client and its children share one CPU, so the reference loop
    # measures the core the invocations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name], args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        print(json.dumps({k: results[names[0]][k] for k in keys}))
    else:
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
