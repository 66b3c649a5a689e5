"""Span recorder for the traced run.

``Recorder`` wraps every public function of compseq's five modules (the
names in each module's ``__all__``) in every module namespace that binds
it, since ``from .graphs import ...`` copies names into ``cli``, ``theory``
and ``oracle``.  It also wraps the classmethod
``UndirectedGraph.from_adjacency_matrix`` and ``json.dumps`` as ``cli``
reaches it.  Each call records a span: name, start, end, parent span and
operation id, kept in flat arrays until the run ends.  A span's self time
is its duration minus the durations of its direct children; calls are
strictly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import defaultdict

MODULES = ("bmat", "graphs", "theory", "oracle", "cli")


def _count_limit(counts, args, result):
    counts["theory.limit_graph.edges"] += len(result.edges)


def _count_powers(counts, args, result):
    powers = result[1]
    n = args[0].n
    counts["bmat.power_trajectory.powers_stored"] += len(powers)
    # bit payload of the stored rows; Python int overhead not included
    counts["bmat.power_trajectory.stored_mb_computed"] += len(powers) * n * ((n + 7) // 8) / 2**20


def _count_simulation(counts, args, result):
    counts["oracle.simulate_limit.distinct_gammas"] += len(result.gamma_cycle)
    counts["oracle.simulate_limit.tail_powers"] += result.period_pi


COUNTERS = {
    "theory.limit_graph": _count_limit,
    "bmat.power_trajectory": _count_powers,
    "oracle.simulate_limit": _count_simulation,
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``compseq.cli``."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    def __init__(self, package: str = "compseq"):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patches = self._plan(package)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_of.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
            if count is not None:
                count(rec.counts, args, result)
            return result

        return traced

    def _plan(self, package: str) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, replacement) for every binding."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn not in wrapped:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrapped[fn] = self._wrap(f"{layer}.{fn.__name__}", fn)
        patches = []
        for ns in [importlib.import_module(package), *modules]:
            for attr, value in vars(ns).items():
                if isinstance(value, types.FunctionType) and value in wrapped:
                    patches.append((ns, attr, value, wrapped[value]))
        graphs, cli = modules[1], modules[4]
        cls = graphs.UndirectedGraph
        orig = cls.__dict__["from_adjacency_matrix"]
        name = "graphs.UndirectedGraph.from_adjacency_matrix"
        patches.append((cls, "from_adjacency_matrix", orig, classmethod(self._wrap(name, orig.__func__))))
        proxy = _JsonProxy(cli.json, self._wrap("cli.json_dumps", cli.json.dumps))
        patches.append((cli, "json", cli.json, proxy))
        return patches

    def enable(self) -> None:
        for ns, attr, _, replacement in self._patches:
            setattr(ns, attr, replacement)

    def disable(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def mark(self) -> int:
        """Index of the next span; batches are slices between two marks."""
        return len(self.start)

    def rollup(self, lo: int, hi: int) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` over spans lo..hi-1."""
        out: defaultdict[str, float] = defaultdict(float)
        names, name_of, start, end, parent = self.names, self.name_of, self.start, self.end, self.parent
        for i in range(lo, hi):
            name = names[name_of[i]]
            dur = end[i] - start[i]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur
            p = parent[i]
            if p >= 0:
                out[names[name_of[p]] + ".self_s"] -= dur
        return out
