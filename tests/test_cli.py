"""Command-line interface: JSON reports, exit codes, DOT exports,
campaign lines.  Everything runs in-process through main(argv)."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from compseq import (
    Digraph,
    GeneratorSpec,
    InternalCheckError,
    UndirectedGraph,
    bool_pow,
    component_chain,
    converges,
    cs_graph,
    format_edge_list,
    format_matrix,
    gamma,
    limit_graph,
    m_step_competition,
    random_instance,
)
from compseq import cli, graphs, oracle, theory
from compseq.cli import main
from conftest import (
    cycle4_feeders,
    cycle_chain,
    gcd2_merge_chain,
    period3_matrix,
    skeleton_edges,
    three_chain_parallel,
    two_chain,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _ByteCounter:
    """A stdout that counts the bytes written to it and keeps none, and the
    most rows of a limit edge list, [u,v] items told apart by u, that one
    write holds."""

    def __init__(self):
        self.bytes = 0
        self.most_rows = 0

    def write(self, text):
        self.bytes += len(text.encode())
        rows = {m[1] for m in re.finditer(r"\[(\d+),\d+\]", text)}
        self.most_rows = max(self.most_rows, len(rows))
        return len(text)

    def flush(self):
        pass


def _raising(error: type[Exception]):
    def fault(*args):
        raise error("injected")

    return fault


# (command and flags, patched owner and name, replacement, error message):
# each fault is raised inside the work, after the input has been read
_FAULTS = [
    pytest.param(
        ["analyze"],
        graphs,
        "_bfs_levels",
        # a BFS that stops at its root makes imprimitivity's own check fail
        lambda root, comp, rows: ([1 << (root - 1)], [0]),
        "component containing 1 not strongly connected",
        id="analyze-bfs",
    )
] + [
    pytest.param(argv, owner, name, _raising(error), "injected", id=f"{site}-{error.__name__}")
    for site, argv, owner, name in [
        ("analyze", ["analyze"], theory, "limit_graph"),
        ("limit", ["export", "--what", "limit"], theory, "limit_graph"),
        ("cs-graph", ["export", "--what", "cs-graph"], theory, "cs_graph"),
        ("competition", ["export", "--what", "competition", "3"], cli, "m_step_competition"),
    ]
    for error in (InternalCheckError, ValueError)
]


class TestAnalyze:
    def test_matrix_input_convergent(self, write, capsys):
        path = write("a.mat", format_matrix(period3_matrix()))
        code, out, err = run(capsys, "analyze", path)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["input"]["format"] == "matrix"
        assert report["input"]["n"] == 4
        assert report["chain"]["eta"] == 1
        comp = report["chain"]["components"][0]
        assert comp["vertices"] == [1, 2, 3, 4]
        assert comp["trivial"] is False
        assert comp["kappa"] == 3
        assert comp["classes"] == [[1], [2, 4], [3]]
        assert report["verdict"] == {
            "converged": True,
            "rule": "NontrivialTail",
            "witness": None,
        }
        assert report["skeleton"] == {"class_counts": [3], "edges": []}
        assert report["limit"] == {"source": "analytic", "edges": [[2, 4]]}
        assert report["jbd"]["holds"] is True

    def test_edge_list_input_divergent(self, write, capsys):
        path = write("d.el", format_edge_list(cycle4_feeders(2)))
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        report = json.loads(out)
        assert report["input"]["format"] == "edge-list"
        assert report["verdict"] == {
            "converged": False,
            "rule": "TrailingCondition",
            "witness": {"j1": 1, "j2": 2, "excluded_residue": 0},
        }
        assert report["skeleton"] is None
        assert report["limit"] is None
        assert report["jbd"] is None

    def test_simulate_fallback(self, write, capsys):
        path = write("c.el", format_edge_list(cycle4_feeders(4)))
        code, out, _ = run(capsys, "analyze", path, "--simulate-fallback")
        assert code == 0
        report = json.loads(out)
        assert report["skeleton"] is None
        assert report["limit"]["source"] == "simulated"
        assert report["limit"]["edges"] == [
            [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
        ]
        assert report["jbd"] == {
            "source": "simulated",
            "holds": True,
            "failing_level": None,
            "detail": None,
        }

    def test_no_fallback_without_flag(self, write, capsys):
        path = write("c.el", format_edge_list(cycle4_feeders(4)))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["limit"] is None and report["jbd"] is None

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/nonexistent/input.el")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_malformed_input(self, write, capsys):
        code, _, err = run(capsys, "analyze", write("bad", "what is this\n"))
        assert code == 1
        assert "line 1" in err

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"2 1\n1 2\n\xff\xfe\x00bad\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err == "error: line 3: not UTF-8 text: byte 0xff at offset 8\n"

    # allocating the rows raises OverflowError at 10**19; CPython refuses
    # 2**62 list slots with MemoryError before it allocates anything
    @pytest.mark.parametrize("n", [10**19, 2**62])
    @pytest.mark.parametrize(
        "command",
        [
            ["analyze"],
            ["export", "--what", "cs-graph"],
            ["export", "--what", "limit"],
            ["export", "--what", "competition", "2"],
        ],
    )
    def test_oversized_vertex_count_refused(self, write, capsys, n, command):
        path = write("huge.el", f"{n} 0\n")
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert code == 1 and out == ""
        assert err == f"error: line 1: vertex count {n} is too large\n"

    def test_self_loop_matrix(self, write, capsys):
        # the loop on 1 closes a 1-cycle beside the 2-cycle: one component, kappa 1
        code, out, err = run(capsys, "analyze", write("loop.mat", "2\n11\n10\n"))
        assert code == 0 and err == ""
        report = json.loads(out)
        (component,) = report["chain"]["components"]
        assert (component["kappa"], component["trivial"]) == (1, False)
        assert report["jbd"]["holds"]

    def test_not_linearly_connected(self, write, capsys):
        text = "4 4\n1 2\n2 1\n3 4\n4 3\n"
        code, _, err = run(capsys, "analyze", write("nc.el", text))
        assert code == 1
        assert "no arcs from component 1 to component 2" in err

    @pytest.mark.parametrize("argv, owner, name, fault, message", _FAULTS)
    def test_internal_check_error_reported(
        self, write, capsys, monkeypatch, argv, owner, name, fault, message
    ):
        monkeypatch.setattr(owner, name, fault)
        path = write("t.el", format_edge_list(two_chain()))
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_power_cycle_step_cap_reported(self, write, capsys, monkeypatch):
        # two stored powers do not reach the repeat of the period-4 tail, a wrong lcm
        # kappa fails the jump's certificate, and the walk that counts pi meets the
        # period cap, all read when called
        monkeypatch.setattr(oracle, "WALK_BUDGET", 2)
        monkeypatch.setattr(oracle, "PERIOD_CAP", 3)
        path = write("c.el", format_edge_list(cycle4_feeders(4)))
        code, out, err = run(capsys, "analyze", path, "--simulate-fallback")
        assert code == 0 and err == ""  # the certified period is under no cap
        monkeypatch.setattr(graphs, "power_period", lambda d: 8)
        code, out, err = run(capsys, "analyze", path, "--simulate-fallback")
        assert code == 1 and out == ""
        assert err == "error: power period exceeds the walk cap of 3 steps\n"

    def test_simulated_divergence_is_an_internal_check_error(self, write, capsys, monkeypatch):
        def two_graph_cycle(d):
            cycle = (UndirectedGraph(d.n, (0,) * d.n), UndirectedGraph(d.n, gamma(d).rows))
            return oracle.SimulationResult(index_mu=1, period_pi=6, gamma_cycle=cycle)

        monkeypatch.setattr(oracle, "simulate_limit", two_graph_cycle)
        path = write("c.el", format_edge_list(cycle_chain((2, 3))))
        code, out, err = run(capsys, "analyze", path, "--simulate-fallback")
        assert code == 1 and out == ""
        assert err == "error: TrailingCondition converges, 2 simulated tail graphs\n"

    def test_deterministic_output(self, write, capsys):
        path = write("a.el", format_edge_list(two_chain()))
        _, first, _ = run(capsys, "analyze", path)
        _, second, _ = run(capsys, "analyze", path)
        assert first == second

    def test_exit_codes_follow_verdicts(self, write, capsys):
        for seed in range(12):
            d = random_instance(GeneratorSpec(eta=1 + seed % 3, sizes=(1, 4), seed=seed))
            path = write(f"g{seed}.el", format_edge_list(d))
            code, out, _ = run(capsys, "analyze", path)
            verdict = converges(component_chain(d))
            assert code == (0 if verdict.converged else 2)
            report = json.loads(out)
            assert report["verdict"]["converged"] == verdict.converged
            assert report["verdict"]["rule"] == verdict.rule


# json.dumps(indent=2) lays out a list of integers as "[" ending its line,
# one number per line, and "]" on a line of its own.  A JSON string holds
# no real newline, so no match starts, ends or lies inside one.
_INT_LIST = re.compile(r"\[\n *(-?\d+(?:,\n *-?\d+)*)\n *\]")


def report_text(report: dict) -> str:
    """The schema-1 report layout, built independently of cli: the
    json.dumps(indent=2, sort_keys=True) text with every list of integers
    on one line as [a,b,c], and then, only inside limit.edges and
    skeleton.edges, consecutive items that share their source (u of [u,v],
    or p, i of [p,i,q,j]) joined on one line by ","."""
    text = json.dumps(report, indent=2, sort_keys=True)
    text = _INT_LIST.sub(lambda m: "[" + re.sub(r",\n *", ",", m[1]) + "]", text)
    lines: list[str] = []
    section = source = None
    for line in text.split("\n"):
        # a top-level key starts its line with two spaces and a quote; no
        # string holds a real newline, so no string starts a line
        if line.startswith('  "'):
            section = line.split('"')[1]
        if section in ("limit", "skeleton") and line.startswith("      ["):
            item = json.loads(line.rstrip(","))
            key, source = source, item[: len(item) // 2]
            if key == source:
                lines[-1] += line.lstrip()
                continue
        else:
            source = None
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestReportText:
    """analyze writes the limit's edge list straight from the graph's rows;
    the whole report must still be exactly the json.dumps(indent=2,
    sort_keys=True) text of the schema-1 report, with each list of
    integers on one line and no space inside it."""

    def report(self, capsys, *argv):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 0 and err == ""
        report = json.loads(out)
        # line lists, not strings: pytest diffs two unequal megabyte strings
        # for minutes, and names the first unequal line of two lists at once
        assert out.split("\n") == report_text(report).split("\n")
        return report

    def test_small_chain_verbatim(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "two.el").write_text(format_edge_list(two_chain()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "analyze", "two.el")
        assert (code, err) == (0, "")
        assert out == """\
{
  "chain": {
    "components": [
      {
        "classes": [
          [1],
          [2]
        ],
        "kappa": 2,
        "trivial": false,
        "vertices": [1,2]
      },
      {
        "classes": [
          [3],
          [4]
        ],
        "kappa": 2,
        "trivial": false,
        "vertices": [3,4]
      }
    ],
    "eta": 2
  },
  "input": {
    "arcs": [
      [1,2],
      [2,1],
      [2,3],
      [3,4],
      [4,3]
    ],
    "format": "edge-list",
    "n": 4,
    "path": "two.el"
  },
  "jbd": {
    "detail": null,
    "failing_level": null,
    "holds": true,
    "source": "analytic"
  },
  "limit": {
    "edges": [
      [1,3],
      [2,4]
    ],
    "source": "analytic"
  },
  "schema": 1,
  "skeleton": {
    "class_counts": [2,2],
    "edges": [
      [1,1,2,1],
      [1,2,2,2]
    ]
  },
  "verdict": {
    "converged": true,
    "rule": "NontrivialTail",
    "witness": null
  }
}
"""

    def test_analytic_limit(self, write, capsys):
        d = random_instance(GeneratorSpec(eta=3, sizes=(3, 7), allow_trivial=False, seed=5))
        report = self.report(capsys, write("r.el", format_edge_list(d)))
        chain = component_chain(d)
        limit = limit_graph(cs_graph(chain), chain)
        assert report["limit"] == {
            "source": "analytic",
            "edges": [list(e) for e in limit.edge_list()],
        }
        assert len(report["limit"]["edges"]) > 10

    def test_large_analytic_limit(self, write, capsys):
        d = random_instance(GeneratorSpec(eta=3, sizes=(100, 140), allow_trivial=False, seed=1))
        assert d.n >= 300
        report = self.report(capsys, write("r.el", format_edge_list(d)))
        chain = component_chain(d)
        limit = limit_graph(cs_graph(chain), chain)
        assert report["limit"]["edges"] == [list(e) for e in limit.edge_list()]

    def test_simulated_limit(self, write, capsys):
        path = write("c.el", format_edge_list(cycle4_feeders(4)))
        report = self.report(capsys, path, "--simulate-fallback")
        assert report["limit"]["source"] == "simulated"
        assert len(report["limit"]["edges"]) == 6

    def test_simulated_limit_of_cycle_chain(self, write, capsys):
        d = cycle_chain((3, 4))
        report = self.report(capsys, write("c.el", format_edge_list(d)), "--simulate-fallback")
        assert report["limit"] == {
            "source": "simulated",
            "edges": [list(e) for e in oracle.simulate_limit(d).limit.edge_list()],
        }

    def test_limit_is_streamed(self, write, monkeypatch):
        # a dense limit (n = 447, kappas (150, 1, 1)) with a small skeleton,
        # so the edge list is nearly all of the 0.97 MB report; writing it
        # row by row holds a few rows of text at a time (the peak, 0.45 of
        # the report's size on Python 3.11 alone or after other analyze
        # runs, is nearly all the analysis), where building the report as
        # one string would hold all of it on top of the analysis
        d = random_instance(GeneratorSpec(eta=3, sizes=(120, 150), allow_trivial=False, seed=2))
        path = write("dense.el", format_edge_list(d))
        sink = _ByteCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["analyze", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.bytes > 900_000
        assert peak < sink.bytes
        # and no write holds the edges of more than one row
        assert sink.most_rows == 1

    def test_large_skeleton_is_written_in_pieces(self, write, monkeypatch):
        # a 40-cycle and a 41-cycle joined by one arc: the gcd of the kappas
        # is 1, so every class of one meets every class of the other, and
        # the skeleton has kappa_1 * kappa_2 = 1640 edges
        arcs = [(v, v % 40 + 1) for v in range(1, 41)]
        arcs += [(40 + v, 40 + v % 41 + 1) for v in range(1, 42)] + [(1, 41)]
        d = Digraph.from_arcs(81, arcs)
        chunks = []
        sink = SimpleNamespace(write=lambda text: chunks.append(text) or len(text), flush=lambda: None)
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["analyze", write("cycles.el", format_edge_list(d))]) == 0
        out = "".join(chunks)
        report = json.loads(out)
        assert out.split("\n") == report_text(report).split("\n")
        edges = skeleton_edges(theory.cs_graph(component_chain(d)))
        assert edges == [((1, i), (2, j)) for i in range(1, 41) for j in range(1, 42)]
        assert report["skeleton"] == {
            "class_counts": [40, 41],
            "edges": [[p, i, q, j] for (p, i), (q, j) in edges],
        }
        # one run per source class: no write holds more than one class's 41
        # skeleton items, and no item is split between two writes
        item = re.compile(r"(?:\n {6}|,)\[\d+,\d+,\d+,\d+\]")
        per_write = [len(item.findall(chunk)) for chunk in chunks]
        assert max(per_write) == 41 and sum(per_write) == 40 * 41

    def test_empty_limit(self, write, capsys):
        path = write("cycle.el", format_edge_list(Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])))
        report = self.report(capsys, path)
        assert report["limit"] == {"source": "analytic", "edges": []}

    def test_path_naming_the_limit_key(self, write, capsys):
        # a path with the text of a key, an integer list and a line break:
        # the layout never reaches into a string
        path = write('x\n  "limit": null, [\n 12,\n 3\n] y.el', format_edge_list(two_chain()))
        report = self.report(capsys, path)
        assert report["input"]["path"] == path
        assert report["limit"]["edges"] == [[1, 3], [2, 4]]


class TestVerifyCommand:
    def test_campaign_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", "3", "--seed", "9")
        assert code == 0
        assert out == "verified 3/3 instances (seed 9, eta 1..4, sizes 1..5, nontrivial-only)\n"

    def test_zero_count_is_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", "0")
        assert code == 0
        assert out.startswith("verified 0/0 instances (seed 0,")

    def test_allow_trivial_note(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--count", "2", "--allow-trivial", "--sizes", "1..3"
        )
        assert code == 0
        assert "allow-trivial" in out

    def test_single_value_ranges(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--count", "2", "--eta", "2", "--sizes", "2..3"
        )
        assert code == 0
        assert "eta 2," in out

    def test_failure_prints_shrunken_counterexample(self, capsys, monkeypatch):
        real = theory.limit_graph

        def toggled(joins, chain):
            g = real(joins, chain)
            rows = list(g.rows)
            rows[0] ^= 0b10
            rows[1] ^= 0b01
            return UndirectedGraph(g.n, tuple(rows))

        monkeypatch.setattr(theory, "limit_graph", toggled)
        code, out, _ = run(capsys, "verify", "--count", "3", "--eta", "2", "--sizes", "2..3")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "FAIL instance 1 of 3 (seed 0):"
        assert lines[1].startswith("  check 'limit':")
        match = re.fullmatch(r"  shrunken counterexample \((\d+) vertices, (\d+) arcs\):", lines[2])
        assert match
        n, k = map(int, match.groups())
        assert lines[3] == f"    {n} {k}"
        assert len(lines) == 4 + k
        assert all(re.fullmatch(r"    \d+ \d+", line) for line in lines[4:])

    # one trivial vertex shrinks to no arc; two trivial vertices keep the
    # one arc that chains them
    @pytest.mark.parametrize("eta, size", [("1", "1 vertex, 0 arcs"), ("2", "2 vertices, 1 arc")])
    def test_counterexample_counts_are_singular_at_one(self, capsys, monkeypatch, eta, size):
        monkeypatch.setattr(oracle, "_compare", lambda name, *_: oracle.CheckResult(name, False, "injected"))
        code, out, _ = run(capsys, "verify", "--count", "1", "--eta", eta, "--sizes", "1", "--allow-trivial")
        assert code == 2
        assert out.splitlines()[2] == f"  shrunken counterexample ({size}):"

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--eta", "5..2")
        assert code == 1 and "--eta" in err

    @pytest.mark.parametrize("flag", ["--eta", "--sizes"])
    @pytest.mark.parametrize("bad", ["+1", "2_0", "\u0663", "1..+2", "1..2_0", "1..\u0663", "1..2..3"])
    def test_range_takes_decimal_digits_only(self, capsys, flag, bad):
        code, out, err = run(capsys, "verify", "--count", "1", flag, bad)
        assert code == 1 and out == ""
        assert err == f"error: {flag} expects N or LO..HI, got {bad!r}\n"

    # usage errors return 1 as every other failure does: 2 means "diverges"
    # to analyze and "counterexample found" to verify
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["verify", flag, bad], f"argument {flag}: invalid int value: {bad!r}", id=f"{bad}-{flag}"
            )
            for flag in ("--count", "--seed")
            for bad in ("+1", "2_0", "\u0663", "abc")
        ]
        + [
            pytest.param([], "the following arguments are required: command", id="no-command"),
            pytest.param(["analyze"], "the following arguments are required: input", id="no-input"),
        ],
    )
    def test_int_flag_takes_decimal_digits_only(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: compseq") and err.endswith(f"\nerror: {message}\n")

    def test_negative_count(self, capsys):
        code, _, err = run(capsys, "verify", "--count", "-1")
        assert code == 1 and "--count" in err

    def test_sizes_too_small_without_trivial(self, capsys):
        code, _, err = run(capsys, "verify", "--sizes", "1")
        assert code == 1 and "cannot fit" in err

    def test_ranges_above_size_cap_rejected(self, capsys):
        code, out, err = run(
            capsys, "verify", "--count", "3", "--eta", "3", "--sizes", "600..700"
        )
        assert code == 1 and out == ""
        assert err == (
            "error: --eta 3 --sizes 600..700 can draw 2100 vertices, "
            "above the simulation size cap of 2048\n"
        )

    def test_size_cap_checked_before_any_draw(self, capsys, monkeypatch):
        def no_draw(spec):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(oracle, "random_instance", no_draw)
        code, _, err = run(capsys, "verify", "--eta", "1..1000000", "--sizes", "2")
        assert code == 1 and "size cap of 2048" in err
        # eta_hi * size_hi at the cap itself is allowed
        code, out, _ = run(capsys, "verify", "--count", "0", "--eta", "32", "--sizes", "64")
        assert code == 0 and out.startswith("verified 0/0")


class TestVerifyInput:
    def test_every_check_passes(self, write, capsys):
        path = write("c.el", format_edge_list(two_chain()))
        code, out, err = run(capsys, "verify", "--input", path)
        assert (code, err) == (0, "")
        assert out == f"verified {path} (4 vertices; verdict, limit, jbd, period)\n"

    def test_trivial_tail_runs_the_applicable_checks(self, write, capsys):
        path = write("t.el", format_edge_list(cycle4_feeders(2)))
        code, out, _ = run(capsys, "verify", "--input", path)
        assert code == 0 and out.endswith("(5 vertices; verdict, period)\n")

    def test_one_vertex_is_singular(self, write, capsys):
        path = write("one.el", "1 0\n")
        code, out, err = run(capsys, "verify", "--input", path)
        assert (code, err) == (0, "")
        assert out == f"verified {path} (1 vertex; verdict, period)\n"

    def test_failure_is_reported_without_shrinking(self, write, capsys, monkeypatch):
        def no_shrink(d, name):
            raise AssertionError("the input was shrunk")

        def broken_limit(joins, chain):
            raise InternalCheckError("injected")

        monkeypatch.setattr(oracle, "_shrink", no_shrink)
        monkeypatch.setattr(theory, "limit_graph", broken_limit)
        path = write("c.el", format_edge_list(two_chain()))
        code, out, err = run(capsys, "verify", "--input", path)
        assert (code, err) == (2, "")
        assert out == f"FAIL {path}:\n  check 'limit': raised InternalCheckError: injected\n"

    @pytest.mark.parametrize(
        "text, cap, message",
        [
            ("4 4\n1 2\n2 1\n3 4\n4 3\n", 2048, "no arcs from component 1 to component 2"),
            (format_edge_list(two_chain()), 3, "matrix dimension 4 exceeds size cap 3"),
        ],
    )
    def test_refused_before_any_simulation(self, write, capsys, monkeypatch, text, cap, message):
        def no_power(*args):
            raise AssertionError("a power was taken")

        monkeypatch.setattr(oracle, "DEFAULT_SIZE_CAP", cap)
        monkeypatch.setattr(oracle, "_times", no_power)
        monkeypatch.setattr(oracle, "bool_mul", no_power)
        code, out, err = run(capsys, "verify", "--input", write("r.el", text))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestExport:
    def test_cs_graph_dot(self, write, capsys):
        path = write("p.el", format_edge_list(three_chain_parallel()))
        code, out, _ = run(capsys, "export", path, "--what", "cs-graph")
        assert code == 0
        assert out == (
            "graph skeleton {\n"
            "  rankdir=LR;\n"
            '  { rank=same; "1_1"; "1_2"; }\n'
            '  { rank=same; "2_1"; "2_2"; }\n'
            '  { rank=same; "3_1"; "3_2"; }\n'
            '  "1_1" -- "2_1";\n'
            '  "1_2" -- "2_2";\n'
            '  "2_1" -- "3_1";\n'
            '  "2_2" -- "3_2";\n'
            "}\n"
        )

    def test_limit_dot_names_figure_edge(self, write, capsys):
        path = write("a.mat", format_matrix(period3_matrix()))
        code, out, _ = run(capsys, "export", path, "--what", "limit")
        assert code == 0
        assert "\n  2 -- 4;\n" in out
        assert out.count("--") == 1

    def test_limit_dot_two_chain(self, write, capsys):
        path = write("t.el", format_edge_list(two_chain()))
        code, out, _ = run(capsys, "export", path, "--what", "limit")
        assert code == 0
        assert out.split("\n") == [
            "graph limit {", "  1;", "  2;", "  3;", "  4;", "  1 -- 3;", "  2 -- 4;", "}", ""
        ]

    def test_competition_dot_three_cycle_has_no_edges(self, write, capsys):
        path = write("c3.el", "3 3\n1 2\n2 3\n3 1\n")
        code, out, _ = run(capsys, "export", path, "--what", "competition", "1")
        assert code == 0
        assert out.split("\n") == ["graph competition {", "  1;", "  2;", "  3;", "}", ""]

    def test_competition_dot_two_step(self, write, capsys):
        path = write("a.mat", format_matrix(period3_matrix()))
        code, out, _ = run(capsys, "export", path, "--what", "competition", "2")
        assert code == 0
        assert "\n  2 -- 4;\n" in out and out.count("--") == 1

    @pytest.mark.parametrize(
        "name, fake",
        [
            ("_m_step_reach", lambda d, m: [(1 << d.n) - 1] * d.n),
            # the true graph plus a one-way bit (1, 2)
            ("gamma", lambda a: Digraph(a.n, (gamma(a).rows[0] | 0b10,) + gamma(a).rows[1:])),
        ],
        ids=["walk", "asymmetric-gamma"],
    )
    def test_competition_route_split_reported(self, write, capsys, monkeypatch, name, fake):
        monkeypatch.setattr(graphs, name, fake)
        path = write("t.el", format_edge_list(two_chain()))
        code, out, err = run(capsys, "export", path, "--what", "competition", "3")
        assert code == 1 and out == ""
        assert err == "error: m-step competition routes disagree at m=3, first difference (1, 2)\n"

    def test_competition_past_the_period_answers(self, write, capsys):
        # cycles of lengths 2..17 prime: the powers have period 510510, and
        # 759760 lies past the index with the residue of 10^12 mod 510510
        d = cycle_chain((2, 3, 5, 7, 11, 13, 17))
        path = write("primes.el", format_edge_list(d))
        code, out, err = run(capsys, "export", path, "--what", "competition", "1000000000000")
        assert code == 0 and err == ""
        assert run(capsys, "export", path, "--what", "competition", "759760") == (0, out, "")
        assert out.count("--") == sum(map(int.bit_count, gamma(bool_pow(d, 10**12)).rows)) // 2

    def test_competition_needs_step_count(self, write, capsys):
        path = write("t.el", format_edge_list(two_chain()))
        code, _, err = run(capsys, "export", path, "--what", "competition")
        assert code == 1 and "step count" in err

    def test_bad_step_count(self, write, capsys):
        path = write("t.el", format_edge_list(two_chain()))
        for bad in ("x", "0", "-3"):
            code, _, err = run(capsys, "export", path, "--what", "competition", bad)
            assert code == 1 and "step count" in err
        for bad in ("+1", "2_0", "\u0663"):
            code, out, err = run(capsys, "export", path, "--what", "competition", bad)
            assert code == 1 and out == ""
            assert err == f"error: step count must be an integer, got {bad!r}\n"

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00bad\n")
        code, out, err = run(capsys, "export", str(path), "--what", "limit")
        assert code == 1 and out == ""
        assert err == "error: line 1: not UTF-8 text: byte 0xff at offset 0\n"

    def test_unknown_target(self, write, capsys):
        path = write("t.el", format_edge_list(two_chain()))
        code, _, err = run(capsys, "export", path, "--what", "everything")
        assert code == 1 and "cs-graph, limit, or competition" in err

    def test_extra_argument_rejected(self, write, capsys):
        path = write("t.el", format_edge_list(two_chain()))
        code, _, err = run(capsys, "export", path, "--what", "limit", "3")
        assert code == 1 and "no extra argument" in err

    def test_trivial_component_refused(self, write, capsys):
        path = write("f.el", format_edge_list(cycle4_feeders(2)))
        for what in ("cs-graph", "limit"):
            code, out, err = run(capsys, "export", path, "--what", what)
            assert code == 1 and out == ""
            assert err == (
                "error: component 2 is trivial; "
                "the class skeleton needs every component nontrivial\n"
            )

    @pytest.mark.parametrize(
        "argv, limit_text",
        [(["analyze"], '"source": "analytic"'), (["export", "--what", "limit"], "\n  2 -- 4;\n")],
        ids=["analyze", "export"],
    )
    def test_limit_builds_the_skeleton_once(self, write, capsys, monkeypatch, argv, limit_text):
        calls = []
        real = theory.cs_graph
        monkeypatch.setattr(theory, "cs_graph", lambda *a: calls.append(a) or real(*a))
        path = write("t.el", format_edge_list(two_chain()))
        code, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert code == 0 and limit_text in out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "make, whats",
        [
            # a 3-cycle: no edge in the limit or the competition graph
            (lambda: Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)]), ["limit", "1", "2"]),
            # one 5-cycle of classes whose last class is {5..9}: the only
            # edges, the clique on that class, sit in the last rows
            (
                lambda: Digraph.from_arcs(
                    9, [(1, 2), (2, 3), (3, 4)] + [(4, v) for v in range(5, 10)]
                    + [(v, 1) for v in range(5, 10)]
                ),
                ["limit", "1", "3"],
            ),
            (lambda: Digraph.from_arcs(1, []), ["1", "2"]),
            # the size of the benchmark's n = 474 chain
            (
                lambda: random_instance(
                    GeneratorSpec(eta=4, sizes=(100, 200), allow_trivial=False, seed=2)
                ),
                ["limit", "1", "5"],
            ),
        ],
        ids=["edgeless", "last-rows", "n=1", "n=474"],
    )
    def test_dot_edges_match_edge_list(self, write, capsys, make, whats):
        d = make()
        path = write("g.el", format_edge_list(d))
        for what in whats:
            if what == "limit":
                chain = component_chain(d)
                g = limit_graph(cs_graph(chain), chain)
                argv = ["limit"]
            else:
                g = m_step_competition(d, int(what))
                argv = ["competition", what]
            code, out, err = run(capsys, "export", path, "--what", *argv)
            assert code == 0 and err == ""
            # line lists, not strings, as in TestReportText: pytest diffs two
            # unequal megabyte strings for minutes
            assert out.split("\n") == (
                [f"graph {argv[0]} {{"]
                + [f"  {v};" for v in range(1, d.n + 1)]
                + [f"  {u} -- {v};" for u, v in g.edge_list()]
                + ["}", ""]
            )

    def test_dot_grammar(self, write, capsys):
        # the limit and m-step exports name vertices by bare numerals: a
        # line "  v;" for each of 1..n once, then a line "  u -- v;" for each
        # edge, u < v, in sorted order; the skeleton keeps its quoted labels
        merge = gcd2_merge_chain()
        rand = random_instance(GeneratorSpec(eta=3, sizes=(5, 30), allow_trivial=False, seed=4))
        for d in (merge, rand):
            path = write("g.el", format_edge_list(d))
            chain = component_chain(d)
            graphs_by_what = {("limit",): limit_graph(cs_graph(chain), chain)}
            for m in (1, 2, 7):
                graphs_by_what["competition", str(m)] = m_step_competition(d, m)
            for what, g in graphs_by_what.items():
                code, out, err = run(capsys, "export", path, "--what", *what)
                assert (code, err) == (0, "")
                lines = out.split("\n")
                assert lines[0] == f"graph {what[0]} {{" and lines[-2:] == ["}", ""]
                body = lines[1:-2]
                nodes = [line for line in body if re.fullmatch(r"  \d+;", line)]
                assert sorted(int(line[2:-1]) for line in nodes) == list(range(1, d.n + 1))
                assert body[: len(nodes)] == nodes
                edges = [re.fullmatch(r"  (\d+) -- (\d+);", line) for line in body[len(nodes) :]]
                assert all(edges)
                pairs = [(int(e[1]), int(e[2])) for e in edges]
                assert all(u < v for u, v in pairs) and pairs == sorted(pairs) == g.edge_list()
        path = write("merge.el", format_edge_list(merge))
        code, out, _ = run(capsys, "export", path, "--what", "cs-graph")
        assert code == 0
        assert out.split("\n") == [
            "graph skeleton {",
            "  rankdir=LR;",
            '  { rank=same; "1_1"; "1_2"; }',
            '  { rank=same; "2_1"; "2_2"; "2_3"; "2_4"; }',
            '  { rank=same; "3_1"; "3_2"; }',
            '  "1_1" -- "2_2";',
            '  "1_1" -- "2_4";',
            '  "1_2" -- "2_1";',
            '  "1_2" -- "2_3";',
            '  "2_1" -- "3_2";',
            '  "2_2" -- "3_1";',
            '  "2_3" -- "3_2";',
            '  "2_4" -- "3_1";',
            "}",
            "",
        ]

    def test_deterministic_output(self, write, capsys):
        path = write("p.el", format_edge_list(three_chain_parallel()))
        _, first, _ = run(capsys, "export", path, "--what", "cs-graph")
        _, second, _ = run(capsys, "export", path, "--what", "cs-graph")
        assert first == second


class TestGrammar:
    """argparse's rules for the three commands, as a table of argv to exit
    code and output.  In argv, F stands for an all-nontrivial chain and T
    for a convergent chain with a trivial tail, which --simulate-fallback
    answers."""

    @pytest.fixture
    def files(self, write):
        paths = {
            "F": write("f.el", format_edge_list(two_chain())),
            "T": write("t.el", format_edge_list(cycle4_feeders(4))),
        }
        return lambda argv: [paths.get(arg, arg) for arg in argv]

    # each argv runs as the command spelled with full flag names, each
    # valued flag given once and its value as the next token
    @pytest.mark.parametrize(
        "argv, spelled",
        [
            pytest.param(["verify", "--count=3"], ["verify", "--count", "3"], id="equals"),
            pytest.param(
                ["verify", "--count", "2", "--sizes=1..2"],
                ["verify", "--count", "2", "--sizes", "1..2"],
                id="equals-range",
            ),
            pytest.param(["verify", "--cou", "3"], ["verify", "--count", "3"], id="prefix"),
            pytest.param(["analyze", "T", "--sim"], ["analyze", "T", "--simulate-fallback"], id="prefix-switch"),
            pytest.param(["verify", "--count", "2", "--count", "3"], ["verify", "--count", "3"], id="last-wins"),
            pytest.param(["--help", "verify"], ["-h"], id="help-before-command"),
        ],
    )
    def test_same_as_spelled_out(self, files, capsys, argv, spelled):
        def outcome(argv):
            try:
                return run(capsys, *files(argv))
            except SystemExit as e:
                return (e.code, *capsys.readouterr())

        assert outcome(argv) == outcome(spelled)

    def test_spelled_forms_do_their_work(self, files, capsys):
        line = "verified 3/3 instances (seed 0, eta 1..4, sizes 1..5, nontrivial-only)\n"
        assert run(capsys, "verify", "--count", "3") == (0, line, "")
        code, out, _ = run(capsys, *files(["analyze", "T", "--simulate-fallback"]))
        assert code == 0 and json.loads(out)["limit"]["source"] == "simulated"

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["analyze", "-h"], ["verify", "-h"], ["verify", "--help"], ["export", "-h"]]
        + [["analyze", "F", "-h"], ["export", "F", "--help"], ["verify", "--count", "3", "-h"]],
        ids=" ".join,
    )
    def test_help_exits_zero(self, files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(files(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        level = argv[0] if argv[0] in ("analyze", "verify", "export") else "[-h]"
        assert out.startswith(f"usage: compseq {level} ")

    def test_input_before_what(self, files, capsys):
        code, out, err = run(capsys, *files(["export", "F", "--what", "limit"]))
        assert code == 0 and err == "" and out.startswith("graph limit {\n")

    # a token of "-" and digits is a value, so the command refuses it
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--count", "-1"], "--count must be >= 0, got -1"),
            (["export", "F", "--what", "competition", "-3"], "step count must be >= 1, got -3"),
        ],
        ids=["count", "what"],
    )
    def test_negative_numbers_reach_the_command(self, files, capsys, argv, message):
        assert run(capsys, *files(argv)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["verify", "--eta"], "argument --eta: expected one argument"),
                (["verify", "--eta", "--sizes", "2"], "argument --eta: expected one argument"),
                (["verify", "--s", "3"], "ambiguous option: --s could match --seed, --sizes"),
                (["analyze", "a", "b"], "unrecognized arguments: b"),
                (["verify", "-c", "3"], "unrecognized arguments: -c 3"),
                (["export", "F"], "the following arguments are required: --what"),
                (["export", "F", "--what"], "argument --what: expected at least one argument"),
                (["export", "--what", "limit", "F"], "the following arguments are required: input"),
                (["analyze", "--simulate-fallback=1", "F"], "argument --simulate-fallback: ignored explicit argument '1'"),
            ]
        ],
    )
    def test_usage_errors(self, files, capsys, argv, message):
        code, out, err = run(capsys, *files(argv))
        assert code == 1 and out == ""
        assert err.startswith("usage: compseq ") and err.splitlines()[-1] == f"error: {message}"

    # unrecognized arguments after a command print that command's usage line
    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["analyze", "a", "b"], "usage: compseq analyze [-h] [--simulate-fallback] input\n"),
            (["verify", "-c", "3"], "usage: compseq verify [-h] [--count COUNT] [--seed SEED] [--eta ETA]\n"),
            (["-x", "export", "F", "--what", "limit"], "usage: compseq export [-h] --what WHAT [M ...] input\n"),
        ],
        ids=["analyze", "verify", "before-the-command"],
    )
    def test_unrecognized_arguments_print_the_command_usage(self, files, capsys, argv, usage):
        code, out, err = run(capsys, *files(argv))
        assert code == 1 and out == "" and err.startswith(usage)

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frob")
        assert code == 1 and out == "" and err.startswith("usage: compseq ")
        # how the choices are quoted differs between Python releases
        assert err.splitlines()[-1].startswith("error: argument command: invalid choice: 'frob'")


class TestEntryPoint:
    def test_module_invocation(self, write):
        path = write("a.mat", format_matrix(period3_matrix()))
        proc = subprocess.run(
            [sys.executable, "-m", "compseq", "analyze", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"]["converged"] is True

    # the reader is gone before analyze writes: with stdout buffered, a
    # report of a few hundred bytes fails at the final flush, and the 0.8 MB
    # report of a primitive 300-vertex component (its limit is complete)
    # fails while it is printed
    @pytest.mark.parametrize("n", [4, 300])
    def test_reader_closing_stdout_early(self, write, n):
        arcs = [(v, v + 1) for v in range(1, n)] + [(n, 1), (n - 1, 1)]
        path = write("a.el", format_edge_list(Digraph.from_arcs(n, arcs)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "compseq", "analyze", path],
                stdout=writer,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(writer)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
