"""Command-line interface.

Three subcommands: ``analyze`` reads one digraph (matrix or edge-list
text, auto-detected) and emits a JSON report of the chain, the verdict,
and any limits; ``verify`` runs the analytic-vs-simulation checks on a
seeded campaign of random instances, or on one digraph; ``export`` renders
the class skeleton, the limit graph, or one m-step competition graph as
DOT.  The report is laid out as json.dumps(indent=2, sort_keys=True) lays
out its value, except that every list of integers (an edge, a class, a
vertex list) is on one line as "[a,b,c]", and the edges of one graph
row, or of one skeleton class, share a line as "[u,v],[u,w]".  The
limit and m-step DOT exports name vertices by bare numerals, which DOT
reads as the quoted ids; the skeleton keeps its quoted "p_j" labels.
Output is written in pieces, edges one graph row or skeleton class at a
time, after all of it is computed: a refusal never leaves part of it on
stdout.

Exit codes: analyze returns 0 when the sequence converges and 2 when it
diverges; verify returns 0 when every check passes and 2 when one
fails; export returns 0 on success.  Every failure
returns 1: the commands raise, and ``main`` alone turns an OSError
(BrokenPipeError included, when the reader closes stdout early), a
ValueError (a usage error, a refused input or a cap, every refusal of
this package) or an InternalCheckError (two independent routes disagree)
into one ``error:`` line on stderr.
``main`` reads the command line itself, by argparse's rules for these
three commands, into the ``types.SimpleNamespace`` that a ``cmd_*`` takes:
importing argparse, and the gettext and locale that it loads, would cost
about 4 ms of every call.  Numeric flags are decimal integers, as numbers
in the input formats are.
All output is byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from collections.abc import Callable, Iterator
from types import SimpleNamespace

from . import theory
from .bmat import ParseError, _bit_select, _decimal
from .graphs import (
    InternalCheckError,
    UndirectedGraph,
    _bit_indices,
    component_chain,
    detect_format,
    format_edge_list,
    m_step_competition,
    parse_digraph,
)

__all__ = ["main", "cmd_analyze", "cmd_verify", "cmd_export"]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _count(k: int, one: str, many: str) -> str:
    """k and its noun: "1 vertex", "2 vertices"."""
    return f"{k} {one if k == 1 else many}"


def _read_input(path: str) -> str:
    """The file's text; OSError when it cannot be read, ParseError naming
    the line when it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        message = f"not UTF-8 text: byte 0x{data[e.start]:02x} at offset {e.start}"
        raise ParseError(line, message) from None


def _chain_report(chain) -> dict:
    components = []
    for mask, trivial, classes in zip(chain.masks, chain.trivial_flags, chain.class_masks):
        components.append(
            {
                "vertices": [v + 1 for v in _bit_indices(mask)],
                "trivial": trivial,
                "kappa": len(classes),
                "classes": [[v + 1 for v in _bit_indices(c)] for c in classes],
            }
        )
    return {"eta": chain.eta, "components": components}


def cmd_analyze(args: SimpleNamespace) -> int:
    text = _read_input(args.input)
    fmt = detect_format(text)
    d = parse_digraph(text, fmt)
    chain = component_chain(d)
    verdict = theory.converges(chain)

    report: dict = {
        "schema": 1,
        "input": {
            "path": args.input,
            "format": fmt,
            "n": d.n,
            "arcs": [list(a) for a in d.arc_list()],
        },
        "chain": _chain_report(chain),
        "verdict": {
            "converged": verdict.converged,
            "rule": verdict.rule,
            "witness": None
            if verdict.witness is None
            else {
                "j1": verdict.witness.j1,
                "j2": verdict.witness.j2,
                "excluded_residue": verdict.witness.excluded_residue,
            },
        },
        "skeleton": None,
        "limit": None,
        "jbd": None,
    }

    # the edge lists are functions whose runs _write_json writes one graph
    # row or skeleton class at a time, one run per line
    if not any(chain.trivial_flags):
        joins = theory.cs_graph(chain)
        report["skeleton"] = {
            "class_counts": list(chain.kappas),
            "edges": lambda: _join_runs(
                joins, chain, "[{},{},{},".format, "],[{},{},{},".format, "]"
            ),
        }
        report["limit"] = _limit_report("analytic", theory.limit_graph(joins, chain))
        jbd = theory.jbd_condition(chain)
        report["jbd"] = {
            "source": "analytic",
            "holds": jbd.holds,
            "failing_level": jbd.failing_level,
            "detail": jbd.detail,
        }
    elif verdict.converged and args.simulate_fallback:
        from . import oracle  # here and in cmd_verify only, so that analyze and export never load it
        sim = oracle.simulate_limit(d)
        if not sim.converged:
            raise InternalCheckError(f"{verdict.rule} converges, {len(sim.gamma_cycle)} simulated tail graphs")
        report["limit"] = _limit_report("simulated", sim.limit)
        report["jbd"] = {
            "source": "simulated",
            "holds": theory.union_of_cliques(sim.limit),
            "failing_level": None,
            "detail": None,
        }

    _write_json(sys.stdout.write, report)
    sys.stdout.write("\n")
    return 0 if verdict.converged else 2


def _limit_report(source: str, g: UndirectedGraph) -> dict:
    return {
        "edges": lambda: _edge_runs(g, "[{},".format, "],[{},".format, "]"),
        "source": source,
    }


def _write_json(write: Callable, value, pad: str = "\n") -> None:
    """Write value as json.dumps(value, indent=2, sort_keys=True) lays it
    out, pad being the line break and indent of the line it starts on,
    except that a list whose items are all integers goes on one line as
    "[a,b]".  A function stands for a list of lists of integers: called,
    it returns their text in runs of one or more items joined by ",", and
    each run goes on a line of its own."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            write(("," if i else "{") + inner + json.dumps(key) + ": ")
            _write_json(write, value[key], inner)
        write(pad + "}")
    elif callable(value):
        runs = value()
        first = next(runs, None)
        if first is None:
            write("[]")
            return
        write("[" + inner + first)
        for run in runs:
            write("," + inner + run)
        write(pad + "]")
    elif isinstance(value, list) and not all(type(x) is int for x in value):
        for i, item in enumerate(value):
            write(("," if i else "[") + inner)
            _write_json(write, item, inner)
        write(pad + "]")
    elif isinstance(value, list):
        write("[" + ",".join(map(str, value)) + "]")
    else:
        write(json.dumps(value))


def _join_runs(joins: tuple, chain, head: Callable, sep: Callable, close: str) -> Iterator[str]:
    """For each class (p, i) of the skeleton joins = cs_graph(chain)
    joined to labels j of level q = p + 1, head(p, i, q) + sep(p, i,
    q).join(those j, ascending) + close: the skeleton's edges in sorted
    order, as ``_edge_runs`` writes a graph's."""
    labels = [str(j) for j in range(1, max(chain.kappas) + 1)]
    for p, level in enumerate(joins, start=1):
        for i, joined in enumerate(level, start=1):
            if joined:
                yield head(p, i, p + 1) + sep(p, i, p + 1).join(_bit_select(labels, joined)) + close


def _edge_runs(g: UndirectedGraph, head: Callable, sep: Callable, close: str) -> Iterator[str]:
    """For each row u of g with a neighbour v > u, the text head(u) +
    sep(u).join(those v, ascending) + close, with u and v as decimal
    labels.  The report's edge list and the DOT exports are written from
    these runs, so no edge tuple and no string per edge is built."""
    labels = [str(v) for v in range(1, g.n + 1)]
    for u, row in enumerate(g.rows):
        later = row >> (u + 1)
        if later:
            yield head(labels[u]) + sep(labels[u]).join(_bit_select(labels[u + 1 :], later)) + close


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = _decimal(parts[0])
        elif len(parts) == 2:
            lo, hi = _decimal(parts[0]), _decimal(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"{flag} expects N or LO..HI, got {text!r}") from None
    if not (1 <= lo <= hi):
        raise ValueError(f"{flag} range must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


def cmd_verify(args: SimpleNamespace) -> int:
    from . import oracle
    if args.input is not None:
        # _run_checks refuses a non-chain; no shrinking: each shrink candidate reruns the simulation
        d = parse_digraph(_read_input(args.input))
        checks = oracle._run_checks(d, oracle.CHECK_NAMES)
        failing = next((c for c in checks if not c.passed), None)
        if failing is None:
            names = ", ".join(c.name for c in checks)
            print(f"verified {args.input} ({_count(d.n, 'vertex', 'vertices')}; {names})")
            return 0
        print(f"FAIL {args.input}:\n  check {failing.name!r}: {failing.detail}")
        return 2
    eta_lo, eta_hi = _parse_range(args.eta, "--eta")
    size_lo, size_hi = _parse_range(args.sizes, "--sizes")
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if not args.allow_trivial and size_hi < 2:
        raise ValueError(f"--sizes {args.sizes} cannot fit nontrivial components; pass --allow-trivial")
    most = eta_hi * size_hi
    if most > oracle.DEFAULT_SIZE_CAP:
        raise ValueError(
            f"--eta {args.eta} --sizes {args.sizes} can draw {most} vertices, "
            f"above the simulation size cap of {oracle.DEFAULT_SIZE_CAP}"
        )
    master = random.Random(args.seed)
    for i in range(1, args.count + 1):
        spec = oracle.GeneratorSpec(
            eta=master.randint(eta_lo, eta_hi),
            sizes=(size_lo, size_hi),
            allow_trivial=args.allow_trivial,
            seed=master.getrandbits(32),
        )
        d = oracle.random_instance(spec)
        report = oracle.verify(d)
        if not report.passed:
            failing = next(c for c in report.checks if not c.passed)
            print(f"FAIL instance {i} of {args.count} (seed {args.seed}):")
            print(f"  check {failing.name!r}: {failing.detail}")
            assert report.counterexample is not None
            ce = report.counterexample
            arcs = _count(sum(map(int.bit_count, ce.rows)), "arc", "arcs")
            print(f"  shrunken counterexample ({_count(ce.n, 'vertex', 'vertices')}, {arcs}):")
            for line in format_edge_list(ce).splitlines():
                print(f"    {line}")
            return 2
    trivial_note = "allow-trivial" if args.allow_trivial else "nontrivial-only"
    print(
        f"verified {args.count}/{args.count} instances "
        f"(seed {args.seed}, eta {args.eta}, sizes {args.sizes}, {trivial_note})"
    )
    return 0


def _graph_dot(name: str, g: UndirectedGraph) -> None:
    """Write g as DOT to stdout: one line per vertex, then the edges (u, v),
    u < v, in sorted order, one row of g at a time, with bare numeral ids
    ("  1 -- 3;"), which DOT's grammar reads as quoted "1" and "3"."""
    write = sys.stdout.write
    write(f"graph {name} {{\n")
    write("".join(f"  {v};\n" for v in range(1, g.n + 1)))
    for run in _edge_runs(g, "  {} -- ".format, ";\n  {} -- ".format, ";\n"):
        write(run)
    write("}\n")


def _step_count(token: str) -> int:
    """The M of ``--what competition M``: a decimal integer, at least 1."""
    try:
        m = _decimal(token)
    except ValueError:
        raise ValueError(f"step count must be an integer, got {token!r}") from None
    if m < 1:
        raise ValueError(f"step count must be >= 1, got {m}")
    return m


def cmd_export(args: SimpleNamespace) -> int:
    what = args.what[0]
    if what not in ("cs-graph", "limit", "competition"):
        raise ValueError(f"--what expects cs-graph, limit, or competition M, got {what!r}")
    if what == "competition":
        if len(args.what) != 2:
            raise ValueError("--what competition needs a step count M")
        m = _step_count(args.what[1])
    elif len(args.what) != 1:
        raise ValueError(f"--what {what} takes no extra argument")

    d = parse_digraph(_read_input(args.input))
    if what == "competition":
        _graph_dot("competition", m_step_competition(d, m))
        return 0

    chain = component_chain(d)
    joins = theory.cs_graph(chain)

    if what == "limit":
        _graph_dot("limit", theory.limit_graph(joins, chain))
        return 0
    write = sys.stdout.write
    write("graph skeleton {\n  rankdir=LR;\n")
    for p, count in enumerate(chain.kappas, start=1):
        inner = " ".join(f'"{p}_{j}";' for j in range(1, count + 1))
        write(f"  {{ rank=same; {inner} }}\n")
    head = '  "{}_{}" -- "{}_'.format
    for run in _join_runs(joins, chain, head, lambda *c: '";\n' + head(*c), '";\n'):
        write(run)
    write("}\n")
    return 0


# per level: its positional, if any, then its flags, with their defaults:
# () marks what is required, False a switch, an int an integer flag, and a
# string or None a flag that takes one string; --what takes one or more
_FLAGS = {
    "compseq": {"command": ()},
    "analyze": {"input": (), "--simulate-fallback": False},
    "verify": {"--count": 100, "--seed": 0, "--eta": "1..4", "--sizes": "1..5",
               "--allow-trivial": False, "--input": None},
    "export": {"input": (), "--what": ()},
}

# per level: its help, whose first paragraph is its usage line
_HELP = {
    "compseq": """usage: compseq [-h] {analyze,verify,export} ...

Convergence and limits of m-step competition graph sequences.

  analyze  analyze one digraph and print a JSON report
  verify   differential campaign: analytic answers vs simulation
  export   render a derived graph as DOT
""",
    "analyze": """usage: compseq analyze [-h] [--simulate-fallback] input

  input                matrix or edge-list file (auto-detected)
  --simulate-fallback  when a convergent chain has trivial components, report
                       the simulated limit
""",
    "verify": """usage: compseq verify [-h] [--count COUNT] [--seed SEED] [--eta ETA]
                      [--sizes SIZES] [--allow-trivial] [--input FILE]

  --count COUNT    number of instances
  --seed SEED      campaign seed
  --eta ETA        component count, N or LO..HI
  --sizes SIZES    component size, N or LO..HI
  --allow-trivial  let components be single vertices (exercises trailing-tail
                   verdicts)
  --input FILE     check one digraph, not a campaign
""",
    "export": """usage: compseq export [-h] --what WHAT [M ...] input

  input                matrix or edge-list file (auto-detected)
  --what WHAT [M ...]  cs-graph | limit | competition M
""",
}


def _parse(argv: list[str], commands: dict[str, Callable]) -> tuple[Callable, SimpleNamespace]:
    """The function in commands that argv names, and the namespace that
    argparse makes of argv under _FLAGS.  -h or --help prints its level's
    help and exits 0; a usage error writes the level's usage line to stderr
    and raises ValueError with argparse's message."""
    flags, help_text = _FLAGS["compseq"], _HELP["compseq"]
    values, extras, ended, i = dict(flags), [], False, 0  # after "--" every token is a value

    def fail(message: str):
        sys.stderr.write(help_text.split("\n\n")[0] + "\n")
        raise ValueError(message)

    def flag(token: str) -> tuple:
        """(flag, its "=" value or None), the flag None for a value and "" when unknown."""
        if token == "--" and not ended:
            return "--", None
        if ended or token[:1] != "-" or token == "-":
            return None, None
        name, eq, explicit = token.partition("=")
        names = [n for n in ("-h", "--help", *flags) if n == name or name[:2] == "--" and n.startswith(name)]
        if len(names) > 1:  # a unique prefix of a long flag stands for it
            fail(f"ambiguous option: {token} could match {', '.join(names)}")
        if names:
            return names[0], explicit if eq else None
        return None if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token else "", None

    while i < len(argv):
        token, i = argv[i], i + 1
        (name, explicit), slot = flag(token), next(iter(flags))
        if name is None and slot[0] != "-" and values[slot] == ():
            if slot == "command":
                if token not in commands:
                    choices = ", ".join(map(repr, commands))
                    fail(f"argument command: invalid choice: {token!r} (choose from {choices})")
                flags, help_text = _FLAGS[token], _HELP[token]
                values = {"command": token, **flags}
            else:
                values[slot] = token
        elif not name:  # a value past the positional, or an unknown flag
            extras.append(token)
        elif name == "--":
            ended = True
        elif (default := flags.get(name, False)) is False:  # a switch, -h and --help included
            name = "-h/--help" if name in ("-h", "--help") else name
            if explicit is not None:
                fail(f"argument {name}: ignored explicit argument {explicit!r}")
            if name == "-h/--help":
                sys.stdout.write(help_text)
                raise SystemExit(0)
            values[name] = True
        else:  # the value after "=", else the next value, and for --what every next value
            many = default == ()
            given = [] if explicit is None else [explicit]
            while explicit is None and i < len(argv) and (many or not given) and flag(argv[i])[0] is None:
                given, i = given + [argv[i]], i + 1
            if not given:
                fail(f"argument {name}: expected {'at least one argument' if many else 'one argument'}")
            value = given if many else given[0]
            try:
                values[name] = _decimal(value) if type(default) is int else value
            except ValueError:
                fail(f"argument {name}: invalid int value: {value!r}")
    if missing := [k for k, v in values.items() if v == ()]:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(**{k.lstrip("-").replace("-", "_"): v for k, v in values.items()})
    return commands[args.command], args


def main(argv: list[str] | None = None) -> int:
    # built at each call, so that a cmd_* patched on this module is the one run
    commands = {"analyze": cmd_analyze, "verify": cmd_verify, "export": cmd_export}
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv, commands)
        code = func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # an OSError, so caught before the clause below
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("stdout was closed before the output was written")
    except (OSError, ValueError, InternalCheckError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
