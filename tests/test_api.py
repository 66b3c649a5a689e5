"""The public API: every name a module exports resolves, the package
re-exports all of them, and the README's library example runs.  The
package loads ``oracle`` on first use, so the last tests check, each in a
fresh interpreter, that its names still resolve there and that only the
commands that run it load it."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compseq
from compseq import format_edge_list, format_matrix
from conftest import cycle_chain, period3_matrix

MODULES = ("bmat", "graphs", "theory", "oracle", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"compseq.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_every_module_export():
    exported = set(compseq.__all__)
    assert len(exported) == len(compseq.__all__)
    assert [attr for attr in compseq.__all__ if not hasattr(compseq, attr)] == []
    for name in MODULES:
        if name == "cli":
            continue  # the entry point, reached as compseq.cli.main
        module = importlib.import_module(f"compseq.{name}")
        for attr in module.__all__:
            assert attr in exported, f"compseq.{name}.{attr} not re-exported"
            assert getattr(compseq, attr) is getattr(module, attr)


@pytest.mark.parametrize("name", ["converges", "cs_graph", "jbd_condition"])
def test_theory_reads_the_chain_alone(name):
    # the theory's input is the chain's class-level summary: a digraph
    # reader in theory would have to bind one of these names
    from compseq import theory

    assert list(inspect.signature(getattr(theory, name)).parameters) == ["chain"]
    assert not {"Digraph", "component_chain"} & vars(theory).keys()


def test_readme_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("\n```", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == [
        "(15,) ((1, 10, 4),)",
        "NontrivialTail True",
    ]


# the oracle's names as the package listed them when it imported the oracle eagerly
ORACLE_NAMES = [
    "DEFAULT_SIZE_CAP",
    "SizeCapError",
    "SimulationResult",
    "CheckResult",
    "VerificationReport",
    "GeneratorSpec",
    "simulate_limit",
    "verify",
    "random_instance",
]


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter under -S (no site hooks, so only
    compseq's own imports load) with args in sys.argv[1:]."""
    root = os.path.dirname(os.path.dirname(compseq.__file__))
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        check=True,
    )


# each is run first thing after "import sys, compseq" and leaves ok true
FIRST_ACCESS = {
    "module": "ok = compseq.oracle is sys.modules['compseq.oracle']",
    "name": "ok = compseq.simulate_limit is sys.modules['compseq.oracle'].simulate_limit",
    "star": "from compseq import *\noracle = sys.modules['compseq.oracle']\n"
    "ok = verify is oracle.verify and GeneratorSpec is oracle.GeneratorSpec",
}


@pytest.mark.parametrize("access", FIRST_ACCESS)
def test_oracle_names_resolve_on_first_access(access):
    code = "import sys, compseq\nbefore = 'compseq.oracle' in sys.modules\n"
    code += FIRST_ACCESS[access] + "\nprint(before, ok)"
    assert fresh(code).stdout.split() == ["False", "True"]


def test_package_names_are_known_before_the_oracle_loads():
    code = """import json, sys, compseq
names, listed = list(compseq.__all__), dir(compseq)
loaded = 'compseq.oracle' in sys.modules
from compseq import bmat, graphs, oracle, theory
parent = ["__version__", *bmat.__all__, *graphs.__all__, *theory.__all__, *oracle.__all__]
print(json.dumps([loaded, names, parent, listed, dir(compseq)]))"""
    loaded, names, parent, listed, after = json.loads(fresh(code).stdout)
    assert not loaded
    assert names == parent and names[-len(ORACLE_NAMES) :] == ORACLE_NAMES
    assert {"oracle", "bmat", "graphs", "theory", *names} <= set(listed)
    assert listed == after


# python -m compseq ARGS run through runpy, as the -m switch runs it; prints
# the exit code and whether compseq.oracle was loaded
ENTRY = """import runpy, sys
sys.argv[0] = "compseq"
try:
    runpy.run_module("compseq", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(code, "compseq.oracle" in sys.modules, file=sys.stderr)"""

CHAIN = format_matrix(period3_matrix())  # strongly connected: no trivial component
TAIL = format_edge_list(cycle_chain((2, 3)))  # a trailing trivial vertex

# input text, the argv with "FILE" for the input's path, and whether the oracle loads
COMMANDS = {
    "analyze": (CHAIN, ["analyze", "FILE"], False),
    "analyze-tail": (TAIL, ["analyze", "FILE"], False),
    "analyze-fallback-unused": (CHAIN, ["analyze", "--simulate-fallback", "FILE"], False),
    "export-limit": (CHAIN, ["export", "FILE", "--what", "limit"], False),
    "export-cs-graph": (CHAIN, ["export", "FILE", "--what", "cs-graph"], False),
    "export-competition": (TAIL, ["export", "FILE", "--what", "competition", "5"], False),
    "analyze-fallback": (TAIL, ["analyze", "--simulate-fallback", "FILE"], True),
    "verify-input": (TAIL, ["verify", "--input", "FILE"], True),
    "verify-campaign": (TAIL, ["verify", "--count", "3"], True),
}


def test_cli_import_leaves_the_oracle_unloaded():
    code = "import sys, compseq.cli; print('compseq.oracle' in sys.modules)"
    assert fresh(code).stdout.strip() == "False"


@pytest.mark.parametrize("text, argv, loads", COMMANDS.values(), ids=COMMANDS)
def test_only_the_commands_that_run_the_oracle_load_it(tmp_path, text, argv, loads):
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert fresh(ENTRY, *argv).stderr.splitlines()[-1] == f"0 {loads}"


# argparse imports gettext, which loads locale on first use: about 4 ms of
# every CLI call, so the CLI parses its arguments itself
@pytest.mark.parametrize("command", [None, "analyze", "export-limit", "verify-campaign"])
def test_cli_runs_without_argparse(tmp_path, command):
    loaded = "\nprint(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)"
    if command is None:
        assert fresh("import sys, compseq.cli" + loaded).stderr == "[]\n"
        return
    text, argv, _ = COMMANDS[command]
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert fresh(ENTRY + loaded, *argv).stderr.splitlines()[-2:] == [f"0 {command == 'verify-campaign'}", "[]"]
