"""The public API: every name a module exports resolves, the package
re-exports all of them, and the README's library example runs."""

import importlib
from pathlib import Path

import pytest

import compseq

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


def test_readme_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("\n```", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == [
        "(15,) ((1, 10, 4),)",
        "NontrivialTail True",
    ]
