"""The README's quick starts stay true to the code: every `trihead` command
of the CLI block parses, and every call of the library block binds to the
signature of the name it calls."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import pytest

import trihead
from trihead.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block under the README's ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_cli_quick_start_parses():
    lines = fenced_block("Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("trihead")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trihead {shlex.join(argv)}")


def test_readme_library_quick_start_binds():
    tree = ast.parse(fenced_block("Quick start (library)", "python"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "trihead"
                for alias in node.names}
    assert sorted(name for name in imported if not hasattr(trihead, name)) == []
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            name = node.func.id
            signature = inspect.signature(getattr(trihead, name))
            try:
                signature.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as e:
                pytest.fail(f"README line {node.lineno}: {name}(...) does not bind "
                            f"to {name}{signature}: {e}")
            called.add(name)
    # every imported name is called, so none of them escapes the check
    assert called == imported
