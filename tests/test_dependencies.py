"""trihead imports no third-party module beyond its declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def third_party_imports() -> set:
    """The top-level modules src/trihead imports that are neither stdlib
    nor trihead itself."""
    names = set()
    for path in (SRC / "trihead").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return {n.split(".")[0] for n in names} - set(sys.stdlib_module_names) - {"trihead"}


def test_imports_are_exactly_the_declared_dependencies_and_exclude_scipy():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, trihead.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert "scipy" not in proc.stdout.split()

    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert third_party_imports() == {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared}


def unused_imports(source: str) -> list:
    """The names a module imports and never reads: not as a name, not in a
    string annotation, not in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ('from __future__ import annotations\nimport os, numpy as np\n'
              'from .a import B, C, D, E\n__all__ = ["D"]\n'
              'def f(x: "C | None") -> np.ndarray: return B\n')
    assert unused_imports(source) == ["line 2: os", "line 3: E"]


@pytest.mark.parametrize("path", sorted((SRC / "trihead").glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
