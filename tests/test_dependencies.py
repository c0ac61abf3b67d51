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
