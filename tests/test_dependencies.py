"""trihead imports no third-party module beyond its declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
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


def names_read(tree, attributes=False) -> list:
    """(name, line) for each name a module reads: as a name, in a string
    annotation or in __all__, and with attributes=True as an attribute."""
    def walk(root, line=None):
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id, line or node.lineno
            elif attributes and isinstance(node, ast.Attribute):
                yield node.attr, line or node.lineno

    found = list(walk(tree))
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += walk(ast.parse(node.value, mode="eval"), node.lineno)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            found += ((name, node.lineno) for name in ast.literal_eval(node.value))
    return found


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
    used = {name for name, _ in names_read(tree)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def definitions(node, prefix=""):
    """(qualified name, node) for each function, class and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from definitions(child, f"{prefix}{child.name}.")
        else:
            yield from definitions(child, prefix)


def unused_definitions(defining: dict, reading=()) -> list:
    """The functions, classes and methods of the defining sources (label →
    source) whose name no source reads, as a name, an attribute or an
    __all__ entry, outside the definition itself. Dunder methods count as
    used, since Python calls them without naming them.

    The match is by name alone, so the walker cannot see a definition whose
    name is read for something else: a method get passes while any dict's
    get is called, and TriLabel._make passes because TraceRow._make is read.
    Nor can it see an unused dunder, such as a __contains__ that no `in`
    reaches."""
    trees = {label: ast.parse(source) for label, source in defining.items()}
    reads = defaultdict(list)
    for label, tree in [*trees.items(), *((None, ast.parse(source)) for source in reading)]:
        for name, line in names_read(tree, attributes=True):
            reads[name].append((label, line))
    unused = []
    for label, tree in trees.items():
        for qualname, node in definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            if all(where == label and first <= line <= node.end_lineno
                   for where, line in reads[node.name]):
                unused.append(f"{label}:{node.lineno}: {qualname}")
    return unused


def test_unused_imports_are_found():
    source = ('from __future__ import annotations\nimport os, numpy as np\n'
              'from .a import B, C, D, E\n__all__ = ["D"]\n'
              'def f(x: "C | None") -> np.ndarray: return B\n')
    assert unused_imports(source) == ["line 2: os", "line 3: E"]


@pytest.mark.parametrize("path", sorted((SRC / "trihead").glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_definitions_are_found():
    source = ('def called(): return 1\n'
              'def unused(): return called()\n'
              'class Box:\n'
              '    def __len__(self): return 0\n'
              '    def spare(self): return self\n'
              '    def used(self): return 2\n'
              'def recurse(n):\n'
              '    return recurse(n - 1) if n else 0\n'
              'Box().used()\n')
    assert unused_definitions({"m.py": source}) == [
        "m.py:2: unused", "m.py:5: Box.spare", "m.py:7: recurse"]
    assert unused_definitions({"m.py": source}, ["unused(); recurse(3)"]) == [
        "m.py:5: Box.spare"]


# the definitions no file under src/, demos/, scripts/ or perfbench/ names,
# by qualified name, each with the reason it stays; none today
ALLOWED_UNUSED: dict = {}


def test_every_definition_is_used():
    files = [p for top in ("src", "demos", "scripts", "perfbench")
             for p in sorted((ROOT / top).rglob("*.py"))]
    package = SRC / "trihead"
    defining = {str(p.relative_to(package)): p.read_text(encoding="utf-8")
                for p in files if p.is_relative_to(package)}
    reading = [p.read_text(encoding="utf-8") for p in files if not p.is_relative_to(package)]
    found = unused_definitions(defining, reading)
    unexplained = [u for u in found if u.split(": ")[1] not in ALLOWED_UNUSED]
    stale = set(ALLOWED_UNUSED) - {u.split(": ")[1] for u in found}
    assert (unexplained, stale) == ([], set())
