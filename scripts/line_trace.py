"""Lines of src/trihead that no process of the Tier-1 suite runs.

    python scripts/line_trace.py [PYTEST_ARGS ...]

Writes a sitecustomize.py into a temporary directory and runs the Tier-1
command (`python -m pytest -q --continue-on-collection-errors`, then any
PYTEST_ARGS, such as a test file to trace alone) from the repository root,
with that directory first on PYTHONPATH and src next. Every Python process
the suite starts, subprocesses included, so loads the hook: it traces the
frames of files under src/trihead in every thread (sys.settrace and
threading.settrace), and at exit writes the lines they ran to a file of
its own. The script then prints each line of src/trihead that holds
bytecode (co_lines over each module's nested code objects) and ran in no
process, then their count. The body of an `if TYPE_CHECKING:` block runs
only under a type checker and is left out. Its exit status is the suite's.
Tracing makes the suite about 2.5x slower.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "trihead"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# The hook reads only what it binds as default arguments: a trace call can
# come during interpreter shutdown, after module globals are cleared.
HOOK = '''
import atexit, os, sys, tempfile, threading


def _install(package={package!r}, out={out!r}):
    ran, known = set(), {{}}

    def local(frame, event, arg, add=ran.add):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg, known=known, add=ran.add, realpath=os.path.realpath,
             package=package):
        name = frame.f_code.co_filename
        inside = known.get(name)
        if inside is None:
            inside = known[name] = realpath(name).startswith(package)
        if not inside:
            return None
        add((name, frame.f_lineno))
        return local

    def dump(ran=ran, realpath=os.path.realpath, mkstemp=tempfile.mkstemp, fdopen=os.fdopen,
             settrace=sys.settrace):
        settrace(None)
        fd, _ = mkstemp(suffix=".lines", dir=out)
        with fdopen(fd, "w", encoding="utf-8") as f:
            for name, line in sorted(ran):
                f.write(f"{{realpath(name)}}\\t{{line}}\\n")

    atexit.register(dump)
    threading.settrace(call)
    sys.settrace(call)


_install()
'''


def code_lines(code) -> set:
    """The lines that hold bytecode in code and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def type_checking_lines(tree) -> set:
    """The lines of the bodies of tree's `if TYPE_CHECKING:` blocks."""
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for stmt in node.body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def main(argv: list) -> int:
    package = str(PACKAGE.resolve()) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, out = Path(tmp, "hook"), Path(tmp, "lines")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(package=package, out=str(out)), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(hook_dir), str(SRC), os.environ.get("PYTHONPATH")]))}
        code = subprocess.run([sys.executable, *TIER1, *argv], cwd=ROOT, env=env).returncode
        ran, processes = set(), 0
        for dump in out.glob("*.lines"):
            processes += 1
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                ran.add((name, int(line)))

    never = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        real = str(path.resolve())
        lines = source.splitlines()
        skip = type_checking_lines(ast.parse(source))
        for line in sorted(code_lines(compile(source, real, "exec")) - skip):
            if (real, line) not in ran:
                never.append(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    for line in never:
        print(line)
    print(f"{len(never)} lines of src/trihead that hold bytecode ran in none of the "
          f"suite's {processes} traced processes")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
