"""scripts/byte_manifest.py --compare: the entries two manifests differ in.

The full manifest run (about a minute) stays out of this suite; these
manifests are written by hand."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "byte_manifest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("byte_manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(stdout="# seed 42\n", files=None, exit=0):
    return {"argv": ["trihead", "stats"], "exit": exit, "stdout": stdout, "stderr": "",
            "files": {"run/model.ckpt": "aa", "run/trace.csv": "bb"} if files is None
            else files}


def write(tmp_path, name, manifest):
    path = tmp_path / name
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


def test_identical_manifests_compare_equal(tmp_path, capsys):
    manifest = {"readme 1 train": entry(), "demo x.py": entry(files={})}
    a, b = write(tmp_path, "a.json", manifest), write(tmp_path, "b.json", manifest)
    assert load_script().main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "0 of 10 entries differ\n"


def test_each_differing_entry_is_listed(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"readme 1 train": entry(), "readme 2 eval": entry(),
                                   "only a": entry(files={})})
    b = write(tmp_path, "b.json", {
        "readme 1 train": entry(files={"run/model.ckpt": "cc", "run/trace.csv": "bb",
                                       "run/extra.csv": "dd"}),
        "readme 2 eval": entry(stdout="# seed 7\n", exit=2)})
    assert load_script().main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: readme 1 train: file run/model.ckpt",
        "differs: readme 2 eval: exit",
        "differs: readme 2 eval: stdout",
        f"differs: only a: argv (only in {a})",
        f"differs: only a: exit (only in {a})",
        f"differs: only a: stdout (only in {a})",
        f"differs: only a: stderr (only in {a})",
        f"differs: readme 1 train: file run/extra.csv (only in {b})",
        "8 of 17 entries differ",
    ]
