"""Byte contracts by command: run a fixed set of commands from this checkout
in a fresh temporary directory, and record what each one printed and wrote.

    python scripts/byte_manifest.py OUT.json
    python scripts/byte_manifest.py --compare A.json B.json

The set, in order: the README's CLI quick start (read from README.md); a
warm start from its encoder with `encoder.layer0.` and `pooler.` frozen; a
pretrain whose warmup and mask rate come from its `--config` file; a
`--pooler mean --emoji-map` train with a dev split, then eval, predict and
score of its model; `trihead stats` on perfbench/gen.py's seed-4242
published-scale rows; and the five demos. For each command the manifest
holds its argv, exit code, stdout and stderr, and the sha256 of every file
it wrote or changed. Two runs of one checkout give identical manifests, so
a change that claims to keep every byte states it as one --compare, which
prints each entry in which the two manifests differ and exits 1 if any do.
The full run takes about a minute on 2 cores.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYN = "src/trihead/assets"  # the README's $SYN, relative to the run directory
DEMOS = ("autograd_basics.py", "text_pipeline.py", "pooling_comparison.py",
         "train_and_score.py", "mlm_pretraining.py")
FROZEN = {"freeze": ["encoder.layer0.", "pooler."]}
PRETRAIN_CONFIG = {"warmup_steps": 10, "pretrain_mask_rate": 0.25}


def readme_cli_quick_start() -> list:
    """argv of each `trihead` line of the README's CLI quick start."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start (CLI)\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").replace("$SYN", SYN).splitlines()
    return [shlex.split(line) for line in lines if line.startswith("trihead")]


def command_set() -> list:
    """(name, argv) in run order; argv[0] is `trihead` or `python`."""
    runs = [(f"readme {i} {argv[1]}", argv)
            for i, argv in enumerate(readme_cli_quick_start(), start=1)]
    runs.append(("frozen warm start",
                  ["trihead", "train", "--data", f"{SYN}/synth_train.tsv",
                   "--encoder", "pre/encoder.ckpt", "--config", "frozen.json",
                   "--out", "run-frozen", "--epochs", "3", "--base-lr", "2e-3"]))
    runs.append(("pretrain config",
                  ["trihead", "pretrain", "--corpus", f"{SYN}/synth_corpus.txt",
                   "--config", "pretrain.json", "--out", "pre-config", "--steps", "60",
                   "--d-model", "32", "--max-len", "16"]))
    runs += [
        ("mean train", ["trihead", "train", "--data", f"{SYN}/synth_train.tsv",
                        "--dev", f"{SYN}/synth_dev.tsv", "--pooler", "mean",
                        "--emoji-map", f"{SYN}/emoji_map.tsv", "--out", "run-mean",
                        "--epochs", "20", "--d-model", "32", "--max-len", "16",
                        "--base-lr", "2e-3"]),
        ("mean eval", ["trihead", "eval", "--model", "run-mean/model.ckpt",
                       "--data", f"{SYN}/synth_dev.tsv"]),
        ("mean predict", ["trihead", "predict", "--model", "run-mean/model.ckpt",
                          "--input", f"{SYN}/synth_dev.tsv", "--output", "pred-mean.tsv"]),
        ("mean score", ["trihead", "score", "--gold", f"{SYN}/synth_dev.tsv",
                        "--pred", "pred-mean.tsv"]),
        ("published stats", ["trihead", "stats", "--data", "published/published.tsv"]),
    ]
    runs += [(f"demo {name}", ["python", f"demos/{name}"]) for name in DEMOS]
    return runs


def snapshot(work: Path) -> dict:
    """Relative path → sha256 of every file under work."""
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def prepare(work: Path) -> None:
    """The inputs every command finds in the run directory."""
    shutil.copytree(ROOT / SYN, work / SYN, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    (work / "frozen.json").write_text(json.dumps(FROZEN), encoding="utf-8")
    (work / "pretrain.json").write_text(json.dumps(PRETRAIN_CONFIG), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate(ROOT, work / "published", 4242, {})


def build(work: Path) -> dict:
    prepare(work)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    manifest, before = {}, snapshot(work)
    for name, argv in command_set():
        if argv[0] == "trihead":
            real = [sys.executable, "-m", "trihead.cli", *argv[1:]]
        else:
            real = [sys.executable, str(ROOT / argv[1])]
        proc = subprocess.run(real, cwd=work, env=env, capture_output=True, text=True,
                              timeout=600)
        after = snapshot(work)
        manifest[name] = {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr,
                          "files": {p: h for p, h in after.items() if before.get(p) != h}}
        before = after
        print(f"{name}: exit {proc.returncode}, {len(manifest[name]['files'])} files",
              file=sys.stderr)
    return manifest


def entries(manifest: dict) -> dict:
    """One flat entry per command field and per written file."""
    flat = {}
    for name, run in manifest.items():
        for field, value in run.items():
            if field == "files":
                flat.update({f"{name}: file {path}": digest for path, digest in value.items()})
            else:
                flat[f"{name}: {field}"] = value
    return flat


def compare(path_a, path_b) -> int:
    a, b = (entries(json.loads(Path(p).read_text(encoding="utf-8"))) for p in (path_a, path_b))
    differ = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
    for key in differ:
        where = "" if key in a and key in b else f" (only in {path_a if key in a else path_b})"
        print(f"differs: {key}{where}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="manifest JSON to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the entries in which two manifests differ")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A.json B.json")
    with tempfile.TemporaryDirectory(prefix="byte-manifest-") as tmp:
        manifest = build(Path(tmp))
    Path(args.out).write_text(json.dumps(manifest, indent=1, ensure_ascii=False) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
