"""The demo scripts: the corpus generator reproduces the bundled assets, and
every other demo runs to completion."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trihead.assets import asset_path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_synthesizer():
    spec = importlib.util.spec_from_file_location("synthesize_data",
                                                  DEMOS / "synthesize_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthesizer_reproduces_bundled_corpus(tmp_path):
    synth = load_synthesizer()
    rng = np.random.default_rng(synth.SEED)
    # same draw order as its main(); files go to tmp_path, never the assets
    synth.write_tsv(tmp_path / "synth_train.tsv", synth.make_train(rng))
    synth.write_tsv(tmp_path / "synth_dev.tsv", synth.make_dev(rng))
    corpus = "\n".join(synth.make_corpus(rng)) + "\n"
    for name in ("synth_train.tsv", "synth_dev.tsv"):
        assert (tmp_path / name).read_bytes() == asset_path(name).read_bytes(), name
    assert corpus.encode("utf-8") == asset_path("synth_corpus.txt").read_bytes()


@pytest.mark.parametrize("script", ["autograd_basics.py", "text_pipeline.py",
                                    "pooling_comparison.py", "train_and_score.py",
                                    "mlm_pretraining.py"])
def test_demo_runs(script, tmp_path):
    src = str(DEMOS.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
