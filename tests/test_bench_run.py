"""perfbench/run.py still speaks the command line it drives.

It hands argv lists to trihead.cli.main and re-derives each
prediction through trihead's public functions. Every argv its three
workloads build (pretrain, train with and without --encoder, and the eval,
predict and score of their checks) must still parse under build_parser(),
and its reference forward must still agree with `predict` on a tiny
trained model. The workloads run here with a recording stand-in for the
command line, so no command behind an argv runs.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from trihead.assets import asset_path
from trihead.cli import build_parser, main
from trihead.data import load_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# what importing run.py sets before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_TSV = asset_path("synth_train.tsv")
DEV_TSV = asset_path("synth_dev.tsv")
NO_REPORT = '{"overall_micro_f1": 0.5}'


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module. Importing it sets the BLAS thread
    variables, puts perfbench/ on sys.path and imports its gen and tracing
    modules; all of that is undone afterwards, so later tests and their
    subprocesses see the environment as it was."""
    env = {var: os.environ.get(var) for var in BLAS_VARS}
    path = list(sys.path)
    modules = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


class Recorder:
    """Stands in for Workload.run_cli: keeps each argv as cli.main would
    get it, and answers (ok, stdout) without running anything."""

    def __init__(self):
        self.argvs = []
        self.ok = False

    def __call__(self, unit, argv):
        self.argvs.append([str(a) for a in argv])
        return self.ok, NO_REPORT


def workload_argvs(bench, tmp_path, monkeypatch) -> list:
    """Every argv the three workloads hand to cli.main, from their own
    unit and checks code."""
    recorder = Recorder()
    monkeypatch.setattr(bench, "reference_check", lambda *args, **kw: ("reference", True, ""))
    monkeypatch.setattr(bench, "learned_checks", lambda *args, **kw: [])
    monkeypatch.setattr(bench, "flip_one_label", lambda src, dst: None)

    def make(cls):
        workload = cls(tmp_path, tmp_path, 7, bench.tracing.StepClock())
        workload.run_cli = recorder
        return workload

    def trained(seed):
        return bench.Unit(seed, outputs={"report": NO_REPORT, "dir": tmp_path,
                                         "trace_sha256": "", "ckpt_sha256": "",
                                         "losses": [bench.FIRST_LOSS]})

    small = make(bench.SmallWarmstart)
    small.corpus, small.train_tsv, small.dev = asset_path("synth_corpus.txt"), TRAIN_TSV, DEV_TSV
    small.n_rows = 16
    small.unit(7)                 # pretrain, then train --encoder
    small.checks([trained(7)])    # eval, predict, score

    published = make(bench.PublishedTrain)
    published.train_tsv, published.dev = TRAIN_TSV, DEV_TSV
    published.unit(7)             # train from scratch
    published.checks([trained(7)])

    predict = make(bench.PublishedPredict)
    predict.texts, predict.inputs = DEV_TSV, {"fixture": TRAIN_TSV, "fixdev": DEV_TSV}
    (tmp_path / "fixture").mkdir()
    (tmp_path / "fixture" / "model.ckpt").write_bytes(b"")
    recorder.ok = True            # train_fixture raises unless its train succeeds
    predict.model, _ = predict.train_fixture(tmp_path / "fixture")
    recorder.ok = False
    predict.unit(7)               # predict, score
    predict.checks([bench.Unit(7, outputs={"report": NO_REPORT, "pred": tmp_path / "p.tsv",
                                           "pred_sha256": ""})])
    return recorder.argvs


def test_every_argv_the_benchmark_builds_parses(bench, tmp_path, monkeypatch):
    argvs = workload_argvs(bench, tmp_path, monkeypatch)
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"perfbench argv does not parse: {argv}")
    commands = {argv[0] for argv in argvs}
    assert commands == {"pretrain", "train", "eval", "predict", "score"}
    trains = [argv for argv in argvs if argv[0] == "train"]
    assert {"--encoder" in argv for argv in trains} == {True, False}


def test_the_reference_forward_agrees_with_predict(bench, tmp_path, capsys):
    out, pred = tmp_path / "run", tmp_path / "pred.tsv"
    shape = ["--epochs", "2", "--d-model", "16", "--n-heads", "2", "--d-ff", "32",
             "--max-len", "12", "--base-lr", "3e-3"]
    assert main(["train", "--data", str(TRAIN_TSV), "--out", str(out), *shape]) == 0
    assert main(["predict", "--model", str(out / "model.ckpt"), "--input", str(DEV_TSV),
                 "--output", str(pred)]) == 0
    capsys.readouterr()
    bad, checked = bench.reference_mismatches(out / "model.ckpt", DEV_TSV, pred)
    assert (bad, checked) == (0, len(load_dataset(DEV_TSV)))
