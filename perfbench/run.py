"""trihead benchmark: three seeded workloads through the public command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-warmstart --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
taken from spans that perfbench/tracing.py records around trihead's public
functions. A results file with the environment record, per-unit wall and
CPU times and output digests goes to perfbench/results/. perfbench/README.md
says why each workload exists and how to read a trace.
"""

from __future__ import annotations

import os


# One BLAS thread in every run, so every run measures the same
# configuration; set before numpy loads. On a shared 2-core machine a second
# OpenBLAS thread bought 5-10% wall time on the d=64 workloads for 75% more
# CPU, and made run-to-run spread much wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402

SMALL_SHAPE = ["--d-model", "32", "--max-len", "16", "--d-ff", "64",
               "--n-layers", "2", "--n-heads", "2"]
FIRST_LOSS = math.log(3) + 2 * math.log(2)  # three zero-initialised heads
FIXTURE_SEED = 0   # data and trihead seed of published-predict's checkpoint


@dataclass
class Unit:
    """One timed repetition of a workload."""

    seed: int
    wall: float = 0.0          # seconds in the commands items are counted over
    cpu: float = 0.0
    total_wall: float = 0.0    # every command of the unit
    setup: float = 0.0         # before the first step or chunk, summed over its commands
    items: int = 0
    steps_ms: list = field(default_factory=list)
    pretrain_steps_ms: list = field(default_factory=list)
    commands: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def intervals_ms(stamps, skip_every=0) -> list:
    """Gaps between consecutive stamps; gap k is dropped when k is a
    multiple of skip_every (it spans an epoch boundary and its dev eval)."""
    return [(stamps[k] - stamps[k - 1]) * 1e3 for k in range(1, len(stamps))
            if not (skip_every and k % skip_every == 0)]


def prelude_s(stamps, start: float) -> float:
    """Seconds a command spends before its first step or chunk: from its
    start to the first stamp, less one median gap (that step's own work)."""
    if len(stamps) < 2:
        return 0.0
    return stamps[0] - start - statistics.median(np.diff(stamps))


def label_rows(path: Path) -> list:
    """(aggression, gender, communal) per row of a labelled TSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(line.split("\t")[-3:]) for line in lines if line]


def majority_f1(path: Path) -> float:
    """Overall micro F1 of predicting each head's most common label for
    every row: the score of a model that has learned nothing."""
    rows = label_rows(path)
    return sum(Counter(col).most_common(1)[0][1] for col in zip(*rows)) / (3 * len(rows))


def reference_mismatches(ckpt_path: Path, gold: Path, pred: Path, every: int = 1) -> tuple:
    """Rows (every ``every``-th) whose predicted triple differs from a
    one-row, unpadded, train-mode forward of the same checkpoint with dropout
    off. That path shares no batching, padding or eval-mode code with
    `predict`. A predicted label whose reference logit lies within 1e-4 of
    the top one counts as a match, so near-ties do not fail it. Returns
    (rows that differ, rows checked)."""
    data = importlib.import_module("trihead.data")
    tp = importlib.import_module("trihead.textpipe")
    tr = importlib.import_module("trihead.train")
    metrics = importlib.import_module("trihead.metrics")
    ckpt = data.load_checkpoint(ckpt_path)
    config = dataclasses.replace(ckpt.config, dropout_p=0.0)
    rows = data.load_dataset(gold)[::every]
    bad = 0
    for ex, triple in zip(rows, label_rows(pred)[::every]):
        enc = tp.batch_encode([tp.normalize(ex.text)], ckpt.vocab, config.max_len)
        n = int(enc.attention_mask.sum())
        one = tp.EncodedBatch(token_ids=enc.token_ids[:, :n],
                              attention_mask=enc.attention_mask[:, :n])
        logits = tr.forward_logits(ckpt.params, config, ckpt.pooler_kind, one,
                                   mode="train", rng=np.random.default_rng(0))
        for task, label in zip(metrics.TASKS, triple):
            z = logits[task].data[0]
            if z.max() - z[metrics.TASK_LABELS[task].index(label)] > 1e-4:
                bad += 1
                break
    return bad, len(rows)


def losses_of(trace_csv: Path) -> list:
    rows = trace_csv.read_text(encoding="utf-8").splitlines()
    col = rows[0].split(",").index("loss")
    return [float(r.split(",")[col]) for r in rows[1:]]


class Workload:
    main_phase = "train"
    loss_block = 0
    # units cycle through this many seeds derived from --seed; the quality
    # metrics average over them, which steadies a tiny dev split's F1
    sub_seeds = 1

    def __init__(self, root: Path, work: Path, seed: int, clock: tracing.StepClock):
        self.root, self.work, self.seed, self.clock = root, work, seed, clock
        self.cli = importlib.import_module("trihead.cli")
        self.data = importlib.import_module("trihead.data")
        errors = importlib.import_module("trihead.errors")
        self.op_errors = (errors.DivergenceError, errors.DataError,
                          errors.CheckpointFormatError)
        self.final_loss = self.f1 = None
        self._dirs = 0

    def run_cli(self, unit: Unit | None, argv) -> tuple:
        """Run one trihead command in process; returns (ok, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                ok = self.cli.main([str(a) for a in argv]) == 0
            except self.op_errors as e:
                print(f"{type(e).__name__}: {e}", file=err)
                ok = False
        if not ok:
            print(f"# command failed: {' '.join(map(str, argv[:1]))}: "
                  f"{err.getvalue().strip()}", file=sys.stderr)
        if unit is not None:
            unit.commands += 1
            unit.failed += not ok
        return ok, out.getvalue()

    def timed(self, unit: Unit, argv, counted=True) -> tuple:
        self.clock.steps.clear()
        self.clock.chunks.clear()
        gc.collect()  # start each command without the last one's garbage, as a fresh process would
        w0, c0 = perf_counter(), process_time()
        result = self.run_cli(unit, argv)
        wall, cpu = perf_counter() - w0, process_time() - c0
        unit.total_wall += wall
        unit.setup += prelude_s(self.clock.steps or self.clock.chunks, w0)
        if counted:
            unit.wall += wall
            unit.cpu += cpu
        return result

    def unit_seed(self, i: int) -> int:
        if self.sub_seeds == 1:
            return self.seed
        return self.seed * self.sub_seeds + i % self.sub_seeds

    def next_dir(self, name: str) -> Path:
        self._dirs += 1
        return self.work / f"{name}{self._dirs}"

    # hooks each workload fills in
    def prepare(self) -> None: ...
    def traced_prepare(self) -> list: return []
    def unit(self, seed: int) -> Unit: ...
    def checks(self, units) -> list: ...


class TrainWorkload(Workload):
    """Shared by both training workloads: a train command with a dev split,
    whose report, checkpoint and loss trace the checks re-derive."""

    epochs = 1
    batch = 8
    learns = True   # whether the fine-tune should beat the majority baseline on dev

    def train_argv(self, out: Path, seed: int) -> list:
        raise NotImplementedError

    def train_unit(self, unit: Unit, n_rows: int) -> None:
        out = self.next_dir("run")
        ok, report = self.timed(unit, self.train_argv(out, unit.seed))
        per_epoch = -(-n_rows // self.batch)
        unit.steps_ms = intervals_ms(self.clock.steps, per_epoch)
        unit.items = n_rows * self.epochs if ok else 0
        if ok:
            unit.outputs = {"report": report, "dir": out,
                            "trace_sha256": sha256(out / "trace.csv"),
                            "ckpt_sha256": sha256(out / "model.ckpt"),
                            "losses": losses_of(out / "trace.csv")}

    def checks(self, units) -> list:
        good = [u for u in units if u.outputs]
        if not good:
            return [("train ran", False, "no unit finished")]
        by_seed = {}
        for u in good:
            by_seed.setdefault(u.seed, u.outputs)
        self.final_loss = statistics.fmean(
            statistics.fmean(o["losses"][-self.loss_block:]) for o in by_seed.values())
        self.f1 = statistics.fmean(json.loads(o["report"].splitlines()[-1])["overall_micro_f1"]
                                   for o in by_seed.values())
        same = all(u.outputs[k] == by_seed[u.seed][k] for u in good
                   for k in ("trace_sha256", "ckpt_sha256", "report"))
        first_losses = [u.outputs["losses"][0] for u in good]
        worst = max(first_losses, key=lambda v: abs(v - FIRST_LOSS))
        first = good[0].outputs
        ckpt = first["dir"] / "model.ckpt"
        seed = ["--seed", good[0].seed]
        _, evaluated = self.run_cli(None, ["eval", "--model", ckpt, "--data", self.dev, *seed])
        pred = self.work / "dev_pred.tsv"
        self.run_cli(None, ["predict", "--model", ckpt, "--input", self.dev,
                            "--output", pred, *seed])
        _, scored = self.run_cli(None, ["score", "--gold", self.dev, "--pred", pred, *seed])
        checks = [
            ("first loss is ln3+2ln2", abs(worst - FIRST_LOSS) < 1e-5,
             f"furthest {worst!r} vs {FIRST_LOSS!r}"),
            ("units of one seed bit-identical", same,
             f"{len(good)} units over {len(by_seed)} seeds"),
            ("saved checkpoint re-scores its best dev report", evaluated == first["report"],
             "eval on dev == train's report"),
            ("eval == predict+score", evaluated == scored, "on the dev split"),
            reference_check(ckpt, self.dev, pred),
        ]
        if self.learns:
            checks += learned_checks(self.f1, self.dev, pred, "best dev ")
        return checks


class SmallWarmstart(TrainWorkload):
    """Acceptance shape (d=32, L=16): MLM pretraining on the bundled corpus,
    then a warm-started fine-tune with a dev eval every epoch."""

    epochs = 10
    pretrain_steps = 100
    loss_block = 40
    sub_seeds = 16

    def prepare(self) -> None:
        assets = importlib.import_module("trihead.assets")
        self.corpus = assets.asset_path("synth_corpus.txt")
        self.train_tsv = assets.asset_path("synth_train.tsv")
        self.dev = assets.asset_path("synth_dev.tsv")
        self.n_rows = len(self.data.load_dataset(self.train_tsv))
        # warms the pretrain path before timing; unit() pretrains its own encoder
        self.pretrain(None, self.work / "warm", self.seed)

    def pretrain(self, unit, out: Path, seed: int) -> Path:
        argv = ["pretrain", "--corpus", self.corpus, "--out", out, "--steps",
                self.pretrain_steps, "--seed", seed, *SMALL_SHAPE]
        if unit is None:
            self.run_cli(None, argv)
        else:
            self.timed(unit, argv, counted=False)
            unit.pretrain_steps_ms = intervals_ms(self.clock.steps)
        return out / "encoder.ckpt"

    def train_argv(self, out: Path, seed: int) -> list:
        return ["train", "--data", self.train_tsv, "--dev", self.dev, "--encoder",
                self.encoder, "--out", out, "--epochs", self.epochs,
                "--base-lr", "2e-3", "--seed", seed]

    def unit(self, seed: int) -> Unit:
        unit = Unit(seed)
        self.encoder = self.pretrain(unit, self.next_dir("pre"), seed)
        self.train_unit(unit, self.n_rows)
        return unit


class PublishedTrain(TrainWorkload):
    """CLI defaults (d=64, L=48, d_ff=128, B=8, lr 2e-5): one epoch over the
    3,209 seeded rows with a 128-row dev split, then save_checkpoint.

    At lr 2e-5 one epoch barely moves the loss, and the dev F1 is the
    majority baseline. Rates that learn (3e-4 to 2e-3) made the final loss
    swing 20-75% from seed to seed, too much for a bounded metric; the
    fixture of published-predict checks that training at this shape learns."""

    loss_block = 100
    learns = False

    def prepare(self) -> None:
        paths = generate_published(self.root, self.work, self.seed, {"dev": 128})
        self.train_tsv, self.dev = paths["published"], paths["dev"]

    def train_argv(self, out: Path, seed: int) -> list:
        return ["train", "--data", self.train_tsv, "--dev", self.dev, "--out", out,
                "--epochs", self.epochs, "--seed", seed]

    def unit(self, seed: int) -> Unit:
        unit = Unit(seed)
        self.train_unit(unit, gen.PUBLISHED_TOTAL)
        return unit


class PublishedPredict(Workload):
    """`predict` then `score` over the 3,209 seeded rows at d=64/L=48, with
    a checkpoint trained before timing.

    The checkpoint is the same on every run: 512 rows generated from
    FIXTURE_SEED, two epochs at lr 3e-3, trihead seed FIXTURE_SEED. It scores
    about 0.92 F1 against a majority baseline of 0.78, so the F1 checks the
    forward pass. Fixtures trained from --seed swung 0.77-0.97 F1 and 20-86%
    in final loss from seed to seed."""

    main_phase = "eval"
    loss_block = 20

    def prepare(self) -> None:
        self.texts = generate_published(self.root, self.work, self.seed, {})["published"]
        self.inputs = gen.generate(self.root, self.work / "fixture_inputs", FIXTURE_SEED,
                                   {"fixture": 512, "fixdev": 128})
        self.model, self.fixture_sha = self.train_fixture(self.work / "fixture")
        self.final_loss = statistics.fmean(
            losses_of(self.work / "fixture" / "trace.csv")[-self.loss_block:])

    def train_fixture(self, out: Path) -> tuple:
        ok, _ = self.run_cli(None, ["train", "--data", self.inputs["fixture"], "--dev",
                                    self.inputs["fixdev"], "--out", out, "--epochs", 2,
                                    "--base-lr", "3e-3", "--seed", FIXTURE_SEED])
        if not ok:
            raise RuntimeError("fixture training failed")
        return out / "model.ckpt", sha256(out / "model.ckpt")

    def traced_prepare(self) -> list:
        # the traced run trains the fixture again, so training layers show
        # in its trace, and checks that tracing left the checkpoint alone
        _, digest = self.train_fixture(self.work / "fixture_traced")
        return [("traced fixture checkpoint == untraced", digest == self.fixture_sha,
                 digest[:12])]

    def unit(self, seed: int) -> Unit:
        unit = Unit(seed)
        out = self.next_dir("pred").with_suffix(".tsv")
        flag = ["--seed", seed]
        ok, _ = self.timed(unit, ["predict", "--model", self.model, "--input", self.texts,
                                  "--output", out, *flag])
        unit.steps_ms = intervals_ms(self.clock.chunks)
        ok2, report = self.timed(unit, ["score", "--gold", self.texts, "--pred", out, *flag])
        if ok and ok2:
            unit.items = gen.PUBLISHED_TOTAL
            unit.outputs = {"report": report, "pred": out, "pred_sha256": sha256(out)}
        return unit

    def checks(self, units) -> list:
        good = [u for u in units if u.outputs]
        if not good:
            return [("predict ran", False, "no unit finished")]
        first = good[0].outputs
        self.f1 = json.loads(first["report"].splitlines()[-1])["overall_micro_f1"]
        same = all(u.outputs["pred_sha256"] == first["pred_sha256"]
                   and u.outputs["report"] == first["report"] for u in good)
        seed = ["--seed", self.seed]
        _, evaluated = self.run_cli(None, ["eval", "--model", self.model, "--data",
                                           self.texts, *seed])
        flipped = self.work / "flipped.tsv"
        flip_one_label(first["pred"], flipped)
        _, flipped_report = self.run_cli(None, ["score", "--gold", self.texts,
                                                "--pred", flipped, *seed])
        return [
            ("units bit-identical", same, f"{len(good)} passes"),
            ("score report == eval report", evaluated == first["report"],
             "byte for byte, 3,209 rows"),
            ("one flipped label is caught", bool(flipped_report)
             and flipped_report != evaluated, "score of the flipped file differs from eval"),
            *learned_checks(self.f1, self.texts, first["pred"]),
            reference_check(self.model, self.texts, first["pred"], every=25),
        ]


def learned_checks(f1: float, gold: Path, pred: Path, what: str = "") -> list:
    """A model that learned nothing predicts one triple for every row and
    scores the majority baseline; most forward-pass bugs end there."""
    baseline = majority_f1(gold)
    triples = len(set(label_rows(pred)))
    return [(f"{what}F1 beats the majority baseline", f1 > baseline,
             f"{f1:.4f} vs {baseline:.4f}"),
            ("predictions are not all one triple", triples > 1, f"{triples} distinct triples")]


def reference_check(ckpt: Path, gold: Path, pred: Path, every: int = 1) -> tuple:
    bad, n = reference_mismatches(ckpt, gold, pred, every)
    return ("predictions == unpadded train-mode forward", bad == 0,
            f"{bad} of {n} rows differ")


def flip_one_label(src: Path, dst: Path) -> None:
    lines = src.read_text(encoding="utf-8").split("\n")
    cols = lines[1].split("\t")
    cols[3] = "GEN" if cols[3] == "NGEN" else "NGEN"   # the gender column
    lines[1] = "\t".join(cols)
    dst.write_text("\n".join(lines), encoding="utf-8")


def generate_published(root: Path, work: Path, seed: int, extra: dict) -> dict:
    paths = gen.generate(root, work / "inputs", seed, extra)
    data = importlib.import_module("trihead.data")
    table = data.class_distribution(data.load_dataset(paths["published"]))
    got = json.loads(table.to_json())
    want = dict(gen.PUBLISHED_DISTRIBUTION, total=gen.PUBLISHED_TOTAL)
    if got != want:
        raise RuntimeError(f"generated distribution {got} != criterion 5 {want}")
    return paths


WORKLOADS = {"small-warmstart": SmallWarmstart, "published-train": PublishedTrain,
             "published-predict": PublishedPredict}


# ---------------------------------------------------------------------------


def environment(root: Path, seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": commit_id(root), "seed": seed}


def commit_id(root: Path):
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def timed_units(workload: Workload, seconds: float) -> list:
    """Units for about ``seconds``: at least one per sub-seed, and a unit is
    not started when half of it would run past the deadline."""
    units = []
    deadline = perf_counter() + seconds
    while len(units) < workload.sub_seeds or (
            perf_counter() + units[-1].total_wall / 2 < deadline):
        units.append(workload.unit(workload.unit_seed(len(units))))
    return units


@contextlib.contextmanager
def traced(tracer: tracing.Tracer, clock: tracing.StepClock):
    # the tracer wraps the original functions and the clock stamps outside
    # it, so the tracer still recognises each function it wraps
    clock.uninstall()
    tracer.install()
    clock.install()
    try:
        yield
    finally:
        clock.uninstall()
        tracer.uninstall()
        clock.install()


def paired_units(workload: Workload, tracer: tracing.Tracer, clock: tracing.StepClock,
                 seconds: float) -> tuple:
    """Untraced and traced units in turn, each pair on one seed, for about
    ``seconds`` (at least one pair). Neighbouring pairs see the same stretch
    of a machine whose speed drifts, so their ratio is the tracing overhead,
    and their digests must agree."""
    refs, units = [], []
    deadline = perf_counter() + seconds
    while not units or (
            perf_counter() + (refs[-1].total_wall + units[-1].total_wall) / 2 < deadline):
        seed = workload.unit_seed(len(units))
        refs.append(workload.unit(seed))
        with traced(tracer, clock):
            units.append(workload.unit(seed))
    return refs, units


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(workload, units) -> dict:
    steps = [s for u in units for s in u.steps_ms]
    rated = [u for u in units if u.items] or units
    # medians over units, so a burst of contention moves them least
    values = {
        "setup_s": (statistics.median(u.setup for u in units), "s"),
        "step_ms.p50": (statistics.median(steps), "ms"),
        "items_per_s": (statistics.median(u.items / u.wall for u in rated), "1/s"),
        "cpu_ms_per_item": (statistics.median(u.cpu * 1e3 / max(u.items, 1) for u in rated),
                            "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_loss": (workload.final_loss, "nats"),
        "overall_micro_f1": (workload.f1, "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def unit_of(layer_metric: str) -> str:
    if "_ms" in layer_metric:
        return "ms"
    if "_us_" in layer_metric:
        return "us"
    if layer_metric.endswith(("_share", "_overhead")):
        return "share"
    return "count"


def agreement(refs, units) -> tuple:
    keys = [k for k in refs[0].outputs if k.endswith("sha256")]
    same = bool(keys) and all(u.outputs.get(k) == r.outputs[k]
                              for r, u in zip(refs, units) for k in keys)
    return ("traced units == untraced units of the same seed", same,
            f"{len(units)} pairs: " + ", ".join(keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/trihead/__init__.py", "demos/synthesize_data.py")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from a trihead checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "work" / f"{name}-{os.getpid()}"
    results = BENCH / "results"
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    clock = tracing.StepClock()
    clock.install()
    try:
        workload = WORKLOADS[args.workload](root, work, args.seed, clock)
        workload.prepare()
        checks, record = [], {"env": environment(root, args.seed), "workload": args.workload,
                              "trace": bool(args.trace), "seconds": args.seconds}
        if args.trace:
            tracer = tracing.Tracer()
            with traced(tracer, clock):
                checks += workload.traced_prepare()
            refs, units = paired_units(workload, tracer, clock, args.seconds)
            checks += workload.checks(units)
            checks += [agreement(refs, units), tracing.encoder_site_check(tracer)]
            layers, extra = tracing.layer_metrics(tracer, workload.main_phase)
            layers["trace_overhead"] = statistics.median(
                u.total_wall / r.total_wall for r, u in zip(refs, units)) - 1.0
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
            record["extra"] = extra
            tracer.save(results / f"{name}.spans.npz")
        else:
            refs, units = [], timed_units(workload, args.seconds)
            checks += workload.checks(units)
            metrics = end_to_end(workload, units)
            record["extra"] = {"step_ms.p90": p90([s for u in units for s in u.steps_ms])}
            pre = [s for u in units for s in u.pretrain_steps_ms]
            if pre:
                record["extra"].update({"pretrain_step_ms.p50": statistics.median(pre),
                                        "pretrain_step_ms.p90": p90(pre)})
    finally:
        clock.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(u.commands for u in refs + units)
    failed = sum(u.failed for u in refs + units)
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    record.update({
        "units": [{"wall_s": u.total_wall, "cpu_s": u.cpu, "counted_wall_s": u.wall,
                   "setup_s": u.setup, "items": u.items, "steps": len(u.steps_ms),
                   **{k: v for k, v in u.outputs.items() if k.endswith("sha256")}}
                  for u in units],
        "untraced_units_wall_s": [u.total_wall for u in refs],
        "failed_share": failed / max(attempted, 1),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics})
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# env {json.dumps(record['env'])}")
    print(f"# units {len(units)}, wall {sum(u.total_wall for u in units):.2f} s, "
          f"cpu {sum(u.cpu for u in units):.2f} s, failed_share {record['failed_share']}")
    for n, ok, d in checks:
        print(f"# check {'PASS' if ok else 'FAIL'}: {n} ({d})")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
