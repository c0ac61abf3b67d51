"""Command-line behaviour: exit codes, report formats, pipeline identities."""

import importlib
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from trihead.assets import asset_path
from trihead.cli import _load_run_config, main
from trihead.data import load_checkpoint, load_dataset
from trihead.optim import clip_global_norm

TRAIN_TSV = str(asset_path("synth_train.tsv"))
DEV_TSV = str(asset_path("synth_dev.tsv"))
CORPUS_TXT = str(asset_path("synth_corpus.txt"))

HEADER = "id\ttext\taggression\tgender\tcommunal"

FAST = ["--epochs", "1", "--d-model", "16", "--n-heads", "2",
        "--d-ff", "32", "--max-len", "12", "--base-lr", "1e-3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_bogus_pooler_is_a_usage_error(capsys):
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--pooler", "bogus")
    assert code == 2
    assert "usage" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_data_file_is_a_data_error(capsys):
    code, _, err = run(capsys, "stats", "--data", "/nonexistent/x.tsv")
    assert code == 3
    assert "error" in err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"epochs": 1, "learning_rate": 0.1}')
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--config", str(cfg))
    assert code == 2
    assert "learning_rate" in err


def test_invalid_config_json_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{nope")
    code, _, _ = run(capsys, "train", "--data", TRAIN_TSV, "--config", str(cfg))
    assert code == 2


WRONG_TYPED = {"epochs": "5", "task_loss_weights": 5, "freeze": 5, "seed": "x",
               "max_len": None, "base_lr": "1e-3", "dropout_p": [0.1]}


@pytest.mark.parametrize("key", WRONG_TYPED)
def test_wrong_typed_config_value_is_a_config_error(tmp_path, capsys, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: WRONG_TYPED[key]}))
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, "--config", str(cfg))
    assert code == 2
    assert f"config key {key!r} must be" in err


# a Latin-1 e-acute: one byte that no UTF-8 sequence starts with
LATIN1 = "caf\xe9".encode("latin-1")


@pytest.mark.parametrize("flag, argv, content", [
    ("--data", ["stats"], HEADER.encode() + b"\na\t" + LATIN1 + b"\tNAG\tNGEN\tNCOM\n"),
    ("--pred", ["score", "--gold", TRAIN_TSV],
     b"id\taggression\tgender\tcommunal\n" + LATIN1 + b"\tNAG\tNGEN\tNCOM\n"),
    ("--corpus", ["pretrain", "--out", "unused"], b"ami " + LATIN1 + b" khub\n"),
    ("--config", ["stats", "--data", TRAIN_TSV], b'{"out": "' + LATIN1 + b'"}'),
    ("--emoji-map", ["train", "--data", TRAIN_TSV, *FAST], LATIN1 + b"\tsmile\n"),
], ids=["stats-data", "score-pred", "pretrain-corpus", "config", "train-emoji-map"])
def test_non_utf8_file_is_a_data_error_naming_it(tmp_path, capsys, flag, argv, content):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content)
    code, _, err = run(capsys, *argv, flag, str(bad))
    assert code == 3
    assert f"{bad}: not UTF-8 text" in err


def test_eval_on_empty_dataset_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out),
               *FAST)[0] == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text(HEADER + "\n")
    code, _, err = run(capsys, "eval", "--model", str(out / "model.ckpt"),
                       "--data", str(empty))
    assert code == 3
    assert "empty" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergent_run_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--epochs", "30", "--d-model", "16", "--n-heads", "2",
                       "--d-ff", "32", "--max-len", "12",
                       "--base-lr", "1e12")
    assert code == 4
    assert "step" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergent_pretrain_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT,
                       "--out", str(tmp_path / "pre"), "--steps", "40", "--lr", "1e6",
                       "--d-model", "16", "--max-len", "16")
    assert code == 4
    assert "step" in err


@pytest.mark.parametrize("command, module, argv", [
    ("train", "trihead.train", ["--data", TRAIN_TSV, *FAST]),
    ("pretrain", "trihead.encoder", ["--corpus", CORPUS_TXT, "--steps", "5",
                                     "--d-model", "16", "--max-len", "16"]),
])
def test_nan_gradient_exits_4_at_the_poisoned_step(tmp_path, capsys, monkeypatch,
                                                   command, module, argv):
    real_clip = clip_global_norm
    calls = []

    def poison_step_2(params, max_norm):
        if len(calls) == 2:
            next(iter(params.values())).grad[...] = np.nan
        calls.append(max_norm)
        return real_clip(params, max_norm)

    # both loops clip inside optim.optimizer_step, never on their own;
    # trihead.train is also the name of a function, so import the module
    assert not hasattr(importlib.import_module(module), "clip_global_norm")
    monkeypatch.setattr(importlib.import_module("trihead.optim"), "clip_global_norm",
                        poison_step_2)
    code, _, err = run(capsys, command, *argv, "--out", str(tmp_path / "run"))
    assert code == 4
    assert "non-finite gradient norm at step 2" in err
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_trace(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", "--data", TRAIN_TSV,
                          "--out", str(out), *FAST)
    assert code == 0
    assert stdout.startswith("# seed 42\n")
    ck = load_checkpoint(out / "model.ckpt")
    assert ck.kind == "model"
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,lr,loss,loss_aggression,loss_gender,loss_communal"
    assert len(trace) == 1 + 8  # 64 examples / batch 8, one epoch


def test_identical_invocations_write_identical_checkpoints(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(capsys, "train", "--data", TRAIN_TSV, "--dev", DEV_TSV,
                   "--out", str(out), *FAST)[0] == 0
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
    assert (a / "trace.csv").read_text() == (b / "trace.csv").read_text()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epochs": 1, "d_model": 16, "n_heads": 2,
                               "d_ff": 32, "max_len": 12, "base_lr": 1e-3}))
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--data", TRAIN_TSV, "--config", str(cfg),
                     "--out", str(out), "--epochs", "2")
    assert code == 0
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 1 + 16  # two epochs, not the config file's one


def test_balance_flag_oversamples_training_set(tmp_path, capsys):
    # unbalanced slice: 6 NAG, 2 CAG, 1 OAG from the bundled corpus
    data = load_dataset(TRAIN_TSV)
    by = {"NAG": [], "CAG": [], "OAG": []}
    for ex in data:
        by[ex.labels.aggression].append(ex)
    rows = by["NAG"][:6] + by["CAG"][:2] + by["OAG"][:1]
    small = tmp_path / "small.tsv"
    lines = [HEADER] + [
        "\t".join((ex.id, ex.text, ex.labels.aggression, ex.labels.gender,
                   ex.labels.communal)) for ex in rows]
    small.write_text("\n".join(lines) + "\n")

    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--data", str(small), "--balance",
                     "--out", str(out), *FAST)
    assert code == 0
    trace = (out / "trace.csv").read_text().strip().split("\n")
    # 18 balanced examples -> 3 batches of 8, not 2 batches of the raw 9
    assert len(trace) == 1 + 3


# ---------------------------------------------------------------------------
# config surface


def test_config_keys_and_their_defaults_are_pinned():
    # the keys are the public JSON config format; the defaults come from the
    # library dataclasses, apart from the CLI's own epochs, vocab size,
    # balance and paths
    cfg = _load_run_config(None, {})
    assert vars(cfg) == {
        "d_model": 64, "n_layers": 2, "n_heads": 2, "d_ff": 128, "max_len": 48,
        "dropout_p": 0.3,
        "epochs": 5, "batch_size": 8, "base_lr": 2e-5, "warmup_steps": 0,
        "seed": 42, "pooler": "attention", "task_loss_weights": (1.0, 1.0, 1.0),
        "freeze": (),
        "vocab_target_size": 200, "balance": False,
        "pretrain_steps": 300, "pretrain_batch_size": 8, "pretrain_lr": 1e-3,
        "pretrain_mask_rate": 0.15,
        "data": None, "dev": None, "emoji_map": None, "encoder": None, "out": None,
    }


def test_pretrain_without_seed_uses_seed_42(tmp_path, capsys):
    base = ["pretrain", "--corpus", CORPUS_TXT, "--steps", "3", "--d-model", "16",
            "--n-heads", "2", "--d-ff", "32", "--max-len", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *base, "--out", str(a))[0] == 0
    assert run(capsys, *base, "--out", str(b), "--seed", "42")[0] == 0
    assert (a / "encoder.ckpt").read_bytes() == (b / "encoder.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# eval / predict / score agree


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(["train", "--data", TRAIN_TSV, "--out", str(out), *FAST])
    assert code == 0
    return out / "model.ckpt"


def test_eval_matches_predict_then_score(trained, tmp_path, capsys):
    code, eval_out, _ = run(capsys, "eval", "--model", str(trained),
                            "--data", DEV_TSV)
    assert code == 0
    pred = tmp_path / "pred.tsv"
    assert run(capsys, "predict", "--model", str(trained),
               "--input", DEV_TSV, "--output", str(pred))[0] == 0
    code, score_out, _ = run(capsys, "score", "--gold", DEV_TSV,
                             "--pred", str(pred))
    assert code == 0
    assert eval_out == score_out


def edit_checkpoint(src, dst, edit, drop_tail=0):
    """Copy a checkpoint with its JSON header changed by edit(header) and the
    last drop_tail bytes of parameter data removed."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[12 + hlen:len(raw) - drop_tail]
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + body)
    return dst


def drop_last_param(header):
    assert header["params"].pop() == {"name": "heads.communal.b", "shape": [2]}


@pytest.mark.parametrize("edit, drop_tail, message", [
    (drop_last_param, 8, "missing parameters ['heads.communal.b']"),
    (lambda h: h.update(meta=[1, 2]), 0, "meta must be a JSON object"),
    (lambda h: h.update(pooler="max"), 0, "pooler 'max'"),
    (lambda h: h["encoder_config"].update(d_model=16.0), 0,
     "encoder_config.d_model must be an integer, got 16.0"),
    (lambda h: h["meta"].update(emoji_map=["x"]), 0,
     "meta.emoji_map must be a JSON object, got list"),
    (lambda h: h["vocab"].__setitem__(5, 7), 0, "vocab[5] must be a string, got 7"),
], ids=["missing-param", "meta-list", "bad-pooler", "float-d-model", "emoji-map-list",
        "int-token"])
def test_hand_edited_checkpoint_is_a_data_error(trained, tmp_path, capsys,
                                                edit, drop_tail, message):
    bad = edit_checkpoint(trained, tmp_path / "bad.ckpt", edit, drop_tail)
    for argv in (["eval", "--model", str(bad), "--data", DEV_TSV],
                 ["predict", "--model", str(bad), "--input", DEV_TSV,
                  "--output", str(tmp_path / "pred.tsv")]):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert message in err


def test_predict_keeps_input_row_order(trained, tmp_path, capsys):
    gold = load_dataset(DEV_TSV)
    shuffled = [gold[i] for i in (5, 0, 11, 3, 8)]
    inp = tmp_path / "in.tsv"
    inp.write_text("id\ttext\n" + "".join(f"{ex.id}\t{ex.text}\n"
                                          for ex in shuffled))
    outp = tmp_path / "out.tsv"
    assert run(capsys, "predict", "--model", str(trained),
               "--input", str(inp), "--output", str(outp))[0] == 0
    got_ids = [ex.id for ex in load_dataset(outp)]
    assert got_ids == [ex.id for ex in shuffled]


def test_gold_scored_against_itself_is_perfect(capsys):
    code, out, _ = run(capsys, "score", "--gold", DEV_TSV, "--pred", DEV_TSV)
    assert code == 0
    assert '"instance_f1":1.0' in out
    assert '"overall_micro_f1":1.0' in out


def test_four_rows_one_wrong_label_scores_three_quarters(tmp_path, capsys):
    gold_rows = ["g1\ta b\tNAG\tNGEN\tNCOM", "g2\tc d\tCAG\tGEN\tNCOM",
                 "g3\te f\tOAG\tNGEN\tCOM", "g4\tg h\tNAG\tGEN\tNCOM"]
    pred_rows = list(gold_rows)
    pred_rows[2] = "g3\te f\tNAG\tNGEN\tCOM"  # one aggression miss
    gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
    gold.write_text(HEADER + "\n" + "\n".join(gold_rows) + "\n")
    pred.write_text(HEADER + "\n" + "\n".join(pred_rows) + "\n")
    code, out, _ = run(capsys, "score", "--gold", str(gold), "--pred", str(pred))
    assert code == 0
    assert '"instance_f1":0.75' in out


def test_score_is_independent_of_pred_row_order(tmp_path, capsys):
    rows = ["g1\ta\tNAG\tNGEN\tNCOM", "g2\tb\tCAG\tGEN\tCOM",
            "g3\tc\tOAG\tNGEN\tNCOM"]
    gold = tmp_path / "gold.tsv"
    gold.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    fwd, rev = tmp_path / "fwd.tsv", tmp_path / "rev.tsv"
    fwd.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    rev.write_text(HEADER + "\n" + "\n".join(reversed(rows)) + "\n")
    _, out_f, _ = run(capsys, "score", "--gold", str(gold), "--pred", str(fwd))
    _, out_r, _ = run(capsys, "score", "--gold", str(gold), "--pred", str(rev))
    assert out_f == out_r


def test_score_lists_missing_ids_capped_at_ten(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text(HEADER + "\n" + "".join(
        f"m{i:02d}\tw\tNAG\tNGEN\tNCOM\n" for i in range(15)))
    pred = tmp_path / "pred.tsv"
    pred.write_text(HEADER + "\n" + "m00\tw\tNAG\tNGEN\tNCOM\n")
    code, _, err = run(capsys, "score", "--gold", str(gold), "--pred", str(pred))
    assert code == 3
    assert "'m01'" in err and "'m10'" in err
    assert "'m11'" not in err
    assert "+4 more" in err


# ---------------------------------------------------------------------------
# stats / pretrain / entry point


def test_stats_reports_bundled_distribution(capsys):
    code, out, _ = run(capsys, "stats", "--data", TRAIN_TSV)
    assert code == 0
    assert out.startswith("# seed 42\n")
    assert '"total":64' in out


def test_stats_handles_published_scale_counts(tmp_path, capsys):
    rows = []
    combos = [("NAG", "NGEN", "NCOM", 1258), ("CAG", "NGEN", "NCOM", 1295),
              ("CAG", "GEN", "NCOM", 200), ("OAG", "NGEN", "NCOM", 211),
              ("OAG", "GEN", "NCOM", 3), ("OAG", "NGEN", "COM", 242)]
    i = 0
    for agg, gen, com, n in combos:
        for _ in range(n):
            rows.append(f"r{i:04d}\tw\t{agg}\t{gen}\t{com}")
            i += 1
    big = tmp_path / "big.tsv"
    big.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "stats", "--data", str(big))
    assert code == 0
    assert '"total":3209' in out
    assert '"NAG":1258' in out and '"CAG":1495' in out and '"OAG":456' in out


def test_pretrain_writes_encoder_checkpoint(tmp_path, capsys):
    out = tmp_path / "pre"
    code, stdout, _ = run(capsys, "pretrain", "--corpus", CORPUS_TXT,
                          "--out", str(out), "--steps", "12",
                          "--d-model", "16", "--n-heads", "2",
                          "--d-ff", "32", "--max-len", "12")
    assert code == 0
    assert "masked-token loss" in stdout
    ck = load_checkpoint(out / "encoder.ckpt")
    assert ck.kind == "encoder"
    assert "mlm_bias" in ck.params
    trace = (out / "pretrain_trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,loss"
    assert len(trace) == 1 + 12


def test_warm_start_flag_consumes_encoder_checkpoint(tmp_path, capsys):
    pre = tmp_path / "pre"
    assert run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--out", str(pre),
               "--steps", "5", "--d-model", "16", "--n-heads", "2",
               "--d-ff", "32", "--max-len", "12")[0] == 0
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--data", TRAIN_TSV,
                     "--encoder", str(pre / "encoder.ckpt"),
                     "--out", str(out), "--epochs", "1", "--base-lr", "1e-3")
    assert code == 0
    ck = load_checkpoint(out / "model.ckpt")
    # architecture came from the pretrained encoder, not the defaults
    assert ck.config.d_model == 16


def test_warm_start_rejects_full_model_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out),
               *FAST)[0] == 0
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--encoder", str(out / "model.ckpt"))
    assert code == 3
    assert "encoder-only" in err


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "trihead.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "score" in proc.stdout
