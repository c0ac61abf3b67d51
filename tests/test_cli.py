"""Command-line behaviour: exit codes, report formats, pipeline identities."""

import argparse
import contextlib
import copy
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihead.assets import asset_path
from trihead.cli import _COMMAND_KEYS, build_parser, main
from trihead.data import load_checkpoint, load_dataset, save_checkpoint
from trihead.encoder import EncoderConfig
from trihead.optim import clip_global_norm
from trihead.textpipe import EmojiMap, balance, build_vocab
from trihead.train import Checkpoint, init_model_params

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


# a malformed input gets its answer at once; this bounds each such case
CASE_SECONDS = 5


@contextlib.contextmanager
def deadline(seconds=CASE_SECONDS):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    for text, message in (
            ("{nope", "not valid JSON: Expecting property name enclosed in double quotes"),
            ('["epochs", 1]', "config must be a JSON object\n"),  # valid JSON, not an object
            ("1", "config must be a JSON object\n")):
        cfg.write_text(text)
        code, out, err = run(capsys, "train", "--data", TRAIN_TSV, "--config", str(cfg))
        assert (code, out) == (2, ""), text
        assert err.startswith(f"error: {cfg}: {message}"), text


@pytest.mark.parametrize("flag, argv", [
    ("--config", ["stats", "--data", TRAIN_TSV]),
    ("--corpus", ["pretrain", "--out", "run"]),
    ("--data", ["stats"]),
], ids=["config", "corpus", "data"])
def test_a_missing_input_exits_3_with_the_os_message_naming_it(tmp_path, capsys,
                                                               monkeypatch, flag, argv):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *argv, flag, str(missing))
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ['{"epochs": 0, "epochs": 1}', '{"epochs": 1, "epochs": 0}'])
def test_a_config_key_given_twice_is_a_config_error_naming_it(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "train", "--data", TRAIN_TSV, *FAST, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}: duplicate config key 'epochs'\n")


WRONG_TYPED = {"epochs": "5", "freeze": 5, "seed": "x",
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


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("\ufeff" + json.dumps({"data": TRAIN_TSV, "seed": 7}), encoding="utf-8")
    code, out, err = run(capsys, "stats", "--config", str(config))
    assert (code, err) == (0, "")
    assert out == run(capsys, "stats", "--data", TRAIN_TSV, "--seed", "7")[1]


def test_corpus_with_a_byte_order_mark_pretrains_as_without(tmp_path, capsys):
    marked = tmp_path / "corpus.txt"
    marked.write_text("\ufeff" + Path(CORPUS_TXT).read_text(encoding="utf-8"), encoding="utf-8")
    shape = ["--steps", "2", "--d-model", "16", "--n-heads", "2", "--d-ff", "32",
             "--max-len", "12"]
    for corpus, out in ((CORPUS_TXT, "plain"), (marked, "marked")):
        assert run(capsys, "pretrain", "--corpus", str(corpus), "--out", str(tmp_path / out),
                   *shape)[0] == 0
    assert ((tmp_path / "marked" / "encoder.ckpt").read_bytes()
            == (tmp_path / "plain" / "encoder.ckpt").read_bytes())


def test_eval_on_empty_dataset_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out),
               *FAST)[0] == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text(HEADER + "\n")
    code, out, err = run(capsys, "eval", "--model", str(out / "model.ckpt"),
                         "--data", str(empty))
    assert (code, out, err) == (3, "", f"error: --data {empty} holds no rows\n")


def test_a_training_set_with_no_words_is_a_data_error_naming_it(tmp_path, capsys):
    data = tmp_path / "no_words.tsv"
    data.write_text(HEADER + "\na\t!!! ...\tNAG\tNGEN\tNCOM\nb\thttp://x.y ???\tCAG\tGEN\tCOM\n")
    code, out, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"))
    assert (code, out) == (3, "")
    assert err == f"error: {data}: no usable words; every text normalizes to nothing\n"
    assert not (tmp_path / "run").exists()


def test_empty_dev_split_is_a_data_error_naming_it(tmp_path, capsys):
    empty = tmp_path / "dev.tsv"
    empty.write_text(HEADER + "\n")
    code, out, err = run(capsys, "train", "--data", TRAIN_TSV, "--dev", str(empty), *FAST,
                         "--out", str(tmp_path / "run"))
    assert (code, out, err) == (3, "", f"error: --dev {empty} holds no rows\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm-start"])
def test_an_empty_training_set_is_a_data_error_naming_it(tmp_path, capsys, warm):
    pre = tmp_path / "pre"
    encoder = []
    if warm:
        assert run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--out", str(pre),
                   "--steps", "1", "--d-model", "16", "--n-heads", "2", "--d-ff", "32",
                   "--max-len", "12")[0] == 0
        encoder = ["--encoder", str(pre / "encoder.ckpt")]
    empty = tmp_path / "train.tsv"
    empty.write_text(HEADER + "\n")
    code, out, err = run(capsys, "train", "--data", str(empty), *encoder,
                         "--out", str(tmp_path / "run"))
    assert (code, out, err) == (3, "", f"error: --data {empty} holds no rows\n")
    assert not (tmp_path / "run").exists()


def test_an_empty_file_is_valid_where_nothing_is_learned_or_scored(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out), *FAST)[0] == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text(HEADER + "\n")
    code, stats, err = run(capsys, "stats", "--data", str(empty))
    assert (code, err) == (0, "")
    assert '"total":0' in stats
    pred = tmp_path / "pred.tsv"
    code, out, err = run(capsys, "predict", "--model", str(out / "model.ckpt"),
                         "--input", str(empty), "--output", str(pred))
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote 0 predictions to {pred}\n")
    assert pred.read_text().splitlines() == [HEADER]


@pytest.mark.parametrize("corpus", ["", "\n\n", "!!! ...\n  \nhttp://x.y ???\n"],
                         ids=["empty", "blank-lines", "no-words"])
def test_a_corpus_with_no_usable_sentence_is_a_data_error_naming_it(tmp_path, capsys,
                                                                     corpus):
    path = tmp_path / "corpus.txt"
    path.write_text(corpus)
    code, out, err = run(capsys, "pretrain", "--corpus", str(path),
                         "--out", str(tmp_path / "pre"))
    assert (code, out, err) == (3, "", f"error: {path}: no usable sentences\n")
    assert not (tmp_path / "pre").exists()


def test_pretrain_with_zero_steps_is_a_config_error(tmp_path, capsys):
    # named by its config key, whether the flag or the file set it
    message = "error: steps must be >= 1, got 0\n"
    code, out, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--steps", "0",
                         "--out", str(tmp_path / "pre"))
    assert (code, out, err) == (2, "", message)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"steps": 0}))
    code, out, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--config", str(config),
                         "--out", str(tmp_path / "pre"))
    assert (code, out, err) == (2, "", message)
    assert not (tmp_path / "pre").exists()


@pytest.mark.parametrize("flag, key, value, detail", [
    ("--batch-size", "batch_size", 0, "must be >= 1, got 0"),
    ("--lr", "base_lr", -1.0, "must be positive and finite, got -1.0"),
    ("--mask-rate", "mask_rate", 1.5, "must be in (0, 1], got 1.5"),
], ids=["batch-size", "lr", "mask-rate"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_pretrain_schedule_refusal_names_its_flag_and_config_key(tmp_path, capsys, flag, key,
                                                                  value, detail, source):
    if source == "flag":
        given = [flag, str(value)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        given = ["--config", str(config)]
    code, out, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--steps", "3", *given,
                         "--out", str(tmp_path / "pre"))
    assert (code, out, err) == (2, "", f"error: {key} {detail}\n")
    assert not (tmp_path / "pre").exists()


def test_pretrain_without_out_stops_before_training(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("pretrain_mlm ran before --out was checked")

    monkeypatch.setattr(importlib.import_module("trihead.cli"), "pretrain_mlm", must_not_run)
    code, _, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--steps", "3")
    assert code == 2
    assert "--out" in err


# what each command needs besides; the flag under test overrides its entry
COMMAND_NEEDS = {"train": {"--data": TRAIN_TSV, "--out": "run"},
                 "pretrain": {"--corpus": CORPUS_TXT, "--out": "run", "--steps": "1"},
                 "eval": {"--model": "model.ckpt", "--data": DEV_TSV},
                 "predict": {"--model": "model.ckpt", "--input": DEV_TSV, "--output": "p.tsv"},
                 "score": {"--gold": DEV_TSV, "--pred": DEV_TSV},
                 "stats": {"--data": TRAIN_TSV}}
# every path key, by command, with the flag that sets it
PATH_FLAGS = {"data": "--data", "dev": "--dev", "out": "--out", "encoder": "--encoder",
              "emoji_map": "--emoji-map"}
PATH_KEYS = [(command, key) for command, table in _COMMAND_KEYS.items()
             for key, default in table.items() if default is None]


@pytest.mark.parametrize("form", ["flag", "file"])
@pytest.mark.parametrize("command, key", PATH_KEYS, ids=[f"{c}-{k}" for c, k in PATH_KEYS])
def test_an_empty_path_is_a_config_error_naming_its_key(tmp_path, capsys, monkeypatch,
                                                         command, key, form):
    monkeypatch.chdir(tmp_path)
    flag = "--corpus" if (command, key) == ("pretrain", "data") else PATH_FLAGS[key]
    needs = {**COMMAND_NEEDS[command], flag: ""}
    if form == "file":  # a flag would win over the file's ""
        del needs[flag]
        (tmp_path / "c.json").write_text(json.dumps({key: ""}))
        needs["--config"] = "c.json"
    code, out, err = run(capsys, command, *(x for pair in needs.items() for x in pair))
    assert (code, out) == (2, "")
    assert f"error: {key!r} is an empty path" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["c.json"] if form == "file" else [])


# every path flag that sets no config key, by command
PATH_ONLY_FLAGS = [(command, "--config") for command in COMMAND_NEEDS] + [
    ("eval", "--model"), ("predict", "--model"), ("predict", "--input"),
    ("predict", "--output"), ("score", "--gold"), ("score", "--pred")]


@pytest.mark.parametrize("command, flag", PATH_ONLY_FLAGS,
                         ids=[f"{c}-{f[2:]}" for c, f in PATH_ONLY_FLAGS])
def test_an_empty_path_flag_is_a_config_error_naming_it(tmp_path, capsys, monkeypatch,
                                                         command, flag):
    monkeypatch.chdir(tmp_path)
    needs = {**COMMAND_NEEDS[command], flag: ""}
    code, out, err = run(capsys, command, *(x for pair in needs.items() for x in pair))
    assert (code, out, err) == (2, "", f"error: {flag} is an empty path\n")
    assert list(tmp_path.iterdir()) == []


# each command's flags: the path flags that set no key, one flag per config
# key (freeze is a config-file key only) and --config; ENCODER_FLAGS are
# those of the keys both commands that build an encoder read
ENCODER_FLAGS = {"--d-model", "--n-layers", "--n-heads", "--d-ff", "--max-len", "--dropout",
               "--vocab-target-size", "--emoji-map", "--out", "--warmup-steps", "--seed"}
COMMAND_FLAGS = {
    "train": ENCODER_FLAGS | {"--data", "--dev", "--pooler", "--encoder", "--epochs",
                              "--batch-size", "--base-lr", "--balance", "--config"},
    "pretrain": ENCODER_FLAGS | {"--corpus", "--steps", "--batch-size", "--lr",
                                 "--mask-rate", "--config"},
    "eval": {"--model", "--data", "--seed", "--config"},
    "predict": {"--model", "--input", "--output", "--seed", "--config"},
    "score": {"--gold", "--pred", "--seed", "--config"},
    "stats": {"--data", "--seed", "--config"},
}


def subparsers() -> dict:
    parser = build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_command_takes_exactly_its_flags():
    commands = subparsers()
    assert sorted(commands) == sorted(COMMAND_FLAGS)
    for command, p in commands.items():
        actions = [a for a in p._actions if a.dest != "help"]
        assert {flag for a in actions for flag in a.option_strings} == COMMAND_FLAGS[command]
        assert all(len(a.option_strings) == 1 for a in actions), command
        path_only = {flag[2:] for c, flag in PATH_ONLY_FLAGS if c == command} - {"config"}
        assert {a.dest for a in actions if a.required} == path_only, command
        assert {a.dest for a in actions} == \
            (set(_COMMAND_KEYS[command]) - {"freeze"}) | path_only | {"config"}, command


KEY_FLAGS = [(command, key) for command, table in _COMMAND_KEYS.items()
             for key in table if key != "freeze"]


@pytest.mark.parametrize("command, key", KEY_FLAGS, ids=[f"{c}-{k}" for c, k in KEY_FLAGS])
def test_a_key_flag_parses_into_its_key_typed_by_its_default(command, key):
    default = _COMMAND_KEYS[command][key]
    flag, = next(a.option_strings for a in subparsers()[command]._actions if a.dest == key)
    given = {bool: [], int: ["7"], float: ["0.5"], str: ["mean"], type(None): ["x.tsv"]}
    want = {bool: True, int: 7, float: 0.5, str: "mean", type(None): "x.tsv"}
    needs = [x for pair in COMMAND_NEEDS[command].items() for x in pair if pair[0] != flag]
    args = build_parser().parse_args([command, *needs, flag, *given[type(default)]])
    value = getattr(args, key)
    assert value == want[type(default)]
    assert type(value) is (str if default is None else type(default))


def test_pretrain_warmup_flag_equals_the_config_key(tmp_path, capsys):
    config = tmp_path / "warmup.json"
    config.write_text(json.dumps({"warmup_steps": 10}))
    argv = ["pretrain", "--corpus", CORPUS_TXT, "--steps", "12", "--d-model", "16",
            "--d-ff", "32", "--max-len", "12"]
    for name, extra in (("flag", ["--warmup-steps", "10"]), ("file", ["--config", str(config)]),
                        ("none", [])):
        code, _, err = run(capsys, *argv, *extra, "--out", str(tmp_path / name))
        assert code == 0, err
    encoder = {name: (tmp_path / name / "encoder.ckpt").read_bytes()
               for name in ("flag", "file", "none")}
    assert encoder["flag"] == encoder["file"]
    assert encoder["flag"] != encoder["none"]  # the warmup took effect


def test_an_emoji_map_of_only_comments_trains_as_no_map_does(tmp_path, capsys):
    emoji_map = tmp_path / "emoji.tsv"
    emoji_map.write_text("# no entries yet\n\n", encoding="utf-8")
    runs = []
    for name, given in (("plain", []), ("mapped", ["--emoji-map", str(emoji_map)])):
        code, out, err = run(capsys, "train", "--data", TRAIN_TSV, *FAST, "--seed", "3",
                             "--out", str(tmp_path / name), *given)
        assert (code, err) == (0, "")
        runs.append([out, *((tmp_path / name / f).read_bytes()
                            for f in ("model.ckpt", "trace.csv"))])
    assert runs[0] == runs[1]


def test_an_emoji_map_key_normalize_keeps_exits_3(tmp_path, capsys):
    emoji_map = tmp_path / "emoji.tsv"
    emoji_map.write_text("a\tab\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, *FAST,
                       "--emoji-map", str(emoji_map))
    assert code == 3
    assert "emoji map: key 'a' holds no emoji or punctuation" in err


@pytest.mark.parametrize("command, argv, run_name", [
    ("train", ["--data", TRAIN_TSV, *FAST], "train"),
    ("pretrain", ["--corpus", CORPUS_TXT, "--steps", "3"], "pretrain_mlm"),
], ids=["train", "pretrain"])
def test_out_that_cannot_be_made_stops_before_training(tmp_path, capsys, monkeypatch,
                                                       command, argv, run_name):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{run_name} ran before --out was made")

    monkeypatch.setattr(importlib.import_module("trihead.cli"), run_name, must_not_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, command, *argv, "--out", str(blocker / "x"))
    assert code == 2
    assert str(blocker / "x") in err


@pytest.mark.parametrize("command, argv, run_name", [
    ("train", ["--data", TRAIN_TSV, *FAST], "train"),
    ("pretrain", ["--corpus", CORPUS_TXT, "--steps", "3"], "pretrain_mlm"),
], ids=["train", "pretrain"])
def test_out_naming_an_existing_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       command, argv, run_name):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{run_name} ran with --out naming a file")

    monkeypatch.setattr(importlib.import_module("trihead.cli"), run_name, must_not_run)
    existing = tmp_path / "model.ckpt"
    existing.write_text("")
    code, _, err = run(capsys, command, *argv, "--out", str(existing))
    assert (code, err) == (2, f"error: --out {existing} is a file, not a directory\n")
    assert existing.read_text() == ""


@pytest.mark.parametrize("argv, file_values", [
    (["train", "--data", TRAIN_TSV, *FAST, "--seed", "-1"], {}),
    (["train", "--data", TRAIN_TSV, *FAST, "--balance", "--seed", "-1"], {}),
    (["pretrain", "--corpus", CORPUS_TXT, "--steps", "3", "--seed", "-1"], {}),
    (["train", "--data", TRAIN_TSV, *FAST], {"seed": -1}),
], ids=["train", "train-balance", "pretrain", "config-file"])
def test_negative_seed_is_a_config_error_naming_it(tmp_path, capsys, argv, file_values):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_values))
    code, _, err = run(capsys, *argv, "--config", str(config), "--out", str(tmp_path / "run"))
    assert code == 2
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("file_values, message", [
    ({"freeze": ["nope."]}, "freeze prefix 'nope.' matches no parameter of the model"),
    ({"freeze": ["pooler."], "pooler": "mean"},
     "freeze prefix 'pooler.' matches no parameter of the model"),
    ({"freeze": ["encoder.mlm_bias"]},
     "freeze prefix 'encoder.mlm_bias' matches no parameter of the model"),
    ({"freeze": [""]}, "freeze [''] leaves no parameter to train"),
], ids=["unmatched", "mean-pooler", "mlm-bias", "everything"])
def test_freeze_that_matches_nothing_or_everything_is_a_config_error(
        tmp_path, capsys, monkeypatch, file_values, message):
    def must_not_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(importlib.import_module("trihead.optim").AdamW, "step",
                        must_not_step)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_values))
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, *FAST, "--config", str(config),
                       "--out", str(tmp_path / "run"))
    assert (code, err) == (2, f"error: {message}\n")
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_pretrain_rejects_a_negative_warmup_as_train_does(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"warmup_steps": -5}))
    for argv in (["train", "--data", TRAIN_TSV, *FAST],
                 ["pretrain", "--corpus", CORPUS_TXT, "--steps", "3"]):
        code, _, err = run(capsys, *argv, "--config", str(config),
                           "--out", str(tmp_path / "run"))
        assert (code, err) == (2, "error: warmup_steps must be nonnegative\n"), argv[0]
    assert not (tmp_path / "run" / "pretrain_trace.csv").exists()


def test_divergent_run_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--epochs", "30", "--d-model", "16", "--n-heads", "2",
                       "--d-ff", "32", "--max-len", "12",
                       "--base-lr", "1e12")
    assert code == 4
    assert "step" in err


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

    def poison_step_2(grad, *layout):
        if len(calls) == 2:
            grad[0] = np.nan
        calls.append(grad.size)
        return real_clip(grad, *layout)

    # both loops clip inside optim.AdamW.step, never on their own;
    # trihead.train is also the name of a function, so import the module
    assert not hasattr(importlib.import_module(module), "clip_global_norm")
    monkeypatch.setattr(importlib.import_module("trihead.optim"), "clip_global_norm",
                        poison_step_2)
    code, _, err = run(capsys, command, *argv, "--out", str(tmp_path / "run"))
    assert code == 4
    assert "non-finite gradient norm at step 2" in err
    assert len(calls) == 3


def test_dev_eval_overflow_exits_4_naming_the_last_step(tmp_path, capsys):
    # one huge step leaves finite weights whose dev forward overflows
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, "--dev", DEV_TSV,
                       "--epochs", "2", "--batch-size", "100000", "--d-model", "16",
                       "--max-len", "12", "--base-lr", "1e20", "--out", str(tmp_path / "run"))
    assert code == 4
    assert "error: non-finite dev-eval activations at step 0" in err


def test_train_eval_overflow_exits_4_naming_the_last_step(tmp_path, capsys):
    # without --dev the report scores the training set, and that forward
    # overflows on the finite weights one huge step leaves; a loaded
    # checkpoint that overflows stays a data error (exit 3), tested below
    code, out, err = run(capsys, "train", "--data", TRAIN_TSV, "--epochs", "1",
                         "--batch-size", "100000", "--d-model", "16", "--max-len", "12",
                         "--base-lr", "1e18", "--out", str(tmp_path / "run"))
    assert (code, out, err) == (4, "", "error: non-finite train-eval activations at step 0\n")
    assert list((tmp_path / "run").iterdir()) == []  # a diverged run saves nothing


# far below what these sizes ask for, and room enough for everything else
ADDRESS_SPACE_CAP = 3 << 30


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


# past numpy's own size limit: its shape check fails before any allocation
HUGE, INT64_MAX = "100000000000000000000", str(2**63 - 1)


@pytest.mark.parametrize("argv, row_tokens, message, seconds", [
    (["train", "--d-model", "100000", "--n-heads", "1"], None,
     "parameter 'encoder.layer0.attn.wq' of shape (100000, 100000) does not fit in memory",
     60),
    (["train", "--max-len", "1000000000"], None,
     "max_len 1000000000: 64 rows of 1000000000 token ids", 60),
    (["train", "--max-len", HUGE], None, f"max_len {HUGE}: 64 rows", 5),
    (["train", "--max-len", INT64_MAX], None, f"max_len {INT64_MAX}: 64 rows", 5),
    (["pretrain", "--max-len", HUGE], None, f"max_len {HUGE}: 200 rows", 5),
    (["pretrain", "--max-len", INT64_MAX], None, f"max_len {INT64_MAX}: 200 rows", 5),
    # the attention scores of one training batch, as numpy names them; a
    # batch is cut to its longest row, so the rows fill max_len
    (["train", "--max-len", "20000"], 20000, "shape (8, 2, 20000, 20000)", 60),
    # every layer is small: the table is sized before any of it is allocated
    (["train", "--n-layers", "100000000"], None, "n_layers=100000000", 5),
    # the table alone fits: seven times it (its gradients, and AdamW's
    # gradient, moment and float64 square buffers) does not
    (["train", "--n-layers", "9000"], None, "n_layers=9000", 5),
], ids=["d-model", "max-len-ids", "max-len-1e20", "max-len-int64", "pretrain-max-len-1e20",
        "pretrain-max-len-int64", "max-len-batch", "n-layers-1e8", "n-layers-9000"])
def test_size_no_memory_holds_is_a_config_error(tmp_path, argv, row_tokens, message,
                                                 seconds):
    data = TRAIN_TSV if argv[0] == "train" else CORPUS_TXT
    if row_tokens is not None:
        data = tmp_path / "long.tsv"
        row = " ".join(["khub"] * row_tokens)
        data.write_text("\n".join([HEADER, *(f"r{i}\t{row}\tNAG\tNGEN\tNCOM"
                                             for i in range(8))]) + "\n",
                        encoding="utf-8")
    # run only under the address-space cap: uncapped, these sizes may
    # take the machine's memory before numpy gives up
    proc = subprocess.run(
        [sys.executable, "-m", "trihead.cli", argv[0],
         "--data" if argv[0] == "train" else "--corpus", str(data),
         "--out", str(tmp_path / "run"), *argv[1:]],
        preexec_fn=cap_address_space, capture_output=True, text=True, timeout=seconds,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr


def run_capped(argv, cwd, cap=ADDRESS_SPACE_CAP, seconds=CASE_SECONDS):
    """`trihead argv` in a subprocess in cwd, its address space capped, so
    that reading without end fails the test instead of the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return subprocess.run(
        [sys.executable, "-m", "trihead.cli", *argv], cwd=cwd, preexec_fn=limit,
        capture_output=True, text=True, timeout=seconds,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join(sys.path)})


# one command per flag that names an input file, the file last
INPUT_FLAGS = {
    "--model": ["eval", "--data", TRAIN_TSV, "--model"],
    "--data": ["stats", "--data"],
    "--corpus": ["pretrain", "--out", "run", "--corpus"],
    "--emoji-map": ["train", "--data", TRAIN_TSV, "--out", "run", "--emoji-map"],
    "--config": ["stats", "--data", TRAIN_TSV, "--config"],
    "--encoder": ["train", "--data", TRAIN_TSV, "--out", "run", "--encoder"],
}


@pytest.mark.parametrize("kind", ["dev-zero", "fifo"])
@pytest.mark.parametrize("flag", list(INPUT_FLAGS))
def test_non_regular_input_file_exits_3_at_once(tmp_path, flag, kind):
    # /dev/zero reads without end; opening a FIFO waits for a writer that never comes
    path = "/dev/zero"
    if kind == "fifo":
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
    proc = run_capped([*INPUT_FLAGS[flag], path], tmp_path)
    assert (proc.returncode, proc.stderr) == (3, f"error: {path}: not a regular file\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [["stats", "--data"], ["eval", "--data", TRAIN_TSV, "--model"]],
                         ids=["text", "checkpoint"])
def test_input_file_too_large_to_read_names_itself(tmp_path, argv):
    big = tmp_path / "big.tsv"
    with open(big, "wb") as fh:
        fh.truncate(3 << 30)  # sparse: takes no disk
    proc = run_capped([*argv, str(big)], tmp_path, cap=1536 << 20)
    assert (proc.returncode, proc.stderr) == (
        3, f"error: {big}: too large to read ({3 << 30} bytes)\n")


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", TRAIN_TSV, "--d-model", "16", "--max-len", "12",
      "--base-lr", "1e30"], "non-finite gradient norm at step 1"),
    (["pretrain", "--corpus", CORPUS_TXT, "--out", "run", "--lr", "1e300",
      "--d-model", "16", "--max-len", "16"], "non-finite loss at step 1"),
    # one step whose update overflows: no later step reads the weights
    (["train", "--data", TRAIN_TSV, "--d-model", "16", "--max-len", "12",
      "--base-lr", "1e300", "--batch-size", "100000", "--epochs", "1"],
     "non-finite parameters at step 0"),
    (["pretrain", "--corpus", CORPUS_TXT, "--out", "run", "--lr", "1e300", "--steps", "1",
      "--d-model", "16", "--max-len", "16"], "non-finite parameters at step 0"),
], ids=["train", "pretrain", "train-one-step", "pretrain-one-step"])
def test_diverged_run_prints_one_error_line(tmp_path, argv, message):
    proc = run_capped(argv, tmp_path, seconds=60)
    assert (proc.returncode, proc.stderr) == (4, f"error: {message}\n")


def test_warmup_as_long_as_the_run_is_refused_before_any_work(tmp_path, capsys):
    code, _, err = run(capsys, "pretrain", "--corpus", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path / "run"), "--steps", "5", "--warmup-steps", "5")
    assert (code, err) == (2, "error: warmup_steps (5) must be below total steps (5)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("balanced", [False, True])
def test_train_warmup_as_long_as_the_run_is_refused_before_out_is_made(tmp_path, capsys,
                                                                       balanced):
    # 64 rows in batches of 8: 8 steps; --balance adds rows, and the check
    # counts the rows the run would step over
    rows = len(load_dataset(TRAIN_TSV))
    if balanced:
        rows = len(balance(load_dataset(TRAIN_TSV), seed=42))
    steps = -(-rows // 8)
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, "--epochs", "1",
                       "--warmup-steps", str(steps), "--out", str(tmp_path / "wr"),
                       *(["--balance"] if balanced else []))
    assert (code, err) == (2, f"error: warmup_steps ({steps}) must be below total steps "
                              f"({steps})\n")
    assert not (tmp_path / "wr").exists()
    assert (rows, steps) == ((72, 9) if balanced else (64, 8))


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


def test_train_without_dev_encodes_the_training_set_once(capsys, monkeypatch):
    module = importlib.import_module("trihead.train")
    real_encode, calls = module._encode, []

    def counted(texts, *args):
        calls.append(len(texts))
        return real_encode(texts, *args)

    monkeypatch.setattr(module, "_encode", counted)
    assert run(capsys, "train", "--data", TRAIN_TSV, *FAST)[0] == 0
    assert calls == [64]  # the report scores the batch the run trained on


def test_train_without_dev_prints_what_eval_of_its_model_prints(tmp_path, capsys):
    out = tmp_path / "run"
    code, trained, _ = run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out), *FAST)
    assert code == 0
    code, evaluated, _ = run(capsys, "eval", "--model", str(out / "model.ckpt"),
                             "--data", TRAIN_TSV)
    assert code == 0
    assert trained == evaluated


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
    shape = {"d_model": 64, "n_layers": 2, "n_heads": 2, "d_ff": 128, "max_len": 48,
             "dropout_p": 0.3, "vocab_target_size": 200,
             "data": None, "emoji_map": None, "out": None}
    assert _COMMAND_KEYS == {
        "train": {**shape, "epochs": 5, "batch_size": 8, "base_lr": 2e-5,
                  "warmup_steps": 0, "seed": 42, "pooler": "attention",
                  "freeze": (), "balance": False,
                  "dev": None, "encoder": None},
        "pretrain": {**shape, "steps": 300, "batch_size": 8, "base_lr": 1e-3,
                     "warmup_steps": 0, "mask_rate": 0.15, "seed": 42},
        "eval": {"data": None, "seed": 42},
        "stats": {"data": None, "seed": 42},
        "predict": {"seed": 42},
        "score": {"seed": 42},
    }


@pytest.mark.parametrize("argv, key", [
    (["train", "--data", TRAIN_TSV, *FAST], "steps"),
    (["pretrain", "--corpus", CORPUS_TXT, "--out", "unused"], "pretrain_steps"),
    (["eval", "--model", "unused.ckpt", "--data", TRAIN_TSV], "out"),
    (["stats", "--data", TRAIN_TSV], "out"),
    (["predict", "--model", "unused.ckpt", "--input", TRAIN_TSV, "--output", "unused.tsv"],
     "data"),
    (["score", "--gold", TRAIN_TSV, "--pred", TRAIN_TSV], "data"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_each_command_refuses_a_config_key_it_does_not_read(tmp_path, capsys, argv, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: "x"}))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {config}: trihead {argv[0]} reads no config keys [{key!r}]\n"


def test_pretrain_refuses_the_fine_tuning_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"freeze": ["nope."], "pooler": "mean", "epochs": 3}))
    code, _, err = run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--steps", "2",
                       "--out", str(tmp_path / "pre"), "--config", str(config))
    assert code == 2
    assert "trihead pretrain reads no config keys ['epochs', 'freeze', 'pooler']" in err
    assert not (tmp_path / "pre" / "encoder.ckpt").exists()


def test_train_refuses_task_loss_weights(tmp_path, capsys):
    # the step loss is the plain sum of the three task losses; no key weights them
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"task_loss_weights": [1, 1, 1]}))
    code, out, err = run(capsys, "train", "--data", TRAIN_TSV, *FAST,
                         "--out", str(tmp_path / "run"), "--config", str(config))
    assert (code, out) == (2, "")
    assert "trihead train reads no config keys ['task_loss_weights']" in err
    assert not (tmp_path / "run").exists()


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
    # the header's numbers must not size anything before they match the file
    (lambda h: h["encoder_config"].update(d_model=100000), 0,
     "parameter 'encoder.tok_emb' has shape"),
    (lambda h: h["encoder_config"].update(max_len=10**9), 0,
     "parameter 'encoder.pos_emb' has shape (12, 16), expected (1000000000, 16)"),
    (lambda h: h["encoder_config"].update(n_layers=100000), 0,
     "unexpected parameter 'encoder.ln_f.gamma', expected 'encoder.layer2.ln1.gamma'"),
    (lambda h: h["encoder_config"].update(n_layers=10**9), 0,
     "unexpected parameter 'encoder.ln_f.gamma', expected 'encoder.layer2.ln1.gamma'"),
], ids=["missing-param", "meta-list", "bad-pooler", "float-d-model", "emoji-map-list",
        "int-token", "huge-d-model", "huge-max-len", "n-layers-1e5", "n-layers-1e9"])
def test_hand_edited_checkpoint_is_a_data_error(trained, tmp_path, capsys,
                                                edit, drop_tail, message):
    bad = edit_checkpoint(trained, tmp_path / "bad.ckpt", edit, drop_tail)
    for argv in (["eval", "--model", str(bad), "--data", DEV_TSV],
                 ["predict", "--model", str(bad), "--input", DEV_TSV,
                  "--output", str(tmp_path / "pred.tsv")]):
        with deadline():
            code, _, err = run(capsys, *argv)
        assert code == 3
        assert message in err


def test_a_checkpoint_whose_emoji_map_key_normalize_keeps_exits_3(trained, tmp_path,
                                                                   capsys):
    bad = edit_checkpoint(trained, tmp_path / "bad.ckpt",
                          lambda h: h["meta"].update(emoji_map={"ab": "x"}), 0)
    code, _, err = run(capsys, "eval", "--model", str(bad), "--data", DEV_TSV)
    assert code == 3
    assert "emoji map: key 'ab' holds no emoji or punctuation" in err


@pytest.mark.parametrize("name, value, message", [
    ("encoder.tok_emb", math.nan, "parameter 'encoder.tok_emb' contains NaN or Inf"),
    ("encoder.tok_emb", math.inf, "parameter 'encoder.tok_emb' contains NaN or Inf"),
    ("encoder.tok_emb", -math.inf, "parameter 'encoder.tok_emb' contains NaN or Inf"),
    ("encoder.layer0.attn.wq", 3e38, "forward pass overflows float32"),
], ids=["nan", "inf", "-inf", "overflow"])
def test_nonfinite_weight_is_a_data_error(trained, tmp_path, capsys, name, value, message):
    raw = bytearray(trained.read_bytes())
    (hlen,) = struct.unpack("<I", raw[8:12])
    at = 12 + hlen
    for entry in json.loads(raw[12:12 + hlen])["params"]:
        if entry["name"] == name:
            break
        at += 4 * math.prod(entry["shape"])
    raw[at:at + 4] = struct.pack("<f", value)  # the parameter's first value
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with deadline():
        code, _, err = run(capsys, "eval", "--model", str(bad), "--data", DEV_TSV)
    assert code == 3
    assert message in err


# ---------------------------------------------------------------------------
# checkpoint fuzz: any damage to a model file ends in an exit code, never a
# traceback or a hang


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A d=16 one-layer model file and a four-row dataset to evaluate it on."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = ["ami bhalo achi", "tumi ke", "khub kharap", "aj shanto din"]
    vocab = build_vocab(texts, target_size=24)
    config = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
                           d_ff=32, max_len=8, dropout_p=0.1)
    save_checkpoint(Checkpoint(kind="model", config=config, vocab=vocab,
                               pooler_kind="attention",
                               params=init_model_params(config, "attention", 0),
                               meta={"seed": 0},
                               emoji_map=EmojiMap({"\U0001F600": "hasi"})),
                    root / "model.ckpt")
    data = root / "data.tsv"
    data.write_text(HEADER + "\n" + "".join(f"r{i}\t{t}\tNAG\tNGEN\tNCOM\n"
                                           for i, t in enumerate(texts)))
    return (root / "model.ckpt").read_bytes(), root, data


def exit_code_in(root, *argv):
    """Exit code and output of `trihead argv` run in this process, in
    directory root, under the per-case deadline; any exception propagates."""
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with deadline(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, sink.getvalue()


def eval_exit_code(raw, root, data):
    """exit_code_in for `trihead eval` on a model file holding raw."""
    model = root / "case.ckpt"
    model.write_bytes(raw)
    return exit_code_in(root, "eval", "--model", str(model), "--data", str(data))


def json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from json_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from json_paths(child, path + (i,))


FUZZ_VALUES = (None, -1, 0, 2**40, 1.5, math.nan, "x", [], {}, True)


def test_every_header_value_swap_ends_in_an_exit_code(tiny_model):
    raw, root, data = tiny_model
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    blobs = raw[12 + hlen:]
    cases = 0
    for path in json_paths(header):
        for value in FUZZ_VALUES:
            edited = copy.deepcopy(header)
            if path:
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(value)
            else:
                edited = copy.deepcopy(value)
            blob = json.dumps(edited, sort_keys=True, separators=(",", ":")).encode()
            code, out = eval_exit_code(raw[:8] + struct.pack("<I", len(blob)) + blob + blobs,
                                       root, data)
            assert code in (0, 2, 3, 4), (path, value, out)
            cases += 1
    assert cases > 1000


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cut=st.none() | st.integers(min_value=1),
       flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=4),
       weight=st.none() | st.tuples(st.integers(min_value=0), st.integers(min_value=0),
                                    st.floats(width=32)))
def test_damaged_model_file_ends_in_an_exit_code(tiny_model, cut, flips, weight):
    raw, root, data = tiny_model
    damaged = bytearray(raw)
    if weight is not None:  # one value of one parameter: NaN, Inf and float32 extremes too
        (hlen,) = struct.unpack("<I", raw[8:12])
        sizes = [math.prod(e["shape"]) for e in json.loads(raw[12:12 + hlen])["params"]]
        param, index, value = weight[0] % len(sizes), weight[1], weight[2]
        at = 12 + hlen + 4 * (sum(sizes[:param]) + index % sizes[param])
        damaged[at:at + 4] = struct.pack("<f", value)
    for at, mask in flips:
        damaged[at % len(damaged)] ^= mask
    if cut is not None:
        del damaged[len(damaged) - cut % len(damaged):]
    code, out = eval_exit_code(bytes(damaged), root, data)
    assert code in (0, 2, 3, 4), out


# ---------------------------------------------------------------------------
# fuzzed dataset, label and config files


FUZZ_ROWS = (("r0", "ami bhalo achi", "NAG", "NGEN", "NCOM"),
             ("r1", "tui ekta chagol", "OAG", "GEN", "NCOM"),
             ("r2", "khub kharap kotha", "CAG", "NGEN", "COM"),
             ("r3", "aj shanto din", "NAG", "GEN", "COM"))
LABEL_JUNK = ("", "nag", "OAG ", "GEN", "NCOM\r", "COM,NCOM", "\u00c7AG")


def tsv(lines) -> str:
    return "".join("\t".join(line) + "\n" for line in lines)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A scratch directory holding gold.tsv, four valid labeled rows."""
    root = tmp_path_factory.mktemp("files")
    (root / "gold.tsv").write_text(tsv([HEADER.split("\t"), *FUZZ_ROWS]), encoding="utf-8")
    return root


@st.composite
def damaged_tables(draw):
    """The four rows as a labeled dataset or as a scorer's text-less label
    file, with columns swapped (on one line or all), bad labels and
    duplicated ids, then byte flips and a cut."""
    lines = [HEADER.split("\t"), *map(list, FUZZ_ROWS)]
    if draw(st.booleans()):
        lines = [[line[0], *line[2:]] for line in lines]
    width = len(lines[0])
    column = st.integers(0, width - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("swap", "label", "duplicate id")))
        if kind == "swap":
            i, j = draw(column), draw(column)
            at = draw(st.none() | st.integers(0, len(lines) - 1))
            for line in lines if at is None else [lines[at]]:
                line[i], line[j] = line[j], line[i]
        elif kind == "label":
            row = draw(st.integers(1, len(lines) - 1))
            lines[row][draw(st.integers(width - 3, width - 1))] = draw(
                st.sampled_from(LABEL_JUNK) | st.text(max_size=4))
        else:
            src, dst = draw(st.integers(1, len(lines) - 1)), draw(st.integers(1, len(lines) - 1))
            lines[dst][0] = lines[src][0]
    raw = bytearray(tsv(lines).encode())
    for at, mask in draw(st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                                  max_size=3)):
        raw[at % len(raw)] ^= mask
    cut = draw(st.none() | st.integers(min_value=0))
    return bytes(raw if cut is None else raw[:cut % (len(raw) + 1)])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(table=damaged_tables())
def test_damaged_dataset_and_label_files_end_in_an_exit_code(fuzz_root, table):
    (fuzz_root / "case.tsv").write_bytes(table)
    for argv in (["stats", "--data", "case.tsv"],
                 ["score", "--gold", "case.tsv", "--pred", "gold.tsv"],
                 ["score", "--gold", "gold.tsv", "--pred", "case.tsv"]):
        code, out = exit_code_in(fuzz_root, *argv)
        assert code in (0, 2, 3, 4), (argv, out)


CONFIG_KEYS = sorted(_COMMAND_KEYS["train"])
CONFIG_JUNK = (None, -1, 0, 1.5, math.nan, math.inf, "x", "", [], {}, True, [1.0], ["x"])
# a one-epoch d=16 run on gold.tsv, so that a config that passes trains fast
FUZZ_CONFIG = {"data": "gold.tsv", "epochs": 1, "n_layers": 1, "d_model": 16,
               "n_heads": 2, "d_ff": 32, "max_len": 12}


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(edits=st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_JUNK),
                             max_size=2),
       cut=st.none() | st.integers(min_value=0))
def test_damaged_config_file_ends_in_an_exit_code(fuzz_root, edits, cut):
    raw = json.dumps({**FUZZ_CONFIG, **edits}).encode()
    (fuzz_root / "case.json").write_bytes(raw if cut is None else raw[:cut % (len(raw) + 1)])
    code, out = exit_code_in(fuzz_root, "train", "--config", "case.json")
    assert code in (0, 2, 3, 4), (edits, out)


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


def test_predict_ignores_the_labels_of_a_labelled_input(trained, tmp_path, capsys):
    # `predict --help` says labels, if present, are ignored: an aggression
    # label outside its closed set is not predict's to refuse
    inp = tmp_path / "in.tsv"
    inp.write_text(f"{HEADER}\nq1\tki khobor\tXAG\tNGEN\tNCOM\n", encoding="utf-8")
    outp = tmp_path / "out.tsv"
    code, _, err = run(capsys, "predict", "--model", str(trained),
                       "--input", str(inp), "--output", str(outp))
    assert code == 0, err
    assert [ex.id for ex in load_dataset(outp)] == ["q1"]


@pytest.mark.parametrize("output, flag", [("model.ckpt", "--model"), ("in.tsv", "--input"),
                                          (".", "--output"), ("nodir/p.tsv", "--output")],
                         ids=["model", "input", "directory", "missing-directory"])
def test_predict_output_that_clobbers_an_input_is_a_config_error(trained, tmp_path, capsys,
                                                                 monkeypatch, output, flag):
    monkeypatch.chdir(tmp_path)
    shutil.copy(trained, "model.ckpt")
    shutil.copy(DEV_TSV, "in.tsv")
    before = {name: Path(name).read_bytes() for name in ("model.ckpt", "in.tsv")}
    output = tmp_path / output  # an absolute spelling of a relative path is the same file
    code, out, err = run(capsys, "predict", "--model", "model.ckpt", "--input", "in.tsv",
                         "--output", str(output))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --output {output} ") and flag in err
    assert {name: Path(name).read_bytes() for name in before} == before


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
    assert "encoder.mlm_bias" in ck.params
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


def test_warm_start_records_the_dropout_of_the_run(tmp_path, capsys):
    pre = tmp_path / "pre"
    assert run(capsys, "pretrain", "--corpus", CORPUS_TXT, "--out", str(pre),
               "--steps", "3", "--d-model", "16", "--n-heads", "2",
               "--d-ff", "32", "--max-len", "12", "--dropout", "0.1")[0] == 0
    assert load_checkpoint(pre / "encoder.ckpt").config.dropout_p == 0.1
    for given, want in ((["--dropout", "0.2"], 0.2), ([], 0.3)):
        out = tmp_path / f"run{want}"
        assert run(capsys, "train", "--data", TRAIN_TSV, "--encoder", str(pre / "encoder.ckpt"),
                   "--out", str(out), "--epochs", "1", *given)[0] == 0
        assert load_checkpoint(out / "model.ckpt").config.dropout_p == want


@pytest.fixture(scope="module")
def mapped_encoder(tmp_path_factory):
    """An encoder pretrained under a one-entry emoji map, and that map's file."""
    root = tmp_path_factory.mktemp("mapped")
    emoji_map = root / "emoji.tsv"
    emoji_map.write_text("\U0001F600\thasi\n", encoding="utf-8")
    code, _ = exit_code_in(root, "pretrain", "--corpus", CORPUS_TXT, "--out", "pre",
                           "--steps", "3", "--d-model", "16", "--n-heads", "2",
                           "--d-ff", "32", "--max-len", "12", "--emoji-map", str(emoji_map))
    assert code == 0
    return root / "pre" / "encoder.ckpt", emoji_map


def test_warm_start_inherits_the_encoders_emoji_map(tmp_path, capsys, mapped_encoder):
    encoder, _ = mapped_encoder
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--encoder", str(encoder),
               "--out", str(out), "--epochs", "1")[0] == 0
    model = load_checkpoint(out / "model.ckpt")
    assert model.emoji_map.entries == load_checkpoint(encoder).emoji_map.entries


@pytest.mark.parametrize("how, words", [
    ("flag", "hashi"), ("config-file", "hashi"), ("flag", "hasi"),
], ids=["different-flag", "different-config-file", "same-flag"])
def test_warm_start_emoji_map_must_match_the_encoders(tmp_path, capsys, mapped_encoder,
                                                       how, words):
    encoder, _ = mapped_encoder
    given = tmp_path / "emoji.tsv"
    given.write_text(f"\U0001F600\t{words}\n", encoding="utf-8")
    if how == "flag":
        extra = ["--emoji-map", str(given)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"emoji_map": str(given)}))
        extra = ["--config", str(config)]
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, "--encoder", str(encoder),
                       "--out", str(tmp_path / "run"), "--epochs", "1", *extra)
    if words == "hasi":
        assert code == 0
    else:
        assert code == 2
        assert "--emoji-map" in err and str(given) in err and str(encoder) in err


@pytest.mark.parametrize("key, value, how", [
    ("d_model", 32, "flag"), ("n_layers", 1, "flag"), ("n_heads", 4, "flag"),
    ("d_ff", 64, "flag"), ("max_len", 48, "flag"), ("max_len", 48, "config-file"),
    ("vocab_target_size", 500, "flag"), ("d_model", 16, "flag"),
], ids=["d-model", "n-layers", "n-heads", "d-ff", "max-len", "max-len-config-file",
        "vocab-target-size", "same-d-model"])
def test_warm_start_shape_must_match_the_encoders(tmp_path, capsys, mapped_encoder,
                                                  key, value, how):
    # the encoder: d_model 16, 2 layers, 2 heads, d_ff 32, max_len 12
    encoder, _ = mapped_encoder
    warm = load_checkpoint(encoder)
    have = warm.vocab.size if key == "vocab_target_size" else getattr(warm.config, key)
    flag = "--" + key.replace("_", "-")
    if how == "flag":
        extra = [flag, str(value)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        extra = ["--config", str(config)]
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV, "--encoder", str(encoder),
                       "--out", str(tmp_path / "run"), "--epochs", "1", *extra)
    if value == have:
        assert code == 0
    else:
        assert code == 2
        assert f"error: {flag} {value} differs from " in err
        assert f" {have} --encoder {encoder} " in err


def test_warm_start_rejects_full_model_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, "train", "--data", TRAIN_TSV, "--out", str(out),
               *FAST)[0] == 0
    code, _, err = run(capsys, "train", "--data", TRAIN_TSV,
                       "--encoder", str(out / "model.ckpt"))
    assert code == 3
    assert "encoder-only" in err


def test_console_script_is_installed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "trihead.cli", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "score" in proc.stdout


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_every_command_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: trihead {command} ")
