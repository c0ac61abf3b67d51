"""Command-line surface: pretrain, train, eval, predict, score, stats.

Every run is a single non-interactive process. Settings come from an
optional flat JSON config file; explicitly-given flags win over file
values, file values win over built-in defaults. Every config key a command
reads (_COMMAND_KEYS) is also a flag, "--" plus the key with "_" turned
into "-" (a few older names in _FLAG_NAMES), except freeze, a list, which
only the file sets. The seed in effect is printed at the top of every
report so a result can always be traced back to its run.

Exit codes: 0 success, 2 configuration problem (bad flag, bad config key),
3 data problem (unreadable, non-regular or too large a file, bad label,
missing prediction), 4 the run diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .data import (
    Example,
    class_distribution,
    load_checkpoint,
    load_dataset,
    load_labels,
    load_prediction_input,
    save_checkpoint,
    write_dataset,
)
from .encoder import EncoderConfig, PretrainSchedule, pretrain_mlm
from .errors import CheckpointFormatError, ConfigError, DataError, DivergenceError
from .metrics import score_triples
from .optim import check_warmup
from .textpipe import EmojiMap, balance, build_vocab, normalize, read_utf8
from .train import (
    POOLER_KINDS,
    Checkpoint,
    TrainConfig,
    evaluate,
    predict,
    trace_to_csv,
    train,
)


# Config keys the PretrainSchedule fields go by where they differ from the
# field names; its warmup_steps and seed go by theirs.
_PRETRAIN_KEYS = {"steps": "pretrain_steps", "batch_size": "pretrain_batch_size",
                  "base_lr": "pretrain_lr", "mask_rate": "pretrain_mask_rate"}


def _field_defaults(cls, keys=None) -> dict:
    """Field defaults under their config keys; the vocabulary sets vocab_size."""
    keys = keys or {}
    return {keys.get(f.name, f.name): f.default for f in dataclasses.fields(cls)
            if f.name != "vocab_size"}


# The config keys each command reads, with their defaults: flat on purpose,
# so the JSON file stays a single skimmable object. Each library config owns
# its defaults; only epochs, vocab_target_size, balance and the paths are the
# CLI's own. A file key its command does not read is rejected.
_SEED = {"seed": TrainConfig.seed}
# what both commands that build an encoder read
_ENCODER_KEYS = {**_field_defaults(EncoderConfig), "vocab_target_size": 200,
                 "data": None, "emoji_map": None, "out": None}
_COMMAND_KEYS = {
    "train": {**_ENCODER_KEYS, **_field_defaults(TrainConfig), "epochs": 5, "balance": False,
              "dev": None, "encoder": None},
    "pretrain": {**_ENCODER_KEYS, **_field_defaults(PretrainSchedule, _PRETRAIN_KEYS)},
    "eval": {"data": None, **_SEED},
    "stats": {"data": None, **_SEED},
    "predict": _SEED,
    "score": _SEED,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a config-file value must be, by the type of its key's default; a
# path key (default None) may also be null, and a list key (default ()) is
# a JSON list.
_FILE_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string", lambda v: v is None or isinstance(v, str)),
    tuple: ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


def _library_config(cls, cfg: SimpleNamespace, keys=None, **given):
    """cls built from the run config's values for its fields."""
    keys = keys or {}
    values = {f.name: getattr(cfg, keys.get(f.name, f.name))
              for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**values, **given)


def _load_run_config(args, given=None) -> SimpleNamespace:
    """The command's defaults, then config-file values, then explicitly
    passed flags (or the given values, when passed)."""
    if given is None:
        given = _given_values(args)
    return SimpleNamespace(**{**_COMMAND_KEYS[args.command], **given})


# the required path flags that set no config key, by command
_PATH_FLAGS = {"eval": ("model",), "predict": ("model", "input", "output"),
               "score": ("gold", "pred")}

# the flags whose names predate the rule that a key's flag is "--" plus the
# key with "_" turned into "-"
_FLAG_NAMES = {
    "train": {"dropout_p": "--dropout"},
    "pretrain": {"dropout_p": "--dropout", "data": "--corpus", "pretrain_steps": "--steps",
                 "pretrain_batch_size": "--batch-size", "pretrain_lr": "--lr",
                 "pretrain_mask_rate": "--mask-rate"},
}


def _flag(command: str, key: str) -> str:
    """The flag that sets a config key of command."""
    return _FLAG_NAMES.get(command, {}).get(key) or "--" + key.replace("_", "-")


def _given_values(args) -> dict:
    """The config keys given in the file or as flags, with their values;
    a flag wins over the file. A path key (default None) or path flag given
    as "" is a ConfigError, not a path left out."""
    for name in ("config", *_PATH_FLAGS.get(args.command, ())):
        if getattr(args, name) == "":
            raise ConfigError(f"--{name} is an empty path")
    table = _COMMAND_KEYS[args.command]
    merged: dict = {}
    if args.config is not None:
        def unique_keys(pairs):
            values = {}
            for key, value in pairs:
                if key in values:
                    raise ConfigError(f"{args.config}: duplicate config key {key!r}")
                values[key] = value
            return values

        try:
            file_values = json.loads(read_utf8(args.config), object_pairs_hook=unique_keys)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{args.config}: not valid JSON: {e}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unread = sorted(set(file_values) - set(table))
        if unread:
            raise ConfigError(f"{args.config}: trihead {args.command} reads no "
                              f"config keys {unread}")
        for key, value in file_values.items():
            want, ok = _FILE_TYPES[type(table[key])]
            if not ok(value):
                raise ConfigError(f"{args.config}: config key {key!r} must be {want}, "
                                  f"got {json.dumps(value)}")
        merged.update(file_values)
    merged.update({k: v for k, v in vars(args).items() if k in table and v is not None})
    for key, value in merged.items():
        if value == "" and table[key] is None:
            raise ConfigError(f"{key!r} is an empty path (flag or config key)")
    return merged


def _require(cfg: SimpleNamespace, key: str, command: str) -> str:
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"missing {_flag(command, key)} (flag or config key {key!r})")
    return value


def _print_seeded(seed: int, *lines: str) -> None:
    """A command's stdout: the seed in effect, then the command's lines."""
    print(f"# seed {seed}", *lines, sep="\n")


def _print_report(report, seed: int) -> None:
    _print_seeded(seed, report.to_table(), report.to_json())


def _load_emoji_map(cfg: SimpleNamespace):
    return EmojiMap.from_tsv(cfg.emoji_map) if cfg.emoji_map else None


def _load_rows(cfg: SimpleNamespace, key: str, command: str) -> list:
    """The rows of the labeled file key names; a file with none is a
    DataError naming its flag and file."""
    dataset = load_dataset(_require(cfg, key, command))
    if not dataset:
        raise DataError(f"{_flag(command, key)} {getattr(cfg, key)} holds no rows")
    return dataset


def _fresh_encoder(texts, cfg: SimpleNamespace, emoji_map, nothing: str) -> tuple:
    """The texts that hold a word once normalized, their vocabulary and the
    run's EncoderConfig; when none does, a DataError "<cfg.data>: <nothing>"."""
    texts = [text for text in (normalize(raw, emoji_map=emoji_map) for raw in texts) if text]
    if not texts:
        raise DataError(f"{cfg.data}: {nothing}")
    vocab = build_vocab(texts, target_size=cfg.vocab_target_size)
    return texts, vocab, _library_config(EncoderConfig, cfg, vocab_size=vocab.size)


# ---------------------------------------------------------------------------
# subcommands


def _check_warm_shape(given: dict, warm, path) -> None:
    """A shape key or vocab_target_size given for a warm start must match
    the encoder it starts from, whose shape and vocabulary take over."""
    have = {key: (key, getattr(warm.config, key))
            for key in ("d_model", "n_layers", "n_heads", "d_ff", "max_len")}
    have["vocab_target_size"] = ("vocabulary size", warm.vocab.size)
    for key, (what, value) in have.items():
        if key in given and given[key] != value:
            raise ConfigError(f"{_flag('train', key)} {given[key]} differs from the {what} "
                              f"{value} --encoder {path} was pretrained with")


def _make_out(out: Path) -> None:
    """Make the --out directory; done before the run, so an --out that
    cannot be made fails at once."""
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} is a file, not a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out} cannot be made: {exc.strerror}") from None


def cmd_train(args) -> int:
    given = _given_values(args)
    cfg = _load_run_config(args, given)
    dataset = _load_rows(cfg, "data", args.command)
    dev = _load_rows(cfg, "dev", args.command) if cfg.dev else None
    emoji_map = _load_emoji_map(cfg)

    pretrained = None
    if cfg.encoder:
        warm = load_checkpoint(cfg.encoder)
        if warm.kind != "encoder":
            raise CheckpointFormatError(
                f"{cfg.encoder}: --encoder wants an encoder-only checkpoint, "
                f"got kind {warm.kind!r}"
            )
        _check_warm_shape(given, warm, cfg.encoder)
        warm_entries = warm.emoji_map.entries if warm.emoji_map is not None else {}
        if cfg.emoji_map and emoji_map.entries != warm_entries:
            raise ConfigError(f"--emoji-map {cfg.emoji_map} differs from the emoji map "
                              f"--encoder {cfg.encoder} was pretrained under")
        # the pretrained shape, vocabulary and emoji map carry over; dropout is this run's
        config = dataclasses.replace(warm.config, dropout_p=cfg.dropout_p)
        vocab, emoji_map, pretrained = warm.vocab, warm.emoji_map, warm.params
    else:
        _, vocab, config = _fresh_encoder([ex.text for ex in dataset], cfg, emoji_map,
                                          "no usable words; every text normalizes to nothing")

    # built before balance, which would fail on a seed TrainConfig rejects
    train_config = _library_config(TrainConfig, cfg)
    if cfg.balance:
        dataset = balance(dataset, seed=cfg.seed)
    check_warmup(train_config.warmup_steps, train_config.total_steps(len(dataset)))
    out = Path(cfg.out) if cfg.out else None
    if out:
        _make_out(out)

    result = train(dataset, train_config, config, vocab, dev=dev,
                   emoji_map=emoji_map, pretrained=pretrained)
    if out:
        save_checkpoint(result.checkpoint, out / "model.ckpt")
        (out / "trace.csv").write_text(trace_to_csv(result.trace),
                                       encoding="utf-8")
    _print_report(result.report, cfg.seed)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    checkpoint = load_checkpoint(args.model)
    _print_report(evaluate(checkpoint, _load_rows(cfg, "data", args.command)), cfg.seed)
    return 0


def _check_output(args) -> None:
    """predict's --output must be a file in an existing directory, and not
    a file it reads."""
    if os.path.isdir(args.output):
        raise ConfigError(f"--output {args.output} is a directory")
    parent = os.path.dirname(args.output) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--output {args.output} has no directory {parent}")
    if not os.path.exists(args.output):
        return
    for flag, path in (("--model", args.model), ("--input", args.input)):
        if os.path.exists(path) and os.path.samefile(args.output, path):
            raise ConfigError(f"--output {args.output} is the same file as {flag} {path}")


def cmd_predict(args) -> int:
    cfg = _load_run_config(args)
    _check_output(args)
    checkpoint = load_checkpoint(args.model)
    pairs = load_prediction_input(args.input)
    labels = predict(checkpoint, [text for _, text in pairs])
    rows = [Example(id=row_id, text=text, labels=lab)
            for (row_id, text), lab in zip(pairs, labels)]
    write_dataset(rows, args.output)
    _print_seeded(cfg.seed, f"wrote {len(rows)} predictions to {args.output}")
    return 0


def cmd_score(args) -> int:
    cfg = _load_run_config(args)
    gold = load_labels(args.gold)
    pred = load_labels(args.pred)
    for ids, what in (([i for i in gold if i not in pred], "missing predictions for ids"),
                      ([i for i in pred if i not in gold], "predictions for unknown ids")):
        if ids:
            shown = ", ".join(repr(i) for i in ids[:10])
            more = f" (+{len(ids) - 10} more)" if len(ids) > 10 else ""
            raise DataError(f"{args.pred}: {what} {shown}{more}")
    ids = list(gold)
    report = score_triples([gold[i] for i in ids], [pred[i] for i in ids])
    _print_report(report, cfg.seed)
    return 0


def cmd_stats(args) -> int:
    cfg = _load_run_config(args)
    dataset = load_dataset(_require(cfg, "data", args.command))
    _print_report(class_distribution(dataset), cfg.seed)
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args)
    corpus_path = _require(cfg, "data", args.command)
    out = Path(_require(cfg, "out", args.command))
    schedule = _library_config(PretrainSchedule, cfg, _PRETRAIN_KEYS)
    raw = read_utf8(corpus_path)
    emoji_map = _load_emoji_map(cfg)
    sentences, vocab, config = _fresh_encoder(raw.split("\n"), cfg, emoji_map,
                                              "no usable sentences")
    _make_out(out)
    params, losses = pretrain_mlm(sentences, vocab, config, schedule)

    meta = {"seed": cfg.seed, "steps": schedule.steps,
            "initial_loss": losses[0], "final_loss": losses[-1]}
    checkpoint = Checkpoint(kind="encoder", config=config, vocab=vocab, emoji_map=emoji_map,
                            pooler_kind="none", params=params, meta=meta)
    save_checkpoint(checkpoint, out / "encoder.ckpt")
    (out / "pretrain_trace.csv").write_text(
        trace_to_csv(enumerate(losses), ("step", "loss")), encoding="utf-8")

    _print_seeded(cfg.seed,
                  f"pretrained {schedule.steps} steps on {len(sentences)} sentences",
                  f"masked-token loss {repr(losses[0])} -> {repr(losses[-1])}",
                  f"wrote {out / 'encoder.ckpt'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# the commands in the order `trihead --help` lists them, with their help
_COMMANDS = {
    "train": (cmd_train, "fine-tune a classifier on a labeled TSV"),
    "eval": (cmd_eval, "score a checkpoint against a labeled TSV"),
    "predict": (cmd_predict, "label new texts with a checkpoint"),
    "score": (cmd_score, "score a prediction file against gold labels"),
    "stats": (cmd_stats, "print the class distribution of a dataset"),
    "pretrain": (cmd_pretrain, "train an encoder on raw sentences"),
}

# the help of a flag, by command and config key or path flag
_HELP = {
    ("train", "data"): "labeled training TSV",
    ("train", "dev"): "labeled dev TSV for model selection",
    ("train", "out"): "directory for checkpoint + trace",
    ("train", "encoder"): "warm-start from a pretrained encoder checkpoint "
                          "(its vocabulary, shape and emoji map take over)",
    ("train", "balance"): "oversample rarer aggression classes to parity",
    ("predict", "input"): "id/text TSV (labels, if present, are ignored)",
    ("predict", "output"): "labeled TSV to write",
    ("pretrain", "data"): "plain text file, one sentence per line",
    ("pretrain", "out"): "directory for the encoder checkpoint",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihead",
        description="Train and evaluate the three-task comment classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name in _PATH_FLAGS.get(command, ()):
            p.add_argument("--" + name, required=True, help=_HELP.get((command, name)))
        for key, default in _COMMAND_KEYS[command].items():
            if isinstance(default, tuple):  # freeze: a config-file key only
                continue
            # typed by the key's default; a path key's None takes a string
            typed = ({"action": "store_true"} if isinstance(default, bool) else
                     {"type": str if default is None else type(default),
                      "choices": POOLER_KINDS if key == "pooler" else None})
            p.add_argument(_flag(command, key), dest=key, default=None,
                           help=_HELP.get((command, key)), **typed)
        p.add_argument("--config", default=None,
                       help="flat JSON file of config keys this command reads")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        # every overflow ends in an explicit check that names it, so numpy's
        # own warnings would only repeat it, source lines and all
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, MemoryError) as e:  # MemoryError: a size no machine holds
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
