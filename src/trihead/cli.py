"""Command-line surface: pretrain, train, eval, predict, score, stats.

Every run is a single non-interactive process. Settings come from an
optional flat JSON config file; explicitly-given flags win over file
values, file values win over built-in defaults. The seed in effect is
printed at the top of every report so a result can always be traced back
to its run.

Exit codes: 0 success, 2 configuration problem (bad flag, bad config key),
3 data problem (unreadable file, bad label, missing prediction), 4 the
run diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

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
from .textpipe import EmojiMap, balance, build_vocab, normalize, read_utf8
from .train import (
    POOLER_KINDS,
    Checkpoint,
    EncoderInit,
    TrainConfig,
    evaluate,
    predict,
    trace_to_csv,
    train,
)


# Config keys the PretrainSchedule fields go by; its warmup_steps and seed
# share the fine-tuning keys.
_PRETRAIN_KEYS = {"steps": "pretrain_steps", "batch_size": "pretrain_batch_size",
                  "base_lr": "pretrain_lr", "mask_rate": "pretrain_mask_rate"}


def _field_defaults(cls, keys=None) -> dict:
    keys = keys or {}
    return {keys.get(f.name, f.name): f.default for f in dataclasses.fields(cls)}


# Union of everything a command can be told, flat on purpose so the JSON
# file stays a single skimmable object. Each library config owns its
# defaults; on a shared key the fine-tuning default wins, so pretrain
# without --seed uses TrainConfig's seed. Only the keys at the end have
# defaults of their own.
_DEFAULTS = {
    **_field_defaults(PretrainSchedule, _PRETRAIN_KEYS),
    **_field_defaults(EncoderConfig),
    **_field_defaults(TrainConfig),
    "epochs": 5,
    "vocab_target_size": 200,
    "balance": False,
    "data": None, "dev": None, "emoji_map": None, "encoder": None, "out": None,
}
del _DEFAULTS["vocab_size"]

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(k, object, dataclasses.field(default=v)) for k, v in _DEFAULTS.items()],
)

_CONFIG_KEYS = set(_DEFAULTS)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a config-file value must be, by the type of its key's default; a
# path key (default None) may also be null.
_FILE_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string", lambda v: v is None or isinstance(v, str)),
}
_LIST_TYPES = {
    "task_loss_weights": ("a list of numbers",
                          lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "freeze": ("a list of strings",
               lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


def _library_config(cls, cfg: RunConfig, keys=None, **given):
    """cls built from the run config's values for its fields."""
    keys = keys or {}
    values = {f.name: getattr(cfg, keys.get(f.name, f.name))
              for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**values, **given)


def _load_run_config(config_path, flag_values: dict) -> RunConfig:
    """Defaults, then config-file values, then explicitly-passed flags."""
    merged: dict = {}
    if config_path is not None:
        try:
            raw = read_utf8(config_path)
        except OSError as e:
            raise DataError(f"cannot read config file: {e}") from None
        try:
            file_values = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{config_path}: not valid JSON: {e}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(file_values) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys {unknown}")
        for key, value in file_values.items():
            want, ok = _LIST_TYPES.get(key) or _FILE_TYPES[type(_DEFAULTS[key])]
            if not ok(value):
                raise ConfigError(f"{config_path}: config key {key!r} must be {want}, "
                                  f"got {json.dumps(value)}")
        merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items()
                   if k in _CONFIG_KEYS and v is not None})
    return RunConfig(**merged)


def _require(cfg: RunConfig, field: str, flag: str) -> str:
    value = getattr(cfg, field)
    if value is None:
        raise ConfigError(f"missing {flag} (flag or config key {field!r})")
    return value


def _print_report(report, seed: int) -> None:
    print(f"# seed {seed}")
    print(report.to_table())
    print(report.to_json())


def _load_emoji_map(cfg: RunConfig):
    return EmojiMap.from_tsv(cfg.emoji_map) if cfg.emoji_map else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config, vars(args))
    dataset = load_dataset(_require(cfg, "data", "--data"))
    dev = load_dataset(cfg.dev) if cfg.dev else None
    emoji_map = _load_emoji_map(cfg)

    if cfg.encoder:
        warm = load_checkpoint(cfg.encoder)
        if warm.kind != "encoder":
            raise CheckpointFormatError(
                f"{cfg.encoder}: --encoder wants an encoder-only checkpoint, "
                f"got kind {warm.kind!r}"
            )
        init = EncoderInit(config=warm.config, vocab=warm.vocab,
                           params=warm.params)
    else:
        texts = [normalize(ex.text, emoji_map=emoji_map) for ex in dataset]
        vocab = build_vocab(texts, target_size=cfg.vocab_target_size)
        config = _library_config(EncoderConfig, cfg, vocab_size=vocab.size)
        init = EncoderInit(config=config, vocab=vocab)

    if cfg.balance:
        dataset = balance(dataset, seed=cfg.seed)

    result = train(dataset, _library_config(TrainConfig, cfg), init, dev=dev,
                   emoji_map=emoji_map)

    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(result.checkpoint, out / "model.ckpt")
        (out / "trace.csv").write_text(trace_to_csv(result.trace),
                                       encoding="utf-8")

    if dev is not None and result.best_epoch is not None:
        report = result.dev_history[result.best_epoch]
    else:
        report = evaluate(result.checkpoint, dataset)
    _print_report(report, cfg.seed)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args.config, vars(args))
    checkpoint = load_checkpoint(args.model)
    dataset = load_dataset(_require(cfg, "data", "--data"))
    _print_report(evaluate(checkpoint, dataset), cfg.seed)
    return 0


def cmd_predict(args) -> int:
    cfg = _load_run_config(args.config, vars(args))
    checkpoint = load_checkpoint(args.model)
    pairs = load_prediction_input(args.input)
    labels = predict(checkpoint, [text for _, text in pairs])
    rows = [Example(id=row_id, text=text, labels=lab)
            for (row_id, text), lab in zip(pairs, labels)]
    write_dataset(rows, args.output)
    print(f"# seed {cfg.seed}")
    print(f"wrote {len(rows)} predictions to {args.output}")
    return 0


def cmd_score(args) -> int:
    cfg = _load_run_config(args.config, vars(args))
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
    cfg = _load_run_config(args.config, vars(args))
    table = class_distribution(load_dataset(_require(cfg, "data", "--data")))
    print(f"# seed {cfg.seed}")
    print(table.to_table())
    print(table.to_json())
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args.config, vars(args))
    corpus_path = _require(cfg, "data", "--corpus")
    try:
        raw = read_utf8(corpus_path)
    except OSError as e:
        raise DataError(f"cannot read corpus: {e}") from None
    emoji_map = _load_emoji_map(cfg)
    sentences = [normalize(line, emoji_map=emoji_map)
                 for line in raw.split("\n") if line.strip()]
    sentences = [s for s in sentences if s]
    if not sentences:
        raise DataError(f"{corpus_path}: no usable sentences")

    vocab = build_vocab(sentences, target_size=cfg.vocab_target_size)
    config = _library_config(EncoderConfig, cfg, vocab_size=vocab.size)
    schedule = _library_config(PretrainSchedule, cfg, _PRETRAIN_KEYS)
    params, losses = pretrain_mlm(sentences, vocab, config, schedule)

    out = Path(_require(cfg, "out", "--out"))
    out.mkdir(parents=True, exist_ok=True)
    meta = {"seed": cfg.seed, "steps": schedule.steps,
            "initial_loss": losses[0], "final_loss": losses[-1]}
    if emoji_map is not None:
        meta["emoji_map"] = {k: v for k, v in emoji_map.entries.items()}
    checkpoint = Checkpoint(kind="encoder", config=config, vocab=vocab,
                            pooler_kind="none", params=params, meta=meta)
    save_checkpoint(checkpoint, out / "encoder.ckpt")
    trace = "step,loss\n" + "".join(f"{i},{repr(v)}\n"
                                    for i, v in enumerate(losses))
    (out / "pretrain_trace.csv").write_text(trace, encoding="utf-8")

    print(f"# seed {cfg.seed}")
    print(f"pretrained {schedule.steps} steps on {len(sentences)} sentences")
    print(f"masked-token loss {repr(losses[0])} -> {repr(losses[-1])}")
    print(f"wrote {out / 'encoder.ckpt'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="flat JSON file with any RunConfig keys")
    p.add_argument("--seed", type=int, default=None)


def _add_model_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", dest="d_model", type=int, default=None)
    p.add_argument("--n-layers", dest="n_layers", type=int, default=None)
    p.add_argument("--n-heads", dest="n_heads", type=int, default=None)
    p.add_argument("--d-ff", dest="d_ff", type=int, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--dropout", dest="dropout_p", type=float, default=None)
    p.add_argument("--vocab-target-size", dest="vocab_target_size",
                   type=int, default=None)
    p.add_argument("--emoji-map", dest="emoji_map", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihead",
        description="Train and evaluate the three-task comment classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fine-tune a classifier on a labeled TSV")
    p.add_argument("--data", default=None, help="labeled training TSV")
    p.add_argument("--dev", default=None, help="labeled dev TSV for model selection")
    p.add_argument("--out", default=None, help="directory for checkpoint + trace")
    p.add_argument("--pooler", choices=POOLER_KINDS, default=None)
    p.add_argument("--encoder", default=None,
                   help="warm-start from a pretrained encoder checkpoint "
                        "(its vocabulary and shape take over)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--base-lr", dest="base_lr", type=float, default=None)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int, default=None)
    p.add_argument("--balance", action="store_true", default=None,
                   help="oversample rarer aggression classes to parity")
    _add_model_shape_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a labeled TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="label new texts with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="id/text TSV (labels, if present, are ignored)")
    p.add_argument("--output", required=True, help="labeled TSV to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("score", help="score a prediction file against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="print the class distribution of a dataset")
    p.add_argument("--data", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="train an encoder on raw sentences")
    p.add_argument("--corpus", dest="data", default=None,
                   help="plain text file, one sentence per line")
    p.add_argument("--out", default=None, help="directory for the encoder checkpoint")
    p.add_argument("--steps", dest="pretrain_steps", type=int, default=None)
    p.add_argument("--batch-size", dest="pretrain_batch_size", type=int, default=None)
    p.add_argument("--lr", dest="pretrain_lr", type=float, default=None)
    p.add_argument("--mask-rate", dest="pretrain_mask_rate", type=float, default=None)
    _add_model_shape_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
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
