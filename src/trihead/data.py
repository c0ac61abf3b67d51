"""Dataset files, class-distribution tables, and the checkpoint format.

Datasets are UTF-8 TSV with the header
``id<TAB>text<TAB>aggression<TAB>gender<TAB>communal``; label columns come
from their closed sets. TSV was picked over CSV because scraped comments
are full of commas and quotes; a tab or newline inside a text field is a
load error rather than a quoting puzzle.

Checkpoints are a single binary file: magic ``TRHD``, a little-endian
u32 format version, a length-prefixed canonical-JSON header (config,
vocabulary, parameter table, metadata), then the raw float32 parameter
blobs in header order. The header is printable with one `jq`-able read;
the blobs round-trip bit for bit; nothing in the file is executed.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .encoder import EncoderConfig, param_specs
from .errors import CheckpointFormatError, DataError
from .metrics import TASK_LABELS, TASKS, TriLabel
from .textpipe import EmojiMap, Vocab, read_utf8
from .train import POOLER_KINDS, Checkpoint, model_param_specs

DATASET_HEADER = ("id", "text", *TASKS)
PREDICTION_HEADER = ("id", "text")
LABELS_HEADER = ("id", *TASKS)
# every label, task by task: the distribution table's rows, each naming
# its DistributionTable field in lower case
_LABELS = tuple(label for task in TASKS for label in TASK_LABELS[task])

CHECKPOINT_MAGIC = b"TRHD"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Example:
    id: str
    text: str
    labels: TriLabel


@dataclass(frozen=True)
class DistributionTable:
    """Per-class counts in the shape of the published dataset tables."""

    nag: int
    cag: int
    oag: int
    ngen: int
    gen: int
    ncom: int
    com: int
    total: int

    def __post_init__(self):
        sums = tuple(sum(getattr(self, label.lower()) for label in TASK_LABELS[task])
                     for task in TASKS)
        if any(s != self.total for s in sums):
            raise DataError(
                f"distribution sums {sums} disagree with total {self.total}"
            )

    def _counts(self) -> dict:
        return {name: getattr(self, name.lower()) for name in (*_LABELS, "total")}

    def to_json(self) -> str:
        return json.dumps(self._counts(), sort_keys=True, separators=(",", ":"))

    def to_table(self) -> str:
        return "\n".join(f"{name:<6} {count:>7}" for name, count in self._counts().items())


def _read_rows(path, lines: list, expected_header: tuple):
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty file, expected header {_fmt_header(expected_header)}")
    header = tuple(lines[0].split("\t"))
    if header != expected_header:
        # a raw \r in the message would hide itself, so it is named instead
        crlf = lines[0].endswith("\r")
        shown = _fmt_header(lines[0].removesuffix("\r").split("\t"))
        raise DataError(f"{path}:1: bad header {shown}, expected {_fmt_header(expected_header)}"
                        + ("; the line ends in \\r (Windows line endings)" if crlf else ""))
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(expected_header):
            raise DataError(
                f"{path}:{lineno}: expected {len(expected_header)} columns, got {len(cells)}"
            )
        row_id = cells[0]  # every header starts with id
        if row_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {row_id!r}")
        seen.add(row_id)
        yield lineno, cells


def _fmt_header(header) -> str:
    return "/".join(header)


def _read_lines(path) -> tuple:
    """The file's lines, kept with their \\r so a CRLF header can be named,
    and whether the first line, as universal newlines end it, is the
    dataset header."""
    lines = read_utf8(path, newline="").split("\n")
    return lines, tuple(lines[0].split("\r", 1)[0].split("\t")) == DATASET_HEADER


def _triple(triples: dict, labels: list, path, lineno: int, row_id: str) -> TriLabel:
    """The row's TriLabel, built and checked once per distinct label triple
    in a file (triples is that file's own table), so a bad label still
    fails at the first line that holds it."""
    key = tuple(labels)
    triple = triples.get(key)
    if triple is None:
        try:
            triple = triples[key] = TriLabel(*labels)
        except DataError as e:
            raise DataError(f"{path}:{lineno} (id {row_id!r}): {e}") from None
    return triple


def load_dataset(path) -> list:
    """Parse a labeled TSV into Examples; every label is validated against
    its closed set, ids must be unique, and a header-only file is simply an
    empty dataset."""
    examples, triples = [], {}
    for lineno, (row_id, text, *labels) in _read_rows(path, _read_lines(path)[0],
                                                     DATASET_HEADER):
        if not text:
            raise DataError(f"{path}:{lineno}: empty text for id {row_id!r}")
        examples.append(Example(id=row_id, text=text,
                                labels=_triple(triples, labels, path, lineno, row_id)))
    return examples


def write_dataset(examples, path) -> None:
    lines = ["\t".join(DATASET_HEADER)]
    for ex in examples:
        for piece, what in ((ex.id, "id"), (ex.text, "text")):
            if "\t" in piece or "\n" in piece:
                raise DataError(f"{what} of {ex.id!r} contains a tab or newline")
        lines.append("\t".join((ex.id, ex.text, *map(ex.labels.get, TASKS))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_prediction_input(path) -> list:
    """Rows to predict: (id, text) pairs from either a bare id/text TSV or a
    full labeled dataset file (labels ignored, not checked)."""
    lines, is_dataset = _read_lines(path)
    header = DATASET_HEADER if is_dataset else PREDICTION_HEADER
    return [(row_id, text) for _, (row_id, text, *_) in _read_rows(path, lines, header)]


def load_labels(path) -> dict:
    """id → TriLabel from either a full dataset file or a text-less
    id + three-label TSV (the shape a scorer receives)."""
    lines, is_dataset = _read_lines(path)
    header = DATASET_HEADER if is_dataset else LABELS_HEADER
    out, triples = {}, {}
    for lineno, (row_id, *rest) in _read_rows(path, lines, header):
        out[row_id] = _triple(triples, rest[-len(TASKS):], path, lineno, row_id)
    return out


def class_distribution(dataset) -> DistributionTable:
    counts = Counter(ex.labels.get(task) for ex in dataset for task in TASKS)
    return DistributionTable(**{label.lower(): counts[label] for label in _LABELS},
                             total=len(dataset))


# ---------------------------------------------------------------------------
# checkpoint file format


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write the single-file format described at module top. Parameters must
    be float32 (the training dtype); the blobs are raw and bit-exact."""
    for name, t in checkpoint.params.items():
        if t.data.dtype != np.float32:
            raise DataError(f"checkpoint parameter {name!r} is {t.data.dtype}, "
                            "only float32 checkpoints are written")
        if not np.isfinite(t.data).all():
            raise DataError(f"checkpoint parameter {name!r} contains NaN or Inf")
    emoji_map = checkpoint.emoji_map.entries if checkpoint.emoji_map is not None else {}
    header = {
        "kind": checkpoint.kind,
        "encoder_config": asdict(checkpoint.config),
        "vocab": list(checkpoint.vocab.tokens),
        "pooler": checkpoint.pooler_kind,
        "params": [{"name": n, "shape": list(t.shape)}
                   for n, t in checkpoint.params.items()],
        "meta": {**checkpoint.meta, "emoji_map": emoji_map},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # written beside the target and renamed over it, so a write that fails
    # halfway leaves whatever checkpoint was at path untouched
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for t in checkpoint.params.values():
                fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header_contents_problem(header: dict):
    """What is wrong with the JSON types of the header's encoder_config,
    vocab and meta.emoji_map, or None. Values are checked by the classes
    they build."""
    config = header["encoder_config"]
    if not isinstance(config, dict):
        return f"encoder_config must be a JSON object, got {type(config).__name__}"
    for f in fields(EncoderConfig):
        if f.name not in config:
            continue  # the constructor applies the default or names it missing
        value = config[f.name]
        # bool is an int subclass, so both checks compare exact types
        if f.type == "int" and type(value) is not int:
            return f"encoder_config.{f.name} must be an integer, got {value!r}"
        if f.type == "float" and type(value) not in (int, float):
            return f"encoder_config.{f.name} must be a number, got {value!r}"
    vocab = header["vocab"]
    if not isinstance(vocab, list):
        return f"vocab must be a JSON list, got {type(vocab).__name__}"
    for i, token in enumerate(vocab):
        if not isinstance(token, str):
            return f"vocab[{i}] must be a string, got {token!r}"
    emoji_map = header["meta"].get("emoji_map", {})
    if not isinstance(emoji_map, dict):
        return f"meta.emoji_map must be a JSON object, got {type(emoji_map).__name__}"
    for key, repl in emoji_map.items():
        if not isinstance(repl, str):
            return f"meta.emoji_map[{key!r}] must be a string, got {repl!r}"
    return None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file back; every structural problem gets its own
    message (magic, version, header, parameter table against the spec,
    truncation, non-finite weights, trailing garbage)."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CheckpointFormatError(f"{path}: file too short to be a checkpoint")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"{path}: bad magic {raw[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"{path}: unreadable header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointFormatError(
            f"{path}: header must be a JSON object, got {type(header).__name__}"
        )
    required = {"kind", "encoder_config", "vocab", "pooler", "params", "meta"}
    missing = required - set(header)
    if missing:
        raise CheckpointFormatError(f"{path}: header missing keys {sorted(missing)}")
    kind, pooler = header["kind"], header["pooler"]
    if kind not in ("model", "encoder"):
        raise CheckpointFormatError(f"{path}: unknown checkpoint kind {kind!r}")
    poolers = POOLER_KINDS if kind == "model" else ("none",)
    if pooler not in poolers:
        raise CheckpointFormatError(
            f"{path}: {kind} checkpoint has pooler {pooler!r}, expected one of {poolers}"
        )
    if not isinstance(header["meta"], dict):
        raise CheckpointFormatError(
            f"{path}: meta must be a JSON object, got {type(header['meta']).__name__}"
        )

    problem = _header_contents_problem(header)
    if problem:
        raise CheckpointFormatError(f"{path}: {problem}")
    try:
        config = EncoderConfig(**header["encoder_config"])
        vocab = Vocab(header["vocab"])
        entries = header["meta"].pop("emoji_map", None)
        emoji_map = EmojiMap(entries) if entries else None
    except (TypeError, ValueError) as e:
        raise CheckpointFormatError(f"{path}: invalid header contents: {e}") from None
    if config.vocab_size != vocab.size:
        raise CheckpointFormatError(
            f"{path}: config says vocab_size {config.vocab_size}, "
            f"vocabulary has {vocab.size} tokens"
        )

    if not isinstance(header["params"], list):
        raise CheckpointFormatError(
            f"{path}: params must be a JSON list, got {type(header['params']).__name__}"
        )
    # the header's table is walked against the spec in step, so its numbers
    # never size an allocation or a loop before they have matched
    specs = model_param_specs(config, pooler) if kind == "model" else param_specs(config)
    params: dict[str, Tensor] = {}
    offset = 12 + header_len
    for entry in header["params"]:
        # bool is an int subclass, so the shape check compares exact types
        if (not isinstance(entry, dict) or set(entry) != {"name", "shape"}
                or not isinstance(entry["name"], str)
                or not isinstance(entry["shape"], list)
                or not all(type(x) is int and x >= 0 for x in entry["shape"])):
            raise CheckpointFormatError(
                f"{path}: malformed parameter table entry {entry}, expected "
                '{"name": string, "shape": [non-negative ints]}'
            )
        name, shape = entry["name"], tuple(entry["shape"])
        spec = next(specs, None)
        if spec is None or name != spec[0]:
            expected = f", expected {spec[0]!r}" if spec else ""
            raise CheckpointFormatError(f"{path}: unexpected parameter {name!r}{expected}")
        if shape != spec[1]:
            raise CheckpointFormatError(
                f"{path}: parameter {name!r} has shape {shape}, expected {spec[1]}"
            )
        count = math.prod(shape)
        if offset + 4 * count > len(raw):
            raise CheckpointFormatError(f"{path}: parameter data truncated at {name!r}")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(f"{path}: parameter {name!r} contains NaN or Inf")
        params[name] = Tensor(arr.copy(), requires_grad=True)
        offset += 4 * count
    spec = next(specs, None)
    if spec is not None:
        more = ", ..." if next(specs, None) else ""
        raise CheckpointFormatError(f"{path}: missing parameters [{spec[0]!r}{more}]")
    if offset != len(raw):
        raise CheckpointFormatError(
            f"{path}: {len(raw) - offset} trailing bytes after parameter data"
        )
    return Checkpoint(kind=kind, config=config, vocab=vocab, emoji_map=emoji_map,
                      pooler_kind=pooler, params=params, meta=header["meta"])
