"""Text preprocessing: cleanup, subword vocabulary, encoding, resampling.

The cleanup stage mirrors how scraped social-media comments are usually
scrubbed before tokenization: URLs out, punctuation out, emoji either
mapped to words in the target language or dropped, whitespace collapsed.
Everything downstream assumes normalize() has already run.
"""

from __future__ import annotations

import os
import re
import stat
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

if TYPE_CHECKING:
    from .data import Example

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
RESERVED = (PAD, UNK, CLS, SEP)
CONT = "##"

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)

# Pictographic blocks plus the joiners and modifiers that ride along with
# them. Deliberately not "category So": currency and math signs stay.
_EMOJI_RANGES = (
    "\U0001f000-\U0001faff"  # mahjong/cards through extended pictographs
    "☀-➿"          # misc symbols, dingbats
    "⬅-⬇⬛⬜⭐⭕"
    "←-⇿"          # arrows frequently used as emoji
    "︎️"           # variation selectors
    "‍"                 # zero-width joiner
    "⃣"                 # keycap combiner
)
_EMOJI_RE = re.compile(f"[{_EMOJI_RANGES}]+")


class _PunctuationTable(dict):
    """str.translate table deleting every Unicode punctuation code point
    (category P*). Filled lazily: a code point's category is looked up the
    first time it is seen, then cached as None (delete) or itself (keep)."""

    def __missing__(self, code: int):
        verdict = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = verdict
        return verdict


_PUNCTUATION = _PunctuationTable()


def _strip_punctuation(text: str) -> str:
    return text.translate(_PUNCTUATION)


@contextmanager
def open_regular(path, mode="r", **kwargs):
    """open(path, mode, **kwargs), for a regular file only: anything else
    (a FIFO, a device, a directory) is a DataError naming the path before
    any open, which would wait for a FIFO's writer or read a device without
    end. Running out of memory in the block is a DataError naming the file."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise DataError(f"{path}: not a regular file")
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except MemoryError:
        raise DataError(f"{path}: too large to read ({info.st_size} bytes)") from None


def read_utf8(path, newline=None) -> str:
    """The whole file as text, less a leading byte-order mark; a file that
    is not UTF-8 is a DataError naming it and the first bad byte (counted
    from the file's start, BOM included, which utf-8-sig would not do)."""
    try:
        with open_regular(path, encoding="utf-8", newline=newline) as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


class EmojiMap:
    """Emoji sequence → replacement words, loaded from a two-column TSV.

    Each key holds an emoji or a punctuation mark, which normalize always
    removes, so no key survives into a second pass (normalize's
    idempotence); emoticons such as ":)" qualify."""

    def __init__(self, entries: Mapping[str, str]):
        for key, repl in entries.items():
            if not key:
                raise DataError("emoji map: empty key")
            if not _EMOJI_RE.search(key) and _strip_punctuation(key) == key:
                raise DataError(f"emoji map: key {key!r} holds no emoji or punctuation")
            if _EMOJI_RE.search(repl):
                raise DataError(f"emoji map: replacement for {key!r} still contains emoji")
        self.entries = dict(entries)
        if self.entries:
            # longest key first so multi-codepoint sequences win over prefixes
            alternation = "|".join(
                re.escape(k) for k in sorted(self.entries, key=len, reverse=True)
            )
            self._pattern = re.compile(alternation)
        else:
            self._pattern = None

    @classmethod
    def from_tsv(cls, path) -> "EmojiMap":
        entries: dict[str, str] = {}
        for lineno, line in enumerate(read_utf8(path).split("\n"), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected `emoji<TAB>replacement`, got {len(parts)} columns"
                )
            key, repl = parts[0], parts[1].strip()
            if key in entries:
                raise DataError(f"{path}:{lineno}: duplicate emoji key {key!r}")
            entries[key] = repl
        return cls(entries)

    def apply(self, text: str) -> str:
        if self._pattern is None:
            return text
        return self._pattern.sub(lambda m: f" {self.entries[m.group(0)]} ", text)


def normalize(raw: str, emoji_map: EmojiMap | None = None) -> str:
    """Scrub one comment: URLs out, emoji mapped or dropped, all Unicode
    punctuation stripped, whitespace collapsed and trimmed. Idempotent, and
    total: any Unicode string in, clean string out."""
    # Each regex runs only where it can match: every URL match holds "://"
    # or "www.", and every _EMOJI_RANGES code point is past ASCII. Neither
    # "." nor ":" has a case variant, so re.IGNORECASE cannot bring one in.
    text = _URL_RE.sub(" ", raw) if "." in raw or ":" in raw else raw
    if emoji_map is not None:
        text = emoji_map.apply(text)
    if not text.isascii():
        text = _EMOJI_RE.sub(" ", text)
    text = _strip_punctuation(text)
    return " ".join(text.split())


class Vocab:
    """Dense token → id table with fixed reserved slots.

    id 0 is [PAD], 1 is [UNK], 2 is [CLS], 3 is [SEP]; subword continuation
    pieces carry a leading '##'.
    """

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(RESERVED)] != RESERVED:
            raise DataError(f"vocab must start with {RESERVED}")
        if len(set(tokens)) != len(tokens):
            dupes = [t for t, n in Counter(tokens).items() if n > 1]
            raise DataError(f"vocab has duplicate tokens: {dupes[:5]}")
        self._tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> tuple:
        return self._tokens

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise IndexError(f"token id {idx} out of range [0, {len(self._tokens)})")
        return self._tokens[idx]


def build_vocab(corpus: Iterable[str], target_size: int) -> Vocab:
    """Frequency-ranked whole-word vocabulary over a normalized corpus.

    Single-character pieces (plain and '##'-marked) for every observed
    character are always present, so any text written in the corpus script
    encodes without [UNK]; they may push the size past target_size. Word
    slots fill the rest, most frequent first, ties broken alphabetically.
    """
    if target_size < len(RESERVED) + 1:
        raise ConfigError(f"target_size must be at least {len(RESERVED) + 1}, got {target_size}")
    counts: Counter = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        counts.update(text.split())
    if n_texts == 0:
        raise DataError("build_vocab: empty corpus")

    tokens = list(RESERVED)
    ordered_chars = sorted(set("".join(counts)))
    tokens.extend(ordered_chars)
    tokens.extend(CONT + c for c in ordered_chars)
    seen = set(tokens)
    for word, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if len(tokens) >= target_size:
            break
        if word not in seen:
            tokens.append(word)
            seen.add(word)
    return Vocab(tokens)


def tokenize(text: str, vocab: Vocab) -> list[str]:
    """Whole word when the vocab has it, otherwise character pieces."""
    return [vocab.tokens[i] for i in _piece_ids(text, vocab)]


def _piece_ids(text: str, vocab: Vocab) -> list:
    """The id of each piece of text, each looked up once: a word's own id
    when the vocab has it, otherwise one piece per character ('##'-marked
    after the first), [UNK] for a piece the vocab lacks."""
    get = vocab._ids.get
    ids = []
    for word in text.split():
        whole = get(word)
        if whole is not None:
            ids.append(whole)
        else:
            ids.append(get(word[0], UNK_ID))
            ids.extend(get(CONT + ch, UNK_ID) for ch in word[1:])
    return ids


@dataclass(frozen=True)
class EncodedBatch:
    """Padded id matrix plus its attention mask, both B×L int64.

    Row layout: [CLS] first, then tokens, then [PAD]; the mask is 1 over
    [CLS] and real tokens and never turns back on after the first 0.
    """

    token_ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        ids, mask = self.token_ids, self.attention_mask
        if ids.shape != mask.shape or ids.ndim != 2:
            raise DataError(
                f"batch ids {ids.shape} and mask {mask.shape} must be equal 2-D shapes"
            )
        if not np.all(ids[:, 0] == CLS_ID) or not np.all(mask[:, 0] == 1):
            raise DataError("every batch row must start with an unmasked [CLS]")
        if np.any(np.diff(mask, axis=1) > 0):
            raise DataError("attention mask must be contiguous from the left")

    def cut(self, rows) -> "EncodedBatch":
        """The given rows, cut to the longest real row among them: the
        columns past it are padding in every picked row."""
        mask = self.attention_mask[rows]
        width = int(mask.sum(axis=1).max())
        return EncodedBatch(token_ids=self.token_ids[rows, :width],
                            attention_mask=mask[:, :width])


def batch_encode(texts: Sequence[str], vocab: Vocab, max_len: int) -> EncodedBatch:
    """One [CLS]-first id row per text, truncated or right-padded to
    max_len; the mask is 1 over [CLS] and real tokens, 0 over padding."""
    if not texts:
        raise DataError("batch_encode: no texts")
    if max_len < 2:
        raise ConfigError(f"max_len must be at least 2, got {max_len}")
    rows = [[CLS_ID, *_piece_ids(t, vocab)][:max_len] for t in texts]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    try:
        ids = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
        real = np.arange(max_len) < lengths[:, None]
        # boolean indexing walks row-major, so the rows' ids go in end to end
        ids[real] = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                                count=int(lengths.sum()))
        mask = real.astype(np.int64)
    except (MemoryError, ValueError):  # ValueError: past numpy's own size limit
        raise ConfigError(f"max_len {max_len}: {len(rows)} rows of {max_len} token ids "
                          "do not fit in memory") from None
    return EncodedBatch(token_ids=ids, attention_mask=mask)


def balance(dataset: Sequence["Example"], seed: int) -> list:
    """Oversample so every aggression class present matches the largest one.

    Keeps every original example and draws the top-up with replacement from
    the same class, then shuffles. Gender and communal labels travel with
    their example untouched.
    """
    if not dataset:
        raise DataError("balance: empty dataset")
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[int]] = {}
    for i, ex in enumerate(dataset):
        by_class.setdefault(ex.labels.aggression, []).append(i)
    majority = max(len(v) for v in by_class.values())
    picked = list(range(len(dataset)))
    for label in sorted(by_class):
        pool = by_class[label]
        deficit = majority - len(pool)
        if deficit > 0:
            picked.extend(int(j) for j in rng.choice(pool, size=deficit, replace=True))
    order = rng.permutation(len(picked))
    return [dataset[picked[k]] for k in order]
