"""Text preprocessing: cleanup, subword vocabulary, encoding, resampling.

The cleanup stage mirrors how scraped social-media comments are usually
scrubbed before tokenization: URLs out, punctuation out, emoji either
mapped to words in the target language or dropped, whitespace collapsed.
Everything downstream assumes normalize() has already run.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
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


def _strip_punctuation(text: str) -> str:
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))


def read_utf8(path, newline=None) -> str:
    """The whole file as text; a file that is not UTF-8 is a DataError
    naming it and the first bad byte."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


class EmojiMap:
    """Emoji sequence → replacement words, loaded from a two-column TSV."""

    def __init__(self, entries: Mapping[str, str]):
        for key, repl in entries.items():
            if not key:
                raise DataError("emoji map: empty key")
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

    def __len__(self):
        return len(self.entries)


def normalize(raw: str, emoji_map: EmojiMap | None = None) -> str:
    """Scrub one comment: URLs out, emoji mapped or dropped, all Unicode
    punctuation stripped, whitespace collapsed and trimmed. Idempotent, and
    total: any Unicode string in, clean string out."""
    text = _URL_RE.sub(" ", raw)
    if emoji_map is not None:
        text = emoji_map.apply(text)
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

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self):
        return len(self._tokens)

    def id_of(self, token: str) -> int:
        """Id for the token, falling back to [UNK]."""
        return self._ids.get(token, UNK_ID)

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
    chars: set[str] = set()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        for word in text.split():
            counts[word] += 1
            chars.update(word)
    if n_texts == 0:
        raise DataError("build_vocab: empty corpus")

    tokens = list(RESERVED)
    ordered_chars = sorted(chars)
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
    pieces = []
    for word in text.split():
        if word in vocab:
            pieces.append(word)
            continue
        for i, ch in enumerate(word):
            piece = ch if i == 0 else CONT + ch
            pieces.append(piece if piece in vocab else UNK)
    return pieces


def _token_ids(text: str, vocab: Vocab, max_len: int) -> list:
    """[CLS] then the text's token ids, cut to max_len."""
    if max_len < 2:
        raise ConfigError(f"max_len must be at least 2, got {max_len}")
    ids = [CLS_ID]
    ids.extend(vocab.id_of(p) for p in tokenize(text, vocab))
    return ids[:max_len]


def encode(text: str, vocab: Vocab, max_len: int):
    """[CLS]-first id sequence, truncated or right-padded to max_len.

    Returns (ids, mask) as int64 arrays; mask is 1 over [CLS] and real
    tokens, 0 over padding.
    """
    ids = _token_ids(text, vocab, max_len)
    n = len(ids)
    ids.extend([PAD_ID] * (max_len - n))
    mask = [1] * n + [0] * (max_len - n)
    return np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=np.int64)


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

    @property
    def batch_size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def length(self) -> int:
        return self.token_ids.shape[1]


def batch_encode(texts: Sequence[str], vocab: Vocab, max_len: int) -> EncodedBatch:
    """Encode several texts into one padded batch."""
    if not texts:
        raise DataError("batch_encode: no texts")
    rows = [_token_ids(t, vocab, max_len) for t in texts]
    try:
        ids = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(rows), max_len), dtype=np.int64)
    except MemoryError:
        raise ConfigError(f"max_len {max_len}: {len(rows)} rows of {max_len} token ids "
                          "do not fit in memory") from None
    for r, row in enumerate(rows):
        ids[r, :len(row)] = row
        mask[r, :len(row)] = 1
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
