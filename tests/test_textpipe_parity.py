"""normalize, build_vocab and batch_encode against plain reference copies
that run every regex pass on every text, count word by word, tokenize
before they look ids up, and fill the id matrix row by row: the fast paths
must give the same output on every input, not just on the bundled (ASCII,
URL-free) assets."""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trihead.textpipe import (
    CLS_ID,
    CONT,
    PAD_ID,
    RESERVED,
    UNK,
    _EMOJI_RE,
    _URL_RE,
    EmojiMap,
    Vocab,
    _strip_punctuation,
    batch_encode,
    build_vocab,
    normalize,
)


def reference_normalize(raw, emoji_map=None):
    text = _URL_RE.sub(" ", raw)
    if emoji_map is not None:
        text = emoji_map.apply(text)
    text = _EMOJI_RE.sub(" ", text)
    text = _strip_punctuation(text)
    return " ".join(text.split())


def reference_build_vocab(corpus, target_size):
    counts, chars = Counter(), set()
    for text in corpus:
        for word in text.split():
            counts[word] += 1
            chars.update(word)
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


def reference_tokenize(text, vocab):
    pieces = []
    for word in text.split():
        if word in vocab:
            pieces.append(word)
            continue
        for i, ch in enumerate(word):
            piece = ch if i == 0 else CONT + ch
            pieces.append(piece if piece in vocab else UNK)
    return pieces


def reference_batch_encode(texts, vocab, max_len):
    rows = [[CLS_ID, *(vocab.id_of(p) for p in reference_tokenize(t, vocab))][:max_len]
            for t in texts]
    ids = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), max_len), dtype=np.int64)
    for r, row in enumerate(rows):
        ids[r, :len(row)] = row
        mask[r, :len(row)] = 1
    return ids, mask


# The pieces a scraped comment is made of, with the ones that sit on the
# edge of a skipped pass: URL openers in mixed case, a lone "." or ":", the
# long s and the Kelvin sign (re.IGNORECASE folds them to "s" and "k"),
# emoji with their joiner and variation selectors, and Bengali script.
FRAGMENTS = ["a", "b", "k", "s", "w", "x", " ", ".", ":", "/", "HTTP://", "hTtPs://",
             "http\u017f://", "wWw.", "www", "\u017f", "\u212a", "\U0001f525", "\U0001f602",
             "\u2764", "\U0001f468", "\u200d", "\ufe0f", "\ufe0e", "\u0986", "\u09ae",
             "\u09bf", "\u0964", ":)", "!"]
scraped = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)
EMOJI_MAP = EmojiMap({"\U0001f525": "agun", "\U0001f468\u200d\U0001f469": "paribar",
                      "\u2764\ufe0f": "\u09ad\u09be\u09b2\u09cb", ":)": "khushi"})


@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(scraped, st.booleans())
@example("HTTP://x", False)
@example("wWw.x", False)
@example("http\u017f://\u212a", False)
@example("a\U0001f525b", False)
@example("a\ufe0fb", True)
def test_normalize_matches_the_every_pass_reference(raw, mapped):
    emoji_map = EMOJI_MAP if mapped else None
    assert normalize(raw, emoji_map) == reference_normalize(raw, emoji_map)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.text(max_size=60), st.booleans())
def test_normalize_matches_the_reference_on_any_text(raw, mapped):
    emoji_map = EMOJI_MAP if mapped else None
    assert normalize(raw, emoji_map) == reference_normalize(raw, emoji_map)


words = st.text(alphabet="abc\u0986\u09ae\u09bf\u212a", min_size=1, max_size=4)
corpus = st.lists(st.lists(words, max_size=6).map(" ".join), min_size=1, max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(corpus, st.integers(min_value=5, max_value=40))
def test_build_vocab_matches_the_reference_token_order(texts, target_size):
    assert build_vocab(texts, target_size).tokens == \
        reference_build_vocab(texts, target_size).tokens


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(corpus, st.integers(min_value=5, max_value=30),
       st.lists(st.lists(words, max_size=12).map(" ".join), min_size=1, max_size=6),
       st.integers(min_value=2, max_value=10))
def test_batch_encode_matches_the_row_by_row_reference(vocab_texts, target_size, texts,
                                                       max_len):
    # a small vocabulary: some words are whole tokens, the rest fall apart
    # into pieces, characters it never saw become [UNK], and long texts are
    # truncated at max_len
    vocab = build_vocab(vocab_texts, target_size)
    batch = batch_encode(texts, vocab, max_len)
    ids, mask = reference_batch_encode(texts, vocab, max_len)
    assert batch.token_ids.dtype == batch.attention_mask.dtype == np.int64
    assert np.array_equal(batch.token_ids, ids)
    assert np.array_equal(batch.attention_mask, mask)
