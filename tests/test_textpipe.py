"""Cleanup, vocabulary, encoding, and oversampling behaviour."""

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trihead.textpipe
from trihead.errors import ConfigError, DataError
from trihead.metrics import TriLabel
from trihead.textpipe import (
    CLS_ID,
    PAD_ID,
    RESERVED,
    UNK,
    UNK_ID,
    EmojiMap,
    EncodedBatch,
    Vocab,
    balance,
    batch_encode,
    build_vocab,
    normalize,
    tokenize,
)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_strips_url_and_punctuation():
    assert normalize("check https://x.co !!") == "check"


def test_normalize_empty():
    assert normalize("") == ""


def test_normalize_clean_text_passes_through():
    text = "tome hola bal chera tumi nijai jante"
    assert normalize(text) == text


def test_normalize_www_urls_and_whitespace():
    assert normalize("go to www.example.com/page now") == "go to now"
    assert normalize("  a\t b\n\nc ") == "a b c"


def test_normalize_hash_and_commas_stripped():
    assert normalize("#tag one,two") == "tag onetwo"


def test_normalize_deletes_emoji_without_map():
    assert normalize("fire \U0001f525 day \U0001f602") == "fire day"
    assert normalize("hi❤️there") == "hi there"


def test_normalize_replaces_emoji_with_map():
    m = EmojiMap({"\U0001f525": "agun", "\U0001f602": "hasi"})
    assert normalize("ki \U0001f525\U0001f602 din", m) == "ki agun hasi din"


def test_normalize_map_longest_sequence_wins():
    seq = "\U0001f468‍\U0001f469"
    m = EmojiMap({"\U0001f468": "lok", seq: "paribar"})
    assert normalize(seq, m) == "paribar"


def test_normalize_keeps_non_emoji_symbols():
    # currency and math signs are not punctuation and not pictographs
    assert normalize("5 + 3 = 8") == "5 + 3 = 8"
    assert "₹" in normalize("₹100")


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_normalize_idempotent(raw):
    once = normalize(raw)
    assert normalize(once) == once


@given(st.text(max_size=80))
def test_normalize_output_is_clean(raw):
    out = normalize(raw)
    assert out == " ".join(out.split())
    assert not any(unicodedata.category(ch).startswith("P") for ch in out)


def test_punctuation_table_matches_the_category_rule_on_every_code_point(monkeypatch):
    # a fresh table, so the module's does not keep 1.1M entries after the test
    monkeypatch.setattr(trihead.textpipe, "_PUNCTUATION",
                        trihead.textpipe._PunctuationTable())
    text = "".join(map(chr, (*range(0xD800), *range(0xE000, 0x110000))))
    want = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    assert trihead.textpipe._strip_punctuation(text) == want
    assert trihead.textpipe._strip_punctuation(text) == want   # from the filled table


def test_normalize_idempotent_with_map():
    m = EmojiMap({"\U0001f525": "agun"})
    raw = "dekho https://t.co/xyz \U0001f525!! khub bhalo"
    once = normalize(raw, m)
    assert normalize(once, m) == once
    assert once == "dekho agun khub bhalo"


# ---------------------------------------------------------------------------
# EmojiMap file handling


def test_emoji_map_from_tsv(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text(
        "# comment line\n"
        "\U0001f525\tagun\n"
        "\n"
        "\U0001f602\thasi\n",
        encoding="utf-8",
    )
    m = EmojiMap.from_tsv(p)
    assert len(m.entries) == 2
    assert m.entries["\U0001f525"] == "agun"


def test_emoji_map_drops_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("\ufeff\U0001f600\tkhushi\n", encoding="utf-8")
    m = EmojiMap.from_tsv(p)
    assert list(m.entries) == ["\U0001f600"]
    assert normalize("ami \U0001f600 bhalo", m) == "ami khushi bhalo"


def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_file_offset(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_bytes(b"\xef\xbb\xbfcaf\xe9\tsmile\n")
    with pytest.raises(DataError, match=r"at byte 6\)$"):
        EmojiMap.from_tsv(p)


def test_emoji_map_rejects_wrong_columns(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("\U0001f525\tagun\textra\n", encoding="utf-8")
    with pytest.raises(DataError, match="columns"):
        EmojiMap.from_tsv(p)


def test_emoji_map_rejects_duplicate_keys(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("\U0001f525\tagun\n\U0001f525\tabar\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate"):
        EmojiMap.from_tsv(p)


def test_emoji_map_rejects_emoji_in_replacement():
    with pytest.raises(DataError, match="contains emoji"):
        EmojiMap({"\U0001f525": "\U0001f602"})


@pytest.mark.parametrize("key", ["a", "ab", "x y", "\u00e9", "+"])
def test_emoji_map_rejects_a_key_normalize_keeps(key):
    # {"a": "ab"} turned "a cat" into "ab c ab t", and a second pass into
    # "ab b c ab b t"; {"ab": "x"} turned "a.b" into "ab", then into "x"
    message = f"key {key!r} holds no emoji or punctuation"
    with pytest.raises(DataError, match=re.escape(message)):
        EmojiMap({key: "ab"})


def test_emoji_map_takes_emoticon_keys_and_normalize_stays_idempotent():
    m = EmojiMap({":)": "khushi", "a.b": "x", "\U0001f525": "agun"})
    for raw in ("a :) cat", "a.b:)", "ki \U0001f525 a.b"):
        once = normalize(raw, m)
        assert normalize(once, m) == once
    assert normalize("a :) cat", m) == "a khushi cat"


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_small_corpus_contains_expected():
    v = build_vocab(["a a b"], target_size=6)
    for tok in [*RESERVED, "a", "b"]:
        assert tok in v.tokens


def test_build_vocab_reserved_ids_fixed():
    v = build_vocab(["x y z"], target_size=10)
    assert v.token_of(0) == "[PAD]"
    assert v.token_of(1) == "[UNK]"
    assert v.token_of(2) == "[CLS]"
    assert v.token_of(3) == "[SEP]"


def test_token_of_refuses_an_id_outside_the_vocabulary():
    v = build_vocab(["x y z"], target_size=10)
    for idx in (-1, v.size):
        with pytest.raises(IndexError, match=rf"^token id {idx} out of range \[0, {v.size}\)$"):
            v.token_of(idx)


def test_build_vocab_deterministic():
    corpus = ["ek dui tin", "dui tin tin char"]
    a = build_vocab(corpus, 40)
    b = build_vocab(corpus, 40)
    assert a.tokens == b.tokens


def test_build_vocab_frequency_then_alpha():
    v = build_vocab(["bb aa bb cc aa bb"], target_size=30)
    words = [t for t in v.tokens if len(t) > 1 and not t.startswith(("#", "["))]
    assert words == ["bb", "aa", "cc"]


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        build_vocab([], 10)


def test_build_vocab_target_too_small():
    with pytest.raises(ConfigError):
        build_vocab(["a"], 4)


def test_vocab_roundtrip_identity():
    v = build_vocab(["kichu kotha bolo"], 50)
    for i in range(v.size):
        assert v.tokens.index(v.token_of(i)) == i


def test_vocab_rejects_bad_reserved_prefix():
    with pytest.raises(DataError):
        Vocab(("[PAD]", "[CLS]", "[UNK]", "[SEP]", "a"))


def test_vocab_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        Vocab((*RESERVED, "a", "a"))


# ---------------------------------------------------------------------------
# tokenize / encode


def test_tokenize_whole_word_else_characters():
    v = build_vocab(["koro koro kotha"], target_size=60)
    assert tokenize("koro", v) == ["koro"]
    # "okkoro" is unseen as a word; falls apart into seen characters
    assert tokenize("okkoro", v) == ["o", "##k", "##k", "##o", "##r", "##o"]


def test_tokenize_unknown_character_becomes_unk():
    v = build_vocab(["abc"], target_size=20)
    assert tokenize("aQ", v) == ["a", UNK]


def encode_one(text, vocab, max_len):
    """The (ids, mask) row batch_encode gives one text."""
    batch = batch_encode([text], vocab, max_len)
    return batch.token_ids[0], batch.attention_mask[0]


def test_encode_empty_text():
    v = build_vocab(["a a b"], 6)
    ids, mask = encode_one("", v, max_len=4)
    assert ids.tolist() == [CLS_ID, PAD_ID, PAD_ID, PAD_ID]
    assert mask.tolist() == [1, 0, 0, 0]


def test_encode_direct_lookup():
    v = build_vocab(["a a b"], 6)
    ids, mask = encode_one("a b", v, max_len=5)
    assert ids.tolist() == [CLS_ID, *map(v.tokens.index, "ab"), PAD_ID, PAD_ID]
    assert mask.tolist() == [1, 1, 1, 0, 0]


def test_encode_truncates_to_max_len():
    v = build_vocab(["a a b"], 6)
    ids, mask = encode_one("a b a b a b a b", v, max_len=4)
    assert len(ids) == 4 and len(mask) == 4
    assert ids.tolist() == [CLS_ID, *map(v.tokens.index, "aba")]
    assert mask.tolist() == [1, 1, 1, 1]


def test_encode_min_len_guard():
    v = build_vocab(["a"], 6)
    with pytest.raises(ConfigError):
        encode_one("a", v, max_len=1)


@given(st.lists(st.sampled_from(["ami", "tumi", "bhalo", "kharap"]), min_size=0, max_size=12))
def test_encode_ids_in_range_and_cls_first(words):
    v = build_vocab(["ami tumi bhalo", "kharap bhalo ami"], 40)
    ids, mask = encode_one(" ".join(words), v, max_len=8)
    assert ids[0] == CLS_ID
    assert ids.max() < v.size and ids.min() >= 0
    # mask is monotone non-increasing
    assert all(mask[i] >= mask[i + 1] for i in range(len(mask) - 1))


def test_batch_encode_refuses_no_texts():
    with pytest.raises(DataError, match=r"^batch_encode: no texts$"):
        batch_encode([], build_vocab(["x"], target_size=10), max_len=4)


def test_batch_encode_equals_stacked_encode():
    v = build_vocab(["ami tumi bhalo", "kharap bhalo ami"], 20)
    texts = ["ami bhalo", "", "ami tumi bhalo kharap bhalo ami tumi", "Qx ami", "tumi"]
    batch = batch_encode(texts, v, max_len=5)
    pairs = [encode_one(t, v, max_len=5) for t in texts]
    assert batch.token_ids.dtype == batch.attention_mask.dtype == np.int64
    assert np.array_equal(batch.token_ids, np.stack([p[0] for p in pairs]))
    assert np.array_equal(batch.attention_mask, np.stack([p[1] for p in pairs]))
    assert batch.attention_mask[2].all()  # truncated
    assert batch.attention_mask[1].sum() == 1  # empty text keeps its [CLS]
    assert UNK_ID in batch.token_ids[3]


def test_cut_takes_rows_up_to_their_longest_real_one():
    v = build_vocab(["ami tumi bhalo kharap"], 60)
    batch = batch_encode(["ami", "ami tumi bhalo", "tumi bhalo kharap ami"], v, max_len=8)
    rows = np.array([1, 0])
    cut = batch.cut(rows)
    assert cut.token_ids.shape == cut.attention_mask.shape == (2, 4)
    assert np.array_equal(cut.token_ids, batch.token_ids[rows, :4])
    assert np.array_equal(cut.attention_mask, batch.attention_mask[rows, :4])
    assert batch.cut(np.arange(3)).token_ids.shape == (3, 5)


@pytest.mark.parametrize("ids, mask, message", [
    ([[CLS_ID, 5, 6]], [[1, 1]], "batch ids (1, 3) and mask (1, 2) must be equal 2-D shapes"),
    ([CLS_ID, 5], [1, 1], "batch ids (2,) and mask (2,) must be equal 2-D shapes"),
    ([[CLS_ID, 5], [5, CLS_ID]], [[1, 1], [1, 1]],
     "every batch row must start with an unmasked [CLS]"),
    ([[CLS_ID, 5], [CLS_ID, 6]], [[1, 1], [0, 0]],
     "every batch row must start with an unmasked [CLS]"),
    ([[CLS_ID, 5, 6, PAD_ID]], [[1, 0, 1, 0]], "attention mask must be contiguous from the left"),
], ids=["unequal-shapes", "one-dimensional", "no-leading-cls", "masked-cls", "mask-turns-back-on"])
def test_encoded_batch_refuses_a_malformed_layout(ids, mask, message):
    with pytest.raises(DataError, match=re.escape(message)):
        EncodedBatch(token_ids=np.array(ids), attention_mask=np.array(mask))


def test_in_corpus_text_never_needs_unk():
    corpus = ["jhamela hobe na", "khub bhalo katha"]
    v = build_vocab(corpus, 10)  # too small for any whole word beyond chars
    scrambled = "khobata jhanaba elamah"  # corpus characters, unseen words
    assert UNK not in tokenize(scrambled, v)


# ---------------------------------------------------------------------------
# balance


@dataclass(frozen=True)
class _Row:
    labels: TriLabel


def _row(a, g="NGEN", c="NCOM"):
    return _Row(labels=TriLabel(a, g, c))


def _counts(rows):
    return Counter(r.labels.aggression for r in rows)


def test_balance_reaches_majority_count():
    data = [_row("NAG")] * 4 + [_row("CAG")] * 2 + [_row("OAG")]
    out = balance(data, seed=0)
    assert _counts(out) == {"NAG": 4, "CAG": 4, "OAG": 4}


def test_balance_already_balanced_is_same_multiset():
    data = [_row("NAG", "GEN"), _row("CAG", "NGEN"), _row("OAG", "NGEN")]
    out = balance(data, seed=3)
    assert Counter(out) == Counter(data)


def test_balance_deterministic():
    data = [_row("NAG")] * 5 + [_row("CAG")] * 2
    a = balance(data, seed=11)
    b = balance(data, seed=11)
    assert a == b
    assert balance(data, seed=12) != a or len(a) == len(b)


def test_balance_is_superset_per_class():
    data = [_row("NAG", "GEN", "COM")] * 3 + [_row("OAG", "NGEN", "COM")]
    out = balance(data, seed=5)
    got, want = Counter(out), Counter(data)
    assert all(got[k] >= n for k, n in want.items())


def test_balance_missing_class_stays_missing():
    data = [_row("NAG")] * 3 + [_row("CAG")]
    out = balance(data, seed=1)
    assert set(_counts(out)) == {"NAG", "CAG"}


def test_balance_empty_dataset():
    with pytest.raises(DataError):
        balance([], seed=0)
