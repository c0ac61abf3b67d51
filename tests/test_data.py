"""TSV loading, distribution tables, and the checkpoint file format."""

import json
import struct

import numpy as np
import pytest

import trihead.data
from trihead.data import (
    CHECKPOINT_MAGIC,
    DistributionTable,
    Example,
    class_distribution,
    load_checkpoint,
    load_dataset,
    load_labels,
    load_prediction_input,
    save_checkpoint,
    write_dataset,
)
from trihead.encoder import EncoderConfig
from trihead.errors import CheckpointFormatError, DataError
from trihead.metrics import TriLabel
from trihead.textpipe import EmojiMap, Vocab, build_vocab
from trihead.train import Checkpoint, init_model_params

HEADER = "id\ttext\taggression\tgender\tcommunal"


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# labeled datasets


def test_load_dataset_roundtrips_rows(tmp_path):
    p = write(tmp_path, "d.tsv", [
        HEADER,
        "a1\tkhub bhalo\tNAG\tNGEN\tNCOM",
        "a2\ttui ekta chagol\tOAG\tNGEN\tNCOM",
        "a3\tmeyeder niye khocha\tCAG\tGEN\tNCOM",
    ])
    data = load_dataset(p)
    assert [ex.id for ex in data] == ["a1", "a2", "a3"]
    assert data[1].text == "tui ekta chagol"
    assert data[2].labels == TriLabel("CAG", "GEN", "NCOM")


def test_header_only_file_is_an_empty_dataset(tmp_path):
    assert load_dataset(write(tmp_path, "d.tsv", [HEADER])) == []


def test_missing_header_is_rejected(tmp_path):
    p = write(tmp_path, "d.tsv", ["a1\they\tNAG\tNGEN\tNCOM"])
    with pytest.raises(DataError, match="header"):
        load_dataset(p)
    # a CRLF header differs only by an invisible \r, so the message names it
    p = write(tmp_path, "d.tsv", [HEADER + "\r", "a1\they\tNAG\tNGEN\tNCOM\r"])
    shown = HEADER.replace("\t", "/")
    with pytest.raises(DataError) as e:
        load_dataset(p)
    assert str(e.value) == (f"{p}:1: bad header {shown}, expected {shown}; "
                            "the line ends in \\r (Windows line endings)")


def test_bad_label_names_line_and_id(tmp_path):
    p = write(tmp_path, "d.tsv", [HEADER, "x9\they\tNAG\tMALE\tNCOM"])
    with pytest.raises(DataError, match=r"d\.tsv:2 \(id 'x9'\)"):
        load_dataset(p)


@pytest.mark.parametrize("load, header, text", [
    (load_dataset, HEADER, "hey\t"),
    (load_labels, HEADER, "hey\t"),
    (load_labels, "id\taggression\tgender\tcommunal", ""),
], ids=["dataset", "labels-full", "labels-bare"])
def test_a_bad_triple_fails_at_its_first_line_after_a_good_one_repeats(
        tmp_path, load, header, text):
    # each distinct triple is checked once per file; a repeat of a good one
    # is not checked again, and a bad one is still named where it first is
    p = write(tmp_path, "d.tsv", [header, f"a1\t{text}NAG\tGEN\tNCOM",
                                  f"a2\t{text}NAG\tGEN\tNCOM", f"a3\t{text}NAG\tGEN\tCOMM",
                                  f"a4\t{text}NAG\tGEN\tCOMM"])
    with pytest.raises(DataError) as e:
        load(p)
    assert str(e.value) == (f"{p}:4 (id 'a3'): invalid communal label 'COMM'; "
                            "expected one of ('NCOM', 'COM')")
    assert load(write(tmp_path, "good.tsv", [header, f"a1\t{text}NAG\tGEN\tNCOM",
                                             f"a2\t{text}NAG\tGEN\tNCOM"]))


@pytest.mark.parametrize("loader, lines", [
    (load_dataset, [HEADER, "a1\they\tNAG\tNGEN\tNCOM", "a1\tyo\tNAG\tNGEN\tNCOM"]),
    (load_prediction_input, ["id\ttext", "a1\they", "a1\tyo"]),
    (load_labels, ["id\taggression\tgender\tcommunal", "a1\tNAG\tNGEN\tNCOM",
                   "a1\tOAG\tGEN\tCOM"]),
], ids=["dataset", "prediction_input", "labels"])
def test_duplicate_ids_rejected(tmp_path, loader, lines):
    p = write(tmp_path, "d.tsv", lines)
    with pytest.raises(DataError, match=r"d\.tsv:3: duplicate id 'a1'$"):
        loader(p)


def test_wrong_column_count_names_the_line(tmp_path):
    p = write(tmp_path, "d.tsv", [HEADER, "a1\they\tNAG\tNGEN"])
    with pytest.raises(DataError, match=r"d\.tsv:2.*columns"):
        load_dataset(p)


def test_empty_text_needs_explicit_permission(tmp_path):
    # a training set needs its texts; prediction input and scored labels do not
    p = write(tmp_path, "d.tsv", [HEADER, "a1\t\tNAG\tNGEN\tNCOM"])
    with pytest.raises(DataError, match="empty text"):
        load_dataset(p)
    assert load_prediction_input(p) == [("a1", "")]
    assert load_labels(p) == {"a1": TriLabel("NAG", "NGEN", "NCOM")}


def test_write_then_load_is_identity(tmp_path):
    data = [
        Example("r1", "ami bhalo achi", TriLabel("NAG", "NGEN", "NCOM")),
        Example("r2", "tor moto chele", TriLabel("OAG", "GEN", "COM")),
    ]
    p = tmp_path / "out.tsv"
    write_dataset(data, p)
    assert load_dataset(p) == data


def test_write_rejects_embedded_tabs(tmp_path):
    data = [Example("r1", "a\tb", TriLabel("NAG", "NGEN", "NCOM"))]
    with pytest.raises(DataError, match="tab or newline"):
        write_dataset(data, tmp_path / "out.tsv")


# ---------------------------------------------------------------------------
# prediction inputs and gold labels


BOM = "\ufeff"


def test_dataset_with_a_byte_order_mark_loads_as_without(tmp_path):
    lines = [HEADER, "q1\tki khobor\tNAG\tNGEN\tNCOM"]
    plain = write(tmp_path, "plain.tsv", lines)
    marked = write(tmp_path, "marked.tsv", [BOM + lines[0], *lines[1:]])
    assert load_dataset(marked) == load_dataset(plain)
    assert load_prediction_input(marked) == [("q1", "ki khobor")]


def test_labels_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    lines = ["id\taggression\tgender\tcommunal", "q1\tCAG\tGEN\tNCOM"]
    marked = write(tmp_path, "marked.tsv", [BOM + lines[0], *lines[1:]])
    assert load_labels(marked) == {"q1": TriLabel("CAG", "GEN", "NCOM")}


def test_prediction_input_accepts_bare_pairs(tmp_path):
    p = write(tmp_path, "p.tsv", ["id\ttext", "q1\tki khobor", "q2\tbhalo"])
    assert load_prediction_input(p) == [("q1", "ki khobor"), ("q2", "bhalo")]


def test_prediction_input_accepts_full_dataset(tmp_path):
    p = write(tmp_path, "p.tsv", [HEADER, "q1\tki khobor\tNAG\tNGEN\tNCOM"])
    assert load_prediction_input(p) == [("q1", "ki khobor")]


def test_prediction_input_does_not_check_the_labels_it_ignores(tmp_path):
    p = write(tmp_path, "p.tsv", [HEADER, "q1\tki khobor\tXAG\tNGEN\tNCOM"])
    assert load_prediction_input(p) == [("q1", "ki khobor")]
    # its columns and ids are still checked
    p = write(tmp_path, "p.tsv", [HEADER, "q1\tki khobor\tXAG\tNGEN"])
    with pytest.raises(DataError, match=r"p\.tsv:2: expected 5 columns, got 4"):
        load_prediction_input(p)
    p = write(tmp_path, "p.tsv", [HEADER, "q1\tki\tXAG\tNGEN\tNCOM", "q1\tyo\tNAG\tNGEN\tNCOM"])
    with pytest.raises(DataError, match=r"p\.tsv:3: duplicate id 'q1'"):
        load_prediction_input(p)


def test_labels_from_either_shape(tmp_path):
    full = write(tmp_path, "full.tsv", [HEADER, "q1\they\tCAG\tGEN\tNCOM"])
    bare = write(tmp_path, "bare.tsv",
                 ["id\taggression\tgender\tcommunal", "q1\tCAG\tGEN\tNCOM"])
    want = {"q1": TriLabel("CAG", "GEN", "NCOM")}
    assert load_labels(full) == want
    assert load_labels(bare) == want


@pytest.mark.parametrize("load, header, row", [
    (load_prediction_input, "id\ttext", "q1\they"),
    (load_prediction_input, HEADER, "q1\they\tCAG\tGEN\tNCOM"),
    (load_labels, "id\taggression\tgender\tcommunal", "q1\tCAG\tGEN\tNCOM"),
    (load_labels, HEADER, "q1\they\tCAG\tGEN\tNCOM"),
], ids=["predict-bare", "predict-full", "labels-bare", "labels-full"])
def test_each_load_reads_its_file_once(tmp_path, monkeypatch, load, header, row):
    real_read, reads = trihead.data.read_utf8, []

    def counted(path, *args, **kwargs):
        reads.append(path)
        return real_read(path, *args, **kwargs)

    monkeypatch.setattr(trihead.data, "read_utf8", counted)
    assert load(write(tmp_path, "f.tsv", [header, row]))
    assert len(reads) == 1


# ---------------------------------------------------------------------------
# distribution tables


def lump(n, agg, gen, com):
    return [Example(f"e{agg}{gen}{com}{i}", "w", TriLabel(agg, gen, com))
            for i in range(n)]


def test_distribution_counts_match_a_published_style_table():
    # aggression 1258/1495/456, gender 3006/203, communal 2967/242, total 3209
    data = (lump(1258, "NAG", "NGEN", "NCOM")
            + lump(1295, "CAG", "NGEN", "NCOM")
            + lump(200, "CAG", "GEN", "NCOM")
            + lump(211, "OAG", "NGEN", "NCOM")
            + lump(3, "OAG", "GEN", "NCOM")
            + lump(242, "OAG", "NGEN", "COM"))
    table = class_distribution(data)
    assert (table.nag, table.cag, table.oag) == (1258, 1495, 456)
    assert (table.ngen, table.gen) == (3006, 203)
    assert (table.ncom, table.com) == (2967, 242)
    assert table.total == 3209
    assert table.to_table() == (
        "NAG       1258\n"
        "CAG       1495\n"
        "OAG        456\n"
        "NGEN      3006\n"
        "GEN        203\n"
        "NCOM      2967\n"
        "COM        242\n"
        "total     3209"
    )
    assert table.to_json() == ('{"CAG":1495,"COM":242,"GEN":203,"NAG":1258,'
                               '"NCOM":2967,"NGEN":3006,"OAG":456,"total":3209}')


def test_distribution_of_empty_dataset_is_all_zero():
    table = class_distribution([])
    assert table.total == 0
    assert table.to_json() == (
        '{"CAG":0,"COM":0,"GEN":0,"NAG":0,"NCOM":0,"NGEN":0,"OAG":0,"total":0}'
    )


def test_distribution_rejects_inconsistent_sums():
    with pytest.raises(DataError, match="disagree"):
        DistributionTable(nag=1, cag=0, oag=0, ngen=2, gen=0,
                          ncom=1, com=0, total=1)


def test_distribution_table_text_has_all_rows():
    text = class_distribution(lump(3, "NAG", "NGEN", "NCOM")).to_table()
    for name in ("NAG", "CAG", "OAG", "NGEN", "GEN", "NCOM", "COM", "total"):
        assert name in text


# ---------------------------------------------------------------------------
# checkpoint format


def small_checkpoint(seed=0):
    vocab = build_vocab(["ami bhalo", "tumi ke", "khub kharap"], target_size=40)
    config = EncoderConfig(vocab_size=vocab.size, d_model=8, n_layers=1,
                           n_heads=2, d_ff=16, max_len=6, dropout_p=0.1)
    params = init_model_params(config, "attention", seed=seed)
    return Checkpoint(kind="model", config=config, vocab=vocab,
                      pooler_kind="attention", params=params,
                      meta={"seed": seed, "epochs": 0})


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    ck = small_checkpoint()
    p = tmp_path / "m.ckpt"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    assert back.kind == ck.kind
    assert back.config == ck.config
    assert back.vocab.tokens == ck.vocab.tokens
    assert back.pooler_kind == ck.pooler_kind
    assert back.meta == ck.meta
    assert list(back.params) == list(ck.params)
    for name in ck.params:
        assert np.array_equal(back.params[name].data, ck.params[name].data), name
        assert back.params[name].data.dtype == np.float32


def test_checkpoint_round_trip_carries_the_emoji_map(tmp_path):
    mapped = small_checkpoint()
    mapped.emoji_map = EmojiMap({"\U0001F600": "hasi"})
    save_checkpoint(mapped, tmp_path / "mapped.ckpt")
    save_checkpoint(small_checkpoint(), tmp_path / "plain.ckpt")
    loaded = {
        "mapped": load_checkpoint(tmp_path / "mapped.ckpt"),
        "plain": load_checkpoint(tmp_path / "plain.ckpt"),
        # as map-less checkpoints were once written: no emoji_map key at all
        "no-key": load_checkpoint(corrupt(tmp_path, rewrite_header(
            lambda h: h["meta"].pop("emoji_map")))),
    }
    assert loaded["mapped"].emoji_map.entries == mapped.emoji_map.entries
    assert loaded["plain"].emoji_map is None
    assert loaded["no-key"].emoji_map is None
    for name, back in loaded.items():
        assert back.meta == {"seed": 0, "epochs": 0}, name


def test_checkpoint_bytes_are_reproducible(tmp_path):
    ck = small_checkpoint()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck, a)
    save_checkpoint(load_checkpoint(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_file_changes_when_weights_change(tmp_path):
    ck = small_checkpoint()
    a = tmp_path / "a.ckpt"
    save_checkpoint(ck, a)
    ck.params["encoder.tok_emb"].data[0, 0] += 1.0
    b = tmp_path / "b.ckpt"
    save_checkpoint(ck, b)
    assert a.read_bytes() != b.read_bytes()


class FailsMidWrite(dict):
    """A parameter table whose blobs stop coming after the first one."""

    def values(self):
        it = iter(super().values())
        yield next(it)
        raise OSError("disk full")


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(seed=0), p)
    before = p.read_bytes()
    ck = small_checkpoint(seed=1)
    ck.params = FailsMidWrite(ck.params)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ck, p)
    assert p.read_bytes() == before
    assert sorted(x.name for x in tmp_path.iterdir()) == ["m.ckpt"]


def test_checkpoint_rejects_float64_params(tmp_path):
    ck = small_checkpoint()
    from trihead.autograd import Tensor
    ck.params["encoder.tok_emb"] = Tensor(
        ck.params["encoder.tok_emb"].data.astype(np.float64),
        dtype=np.float64, requires_grad=True)
    with pytest.raises(DataError, match="float32"):
        save_checkpoint(ck, tmp_path / "m.ckpt")


def test_checkpoint_rejects_nonfinite_params(tmp_path):
    ck = small_checkpoint()
    ck.params["encoder.tok_emb"].data[0, 0] = np.nan
    with pytest.raises(DataError, match="NaN"):
        save_checkpoint(ck, tmp_path / "m.ckpt")


def corrupt(tmp_path, mutate):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(), p)
    raw = bytearray(p.read_bytes())
    mutate(raw)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    return bad


def test_bad_magic_is_named(tmp_path):
    def mutate(raw):
        raw[:4] = b"XXXX"
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(corrupt(tmp_path, mutate))


def test_unknown_version_is_named(tmp_path):
    def mutate(raw):
        raw[4:8] = struct.pack("<I", 99)
    with pytest.raises(CheckpointFormatError, match="version 99"):
        load_checkpoint(corrupt(tmp_path, mutate))


def test_truncated_file_is_detected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:len(raw) - 17])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(p)


def test_trailing_garbage_is_detected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(), p)
    p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(p)


def test_tiny_file_is_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(CHECKPOINT_MAGIC)
    with pytest.raises(CheckpointFormatError, match="too short"):
        load_checkpoint(p)


def test_garbage_header_is_rejected(tmp_path):
    payload = b"{not json"
    p = tmp_path / "m.ckpt"
    p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1)
                  + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(CheckpointFormatError, match="unreadable header"):
        load_checkpoint(p)


def test_header_missing_keys_is_rejected(tmp_path):
    payload = json.dumps({"kind": "model"}).encode()
    p = tmp_path / "m.ckpt"
    p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1)
                  + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(CheckpointFormatError, match="missing keys"):
        load_checkpoint(p)


def rewrite_header(edit):
    """A corrupt() mutation that changes only the JSON header."""
    def mutate(raw):
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        edit(header)
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        raw[8:12] = struct.pack("<I", len(blob))
        raw[12:12 + hlen] = blob
    return mutate


def test_unknown_kind_is_rejected(tmp_path):
    mutate = rewrite_header(lambda h: h.update(kind="banana"))
    with pytest.raises(CheckpointFormatError, match="kind 'banana'"):
        load_checkpoint(corrupt(tmp_path, mutate))


def test_vocab_size_mismatch_is_rejected(tmp_path):
    mutate = rewrite_header(lambda h: h["vocab"].append("zz_extra"))
    with pytest.raises(CheckpointFormatError, match="vocab_size"):
        load_checkpoint(corrupt(tmp_path, mutate))


def test_loaded_params_are_trainable(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(), p)
    back = load_checkpoint(p)
    assert all(t.requires_grad for t in back.params.values())


def reverse_first_shape(header):
    header["params"][0]["shape"].reverse()  # same byte count, wrong shape


def rename_last_param(header):
    header["params"][-1]["name"] = "heads.extra.b"


@pytest.mark.parametrize("edit, message", [
    (reverse_first_shape, "'encoder.tok_emb' has shape"),
    (rename_last_param, "unexpected parameter 'heads.extra.b'"),
    pytest.param(lambda h: h["params"][0].update(shape=["x", 16]),
                 r"malformed parameter table entry .*'x'", id="non_int_dim"),
    pytest.param(lambda h: h["params"][0].update(shape=16),
                 "malformed parameter table entry .*'shape': 16", id="non_list_shape"),
    pytest.param(lambda h: h.update(params=5),
                 "params must be a JSON list, got int", id="non_list_params"),
    pytest.param(lambda h: h["params"].append(7),
                 "malformed parameter table entry 7,", id="non_object_entry"),
    pytest.param(lambda h: h["params"][0].update(shape=[-1, 16]),
                 r"malformed parameter table entry .*\[-1, 16\]", id="negative_dim"),
])
def test_parameter_table_mismatch_is_rejected(tmp_path, edit, message):
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(corrupt(tmp_path, rewrite_header(edit)))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda h: h["encoder_config"].update(d_model=8.0),
                 "encoder_config.d_model must be an integer, got 8.0", id="float_d_model"),
    pytest.param(lambda h: h["encoder_config"].update(n_layers=True),
                 "encoder_config.n_layers must be an integer, got True", id="bool_n_layers"),
    pytest.param(lambda h: h["encoder_config"].update(dropout_p="0.1"),
                 "encoder_config.dropout_p must be a number, got '0.1'", id="string_dropout"),
    pytest.param(lambda h: h.update(encoder_config=[8]),
                 "encoder_config must be a JSON object, got list", id="list_config"),
    pytest.param(lambda h: h["vocab"].__setitem__(5, 7),
                 r"vocab\[5\] must be a string, got 7", id="int_token"),
    pytest.param(lambda h: h.update(vocab="abc"),
                 "vocab must be a JSON list, got str", id="string_vocab"),
    pytest.param(lambda h: h["meta"].update(emoji_map=["x"]),
                 "meta.emoji_map must be a JSON object, got list", id="list_emoji_map"),
    pytest.param(lambda h: h["meta"].update(emoji_map={"x": 1}),
                 r"meta.emoji_map\['x'\] must be a string, got 1", id="int_emoji_word"),
    pytest.param(lambda h: h["meta"].update(emoji_map={"": "hasi"}),
                 "emoji map: empty key", id="empty_emoji_key"),
])
def test_malformed_header_contents_are_rejected(tmp_path, edit, message):
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(corrupt(tmp_path, rewrite_header(edit)))


def test_encoder_checkpoint_with_a_pooler_is_rejected(tmp_path):
    ck = small_checkpoint()
    enc = {k[len("encoder."):]: t for k, t in ck.params.items() if k.startswith("encoder.")}
    p = tmp_path / "e.ckpt"
    save_checkpoint(Checkpoint(kind="encoder", config=ck.config, vocab=ck.vocab,
                               pooler_kind="attention", params=enc), p)
    with pytest.raises(CheckpointFormatError, match="encoder checkpoint has pooler"):
        load_checkpoint(p)
