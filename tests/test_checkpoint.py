"""Model checkpoints: the self-describing layout, bit-exact round trips, and
every malformed file a DataError."""

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from agadapt.checkpoint import MAGIC, PREFIX, VERSION, load_model, save_model
from agadapt.errors import DataError
from agadapt.model import ModelConfig, Seq2SeqModel, TokenSequence, Vocabulary

RNG = np.random.default_rng(9)
BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

SMALL = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                    ffn_width=16, bottleneck=2, feat_dim=4, max_len=24)
# a value other than the default for every ModelConfig field
NON_DEFAULT = {"enc_layers": 1, "dec_layers": 3, "heads": 2, "width": 8,
               "ffn_width": 16, "bottleneck": 2, "feat_dim": 4, "max_len": 24,
               "anchored_heads": 1, "anchor_strength": 2.5, "embed_polarity": 0.2,
               "anchor_contrast": 0.9}


# headers that repeat a key, at the top and nested, with the refusal each gets
REPEATED_KEY = {b'{"adapters": false, "adapters": true}': "key 'adapters' repeats",
                b'{"vocab": {"n_words_a": 5, "n_words_a": 5}}': "key 'n_words_a' repeats"}


def small_model(adapters: bool = False, seed: int = 2) -> Seq2SeqModel:
    """A small model whose every parameter holds random values."""
    model = Seq2SeqModel(SMALL, Vocabulary.build(5, 5), seed=seed)
    if adapters:
        model.init_adapters(seed=seed + 1)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.normal(size=p.data.shape)
    return model


def split(blob: bytes) -> tuple[dict, bytes]:
    """(header, payload) of a checkpoint's bytes."""
    magic, version, length = PREFIX.unpack_from(blob)
    assert (magic, version) == (MAGIC, VERSION)
    end = PREFIX.size + length
    return json.loads(blob[PREFIX.size:end]), blob[end:]


def write(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(PREFIX.pack(MAGIC, VERSION, len(header)) + header + payload)


def rewrite_header(path, edit) -> None:
    """Apply `edit` to the checkpoint's parsed header and write it back."""
    header, payload = split(path.read_bytes())
    edit(header)
    write(path, json.dumps(header, sort_keys=True).encode("utf-8"), payload)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(adapters=True)
        path = tmp_path / "x.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert clone.params.keys() == model.params.keys()
        for name, p in model.params.items():
            got = clone.params[name].data
            assert got.dtype == np.float64 and got.shape == p.data.shape
            assert got.tobytes() == p.data.tobytes(), name
            assert got.flags.writeable

    def test_header_layout(self, tmp_path):
        model = small_model(adapters=True)
        path = tmp_path / "x.ckpt"
        save_model(path, model)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        _, version, length = PREFIX.unpack_from(blob)
        assert version == 2
        text = blob[PREFIX.size:PREFIX.size + length].decode("utf-8")
        header = json.loads(text)
        assert text == json.dumps(header, sort_keys=True)
        assert header["model_config"] == asdict(SMALL)
        assert header["vocab"] == {"n_words_a": 5, "n_words_b": 5}
        assert header["adapters"] is True
        assert list(header["tensors"].items()) == \
            [(name, list(model.params[name].data.shape)) for name in sorted(model.params)]
        payload = b"".join(model.params[name].data.astype("<f8").tobytes()
                           for name in sorted(model.params))
        assert blob[PREFIX.size + length:] == payload

    def test_deterministic_bytes(self, tmp_path):
        p1, p2, p3 = tmp_path / "1.ckpt", tmp_path / "2.ckpt", tmp_path / "3.ckpt"
        model = small_model(adapters=True)
        save_model(p1, model)
        save_model(p2, model)
        save_model(p3, load_model(p1, freeze_backbone=False))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_model(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "absent.ckpt")

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 0))
        with pytest.raises(DataError, match="version-1"):
            load_model(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_model(path, small_model())
        before = path.read_bytes()
        model = small_model(seed=5)
        # the header and the tensors sorted before it are written, then this fails
        model.params["dec.out_proj.weight"].data = np.full((8, 17), "x")
        with pytest.raises(ValueError):
            save_model(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    @pytest.mark.parametrize("keep", [6, 0.5])
    def test_truncated_file(self, tmp_path, keep):
        path = tmp_path / "x.ckpt"
        save_model(path, small_model())
        blob = path.read_bytes()
        cut = keep if isinstance(keep, int) else int(len(blob) * keep)
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_model(path, small_model())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing bytes"):
            load_model(path)

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[]", *REPEATED_KEY])
    def test_malformed_json(self, tmp_path, header):
        path = tmp_path / "x.ckpt"
        write(path, header)
        with pytest.raises(DataError, match=REPEATED_KEY.get(header, "checkpoint header")) as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("vocab"), r"lacks \['vocab'\]"),
        (lambda h: h.pop("tensors"), r"lacks \['tensors'\]"),
        (lambda h: h["model_config"].pop("embed_polarity"), r"lacks \['embed_polarity'\]"),
        (lambda h: h["model_config"].update(dropout=0.1), r"unknown keys \['dropout'\]"),
        (lambda h: h["vocab"].pop("n_words_b"), r"lacks \['n_words_b'\]"),
        (lambda h: h["model_config"].update(heads=2.0), "heads must be a JSON int"),
        (lambda h: h["model_config"].update(enc_layers=True), "enc_layers must be a JSON int"),
        (lambda h: h["model_config"].update(anchor_strength="3"), "anchor_strength"),
        (lambda h: h["vocab"].update(n_words_a=5.0), "n_words_a"),
        (lambda h: h["vocab"].update(n_words_a=-1), "language A needs at least one word, got -1"),
        (lambda h: h.update(adapters=0), "adapters flag"),
        (lambda h: h.update(tensors=[]), "tensor index must be a JSON object"),
        (lambda h: h["tensors"].pop("enc.pos.weight"), r"lacks \['enc.pos.weight'\]"),
        (lambda h: h["tensors"].update({"enc.pos.weight": [8, 24]}), "shape"),
    ])
    def test_malformed_header(self, tmp_path, edit, message):
        path = tmp_path / "x.ckpt"
        save_model(path, small_model())
        rewrite_header(path, edit)
        with pytest.raises(DataError, match=message) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")


class TestModelPersistence:
    def test_model_round_trip_function_identical(self, tmp_path):
        vocab = Vocabulary.build(5, 5)
        model = Seq2SeqModel(SMALL, vocab, seed=2)
        model.init_adapters(seed=3)
        model.freeze_backbone()
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert clone.config == SMALL
        assert clone.vocab.size == vocab.size
        assert clone.has_adapters
        assert clone.frozen
        for name, p in model.params.items():
            assert np.array_equal(clone.params[name].data, p.data), name

        frames = RNG.normal(size=(1, 5, 4))
        y = TokenSequence.from_words(vocab, [7, 12])
        a = model.forward(frames, np.array([y.ids])).logits.data
        b = clone.forward(frames, np.array([y.ids])).logits.data
        assert np.array_equal(a, b)

    @pytest.fixture(scope="class")
    def non_default_clone(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_model(path, Seq2SeqModel(ModelConfig(**NON_DEFAULT), Vocabulary.build(3, 4)))
        return load_model(path)

    @pytest.mark.parametrize("field", fields(ModelConfig), ids=lambda f: f.name)
    def test_every_config_field_round_trips(self, non_default_clone, field):
        assert NON_DEFAULT[field.name] != field.default
        got = getattr(non_default_clone.config, field.name)
        assert got == NON_DEFAULT[field.name]
        assert type(got) is type(field.default)

    def test_bad_metadata_is_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, Seq2SeqModel(SMALL, Vocabulary.build(5, 5), seed=2))
        # a head count that does not divide width 8
        rewrite_header(path, lambda h: h["model_config"].update(heads=3))
        with pytest.raises(DataError, match="divisible"):
            load_model(path)

    def test_tensors_the_model_lacks_are_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, small_model(adapters=True))
        rewrite_header(path, lambda h: h.update(adapters=False))
        with pytest.raises(DataError, match=r"unknown keys \['dec.0.attn_adapter"):
            load_model(path)

    def test_backbone_only_round_trip(self, tmp_path):
        model = Seq2SeqModel(SMALL, Vocabulary.build(5, 5), seed=2)
        path = tmp_path / "backbone.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert not clone.has_adapters
        # the flag is load_model's to set, whatever the saved model's was
        assert clone.frozen and not model.frozen
        assert not load_model(path, freeze_backbone=False).frozen

    def test_benchmark_backbone_round_trips_its_description(self, tmp_path):
        meta = json.loads((BENCH_DATA / "backbone.json").read_text(encoding="utf-8"))
        vocab = Vocabulary.build(meta["vocab"]["n_words_a"], meta["vocab"]["n_words_b"])
        model = Seq2SeqModel(ModelConfig(**meta["model_config"]), vocab)
        with np.load(BENCH_DATA / "backbone.npz") as arrays:
            model.load_state({name: arrays[name] for name in arrays.files})
        path = tmp_path / "backbone.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert asdict(clone.config) == meta["model_config"]
        assert (clone.vocab.n_words_a, clone.vocab.n_words_b) == \
            (meta["vocab"]["n_words_a"], meta["vocab"]["n_words_b"])
        for name, p in model.params.items():
            assert np.array_equal(clone.params[name].data, p.data), name
