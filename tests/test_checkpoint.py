"""Binary checkpoint container: layout and bit-exact round trips."""

import struct

import numpy as np
import pytest

from agadapt.checkpoint import (
    MAGIC,
    META_KEY,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from agadapt.errors import DataError
from agadapt.model import ModelConfig, Seq2SeqModel, TokenSequence, Vocabulary

RNG = np.random.default_rng(9)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        tensors = {
            "a.weight": RNG.normal(size=(3, 4)),
            "b.bias": RNG.normal(size=7),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].dtype == np.float64

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 2))})
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        version, count = struct.unpack_from("<II", blob, 4)
        assert version == 1 and count == 1
        (name_len,) = struct.unpack_from("<H", blob, 12)
        assert blob[14:14 + name_len] == b"w"
        (rank,) = struct.unpack_from("<B", blob, 14 + name_len)
        assert rank == 2

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"b": np.ones(3), "a": np.arange(4.0)}
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(p1, tensors)
        save_checkpoint(p2, dict(reversed(list(tensors.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.ones(3)})
        before = path.read_bytes()
        # "a" is written before the over-long name is rejected
        with pytest.raises(DataError):
            save_checkpoint(path, {"a": np.zeros(2), "b" * 0x10000: np.zeros(1)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    @pytest.mark.parametrize("keep", [6, 0.5])
    def test_truncated_file(self, tmp_path, keep):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"a.weight": RNG.normal(size=(3, 4)), "b": np.ones(2)})
        blob = path.read_bytes()
        cut = keep if isinstance(keep, int) else int(len(blob) * keep)
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)


class TestModelPersistence:
    def test_model_round_trip_function_identical(self, tmp_path):
        config = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                             ffn_width=16, bottleneck=2, feat_dim=4, max_len=24)
        vocab = Vocabulary.build(5, 5)
        model = Seq2SeqModel(config, vocab, seed=2)
        model.init_adapters(seed=3)
        model.freeze_backbone()
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert clone.config == config
        assert clone.vocab.size == vocab.size
        assert clone.has_adapters
        for name, p in model.params.items():
            assert np.array_equal(clone.params[name].data, p.data), name
            assert clone.params[name].trainable == p.trainable

        frames = RNG.normal(size=(1, 5, 4))
        y = TokenSequence.from_words(vocab, [7, 12])
        a = model.forward(frames, np.array([y.ids])).logits.data
        b = clone.forward(frames, np.array([y.ids])).logits.data
        assert np.array_equal(a, b)

    def test_bad_metadata_is_data_error(self, tmp_path):
        config = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                             ffn_width=16, bottleneck=2, feat_dim=4, max_len=24)
        path = tmp_path / "model.ckpt"
        save_model(path, Seq2SeqModel(config, Vocabulary.build(5, 5), seed=2))
        tensors = load_checkpoint(path)
        tensors[META_KEY][3] = 3.0  # a head count that does not divide width 8
        save_checkpoint(path, tensors)
        with pytest.raises(DataError, match="divisible"):
            load_model(path)

    def test_backbone_only_round_trip(self, tmp_path):
        config = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                             ffn_width=16, bottleneck=2, feat_dim=4, max_len=24)
        model = Seq2SeqModel(config, Vocabulary.build(5, 5), seed=2)
        path = tmp_path / "backbone.ckpt"
        save_model(path, model)
        clone = load_model(path)
        assert not clone.has_adapters
        assert all(not p.trainable for p in clone.params.values())
