"""Binary checkpoint container.

Layout: magic ``AGCK``, version u32, tensor count u32; then per tensor a
u16 name length, the UTF-8 name, a u8 rank, u32 dims, and the row-major
little-endian float64 payload. Tensors are written in sorted name order so
identical states produce identical bytes.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .atomicio import atomic_write
from .errors import DataError
from .model import ModelConfig, Seq2SeqModel, Vocabulary

MAGIC = b"AGCK"
VERSION = 1

META_KEY = "__meta__"


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64, order="C")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise DataError(f"tensor name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise DataError(f"tensor rank too large: {name!r}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()

    def need(offset: int, size: int) -> None:
        if offset + size > len(blob):
            raise DataError(f"truncated checkpoint: {path} has {len(blob)} bytes, "
                            f"needs at least {offset + size}")

    if blob[:4] != MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    need(4, 8)
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    offset = 12
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        need(offset, 2)
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        need(offset, name_len + 1)  # the name and the rank byte after it
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"malformed tensor name in checkpoint: {path}") from exc
        offset += name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        need(offset, 4 * rank)
        dims = struct.unpack_from(f"<{rank}I", blob, offset) if rank else ()
        offset += 4 * rank
        size = math.prod(dims)
        need(offset, 8 * size)
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        offset += 8 * size
        tensors[name] = arr.reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise DataError(f"trailing bytes in checkpoint: {path}")
    return tensors


# ---------------------------------------------------------------------------
# Whole-model persistence
# ---------------------------------------------------------------------------

def _meta_vector(model: Seq2SeqModel) -> np.ndarray:
    c = model.config
    v = model.vocab
    return np.array([
        VERSION, c.enc_layers, c.dec_layers, c.heads, c.width, c.ffn_width,
        c.bottleneck, c.feat_dim, c.max_len, v.n_words_a, v.n_words_b,
        1.0 if model.has_adapters else 0.0, c.anchored_heads, c.anchor_strength,
    ], dtype=np.float64)


def save_model(path, model: Seq2SeqModel) -> None:
    tensors = model.state_dict()
    tensors[META_KEY] = _meta_vector(model)
    save_checkpoint(path, tensors)


def load_model(path, freeze_backbone: bool = True) -> Seq2SeqModel:
    """Rebuild a model from a checkpoint.

    The backbone is frozen on load; adapter parameters (when present in the
    checkpoint) stay trainable.
    """
    tensors = load_checkpoint(path)
    if META_KEY not in tensors:
        raise DataError("checkpoint is missing model metadata")
    meta = tensors.pop(META_KEY)
    if len(meta) != 14:
        raise DataError("malformed model metadata")
    (_, enc_layers, dec_layers, heads, width, ffn_width, bottleneck,
     feat_dim, max_len, n_a, n_b, has_adapters, anchored) = (int(x) for x in meta[:13])
    config = ModelConfig(enc_layers=enc_layers, dec_layers=dec_layers,
                         heads=heads, width=width, ffn_width=ffn_width,
                         bottleneck=bottleneck, feat_dim=feat_dim,
                         max_len=max_len, anchored_heads=anchored,
                         anchor_strength=float(meta[13]))
    vocab = Vocabulary.build(n_a, n_b)
    model = Seq2SeqModel(config, vocab, seed=0)
    if has_adapters:
        model.init_adapters(seed=0)
    model.load_state(tensors)
    if freeze_backbone:
        model.freeze_backbone()
    return model
