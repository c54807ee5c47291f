"""Self-describing model checkpoint, format version 2.

Layout: magic ``AGCK``, version u32, header length u32, the header, then
every tensor's row-major little-endian float64 payload in header order. The
header is UTF-8 JSON with sorted keys: ``model_config`` (every `ModelConfig`
field), ``vocab`` (``n_words_a``, ``n_words_b``), ``adapters`` (a bool) and
``tensors``, each parameter's shape by name, so in name order.

The bytes follow from the model alone: two saves of one model are equal, and
so are a save and the save of what it loads as. `load_model` raises DataError
for a missing file; another magic or version (a version-1 file is not read);
a header that is not JSON, lacks a key or has an unknown one; a
`model_config` or `vocab` value that breaks the per-type rule of `config`
or a config `ModelConfig` rejects; a tensor index other than the
described model's names and shapes; and a payload longer or shorter than the
index.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config
from .atomicio import atomic_write
from .errors import DataError
from .model import ModelConfig, Seq2SeqModel, Vocabulary

MAGIC = b"AGCK"
VERSION = 2
PREFIX = struct.Struct("<4sII")  # magic, version, header length

HEADER_KEYS = {"model_config", "vocab", "adapters", "tensors"}
VOCAB_KINDS = {"n_words_a": int, "n_words_b": int}


def save_model(path, model: Seq2SeqModel) -> None:
    header = {
        "model_config": asdict(model.config),
        "vocab": {"n_words_a": model.vocab.n_words_a, "n_words_b": model.vocab.n_words_b},
        "adapters": model.has_adapters,
        "tensors": {name: list(p.data.shape) for name, p in model.params.items()},
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(PREFIX.pack(MAGIC, VERSION, len(encoded)))
        fh.write(encoded)
        for name in sorted(model.params):
            fh.write(np.ascontiguousarray(model.params[name].data, dtype="<f8").tobytes())


def _describe(header) -> Seq2SeqModel:
    """The freshly initialised model the header describes."""
    header = config.exact_keys(header, HEADER_KEYS, "checkpoint header")
    model_config = config.from_json(ModelConfig, header["model_config"],
                                    "checkpoint model_config")
    n_a, n_b = config.from_json(VOCAB_KINDS, header["vocab"], "checkpoint vocab").values()
    adapters = header["adapters"]
    if not isinstance(adapters, bool):
        raise DataError(f"checkpoint adapters flag must be a JSON bool, got {adapters!r}")
    model = Seq2SeqModel(model_config, Vocabulary.build(n_a, n_b), seed=0)
    if adapters:
        model.init_adapters(seed=0)
    listed = config.exact_keys(header["tensors"], model.params, "checkpoint tensor index")
    for name, p in model.params.items():
        if listed[name] != list(p.data.shape):
            raise DataError(f"checkpoint tensor {name} has shape {listed[name]}, "
                            f"the described model {list(p.data.shape)}")
    return model


def load_model(path, freeze_backbone: bool = True) -> Seq2SeqModel:
    """Rebuild a model from a checkpoint.

    The backbone is frozen on load; adapter parameters (when present in the
    checkpoint) stay trainable.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    if len(blob) < PREFIX.size:
        raise DataError(f"truncated checkpoint: {path} has {len(blob)} bytes")
    _, version, header_len = PREFIX.unpack_from(blob)
    if version != VERSION:
        raise DataError(f"{path} is a version-{version} checkpoint; "
                        f"only version {VERSION} is read")
    start = PREFIX.size + header_len
    if len(blob) < start:
        raise DataError(f"truncated checkpoint: {path} has {len(blob)} bytes, "
                        f"its header ends at {start}")
    try:
        header = json.loads(blob[PREFIX.size:start].decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise DataError(f"malformed checkpoint header in {path}: {exc}") from exc
    model = _describe(header)
    params = [model.params[name] for name in sorted(model.params)]
    size = start + 8 * sum(p.data.size for p in params)
    if len(blob) != size:
        problem = "truncated checkpoint" if len(blob) < size else "trailing bytes in checkpoint"
        raise DataError(f"{problem}: {path} has {len(blob)} bytes, "
                        f"its tensor index needs {size}")
    payload = np.frombuffer(blob, dtype="<f8", offset=start)
    at = 0
    for p in params:
        p.data = payload[at:at + p.data.size].reshape(p.data.shape).astype(np.float64)
        at += p.data.size
    if freeze_backbone:
        model.freeze_backbone()
    return model
