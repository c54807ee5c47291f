"""Self-describing model checkpoint, format version 2.

Layout: magic ``AGCK``, version u32, header length u32, the header, then
every tensor's row-major little-endian float64 payload in header order. The
header is UTF-8 JSON with sorted keys: ``model_config`` (every `ModelConfig`
field), ``vocab`` (``n_words_a``, ``n_words_b``), ``adapters`` (a bool) and
``tensors``, each parameter's shape by name, so in name order.

The bytes follow from the model alone: two saves of one model are equal, and
so are a save and the save of what it loads as. `load_model` draws nothing:
it builds the model from the payload. It raises DataError for a missing file;
another magic or version (a version-1 file is not read); a header that is not
JSON, repeats a key at any depth, lacks a key or has an unknown one; a
`model_config` or `vocab` value that breaks the per-type rule of `config`, a
config `ModelConfig` rejects or a word count below 1; a tensor index other
than the layout's names and shapes (`model.misfits`); a payload longer or
shorter than the index; and a non-finite parameter value
(`Seq2SeqModel.load_state`). Each names the file.
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
from .model import ModelConfig, Seq2SeqModel, Vocabulary, misfits, parameter_shapes

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


def _describe(header) -> tuple[ModelConfig, Vocabulary, dict[str, tuple[int, ...]]]:
    """The model config, vocabulary and parameter shapes the header describes."""
    header = config.exact_keys(header, HEADER_KEYS, "checkpoint header")
    model_config = config.from_json(ModelConfig, header["model_config"],
                                    "checkpoint model_config")
    n_a, n_b = config.from_json(VOCAB_KINDS, header["vocab"], "checkpoint vocab").values()
    adapters = header["adapters"]
    if not isinstance(adapters, bool):
        raise DataError(f"checkpoint adapters flag must be a JSON bool, got {adapters!r}")
    vocab = Vocabulary.build(n_a, n_b)
    shapes = parameter_shapes(model_config, vocab.size, adapters)
    listed = header["tensors"]
    if not isinstance(listed, dict):
        raise DataError("checkpoint tensor index must be a JSON object")
    unknown, misfit = misfits(shapes, listed)
    missing = sorted(name for name in misfit if name not in listed)
    if unknown or missing:
        raise DataError(f"checkpoint tensor index has unknown keys {unknown} and lacks {missing}")
    if misfit:
        raise DataError(f"checkpoint tensor {misfit[0]} has shape {listed[misfit[0]]}, "
                        f"the described model {list(shapes[misfit[0]])}")
    return model_config, vocab, shapes


def load_model(path, freeze_backbone: bool = True) -> Seq2SeqModel:
    """Rebuild a model from a checkpoint.

    With `freeze_backbone` the model comes back frozen: its adapters, if it
    has any, may train, and its backbone may not.
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
    header = config.parse_json(blob[PREFIX.size:start], f"checkpoint header in {path}")
    try:
        model_config, vocab, shapes = _describe(header)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    ends = np.cumsum([np.prod(shapes[name]) for name in sorted(shapes)])
    size = start + 8 * int(ends[-1])
    if len(blob) != size:
        problem = "truncated checkpoint" if len(blob) < size else "trailing bytes in checkpoint"
        raise DataError(f"{problem}: {path} has {len(blob)} bytes, "
                        f"its tensor index needs {size}")
    arrays = np.split(np.frombuffer(blob, dtype="<f8", offset=start), ends[:-1])
    try:
        model = Seq2SeqModel(model_config, vocab, state={
            name: array.reshape(shapes[name]) for name, array in zip(sorted(shapes), arrays)})
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if freeze_backbone:
        model.freeze_backbone()
    return model
