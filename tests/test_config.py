"""The config reader: one per-type rule for every field of every config
dataclass, from config-file text (ConfigError) and from JSON headers
(DataError)."""

import ast
import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from agadapt import config
from agadapt.checkpoint import MAGIC, PREFIX, VERSION, load_model, save_model
from agadapt.errors import ConfigError, DataError
from agadapt.model import ModelConfig, Seq2SeqModel, Vocabulary
from agadapt.synthtask import SynthSpec, generate_corpus, read_split, write_corpus
from agadapt.training import TrainConfig, build_model_config, build_train_config

CONFIGS = (ModelConfig, TrainConfig, SynthSpec)
FIELDS = [(cls, f) for cls in CONFIGS for f in fields(cls)]
FLOAT_FIELDS = [(cls, f) for cls, f in FIELDS if type(f.default) is float]
FIELD_IDS = [f"{cls.__name__}.{f.name}" for cls, f in FIELDS]
FLOAT_IDS = [f"{cls.__name__}.{f.name}" for cls, f in FLOAT_FIELDS]

# the config-file reader each dataclass is read by
FILE_READERS = {
    ModelConfig: build_model_config,
    TrainConfig: build_train_config,
    SynthSpec: lambda values: config.from_text(SynthSpec, values),
}


def checkpoint_reader(tmp_path):
    """A small model's config, and a function that loads its checkpoint with
    the header's `model_config` replaced by the given object."""
    base = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8, ffn_width=16,
                       bottleneck=2, feat_dim=4, max_len=24)
    path = tmp_path / "model.ckpt"
    save_model(path, Seq2SeqModel(base, Vocabulary.build(3, 3)))
    blob = path.read_bytes()
    _, _, length = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + length])

    def read(values):
        encoded = json.dumps({**header, "model_config": values}).encode("utf-8")
        path.write_bytes(PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded
                         + blob[PREFIX.size + length:])
        return load_model(path).config
    return base, read


def manifest_reader(tmp_path):
    """A small corpus's spec, and a function that reads its valid split with
    the manifest header's `spec` replaced by the given object."""
    base = SynthSpec(words_per_language=4)
    vocab = Vocabulary.build(4, 4)
    sizes = dict.fromkeys(["pretrain", "adapt", "valid", "test-mono-a", "test-mono-b",
                           "test-cs"], 2)
    write_corpus(tmp_path, base, vocab, generate_corpus(base, vocab, sizes))
    path = tmp_path / "valid.manifest"
    lines = path.read_text().splitlines()

    def read(values):
        header = {**json.loads(lines[0]), "spec": values}
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        return read_split(tmp_path, "valid")[0]
    return base, read


def header_reader(cls, tmp_path):
    """A valid instance of `cls` and the file-header reader of `cls`: a
    checkpoint's for ModelConfig, a manifest's for SynthSpec. TrainConfig
    is in no header, so its reader is `config.from_json` itself."""
    if cls is ModelConfig:
        return checkpoint_reader(tmp_path)
    if cls is SynthSpec:
        return manifest_reader(tmp_path)
    return TrainConfig(), lambda values: config.from_json(TrainConfig, values, "train config")


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_every_field_default_has_a_readable_type(cls, field):
    # a bool, tuple or None default would reach the reader with no rule
    assert type(field.default) in (int, float, str)


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=FLOAT_IDS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_float_field_rejects_non_finite_config_text(cls, field, raw):
    with pytest.raises(ConfigError, match=f"bad value for '{field.name}'"):
        FILE_READERS[cls]({field.name: raw})


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=FLOAT_IDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_float_field_rejects_non_finite_header_value(tmp_path, cls, field, value):
    base, read = header_reader(cls, tmp_path)
    assert read(asdict(base)) == base
    with pytest.raises(DataError, match=f"{field.name} must be a JSON float"):
        read({**asdict(base), field.name: value})


@pytest.mark.parametrize("kind, value", [
    (int, 3.0), (int, True), (int, "3"), (float, False), (float, "0.5"),
    (float, None), (float, 10**400), (str, 3), (str, None),
])
def test_header_value_of_the_wrong_type_is_rejected(kind, value):
    with pytest.raises(DataError, match=f"x must be a JSON {kind.__name__}"):
        config.from_json(kind, value, "x")


@pytest.mark.parametrize("kind, value, typed", [
    (int, 3, 3), (float, 3, 3.0), (float, 0.5, 0.5), (str, "one-stage", "one-stage"),
])
def test_header_value_of_its_type_is_read(kind, value, typed):
    got = config.from_json(kind, value, "x")
    assert got == typed and type(got) is kind


@pytest.mark.parametrize("key, raw", [
    ("heads", "3.0"), ("heads", "true"), ("heads", ""), ("gamma", "much"),
])
def test_config_text_that_does_not_parse_is_rejected(key, raw):
    cls = ModelConfig if key == "heads" else TrainConfig
    with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
        FILE_READERS[cls]({key: raw})


def test_config_text_is_parsed_with_the_field_type():
    cfg = build_train_config({"gamma": "1", "epochs": "2", "mode": "one-stage"})
    assert (cfg.gamma, cfg.epochs, cfg.mode) == (1.0, 2, "one-stage")
    assert type(cfg.gamma) is float


def test_rejected_value_is_config_error_from_text_and_data_error_from_json():
    with pytest.raises(ConfigError, match="divisible"):
        config.from_text(ModelConfig, {"heads": "5"})
    with pytest.raises(DataError, match="divisible"):
        config.from_json(ModelConfig, {**asdict(ModelConfig()), "heads": 5}, "x")


def test_dict_of_kinds_reads_only_its_keys():
    values = {"n_adapt": "4", "noise": "0.1"}
    assert config.from_text({"n_adapt": int}, values, ["noise"]) == {"n_adapt": 4}
    with pytest.raises(ConfigError, match="unknown config key"):
        config.from_text({"n_adapt": int}, values)
    with pytest.raises(DataError, match=r"unknown keys \['b'\] and lacks \['a'\]"):
        config.from_json({"a": int}, {"b": 1}, "x")


def test_config_is_the_only_json_parser():
    # every JSON the package reads then refuses a repeated key: no other
    # module names json.load or json.loads, as a call or a name imported
    readers = []
    for path in sorted(Path(config.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {alias.name for alias in node.names} & {"load", "loads"}):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers and all(reader.startswith("config.py:") for reader in readers), readers
