"""The one reader of the config dataclasses (`ModelConfig`, `TrainConfig`,
`SynthSpec`) from values that come from outside the program, and of JSON.

Every field's default is an int, float or str, and each value is read by one
rule: an int field takes an integer, never a bool; a float field takes a
finite number; a str field takes a string. Config-file text is parsed with
the field's type first, so ``heads = 3`` reads as 3; JSON header values are
not parsed, so a header ``"heads": "3"`` is rejected.

`from_text` reads config files (`pretrain` and `adapt --config`, `gen-data
--spec`): an unknown key, a value against the rule and a value the dataclass
rejects raise ConfigError, exit code 2. `from_json` reads JSON headers, whose
objects hold exactly the expected keys: any mistake raises DataError, exit
code 3, also a value the dataclass rejects, so a negative seed exits 2 from
`gen-data --seed` but 3 from a manifest's spec. `parse_json`, the one JSON
parser, also refuses an object that repeats a key at any depth. It reads three
headers: a checkpoint's, and the first line of the two `read_records` files,
a split's manifest (`synthtask`) and the head-selection file (`guidance`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .atomicio import atomic_write
from .errors import ConfigError, DataError


def field_kinds(cls) -> dict[str, type]:
    """Each field of dataclass `cls` with the type of its default."""
    return {f.name: type(f.default) for f in fields(cls)}


def _valid(kind: type, value) -> bool:
    if isinstance(value, bool):
        return False
    if kind is float:  # finite: no nan or inf, and no int past float's range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines with ``#`` comments, each key at most once;
    no file (None) is empty."""
    if path is None:
        return {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:  # missing, a directory, unreadable: all exit 2, as config errors
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} set twice")
        values[key] = value
    return values


def from_text(kind, values: Mapping[str, str], known: Iterable[str] = (),
              overrides: Mapping[str, object] | None = None):
    """Config-file `values` read as `kind`, a config dataclass or a dict of
    kinds by key. Other keys must be in `known`, the keys the file's other
    sections claim. `overrides` (typed CLI flags; None skipped) win."""
    kinds = kind if isinstance(kind, dict) else field_kinds(kind)
    unknown = sorted(set(values) - set(kinds) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    typed = {}
    for key in sorted(set(values) & set(kinds)):
        try:
            typed[key] = kinds[key](values[key])
        except ValueError:
            typed[key] = None
        if not _valid(kinds[key], typed[key]):
            raise ConfigError(f"bad value for {key!r}: {values[key]!r}")
    typed.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return typed if isinstance(kind, dict) else kind(**typed)


def exact_keys(value, keys: Iterable[str], what: str) -> dict:
    """`value` when it is a JSON object with exactly the keys `keys`."""
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object")
    unknown, missing = sorted(set(value) - set(keys)), sorted(set(keys) - set(value))
    if unknown or missing:
        raise DataError(f"{what} has unknown keys {unknown} and lacks {missing}")
    return value


def from_json(kind, value, what: str):
    """JSON `value` read as `kind`: an int, float or str, or a config
    dataclass or dict of kinds by key from an object with exactly its keys."""
    if not (isinstance(kind, dict) or is_dataclass(kind)):
        if not _valid(kind, value):
            raise DataError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
        return kind(value)
    kinds = kind if isinstance(kind, dict) else field_kinds(kind)
    exact_keys(value, kinds, what)
    typed = {key: from_json(kinds[key], value[key], f"{what} {key}") for key in kinds}
    if isinstance(kind, dict):
        return typed
    try:
        return kind(**typed)
    except ConfigError as exc:
        raise DataError(f"{what}: {exc}") from exc


def _object(pairs: list) -> dict:
    value = dict(pairs)  # linear: the repeated key is looked for only when there is one
    if len(value) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} repeats")
    return value


def parse_json(text: str | bytes, what: str):
    """`text` or its UTF-8 bytes as JSON; DataError if malformed or a key repeats."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text,
                          object_pairs_hook=_object)
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise DataError(f"malformed {what}: {exc}") from exc


def write_records(path, header: Mapping, records: Iterable[str]) -> None:
    """Replace `path` with `header`, a sorted-key JSON line, and a line per record."""
    with atomic_write(path) as fh:
        fh.writelines(line + "\n" for line in (json.dumps(header, sort_keys=True), *records))


def read_records(path, kinds: Mapping[str, type], fmt: int, what: str,
                 remedy: str) -> tuple[dict, list[str]]:
    """The header (exactly the keys of `kinds` and `format` `fmt`) and the
    record lines of `path`, a `what`; a header refusal names `remedy`."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise DataError(f"empty {what}: {path}")
    where = f"{what} header in {path}"
    try:
        header = from_json({**kinds, "format": int}, parse_json(lines[0], where), where)
        if header["format"] != fmt:
            raise DataError(f"{path} has {what} format {header['format']}, not {fmt}")
    except DataError as exc:  # another version's file, or one edited by hand
        raise DataError(f"{exc}; {remedy}") from exc
    return header, lines[1:]
