"""Attention-map inspection: pattern classification and heatmap export.

A head's map is scored by where its mass lands: on the diagonal (self), on
the adjacent band (neighboring), on special-token columns, or on the two
language-ID columns; the label is the argmax. Overlapping cells are assigned
once, with precedence self > neighboring > special-token > lid-token, so the
scores partition the mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, DataError
from .model import TokenSequence, Vocabulary

PATTERN_ORDER = ("self", "neighboring", "special-token", "lid-token", "other")

LID_STRINGS = ("<zh>", "<en>")


@dataclass
class PatternLabel:
    label: str
    scores: dict[str, float]


def classify_head_pattern(attn_map, y: TokenSequence, vocab: Vocabulary) -> PatternLabel:
    a = np.asarray(attn_map, dtype=np.float64)
    n = a.shape[0]
    if n < 2:
        return PatternLabel(label="other", scores={k: 0.0 for k in PATTERN_ORDER})
    total = a.sum()
    if total <= 0:
        raise DataError("attention map has no mass")

    idx = np.arange(n)
    lid_cols = set(y.lid_positions)
    special_cols = {
        i for i, tok in enumerate(y.ids)
        if vocab.is_special(tok) and vocab.string(tok) not in LID_STRINGS
    }

    col_grid = np.broadcast_to(idx[None, :], (n, n))
    masks = {
        "self": np.eye(n, dtype=bool),
        "neighboring": np.abs(idx[:, None] - idx[None, :]) == 1,
        "special-token": np.isin(col_grid, sorted(special_cols)),
        "lid-token": np.isin(col_grid, sorted(lid_cols)),
    }
    remaining = np.ones((n, n), dtype=bool)
    scores: dict[str, float] = {}
    for name in PATTERN_ORDER[:-1]:
        take = masks[name] & remaining
        scores[name] = float(a[take].sum()) / total
        remaining &= ~take
    scores["other"] = float(a[remaining].sum()) / total
    label = max(PATTERN_ORDER, key=lambda k: (scores[k], -PATTERN_ORDER.index(k)))
    return PatternLabel(label=label, scores=scores)


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------

def export_heatmap(attn_map, path, fmt: str, tokens: list[str]) -> None:
    """Write a map as CSV (token-string header, 6-decimal values) or plain
    PGM ("P2", maxval 255, pixel = round(255 * value)). Output bytes are a
    pure function of the inputs; a failed write leaves any previous file
    at `path` as it was."""
    a = np.asarray(attn_map, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DataError("heatmap export expects a square map")
    if len(tokens) != n:
        raise DataError("token labels must match the map size")
    if fmt == "csv":
        lines = [",".join(tokens)]
        lines += [",".join(f"{v:.6f}" for v in row) for row in a]
    elif fmt == "pgm":
        lines = ["P2", f"{n} {n}", "255"]
        lines += [" ".join(str(int(v * 255.0 + 0.5)) for v in row) for row in a]
    else:
        raise ConfigError(f"unknown heatmap format {fmt!r}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")

