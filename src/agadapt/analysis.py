"""Attention-map export for `inspect-attention --out`: one head's map as a
CSV table or a PGM image, written atomically.
"""

from __future__ import annotations

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, DataError


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

