"""Language-aware attention guidance.

Covers the language indicator over attention maps, dataset-wide head
counting and top-K selection, construction of the soft guidance target, and
the squared-error guidance loss evaluated on selected heads. Only the two
language-ID columns of a map are ever guided; gradients to all other columns
are exactly zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, DataError, NumericError
from .model import LANG_A, LANG_B, TokenSequence
from .numerics import Tensor, as_tensor

HeadIndex = tuple[int, int]

ROW_SUM_TOL = 1e-6

def lid_indicator(attn_map, omega: tuple[int, int]) -> int:
    """1 iff the map puts more total mass on the language-ID columns than on
    all other columns combined; sums run over every row, prompt rows included."""
    a = np.asarray(attn_map, dtype=np.float64)
    if len(omega) != 2:
        raise DataError("omega must hold exactly two column indices")
    n = a.shape[-1]
    for j in omega:
        if not 0 <= j < n:
            raise DataError(f"omega column {j} out of range for width {n}")
    row_sums = a.sum(axis=-1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise NumericError("attention rows must be stochastic")
    lid_mass = a[:, list(omega)].sum()
    rest_mass = a.sum() - lid_mass
    return 1 if lid_mass > rest_mass else 0


@dataclass
class HeadSelection:
    """Per-head indicator counts plus the chosen (layer, head) list.

    `threshold` is the majority bar a head must clear to qualify as a
    language-ID head: its count over the dataset must exceed half the
    dataset size.
    """

    counts: dict[HeadIndex, int]
    dataset_size: int
    selected: list[HeadIndex] = field(default_factory=list)

    @property
    def threshold(self) -> float:
        return self.dataset_size / 2.0

    @property
    def qualifying(self) -> list[HeadIndex]:
        bar = self.threshold
        return sorted(h for h, c in self.counts.items() if c > bar)

    def require_nonempty(self) -> None:
        if not self.selected:
            raise ConfigError("head selection is empty")


def rank_heads(counts: Mapping[HeadIndex, int]) -> list[HeadIndex]:
    """Heads ordered by count descending, ties broken by (layer, head) ascending."""
    return sorted(counts, key=lambda h: (-counts[h], h[0], h[1]))


def count_and_select(maps_per_utterance: Iterable[Mapping[HeadIndex, np.ndarray]],
                     omega: tuple[int, int], top_k: int | None = None,
                     fraction: float | None = None) -> HeadSelection:
    """Accumulate indicator counts over a dataset of per-head maps and pick
    the top heads.

    Exactly one of `top_k` and `fraction` must be given. A fraction selects
    round(fraction * |qualifying|) heads, where qualifying heads pass the
    majority bar; an absolute K ranks all heads by count.
    """
    if (top_k is None) == (fraction is None):
        raise ConfigError("specify exactly one of top_k and fraction")
    counts: dict[HeadIndex, int] = {}
    size = 0
    for maps in maps_per_utterance:
        if not counts:
            counts = {h: 0 for h in sorted(maps)}
        elif set(maps) != set(counts):
            raise DataError("inconsistent head sets across utterances")
        for head, attn in maps.items():
            counts[head] += lid_indicator(attn, omega)
        size += 1
    if size == 0:
        raise DataError("head selection requires a non-empty dataset")

    selection = HeadSelection(counts=counts, dataset_size=size)
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("head fraction must lie in [0, 1]")
        top_k = round(fraction * len(selection.qualifying))
    if top_k < 0 or top_k > len(counts):
        raise ConfigError(f"top_k {top_k} out of range for {len(counts)} heads")
    selection.selected = rank_heads(counts)[:top_k]
    return selection


def select_random_heads(counts: Mapping[HeadIndex, int], dataset_size: int,
                        fraction: float, seed: int) -> HeadSelection:
    """Ablation selector: a seeded uniform draw of round(fraction * total)
    heads from all heads, ignoring the indicator ranking."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("head fraction must lie in [0, 1]")
    heads = sorted(counts)
    k = round(fraction * len(heads))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(heads), size=k, replace=False)
    selected = sorted(heads[i] for i in picked)
    return HeadSelection(counts=dict(counts), dataset_size=dataset_size,
                         selected=selected)


# ---------------------------------------------------------------------------
# Guidance target and loss
# ---------------------------------------------------------------------------

@dataclass
class GuidanceTarget:
    """Soft targets for the two language-ID columns of an attention map.

    `matrix[i]` holds the (zh-column, en-column) targets for row i: word rows
    get the soft label c on their own language's column and 0 on the other;
    special-token rows get (0, 0). Non-LID columns carry no target at all.
    """

    n: int
    omega: tuple[int, int]
    c: float
    matrix: np.ndarray  # (n, 2)


def guidance_target(y: TokenSequence, c: float) -> GuidanceTarget:
    if not 0.5 < c < 1.0:
        raise ConfigError("soft label out of range (need 0.5 < c < 1)")
    if len(y.lid_positions) != 2:
        raise DataError("guidance requires a bilingual sequence with two LID positions")
    matrix = np.zeros((y.n, 2))
    for i, tag in enumerate(y.lang_tags):
        if tag == LANG_A:
            matrix[i, 0] = c
        elif tag == LANG_B:
            matrix[i, 1] = c
    return GuidanceTarget(n=y.n, omega=tuple(y.lid_positions), c=c, matrix=matrix)


def ag_loss(maps: Mapping[HeadIndex, "Tensor | np.ndarray"],
            selection: HeadSelection, target: GuidanceTarget) -> Tensor:
    """Squared error between selected heads' LID columns and the target,
    summed over heads, rows, and the two LID columns.

    Accepts graph tensors, so gradients flow back through the attention maps
    into the decoder adapters. Columns outside the LID pair are never touched.
    """
    selection.require_nonempty()
    cols = list(target.omega)
    total: Tensor | None = None
    for head in selection.selected:
        if head not in maps:
            raise DataError(f"selected head {head} missing from attention maps")
        a = as_tensor(maps[head])
        if a.shape != (target.n, target.n):
            raise DataError(
                f"attention map {head} has shape {a.shape}, expected "
                f"({target.n}, {target.n})")
        picked = a[:, cols]
        diff = picked - Tensor(target.matrix)
        term = (diff * diff).sum()
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Persistence: one line per selected head, "layer<TAB>head<TAB>count"
# ---------------------------------------------------------------------------

def save_head_selection(path, selection: HeadSelection) -> None:
    lines = [f"# dataset_size={selection.dataset_size}\tthreshold={selection.threshold!r}"]
    for layer, head in selection.selected:
        lines.append(f"{layer}\t{head}\t{selection.counts[(layer, head)]}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_head_selection(path) -> HeadSelection:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DataError(f"malformed head-selection file: {path}")
    header = {}
    for part in lines[0][1:].split("\t"):
        key, _, value = part.partition("=")
        header[key.strip()] = value.strip()
    try:
        dataset_size = int(header["dataset_size"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed head-selection header: {path}") from exc
    counts: dict[HeadIndex, int] = {}
    selected: list[HeadIndex] = []
    for line in lines[1:]:
        try:
            layer, head, count = (int(p) for p in line.split("\t"))
        except ValueError as exc:
            raise DataError(f"malformed head-selection line: {line!r}") from exc
        counts[(layer, head)] = count
        selected.append((layer, head))
    return HeadSelection(counts=counts, dataset_size=dataset_size, selected=selected)
