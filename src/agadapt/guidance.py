"""Language-aware attention guidance over batched decoder self-attention maps.

Every head statistic of the method is read from one object: each decoder
layer's (B, H, N, N) self-attention maps, the lengths of the B sequences
(rows past a length are padding) and the two language-ID columns omega.

- `lid_counts` gives, for each head, how many sequences of a batch put more
  mass on the LID columns than on all other columns combined, over their
  valid rows; `count_heads` adds these up over a dataset, and
  `count_and_select` ranks the heads and picks the top ones.
- `ag_loss` builds the soft guidance target and the valid-row mask of a
  batch and returns one tape node, `numerics.column_squared_error`: the
  squared error between the selected heads' LID columns and the target,
  summed over heads, valid rows and the two columns. Its backward,
  2 (a - t) on valid rows, is written into those two columns only, so every
  other column gets an exactly zero gradient.
- `lid_attribution` counts the word tokens whose mean selected-head map puts
  at least as much mass on their own language's LID column as on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, DataError, NumericError
from .model import LANG_A, LANG_B, TokenSequence
from .numerics import Tensor, as_tensor, column_squared_error

HeadIndex = tuple[int, int]

ROW_SUM_TOL = 1e-6


def _data(maps) -> np.ndarray:
    return maps.data if isinstance(maps, Tensor) else np.asarray(maps, dtype=np.float64)


def _valid_rows(lengths: Sequence[int], n: int) -> np.ndarray:
    """(B, n) bool mask that is True on the first lengths[b] rows of sequence b."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1) or np.any(lengths > n):
        raise DataError(f"sequence lengths must lie in [1, {n}]")
    return np.arange(n) < lengths[:, None]


def _check_heads(attention: Sequence, heads: Sequence[HeadIndex],
                 omega: tuple[int, int]) -> None:
    """Raise DataError unless every listed (layer, head) and both `omega`
    columns exist in the per-layer (B, H, N, N) `attention`."""
    if len(omega) != 2:
        raise DataError("omega must hold exactly two column indices")
    n = _data(attention[0]).shape[-1]
    for j in omega:
        if not 0 <= j < n:
            raise DataError(f"omega column {j} out of range for width {n}")
    for layer, head in heads:
        if not (0 <= layer < len(attention) and 0 <= head < _data(attention[layer]).shape[1]):
            raise DataError(f"selected head {(layer, head)} missing from attention maps")


def _lid_columns(attention: Sequence, heads: Sequence[HeadIndex],
                 omega: tuple[int, int]) -> np.ndarray:
    """(B, K, N, 2): the two `omega` columns of each listed (layer, head) map
    of the per-layer (B, H, N, N) `attention`, in list order."""
    _check_heads(attention, heads, omega)
    return np.stack([_data(attention[layer])[:, head][..., list(omega)]
                     for layer, head in heads], axis=1)


def lid_counts(attention: Sequence, lengths: Sequence[int],
               omega: tuple[int, int]) -> np.ndarray:
    """(L, H) indicator counts of one batch: how many of its sequences put
    more total mass on the `omega` columns than on all other columns
    combined, summing over each sequence's valid rows (prompt rows
    included). A valid row that is not stochastic raises NumericError."""
    layers = len(attention)
    b, heads, n, _ = _data(attention[0]).shape
    if len(lengths) != b:
        raise DataError(f"{len(lengths)} lengths for a batch of {b} maps")
    every = [(layer, head) for layer in range(layers) for head in range(heads)]
    valid = _valid_rows(lengths, n)[:, None, :]
    row_sums = np.concatenate([_data(a).sum(axis=-1) for a in attention], axis=1)
    if np.any(valid & (np.abs(row_sums - 1.0) > ROW_SUM_TOL)):
        raise NumericError("attention rows must be stochastic")
    lid = np.where(valid, _lid_columns(attention, every, omega).sum(axis=-1), 0.0).sum(axis=-1)
    total = np.where(valid, row_sums, 0.0).sum(axis=-1)
    return (lid > total - lid).sum(axis=0).reshape(layers, heads)


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


def count_heads(batches: Iterable[tuple[Sequence, Sequence[int]]],
                omega: tuple[int, int]) -> HeadSelection:
    """Indicator counts of every head over a dataset given as
    (attention, lengths) batches; the returned selection is empty."""
    total = None
    size = 0
    for attention, lengths in batches:
        counts = lid_counts(attention, lengths, omega)
        if total is None:
            total = counts
        elif counts.shape != total.shape:
            raise DataError("inconsistent head sets across batches")
        else:
            total += counts
        size += len(lengths)
    if size == 0:
        raise DataError("head selection requires a non-empty dataset")
    return HeadSelection(counts={(layer, head): int(c) for (layer, head), c
                                 in np.ndenumerate(total)}, dataset_size=size)


def count_and_select(batches: Iterable[tuple[Sequence, Sequence[int]]],
                     omega: tuple[int, int], top_k: int | None = None,
                     fraction: float | None = None) -> HeadSelection:
    """Count every head over a dataset of (attention, lengths) batches and
    pick the top heads.

    Exactly one of `top_k` and `fraction` must be given. A fraction selects
    round(fraction * |qualifying|) heads, where qualifying heads pass the
    majority bar; an absolute K ranks all heads by count.
    """
    if (top_k is None) == (fraction is None):
        raise ConfigError("specify exactly one of top_k and fraction")
    selection = count_heads(batches, omega)
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("head fraction must lie in [0, 1]")
        top_k = round(fraction * len(selection.qualifying))
    if top_k < 0 or top_k > len(selection.counts):
        raise ConfigError(f"top_k {top_k} out of range for {len(selection.counts)} heads")
    selection.selected = rank_heads(selection.counts)[:top_k]
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


def ag_loss(attention: Sequence, selection: HeadSelection,
            targets: Sequence[GuidanceTarget]) -> Tensor:
    """Squared error between the selected heads' LID columns and the
    targets, summed over the heads (a repeated head counts twice), the
    batch, each sequence's valid rows and the two LID columns.

    `attention` holds each decoder layer's (B, H, N, N) maps, as graph
    tensors or arrays; `targets[b]` covers the first targets[b].n rows of
    sequence b, and every target must name the same two LID columns. The
    result is one tape node over the layers that hold a selected head, so
    gradients flow back through the maps into the decoder adapters.
    """
    selection.require_nonempty()
    maps = [as_tensor(a) for a in attention]
    b, _, n, _ = maps[0].shape
    if len(targets) != b:
        raise DataError(f"{len(targets)} guidance targets for a batch of {b} maps")
    omega = tuple(targets[0].omega)
    if any(tuple(t.omega) != omega for t in targets):
        raise DataError("guidance targets disagree on the LID columns")
    valid = _valid_rows([t.n for t in targets], n)
    goal = np.zeros((b, n, 2))
    for i, target in enumerate(targets):
        goal[i, :target.n] = target.matrix
    _check_heads(maps, selection.selected, omega)
    return column_squared_error(maps, selection.selected, omega, goal, valid)


def lid_attribution(attention: Sequence, sequences: Sequence[TokenSequence],
                    selection: HeadSelection) -> tuple[int, int]:
    """(correct, total) over the word tokens of one batch: a word token is
    correct when the mean of the selected heads' maps on its row puts at
    least as much mass on its own language's LID column as on the other
    (a tie counts as language A).

    `attention` holds each decoder layer's (B, H, N, N) maps over the
    <blnk>-padded `sequences`, which must all carry the same two LID
    positions.
    """
    selection.require_nonempty()
    omega = tuple(sequences[0].lid_positions)
    if len(omega) != 2 or any(tuple(s.lid_positions) != omega for s in sequences):
        raise DataError("attribution needs bilingual sequences with shared LID positions")
    b, _, n, _ = _data(attention[0]).shape
    if len(sequences) != b:
        raise DataError(f"{len(sequences)} sequences for a batch of {b} maps")
    mean = _lid_columns(attention, selection.selected, omega).sum(axis=1)
    mean /= len(selection.selected)
    says_a = mean[..., 0] >= mean[..., 1]
    is_word = np.zeros(says_a.shape, dtype=bool)
    is_a = np.zeros(says_a.shape, dtype=bool)
    for i, seq in enumerate(sequences):
        if seq.n > n:
            raise DataError(f"sequence of length {seq.n} exceeds the map width {n}")
        is_word[i, :seq.n] = [tag is not None for tag in seq.lang_tags]
        is_a[i, :seq.n] = [tag == LANG_A for tag in seq.lang_tags]
    return int(np.sum(is_word & (says_a == is_a))), int(np.sum(is_word))


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
