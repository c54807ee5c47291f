"""Language-aware attention guidance over batched decoder self-attention maps.

Every head statistic of the method reads the same two inputs: each decoder
layer's (B, H, N, N) self-attention maps and the batch's B `TokenSequence`s.
A sequence's length marks its valid rows (rows past it are padding), and its
language tags mark its language-A and language-B word rows. Each sequence
must carry the bilingual prompt, whose ids <zh> and <en> sit at the map
columns `model.LID_COLUMNS`; one without them there raises DataError.

- `lid_counts` gives, for each head, how many sequences of a batch put more
  mass on the LID columns than on all other columns combined, over their
  valid rows; `count_heads` adds these up over a dataset, and
  `count_and_select` picks candidates by one of the `STRATEGIES`.
- Every head is counted, but only candidate heads are selected: those of
  decoder layers `model.FIRST_GUIDABLE_LAYER` and up, as no adapter feeds a
  layer-0 map. `candidate_heads` ranks them by count and `random_heads`
  draws from them.
- `ag_loss` builds the soft goal of a batch (c on a word row's own
  language's column, 0 on every other valid row and column) and returns one
  tape node, `numerics.column_squared_error`: the squared error between the
  selected heads' LID columns and the goal, summed over heads, valid rows
  and the two columns. Its backward, 2 (a - goal) on valid rows, is written
  into those two columns only, so every other column gets an exactly zero
  gradient.
- `lid_attribution` counts the word tokens whose mean selected-head map puts
  at least as much mass on their own language's LID column as on the other.

A selection is checked against a model once, by `HeadSelection.check`, as it
enters training or evaluation (see `training`); `lid_counts`, `ag_loss` and
`lid_attribution` trust their inputs, and `lid_counts` reads every head.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import read_records, write_records
from .errors import ConfigError, DataError, NumericError
from .model import (EN, FIRST_GUIDABLE_LAYER, LANG_A, LANG_B, LID_COLUMNS, ZH, ModelConfig,
                    TokenSequence)
from .numerics import Tensor, as_tensor, column_squared_error

HeadIndex = tuple[int, int]

ROW_SUM_TOL = 1e-6


def _data(maps) -> np.ndarray:
    return maps.data if isinstance(maps, Tensor) else np.asarray(maps, dtype=np.float64)


def _row_masks(sequences: Sequence[TokenSequence], b: int,
               n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid, lang_a, lang_b), each (b, n) bool: the rows each sequence
    holds, and its word rows of language A and of language B. Raises
    DataError unless there are b sequences, each at most n long and each
    carrying the bilingual prompt."""
    if len(sequences) != b:
        raise DataError(f"{len(sequences)} sequences for a batch of {b} maps")
    valid = np.zeros((b, n), dtype=bool)
    lang_a = np.zeros((b, n), dtype=bool)
    lang_b = np.zeros((b, n), dtype=bool)
    for i, seq in enumerate(sequences):
        if [seq.ids[c] for c in LID_COLUMNS if c < seq.n] != [ZH, EN]:
            raise DataError("head statistics need sequences with the bilingual prompt")
        if seq.n > n:
            raise DataError(f"sequence of length {seq.n} exceeds the map width {n}")
        valid[i, :seq.n] = True
        lang_a[i, :seq.n] = [tag == LANG_A for tag in seq.lang_tags]
        lang_b[i, :seq.n] = [tag == LANG_B for tag in seq.lang_tags]
    return valid, lang_a, lang_b


def lid_counts(attention: Sequence, sequences: Sequence[TokenSequence]) -> np.ndarray:
    """(L, H) indicator counts of one batch: how many of its sequences put
    more total mass on the LID columns than on all other columns combined,
    summing over each sequence's valid rows (prompt rows included). A valid
    row that is not stochastic raises NumericError."""
    layers = len(attention)
    b, heads, n, _ = _data(attention[0]).shape
    valid = _row_masks(sequences, b, n)[0][:, None, :]
    row_sums = np.concatenate([_data(a).sum(axis=-1) for a in attention], axis=1)
    if np.any(valid & (np.abs(row_sums - 1.0) > ROW_SUM_TOL)):
        raise NumericError("attention rows must be stochastic")
    lid = np.concatenate([_data(a)[..., list(LID_COLUMNS)].sum(axis=-1) for a in attention],
                         axis=1)
    lid = np.where(valid, lid, 0.0).sum(axis=-1)
    total = np.where(valid, row_sums, 0.0).sum(axis=-1)
    return (lid > total - lid).sum(axis=0).reshape(layers, heads)


@dataclass(frozen=True)
class HeadSelection:
    """Per-head indicator counts plus the chosen (layer, head) list.

    `threshold` is the majority bar a head must clear to qualify as a
    language-ID head: its count over the dataset must exceed half the
    dataset size. A selection is frozen, so the list `check` accepted is
    the one that is guided and attributed.
    """

    counts: dict[HeadIndex, int]
    dataset_size: int
    selected: list[HeadIndex] = field(default_factory=list)

    @property
    def threshold(self) -> float:
        return self.dataset_size / 2.0

    @property
    def qualifying(self) -> list[HeadIndex]:
        """Candidate heads whose count clears the bar, in (layer, head) order."""
        bar = self.threshold
        return sorted(h for h in candidate_heads(self.counts) if self.counts[h] > bar)

    def require_nonempty(self) -> None:
        if not self.selected:
            raise ConfigError("head selection is empty")

    def check(self, config: ModelConfig, guided: bool = False) -> None:
        """The one check of a selection against a model: ConfigError if it
        is empty or, when `guided`, names a head of a layer below
        FIRST_GUIDABLE_LAYER, which no adapter feeds; DataError if it names
        a head the model of `config` lacks."""
        self.require_nonempty()
        unguidable = [h for h in self.selected if h[0] < FIRST_GUIDABLE_LAYER]
        if guided and unguidable:
            raise ConfigError(f"heads {unguidable} cannot be guided: no adapter feeds "
                              f"decoder layers below {FIRST_GUIDABLE_LAYER}")
        for layer, head in self.selected:
            if not (0 <= layer < config.dec_layers and 0 <= head < config.heads):
                raise DataError(f"selected head {(layer, head)} missing from the model, which "
                                f"has {config.dec_layers} decoder layers of {config.heads} heads")


def candidate_heads(counts: Mapping[HeadIndex, int]) -> list[HeadIndex]:
    """The heads of decoder layers FIRST_GUIDABLE_LAYER and up, by count
    descending, ties broken by (layer, head) ascending."""
    return sorted((h for h in counts if h[0] >= FIRST_GUIDABLE_LAYER),
                  key=lambda h: (-counts[h], h[0], h[1]))


def random_heads(counts: Mapping[HeadIndex, int], size: int, seed: int) -> list[HeadIndex]:
    """Ablation selector: a seeded uniform draw of `size` of the candidate
    heads (at most all of them), ignoring their counts, in (layer, head) order."""
    heads = sorted(candidate_heads(counts))
    picked = np.random.default_rng(seed).choice(len(heads), size=size, replace=False)
    return sorted(heads[i] for i in picked)


def count_heads(batches: Iterable[tuple[Sequence, Sequence[TokenSequence]]]) -> HeadSelection:
    """Indicator counts of every head over a dataset given as
    (attention, sequences) batches; the returned selection is empty."""
    total = None
    size = 0
    for attention, sequences in batches:
        counts = lid_counts(attention, sequences)
        if total is None:
            total = counts
        elif counts.shape != total.shape:
            raise DataError("inconsistent head sets across batches")
        else:
            total += counts
        size += len(sequences)
    if size == 0:
        raise DataError("head selection requires a non-empty dataset")
    return HeadSelection(counts={(layer, head): int(c) for (layer, head), c
                                 in np.ndenumerate(total)}, dataset_size=size)


# The heads each strategy selects from a counted selection `s` at fraction `f`.
STRATEGIES = {
    "top": lambda s, f, seed: candidate_heads(s.counts)[:round(f * len(s.qualifying))],
    "all": lambda s, f, seed: candidate_heads(s.counts),
    "random": lambda s, f, seed: random_heads(s.counts, round(f * len(s.qualifying)), seed),
}


def count_and_select(batches: Iterable[tuple[Sequence, Sequence[TokenSequence]]],
                     fraction: float, strategy: str = "top", seed: int = 0) -> HeadSelection:
    """Count every head over a dataset of (attention, sequences) batches and
    select candidate heads by `strategy`: "top" keeps the top
    round(fraction * |qualifying|), "all" every one, and "random" a draw,
    seeded by `seed`, of as many candidates as "top" keeps. A bad
    strategy, fraction or seed raises ConfigError before any batch is read."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"head-selection strategy must be one of {tuple(STRATEGIES)}")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("head fraction must lie in [0, 1]")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    counted = count_heads(batches)
    return replace(counted, selected=STRATEGIES[strategy](counted, fraction, seed))


# ---------------------------------------------------------------------------
# Guidance loss and attribution
# ---------------------------------------------------------------------------

def ag_loss(attention: Sequence, sequences: Sequence[TokenSequence],
            selection: HeadSelection, c: float) -> Tensor:
    """Squared error between the selected heads' LID columns and the soft
    goal with label `c`, summed over the heads (a repeated head counts
    twice), the batch, each sequence's valid rows and the two LID columns.

    `attention` holds each decoder layer's (B, H, N, N) maps over the
    <blnk>-padded `sequences`, as graph tensors or arrays. The result is one
    tape node over the layers that hold a selected head, so gradients flow
    back through the maps into the decoder adapters.
    """
    maps = [as_tensor(a) for a in attention]
    b, _, n, _ = maps[0].shape
    valid, lang_a, lang_b = _row_masks(sequences, b, n)
    goal = c * np.stack([lang_a, lang_b], axis=-1)
    return column_squared_error(maps, selection.selected, LID_COLUMNS, goal, valid)


def lid_attribution(attention: Sequence, sequences: Sequence[TokenSequence],
                    selection: HeadSelection) -> tuple[int, int]:
    """(correct, total) over the word tokens of one batch: a word token is
    correct when the mean of the selected heads' maps on its row puts at
    least as much mass on its own language's LID column as on the other
    (a tie counts as language A).

    `attention` holds each decoder layer's (B, H, N, N) maps over the
    <blnk>-padded `sequences`.
    """
    b, _, n, _ = _data(attention[0]).shape
    _, lang_a, lang_b = _row_masks(sequences, b, n)
    mean = np.stack([_data(attention[layer])[:, head][..., list(LID_COLUMNS)]
                     for layer, head in selection.selected], axis=1).sum(axis=1)
    mean /= len(selection.selected)
    says_a = mean[..., 0] >= mean[..., 1]
    is_word = lang_a | lang_b
    return int(np.sum(is_word & (says_a == lang_a))), int(np.sum(is_word))


# ---------------------------------------------------------------------------
# Persistence, format 2: the JSON line {"dataset_size": n, "format": 2}, n >= 1, then a
# "layer<TAB>head<TAB>count" line per selected head, in order, each once, 0 <= count <= n.
# ---------------------------------------------------------------------------

HEAD_FILE_FORMAT = 2


def save_head_selection(path, selection: HeadSelection) -> None:
    header = {"dataset_size": selection.dataset_size, "format": HEAD_FILE_FORMAT}
    write_records(path, header, (f"{layer}\t{head}\t{selection.counts[(layer, head)]}"
                                 for layer, head in selection.selected))


def load_head_selection(path) -> HeadSelection:
    """The selection, in line order, of a format-2 file (above); its `counts`
    cover only the selected heads, so its `qualifying` omits every unselected
    head. DataError if malformed; a refused header, such as an older file's
    "#" line, says to run select-heads again. `HeadSelection.check` tests the heads."""
    header, lines = read_records(path, {"dataset_size": int}, HEAD_FILE_FORMAT,
                                 "head-selection file", "run select-heads again")
    dataset_size = header["dataset_size"]
    if dataset_size < 1:
        raise DataError(f"malformed head-selection header: {path} counts no utterance")
    counts: dict[HeadIndex, int] = {}
    selected: list[HeadIndex] = []
    for lineno, line in enumerate(lines, 2):
        where = f"{path}:{lineno}: malformed head-selection line {line!r}"
        try:
            layer, head, count = (int(p) for p in line.split("\t"))
        except ValueError as exc:
            raise DataError(where) from exc
        if (layer, head) in counts:
            raise DataError(f"{where} repeats a head")
        if not 0 <= count <= dataset_size:
            raise DataError(f"{where} counts {count} of {dataset_size} utterances")
        counts[(layer, head)] = count
        selected.append((layer, head))
    if not selected:
        raise DataError(f"malformed head-selection file: {path} selects no head")
    return HeadSelection(counts=counts, dataset_size=dataset_size, selected=selected)
