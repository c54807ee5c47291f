"""Backbone pretraining, head selection, two-stage adapter adaptation, and
evaluation: one call each (`pretrain_backbone`, `select_heads`,
`adapt_backbone`, `evaluate_model`) for the CLI and in-process callers alike.
Evaluation and the pretraining gate (`token_accuracy`) decode and score
through one function, `decode_and_score`.

Stage 1 trains the encoder adapters with cross-entropy only; stage 2 trains
both adapter sets with the joint objective (cross-entropy plus the weighted
guidance loss). The backbone is frozen (`Seq2SeqModel.frozen`) throughout
adaptation. A run's stage alone sets its epochs, shuffle stream and guidance
weight (`_run_training`), and each stage ends by averaging its best checkpoints.

A training step holds one tape: `_train_step` records the step's graph over
the parameters it updates, inside `numerics.recording`, `backward` consumes
it, and the loss and the gradient store go out of scope when the step
returns, so no activation of a step is alive during the next step, and
validation, selection and decoding record nothing. As each epoch ends,
`keep_best` keeps only the `avg_count` best checkpoints, ranked by validation
loss, and `average_checkpoints` takes the mean of what it kept.

Every model input is one `pad`ded `Batch`: zero frames under a frame mask
and <blnk>-padded reference tokens. `make_batches` pads chunks sorted by
token length for training, validation and head selection; evaluation pads
chunks sorted by frame length, and its attribution pass reads the rows of
that same token array. `sequence_ce` derives the next-token targets and the
scored rows from the tokens alone.

Every head statistic reads the batched maps of one teacher-forced decoder
pass together with the batch's token sequences (see `guidance`):
`select_heads` counts every head of each batch of backbone maps at once and
selects only candidate heads, those of decoder layers
`model.FIRST_GUIDABLE_LAYER` and up, by one `guidance.count_and_select` call;
`batch_loss` adds one guidance-loss node per step, its goal built from the
batch's sequences and the soft label `TrainConfig.c`; and
`decode_and_score` encodes each utterance once, 16 rows at a time, decodes
chunks of 64 utterances sharing a prompt from that memory, attributes languages
from a teacher-forced pass over the references on the same memory, run only
through the deepest selected layer, and scores every hypothesis by its kind.

Decode chunks go to processes, not threads, as the GIL serialises threads:
`decode_and_score` builds its chunk list once over every prompt, and
`_map_forked` decodes it with one worker per CPU the process may run on
(`os.sched_getaffinity`), at most one per chunk, and 1 without `os.fork`.
Worker k of n decodes chunks k, k + n, k + 2n, ...; worker 0 is the calling
process, so on one CPU nothing forks. A forked child sends back only its
hypotheses and attribution counts. Chunks are independent and decode the
same way in any process, so reports are identical for any worker count.
Every child is reaped before `decode_and_score` returns, also on error.

`HeadSelection.check` tests a selection against the model once, as it enters
`decode_and_score`, `run_stage2` or, before stage 1, `run_adaptation`; the
last two also refuse a layer-0 head. Nothing downstream checks it again.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import config
from .errors import ConfigError, DataError, NumericError
from .guidance import HeadSelection, ag_loss, count_and_select, lid_attribution
from .model import (
    BLNK,
    ModelConfig,
    Seq2SeqModel,
    PROMPTS,
    TokenSequence,
    is_adapter_param,
)
from .numerics import (
    OptimizerState,
    Parameter,
    Tensor,
    adamw_step,
    backward,
    cross_entropy,
    recording,
)
from .synthtask import (
    KIND_CS,
    MerReport,
    Utterance,
    mixed_error_rate,
)

MODES = ("one-stage", "one-stage-ag", "two-stage-ag")
# A run's stage; its index is the run's shuffle stream.
STAGES = ("pretrain", "stage1", "stage2")

PRETRAIN_ACCURACY_GATE = 0.90


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.01
    c: float = 0.6
    lr: float = 1e-3
    epochs: int = 15
    batch_size: int = 16
    seed: int = 0
    avg_count: int = 3
    mode: str = "two-stage-ag"
    weight_decay: float = 0.01
    pretrain_epochs: int = 20

    def __post_init__(self):
        # each bound is the condition that must hold, negated, so NaN fails it
        if not self.gamma >= 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if not 0.5 < self.c < 1.0:
            raise ConfigError("soft label c out of range (need 0.5 < c < 1)")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not (self.epochs >= 1 and self.pretrain_epochs >= 1):
            raise ConfigError("epochs and pretrain_epochs must be at least 1")
        if not self.batch_size >= 1:
            raise ConfigError("batch_size must be at least 1")
        if not self.avg_count >= 1:
            raise ConfigError("avg_count (checkpoints averaged) must be at least 1")
        if not self.lr > 0:
            raise ConfigError(f"learning rate lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def build_train_config(values: Mapping[str, str],
                       overrides: Mapping[str, object] | None = None) -> TrainConfig:
    """The TrainConfig of a run config file; the file may also hold
    ModelConfig keys, as one file serves both pretrain and adapt."""
    return config.from_text(TrainConfig, values, config.field_kinds(ModelConfig), overrides)


def build_model_config(values: Mapping[str, str]) -> ModelConfig:
    """The ModelConfig of a run config file that may also hold TrainConfig keys."""
    return config.from_text(ModelConfig, values, config.field_kinds(TrainConfig))


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    frames: np.ndarray        # (B, T_max, feat), zero-padded
    frame_mask: np.ndarray    # (B, T_max) bool, True on real frames
    tokens: np.ndarray        # (B, N_max) int64 decoder input, <blnk>-padded
    sequences: list[TokenSequence]


def pad(utts: Sequence[Utterance]) -> Batch:
    """`utts` as one batch, in the order given: frames zero-padded under a
    mask of the real ones, reference tokens padded with <blnk>."""
    t_max = max(u.frames.shape[0] for u in utts)
    n_max = max(u.reference.n for u in utts)
    frames = np.zeros((len(utts), t_max, utts[0].frames.shape[1]))
    frame_mask = np.zeros((len(utts), t_max), dtype=bool)
    tokens = np.full((len(utts), n_max), BLNK, dtype=np.int64)
    for i, utt in enumerate(utts):
        frames[i, :utt.frames.shape[0]] = utt.frames
        frame_mask[i, :utt.frames.shape[0]] = True
        tokens[i, :utt.reference.n] = utt.reference.ids
    return Batch(frames=frames, frame_mask=frame_mask, tokens=tokens,
                 sequences=[u.reference for u in utts])


def make_batches(utts: Sequence[Utterance], batch_size: int) -> list[Batch]:
    """Length-bucketed batches: sort by token length (then id), chunk, pad."""
    ordered = sorted(utts, key=lambda u: (u.reference.n, u.uid))
    return [pad(ordered[start:start + batch_size])
            for start in range(0, len(ordered), batch_size)]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def sequence_ce(model: Seq2SeqModel, batch: Batch):
    """Summed cross-entropy of each row's logits against the next token, and
    the forward output, whose attention maps callers reuse. The targets are
    the tokens shifted left with a <blnk> column appended, and a row counts
    when its target is not <blnk>: exactly rows 0..n-2 of an n-token
    sequence, as `TokenSequence.from_ids` admits no <blnk> inside one."""
    out = model.forward(batch.frames, batch.tokens, batch.frame_mask)
    targets = np.full_like(batch.tokens, BLNK)
    targets[:, :-1] = batch.tokens[:, 1:]
    return cross_entropy(out.logits, targets, row_mask=targets != BLNK), out


def batch_loss(model: Seq2SeqModel, batch: Batch, selection: HeadSelection | None,
               gamma: float, c: float) -> tuple[Tensor, float, float]:
    """Joint loss for one batch: mean per-utterance CE plus gamma times the
    mean per-utterance guidance loss with soft label c, which is one
    `ag_loss` node over the whole batch. Returns (loss, ce_mean, ag_mean)."""
    b = len(batch.sequences)
    ce_sum, out = sequence_ce(model, batch)
    ce_mean = ce_sum * (1.0 / b)
    if gamma == 0.0:
        return ce_mean, ce_mean.item(), 0.0
    ag_total = ag_loss(out.attention, batch.sequences, selection, c)
    ag_mean = ag_total * (1.0 / b)
    loss = ce_mean + gamma * ag_mean
    return loss, ce_mean.item(), ag_mean.item()


def validation_ce(model: Seq2SeqModel, batches: Sequence[Batch]) -> float:
    """Mean per-utterance teacher-forced CE over a non-empty validation set
    (`_run_training` refuses an empty one before its first step)."""
    total = 0.0
    count = 0
    for batch in batches:
        ce_sum, _ = sequence_ce(model, batch)
        total += ce_sum.item()
        count += len(batch.sequences)
    return total / count


# ---------------------------------------------------------------------------
# Run records and checkpoint averaging
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_ce: float
    train_ag: float
    val_ce: float
    seconds: float


@dataclass
class EpochCheckpoint:
    epoch: int
    val_loss: float
    params: dict[str, np.ndarray]


@dataclass
class RunRecord:
    """One training run: every epoch's statistics, and the checkpoints kept
    for averaging (a run keeps only its `avg_count` best, see `keep_best`)."""

    stage: str
    epochs: list[EpochStats] = field(default_factory=list)
    checkpoints: list[EpochCheckpoint] = field(default_factory=list)
    final_val_ce: float | None = None


def keep_best(kept: list[EpochCheckpoint], cp: EpochCheckpoint, k: int) -> None:
    """Add `cp` to `kept`, then keep only the k best: lower validation loss
    first, the earlier epoch on ties. `kept` stays in that order, so it holds
    the k best of every checkpoint seen, best first."""
    kept.append(cp)
    kept.sort(key=lambda c: (c.val_loss, c.epoch))
    del kept[k:]


def average_checkpoints(kept: Sequence[EpochCheckpoint]) -> dict[str, np.ndarray]:
    """Coordinate-wise mean of the non-empty checkpoints `kept`, summed in
    list order; `keep_best` chose and ordered them.

    Tensors that are bit-identical across the checkpoints are passed through
    verbatim; the arithmetic mean of identical values is that value, and
    copying preserves it exactly.
    """
    averaged: dict[str, np.ndarray] = {}
    for name in kept[0].params:
        stack = [cp.params[name] for cp in kept]
        if all(np.array_equal(stack[0], arr) for arr in stack[1:]):
            averaged[name] = stack[0].copy()
        else:
            acc = np.zeros_like(stack[0])
            for arr in stack:
                acc += arr
            averaged[name] = acc / len(stack)
    return averaged


# ---------------------------------------------------------------------------
# Training engine
# ---------------------------------------------------------------------------

def _train_step(model: Seq2SeqModel, batch: Batch, selection: HeadSelection | None,
                gamma: float, c: float, opt: OptimizerState,
                params: Mapping[str, Parameter]) -> tuple[float, float]:
    """One AdamW step on one batch; returns (ce_mean, ag_mean). Only `params`
    record, and only while the loss is built and swept; the loss and its
    gradient store are local, so the step's tape is gone on return."""
    with recording(params.values()):
        loss, ce_mean, ag_mean = batch_loss(model, batch, selection, gamma, c)
        grads = backward(loss, params.values())
    adamw_step(opt, params, grads)
    return ce_mean, ag_mean


def _run_training(model: Seq2SeqModel, train_utts: Sequence[Utterance],
                  valid_utts: Sequence[Utterance], cfg: TrainConfig, stage: str,
                  param_names: Sequence[str],
                  selection: HeadSelection | None = None) -> RunRecord:
    """Train `param_names` for `cfg.pretrain_epochs` in pretraining, else `cfg.epochs`,
    with guidance weight `cfg.gamma` in stage 2 alone; a frozen model's backbone is refused."""
    for name in param_names:
        if model.frozen and not is_adapter_param(name):
            raise ConfigError(f"parameter {name!r} is frozen and cannot be trained")
    params = {name: model.params[name] for name in param_names}
    epochs = cfg.pretrain_epochs if stage == "pretrain" else cfg.epochs
    gamma = cfg.gamma if stage == "stage2" else 0.0
    opt = OptimizerState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = make_batches(train_utts, cfg.batch_size)
    valid_batches = make_batches(valid_utts, cfg.batch_size)
    if not batches:
        raise DataError("training set is empty")
    if not valid_batches:
        raise DataError("validation set is empty")
    shuffle_rng = np.random.default_rng([cfg.seed, 977, STAGES.index(stage)])
    record = RunRecord(stage=stage)
    for epoch in range(epochs):
        start = time.perf_counter()
        order = shuffle_rng.permutation(len(batches))
        ce_acc = 0.0
        ag_acc = 0.0
        n_utts = 0
        for bi in order:
            batch = batches[bi]
            ce_mean, ag_mean = _train_step(model, batch, selection, gamma, cfg.c,
                                           opt, params)
            b = len(batch.sequences)
            ce_acc += ce_mean * b
            ag_acc += ag_mean * b
            n_utts += b
        val_ce = validation_ce(model, valid_batches)
        record.epochs.append(EpochStats(
            epoch=epoch, train_ce=ce_acc / n_utts, train_ag=ag_acc / n_utts,
            val_ce=val_ce, seconds=time.perf_counter() - start))
        keep_best(record.checkpoints, EpochCheckpoint(
            epoch=epoch, val_loss=val_ce,
            params={n: p.data.copy() for n, p in params.items()}), cfg.avg_count)
    for name, arr in average_checkpoints(record.checkpoints).items():
        model.params[name].data = arr
    record.final_val_ce = validation_ce(model, valid_batches)
    return record


def run_stage1(model: Seq2SeqModel, train_utts: Sequence[Utterance],
               valid_utts: Sequence[Utterance], cfg: TrainConfig) -> RunRecord:
    """Encoder adapters only, cross-entropy only; decoder adapters untouched."""
    if not model.has_adapters:
        raise ConfigError("stage 1 requires initialised adapters")
    names = sorted(model.adapter_params("enc"))
    return _run_training(model, train_utts, valid_utts, cfg, "stage1", names)


def _check_guided(selection: HeadSelection | None, config: ModelConfig) -> None:
    """ConfigError for no selection, else `selection.check(config, guided=True)`."""
    if selection is None:
        raise ConfigError("guided training requires a head selection")
    selection.check(config, guided=True)


def run_stage2(model: Seq2SeqModel, train_utts: Sequence[Utterance],
               valid_utts: Sequence[Utterance], cfg: TrainConfig,
               selection: HeadSelection | None) -> RunRecord:
    """Both adapter sets under the joint objective (or plain CE at gamma 0)."""
    if not model.has_adapters:
        raise ConfigError("stage 2 requires initialised adapters")
    if cfg.gamma > 0.0:
        _check_guided(selection, model.config)
    names = sorted(model.adapter_params())
    return _run_training(model, train_utts, valid_utts, cfg, "stage2", names, selection)


def run_adaptation(model: Seq2SeqModel, train_utts: Sequence[Utterance],
                   valid_utts: Sequence[Utterance], cfg: TrainConfig,
                   selection: HeadSelection | None) -> list[RunRecord]:
    """Dispatch on the configured mode; returns one record per stage run."""
    if cfg.mode == "one-stage":
        return [run_stage2(model, train_utts, valid_utts, replace(cfg, gamma=0.0), None)]
    if cfg.mode == "one-stage-ag":
        return [run_stage2(model, train_utts, valid_utts, cfg, selection)]
    if cfg.gamma > 0.0:  # two-stage-ag: check before stage 1, not after it
        _check_guided(selection, model.config)
    first = run_stage1(model, train_utts, valid_utts, cfg)
    second = run_stage2(model, train_utts, valid_utts, cfg, selection)
    return [first, second]


def adapt_backbone(model: Seq2SeqModel, train_utts: Sequence[Utterance],
                   valid_utts: Sequence[Utterance], cfg: TrainConfig,
                   selection: HeadSelection | None) -> list[RunRecord]:
    """Insert fresh adapters into the backbone `model` (DataError if it has
    some), drawn from seed `cfg.seed + 1`, apart from the seed-`cfg.seed`
    stream that initialised the backbone; then `run_adaptation`."""
    model.init_adapters(seed=cfg.seed + 1)
    return run_adaptation(model, train_utts, valid_utts, cfg, selection)


# ---------------------------------------------------------------------------
# Backbone pretraining
# ---------------------------------------------------------------------------

@dataclass
class PretrainReport:
    mono_accuracy: float
    cs_accuracy: float
    record: RunRecord


def pretrain_backbone(model: Seq2SeqModel, pretrain_utts: Sequence[Utterance],
                      valid_utts: Sequence[Utterance], cfg: TrainConfig) -> PretrainReport:
    """Train the backbone on monolingual data, gate on held-out accuracy,
    then freeze the model, so only adapters train from then on."""
    if model.has_adapters:
        raise ConfigError("pretrain the backbone before inserting adapters")
    if any(utt.kind == KIND_CS for utt in pretrain_utts):
        raise DataError("pretraining corpus must be monolingual only")
    # Validation sequences must use the monolingual prompt the backbone is
    # trained on; the valid split stores bilingual-prompt references.
    valid_mono = [Utterance(utt.uid, utt.frames,
                            TokenSequence.from_words(model.vocab, utt.words, utt.lang))
                  for utt in valid_utts if utt.lang is not None]
    if not valid_mono:
        raise DataError("validation set has no monolingual utterances")
    record = _run_training(model, pretrain_utts, valid_mono, cfg, "pretrain",
                           sorted(model.params))
    mono = [u for u in valid_utts if u.kind != KIND_CS]
    cs = [u for u in valid_utts if u.kind == KIND_CS]
    mono_acc = token_accuracy(model, mono, bilingual_prompt=False)
    cs_acc = token_accuracy(model, cs, bilingual_prompt=True) if cs else 0.0
    if mono_acc < PRETRAIN_ACCURACY_GATE:
        raise NumericError(
            f"pretraining reached monolingual accuracy {mono_acc:.3f} < "
            f"{PRETRAIN_ACCURACY_GATE}; increase pretrain_epochs")
    model.freeze_backbone()
    return PretrainReport(mono_accuracy=mono_acc, cs_accuracy=cs_acc, record=record)


# ---------------------------------------------------------------------------
# Head selection over the frozen backbone
# ---------------------------------------------------------------------------

def _backbone_maps(model: Seq2SeqModel, utts: Sequence[Utterance]):
    """(attention, sequences) of each teacher-forced batch of 32 utterances.
    Batches are computed as they are consumed, and each decoder pass stops
    at the last layer's self-attention maps, the deepest thing a count reads."""

    def maps(batch: Batch):
        memory, col_mask = model.encode(batch.frames, batch.frame_mask)
        _, attention = model._decode_rows(batch.tokens, memory, col_mask,
                                          depth=model.config.dec_layers)
        return attention, batch.sequences

    return (maps(batch) for batch in make_batches(utts, 32))


def select_heads(model: Seq2SeqModel, utts: Sequence[Utterance], fraction: float,
                 strategy: str = "top", seed: int = 0) -> HeadSelection:
    """Count every head of the backbone `model` over the bilingual-prompt
    `utts` and select candidate heads by `strategy` (see
    `guidance.STRATEGIES`). Selecting nothing raises ConfigError. Selection
    reads the backbone alone, so a model with adapters raises DataError."""
    if model.has_adapters:
        raise DataError("head selection runs on a backbone; this model has adapters")
    selection = count_and_select(_backbone_maps(model, utts), fraction, strategy, seed)
    if not selection.selected:
        raise ConfigError(
            f"no heads selected ({strategy} strategy, fraction {fraction}): "
            f"{len(selection.qualifying)} of {len(selection.counts)} heads pass the "
            f"majority bar of {selection.threshold:g} of {selection.dataset_size} "
            f"utterances; counts {selection.counts}")
    return selection


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    mer: MerReport
    lid_attribution: float | None

    def rows(self) -> list[tuple[str, str, float]]:
        out = [("all", "overall_mer", self.mer.overall)]
        for kind, rate in sorted(self.mer.per_kind.items()):
            out.append((kind, "token_error_rate", rate))
        if self.lid_attribution is not None:
            out.append(("test-cs", "lid_attribution", self.lid_attribution))
        return out

    def csv(self) -> str:
        """`rows` under a `set,metric,value` header, values to 4 decimals."""
        return "set,metric,value\n" + "".join(f"{name},{metric},{value:.4f}\n"
                                              for name, metric, value in self.rows())


# Rows per `encode` call while decoding a test set. A chunk's greedy decode
# runs 64 rows per step, because a step's cost is mostly per call (5.1 ms at
# 64 rows, 2.1 ms at 16), but its encoder activations fall out of L2 at 64:
# over the 600 eval-decode test utterances (2-vCPU host, one BLAS thread,
# medians of 15 interleaved repetitions) the encoder took 360 ms in 64-row
# calls, 342 ms at 32, 293 ms at 16 and 306 ms at 8, and the
# (64, T, ffn_width) FFN activations set evaluation's peak memory. Blocking is the tiling of FlashAttention (arXiv:2205.14135).
ENCODE_ROWS = 16
# Utterances per greedy decode, for the per-call cost above.
DECODE_ROWS = 64


def _encode_blocked(model: Seq2SeqModel, frames: np.ndarray,
                    mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """`model.encode(frames, mask)`, run `ENCODE_ROWS` rows at a time; the
    blocks' memory and column mask are concatenated along the batch."""
    blocks = [model.encode(frames[i:i + ENCODE_ROWS], mask[i:i + ENCODE_ROWS])
              for i in range(0, len(frames), ENCODE_ROWS)]
    return (Tensor(np.concatenate([m.data for m, _ in blocks])),
            np.concatenate([c for _, c in blocks]))


def _worker_count(items: int) -> int:
    """Processes `_map_forked` spreads `items` over: one per CPU this
    process may run on, at most one per item, and 1 without `os.fork`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items))


def _map_forked(fn, items: Sequence) -> list:
    """`[fn(item) for item in items]`, computed by `_worker_count(len(items))`
    workers: worker k takes items k, k + n, k + 2n, ... of the n workers.
    Worker 0 is this process; each other is a forked child, which inherits
    `fn` and its arguments (nothing is pickled on the way in) and pickles
    its results, or the exception its share raised, back through a pipe.
    On one CPU nothing forks. Every child is reaped before this returns or
    raises: a child's exception is raised here with its type and message, a
    child that exits without a result raises ChildProcessError, and an
    error in this process's own share kills the children first.

    Fork, not spawn: a spawned worker would import the program afresh and
    need the model pickled into it. A child runs only `fn`, numpy and
    pickle, and leaves by `os._exit`, so it never runs the caller's
    cleanup; it takes no Python lock that another thread could hold at the
    fork."""
    n = _worker_count(len(items))
    results: list = [None] * len(items)
    children: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end)
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(fn, items[k::n], write_fd)
            os.close(write_fd)
            children[k] = (pid, read_fd)
        results[0::n] = [fn(item) for item in items[0::n]]
        for k in range(1, n):
            results[k::n] = _collect(*children.pop(k))
    finally:
        for pid, read_fd in children.values():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _child(fn, share: Sequence, write_fd: int) -> None:
    """A forked worker's whole life: compute `share`, send (True, results)
    or (False, exception) to the parent, and exit without returning to the
    caller's stack; the exit status is 0 only when the message was sent."""
    status = 1
    try:
        try:
            message = pickle.dumps((True, [fn(item) for item in share]))
        except BaseException as exc:  # raised again in the parent
            message = pickle.dumps((False, exc))
        with os.fdopen(write_fd, "wb") as out:
            out.write(message)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> list:
    """The results child `pid` sent through `read_fd`, after reaping it;
    the exception it sent is raised."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            message = pipe.read()
    finally:  # a failed read closed the pipe, so a child still writing exits
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not message:
        raise ChildProcessError(f"worker {pid} exited with status {code} and no result")
    ok, value = pickle.loads(message)
    if not ok:
        raise value
    return value


def _decode_chunk(model: Seq2SeqModel, prompt: tuple[int, ...], group: Sequence[Utterance],
                  selection: HeadSelection | None) -> tuple[list[list[int]], int, int]:
    """One decode chunk: the group's greedy hypotheses in group order, and
    the LID attribution (correct, total) of its code-switched utterances
    under `selection` ((0, 0) without one)."""
    batch = pad(group)
    memory, col_mask = _encode_blocked(model, batch.frames, batch.frame_mask)
    decoded = model.greedy_decode(memory, col_mask, list(prompt))
    rows = [i for i, utt in enumerate(group) if utt.kind == KIND_CS]
    if selection is None or not rows:
        return decoded, 0, 0
    seqs = [batch.sequences[i] for i in rows]
    tokens = batch.tokens[rows, :max(s.n for s in seqs)]
    depth = 1 + max(layer for layer, _ in selection.selected)
    _, maps = model._decode_rows(tokens, Tensor(memory.data[rows]), col_mask[rows],
                                 depth=depth)
    right, words = lid_attribution(maps, seqs, selection)
    return decoded, right, words


def _decode_set(model: Seq2SeqModel, groups: Mapping[tuple[int, ...], Sequence[Utterance]],
                selection: HeadSelection | None = None
                ) -> tuple[dict[str, list[int]], tuple[int, int]]:
    """Greedy hypotheses by utterance id of each prompt's utterances, decoded
    in chunks of `DECODE_ROWS` utterances of similar frame length. With a
    selection, also the LID attribution (correct, total) of the
    code-switched utterances: a teacher-forced decoder pass over their
    references, on the memory their chunk was decoded from and through the
    deepest selected layer, supplies the maps.

    The chunk list is built once, prompt by prompt in sorted order, each
    prompt's utterances sorted by frame length, and `_map_forked` decodes
    it: one worker per CPU this process may run on (at most one per chunk),
    worker k taking chunks k, k + n, k + 2n, ..., and every child reaped
    before this returns, also on error. Chunks share no state, and each
    runs the same arithmetic on the same inputs in whichever process
    decodes it; hypotheses are merged by utterance id and the integer
    counts summed in chunk order, so the result is the same for any worker
    count.

    Each utterance is encoded once, `ENCODE_ROWS` rows at a time at its
    chunk's padded length, and the blocks' memory is concatenated into the
    chunk's. That memory is bit-identical to one whole-chunk `encode`,
    because every encoder op is row-local (layer norm over the width,
    attention within one sequence, projections row by row) and a GEMM row's
    result does not depend on how many rows share the call as long as the
    call has at least 2 rows. `numerics.linear` runs every projection as
    one 2-D GEMM over all leading rows, so a block's projections have at
    least 2 rows whenever the block does or the chunk's padded length T is
    at least 2; only a 1-row call would take BLAS's GEMV path, which rounds
    differently.
    """
    chunks = []
    for prompt, utts in sorted(groups.items()):
        ordered = sorted(utts, key=lambda u: u.frames.shape[0])
        chunks += [(prompt, ordered[start:start + DECODE_ROWS])
                   for start in range(0, len(ordered), DECODE_ROWS)]
    results = _map_forked(lambda chunk: _decode_chunk(model, *chunk, selection), chunks)
    hyps: dict[str, list[int]] = {}
    correct = total = 0
    for (_, group), (decoded, right, words) in zip(chunks, results):
        hyps.update(zip((utt.uid for utt in group), decoded))
        correct += right
        total += words
    return hyps, (correct, total)


def decode_and_score(model: Seq2SeqModel, utts: Sequence[Utterance], bilingual_prompt: bool,
                     selection: HeadSelection | None = None) -> EvalReport:
    """Decode the utterances under the bilingual prompt, or else each under its
    language's, in one `_decode_set` call over every prompt's chunks (forked
    workers, one per available CPU, see `_map_forked`), and score every
    hypothesis by kind in one `mixed_error_rate` call. Heads add the LID
    attribution: the share of code-switched word tokens whose mean
    selected-head map favours their language's LID column. A bad selection
    (`HeadSelection.check`), a repeated utterance id or a code-switched
    utterance under monolingual prompts raises before anything decodes."""
    if selection is not None:
        selection.check(model.config)
    refs, kinds, groups = {}, {}, {}
    for utt in utts:
        if utt.uid in refs:
            raise DataError(f"utterance id {utt.uid!r} occurs more than once")
        if not bilingual_prompt and utt.lang is None:
            raise DataError("monolingual prompt requires a monolingual utterance")
        refs[utt.uid], kinds[utt.uid] = utt.words, utt.kind
        groups.setdefault(PROMPTS[None if bilingual_prompt else utt.lang], []).append(utt)
    hyps, (correct, total) = _decode_set(model, groups, selection)
    return EvalReport(mer=mixed_error_rate(refs, hyps, kinds),
                      lid_attribution=correct / total if total else None)


def token_accuracy(model: Seq2SeqModel, utts: Sequence[Utterance],
                   bilingual_prompt: bool) -> float:
    """1 - (total edit distance / total reference tokens), floored at 0."""
    if not utts:
        raise DataError("cannot compute accuracy on an empty set")
    mer = decode_and_score(model, utts, bilingual_prompt).mer
    return max(0.0, 1.0 - sum(mer.errors.values()) / sum(mer.tokens.values()))


def evaluate_model(model: Seq2SeqModel, test_sets: Mapping[str, Sequence[Utterance]],
                   selection: HeadSelection | None = None) -> EvalReport:
    """`decode_and_score` of the non-empty test sets, pooled in name order under
    the bilingual prompt. Each utterance is encoded once, 16 rows at a time (see
    `_decode_set`); the model's full `forward` is never called."""
    for name, utts in test_sets.items():
        if not utts:
            raise DataError(f"test set {name!r} is empty")
    return decode_and_score(model, [u for name in sorted(test_sets) for u in test_sets[name]],
                            bilingual_prompt=True, selection=selection)
