"""The three benchmark workloads, driven through agadapt's public API.

Each workload has a set-up (corpus generation, write and read-back, and the
checkpoint load) and a repeatable unit of work with a fixed amount of input.
Every unit returns how many utterances it processed, the quality figures it
produced, and the checks it failed.

The prepared backbone was trained on the seed-0 word bank, so every split
keeps that bank and the default `SynthSpec`, and draws its utterances from an
id range no prepared split uses. Greedy decoding's cost is heavy-tailed: one
hypothesis that never emits `<eot>` runs its whole batch to the length
limit. So every workload whose timed work decodes gets fixed inputs: the
held-out splits, `pretrain`'s training split and its shuffle come from one
fixed id range and seed. Only `adapt-ag`, which decodes nothing while timed,
draws its training split, shuffle and adapter initialisation from the
workload seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from agadapt import checkpoint, synthtask, training
from agadapt.guidance import HeadSelection
from agadapt.model import ModelConfig, Seq2SeqModel, Vocabulary

DATA = Path(__file__).resolve().parent / "data"

# Utterances per split for each workload. The valid split is 70% code-switched,
# as in `generate_corpus`. Pretraining validates on monolingual utterances
# only: its gate scores nothing else, and decoding code-switched utterances
# under the bilingual prompt, which the backbone never trained on, would
# make decoding most of the unit.
SIZES = {
    "pretrain": {"pretrain": 1000, "valid-mono": 200},
    "adapt-ag": {"adapt": 1000, "valid": 200},
    "eval-decode": {"test-mono-a": 200, "test-mono-b": 200, "test-cs": 200},
}
PRETRAIN_EPOCHS = 1
ADAPT_EPOCHS = 1
HEAD_FRACTION = 0.6
MODEL_FILE = "model.agck"


@dataclass
class Prepared:
    config: ModelConfig
    vocab: Vocabulary
    state: dict[str, np.ndarray]
    heads: HeadSelection


def load_prepared() -> Prepared:
    """The benchmark-owned backbone: arrays by parameter name plus metadata."""
    meta = json.loads((DATA / "backbone.json").read_text(encoding="utf-8"))
    with np.load(DATA / "backbone.npz") as arrays:
        state = {name: arrays[name] for name in arrays.files}
    heads = meta["heads"]
    selection = HeadSelection(
        counts={(layer, head): count for layer, head, count in heads["counts"]},
        dataset_size=heads["dataset_size"],
        selected=[tuple(h) for h in heads["selected"]])
    return Prepared(config=ModelConfig(**meta["model_config"]),
                    vocab=Vocabulary.build(meta["vocab"]["n_words_a"], meta["vocab"]["n_words_b"]),
                    state=state, heads=selection)


SPLIT_ORDER = ("pretrain", "adapt", "valid", "valid-mono", "test-mono-a", "test-mono-b",
               "test-cs")
SEEDED_SPLITS = ("adapt",)
FIXED_STREAM = 0
FIXED_SEED = 0
SPLIT_STRIDE = 100_000  # ids per split within a stream


def make_corpus(stream: int, sizes: dict[str, int], spec: synthtask.SynthSpec,
                vocab: Vocabulary) -> dict[str, list[synthtask.Utterance]]:
    """Splits laid out as `generate_corpus` lays them out, with utterance ids
    (stream + 1) * 10**6 + split offset + i. Prepared ids stay below 10**6."""
    if stream < 0:
        raise ValueError("stream must be non-negative")
    bank = synthtask.WordBank(spec, vocab)

    def mono_kind(i: int) -> str:
        return synthtask.KIND_MONO_A if i % 2 == 0 else synthtask.KIND_MONO_B

    def kind_of(split: str, i: int) -> str:
        if split in ("pretrain", "valid-mono"):
            return mono_kind(i)
        if split in ("adapt", "valid"):
            return synthtask.KIND_CS if i % 10 < 7 else mono_kind(i)
        return {"test-mono-a": synthtask.KIND_MONO_A, "test-mono-b": synthtask.KIND_MONO_B,
                "test-cs": synthtask.KIND_CS}[split]

    corpus = {}
    for split, count in sizes.items():
        if count > SPLIT_STRIDE:
            raise ValueError(f"split {split!r} larger than {SPLIT_STRIDE}")
        base = (stream + 1) * 10 * SPLIT_STRIDE + SPLIT_ORDER.index(split) * SPLIT_STRIDE
        corpus[split] = [
            synthtask.generate_utterance(spec, kind_of(split, i), f"u{base + i}", vocab, bank,
                                         prompt_lang_form=split == "pretrain")
            for i in range(count)]
    return corpus


@dataclass
class Inputs:
    splits: dict[str, list[synthtask.Utterance]]
    model_path: Path
    model: Seq2SeqModel
    heads: HeadSelection


def setup(workload: str, seed: int, workdir: Path, prepared: Prepared) -> Inputs:
    """Generate, write and read back the seed's splits, then write the
    prepared backbone as a checkpoint and load it as the CLI would."""
    spec = synthtask.SynthSpec()
    sizes = SIZES[workload]
    corpus = make_corpus(seed + 1, {k: n for k, n in sizes.items() if k in SEEDED_SPLITS},
                         spec, prepared.vocab)
    corpus.update(make_corpus(FIXED_STREAM, {k: n for k, n in sizes.items()
                                             if k not in SEEDED_SPLITS},
                              spec, prepared.vocab))
    synthtask.write_corpus(workdir, spec, prepared.vocab, corpus)
    splits = {split: synthtask.read_split(workdir, split)[2] for split in corpus}

    model = Seq2SeqModel(prepared.config, prepared.vocab)
    model.load_state(prepared.state)
    if workload == "eval-decode":
        model.init_adapters(seed=seed + 1)  # zero up-projections: identity
    path = workdir / MODEL_FILE
    checkpoint.save_model(path, model)
    model = checkpoint.load_model(path, freeze_backbone=workload != "pretrain")
    return Inputs(splits=splits, model_path=path, model=model, heads=prepared.heads)


@dataclass
class UnitResult:
    utterances: int
    model: Seq2SeqModel
    quality: dict[str, object]
    failures: list[str] = field(default_factory=list)


@dataclass
class Unit:
    """`fresh()` gives the unit's starting model outside the timed region;
    `run(model)` is the timed work."""
    fresh: Callable[[], Seq2SeqModel]
    run: Callable[[Seq2SeqModel], UnitResult]


def _finite(failures: list[str], name: str, value) -> None:
    if value is None or not math.isfinite(value):
        failures.append(f"{name} is not finite: {value!r}")


def pretrain_unit(inputs: Inputs, seed: int) -> Unit:
    """Continue training the prepared backbone on the monolingual split;
    `pretrain_backbone` ends with its accuracy gate and raises below it. The
    gate decodes with the trained model, so the shuffle seed is fixed too:
    with the workload seed, one seed in six decoded 4.8 times the rows."""
    cfg = training.TrainConfig(seed=FIXED_SEED, pretrain_epochs=PRETRAIN_EPOCHS)
    train, valid = inputs.splits["pretrain"], inputs.splits["valid-mono"]

    def fresh() -> Seq2SeqModel:
        return checkpoint.load_model(inputs.model_path, freeze_backbone=False)

    def run(model: Seq2SeqModel) -> UnitResult:
        report = training.pretrain_backbone(model, train, valid, cfg)
        record = report.record
        result = UnitResult(
            utterances=PRETRAIN_EPOCHS * len(train), model=model,
            quality={"mono_acc": report.mono_accuracy,
                     "train_ce": record.epochs[-1].train_ce,
                     "val_ce": record.final_val_ce,
                     "token_acc": report.mono_accuracy})
        _finite(result.failures, "train_ce", result.quality["train_ce"])
        _finite(result.failures, "val_ce", result.quality["val_ce"])
        return result

    return Unit(fresh, run)


def adapt_unit(inputs: Inputs, seed: int) -> Unit:
    """Select heads on the frozen backbone, then two-stage-ag adaptation of
    fresh adapters."""
    cfg = training.TrainConfig(seed=seed, epochs=ADAPT_EPOCHS, mode="two-stage-ag")
    train, valid = inputs.splits["adapt"], inputs.splits["valid"]

    def fresh() -> Seq2SeqModel:
        return checkpoint.load_model(inputs.model_path)

    def run(model: Seq2SeqModel) -> UnitResult:
        selection = training.select_heads(model, train, fraction=HEAD_FRACTION)
        model.init_adapters(seed=seed + 1)
        records = training.run_adaptation(model, train, valid, cfg, selection)
        result = UnitResult(utterances=len(records) * ADAPT_EPOCHS * len(train),
                            model=model, quality={"heads": str(selection.selected)})
        if not selection.selected:
            result.failures.append("empty head selection")
        if [r.stage for r in records] != ["stage1", "stage2"]:
            result.failures.append(f"unexpected stages {[r.stage for r in records]}")
        for record in records:
            result.quality[f"{record.stage}_val_ce"] = record.final_val_ce
            _finite(result.failures, f"{record.stage} val_ce", record.final_val_ce)
        result.quality["val_ce"] = records[-1].final_val_ce
        return result

    return Unit(fresh, run)


def adapted_token_acc(model: Seq2SeqModel, inputs: Inputs) -> float:
    """Decode accuracy of an adapted model on the code-switched valid utterances."""
    cs = [u for u in inputs.splits["valid"] if u.kind == synthtask.KIND_CS]
    return training.token_accuracy(model, cs, bilingual_prompt=True)


def eval_unit(inputs: Inputs, seed: int) -> Unit:
    """Greedy-decode and score the three test sets; LID attribution on the
    code-switched set with the prepared head selection."""
    sets = {name: inputs.splits[name] for name in SIZES["eval-decode"]}
    total = sum(len(utts) for utts in sets.values())
    ref_tokens: dict[str, int] = {}
    for utts in sets.values():
        for utt in utts:
            ref_tokens[utt.kind] = ref_tokens.get(utt.kind, 0) + len(utt.words)

    def run(model: Seq2SeqModel) -> UnitResult:
        report = training.evaluate_model(model, sets, selection=inputs.heads)
        mer = report.mer
        result = UnitResult(utterances=total, model=model, quality={
            "cs_ter": mer.per_kind.get(synthtask.KIND_CS),
            "mono_a_ter": mer.per_kind.get(synthtask.KIND_MONO_A),
            "mono_b_ter": mer.per_kind.get(synthtask.KIND_MONO_B),
            "overall_mer": mer.overall,
            "lid_attribution": report.lid_attribution,
            "token_acc": 1.0 - mer.overall / 100.0})
        # mixed_error_rate raises unless every utterance has a hypothesis;
        # the token totals show every reference was scored.
        if mer.tokens != ref_tokens:
            result.failures.append(f"scored tokens {mer.tokens} != references {ref_tokens}")
        kinds = {kind for kind, metric, _ in report.rows() if metric == "token_error_rate"}
        if kinds != set(synthtask.KINDS):
            result.failures.append(f"report rows cover kinds {sorted(kinds)}")
        for name in ("overall_mer", "lid_attribution"):
            _finite(result.failures, name, result.quality[name])
        return result

    return Unit(lambda: inputs.model, run)


UNITS = {"pretrain": pretrain_unit, "adapt-ag": adapt_unit, "eval-decode": eval_unit}
