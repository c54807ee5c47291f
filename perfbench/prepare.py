"""Build the benchmark's prepared backbone and head selection.

    python3 perfbench/prepare.py [--out DIR]

Runs the program's own pipeline: the default corpus (seed 0) with a larger
pretrain split, written and read back as the CLI does; `pretrain_backbone`
with `TrainConfig(seed=0, pretrain_epochs=20)`; and `select_heads` on the
adapt split at fraction 0.6. Writes the parameters as `backbone.npz` (arrays
keyed by parameter name) and the `ModelConfig` fields, vocabulary sizes,
recipe, gate accuracy and head selection as `backbone.json`. The benchmark
reads only these two files, so later changes to the checkpoint format
cannot break it. The backbone is never rebuilt inside a benchmark run.

The pretrain split is 4000 utterances, not the default 2000: at 2000 the
backbone scores 0.85-0.90 monolingual accuracy on fresh utterances, below the
0.90 gate the `pretrain` workload must pass, and 40 epochs at 2000 fall to
0.82 even on the recipe's own valid split.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from agadapt import synthtask, training  # noqa: E402
from agadapt.model import ModelConfig, Seq2SeqModel, Vocabulary  # noqa: E402

HEAD_FRACTION = 0.6
PRETRAIN_SIZE = 4000
PRETRAIN_EPOCHS = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "data"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = synthtask.SynthSpec()
    vocab = Vocabulary.build(spec.words_per_language, spec.words_per_language)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        sizes = dict(synthtask.SPLIT_SIZES, pretrain=PRETRAIN_SIZE)
        synthtask.write_corpus(tmp, spec, vocab, synthtask.generate_corpus(spec, vocab, sizes))
        _, vocab, pretrain_utts = synthtask.read_split(tmp, "pretrain")
        _, _, valid_utts = synthtask.read_split(tmp, "valid")
        _, _, adapt_utts = synthtask.read_split(tmp, "adapt")

    cfg = training.TrainConfig(seed=0, pretrain_epochs=PRETRAIN_EPOCHS)
    model_cfg = ModelConfig()
    model = Seq2SeqModel(model_cfg, vocab, seed=cfg.seed)
    start = time.perf_counter()
    report = training.pretrain_backbone(model, pretrain_utts, valid_utts, cfg)
    seconds = time.perf_counter() - start
    selection = training.select_heads(model, adapt_utts, fraction=HEAD_FRACTION)
    selection.require_nonempty()

    np.savez(out / "backbone.npz", **model.state_dict())
    meta = {
        "model_config": dataclasses.asdict(model_cfg),
        "vocab": {"n_words_a": vocab.n_words_a, "n_words_b": vocab.n_words_b},
        "recipe": {
            "corpus": "generate_corpus(SynthSpec()), seed 0",
            "split_sizes": sizes,
            "train_config": dataclasses.asdict(cfg),
            "head_fraction": HEAD_FRACTION,
        },
        "mono_acc": report.mono_accuracy,
        "cs_acc": report.cs_accuracy,
        "pretrain_seconds": round(seconds, 1),
        "heads": {
            "selected": [list(h) for h in selection.selected],
            "counts": [[layer, head, count]
                       for (layer, head), count in sorted(selection.counts.items())],
            "dataset_size": selection.dataset_size,
        },
    }
    (out / "backbone.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({k: meta[k] for k in ("mono_acc", "cs_acc", "pretrain_seconds", "heads")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
