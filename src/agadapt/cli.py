"""Command-line interface.

Subcommands: gen-data, pretrain, select-heads, adapt, eval,
inspect-attention. Each reads its files, makes one library call, writes its
files and prints; every rule of the pipeline lives in the library, except the
check that a run config's model keys match the backbone's, as only the CLI
reads config files. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure; `config` states which reader of a config value raises
which.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, checkpoint, config, guidance, synthtask, training
from .atomicio import atomic_write
from .errors import ConfigError, DataError, NumericError
from .model import FIRST_GUIDABLE_LAYER, ModelConfig, Seq2SeqModel, Vocabulary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# gen-data spec keys that set a split's size, e.g. n_test_cs = 200
SIZE_KEYS = {"n_" + split.replace("-", "_"): split for split in synthtask.SPLIT_SIZES}


def cmd_gen_data(args) -> int:
    values = config.parse_config_file(args.spec)
    spec = config.from_text(synthtask.SynthSpec, values, SIZE_KEYS, {"seed": args.seed})
    sizes = dict(synthtask.SPLIT_SIZES)
    for key, size in config.from_text(dict.fromkeys(SIZE_KEYS, int), values,
                                      config.field_kinds(synthtask.SynthSpec)).items():
        if size < 1:
            raise ConfigError(f"{key} must be at least 1, got {size}")
        sizes[SIZE_KEYS[key]] = size
    vocab = Vocabulary.build(spec.words_per_language, spec.words_per_language)
    corpus = synthtask.generate_corpus(spec, vocab, sizes)
    synthtask.write_corpus(args.out, spec, vocab, corpus)
    for split, utts in corpus.items():
        print(f"{split}: {len(utts)} utterances")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    values = config.parse_config_file(args.config)
    cfg = training.build_train_config(values, {"seed": args.seed})
    model_cfg = training.build_model_config(values)
    _, vocab, pretrain_utts = synthtask.read_split(args.data, "pretrain")
    _, _, valid_utts = synthtask.read_split(args.data, "valid")
    model = Seq2SeqModel(model_cfg, vocab, seed=cfg.seed)
    report = training.pretrain_backbone(model, pretrain_utts, valid_utts, cfg)
    checkpoint.save_model(args.out, model)
    print(f"monolingual accuracy: {report.mono_accuracy:.4f}")
    print(f"code-switched accuracy: {report.cs_accuracy:.4f}")
    print(f"saved backbone to {args.out}")
    return EXIT_OK


def cmd_select_heads(args) -> int:
    model = checkpoint.load_model(args.backbone)
    _, _, utts = synthtask.read_split(args.data, "adapt", model.vocab)
    selection = training.select_heads(model, utts, args.fraction, args.strategy,
                                      seed=args.seed or 0)
    guidance.save_head_selection(args.out, selection)
    print(f"dataset size: {selection.dataset_size}")
    print(f"qualifying heads: {len(selection.qualifying)}")
    for layer, head in sorted(selection.counts):
        mark = " selected" if (layer, head) in selection.selected else ""
        print(f"head ({layer}, {head}): count {selection.counts[(layer, head)]}{mark}")
    print(f"selected heads: {selection.selected}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    values = config.parse_config_file(args.config)
    cfg = training.build_train_config(values, {"mode": args.mode, "seed": args.seed})
    model = checkpoint.load_model(args.backbone)
    wanted = config.from_text(config.field_kinds(ModelConfig), values,
                              config.field_kinds(training.TrainConfig))
    for name, want in wanted.items():
        have = getattr(model.config, name)
        if want != have:
            raise ConfigError(f"config sets {name} = {want!r}, but the backbone "
                              f"has {name} = {have!r}")
    _, _, train_utts = synthtask.read_split(args.data, "adapt", model.vocab)
    _, _, valid_utts = synthtask.read_split(args.data, "valid", model.vocab)
    selection = None if args.heads is None else guidance.load_head_selection(args.heads)
    records = training.adapt_backbone(model, train_utts, valid_utts, cfg, selection)
    checkpoint.save_model(args.out, model)
    print(f"adapter parameters: {model.adapter_summary()}")
    for record in records:
        last = record.epochs[-1]
        print(f"{record.stage}: train_ce={last.train_ce:.4f} "
              f"train_ag={last.train_ag:.6f} val_ce={last.val_ce:.4f}")
    print(f"saved adapted model to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = checkpoint.load_model(args.model)
    sets = {split: synthtask.read_split(args.data, split, model.vocab)[2]
            for split in ("test-mono-a", "test-mono-b", "test-cs")}
    selection = None if args.heads is None else guidance.load_head_selection(args.heads)
    report = training.evaluate_model(model, sets, selection=selection).csv()
    with atomic_write(args.report) as fh:
        fh.write(report)
    print(report.partition("\n")[2], end="")  # the rows, without the header
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    model = checkpoint.load_model(args.model)
    for split in ("test-cs", "test-mono-a", "test-mono-b", "valid", "adapt", "pretrain"):
        _, _, utts = synthtask.read_split(args.data, split, model.vocab)
        found = next((utt for utt in utts if utt.uid == args.utterance), None)
        if found is not None:
            break
    else:
        raise DataError(f"utterance {args.utterance!r} not found under {args.data}")
    if not (0 <= args.layer < model.config.dec_layers):
        raise ConfigError(f"layer {args.layer} out of range")
    if not (0 <= args.head < model.config.heads):
        raise ConfigError(f"head {args.head} out of range")
    out = model.forward(found.frames[None], np.asarray(found.reference.ids)[None])
    tokens = [model.vocab.string(t) for t in found.reference.ids]
    analysis.export_heatmap(out.attention[args.layer].data[0, args.head], args.out,
                            args.format, tokens)
    print(f"wrote {args.format} heatmap to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agadapt",
        description="Attention-guided adapter adaptation on a synthetic bilingual task")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus")
    p.add_argument("--spec", default=None, help="generator config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train and freeze the backbone")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("select-heads", help="rank and select language-ID heads")
    p.add_argument("--backbone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=float, default=0.6)
    p.add_argument("--strategy", choices=guidance.STRATEGIES, default="top",
                   help="top: the top fraction of the qualifying candidate heads; "
                        "all: every candidate head; random: a seeded draw of as "
                        "many candidate heads as top keeps. Candidates are the heads of "
                        f"decoder layers {FIRST_GUIDABLE_LAYER} and up")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select_heads)

    p = sub.add_parser("adapt", help="train adapters over the frozen backbone")
    p.add_argument("--mode", choices=training.MODES, help="default: the run config's mode")
    p.add_argument("--backbone", required=True)
    p.add_argument("--heads", default=None, help="a select-heads file, format 2")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("eval", help="error rates and LID attribution on the test sets")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--heads", default=None, help="a select-heads file, format 2")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect-attention", help="export one head's map")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--utterance", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--format", choices=("csv", "pgm"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_inspect_attention)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
