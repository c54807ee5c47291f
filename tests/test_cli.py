"""CLI subcommands and exit codes on a micro corpus."""

import json

import numpy as np
import pytest

from agadapt.cli import main
from agadapt.guidance import load_head_selection
from agadapt.synthtask import read_split, write_corpus

# the header line of a head-selection file counting 32 utterances
HEADER = '{"dataset_size": 32, "format": 2}\n'


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def micro_files(workdir):
    spec = workdir / "gen.cfg"
    spec.write_text(
        "words_per_language = 6\nfeat_dim = 6\nwords_min = 2\nwords_max = 4\n"
        "n_pretrain = 48\nn_adapt = 32\nn_valid = 16\nn_test_mono_a = 6\n"
        "n_test_mono_b = 6\nn_test_cs = 6\n")
    train = workdir / "train.cfg"
    train.write_text(
        "enc_layers = 1\ndec_layers = 2\nheads = 2\nwidth = 12\n"
        "ffn_width = 24\nbottleneck = 3\nfeat_dim = 6\n"
        "epochs = 1\npretrain_epochs = 1\nbatch_size = 16\navg_count = 1\n"
        "anchored_heads = 0\n")
    return {"spec": spec, "train": train, "data": workdir / "data",
            "backbone": workdir / "backbone.ckpt", "heads": workdir / "heads.tsv",
            "adapted": workdir / "adapted.ckpt", "report": workdir / "report.csv"}


@pytest.fixture(scope="module")
def data(micro_files):
    rc = main(["gen-data", "--spec", str(micro_files["spec"]),
               "--out", str(micro_files["data"]), "--seed", "3"])
    assert rc == 0
    return micro_files["data"]


@pytest.fixture(scope="module")
def backbone(micro_files, data):
    # produce a usable (if weak) frozen backbone by skipping the gate: train
    # one epoch, then save via the library path
    from agadapt import checkpoint, config, synthtask, training
    from agadapt.errors import NumericError
    from agadapt.model import Seq2SeqModel

    values = config.parse_config_file(micro_files["train"])
    cfg = training.build_train_config(values, {"seed": 0})
    model_cfg = training.build_model_config(values)
    _, vocab, pretrain = synthtask.read_split(data, "pretrain")
    _, _, valid = synthtask.read_split(data, "valid")
    model = Seq2SeqModel(model_cfg, vocab, seed=0)
    try:
        training.pretrain_backbone(model, pretrain, valid, cfg)
    except NumericError:  # the accuracy gate
        model.freeze_backbone()
    checkpoint.save_model(micro_files["backbone"], model)
    return micro_files["backbone"]


@pytest.fixture(scope="module")
def heads(micro_files, data, backbone):
    # the shared heads file for downstream tests selects every candidate
    # head, the two of decoder layer 1
    rc = main(["select-heads", "--backbone", str(backbone), "--data", str(data),
               "--strategy", "all", "--out", str(micro_files["heads"])])
    assert rc == 0
    return micro_files["heads"]


@pytest.fixture(scope="module")
def adapted(micro_files, data, backbone):
    rc = main(["adapt", "--mode", "one-stage", "--backbone", str(backbone),
               "--data", str(data), "--config", str(micro_files["train"]),
               "--out", str(micro_files["adapted"])])
    assert rc == 0
    return micro_files["adapted"]


def test_gen_data(data):
    spec, vocab, utts = read_split(data, "pretrain")
    assert spec.seed == 3
    assert len(utts) == 48


def test_gen_data_bad_spec(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("noise = very\n")
    rc = main(["gen-data", "--spec", str(bad), "--out", str(workdir / "x")])
    assert rc == 2


# A size below 1 is refused too: every split has a consumer that refuses an
# empty one.
@pytest.mark.parametrize("line", ["nosie = 0.1", "n_tests = 4", "n_adapt = many",
                                  "noise = nan", "switch_prob = inf", "n_pretrain = -3",
                                  "n_test_cs = 0", "words_per_language = 6.0",
                                  "noise = 0.1\nnoise = 0.2", "frames_min = 3\nframes_max = 2",
                                  "words_min = 5\nwords_max = 3"],
                         ids=["typo", "unknown-split", "bad-size", "nan-noise",
                              "inf-switch-prob", "negative-size", "zero-size",
                              "float-words", "repeated-key", "unordered-frames",
                              "unordered-words"])
def test_gen_data_unknown_or_bad_key(workdir, capsys, line):
    bad = workdir / "typo.cfg"
    bad.write_text(line + "\n")
    rc = main(["gen-data", "--spec", str(bad), "--out", str(workdir / "typo")])
    assert rc == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (workdir / "typo").exists()


@pytest.mark.parametrize("command", ["pretrain", "adapt"])
def test_run_config_typo(micro_files, data, backbone, workdir, capsys, command):
    cfg = workdir / "typo-run.cfg"
    cfg.write_text(micro_files["train"].read_text() + "gamam = 0.5\n")
    out = workdir / f"typo-{command}.ckpt"
    if command == "pretrain":
        args = ["pretrain", "--data", str(data)]
    else:
        args = ["adapt", "--mode", "one-stage", "--backbone", str(backbone),
                "--data", str(data)]
    rc = main(args + ["--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "gamam" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_invalid_model_value(micro_files, data, workdir, capsys):
    # width 12 is not divisible by 5 heads: a config mistake, exit 2
    cfg = workdir / "heads5.cfg"
    cfg.write_text(micro_files["train"].read_text().replace("heads = 2", "heads = 5"))
    out = workdir / "heads5.ckpt"
    rc = main(["pretrain", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "divisible" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_missing_data(workdir, micro_files):
    rc = main(["pretrain", "--data", str(workdir / "absent"),
               "--out", str(workdir / "b.ckpt"),
               "--config", str(micro_files["train"])])
    assert rc == 3


def corrupt_copy(data, target, split, edit):
    """A copy of the corpus `data` at `target` whose `split` manifest lines
    pass through `edit`."""
    target.mkdir()
    for path in data.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    manifest = target / f"{split}.manifest"
    lines = edit(manifest.read_text().splitlines())
    manifest.write_text("".join(line + "\n" for line in lines))
    return target


def keep_copy(data, target, split, keep):
    """A copy of the corpus `data` at `target` whose `split` holds only the
    utterances that `keep` is true of, written through `write_corpus`."""
    corrupt_copy(data, target, split, lambda lines: lines)
    spec, vocab, utts = read_split(target, split)
    write_corpus(target, spec, vocab, {split: [utt for utt in utts if keep(utt)]})
    return target


def edit_field(index, change):
    """A manifest edit that passes field `index` of the first utterance's line
    (uid, kind, ids, frame count) through `change`."""
    def edit(lines):
        fields = lines[1].split("\t")
        fields[index] = change(fields[index])
        return [lines[0], "\t".join(fields)] + lines[2:]
    return edit


def edit_ids(change):
    """A manifest edit that passes the first utterance's ids through `change`."""
    return edit_field(2, lambda ids: " ".join(map(str, change([int(x) for x in ids.split()]))))


def set_count(count, lines):
    """`lines` under their manifest header with its count set to `count`."""
    return [json.dumps({**json.loads(lines[0]), "count": count})] + lines[1:]


def test_pretrain_malformed_manifest(micro_files, data, workdir, capsys):
    # drop the frame count
    bad = corrupt_copy(data, workdir / "bad-data", "pretrain",
                       lambda lines: [lines[0], lines[1].rsplit("\t", 1)[0]] + lines[2:])
    rc = main(["pretrain", "--data", str(bad), "--out", str(workdir / "b.ckpt"),
               "--config", str(micro_files["train"])])
    assert rc == 3
    assert "malformed manifest line" in capsys.readouterr().err


@pytest.mark.parametrize("split, keep, message", [
    ("pretrain", lambda utt: False, "training set is empty"),
    ("valid", lambda utt: utt.kind == "cs", "validation set has no monolingual utterances"),
], ids=["no-pretrain-utterance", "no-monolingual-valid-utterance"])
def test_pretrain_without_the_utterances_it_needs(micro_files, data, tmp_path, capsys, split,
                                                  keep, message):
    bad = keep_copy(data, tmp_path / "data", split, keep)
    out = tmp_path / "b.ckpt"
    rc = main(["pretrain", "--data", str(bad), "--out", str(out),
               "--config", str(micro_files["train"])])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# The micro corpus has 6 words per language: ids 7-12 are language A's and
# 13-18 language B's. Test utterances carry the 5-id bilingual prompt.
@pytest.mark.parametrize("split, edit, message", [
    ("test-cs", edit_ids(lambda ids: ids[:5] + [999] + ids[6:]), "token 999 is not a word"),
    ("test-cs", edit_ids(lambda ids: ids[:5] + [-3] + ids[6:]), "token -3 is not a word"),
    ("test-mono-a", edit_ids(lambda ids: ids[:5] + [13] + ids[6:]),
     "mono-a utterance carries tags"),
    ("test-cs", edit_ids(lambda ids: ids[5:]), "does not open with a prompt"),
    ("test-cs", edit_ids(lambda ids: ids[:-1]), "does not end with <eot>"),
    ("test-mono-b", lambda lines: [json.dumps({**json.loads(lines[0]), "format": 1})] + lines[1:],
     "manifest format 1, not 3"),
    ("test-mono-b", lambda lines: [json.dumps({**json.loads(lines[0]), "format": 2})] + lines[1:],
     "manifest format 2, not 3; generate the corpus again with gen-data"),
    # prompts: 0 1 3 4 is language A's (<zh>), 0 2 3 4 language B's (<en>)
    ("test-cs", edit_ids(lambda ids: [0, 1, 3, 4] + ids[5:]),
     "cs utterance opens with the prompt of another language"),
    ("test-mono-a", edit_ids(lambda ids: [0, 2, 3, 4] + ids[5:]),
     "mono-a utterance opens with the prompt of another language"),
    ("test-cs", lambda lines: [lines[0].replace('"words_per_language": 6',
                                                '"words_per_language": 6.0')] + lines[1:],
     "words_per_language must be a JSON int, got 6.0"),
    ("test-mono-b", lambda lines: [lines[0].replace('"test-mono-b"', '"test-mono-a"')]
     + lines[1:], "names split 'test-mono-a', not 'test-mono-b'"),
    ("test-cs", lambda lines: [], "empty manifest"),
    # one frame more than the first utterance holds: the file then ends
    # inside the last line's frames
    ("test-cs", edit_field(3, lambda t: str(int(t) + 1)),
     "test-cs.frames ends inside u000113's frames"),
    ("test-cs", edit_field(3, lambda t: "0"), "test-cs.manifest:2: u000108 holds 0 frames, "
                                              "not at least 1"),
    ("test-cs", edit_field(3, lambda t: "x"), "test-cs.manifest:2: malformed manifest line"),
    ("test-cs", lambda lines: set_count(len(lines), lines), "manifest count mismatch"),
    ("test-cs", lambda lines: [lines[0][:-1] + ', "count": 6}'] + lines[1:],
     "malformed manifest header in {data}/test-cs.manifest: key 'count' repeats"),
    ("test-cs", lambda lines: [lines[0].replace('"seed": ', '"seed": 0, "seed": ')] + lines[1:],
     "malformed manifest header in {data}/test-cs.manifest: key 'seed' repeats"),
], ids=["id-past-vocabulary", "negative-id", "mono-a-holding-b-word", "no-prompt",
        "no-eot", "format-1", "format-2", "cs-with-a-prompt", "mono-a-with-b-prompt",
        "float-words-per-language", "other-split", "empty", "frame-length",
        "zero-frame-count", "non-integer-frame-count", "count-past-lines", "repeated-count",
        "repeated-spec-seed"])
def test_eval_malformed_manifest(data, adapted, tmp_path, capsys, split, edit, message):
    bad = corrupt_copy(data, tmp_path / "data", split, edit)
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(adapted), "--data", str(bad), "--report", str(report)])
    assert rc == 3
    assert message.format(data=bad) in capsys.readouterr().err
    assert not report.exists()


def first_frames(frames):
    """A corpus edit that gives test-cs's first utterance (u000108) `frames`,
    written through `write_corpus`."""
    def edit(path):
        spec, vocab, utts = read_split(path, "test-cs")
        utts[0].frames = frames
        write_corpus(path, spec, vocab, {"test-cs": utts})
    return edit


def frame_bytes(change):
    """A corpus edit that passes test-cs's frames file through `change`."""
    def edit(path):
        frames = path / "test-cs.frames"
        frames.write_bytes(change(frames.read_bytes()))
    return edit


# Frames the manifest's spec cannot feed to the model (6 features), and a
# frames file holding more or fewer bytes than the manifest counts; test-cs's
# last utterance, u000113, is on manifest line 7.
@pytest.mark.parametrize("edit, message", [
    (first_frames(np.zeros((4, 3))),
     "test-cs.manifest:7: {data}/test-cs.frames ends inside u000113's frames"),
    (first_frames(np.zeros((0, 6))), "test-cs.manifest:2: u000108 holds 0 frames"),
    (first_frames(np.where(np.eye(4, 6), np.nan, 0.0)),
     "test-cs.manifest:2: frame record for u000108 holds a non-finite value"),
    (frame_bytes(lambda blob: blob + bytes(1000)),
     "{data}/test-cs.frames holds 1000 bytes no manifest line counts"),
    (frame_bytes(lambda blob: blob[:-4]),
     "test-cs.manifest:7: {data}/test-cs.frames ends inside u000113's frames"),
], ids=["narrow-frames", "no-frames", "nan-frame", "trailing-bytes", "truncated"])
def test_eval_malformed_frame_record(data, adapted, tmp_path, capsys, edit, message):
    bad = corrupt_copy(data, tmp_path / "data", "test-cs", lambda lines: lines)
    edit(bad)
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(adapted), "--data", str(bad), "--report", str(report)])
    assert rc == 3
    assert message.format(data=bad) in capsys.readouterr().err
    assert not report.exists()


def test_pretrain_accuracy_gate_failure(micro_files, data, workdir, capsys):
    # one epoch on a micro model cannot hit the accuracy gate: exit code 4
    out = workdir / "gate.ckpt"
    rc = main(["pretrain", "--data", str(data), "--out", str(out),
               "--config", str(micro_files["train"]), "--seed", "0"])
    assert rc == 4
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_select_heads_empty_selection_fails(data, backbone, workdir, capsys):
    # no head of the weak, unanchored micro backbone passes the majority bar,
    # so the fraction route selects nothing: a loud config error, no file
    out = workdir / "frac.tsv"
    rc = main(["select-heads", "--backbone", str(backbone), "--data", str(data),
               "--fraction", "1.0", "--out", str(out)])
    assert rc == 2
    assert "no heads selected" in capsys.readouterr().err
    assert not out.exists()


def test_select_heads_on_adapted_model_fails(data, adapted, workdir, capsys):
    out = workdir / "adapted-heads.tsv"
    rc = main(["select-heads", "--backbone", str(adapted), "--data", str(data),
               "--out", str(out)])
    assert rc == 3
    assert "this model has adapters" in capsys.readouterr().err
    assert not out.exists()


def test_select_heads(heads):
    sel = load_head_selection(heads)
    assert sel.dataset_size == 32
    assert len(sel.selected) == 2


@pytest.fixture(scope="module")
def gated(workdir):
    """A micro corpus whose backbone passes the pretraining gate, pretrained
    through the library: the corpus, the run config, the report and the
    saved backbone."""
    from agadapt import checkpoint, config, synthtask, training
    from agadapt.model import Seq2SeqModel

    spec = workdir / "gated-gen.cfg"
    spec.write_text(
        "words_per_language = 3\nwords_min = 1\nwords_max = 3\nnoise = 0.1\n"
        "n_pretrain = 192\nn_adapt = 32\nn_valid = 20\nn_test_mono_a = 6\n"
        "n_test_mono_b = 6\nn_test_cs = 6\n")
    train = workdir / "gated-train.cfg"
    train.write_text("enc_layers = 1\ndec_layers = 2\nwidth = 24\nffn_width = 48\n"
                     "pretrain_epochs = 25\nbatch_size = 16\nlr = 0.005\n")
    data = workdir / "gated-data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data), "--seed", "1"]) == 0
    values = config.parse_config_file(train)
    cfg = training.build_train_config(values)
    _, vocab, pretrain = synthtask.read_split(data, "pretrain")
    _, _, valid = synthtask.read_split(data, "valid")
    model = Seq2SeqModel(training.build_model_config(values), vocab, seed=cfg.seed)
    report = training.pretrain_backbone(model, pretrain, valid, cfg)
    backbone = workdir / "gated.ckpt"
    checkpoint.save_model(backbone, model)
    return {"data": data, "train": train, "report": report, "backbone": backbone}


def test_pretrain_passing_the_gate_saves_the_backbone(gated, workdir, capsys):
    capsys.readouterr()
    out = workdir / "gated-cli.ckpt"
    rc = main(["pretrain", "--data", str(gated["data"]), "--config", str(gated["train"]),
               "--out", str(out)])
    assert rc == 0
    report = gated["report"]
    assert capsys.readouterr().out.splitlines() == [
        f"monolingual accuracy: {report.mono_accuracy:.4f}",
        f"code-switched accuracy: {report.cs_accuracy:.4f}",
        f"saved backbone to {out}"]
    assert out.read_bytes() == gated["backbone"].read_bytes()


def test_select_heads_random_strategy(gated, workdir, capsys):
    # 3 of the 4 candidate heads qualify; at fraction 0.7 top keeps
    # round(0.7 * 3) = 2 of them, and random draws as many
    capsys.readouterr()
    out = workdir / "rand.tsv"
    rc = main(["select-heads", "--backbone", str(gated["backbone"]),
               "--data", str(gated["data"]), "--fraction", "0.7", "--strategy", "random",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    sel = load_head_selection(out)
    assert len(sel.selected) == 2
    assert all(layer == 1 for layer, _ in sel.selected)
    # every head's count is printed, and the drawn heads are marked
    printed = capsys.readouterr().out.splitlines()
    assert "qualifying heads: 3" in printed
    lines = [ln for ln in printed if ln.startswith("head (")]
    assert [ln.split(":")[0] for ln in lines] == [
        f"head ({layer}, {head})" for layer in range(2) for head in range(4)]
    marked = [ln for ln in lines if ln.endswith(" selected")]
    assert marked == [f"head ({layer}, {head}): count {sel.counts[(layer, head)]} selected"
                      for layer, head in sel.selected]


def test_select_heads_random_strategy_without_qualifying_heads_fails(data, backbone,
                                                                    workdir, capsys):
    # no head of the weak micro backbone qualifies, so random draws none
    out = workdir / "rand-none.tsv"
    rc = main(["select-heads", "--backbone", str(backbone), "--data", str(data),
               "--fraction", "1.0", "--strategy", "random", "--out", str(out)])
    assert rc == 2
    assert "no heads selected (random strategy" in capsys.readouterr().err
    assert not out.exists()


# numpy's generators refuse a negative seed; every subcommand that takes one
# refuses it first, as a config error
@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "{tmp}/data"],
    ["pretrain", "--data", "{data}", "--config", "{train}", "--out", "{tmp}/b.ckpt"],
    ["select-heads", "--backbone", "{backbone}", "--data", "{data}", "--strategy", "random",
     "--out", "{tmp}/heads.tsv"],
    ["adapt", "--mode", "one-stage", "--backbone", "{backbone}", "--data", "{data}",
     "--config", "{train}", "--out", "{tmp}/a.ckpt"],
], ids=["gen-data", "pretrain", "select-heads", "adapt"])
def test_negative_seed_fails_without_traceback(micro_files, data, backbone, tmp_path, capsys,
                                               argv):
    paths = {"tmp": tmp_path, "data": data, "backbone": backbone, "train": micro_files["train"]}
    rc = main([arg.format(**paths) for arg in argv] + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "seed must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_adapt_one_stage(adapted):
    assert adapted.exists()


def test_adapt_empty_valid_split_fails(micro_files, data, backbone, tmp_path, capsys):
    bad = keep_copy(data, tmp_path / "data", "valid", lambda utt: False)
    out = tmp_path / "x.ckpt"
    rc = main(["adapt", "--mode", "one-stage", "--backbone", str(backbone),
               "--data", str(bad), "--config", str(micro_files["train"]),
               "--out", str(out)])
    assert rc == 3
    assert "validation set is empty" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_guided_without_heads_fails(micro_files, data, backbone, workdir):
    rc = main(["adapt", "--mode", "one-stage-ag", "--backbone", str(backbone),
               "--data", str(data), "--config", str(micro_files["train"]),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 2


def test_adapt_model_key_must_match_backbone(micro_files, data, backbone, workdir,
                                             capsys):
    cfg = workdir / "bottleneck.cfg"
    cfg.write_text(micro_files["train"].read_text().replace("bottleneck = 3",
                                                            "bottleneck = 16"))
    out = workdir / "bottleneck.ckpt"
    rc = main(["adapt", "--mode", "one-stage", "--backbone", str(backbone),
               "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "bottleneck = 16, but the backbone has bottleneck = 3" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_bad_soft_label_fails_before_training(micro_files, data, backbone, heads,
                                                    workdir, capsys, monkeypatch):
    from agadapt import training

    def no_training(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(training, "_run_training", no_training)
    cfg = workdir / "c.cfg"
    cfg.write_text(micro_files["train"].read_text() + "c = 0.3\n")
    out = workdir / "c.ckpt"
    rc = main(["adapt", "--mode", "two-stage-ag", "--backbone", str(backbone),
               "--data", str(data), "--heads", str(heads), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 2
    assert "soft label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["one-stage-ag", "two-stage-ag"])
def test_adapt_unguidable_head_fails_before_training(micro_files, data, backbone, workdir,
                                                     capsys, monkeypatch, mode):
    from agadapt import training

    def no_training(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(training, "_run_training", no_training)
    layer0 = workdir / "layer0.tsv"
    layer0.write_text(HEADER + "0\t1\t20\n")
    out = workdir / "layer0.ckpt"
    rc = main(["adapt", "--mode", mode, "--backbone", str(backbone),
               "--data", str(data), "--heads", str(layer0),
               "--config", str(micro_files["train"]), "--out", str(out)])
    assert rc == 2
    assert "[(0, 1)] cannot be guided" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("head", [(5, 0), (1, 7)])
@pytest.mark.parametrize("mode", ["one-stage-ag", "two-stage-ag"])
def test_adapt_missing_head_fails_before_training(micro_files, data, backbone, workdir,
                                                  capsys, monkeypatch, mode, head):
    from agadapt import training

    def no_training(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(training, "_run_training", no_training)
    missing = workdir / "missing.tsv"
    missing.write_text(f"{HEADER}{head[0]}\t{head[1]}\t20\n")
    out = workdir / "missing.ckpt"
    rc = main(["adapt", "--mode", mode, "--backbone", str(backbone),
               "--data", str(data), "--heads", str(missing),
               "--config", str(micro_files["train"]), "--out", str(out)])
    assert rc == 3
    assert (f"selected head {head} missing from the model, which has 2 decoder "
            f"layers of 2 heads") in capsys.readouterr().err
    assert not out.exists()


def test_adapt_two_stage_guided(micro_files, data, backbone, heads, workdir, capsys):
    out = workdir / "two.ckpt"
    rc = main(["adapt", "--mode", "two-stage-ag", "--backbone", str(backbone),
               "--data", str(data), "--heads", str(heads),
               "--config", str(micro_files["train"]), "--out", str(out)])
    assert rc == 0
    # the paper's headline figure: adapter parameters over the backbone's
    out = capsys.readouterr().out.splitlines()
    assert "adapter parameters: 522 (7.0% of the backbone)" in out


@pytest.mark.parametrize("flag, stages", [
    ([], ["stage2"]),
    (["--mode", "two-stage-ag"], ["stage1", "stage2"]),
], ids=["config-mode", "flag-wins"])
def test_adapt_mode_from_the_run_config(micro_files, data, backbone, heads, workdir, capsys,
                                        flag, stages):
    cfg = workdir / "one-stage.cfg"
    cfg.write_text(micro_files["train"].read_text() + "mode = one-stage\n")
    out = workdir / "mode.ckpt"
    rc = main(["adapt", *flag, "--backbone", str(backbone), "--data", str(data),
               "--heads", str(heads), "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed if line.startswith("stage")] == stages


def test_eval(micro_files, data, heads, adapted):
    rc = main(["eval", "--model", str(adapted), "--data", str(data),
               "--heads", str(heads), "--report", str(micro_files["report"])])
    assert rc == 0
    lines = micro_files["report"].read_text().splitlines()
    assert lines[0] == "set,metric,value"
    assert any("overall_mer" in ln for ln in lines)
    assert any("lid_attribution" in ln for ln in lines)


def test_pipeline_in_process_matches_the_cli(micro_files, data, backbone, tmp_path):
    # select-heads, adapt and eval once through the CLI and once as the
    # library calls, with no file between the calls: the same bytes
    from agadapt import checkpoint, config, guidance, synthtask, training

    cli = {name: tmp_path / f"cli-{name}" for name in ("heads", "adapted", "report")}
    lib = {name: tmp_path / f"lib-{name}" for name in ("heads", "adapted", "report")}
    assert main(["select-heads", "--backbone", str(backbone), "--data", str(data),
                 "--strategy", "all", "--out", str(cli["heads"])]) == 0
    assert main(["adapt", "--mode", "two-stage-ag", "--backbone", str(backbone),
                 "--data", str(data), "--heads", str(cli["heads"]),
                 "--config", str(micro_files["train"]), "--out", str(cli["adapted"])]) == 0
    assert main(["eval", "--model", str(cli["adapted"]), "--data", str(data),
                 "--heads", str(cli["heads"]), "--report", str(cli["report"])]) == 0

    model = checkpoint.load_model(backbone)

    def split(name):
        return synthtask.read_split(data, name, model.vocab)[2]

    selection = training.select_heads(model, split("adapt"), 0.6, "all")
    guidance.save_head_selection(lib["heads"], selection)
    cfg = training.build_train_config(config.parse_config_file(micro_files["train"]),
                                      {"mode": "two-stage-ag"})
    training.adapt_backbone(model, split("adapt"), split("valid"), cfg, selection)
    checkpoint.save_model(lib["adapted"], model)
    report = training.evaluate_model(
        model, {name: split(name) for name in ("test-mono-a", "test-mono-b", "test-cs")},
        selection)
    lib["report"].write_text(report.csv())
    for name in cli:
        assert cli[name].read_bytes() == lib[name].read_bytes(), name
    assert "lid_attribution" in lib["report"].read_text()


@pytest.mark.parametrize("command", ["adapt", "eval"])
def test_malformed_heads_file(micro_files, data, backbone, adapted, workdir, capsys,
                              command):
    bad = workdir / "bad-heads.tsv"
    bad.write_text(HEADER + "1\tx\t3\n")
    out = workdir / f"bad-heads-{command}.out"
    if command == "adapt":
        args = ["adapt", "--mode", "two-stage-ag", "--backbone", str(backbone),
                "--config", str(micro_files["train"]), "--out", str(out)]
    else:
        args = ["eval", "--model", str(adapted), "--report", str(out)]
    rc = main(args + ["--data", str(data), "--heads", str(bad)])
    assert rc == 3
    assert "malformed head-selection line" in capsys.readouterr().err
    assert not out.exists()


def test_inspect_attention(data, adapted, workdir, capsys):
    _, _, utts = read_split(data, "test-cs")
    uid = utts[0].uid
    out_pgm = workdir / "map.pgm"
    rc = main(["inspect-attention", "--model", str(adapted),
               "--data", str(data), "--utterance", uid,
               "--layer", "0", "--head", "1", "--format", "pgm",
               "--out", str(out_pgm)])
    assert rc == 0
    assert out_pgm.read_text().startswith("P2\n")
    rc = main(["inspect-attention", "--model", str(adapted),
               "--data", str(data), "--utterance", uid,
               "--layer", "9", "--head", "0", "--format", "csv",
               "--out", str(workdir / "map.csv")])
    assert rc == 2  # layer out of range
    rc = main(["inspect-attention", "--model", str(adapted),
               "--data", str(data), "--utterance", uid,
               "--layer", "0", "--head", "99", "--format", "csv",
               "--out", str(workdir / "map.csv")])
    assert rc == 2
    assert "head 99 out of range" in capsys.readouterr().err
    assert not (workdir / "map.csv").exists()


def test_inspect_attention_unknown_utterance(data, adapted, workdir):
    rc = main(["inspect-attention", "--model", str(adapted),
               "--data", str(data), "--utterance", "nope",
               "--layer", "0", "--head", "0", "--format", "pgm",
               "--out", str(workdir / "m.pgm")])
    assert rc == 3


def test_eval_truncated_checkpoint(data, workdir, capsys):
    from agadapt import checkpoint
    from agadapt.model import ModelConfig, Seq2SeqModel, Vocabulary

    model = Seq2SeqModel(ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                                     ffn_width=16, bottleneck=2, feat_dim=6),
                         Vocabulary.build(6, 6))
    path = workdir / "truncated.ckpt"
    checkpoint.save_model(path, model)
    blob = path.read_bytes()
    # inside the prefix, inside the header, inside the tensors
    for cut, message in ((6, "has 6 bytes"),
                         (checkpoint.PREFIX.size + 5, "its header ends at"),
                         (len(blob) // 2, "its tensor index needs")):
        path.write_bytes(blob[:cut])
        rc = main(["eval", "--model", str(path), "--data", str(data),
                   "--report", str(workdir / "truncated.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"truncated checkpoint: {path}" in err and message in err


def test_eval_checkpoint_with_tensors_the_model_lacks(data, adapted, workdir, capsys):
    # the header says "no adapters" while the file holds the adapter tensors
    from agadapt.checkpoint import MAGIC, PREFIX, VERSION

    blob = adapted.read_bytes()
    _, _, length = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + length])
    header["adapters"] = False
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path = workdir / "mislabelled.ckpt"
    path.write_bytes(PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded
                     + blob[PREFIX.size + length:])
    rc = main(["eval", "--model", str(path), "--data", str(data),
               "--report", str(workdir / "mislabelled.csv")])
    assert rc == 3
    assert "unknown keys ['dec.0.attn_adapter" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("dec.out_proj.bias", np.nan),
                                         ("enc.0.ffn.fc1.weight", np.inf)])
def test_eval_checkpoint_with_non_finite_parameter(data, adapted, tmp_path, capsys,
                                                   name, value):
    from agadapt import checkpoint

    model = checkpoint.load_model(adapted)
    model.params[name].data.reshape(-1)[0] = value
    path = tmp_path / "non-finite.ckpt"
    checkpoint.save_model(path, model)
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(path), "--data", str(data), "--report", str(report)])
    assert rc == 3
    assert f"{path}: state has a non-finite value in {name!r}" in capsys.readouterr().err
    assert not report.exists()


# select-heads never writes any of these: it raises before saving
@pytest.mark.parametrize("text, message", [
    (HEADER + "1\t0\t5\n1\t0\t5\n", "malformed head-selection line"),
    (HEADER + "1\t0\t5\n1\t1\t-4\n", "malformed head-selection line"),
    ('{"dataset_size": -5, "format": 2}\n1\t0\t3\n', "malformed head-selection header"),
    (HEADER + "1\t0\t5\n1\t1\t33\n", "'1\\t1\\t33' counts 33 of 32 utterances"),
    (HEADER, "selects no head"),
    ('{"format": 2}\n1\t0\t3\n', "lacks ['dataset_size']"),
    ('{"dataset_size": 32, "dataset_size": 8, "format": 2}\n1\t0\t3\n',
     "key 'dataset_size' repeats"),
    ('{"dataset_size": 32, "format": 2, "threshold": 16.0}\n1\t0\t3\n',
     "has unknown keys ['threshold']"),
    ('{"dataset_size": true, "format": 2}\n1\t0\t3\n',
     "dataset_size must be a JSON int, got True"),
    ('{"dataset_size": 32.0, "format": 2}\n1\t0\t3\n',
     "dataset_size must be a JSON int, got 32.0"),
    ("# dataset_size=32\tthreshold=16.0\n1\t0\t3\n", "; run select-heads again"),
    ('{"dataset_size": 32, "format": 1}\n1\t0\t3\n',
     "has head-selection file format 1, not 2; run select-heads again"),
    (HEADER + "1\t0\t5\n\n1\t1\t5\n", ":3: malformed head-selection line ''"),
], ids=["duplicate-head", "negative-count", "negative-dataset-size",
        "count-above-dataset-size", "no-head", "no-dataset-size", "repeated-key",
        "unknown-key", "bool-dataset-size", "float-dataset-size", "old-header", "format-1",
        "blank-line"])
def test_heads_file_with_a_repeated_head_or_negative_count(micro_files, data, backbone,
                                                           workdir, capsys, text, message):
    bad = workdir / "bad-count-heads.tsv"
    bad.write_text(text)
    out = workdir / "bad-count-heads.ckpt"
    rc = main(["adapt", "--mode", "two-stage-ag", "--backbone", str(backbone),
               "--config", str(micro_files["train"]), "--data", str(data),
               "--heads", str(bad), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


def no_decode(*args, **kwargs):
    raise AssertionError("a chunk was decoded")


@pytest.mark.parametrize("split, message", [
    ("test-cs", "test-cs.manifest:3: utterance id {uid!r} repeats"),
    ("test-mono-a", "utterance id {uid!r} occurs more than once"),
], ids=["test-cs", "test-mono-a"])
def test_eval_repeated_utterance_id(data, adapted, tmp_path, capsys, monkeypatch, split,
                                    message):
    # test-cs's first utterance id, given to its second line (read_split
    # refuses it) or to test-mono-a's first (the pooled test sets repeat it)
    from agadapt.model import Seq2SeqModel

    monkeypatch.setattr(Seq2SeqModel, "greedy_decode", no_decode)
    uid = read_split(data, "test-cs")[2][0].uid
    row = 2 if split == "test-cs" else 1

    def edit(lines):
        lines[row] = "\t".join([uid] + lines[row].split("\t")[1:])
        return lines

    bad = corrupt_copy(data, tmp_path / "data", split, edit)
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(adapted), "--data", str(bad), "--report", str(report)])
    assert rc == 3
    assert message.format(uid=uid) in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("head", [(5, 0), (2, 1), (1, 7)])
def test_eval_missing_head_fails_before_decoding(data, adapted, tmp_path, capsys,
                                                 monkeypatch, head):
    from agadapt.model import Seq2SeqModel

    monkeypatch.setattr(Seq2SeqModel, "greedy_decode", no_decode)
    missing = tmp_path / "missing.tsv"
    missing.write_text(f"{HEADER}1\t0\t20\n{head[0]}\t{head[1]}\t20\n")
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(adapted), "--data", str(data),
               "--heads", str(missing), "--report", str(report)])
    assert rc == 3
    assert (f"selected head {head} missing from the model, which has 2 decoder "
            f"layers of 2 heads") in capsys.readouterr().err
    assert not report.exists()


def test_non_utf8_config_file(micro_files, data, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(micro_files["train"].read_bytes() + b"# caf\xe9 \xff\n")
    out = tmp_path / "b.ckpt"
    rc = main(["pretrain", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"config file {cfg} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_config_that_is_a_directory(data, tmp_path, capsys):
    out = tmp_path / "b.ckpt"
    rc = main(["pretrain", "--data", str(data), "--config", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_spec_that_is_a_directory(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--spec", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_manifest(micro_files, data, tmp_path, capsys):
    bad = corrupt_copy(data, tmp_path / "data", "pretrain", lambda lines: lines)
    manifest = bad / "pretrain.manifest"
    manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
    out = tmp_path / "b.ckpt"
    rc = main(["pretrain", "--data", str(bad), "--config", str(micro_files["train"]),
               "--out", str(out)])
    assert rc == 3
    assert f"manifest {manifest} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_heads_file(data, adapted, tmp_path, capsys):
    bad = tmp_path / "heads.tsv"
    bad.write_bytes(HEADER.encode() + b"1\t0\t5\xff\n")
    report = tmp_path / "report.csv"
    rc = main(["eval", "--model", str(adapted), "--data", str(data),
               "--heads", str(bad), "--report", str(report)])
    assert rc == 3
    assert f"head-selection file {bad} is not UTF-8 text" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("line", ["lr = 0", "weight_decay = -0.01", "epochs = 0",
                                  "batch_size = 0", "avg_count = 0"])
def test_pretrain_invalid_train_value(micro_files, data, workdir, capsys, line):
    # the line replaces the run config's own line for its key, if it has one
    key = line.split(" = ")[0]
    kept = [ln for ln in micro_files["train"].read_text().splitlines()
            if ln.split(" = ")[0] != key]
    cfg = workdir / "bad-train.cfg"
    cfg.write_text("".join(ln + "\n" for ln in kept + [line]))
    out = workdir / "bad-train.ckpt"
    rc = main(["pretrain", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key} " in err and "must be" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "adapt"])
def test_run_config_non_finite_value(micro_files, data, backbone, workdir, capsys, command):
    cfg = workdir / "nan-run.cfg"
    cfg.write_text(micro_files["train"].read_text() + "gamma = nan\n")
    out = workdir / f"nan-{command}.ckpt"
    if command == "pretrain":
        args = ["pretrain", "--data", str(data)]
    else:
        args = ["adapt", "--mode", "one-stage", "--backbone", str(backbone),
                "--data", str(data)]
    rc = main(args + ["--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "bad value for 'gamma': 'nan'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_with_non_finite_config_value(data, adapted, workdir, capsys):
    from agadapt.checkpoint import MAGIC, PREFIX, VERSION

    blob = adapted.read_bytes()
    _, _, length = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + length])
    header["model_config"]["anchor_strength"] = float("nan")
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    assert b'"anchor_strength": NaN' in encoded
    path = workdir / "nan.ckpt"
    path.write_bytes(PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded
                     + blob[PREFIX.size + length:])
    report = workdir / "nan.csv"
    rc = main(["eval", "--model", str(path), "--data", str(data), "--report", str(report)])
    assert rc == 3
    assert "anchor_strength must be a JSON float, got nan" in capsys.readouterr().err
    assert not report.exists()


def test_pretrain_prompt_of_another_language(micro_files, data, tmp_path, capsys):
    # the first pretrain line is mono-a: put the <en> prompt before its words
    bad = corrupt_copy(data, tmp_path / "data", "pretrain",
                       edit_ids(lambda ids: [0, 2, 3, 4] + ids[4:]))
    out = tmp_path / "b.ckpt"
    rc = main(["pretrain", "--data", str(bad), "--out", str(out),
               "--config", str(micro_files["train"])])
    assert rc == 3
    assert "mono-a utterance opens with the prompt of another language" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def data8(workdir):
    """A corpus with 8 words per language, against the checkpoints' 6."""
    spec = workdir / "gen8.cfg"
    spec.write_text(
        "words_per_language = 8\nfeat_dim = 6\nwords_min = 2\nwords_max = 4\n"
        "n_pretrain = 4\nn_adapt = 4\nn_valid = 4\nn_test_mono_a = 4\n"
        "n_test_mono_b = 4\nn_test_cs = 4\n")
    assert main(["gen-data", "--spec", str(spec), "--out", str(workdir / "data8")]) == 0
    return workdir / "data8"


@pytest.mark.parametrize("command", ["select-heads", "adapt", "eval", "inspect-attention"])
def test_checkpoint_and_corpus_vocabularies_must_agree(micro_files, data8, backbone, adapted,
                                                       tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "select-heads": ["--backbone", str(backbone), "--strategy", "all"],
        "adapt": ["--mode", "one-stage", "--backbone", str(backbone),
                  "--config", str(micro_files["train"])],
        "eval": ["--model", str(adapted), "--report", str(out)],
        "inspect-attention": ["--model", str(adapted), "--utterance", "u000000",
                              "--layer", "0", "--head", "0", "--format", "csv"],
    }[command]
    if command != "eval":
        args += ["--out", str(out)]
    rc = main([command, "--data", str(data8)] + args)
    assert rc == 3
    err = capsys.readouterr().err
    assert "the checkpoint has 6+6 words per language" in err
    assert f"the corpus under {data8} 8+8" in err
    assert not out.exists()
