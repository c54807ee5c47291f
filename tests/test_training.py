"""Training machinery at micro scale: losses, stages, averaging, evaluation."""

import dataclasses
import errno
import gc
import os
import signal
import tracemalloc

import numpy as np
import pytest

from agadapt import training
from agadapt.checkpoint import load_model, save_model
from agadapt.config import parse_config_file
from agadapt.errors import ConfigError, DataError, NumericError
from agadapt.guidance import HeadSelection, ag_loss, candidate_heads, random_heads
from agadapt.model import (
    BLNK,
    EN,
    PROMPTS,
    ZH,
    ModelConfig,
    Seq2SeqModel,
    TokenSequence,
    Vocabulary,
    build_prompt,
    is_adapter_param,
)
from agadapt.numerics import (
    Parameter,
    Tensor,
    _topo_order,
    backward,
    cross_entropy,
    finite_diff_grad,
    recording,
)
from agadapt.synthtask import KIND_CS, MerReport, SynthSpec, Utterance, generate_corpus
from agadapt.training import (
    EpochCheckpoint,
    TrainConfig,
    average_checkpoints,
    batch_loss,
    build_model_config,
    build_train_config,
    evaluate_model,
    keep_best,
    make_batches,
    pretrain_backbone,
    run_stage1,
    run_stage2,
    select_heads,
    validation_ce,
)

MICRO_CONFIG = ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=12,
                           ffn_width=24, bottleneck=3, feat_dim=6, max_len=32)
# Guidance needs a second decoder layer: no adapter feeds layer 0's maps.
GUIDED_CONFIG = ModelConfig(**{**MICRO_CONFIG.__dict__, "dec_layers": 2})
MICRO_SPEC = SynthSpec(words_per_language=6, feat_dim=6, words_min=2,
                       words_max=4, seed=5)
MICRO_SIZES = {"pretrain": 24, "adapt": 24, "valid": 12, "test-mono-a": 6,
               "test-mono-b": 6, "test-cs": 6}


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build(6, 6)


@pytest.fixture(scope="module")
def corpus(vocab):
    return generate_corpus(MICRO_SPEC, vocab, MICRO_SIZES)


@pytest.fixture()
def adapted_model(vocab):
    model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
    model.freeze_backbone()
    model.init_adapters(seed=2)
    return model


def no_decode(*args, **kwargs):
    raise AssertionError("a chunk was decoded")


def pin_cpus(monkeypatch, n):
    """Let the process run on n CPUs, so `training._map_forked` uses n
    workers; on 1 it forks nothing and monkeypatched counters see every call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def micro_selection(layer=1):
    counts = {(l, h): 0 for l in range(2) for h in range(2)}
    return HeadSelection(counts=counts, dataset_size=1, selected=[(layer, 0), (layer, 1)])


class TestConfig:
    def test_defaults_match_recipe(self):
        cfg = TrainConfig()
        assert cfg.gamma == 0.01
        assert cfg.c == 0.6
        assert cfg.lr == 1e-3
        assert cfg.epochs == 15
        assert cfg.avg_count == 3

    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ngamma = 0.05\nepochs = 2  # inline\n"
                        "mode = one-stage\n")
        values = parse_config_file(path)
        cfg = build_train_config(values, {"seed": 9})
        assert cfg.gamma == 0.05 and cfg.epochs == 2
        assert cfg.mode == "one-stage" and cfg.seed == 9

    def test_cli_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = one-stage\n")
        cfg = build_train_config(parse_config_file(path), {"mode": "two-stage-ag"})
        assert cfg.mode == "two-stage-ag"

    def test_bad_values_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = much\n")
        with pytest.raises(ConfigError):
            build_train_config(parse_config_file(path))
        path.write_text("gamma 0.5\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)
        path.write_text("heads = 4\nheads = 2\n")
        with pytest.raises(ConfigError, match="run.cfg:2: key 'heads' set twice"):
            parse_config_file(path)
        with pytest.raises(ConfigError):
            TrainConfig(mode="three-stage")
        with pytest.raises(ConfigError):
            TrainConfig(gamma=-1.0)
        for values in ({"lr": -1.0}, {"lr": 0.0}, {"weight_decay": -5.0}, {"seed": -1},
                       {"gamma": np.nan}, {"lr": np.nan}, {"weight_decay": np.nan}):
            with pytest.raises(ConfigError, match=next(iter(values))):
                TrainConfig(**values)
        for line in ("lr = 0", "lr = -0.001", "weight_decay = -0.01"):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError):
                build_train_config(parse_config_file(path))
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0

    def test_frozen(self):
        # a checked mode stays checked: run_adaptation needs no fallback
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().mode = "three-stage"

    def test_soft_label_checked_when_config_is_read(self):
        with pytest.raises(ConfigError, match="soft label"):
            build_train_config({"c": "0.3"})
        assert build_train_config({"c": "0.9"}).c == 0.9

    def test_model_config_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("width = 24\nheads = 3\nepochs = 2\n")
        mc = build_model_config(parse_config_file(path))
        assert mc.width == 24 and mc.heads == 3

    def test_head_fraction_is_not_a_run_config_key(self):
        # the selection fraction is select-heads --fraction; no run reads one
        with pytest.raises(ConfigError, match="head_fraction"):
            build_train_config({"head_fraction": "0.3"})

    def test_unknown_key_rejected(self, tmp_path):
        # a key that neither TrainConfig nor ModelConfig claims is a typo
        path = tmp_path / "run.cfg"
        path.write_text("width = 24\nepochs = 2\ngamam = 0.5\n")
        values = parse_config_file(path)
        for build in (build_train_config, build_model_config):
            with pytest.raises(ConfigError, match="gamam"):
                build(values)

    def test_model_config_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("width = 2.5\n")
        with pytest.raises(ConfigError, match="width"):
            build_model_config(parse_config_file(path))

    @pytest.mark.parametrize("values, message", [
        ({"heads": "5"}, "divisible"),
        ({"bottleneck": "0"}, "bottleneck"),
        ({"anchored_heads": "-1"}, "anchored_heads"),
    ])
    def test_model_config_rejected_value_is_config_error(self, values, message):
        with pytest.raises(ConfigError, match=message):
            build_model_config(values)

    @pytest.mark.parametrize("name", ["anchor_strength", "embed_polarity", "anchor_contrast"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_model_config_rejects_non_finite_float(self, name, value):
        # a library caller's value, which no config-file reader has seen
        with pytest.raises(ConfigError, match=f"field {name} must be finite, got {value}"):
            ModelConfig(**{name: value})


def utterance_loss(model, utt, selection, gamma):
    """`batch_loss` on a batch holding the one utterance `utt`."""
    batch = make_batches([utt], 1)[0]
    return batch_loss(model, batch, selection, gamma, 0.6)[0]


def count_ag_calls(monkeypatch):
    """Route `training.ag_loss` through a wrapper; returns the call list,
    one entry per guided batch."""
    calls = []
    real = training.ag_loss

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "ag_loss", counting)
    return calls


class TestPad:
    def test_pads_frames_mask_and_tokens_in_the_order_given(self, corpus):
        utts = [corpus["adapt"][i] for i in (2, 0, 1)]
        assert len({u.frames.shape[0] for u in utts}) > 1
        assert len({u.reference.n for u in utts}) > 1
        batch = training.pad(utts)
        t_max = max(u.frames.shape[0] for u in utts)
        n_max = max(u.reference.n for u in utts)
        assert batch.frames.shape == (3, t_max, utts[0].frames.shape[1])
        assert batch.frame_mask.shape == (3, t_max) and batch.frame_mask.dtype == bool
        assert batch.tokens.shape == (3, n_max) and batch.tokens.dtype == np.int64
        assert batch.sequences == [u.reference for u in utts]
        for i, utt in enumerate(utts):
            t, n = utt.frames.shape[0], utt.reference.n
            assert np.array_equal(batch.frames[i, :t], utt.frames)
            assert np.all(batch.frames[i, t:] == 0.0)
            assert np.array_equal(batch.frame_mask[i], np.arange(t_max) < t)
            assert batch.tokens[i, :n].tolist() == utt.reference.ids
            assert np.all(batch.tokens[i, n:] == BLNK)


class TestJointLoss:
    def test_gamma_zero_equals_ce_bitwise(self, adapted_model, vocab, corpus):
        utt = corpus["adapt"][0]
        joint = utterance_loss(adapted_model, utt, micro_selection(), 0.0)
        ce = utterance_loss(adapted_model, utt, None, 0.0)
        assert joint.item() == ce.item()

    def test_affine_in_gamma(self, adapted_model, vocab, corpus):
        utt = corpus["adapt"][0]
        sel = micro_selection()
        vals = {g: utterance_loss(adapted_model, utt, sel, g).item()
                for g in (0.0, 0.01, 1.0)}
        ce, ag = vals[0.0], vals[1.0] - vals[0.0]
        assert vals[0.01] == pytest.approx(ce + 0.01 * ag, rel=1e-9)

    def test_gradient_vs_finite_difference(self, adapted_model, vocab, corpus):
        rng = np.random.default_rng(4)
        for p in adapted_model.adapter_params().values():
            p.data = rng.normal(0, 0.05, p.data.shape)
        utt = corpus["adapt"][0]
        sel = micro_selection()
        with recording(adapted_model.adapter_params().values()):
            loss = utterance_loss(adapted_model, utt, sel, 0.01)
            store = backward(loss, adapted_model.adapter_params().values())
        name = "dec.0.ffn_adapter.up.weight"
        p = adapted_model.params[name]

        def f(arr):
            saved = p.data
            p.data = arr
            val = utterance_loss(adapted_model, utt, sel, 0.01).item()
            p.data = saved
            return val

        num = finite_diff_grad(f, p.data, h=1e-4)
        ana = store[name]
        assert np.max(np.abs(ana - num)) / np.max(np.abs(ana)) < 1e-4

    def test_batched_matches_per_utterance(self, adapted_model, vocab, corpus):
        utts = corpus["adapt"][:4]
        batches = make_batches(utts, 4)
        assert len(batches) == 1
        assert len(set(len(u.reference.ids) for u in utts)) > 1  # padded rows
        sel = micro_selection()
        loss, ce_mean, ag_mean = batch_loss(adapted_model, batches[0], sel, 0.01, 0.6)
        singles = [utterance_loss(adapted_model, u, sel, 0.01).item()
                   for u in utts]
        assert loss.item() == pytest.approx(np.mean(singles), rel=1e-9)

    def test_guidance_reaches_decoder_adapters_from_layer_one_only(self, adapted_model,
                                                                   vocab, corpus):
        # an AG-only loss: a layer-1 head's maps depend on the layer-0
        # decoder adapters; a layer-0 head's maps depend on no adapter
        randomise_adapters(adapted_model)
        batch = make_batches(corpus["adapt"], 8)[0]
        params = adapted_model.adapter_params("dec")
        grads = {}
        for layer in (0, 1):
            with recording(params.values()):
                out = adapted_model.forward(batch.frames, batch.tokens, batch.frame_mask)
                loss = ag_loss(out.attention, batch.sequences, micro_selection(layer), 0.6)
                if layer == 0:  # the loss reaches no adapter, so it recorded no node
                    with pytest.raises(NumericError, match="recorded no node"):
                        backward(loss, params.values())
                else:
                    grads[layer] = backward(loss, params.values())
        assert all(np.any(g != 0.0) for name, g in grads[1].items()
                   if name.startswith("dec.0."))
        assert all(np.all(g == 0.0) for name, g in grads[1].items()
                   if name.startswith("dec.1."))


class TestAverageCheckpoints:
    def _checkpoints(self, entries):
        return [EpochCheckpoint(epoch=i, val_loss=v, params={"w": np.array(p)})
                for i, (v, p) in enumerate(entries)]

    def test_identical_checkpoints_identity(self):
        out = average_checkpoints(self._checkpoints([(1.0, [0.3, 0.7])] * 3))
        assert np.array_equal(out["w"], np.array([0.3, 0.7]))

    def test_scalar_mean(self):
        out = average_checkpoints(self._checkpoints([(1.0, [1.0]), (2.0, [3.0])]))
        assert out["w"][0] == 2.0

    def test_picks_lowest_losses_not_latest(self):
        kept = []
        for cp in self._checkpoints([(5.0, [0.0]), (1.0, [10.0]), (4.0, [2.0]),
                                     (2.0, [20.0]), (9.0, [100.0])]):
            keep_best(kept, cp, 2)
        assert [cp.epoch for cp in kept] == [1, 3]
        assert average_checkpoints(kept)["w"][0] == 15.0

    def test_streaming_top_k_matches_full_list_with_ties(self):
        # keep_best's streamed list is the full list's k best, in rank order,
        # so its mean is summed in that order
        rng = np.random.default_rng(8)
        losses = [3.0, 1.0, 2.0, 1.0, 2.0, 0.5, 2.0, 1.0, 0.5, 3.0]
        full = self._checkpoints([(v, rng.normal(size=4)) for v in losses])
        ranked = sorted(full, key=lambda cp: (cp.val_loss, cp.epoch))
        for k in range(1, len(losses) + 1):
            kept = []
            for i, cp in enumerate(full):
                keep_best(kept, cp, k)
                assert len(kept) == min(k, i + 1)
            assert [cp.epoch for cp in kept] == [cp.epoch for cp in ranked[:k]]
            want = np.zeros(4)
            for cp in ranked[:k]:
                want += cp.params["w"]
            want /= k
            assert np.array_equal(average_checkpoints(kept)["w"], want), k


class TestStages:
    def _cfg(self, **kw):
        base = dict(epochs=2, batch_size=8, avg_count=2, seed=3,
                    pretrain_epochs=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_stage1_touches_only_encoder_adapters(self, adapted_model, corpus,
                                                  monkeypatch):
        model = adapted_model
        enc_before = {n: p.data.copy() for n, p in model.adapter_params("enc").items()}
        dec_before = {n: p.data.copy() for n, p in model.adapter_params("dec").items()}
        theta_before = {n: p.data.copy() for n, p in model.params.items()
                        if not is_adapter_param(n)}
        ag_calls = count_ag_calls(monkeypatch)
        record = run_stage1(model, corpus["adapt"], corpus["valid"], self._cfg())
        assert ag_calls == []
        assert all(e.train_ag == 0.0 for e in record.epochs)
        for name, before in dec_before.items():
            assert np.array_equal(model.params[name].data, before), name
        for name, before in theta_before.items():
            assert np.array_equal(model.params[name].data, before), name
        assert any(not np.array_equal(model.params[n].data, enc_before[n])
                   for n in enc_before)

    def test_stage1_records_no_decoder_adapter_gradient(self, adapted_model, corpus):
        # stage 1 records only the encoder adapters, so the decoder adapters
        # it does not update get no gradient, and nothing records afterwards
        run_stage1(adapted_model, corpus["adapt"], corpus["valid"], self._cfg())
        dec = adapted_model.adapter_params("dec").values()
        assert len(dec) == 16 and all(p.grad is None for p in dec)
        assert all(p.grad is not None for p in adapted_model.adapter_params("enc").values())
        assert not any(p.requires_grad for p in adapted_model.params.values())

    def test_empty_validation_split_fails_before_any_step(self, adapted_model, corpus,
                                                         monkeypatch):
        steps = []
        monkeypatch.setattr(training, "adamw_step", lambda *args: steps.append(1))
        with pytest.raises(DataError, match="validation set is empty"):
            training.run_adaptation(adapted_model, corpus["adapt"], [], self._cfg(),
                                    micro_selection())
        assert steps == []

    def test_stage2_requires_selection_when_guided(self, adapted_model, corpus):
        with pytest.raises(ConfigError):
            run_stage2(adapted_model, corpus["adapt"], corpus["valid"],
                       self._cfg(), None)

    def test_stage2_rejects_unguidable_head(self, adapted_model, corpus):
        sel = HeadSelection(counts=micro_selection().counts, dataset_size=1,
                            selected=[(1, 0), (0, 1)])
        with pytest.raises(ConfigError, match=r"\[\(0, 1\)\] cannot be guided"):
            run_stage2(adapted_model, corpus["adapt"], corpus["valid"], self._cfg(), sel)

    def test_stage2_gamma_zero_plain_finetuning(self, adapted_model, corpus,
                                                monkeypatch):
        ag_calls = count_ag_calls(monkeypatch)
        record = run_stage2(adapted_model, corpus["adapt"], corpus["valid"],
                            self._cfg(gamma=0.0), None)
        assert ag_calls == []
        assert all(e.train_ag == 0.0 for e in record.epochs)

    def test_stage2_guided_updates_both_sides(self, adapted_model, vocab, corpus,
                                              monkeypatch):
        model = adapted_model
        ag_calls = count_ag_calls(monkeypatch)
        enc_before = {n: p.data.copy() for n, p in model.adapter_params("enc").items()}
        dec_before = {n: p.data.copy() for n, p in model.adapter_params("dec").items()}
        theta_before = {n: p.data.copy() for n, p in model.params.items()
                        if not is_adapter_param(n)}
        cfg = self._cfg()
        record = run_stage2(model, corpus["adapt"], corpus["valid"], cfg,
                            micro_selection())
        # one guidance node per training batch per epoch
        batches = make_batches(corpus["adapt"], cfg.batch_size)
        assert len(batches) > 1
        assert len(ag_calls) == cfg.epochs * len(batches)
        assert any(e.train_ag > 0.0 for e in record.epochs)
        assert any(not np.array_equal(model.params[n].data, enc_before[n])
                   for n in enc_before)
        assert any(not np.array_equal(model.params[n].data, dec_before[n])
                   for n in dec_before)
        for name, before in theta_before.items():
            assert np.array_equal(model.params[name].data, before), name

    def test_loss_trace_deterministic(self, vocab, corpus):
        def run():
            model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
            model.freeze_backbone()
            model.init_adapters(seed=2)
            record = run_stage2(model, corpus["adapt"], corpus["valid"],
                                self._cfg(), micro_selection())
            return [(e.train_ce, e.train_ag, e.val_ce) for e in record.epochs]

        assert run() == run()

    def test_run_keeps_only_the_best_checkpoints(self, adapted_model, corpus):
        record = run_stage2(adapted_model, corpus["adapt"], corpus["valid"],
                            self._cfg(epochs=4, gamma=0.0), None)
        best = sorted(record.epochs, key=lambda e: (e.val_ce, e.epoch))[:2]
        assert [cp.epoch for cp in record.checkpoints] == [e.epoch for e in best]

    def test_adapt_backbone_draws_adapters_from_the_next_seed(self, vocab, corpus):
        cfg = self._cfg(mode="one-stage", epochs=1, avg_count=1)

        def backbone():
            model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
            model.freeze_backbone()
            return model

        got, want = backbone(), backbone()
        records = training.adapt_backbone(got, corpus["adapt"], corpus["valid"], cfg, None)
        want.init_adapters(seed=cfg.seed + 1)
        want_records = training.run_adaptation(want, corpus["adapt"], corpus["valid"], cfg,
                                               None)
        assert [r.epochs[0].train_ce for r in records] == \
            [r.epochs[0].train_ce for r in want_records]
        for name, arr in want.state_dict().items():
            assert np.array_equal(got.params[name].data, arr), name
        with pytest.raises(DataError, match="adapters already initialised"):
            training.adapt_backbone(got, corpus["adapt"], corpus["valid"], cfg, None)

    def test_frozen_backbone_is_not_pretrained_again(self, vocab, corpus, tmp_path,
                                                     monkeypatch):
        # load_model freezes by default, and _run_training refuses a frozen
        # model's backbone parameter before its first step
        path = tmp_path / "backbone.ckpt"
        save_model(path, Seq2SeqModel(MICRO_CONFIG, vocab, seed=1))
        steps = []
        monkeypatch.setattr(training, "adamw_step", lambda *args: steps.append(1))
        with pytest.raises(ConfigError, match="parameter 'dec.0.cross_attn.*' is frozen "
                                              "and cannot be trained"):
            pretrain_backbone(load_model(path), corpus["pretrain"], corpus["valid"],
                              self._cfg())
        assert steps == []
        monkeypatch.undo()
        # loaded unfrozen, the same file pretrains for pretrain_epochs, not epochs
        monkeypatch.setattr(training, "PRETRAIN_ACCURACY_GATE", 0.0)
        model = load_model(path, freeze_backbone=False)
        before = model.state_dict()
        report = pretrain_backbone(model, corpus["pretrain"], corpus["valid"], self._cfg())
        assert len(report.record.epochs) == 1 and model.frozen
        assert all(not np.array_equal(model.params[name].data, arr)
                   for name, arr in before.items() if name.endswith(".weight"))

    def test_pretrain_rejects_cs_and_adapters(self, vocab, corpus):
        model = Seq2SeqModel(MICRO_CONFIG, vocab, seed=1)
        with pytest.raises(DataError):
            pretrain_backbone(model, corpus["adapt"], corpus["valid"], self._cfg())
        model.init_adapters(seed=2)
        with pytest.raises(ConfigError):
            pretrain_backbone(model, corpus["pretrain"], corpus["valid"], self._cfg())


def retained_backward(loss, params):
    """Reference reverse sweep that releases nothing: the same order and the
    same accumulation as `numerics.backward`, but every node keeps its
    `grad`, `_grad_fn` and `_parents`. Returns the gradient store."""
    params = list(params)
    for p in params:
        p.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topo_order(loss)):
        if node._grad_fn is None:
            continue
        for parent, g in zip(node._parents, node._grad_fn(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g
    return {p.name: p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in params}


def trained(model):
    """The parameters training may update: all of them, or a frozen model's adapters."""
    return [p for name, p in model.params.items()
            if not model.frozen or is_adapter_param(name)]


def live_graph_tensors():
    """Recorded non-leaf tensors still referenced anywhere, consumed or not."""
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, Tensor) and not isinstance(obj, Parameter)
               and obj.requires_grad)


class TestTapeLifetime:
    def _assert_matches_retained_sweep(self, model, batch, selection, gamma):
        params = trained(model)
        with recording(params):
            want = retained_backward(
                batch_loss(model, batch, selection, gamma, 0.6)[0], params)
            got = backward(batch_loss(model, batch, selection, gamma, 0.6)[0], params)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_pretrain_gradients_bit_identical_to_retained_sweep(self, vocab, corpus):
        model = Seq2SeqModel(MICRO_CONFIG, vocab, seed=1)
        batch = make_batches(corpus["pretrain"], 8)[0]
        self._assert_matches_retained_sweep(model, batch, None, 0.0)

    def test_adapter_ag_gradients_bit_identical_to_retained_sweep(self, adapted_model,
                                                                  vocab, corpus):
        randomise_adapters(adapted_model)
        batch = make_batches(corpus["adapt"], 8)[0]
        self._assert_matches_retained_sweep(adapted_model, batch, micro_selection(), 0.5)

    def test_no_tape_alive_at_forward_entry(self, adapted_model, corpus, monkeypatch):
        cfg = TrainConfig(epochs=1, batch_size=6, avg_count=1, seed=3)
        counts = []
        real = Seq2SeqModel.forward

        def counting(self, *args, **kwargs):
            counts.append(live_graph_tensors())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Seq2SeqModel, "forward", counting)
        gc.collect()
        base = live_graph_tensors()
        run_stage2(adapted_model, corpus["adapt"], corpus["valid"], cfg, micro_selection())
        # 4 training steps, then 2 validation batches after the epoch and 2 after averaging
        assert counts == [base] * 8


def oracle_head_counts(model, utts):
    """The per-utterance path that batched counting replaced: one forward
    per utterance, each head's map trimmed to its length, one indicator
    per map."""
    counts = {}
    for utt in utts:
        if utt.reference.ids[:5] != build_prompt():
            continue
        out = model.forward(utt.frames[None], np.array([utt.reference.ids]))
        for layer, maps in enumerate(out.attention):
            for head, a in enumerate(maps.data[0]):
                lid = a[:, [1, 2]].sum()
                counts[(layer, head)] = (counts.get((layer, head), 0)
                                         + int(lid > a.sum() - lid))
    return counts


class TestSelectHeadsIntegration:
    def test_runs_on_frozen_backbone(self, vocab, corpus):
        model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
        model.freeze_backbone()
        sel = select_heads(model, corpus["adapt"], fraction=1.0)
        assert sel.dataset_size == len(corpus["adapt"])
        assert set(sel.counts) == {(l, h) for l in range(2) for h in range(2)}
        assert sel.selected
        assert sel.selected == candidate_heads(sel.counts)[:len(sel.qualifying)]
        assert all(layer == 1 for layer, _ in sel.selected)

    def test_counts_match_per_utterance_oracle(self, vocab, corpus):
        # two decoder layers with anchored heads, so counts differ by head;
        # 36 utterances make a batch of 32 and a padded batch of 4
        model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
        model.freeze_backbone()
        utts = corpus["adapt"] + corpus["valid"]
        want = oracle_head_counts(model, utts)
        assert len(set(want.values())) > 1
        for fraction in (1.0, 0.5):
            sel = select_heads(model, utts, fraction)
            top = round(fraction * len(sel.qualifying))
            assert sel.counts == want
            assert sel.selected == candidate_heads(want)[:top]

    def test_never_runs_forward(self, vocab, corpus, monkeypatch):
        # the decoder pass stops at the last layer's self-attention maps
        model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
        model.freeze_backbone()
        utts = corpus["adapt"]
        want = oracle_head_counts(model, utts)

        def no_forward(self, *args, **kwargs):
            raise AssertionError("head selection ran the full forward")

        monkeypatch.setattr(Seq2SeqModel, "forward", no_forward)
        assert select_heads(model, utts, 1.0).counts == want

    def test_nothing_selected_raises_with_the_counts(self, vocab, corpus):
        model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
        model.freeze_backbone()
        counts = select_heads(model, corpus["adapt"], 1.0).counts
        with pytest.raises(ConfigError) as err:
            select_heads(model, corpus["adapt"], 0.0)
        assert str(err.value).startswith("no heads selected (top strategy, fraction 0.0): ")
        assert f"majority bar of 12 of 24 utterances; counts {counts}" in str(err.value)

    def test_strategies(self, vocab, corpus):
        model = Seq2SeqModel(GUIDED_CONFIG, vocab, seed=1)
        model.freeze_backbone()
        utts = corpus["adapt"]
        counted = select_heads(model, utts, 1.0)
        counts = counted.counts
        assert select_heads(model, utts, 0.0, "all").selected == candidate_heads(counts)
        assert (select_heads(model, utts, 0.5, "random", seed=7).selected
                == random_heads(counts, round(0.5 * len(counted.qualifying)), seed=7))
        with pytest.raises(ConfigError, match="no heads selected \\(random strategy"):
            select_heads(model, utts, 0.0, "random")
        with pytest.raises(ConfigError, match="strategy must be one of"):
            select_heads(model, utts, 1.0, "best")

    def test_needs_bilingual_utterances(self, vocab, corpus):
        model = Seq2SeqModel(MICRO_CONFIG, vocab, seed=1)
        with pytest.raises(DataError, match="bilingual"):
            select_heads(model, corpus["pretrain"], fraction=1.0)


def oracle_lid_attribution(model, utts, selection):
    """The attribution path that evaluation replaced: a full teacher-forced
    forward, encoder included, per batch, then a loop over word tokens."""
    correct = total = 0
    for batch in make_batches(utts, 32):
        out = model.forward(batch.frames, batch.tokens, batch.frame_mask)
        for i, seq in enumerate(batch.sequences):
            n = seq.n
            acc = np.zeros((n, n))
            for layer, head in selection.selected:
                acc += out.attention[layer].data[i, head, :n, :n]
            acc /= len(selection.selected)
            zh_col, en_col = seq.ids.index(ZH), seq.ids.index(EN)
            for pos in seq.word_positions:
                predicted = "A" if acc[pos, zh_col] >= acc[pos, en_col] else "B"
                correct += int(predicted == seq.lang_tags[pos])
                total += 1
    return correct / total


def randomise_adapters(model, seed=4):
    rng = np.random.default_rng(seed)
    for p in model.adapter_params().values():
        p.data = rng.normal(0, 0.05, p.data.shape)


def oracle_loss(model, batch, selection, gamma):
    """`batch_loss` with the next-token alignment spelled out in the loss:
    the logits of rows 0..N-2 score tokens[:, 1:]."""
    b = len(batch.sequences)
    out = model.forward(batch.frames, batch.tokens, batch.frame_mask)
    mask = np.zeros((b, batch.tokens.shape[1] - 1))
    for i, n in enumerate(s.n for s in batch.sequences):
        mask[i, :n - 1] = 1.0
    loss = cross_entropy(out.logits[:, :-1], batch.tokens[:, 1:], row_mask=mask) * (1.0 / b)
    if gamma == 0.0:
        return loss
    ag = ag_loss(out.attention, batch.sequences, selection, 0.6)
    return loss + gamma * (ag * (1.0 / b))


class TestNextTokenAlignment:
    def _assert_matches_oracle(self, model, batch, selection, gamma):
        params = trained(model)
        with recording(params):
            want = backward(oracle_loss(model, batch, selection, gamma), params)
            got = backward(batch_loss(model, batch, selection, gamma, 0.6)[0], params)
        assert got.keys() == want.keys()
        for name in want:  # bytes, so the sign of a zero counts too
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_batch_targets_are_the_tokens_shifted_left(self, vocab, corpus, monkeypatch):
        # the targets and row mask `sequence_ce` derives and hands to the loss
        seen = []

        def recording(logits, targets, row_mask):
            seen.append((targets, np.asarray(row_mask)))
            return cross_entropy(logits, targets, row_mask=row_mask)

        monkeypatch.setattr(training, "cross_entropy", recording)
        model = Seq2SeqModel(MICRO_CONFIG, vocab, seed=1)
        batch = training.pad(corpus["adapt"][:8])
        assert len(set(s.n for s in batch.sequences)) > 1  # padded rows
        training.sequence_ce(model, batch)
        (targets, mask), = seen
        assert targets.shape == mask.shape == batch.tokens.shape
        for i, seq in enumerate(batch.sequences):
            n = seq.n
            assert np.array_equal(targets[i, :n - 1], batch.tokens[i, 1:n])
            assert np.all(targets[i, n - 1:] == BLNK)
            assert np.array_equal(mask[i], np.arange(batch.tokens.shape[1]) < n - 1)

    def test_pretrain_gradients_bit_identical_to_oracle(self, vocab, corpus):
        model = Seq2SeqModel(MICRO_CONFIG, vocab, seed=1)
        batch = make_batches(corpus["pretrain"], 8)[0]
        self._assert_matches_oracle(model, batch, None, 0.0)

    def test_adapter_ag_gradients_bit_identical_to_oracle(self, adapted_model, vocab,
                                                          corpus):
        randomise_adapters(adapted_model)
        batch = make_batches(corpus["adapt"], 8)[0]
        self._assert_matches_oracle(adapted_model, batch, micro_selection(), 0.5)


class TestEvaluation:
    @pytest.mark.parametrize("attribution", [0.52791066, None])
    def test_report_csv(self, attribution):
        # the bytes `agadapt eval --report` has always written
        mer = MerReport(per_kind={"mono-b": 12.5, "cs": 100 / 3, "mono-a": 0.0},
                        overall=16.858442601016858, errors={}, tokens={})
        want = ("set,metric,value\n"
                "all,overall_mer,16.8584\n"
                "cs,token_error_rate,33.3333\n"
                "mono-a,token_error_rate,0.0000\n"
                "mono-b,token_error_rate,12.5000\n")
        if attribution is not None:
            want += "test-cs,lid_attribution,0.5279\n"
        assert training.EvalReport(mer=mer, lid_attribution=attribution).csv() == want

    def test_empty_set_errors(self, adapted_model):
        with pytest.raises(DataError):
            evaluate_model(adapted_model, {"test-cs": []})

    @pytest.mark.parametrize("within", [True, False], ids=["within-a-set", "across-sets"])
    def test_repeated_utterance_id_raises_before_decoding(self, adapted_model, corpus,
                                                          monkeypatch, within):
        monkeypatch.setattr(Seq2SeqModel, "greedy_decode", no_decode)
        mono_a, mono_b = corpus["test-mono-a"], corpus["test-mono-b"]
        # a language-B utterance under the id of the first language-A one
        twin = Utterance(uid=mono_a[0].uid, frames=mono_b[0].frames,
                         reference=mono_b[0].reference)
        sets = ({"test-mono-a": mono_a + [twin], "test-mono-b": mono_b} if within
                else {"test-mono-a": mono_a, "test-mono-b": [twin] + mono_b[1:]})
        match = f"utterance id {mono_a[0].uid!r} occurs more than once"
        with pytest.raises(DataError, match=match):
            evaluate_model(adapted_model, sets, selection=micro_selection())
        # one prompt group under the bilingual prompt, one per language without
        with pytest.raises(DataError, match=match):
            training.token_accuracy(adapted_model, mono_a + [twin], bilingual_prompt=within)

    @pytest.mark.parametrize("selected, error", [
        ([], ConfigError), ([(1, 0), (2, 0)], DataError), ([(1, 2)], DataError),
        ([(-1, 0)], DataError)])
    def test_selection_checked_before_decoding(self, adapted_model, corpus, monkeypatch,
                                               selected, error):
        monkeypatch.setattr(Seq2SeqModel, "greedy_decode", no_decode)
        sel = HeadSelection(counts=micro_selection().counts, dataset_size=1,
                            selected=selected)
        # a selection is checked even when no set holds a code-switched utterance
        with pytest.raises(error):
            evaluate_model(adapted_model, {"test-mono-a": corpus["test-mono-a"]}, sel)

    def test_token_accuracy_and_evaluation_score_alike(self, adapted_model, corpus,
                                                       monkeypatch):
        randomise_adapters(adapted_model)
        calls = []
        real = training.mixed_error_rate
        monkeypatch.setattr(training, "mixed_error_rate",
                            lambda *args: calls.append(args) or real(*args))
        utts = corpus["test-cs"] + corpus["test-mono-b"]
        accuracy = training.token_accuracy(adapted_model, utts, bilingual_prompt=True)
        mer = evaluate_model(adapted_model, {"test-cs": corpus["test-cs"],
                                             "test-mono-b": corpus["test-mono-b"]}).mer
        assert len(calls) == 2 and calls[0] == calls[1]
        assert accuracy == max(0.0, 1.0 - sum(mer.errors.values()) / sum(mer.tokens.values()))
        assert calls[1][2] == {u.uid: u.kind for u in utts}

    def test_attribution_matches_full_forward_oracle(self, adapted_model, corpus):
        randomise_adapters(adapted_model)
        # "valid" mixes kinds, so only some rows of its chunk are attributed
        sets = {"test-cs": corpus["test-cs"], "valid": corpus["valid"],
                "test-mono-a": corpus["test-mono-a"]}
        cs = [u for utts in sets.values() for u in utts if u.kind == KIND_CS]
        assert 0 < len(cs) < len(corpus["test-cs"]) + len(corpus["valid"])
        sel = micro_selection()
        report = evaluate_model(adapted_model, sets, selection=sel)
        assert report.lid_attribution == oracle_lid_attribution(adapted_model, cs, sel)
        assert evaluate_model(adapted_model, sets).lid_attribution is None

    def test_encodes_once_per_chunk_and_never_runs_forward(self, adapted_model, vocab,
                                                           monkeypatch):
        pin_cpus(monkeypatch, 1)
        # every utterance's frames are encoded exactly once, in blocks of at
        # most ENCODE_ROWS rows, and the full forward never runs
        corpus = generate_corpus(MICRO_SPEC, vocab, {**MICRO_SIZES, "test-cs": 70})
        sets = {name: corpus[name] for name in ("test-cs", "test-mono-a", "test-mono-b")}
        blocks = []
        real_encode = Seq2SeqModel.encode

        def counting_encode(self, frames, *args, **kwargs):
            blocks.append(len(frames))
            return real_encode(self, frames, *args, **kwargs)

        def no_forward(self, *args, **kwargs):
            raise AssertionError("evaluation ran the full forward")

        monkeypatch.setattr(Seq2SeqModel, "encode", counting_encode)
        monkeypatch.setattr(Seq2SeqModel, "forward", no_forward)
        evaluate_model(adapted_model, sets, selection=micro_selection())
        assert sum(blocks) == sum(len(utts) for utts in sets.values()) == 82
        assert max(blocks) == training.ENCODE_ROWS
        assert len(blocks) == 6  # the pooled sets in chunks of 64 and 18: 4 + 2 blocks

    def test_utterances_sharing_a_prompt_share_decode_chunks(self, adapted_model, vocab,
                                                             monkeypatch):
        pin_cpus(monkeypatch, 1)
        corpus = generate_corpus(MICRO_SPEC, vocab, {**MICRO_SIZES, "test-cs": 70})
        sets = {name: corpus[name] for name in ("test-cs", "test-mono-a", "test-mono-b")}
        calls = []
        real_decode = Seq2SeqModel.greedy_decode

        def counting_decode(self, memory, col_mask, prompt, *args):
            calls.append((memory.shape[0], tuple(prompt)))
            return real_decode(self, memory, col_mask, prompt, *args)

        monkeypatch.setattr(Seq2SeqModel, "greedy_decode", counting_decode)
        evaluate_model(adapted_model, sets)
        # 82 utterances under one prompt: ceil(82 / 64) decodes, not one per set's tail
        assert calls == [(64, PROMPTS[None]), (18, PROMPTS[None])]
        calls.clear()
        mono = corpus["test-mono-b"] + corpus["test-mono-a"]
        training.token_accuracy(adapted_model, mono, bilingual_prompt=False)
        assert calls == [(6, PROMPTS["A"]), (6, PROMPTS["B"])]

    def test_blocked_memory_bit_identical_on_every_chunk(self, monkeypatch):
        """At the default model size, every chunk's blocked memory and column
        mask equal one whole-chunk `encode`, and the hypotheses and LID counts
        equal a whole-chunk oracle's. Decoding stops after two tokens: the
        memory is what blocking can change."""
        pin_cpus(monkeypatch, 1)
        vocab = Vocabulary.build()
        sizes = {"pretrain": 0, "adapt": 0, "valid": 0, "test-mono-a": 200,
                 "test-mono-b": 200, "test-cs": 200}
        corpus = generate_corpus(SynthSpec(seed=3), vocab, sizes)
        model = Seq2SeqModel(ModelConfig(), vocab, seed=2)
        model.init_adapters(seed=3)
        randomise_adapters(model)
        sel = HeadSelection(counts={(l, h): 0 for l in range(2) for h in range(4)},
                            dataset_size=1, selected=[(1, 0), (1, 1)])
        real_decode = Seq2SeqModel.greedy_decode
        monkeypatch.setattr(Seq2SeqModel, "greedy_decode",
                            lambda self, *a: real_decode(self, *a, max_new=2))
        prompt = PROMPTS[None]
        real_blocked = training._encode_blocked
        chunk_rows = []

        def checked(model, frames, mask):
            memory, col_mask = real_blocked(model, frames, mask)
            whole, whole_mask = model.encode(frames, mask)
            assert np.array_equal(memory.data, whole.data)
            assert np.array_equal(col_mask, whole_mask)
            chunk_rows.append(len(frames))
            return memory, col_mask

        monkeypatch.setattr(training, "_encode_blocked", checked)
        got = {name: training._decode_set(model, {prompt: corpus[name]}, sel)
               for name in sorted(corpus) if corpus[name]}
        assert chunk_rows == [64, 64, 64, 8] * 3
        monkeypatch.setattr(training, "_encode_blocked",
                            lambda model, frames, mask: model.encode(frames, mask))
        want = {name: training._decode_set(model, {prompt: corpus[name]}, sel)
                for name in got}
        assert got == want
        assert got["test-cs"][1][1] > 0

    @pytest.mark.parametrize("with_selection", [False, True])
    def test_decode_set_matches_whole_chunk_oracle(self, adapted_model, vocab,
                                                   monkeypatch, with_selection):
        randomise_adapters(adapted_model)
        corpus = generate_corpus(MICRO_SPEC, vocab, {**MICRO_SIZES, "test-cs": 70})
        utts = corpus["test-cs"] + corpus["test-mono-a"]
        sel = micro_selection() if with_selection else None
        prompt = PROMPTS[None]
        got = training._decode_set(adapted_model, {prompt: utts}, sel)
        monkeypatch.setattr(training, "_encode_blocked",
                            lambda model, frames, mask: model.encode(frames, mask))
        want = training._decode_set(adapted_model, {prompt: utts}, sel)
        assert got == want
        assert (got[1][1] > 0) == with_selection

    def test_decode_working_set_below_whole_chunk_encode(self, monkeypatch):
        """The traced peak of decoding one 64-utterance chunk stays below
        that of encoding the chunk in one call (at the parent design, which
        encoded the whole chunk, it was above)."""
        vocab = Vocabulary.build()
        spec = SynthSpec(words_min=9, words_max=9, frames_min=4, frames_max=4)
        sizes = {"pretrain": 0, "adapt": 0, "valid": 0, "test-mono-a": 64,
                 "test-mono-b": 0, "test-cs": 0}
        utts = generate_corpus(spec, vocab, sizes)["test-mono-a"]
        assert {u.frames.shape[0] for u in utts} == {36}
        model = Seq2SeqModel(ModelConfig(), vocab, seed=0)
        frames = np.stack([u.frames for u in utts])
        mask = np.ones(frames.shape[:2], dtype=bool)
        tracemalloc.start()
        try:
            model.encode(frames, mask)
            whole_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            training._decode_set(model, {PROMPTS[None]: utts})
            decode_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decode_peak < whole_peak

    def test_validation_ce_finite(self, adapted_model, vocab, corpus):
        batches = make_batches(corpus["valid"], 8)
        v = validation_ce(adapted_model, batches)
        assert np.isfinite(v) and v > 0


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """The pids `os.fork` returns to this process, as a list that fills."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestWorkerMap:
    @pytest.fixture()
    def many_chunks(self, vocab):
        # 280 utterances: 5 chunks under the bilingual prompt, and 4 under
        # monolingual prompts (64 + 6 per language)
        corpus = generate_corpus(MICRO_SPEC, vocab, {**MICRO_SIZES, "test-cs": 140,
                                                     "test-mono-a": 70, "test-mono-b": 70})
        return {name: corpus[name] for name in ("test-cs", "test-mono-a", "test-mono-b")}

    def test_reports_equal_for_any_worker_count(self, adapted_model, many_chunks,
                                                monkeypatch):
        randomise_adapters(adapted_model)
        mono = many_chunks["test-mono-a"] + many_chunks["test-mono-b"]
        forks = counting_forks(monkeypatch)
        results = {}
        for cpus in (1, 2, 3):
            pin_cpus(monkeypatch, cpus)
            forks.clear()
            results[cpus] = (evaluate_model(adapted_model, many_chunks, micro_selection()),
                             evaluate_model(adapted_model, many_chunks),
                             training.decode_and_score(adapted_model, mono, False),
                             training.token_accuracy(adapted_model, mono, False))
            assert len(forks) == 4 * (cpus - 1)
            no_child_left()
        assert results[1] == results[2] == results[3]
        guided, plain, mono_report, _ = results[1]
        assert guided.mer == plain.mer and guided.lid_attribution > 0
        assert plain.lid_attribution is None
        assert mono_report.mer.tokens == {"mono-a": sum(len(u.words) for u in mono[:70]),
                                          "mono-b": sum(len(u.words) for u in mono[70:])}

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("in_child", [True, False], ids=["in-a-child", "in-the-parent"])
    def test_chunk_error_reaches_the_caller_and_no_child_is_left(
            self, adapted_model, many_chunks, monkeypatch, cpus, in_child):
        pin_cpus(monkeypatch, cpus)
        parent = os.getpid()
        real_decode = Seq2SeqModel.greedy_decode

        def failing(self, *args):
            if (os.getpid() != parent) == in_child:
                raise NumericError(f"chunk of {args[0].shape[0]} rows failed")
            return real_decode(self, *args)

        monkeypatch.setattr(Seq2SeqModel, "greedy_decode", failing)
        with pytest.raises(NumericError, match=r"chunk of \d+ rows failed"):
            evaluate_model(adapted_model, many_chunks, micro_selection())
        no_child_left()

    @pytest.mark.parametrize("exit_, status", [
        (lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit-3", "killed"])
    def test_child_without_a_result_is_named_with_its_status(self, monkeypatch, exit_,
                                                             status):
        pin_cpus(monkeypatch, 2)
        forks = counting_forks(monkeypatch)
        parent = os.getpid()

        def square(item):
            if os.getpid() != parent:
                exit_()
            return item * item

        with pytest.raises(ChildProcessError,
                           match=rf"worker (\d+) exited with status {status} and no result"
                           ) as caught:
            training._map_forked(square, [1, 2, 3])
        assert str(forks[0]) in str(caught.value)
        no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds by /proc")
    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        # the first fork starts a real child, the second is refused
        pin_cpus(monkeypatch, 3)
        real_fork = os.fork
        forked = []

        def fork():
            if forked:
                raise OSError(errno.EAGAIN, "fork refused")
            forked.append(True)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="fork refused"):
            training._map_forked(lambda item: -item, [1, 2, 3])
        no_child_left()
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_one_worker_per_cpu_and_item(self, monkeypatch):
        for cpus, items, workers in [(1, 5, 1), (2, 5, 2), (3, 2, 2), (4, 0, 1)]:
            pin_cpus(monkeypatch, cpus)
            assert training._worker_count(items) == workers
        monkeypatch.delattr(os, "fork")
        assert training._worker_count(5) == 1
        assert training._map_forked(lambda item: -item, [1, 2, 3]) == [-1, -2, -3]
