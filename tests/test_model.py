"""Transformer contracts: prompts, attention maps, adapters, causality."""

import numpy as np
import pytest

from agadapt.checkpoint import load_model, save_model
from agadapt.errors import DataError
from agadapt.model import (
    EN,
    EOT,
    LID_COLUMNS,
    ZH,
    ModelConfig,
    Seq2SeqModel,
    TokenSequence,
    Vocabulary,
    adapter_apply,
    build_prompt,
    is_adapter_param,
    parameter_shapes,
)
from agadapt.numerics import (
    OptimizerState,
    Tensor,
    adamw_step,
    backward,
    gelu,
    recording,
)

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build(10, 10)


@pytest.fixture(scope="module")
def small_config():
    return ModelConfig(enc_layers=2, dec_layers=2, heads=2, width=16,
                       ffn_width=32, bottleneck=4, feat_dim=8, max_len=32)


@pytest.fixture()
def model(small_config, vocab):
    return Seq2SeqModel(small_config, vocab, seed=0)


class TestVocabulary:
    def test_layout(self, vocab):
        assert vocab.size == 7 + 20
        assert vocab.string(0) == "<sot>"
        assert (vocab.string(ZH), vocab.string(EN)) == ("<zh>", "<en>")
        assert [vocab.string(i) for i in (6, 7, 16, 17, 26)] == [
            "<blnk>", "A00", "A09", "B00", "B09"]
        assert vocab.lang(7) == "A" and vocab.lang(17) == "B"
        assert vocab.lang(3) is None

    @pytest.mark.parametrize("n_a, n_b, lang", [(0, 3, "A"), (3, -1, "B")])
    def test_needs_a_word_per_language(self, n_a, n_b, lang):
        with pytest.raises(DataError, match=f"language {lang} needs at least one word"):
            Vocabulary.build(n_a, n_b)

    def test_word_partitions_disjoint(self, vocab):
        a = set(vocab.word_ids("A"))
        b = set(vocab.word_ids("B"))
        assert not (a & b)
        assert all(vocab.lang(i) == "A" for i in a)


class TestPrompt:
    def test_bilingual(self):
        prompt = build_prompt()
        assert prompt == [0, 1, 2, 3, 4]
        assert len(prompt) == 5

    def test_monolingual(self):
        assert build_prompt("A") == [0, 1, 3, 4]
        assert build_prompt("B") == [0, 2, 3, 4]
        assert len(build_prompt("A")) == 4


class TestTokenSequence:
    def test_bilingual_layout(self, vocab):
        y = TokenSequence.from_words(vocab, [7, 17])
        assert y.ids[:5] == build_prompt()
        assert [y.ids[c] for c in LID_COLUMNS] == [ZH, EN]
        assert y.lang_tags == [None] * 5 + ["A", "B"] + [None]
        assert y.ids[-1] == EOT

    def test_rejects_non_word(self, vocab):
        with pytest.raises(DataError):
            TokenSequence.from_words(vocab, [0])

    @pytest.mark.parametrize("lang", [None, "A", "B"])
    def test_from_ids_derives_the_tags(self, vocab, lang):
        y = TokenSequence.from_ids(vocab, build_prompt(lang) + [17, 18, 7, EOT])
        assert y.lang_tags == [None] * (y.n - 4) + ["B", "B", "A", None]
        assert TokenSequence.from_words(vocab, [17, 18, 7], lang) == y

    @pytest.mark.parametrize("ids, message", [
        ([7, 17, 5], "prompt"),                    # no prompt
        ([0, 1, 3, 4, 7, 17], "<eot>"),            # no end marker
        ([0, 1, 2, 3, 4], "<eot>"),                # the prompt alone
        ([0, 1, 2, 3, 4, 27, 5], "token 27"),      # past the vocabulary
        ([0, 1, 2, 3, 4, -3, 5], "token -3"),      # negative
        ([0, 1, 2, 3, 4, 7, 1, 5], "token 1"),     # a special token among the words
        ([0, 2, 1, 3, 4, 7, 5], "prompt"),         # LID tokens out of order
    ])
    def test_from_ids_rejects_other_layouts(self, vocab, ids, message):
        with pytest.raises(DataError, match=message):
            TokenSequence.from_ids(vocab, ids)

    def test_too_long_rejected(self, model, vocab):
        y = TokenSequence.from_words(vocab, [7] * (model.config.max_len - 5))
        assert y.n == model.config.max_len + 1
        with pytest.raises(DataError, match="too long"):
            model.forward(RNG.normal(size=(1, 4, 8)), np.array([y.ids]))


class TestAttentionContracts:
    def test_shapes_and_counts(self, model, vocab):
        frames = RNG.normal(size=(2, 6, 8))
        y = TokenSequence.from_words(vocab, [7, 17, 8])
        toks = np.array([y.ids, y.ids])
        out = model.forward(frames, toks)
        n, m = y.n, vocab.size
        assert out.logits.shape == (2, n, m)
        assert len(out.attention) == model.config.dec_layers
        assert out.attention[0].shape == (2, model.config.heads, n, n)

    def test_rows_stochastic_and_causally_masked(self, model, vocab):
        frames = RNG.normal(size=(1, 5, 8))
        y = TokenSequence.from_words(vocab, [7, 17])
        out = model.forward(frames, np.array([y.ids]))
        for maps in out.attention:
            a = maps.data
            assert np.all(np.abs(a.sum(-1) - 1.0) <= 1e-9)
            iu = np.triu_indices(y.n, k=1)
            assert np.all(a[:, :, iu[0], iu[1]] == 0.0)

    def test_causality_row_invariance(self, model, vocab):
        frames = RNG.normal(size=(1, 6, 8))
        y = TokenSequence.from_words(vocab, [7, 17, 8, 18])
        toks = np.array([y.ids])
        base = model.forward(frames, toks).logits.data[0]
        for pos in range(5, y.n):
            perturbed = toks.copy()
            perturbed[0, pos] = 9
            got = model.forward(frames, perturbed).logits.data[0]
            assert np.array_equal(got[:pos], base[:pos])

    def test_depth_stops_with_the_same_maps(self, model, vocab):
        frames = RNG.normal(size=(2, 6, 8))
        mask = np.array([[True] * 6, [True] * 4 + [False] * 2])
        y = TokenSequence.from_words(vocab, [7, 17, 8])
        toks = np.array([y.ids, y.ids])
        model.init_adapters(seed=3)
        memory, col_mask = model.encode(frames, mask)
        _, full = model._decode_rows(toks, memory, col_mask)
        for depth in range(1, model.config.dec_layers + 1):
            proj, maps = model._decode_rows(toks, memory, col_mask, depth=depth)
            assert proj is None and len(maps) == depth
            for got, want in zip(maps, full):
                assert np.array_equal(got.data, want.data)

    def test_sequence_too_long_errors(self, model, vocab):
        frames = RNG.normal(size=(1, 40, 8))
        y = TokenSequence.from_words(vocab, [7])
        with pytest.raises(DataError, match="too long"):
            model.forward(frames, np.array([y.ids]))


class TestAdapters:
    def test_adapter_apply_zero_up_is_identity(self):
        x = Tensor(RNG.normal(size=(3, 6)))
        down_w = Tensor(RNG.normal(size=(6, 2)))
        down_b = Tensor(RNG.normal(size=2))
        out = adapter_apply(x, down_w, down_b, Tensor(np.zeros((2, 6))),
                            Tensor(np.zeros(6)))
        assert np.array_equal(out.data, x.data)

    def test_adapter_apply_identity_projections(self):
        # width-sized bottleneck with identity maps doubles gelu-linear part
        x = Tensor(RNG.normal(size=(2, 4)))
        eye = Tensor(np.eye(4))
        zero = Tensor(np.zeros(4))
        out = adapter_apply(x, eye, zero, eye, zero)
        expected = x.data + gelu(Tensor(x.data)).data
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_adapter_apply_matches_direct_matrices(self):
        x = RNG.normal(size=(5, 8))
        dw = RNG.normal(size=(8, 2))
        db = RNG.normal(size=2)
        uw = RNG.normal(size=(2, 8))
        ub = RNG.normal(size=8)
        got = adapter_apply(Tensor(x), Tensor(dw), Tensor(db), Tensor(uw),
                            Tensor(ub)).data
        hidden = x @ dw + db
        hidden = gelu(Tensor(hidden)).data
        expected = x + hidden @ uw + ub
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_init_preserves_function_bitwise(self, model, vocab):
        frames = RNG.normal(size=(2, 6, 8))
        y = TokenSequence.from_words(vocab, [7, 17])
        toks = np.array([y.ids, y.ids])
        before = model.forward(frames, toks).logits.data
        model.init_adapters(seed=3)
        after = model.forward(frames, toks).logits.data
        assert np.array_equal(before, after)

    def test_trainable_fraction_matches_enumeration(self, model):
        model.init_adapters(seed=3)
        c = model.config
        per_insertion = 2 * c.width * c.bottleneck + c.width + c.bottleneck
        insertions = 2 * (c.enc_layers + c.dec_layers)
        enumerated = sum(p.data.size for n, p in model.params.items()
                         if is_adapter_param(n))
        assert enumerated == per_insertion * insertions
        # the paper's ratio: adapter parameters over the backbone's, not over all
        backbone = sum(p.data.size for p in model.params.values()) - enumerated
        assert model.adapter_summary() == (f"{enumerated:,} ({enumerated / backbone:.1%} "
                                           f"of the backbone)")

    def test_freezing_after_optimizer_steps(self, model, vocab):
        model.init_adapters(seed=3)
        model.freeze_backbone()
        backbone_before = {n: p.data.copy() for n, p in model.params.items()
                           if not is_adapter_param(n)}
        frames = RNG.normal(size=(2, 5, 8))
        y = TokenSequence.from_words(vocab, [7, 17])
        toks = np.array([y.ids, y.ids])
        params = model.adapter_params()
        adapters_before = {n: p.data.copy() for n, p in params.items()}
        state = OptimizerState(lr=1e-2, weight_decay=0.01)
        for _ in range(3):
            with recording(params.values()):
                out = model.forward(frames, toks)
                loss = (out.logits * out.logits).sum()
                grads = backward(loss, params.values())
            adamw_step(state, params, grads)
        for name, before in backbone_before.items():
            assert np.array_equal(model.params[name].data, before), name
        assert any(not np.array_equal(model.params[n].data, adapters_before[n])
                   for n in params)

    def test_double_init_rejected(self, model):
        model.init_adapters(seed=3)
        with pytest.raises(DataError):
            model.init_adapters(seed=4)


def next_logits(model, frames, toks, frame_mask=None):
    """Scores of the token after the whole of `toks`: the last row of a full
    teacher-forced decoder pass's output projection."""
    memory, col_mask = model.encode(frames, frame_mask)
    proj, _ = model._decode_rows(toks, memory, col_mask)
    return proj.data[:, -1]


def full_forward_greedy(model, frames, frame_mask, prompt_ids, max_new=None):
    """Reference greedy loop: one full teacher-forced forward of the whole
    prefix per emitted token. Returns the content token lists and the
    next-token logits of every step."""
    limit = model.config.max_len - len(prompt_ids)
    if max_new is not None:
        limit = min(limit, max_new)
    toks = np.tile(np.asarray(prompt_ids, dtype=np.int64), (frames.shape[0], 1))
    done = np.zeros(frames.shape[0], dtype=bool)
    steps = []
    for _ in range(limit):
        logits = next_logits(model, frames, toks, frame_mask)
        steps.append(logits)
        nxt = np.where(done, EOT, logits.argmax(axis=-1))
        toks = np.concatenate([toks, nxt[:, None]], axis=1)
        done |= nxt == EOT
        if done.all():
            break
    hyps = []
    for row in toks[:, len(prompt_ids):]:
        ends = np.flatnonzero(row == EOT)
        hyps.append([int(t) for t in row[:ends[0] if ends.size else row.size]])
    return hyps, steps


def recorded_greedy(model, frames, frame_mask, prompt_ids, max_new=None):
    """`greedy_decode` plus the next-token logits of each of its decoder steps."""
    steps = []
    decode_rows = model._decode_rows

    def recording(*args, **kwargs):
        proj, maps = decode_rows(*args, **kwargs)
        steps.append(proj.data[:, -1].copy())
        return proj, maps

    model._decode_rows = recording
    try:
        hyps = model.greedy_decode(*model.encode(frames, frame_mask), prompt_ids, max_new)
    finally:
        del model._decode_rows
    return hyps, steps


def assert_decode_matches_oracle(model, frames, frame_mask, prompt_ids, max_new=None):
    hyps, steps = recorded_greedy(model, frames, frame_mask, prompt_ids, max_new)
    want_hyps, want_steps = full_forward_greedy(model, frames, frame_mask,
                                                prompt_ids, max_new)
    assert hyps == want_hyps
    assert len(steps) == len(want_steps)
    for got, want in zip(steps, want_steps):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    return hyps


class TestGreedyDecode:
    def test_decode_terminates_and_strips(self, model):
        frames = RNG.normal(size=(3, 6, 8))
        mask = np.ones((3, 6), dtype=bool)
        out = model.greedy_decode(*model.encode(frames, mask), build_prompt())
        assert len(out) == 3
        for row in out:
            assert len(row) <= model.config.max_len
            assert EOT not in row

    @pytest.mark.parametrize("lang", [None, "A", "B"])
    def test_matches_full_forward_per_prompt(self, model, lang):
        frames = RNG.normal(size=(3, 6, 8))
        mask = np.ones((3, 6), dtype=bool)
        assert_decode_matches_oracle(model, frames, mask, build_prompt(lang))

    def test_matches_with_active_adapters(self, model):
        frames = RNG.normal(size=(3, 6, 8))
        prompt = build_prompt()
        toks = np.tile(prompt, (3, 1))
        off = next_logits(model, frames, toks)
        model.init_adapters(seed=3)
        rng = np.random.default_rng(4)
        for name, p in model.adapter_params().items():
            if ".up." in name:
                p.data = rng.normal(0.0, 0.1, p.data.shape)
        on = next_logits(model, frames, toks)
        assert not np.array_equal(on, off)  # the adapters change the function
        assert_decode_matches_oracle(model, frames, None, prompt)

    def test_matches_without_lid_prior(self, small_config, vocab):
        config = ModelConfig(**{**small_config.__dict__, "anchored_heads": 0})
        model = Seq2SeqModel(config, vocab, seed=5)
        toks = np.array([build_prompt()])
        assert all(model._lid_prior(toks, layer) is None for layer in range(2))
        frames = RNG.normal(size=(2, 6, 8))
        assert_decode_matches_oracle(model, frames, None, build_prompt())

    def test_matches_with_padded_frames(self, model):
        frames = RNG.normal(size=(3, 7, 8))
        mask = np.ones((3, 7), dtype=bool)
        mask[1, 4:] = False
        mask[2, 2:] = False
        frames[~mask] = 0.0
        assert_decode_matches_oracle(model, frames, mask, build_prompt())

    def test_matches_with_max_new(self, model):
        frames = RNG.normal(size=(2, 6, 8))
        hyps = assert_decode_matches_oracle(model, frames, None, build_prompt(),
                                            max_new=3)
        assert all(len(h) <= 3 for h in hyps)

    def test_matches_when_rows_finish_early(self, model):
        # a raised <eot> bias makes some rows stop while others run on
        model.params["dec.out_proj.bias"].data[EOT] = 0.09
        frames = np.random.default_rng(7).normal(size=(6, 7, 8))
        mask = np.ones((6, 7), dtype=bool)
        mask[1, 5:] = False
        mask[3, 3:] = False
        hyps = assert_decode_matches_oracle(model, frames, mask, build_prompt())
        assert len({len(h) for h in hyps}) > 1

    # frames are validated where they enter, in `encode`
    def test_rejects_frames_longer_than_max_len(self, model, vocab):
        frames = RNG.normal(size=(2, model.config.max_len + 1, 8))
        with pytest.raises(DataError, match="too long"):
            model.encode(frames, None)

    def test_rejects_wrong_feature_dimension(self, model, vocab):
        frames = RNG.normal(size=(2, 6, 5))
        with pytest.raises(DataError, match="feature dimension"):
            model.encode(frames, None)

    def test_rejects_malformed_frame_inputs(self, model, vocab):
        with pytest.raises(DataError, match="frame mask shape"):
            model.encode(RNG.normal(size=(2, 6, 8)), np.ones((2, 5), dtype=bool))
        with pytest.raises(DataError, match="frames must have shape"):
            model.encode(RNG.normal(size=(1, 2, 6, 8)), None)

    def test_rejects_frames_in_place_of_memory(self, model):
        frames = Tensor(RNG.normal(size=(2, 6, 8)))
        with pytest.raises(DataError, match="output of encode"):
            model.greedy_decode(frames, None, build_prompt())


class TestLoadState:
    @pytest.mark.parametrize("adapters", [False, True])
    def test_rebuilt_from_its_state_equals_it(self, model, small_config, vocab, adapters):
        if adapters:
            model.init_adapters(seed=3)
            for p in model.params.values():  # nonzero up-projections too
                p.data = RNG.normal(size=p.data.shape)
        assert list(parameter_shapes(small_config, vocab.size, adapters).items()) == \
            [(name, p.data.shape) for name, p in model.params.items()]
        state = model.state_dict()
        clone = Seq2SeqModel(small_config, vocab, state=state)
        assert clone.has_adapters == adapters
        assert list(clone.params) == list(model.params)
        for name, p in model.params.items():
            assert clone.params[name].data.tobytes() == p.data.tobytes(), name
            state[name] += 1.0  # the clone holds copies
            assert clone.params[name].data.tobytes() == p.data.tobytes(), name

    @pytest.mark.parametrize("adapters", [False, True])
    def test_load_model_draws_no_random_number(self, model, tmp_path, monkeypatch,
                                               adapters):
        if adapters:
            model.init_adapters(seed=3)
        path = tmp_path / "model.ckpt"
        save_model(path, model)

        def no_draw(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        clone = load_model(path)
        assert list(clone.params) == list(model.params)
        for name, p in model.params.items():
            assert clone.params[name].data.tobytes() == p.data.tobytes(), name

    def test_round_trips_its_own_state(self, model, small_config, vocab):
        clone = Seq2SeqModel(small_config, vocab, seed=5)
        clone.load_state(model.state_dict())
        for name, p in model.params.items():
            assert np.array_equal(clone.params[name].data, p.data), name

    def test_rejects_entries_the_model_lacks(self, model):
        state = {**model.state_dict(), "bogus": np.zeros(3), "also.bogus": np.zeros(1)}
        with pytest.raises(DataError, match="lacks: also.bogus, bogus"):
            model.load_state(state)

    def test_rejects_missing_and_misshapen_entries(self, model):
        state = model.state_dict()
        del state["enc.in_proj.weight"]
        with pytest.raises(DataError, match="missing parameter 'enc.in_proj.weight'"):
            model.load_state(state)
        state = {**model.state_dict(), "enc.in_proj.bias": np.zeros(1)}
        with pytest.raises(DataError, match="shape mismatch for 'enc.in_proj.bias'"):
            model.load_state(state)

    def test_rejected_state_changes_nothing(self, model, small_config, vocab):
        # the bad entry, misshapen or non-finite, is the last parameter, so
        # every other would already be overwritten by a load that checks as
        # it goes
        before = model.state_dict()
        state = Seq2SeqModel(small_config, vocab, seed=5).state_dict()
        last = list(model.params)[-1]
        for bad, message in ((np.zeros(1), "shape mismatch for"),
                             (np.full(state[last].shape, np.nan), "non-finite value in")):
            with pytest.raises(DataError, match=f"{message} '{last}'"):
                model.load_state({**state, last: bad})
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
