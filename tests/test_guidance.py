"""Head statistics over batched attention maps and token sequences: the
language indicator and head counts, selection, the guidance goal, the AG
loss and LID attribution. The batched functions are checked against
per-utterance oracles, the loops they replaced, kept here."""

import dataclasses
import json
from collections import namedtuple

import numpy as np
import pytest

from agadapt.errors import ConfigError, DataError, NumericError
from agadapt.guidance import (
    STRATEGIES,
    HeadSelection,
    ag_loss,
    candidate_heads,
    count_and_select,
    count_heads,
    lid_attribution,
    lid_counts,
    load_head_selection,
    random_heads,
    save_head_selection,
)
from agadapt.model import (
    EN,
    EOT,
    LANG_A,
    LANG_B,
    LID_COLUMNS,
    PROMPTS,
    ZH,
    ModelConfig,
    TokenSequence,
    Vocabulary,
)
from agadapt.numerics import Parameter, Tensor, backward, finite_diff_grad, recording
from agadapt.training import TrainConfig

RNG = np.random.default_rng(77)


def sequence(n, tags=None):
    """A length-n sequence that opens with the bilingual prompt (cut short
    when n < 5), with the per-row language `tags` (default: no word rows).
    The statistics read a sequence's length, tags and LID-column ids only, so
    its ids past the prompt are placeholders."""
    return TokenSequence(ids=(list(PROMPTS[None]) + [EOT] * n)[:n],
                         lang_tags=list(tags or [None] * n))


def lid_positions(seq):
    """The positions of <zh> and <en> in `seq`."""
    return seq.ids.index(ZH), seq.ids.index(EN)


def random_stochastic(n, rng):
    m = rng.random((n, n)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def brute_force_indicator(a, omega):
    """Two explicit loops, kept deliberately separate from the implementation."""
    lid = 0.0
    rest = 0.0
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if j in omega:
                lid += a[i, j]
            else:
                rest += a[i, j]
    return 1 if lid > rest else 0


def pad_batch(maps_per_utterance, rng=RNG):
    """Per-utterance {(layer, head): (n, n) map} dicts as per-layer
    (B, H, N, N) maps plus one length-n sequence each. Padding rows hold junk that is not even
    stochastic, so a batched statistic that reads them fails its oracle;
    padding columns of valid rows are 0, as the causal mask leaves them."""
    heads = sorted(maps_per_utterance[0])
    layers = max(l for l, _ in heads) + 1
    per_layer = max(h for _, h in heads) + 1
    lengths = [next(iter(m.values())).shape[0] for m in maps_per_utterance]
    n = max(lengths)
    attention = [rng.random((len(lengths), per_layer, n, n)) * 3.0 for _ in range(layers)]
    for i, maps in enumerate(maps_per_utterance):
        for (layer, head), a in maps.items():
            attention[layer][i, head, :lengths[i], :] = 0.0
            attention[layer][i, head, :lengths[i], :lengths[i]] = a
    return attention, [sequence(n) for n in lengths]


def as_batches(maps_per_utterance, size=3):
    return [pad_batch(maps_per_utterance[i:i + size])
            for i in range(0, len(maps_per_utterance), size)]


def indicator(a):
    """`lid_counts` on a batch holding the single map `a`."""
    return int(lid_counts([np.asarray(a)[None, None]], [sequence(len(a))])[0, 0])


# ---------------------------------------------------------------------------
# Per-utterance oracles
# ---------------------------------------------------------------------------

def oracle_counts(maps_per_utterance, omega):
    """The per-map indicator loop over every head of every utterance."""
    counts = {h: 0 for h in sorted(maps_per_utterance[0])}
    for maps in maps_per_utterance:
        for head, a in maps.items():
            lid_mass = a[:, list(omega)].sum()
            counts[head] += int(lid_mass > a.sum() - lid_mass)
    return counts


Target = namedtuple("Target", "n omega matrix")


def oracle_target(seq, c=0.6):
    """The per-utterance guidance target that the batched goal replaced:
    row i holds the (zh-column, en-column) targets, c on a word row's own
    language's column and 0 elsewhere."""
    matrix = np.zeros((seq.n, 2))
    for i, tag in enumerate(seq.lang_tags):
        if tag == LANG_A:
            matrix[i, 0] = c
        elif tag == LANG_B:
            matrix[i, 1] = c
    return Target(n=seq.n, omega=lid_positions(seq), matrix=matrix)


def oracle_ag_loss(maps, selection, target):
    """One utterance's guidance loss as a chain of slice, subtract, multiply
    and sum nodes over its (n, n) maps, keyed by head."""
    total = None
    for head in selection.selected:
        diff = maps[head][:, list(target.omega)] - Tensor(target.matrix)
        term = (diff * diff).sum()
        total = term if total is None else total + term
    return total


def oracle_attribution(maps_per_utterance, sequences, selection):
    """The per-utterance, per-word-token attribution loop."""
    correct = total = 0
    for maps, seq in zip(maps_per_utterance, sequences):
        acc = np.zeros((seq.n, seq.n))
        for head in selection.selected:
            acc += maps[head]
        acc /= len(selection.selected)
        zh_col, en_col = lid_positions(seq)
        for pos in seq.word_positions:
            predicted = "A" if acc[pos, zh_col] >= acc[pos, en_col] else "B"
            correct += int(predicted == seq.lang_tags[pos])
            total += 1
    return correct, total


def random_dataset(rng, lengths, layers=2, heads=3):
    """Random per-utterance maps; about half are sharpened toward the LID
    columns so that both indicator outcomes appear."""
    data = []
    for n in lengths:
        maps = {}
        for head in [(l, h) for l in range(layers) for h in range(heads)]:
            a = random_stochastic(n, rng)
            if rng.random() < 0.5:
                a[:, list(LID_COLUMNS)] += rng.random() * 4
                a /= a.sum(axis=1, keepdims=True)
            maps[head] = a
        data.append(maps)
    return data


class TestLidIndicator:
    def test_uniform_map_is_zero(self):
        a = np.full((6, 6), 1 / 6)
        assert indicator(a) == 0

    def test_onehot_lid_column_is_one(self):
        a = np.zeros((5, 5))
        a[:, 1] = 1.0
        assert indicator(a) == 1

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_stochastic(8, rng)
            # sharpen some maps so both indicator outcomes appear
            if rng.random() < 0.5:
                a[:, [1, 2]] += rng.random() * 4
                a = a / a.sum(axis=1, keepdims=True)
            assert indicator(a) == brute_force_indicator(a, (1, 2))

    def test_rejects_non_stochastic(self):
        a = np.full((3, 3), 0.5)
        with pytest.raises(NumericError):
            indicator(a)

    def test_rejects_sequence_without_bilingual_prompt(self):
        vocab = Vocabulary.build(4, 4)
        mono = TokenSequence.from_words(vocab, [vocab.word_ids("A")[0]], "A")
        a = np.full((mono.n, mono.n), 1 / mono.n)
        with pytest.raises(DataError, match="bilingual prompt"):
            lid_counts([a[None, None]], [mono])
        with pytest.raises(DataError):  # two sequences for a batch of one
            lid_counts([a[None, None]], [sequence(mono.n)] * 2)

    def test_invariant_under_non_lid_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_stochastic(7, rng)
            non_lid = [j for j in range(7) if j not in LID_COLUMNS]
            perm = list(rng.permutation(non_lid))
            cols = list(range(7))
            for src, dst in zip(non_lid, perm):
                cols[src] = dst
            assert indicator(a) == indicator(a[:, cols])

    def test_non_stochastic_padding_row_is_ignored(self):
        # the junk rows of a shorter sequence are not checked, but its
        # valid rows are
        attention, seqs = pad_batch([{(0, 0): np.full((4, 4), 0.25)},
                                     {(0, 0): np.eye(3)[[0, 0, 0]]}])
        assert lid_counts(attention, seqs).tolist() == [[0]]
        attention[0][1, 0, 1, 0] = 0.9
        with pytest.raises(NumericError):
            lid_counts(attention, seqs)


class TestCountAndSelect:
    def _dataset(self, indicator_plan):
        """indicator_plan: head -> list of 0/1 per utterance; returns
        (attention, lengths) batches of up to three utterances."""
        heads = sorted(indicator_plan)
        n_utts = len(next(iter(indicator_plan.values())))
        data = []
        for i in range(n_utts):
            maps = {}
            for head in heads:
                a = np.zeros((6, 6))
                if indicator_plan[head][i]:
                    a[:, 1] = 1.0  # all mass on an LID column
                else:
                    a[:, 0] = 1.0
                maps[head] = a
            data.append(maps)
        return as_batches(data)

    def test_example_counts(self):
        # layer 0 holds the top count, but only layers 1 and up are candidates
        plan = {
            (0, 0): [1] * 9 + [0] * 1,
            (0, 1): [1] * 5 + [0] * 5,
            (1, 0): [1] * 7 + [0] * 3,
            (1, 1): [1] * 1 + [0] * 9,
            (2, 0): [1] * 8 + [0] * 2,
            (2, 1): [1] * 6 + [0] * 4,
        }
        sel = count_and_select(self._dataset(plan), fraction=1.0)
        assert sel.counts == {(0, 0): 9, (0, 1): 5, (1, 0): 7, (1, 1): 1,
                              (2, 0): 8, (2, 1): 6}
        assert sel.dataset_size == 10
        assert sel.selected == [(2, 0), (1, 0), (2, 1)]
        assert count_and_select(self._dataset(plan), fraction=0.6).selected == [(2, 0), (1, 0)]

    def test_tie_break_layer_head_order(self):
        plan = {(l, h): [1, 1, 0] for l in range(3) for h in range(2)}
        sel = count_and_select(self._dataset(plan), fraction=0.5)
        assert sel.selected == [(1, 0), (1, 1)]
        assert candidate_heads(sel.counts) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_fraction_uses_qualifying_majority(self):
        # 10 utterances; candidate counts 9, 7, 5, 1 -> qualifying (count > 5):
        # two heads; layer 0 clears the bar but is no candidate
        plan = {
            (0, 0): [1] * 9 + [0],
            (0, 1): [1] * 8 + [0] * 2,
            (1, 0): [1] * 9 + [0],
            (1, 1): [1] * 7 + [0] * 3,
            (2, 0): [1] * 5 + [0] * 5,
            (2, 1): [1] + [0] * 9,
        }
        sel = count_and_select(self._dataset(plan), fraction=0.5)
        assert sel.qualifying == [(1, 0), (1, 1)]
        assert sel.selected == [(1, 0)]

    def test_layer_zero_heads_never_selected(self):
        # every strategy draws from the candidates, whatever layer 0 counts
        plan = {(0, 0): [1] * 4, (0, 1): [1] * 4, (1, 0): [1] * 3 + [0],
                (1, 1): [0] * 4}
        sel = count_and_select(self._dataset(plan), fraction=1.0)
        assert sel.counts[(0, 0)] == 4 and sel.qualifying == [(1, 0)]
        assert sel.selected == [(1, 0)]
        assert candidate_heads(sel.counts) == [(1, 0), (1, 1)]
        for seed in range(5):
            assert random_heads(sel.counts, 2, seed) == [(1, 0), (1, 1)]
            assert random_heads(sel.counts, 1, seed)[0][0] == 1

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            count_and_select(iter(()), fraction=1.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_rejects_fraction_out_of_range(self, fraction):
        data = self._dataset({(0, 0): [1], (1, 0): [1]})
        with pytest.raises(ConfigError, match="fraction"):
            count_and_select(data, fraction=fraction)

    @pytest.mark.parametrize("kwargs, match", [
        ({"fraction": 2.0}, "fraction"), ({"strategy": "best"}, "strategy must be one of"),
        ({"seed": -1}, "seed must be non-negative"),
    ], ids=["fraction", "strategy", "seed"])
    def test_arguments_checked_before_any_batch_is_read(self, kwargs, match):
        def batches():
            raise AssertionError("a batch was read")
            yield

        with pytest.raises(ConfigError, match=match):
            count_and_select(batches(), **{"fraction": 1.0, **kwargs})

    # 10 utterances: candidate counts (1, 0) 9, (2, 1) 8, (1, 1) 7, (2, 0) 6,
    # (1, 2) 3, (2, 2) 1, so four of the six candidates qualify
    PIN_PLAN = {
        (0, 0): [1] * 9 + [0] * 1, (0, 1): [1] * 8 + [0] * 2, (0, 2): [1] * 2 + [0] * 8,
        (1, 0): [1] * 9 + [0] * 1, (1, 1): [1] * 7 + [0] * 3, (1, 2): [1] * 3 + [0] * 7,
        (2, 0): [1] * 6 + [0] * 4, (2, 1): [1] * 8 + [0] * 2, (2, 2): [1] * 1 + [0] * 9,
    }
    EVERY = [(1, 0), (2, 1), (1, 1), (2, 0), (1, 2), (2, 2)]
    # regression pins: the selection of seeds 0-4 for each (strategy,
    # fraction); [] where `select_heads` raises "no heads selected"
    PINNED = {
        ("top", 0.0): [[]] * 5,
        ("top", 0.5): [[(1, 0), (2, 1)]] * 5,
        ("top", 1.0): [[(1, 0), (2, 1), (1, 1), (2, 0)]] * 5,
        ("all", 0.0): [EVERY] * 5,
        ("all", 0.5): [EVERY] * 5,
        ("all", 1.0): [EVERY] * 5,
        ("random", 0.0): [[]] * 5,
        ("random", 0.5): [[(2, 0), (2, 1)], [(1, 2), (2, 0)], [(1, 1), (2, 1)],
                          [(1, 0), (2, 1)], [(2, 0), (2, 2)]],
        ("random", 1.0): [[(1, 1), (1, 2), (2, 0), (2, 1)], [(1, 1), (1, 2), (2, 0), (2, 2)],
                          [(1, 0), (1, 1), (1, 2), (2, 2)], [(1, 0), (1, 1), (1, 2), (2, 1)],
                          [(1, 2), (2, 0), (2, 1), (2, 2)]],
    }

    @pytest.mark.parametrize("strategy, fraction", sorted(PINNED))
    def test_strategy_table_matches_pinned_selections(self, strategy, fraction):
        batches = self._dataset(self.PIN_PLAN)
        for seed, want in enumerate(self.PINNED[(strategy, fraction)]):
            assert count_and_select(batches, fraction, strategy, seed).selected == want

    def test_random_draws_as_many_heads_as_top_keeps(self):
        # a size-matched ablation: only which heads are guided differs
        batches = self._dataset(self.PIN_PLAN)
        for fraction in [i / 20 for i in range(21)]:
            kept = len(count_and_select(batches, fraction, "top").selected)
            for seed in range(3):
                assert len(count_and_select(batches, fraction, "random", seed).selected) == kept

    def test_every_strategy_is_pinned(self):
        assert {strategy for strategy, _ in self.PINNED} == set(STRATEGIES)

    def test_selection_is_frozen(self):
        sel = count_and_select(self._dataset(self.PIN_PLAN), fraction=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sel.selected = []

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data = as_batches([{(l, h): random_stochastic(6, rng) for l in range(2)
                            for h in range(3)} for _ in range(12)])
        a = count_and_select(data, fraction=1.0)
        b = count_and_select(data, fraction=1.0)
        assert a.counts == b.counts and a.selected == b.selected

    def test_counts_match_oracle_on_padded_batches(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, rng.integers(5, 10, size=23))
        batches = as_batches(data, size=8)
        assert any(len({s.n for s in seqs}) > 1 for _, seqs in batches)  # padded rows
        want = oracle_counts(data, LID_COLUMNS)
        assert len(set(want.values())) > 1
        counted = count_heads(batches)
        assert counted.counts == want
        assert counted.dataset_size == len(data) and counted.selected == []
        for fraction in (1.0, 0.5, 0.0):
            sel = count_and_select(batches, fraction=fraction)
            top = round(fraction * len(counted.qualifying))
            assert sel.counts == want
            assert sel.selected == candidate_heads(want)[:top]

    def test_inconsistent_head_sets_error(self):
        batches = [pad_batch([{(0, 0): np.eye(3)}]),
                   pad_batch([{(0, 0): np.eye(3), (0, 1): np.eye(3)}])]
        with pytest.raises(DataError, match="inconsistent"):
            count_heads(batches)

    def test_random_selection_seeded(self):
        counts = {(l, h): 0 for l in range(2) for h in range(4)}
        a = random_heads(counts, 2, seed=3)
        assert a == random_heads(counts, 2, seed=3)
        assert len(a) == 2  # 2 of the 4 candidates of layer 1
        assert all(layer == 1 for layer, _ in a)


# two decoder layers of three heads
CHECK_CONFIG = ModelConfig(enc_layers=1, dec_layers=2, heads=3, width=12, ffn_width=24,
                           bottleneck=3, feat_dim=6, max_len=32)


class TestCheck:
    @pytest.mark.parametrize("selected, guided, error, match", [
        ([], False, ConfigError, "head selection is empty"),
        ([], True, ConfigError, "head selection is empty"),
        ([(1, 0), (2, 0)], False, DataError, r"selected head \(2, 0\) missing from the model, "
         "which has 2 decoder layers of 3 heads"),
        ([(1, 3)], True, DataError, r"selected head \(1, 3\) missing"),
        ([(-1, 0)], False, DataError, r"selected head \(-1, 0\) missing"),
        ([(1, -1)], False, DataError, r"selected head \(1, -1\) missing"),
        ([(1, 2), (0, 1)], True, ConfigError, r"heads \[\(0, 1\)\] cannot be guided"),
    ], ids=["empty", "empty-guided", "layer-past-model", "head-past-model", "negative-layer",
            "negative-head", "layer-0-guided"])
    def test_rejects(self, selected, guided, error, match):
        with pytest.raises(error, match=match):
            make_selection(selected).check(CHECK_CONFIG, guided=guided)

    @pytest.mark.parametrize("selected, guided", [
        ([(0, 1), (1, 2)], False), ([(1, 0), (1, 2), (1, 0)], True),
    ], ids=["layer-0-unguided", "guided"])
    def test_accepts(self, selected, guided):
        make_selection(selected).check(CHECK_CONFIG, guided=guided)


def goal_of(seq, c):
    """The (n, 2) goal that `ag_loss` sets on the LID columns of `seq`'s rows:
    at an all-zero map, its gradient there is 2 (0 - goal)."""
    a = Parameter("a", np.zeros((1, 1, seq.n, seq.n)))
    with recording([a]):
        grad = backward(ag_loss([a], [seq], make_selection([(0, 0)]), c), [a])["a"][0, 0]
    return grad[:, list(LID_COLUMNS)] / -2.0


class TestGuidanceTarget:
    def setup_method(self):
        self.vocab = Vocabulary.build(4, 4)

    def test_seven_token_golden(self):
        word_a = self.vocab.word_ids("A")[0]
        word_b = self.vocab.word_ids("B")[0]
        y = TokenSequence.from_words(self.vocab, [word_a, word_b])
        # ids: <sot> <zh> <en> <trans> <nots> wordA wordB <eot>
        assert [y.ids[c] for c in LID_COLUMNS] == [ZH, EN]
        g = np.zeros((y.n, y.n))
        g[:, [1, 2]] = goal_of(y, 0.6)
        assert g[5, 1] == 0.6 and g[5, 2] == 0.0
        assert g[6, 1] == 0.0 and g[6, 2] == 0.6
        assert np.all(g[0:5] == 0.0)
        assert np.all(g[7] == 0.0)  # end marker row
        assert np.array_equal(goal_of(y, 0.6), oracle_target(y).matrix)

    def test_all_language_a(self):
        words = self.vocab.word_ids("A")[:3]
        y = TokenSequence.from_words(self.vocab, words)
        word_rows = goal_of(y, 0.7)[5:5 + 3]
        assert np.all(word_rows[:, 0] == 0.7) and np.all(word_rows[:, 1] == 0.0)

    @pytest.mark.parametrize("c", [0.5, 1.0, 0.0, 1.3])
    def test_soft_label_open_interval(self, c):
        # c is checked once, where a run's config is read
        with pytest.raises(ConfigError, match="soft label"):
            TrainConfig(c=c)


def make_selection(selected, n_heads=(2, 2)):
    counts = {(l, h): 0 for l in range(n_heads[0]) for h in range(n_heads[1])}
    return HeadSelection(counts=counts, dataset_size=1, selected=list(selected))


def one_map(a):
    """The per-layer attention of a batch holding the single map `a` as head (0, 0)."""
    return [a[None, None] if isinstance(a, np.ndarray) else a.reshape(1, 1, *a.shape)]


def random_sequences(rng, lengths):
    """Sequences of `lengths` whose rows past the five prompt rows are word
    rows of random language."""
    seqs = []
    for n in lengths:
        words = rng.integers(0, 2, size=n)
        seqs.append(sequence(n, [None] * 5 + [(LANG_A, LANG_B)[w] for w in words[5:]]))
    return seqs


class TestAgLoss:
    def setup_method(self):
        self.vocab = Vocabulary.build(4, 4)
        word_a = self.vocab.word_ids("A")[0]
        self.y = TokenSequence.from_words(self.vocab, [word_a])
        self.target = oracle_target(self.y, 0.6)

    def _matching_map(self):
        n = self.y.n
        a = np.zeros((n, n))
        a[:, [1, 2]] = self.target.matrix
        # park the rest of each row's mass away from the LID columns
        a[:, 0] = 1.0 - a[:, 1] - a[:, 2]
        return a

    def _loss(self, maps, selected):
        return ag_loss(maps, [self.y], make_selection(selected), 0.6)

    def test_exact_match_is_zero(self):
        assert self._loss(one_map(self._matching_map()), [(0, 0)]).item() == 0.0

    def test_direct_summation_example(self):
        # one head, N=3, one guided column with targets [0, .6, .6] vs [.2, .7, .1]
        seq = sequence(3, [None, LANG_A, LANG_A])
        a = np.zeros((3, 3))
        a[:, 1] = [0.2, 0.7, 0.1]
        sel = make_selection([(0, 0)], n_heads=(1, 1))
        loss = ag_loss(one_map(a), [seq], sel, 0.6)
        assert loss.item() == pytest.approx(0.04 + 0.01 + 0.25, abs=1e-12)

    def test_duplicate_head_doubles(self):
        rng = np.random.default_rng(4)
        a = one_map(random_stochastic(self.y.n, rng))
        once = self._loss(a, [(0, 0)]).item()
        twice = self._loss(a, [(0, 0), (0, 0)]).item()
        assert twice == pytest.approx(2 * once, rel=1e-12)

    def test_non_lid_columns_get_zero_gradient(self):
        n = self.y.n
        rng = np.random.default_rng(8)
        a = Parameter("a", random_stochastic(n, rng)[None, None])
        with recording([a]):
            loss = self._loss([a], [(0, 0)])
            grad = backward(loss, [a])["a"][0, 0]
        non_lid = [j for j in range(n) if j not in (1, 2)]
        assert np.all(grad[:, non_lid] == 0.0)
        assert np.any(grad[:, [1, 2]] != 0.0)

    def test_rejects_mismatched_targets(self):
        rng = np.random.default_rng(3)
        maps = one_map(random_stochastic(8, rng))
        sel = make_selection([(0, 0)])
        with pytest.raises(DataError):  # longer than the map
            ag_loss(maps, random_sequences(rng, [9]), sel, 0.6)
        with pytest.raises(DataError):  # one sequence for a batch of two
            ag_loss([np.concatenate([maps[0], maps[0]])], random_sequences(rng, [8]), sel, 0.6)
        mono = TokenSequence.from_words(self.vocab, [self.vocab.word_ids("A")[0]] * 3, "A")
        assert mono.n == 8
        with pytest.raises(DataError, match="bilingual prompt"):
            ag_loss([np.concatenate([maps[0], maps[0]])],
                    random_sequences(rng, [8]) + [mono], sel, 0.6)

    def test_batch_matches_per_utterance_sum(self):
        rng = np.random.default_rng(11)
        lengths = [9, 6, 11, 7]
        data = random_dataset(rng, lengths, layers=2, heads=2)
        attention, _ = pad_batch(data, rng)
        seqs = random_sequences(rng, lengths)
        targets = [oracle_target(seq) for seq in seqs]
        sel = make_selection([(1, 0), (0, 1), (1, 1)])
        batched = ag_loss(attention, seqs, sel, 0.6).item()
        singles = sum(oracle_ag_loss({h: Tensor(a) for h, a in maps.items()}, sel, t).item()
                      for maps, t in zip(data, targets))
        assert batched == pytest.approx(singles, rel=1e-12, abs=0.0)

    def test_gradient_matches_finite_difference(self):
        # padded rows in the shorter sequence and a head selected twice
        rng = np.random.default_rng(12)
        lengths = [7, 5]
        data = random_dataset(rng, lengths, layers=2, heads=2)
        attention, _ = pad_batch(data, rng)
        seqs = random_sequences(rng, lengths)
        targets = [oracle_target(seq) for seq in seqs]
        sel = make_selection([(1, 0), (0, 1), (1, 0)])
        fixed = Tensor(attention[0])

        def loss(maps):
            return ag_loss([fixed, maps], seqs, sel, 0.6) * 0.37

        p = Parameter("p", attention[1])
        with recording([p]):
            ana = backward(loss(p), [p])["p"]
        num = finite_diff_grad(lambda arr: loss(Tensor(arr)).item(), attention[1], h=1e-5)
        np.testing.assert_allclose(ana, num, rtol=0.0, atol=1e-9)
        assert np.all(ana[1, :, 5:] == 0.0)          # padded rows
        assert np.all(ana[:, 1] == 0.0)              # head (1, 1) is not selected
        assert np.all(np.delete(ana, list(LID_COLUMNS), axis=-1) == 0.0)
        assert np.any(ana[:, 0][..., list(LID_COLUMNS)] != 0.0)

    def test_gradient_equals_per_utterance_graph_bitwise(self):
        # the per-utterance graph of slice nodes that the batched node
        # replaced gives the same gradient bit for bit, so guided training
        # takes the same steps
        rng = np.random.default_rng(13)
        lengths = [8, 6, 10]
        data = random_dataset(rng, lengths, layers=2, heads=2)
        attention, _ = pad_batch(data, rng)
        seqs = random_sequences(rng, lengths)
        targets = [oracle_target(seq) for seq in seqs]
        sel = make_selection([(1, 0), (1, 1), (0, 1)])
        scale = 0.01 * (1.0 / len(lengths))
        params = [Parameter(f"l{i}", a) for i, a in enumerate(attention)]
        with recording(params):
            batched = backward(ag_loss(params, seqs, sel, 0.6) * scale, params)
            total = None
            for i, (n, t) in enumerate(zip(lengths, targets)):
                maps = {(l, h): params[l][i, h, :n, :n] for l, h in sel.selected}
                term = oracle_ag_loss(maps, sel, t)
                total = term if total is None else total + term
            per_utterance = backward(total * scale, params)
        for name in batched:
            assert np.array_equal(batched[name], per_utterance[name]), name


class TestLidAttribution:
    def _sequences(self, rng, vocab, lengths):
        words = vocab.word_ids("A") + vocab.word_ids("B")
        return [TokenSequence.from_words(vocab, list(rng.choice(words, size=k)))
                for k in lengths]

    def test_matches_per_utterance_oracle(self):
        rng = np.random.default_rng(14)
        vocab = Vocabulary.build(6, 6)
        seqs = self._sequences(rng, vocab, [3, 7, 1, 5, 4])
        data = random_dataset(rng, [s.n for s in seqs], layers=2, heads=3)
        attention, _ = pad_batch(data, rng)
        for selected in ([(1, 0), (1, 2)], [(0, 1)], [(1, 1), (0, 0), (1, 1)]):
            sel = make_selection(selected, n_heads=(2, 3))
            got = lid_attribution(attention, seqs, sel)
            assert got == oracle_attribution(data, seqs, sel)
            assert got[1] == sum(len(s.word_positions) for s in seqs)

    def test_tie_counts_as_language_a(self):
        vocab = Vocabulary.build(4, 4)
        seqs = [TokenSequence.from_words(vocab, [vocab.word_ids("A")[0], vocab.word_ids("B")[0]])]
        a = np.full((seqs[0].n, seqs[0].n), 1.0 / seqs[0].n)
        assert lid_attribution(one_map(a), seqs, make_selection([(0, 0)])) == (1, 2)
        assert seqs[0].lang_tags[5] == LANG_A

    def test_rejects_bad_sequences(self):
        vocab = Vocabulary.build(4, 4)
        seq = TokenSequence.from_words(vocab, [vocab.word_ids("A")[0]])
        maps = one_map(np.full((seq.n, seq.n), 1.0 / seq.n))
        mono = TokenSequence.from_words(vocab, [vocab.word_ids("A")[0]], "A")
        with pytest.raises(DataError):
            lid_attribution(maps, [mono], make_selection([(0, 0)]))
        with pytest.raises(DataError):  # two sequences for a batch of one
            lid_attribution(maps, [seq, seq], make_selection([(0, 0)]))


# the header line of a head-selection file counting 10 utterances
HEADER = '{"dataset_size": 10, "format": 2}\n'


class TestHeadSelectionFile:
    def test_round_trip_bit_exact(self, tmp_path):
        counts = {(0, 0): 5, (0, 1): 9, (1, 0): 7, (1, 1): 1}
        sel = HeadSelection(counts=counts, dataset_size=10,
                            selected=candidate_heads(counts)[:3])
        path = tmp_path / "heads.tsv"
        save_head_selection(path, sel)
        loaded = load_head_selection(path)
        assert loaded.selected == sel.selected
        assert loaded.dataset_size == sel.dataset_size
        path2 = tmp_path / "heads2.tsv"
        save_head_selection(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"dataset_size": 10, "format": 2}

    def test_malformed_file_errors(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\t5\n")
        with pytest.raises(DataError):
            load_head_selection(bad)

    # the file's first line is head (0, 1): "0\t1\t7" lists it a second time
    @pytest.mark.parametrize("line", ["1\tx\t3", "1\t0", "1\t0\t3\t4", "1.5\t0\t3",
                                      "0\t1\t7", "1\t1\t-4"])
    def test_malformed_line_errors(self, tmp_path, line):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"{HEADER}0\t1\t5\n{line}\n")
        with pytest.raises(DataError, match="malformed head-selection line"):
            load_head_selection(bad)

    @pytest.mark.parametrize("text, message", [
        (b'{"dataset_size": -5, "format": 2}\n1\t0\t3\n', "malformed head-selection header"),
        (b'{"dataset_size": 0, "format": 2}\n1\t0\t0\n', "malformed head-selection header"),
        (HEADER.encode() + b"1\t0\t11\n", "malformed head-selection line"),
        (HEADER.encode(), "malformed head-selection file"),
        (HEADER.encode() + b"1\t0\t3\xff\n", "is not UTF-8 text"),
        (b"", "empty head-selection file"),
        (b'{"dataset_size": 10, "format": 2, "dataset_size": 10}\n1\t0\t3\n',
         "key 'dataset_size' repeats"),
        (b'{"dataset_size": 10, "format": 2, "threshold": 5.0}\n1\t0\t3\n',
         r"unknown keys \['threshold'\]"),
        (b'{"dataset_size": true, "format": 2}\n1\t0\t3\n', "must be a JSON int, got True"),
        (b'{"dataset_size": 10.0, "format": 2}\n1\t0\t3\n', "must be a JSON int, got 10.0"),
        (b"# dataset_size=10\tthreshold=5.0\n1\t0\t3\n", "; run select-heads again"),
        (b'{"dataset_size": 10, "format": 1}\n1\t0\t3\n',
         "head-selection file format 1, not 2; run select-heads again"),
        (HEADER.encode() + b"1\t0\t3\n\n", ":3: malformed head-selection line ''"),
    ], ids=["negative-size", "zero-size", "count-above-size", "no-head", "not-utf8", "empty",
            "repeated-key", "unknown-key", "bool-size", "float-size", "old-header", "format-1",
            "blank-line"])
    def test_out_of_bounds_or_undecodable_file_errors(self, tmp_path, text, message):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(text)
        with pytest.raises(DataError, match=message) as info:
            load_head_selection(bad)
        assert str(bad) in str(info.value)
