"""Language indicator, head selection, guidance targets, and the AG loss."""

import numpy as np
import pytest

from agadapt.errors import ConfigError, DataError, NumericError
from agadapt.guidance import (
    GuidanceTarget,
    HeadSelection,
    ag_loss,
    count_and_select,
    guidance_target,
    lid_indicator,
    load_head_selection,
    rank_heads,
    save_head_selection,
    select_random_heads,
)
from agadapt.model import TokenSequence, Vocabulary
from agadapt.numerics import Parameter, backward

RNG = np.random.default_rng(77)
OMEGA = (1, 2)


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


class TestLidIndicator:
    def test_uniform_map_is_zero(self):
        a = np.full((6, 6), 1 / 6)
        assert lid_indicator(a, OMEGA) == 0

    def test_onehot_lid_column_is_one(self):
        a = np.zeros((5, 5))
        a[:, 1] = 1.0
        assert lid_indicator(a, OMEGA) == 1

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_stochastic(8, rng)
            # sharpen some maps so both indicator outcomes appear
            if rng.random() < 0.5:
                a[:, [1, 2]] += rng.random() * 4
                a = a / a.sum(axis=1, keepdims=True)
            assert lid_indicator(a, (1, 2)) == brute_force_indicator(a, (1, 2))

    def test_rejects_non_stochastic(self):
        a = np.full((3, 3), 0.5)
        with pytest.raises(NumericError):
            lid_indicator(a, OMEGA)

    def test_rejects_bad_omega(self):
        a = np.full((3, 3), 1 / 3)
        with pytest.raises(DataError):
            lid_indicator(a, (1,))
        with pytest.raises(DataError):
            lid_indicator(a, (1, 7))

    def test_invariant_under_non_lid_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_stochastic(7, rng)
            non_lid = [j for j in range(7) if j not in OMEGA]
            perm = list(rng.permutation(non_lid))
            cols = list(range(7))
            for src, dst in zip(non_lid, perm):
                cols[src] = dst
            assert lid_indicator(a, OMEGA) == lid_indicator(a[:, cols], OMEGA)


class TestCountAndSelect:
    def _dataset(self, indicator_plan):
        """indicator_plan: head -> list of 0/1 per utterance."""
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
        return data

    def test_example_counts(self):
        plan = {
            (0, 0): [1] * 5 + [0] * 5,
            (0, 1): [1] * 9 + [0] * 1,
            (1, 0): [1] * 7 + [0] * 3,
            (1, 1): [1] * 1 + [0] * 9,
        }
        sel = count_and_select(self._dataset(plan), OMEGA, top_k=2)
        assert sel.counts == {(0, 0): 5, (0, 1): 9, (1, 0): 7, (1, 1): 1}
        assert sel.selected == [(0, 1), (1, 0)]

    def test_tie_break_layer_head_order(self):
        plan = {h: [1, 0] for h in ((0, 0), (0, 1), (1, 0), (1, 1))}
        sel = count_and_select(self._dataset(plan), OMEGA, top_k=3)
        assert sel.selected == [(0, 0), (0, 1), (1, 0)]

    def test_k_equal_total_returns_all(self):
        plan = {h: [1] for h in ((0, 0), (0, 1), (1, 0), (1, 1))}
        sel = count_and_select(self._dataset(plan), OMEGA, top_k=4)
        assert set(sel.selected) == set(plan)

    def test_fraction_uses_qualifying_majority(self):
        # 10 utterances; counts 9, 7, 5, 1 -> qualifying (count > 5): two heads
        plan = {
            (0, 0): [1] * 9 + [0],
            (0, 1): [1] * 7 + [0] * 3,
            (1, 0): [1] * 5 + [0] * 5,
            (1, 1): [1] + [0] * 9,
        }
        sel = count_and_select(self._dataset(plan), OMEGA, fraction=0.5)
        assert sel.qualifying == [(0, 0), (0, 1)]
        assert sel.selected == [(0, 0)]

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            count_and_select(iter(()), OMEGA, top_k=1)

    def test_requires_exactly_one_mode(self):
        data = self._dataset({(0, 0): [1]})
        with pytest.raises(ConfigError):
            count_and_select(data, OMEGA)
        with pytest.raises(ConfigError):
            count_and_select(data, OMEGA, top_k=1, fraction=0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data = [{(l, h): random_stochastic(6, rng) for l in range(2) for h in range(3)}
                for _ in range(12)]
        a = count_and_select(data, OMEGA, fraction=1.0)
        b = count_and_select(data, OMEGA, fraction=1.0)
        assert a.counts == b.counts and a.selected == b.selected

    def test_random_selection_seeded(self):
        counts = {(l, h): 0 for l in range(2) for h in range(4)}
        a = select_random_heads(counts, 10, 0.5, seed=3)
        b = select_random_heads(counts, 10, 0.5, seed=3)
        assert a.selected == b.selected
        assert len(a.selected) == 4


class TestGuidanceTarget:
    def setup_method(self):
        self.vocab = Vocabulary.build(4, 4)

    def test_seven_token_golden(self):
        word_a = self.vocab.word_ids("A")[0]
        word_b = self.vocab.word_ids("B")[0]
        y = TokenSequence.from_words(self.vocab, [word_a, word_b])
        # ids: <sot> <zh> <en> <trans> <nots> wordA wordB <eot>
        target = guidance_target(y, 0.6)
        g = np.zeros((y.n, y.n))
        g[:, [1, 2]] = target.matrix
        assert g[5, 1] == 0.6 and g[5, 2] == 0.0
        assert g[6, 1] == 0.0 and g[6, 2] == 0.6
        assert np.all(g[0:5] == 0.0)
        assert np.all(g[7] == 0.0)  # end marker row

    def test_all_language_a(self):
        words = self.vocab.word_ids("A")[:3]
        y = TokenSequence.from_words(self.vocab, words)
        target = guidance_target(y, 0.7)
        word_rows = target.matrix[5:5 + 3]
        assert np.all(word_rows[:, 0] == 0.7) and np.all(word_rows[:, 1] == 0.0)

    @pytest.mark.parametrize("c", [0.5, 1.0, 0.0, 1.3])
    def test_soft_label_open_interval(self, c):
        y = TokenSequence.from_words(self.vocab, [self.vocab.word_ids("A")[0]])
        with pytest.raises(ConfigError, match="soft label out of range"):
            guidance_target(y, c)


def make_selection(selected, n_heads=(2, 2)):
    counts = {(l, h): 0 for l in range(n_heads[0]) for h in range(n_heads[1])}
    return HeadSelection(counts=counts, dataset_size=1, selected=list(selected))


class TestAgLoss:
    def setup_method(self):
        self.vocab = Vocabulary.build(4, 4)
        word_a = self.vocab.word_ids("A")[0]
        self.y = TokenSequence.from_words(self.vocab, [word_a])
        self.target = guidance_target(self.y, 0.6)

    def _matching_map(self):
        n = self.y.n
        a = np.zeros((n, n))
        a[:, [1, 2]] = self.target.matrix
        # park the rest of each row's mass away from the LID columns
        a[:, 0] = 1.0 - a[:, 1] - a[:, 2]
        return a

    def test_exact_match_is_zero(self):
        maps = {(0, 0): self._matching_map()}
        sel = make_selection([(0, 0)])
        assert ag_loss(maps, sel, self.target).item() == 0.0

    def test_direct_summation_example(self):
        # one head, N=3, one guided column with targets [0, .6, .6] vs [.2, .7, .1]
        target = GuidanceTarget(n=3, omega=(1, 2), c=0.6,
                                matrix=np.array([[0.0, 0.0], [0.6, 0.0], [0.6, 0.0]]))
        a = np.zeros((3, 3))
        a[:, 1] = [0.2, 0.7, 0.1]
        sel = make_selection([(0, 0)], n_heads=(1, 1))
        loss = ag_loss({(0, 0): a}, sel, target)
        assert loss.item() == pytest.approx(0.04 + 0.01 + 0.25, abs=1e-12)

    def test_duplicate_head_doubles(self):
        rng = np.random.default_rng(4)
        a = random_stochastic(self.y.n, rng)
        once = ag_loss({(0, 0): a}, make_selection([(0, 0)]), self.target).item()
        twice = ag_loss({(0, 0): a}, make_selection([(0, 0), (0, 0)]), self.target).item()
        assert twice == pytest.approx(2 * once, rel=1e-12)

    def test_missing_head_errors(self):
        with pytest.raises(DataError):
            ag_loss({(0, 0): self._matching_map()}, make_selection([(0, 1)]), self.target)

    def test_empty_selection_errors(self):
        with pytest.raises(ConfigError):
            ag_loss({(0, 0): self._matching_map()}, make_selection([]), self.target)

    def test_non_lid_columns_get_zero_gradient(self):
        n = self.y.n
        rng = np.random.default_rng(8)
        a = Parameter("a", random_stochastic(n, rng))
        sel = make_selection([(0, 0)])
        loss = ag_loss({(0, 0): a}, sel, self.target)
        grad = backward(loss, [a])["a"]
        non_lid = [j for j in range(n) if j not in (1, 2)]
        assert np.all(np.abs(grad[:, non_lid]) <= 1e-12)
        assert np.any(grad[:, [1, 2]] != 0.0)


class TestHeadSelectionFile:
    def test_round_trip_bit_exact(self, tmp_path):
        counts = {(0, 0): 5, (0, 1): 9, (1, 0): 7, (1, 1): 1}
        sel = HeadSelection(counts=counts, dataset_size=10,
                            selected=rank_heads(counts)[:3])
        path = tmp_path / "heads.tsv"
        save_head_selection(path, sel)
        loaded = load_head_selection(path)
        assert loaded.selected == sel.selected
        assert loaded.dataset_size == sel.dataset_size
        path2 = tmp_path / "heads2.tsv"
        save_head_selection(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_file_errors(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\t5\n")
        with pytest.raises(DataError):
            load_head_selection(bad)

    @pytest.mark.parametrize("line", ["1\tx\t3", "1\t0", "1\t0\t3\t4", "1.5\t0\t3"])
    def test_malformed_line_errors(self, tmp_path, line):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"# dataset_size=10\tthreshold=5.0\n0\t1\t5\n{line}\n")
        with pytest.raises(DataError, match="malformed head-selection line"):
            load_head_selection(bad)
