"""Pattern classification and heatmap export."""

import numpy as np
import pytest

from agadapt.analysis import PATTERN_ORDER, classify_head_pattern, export_heatmap
from agadapt.errors import ConfigError, DataError
from agadapt.model import TokenSequence, Vocabulary

VOCAB = Vocabulary.build(5, 5)
Y = TokenSequence.from_words(VOCAB, [7, 12, 8])  # 9 tokens


def tokens_of(y):
    return [VOCAB.string(t) for t in y.ids]


def read_heatmap_csv(path):
    """The token header and the values of a CSV heatmap."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return lines[0].split(","), np.array(rows)


class TestClassifyHeadPattern:
    def test_identity_is_self(self):
        label = classify_head_pattern(np.eye(Y.n), Y, VOCAB)
        assert label.label == "self"
        assert label.scores["self"] == pytest.approx(1.0)

    def test_subdiagonal_shift_is_neighboring(self):
        a = np.zeros((Y.n, Y.n))
        a[0, 0] = 1.0
        for i in range(1, Y.n):
            a[i, i - 1] = 1.0
        label = classify_head_pattern(a, Y, VOCAB)
        assert label.label == "neighboring"

    def test_lid_column_onehot_is_lid(self):
        a = np.zeros((Y.n, Y.n))
        a[:, 1] = 1.0
        label = classify_head_pattern(a, Y, VOCAB)
        assert label.label == "lid-token"

    def test_special_columns(self):
        a = np.zeros((Y.n, Y.n))
        a[:, 3] = 1.0  # <trans> column
        label = classify_head_pattern(a, Y, VOCAB)
        assert label.label == "special-token"

    def test_scores_partition_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.random((Y.n, Y.n))
            a /= a.sum(axis=1, keepdims=True)
            label = classify_head_pattern(a, Y, VOCAB)
            assert sum(label.scores.values()) <= 1.0 + 1e-9
            assert sum(label.scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert label.label in PATTERN_ORDER

    def test_degenerate_small_map(self):
        label = classify_head_pattern(np.array([[1.0]]), Y, VOCAB)
        assert label.label == "other"

    def test_overlap_precedence_self_first(self):
        # all mass on the (1, 1) cell: diagonal and an LID column overlap
        a = np.zeros((Y.n, Y.n))
        a[1, 1] = 1.0
        label = classify_head_pattern(a, Y, VOCAB)
        assert label.label == "self"
        assert label.scores["lid-token"] == 0.0


class TestExportHeatmap:
    def test_pgm_rounding_contract(self, tmp_path):
        a = np.array([[1.0, 0.0], [0.5, 0.5]])
        path = tmp_path / "m.pgm"
        export_heatmap(a, path, "pgm", ["t0", "t1"])
        body = path.read_text().split()
        # P2 w h maxval then pixels
        assert body[0] == "P2"
        assert body[1:4] == ["2", "2", "255"]
        assert [int(x) for x in body[4:]] == [255, 0, 128, 128]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.random((4, 4))
        a /= a.sum(axis=1, keepdims=True)
        path = tmp_path / "m.csv"
        tokens = ["<sot>", "<zh>", "<en>", "w"]
        export_heatmap(a, path, "csv", tokens)
        got_tokens, got = read_heatmap_csv(path)
        assert got_tokens == tokens
        assert np.max(np.abs(got - a)) <= 1e-6

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        a = rng.random((3, 3))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        export_heatmap(a, p1, "pgm", ["x", "y", "z"])
        export_heatmap(a, p2, "pgm", ["x", "y", "z"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            export_heatmap(np.eye(2), tmp_path / "m.x", "png", ["a", "b"])

    def test_label_count_must_match(self, tmp_path):
        with pytest.raises(DataError):
            export_heatmap(np.eye(2), tmp_path / "m.csv", "csv", ["a"])

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.csv"
        export_heatmap(np.eye(2), path, "csv", ["a", "b"])
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails partway
        with pytest.raises(UnicodeEncodeError):
            export_heatmap(np.eye(2) * 0.5, path, "csv", ["a", "\ud800"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_unwritable_path_errors(self, tmp_path):
        with pytest.raises(OSError):
            export_heatmap(np.eye(2), tmp_path / "no" / "dir" / "m.csv", "csv",
                           ["a", "b"])
