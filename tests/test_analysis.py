"""Heatmap export."""

import numpy as np
import pytest

from agadapt.analysis import export_heatmap
from agadapt.errors import ConfigError, DataError


def read_heatmap_csv(path):
    """The token header and the values of a CSV heatmap."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return lines[0].split(","), np.array(rows)


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
