"""All-or-nothing file replacement."""

import os

import pytest

from agadapt.atomicio import atomic_write


@pytest.mark.parametrize("mode, old, partial", [
    ("w", "old contents\n", "new conte"),
    ("wb", b"\x00old\xff", b"\x01ne"),
])
def test_failed_write_keeps_previous_file(tmp_path, mode, old, partial):
    path = tmp_path / "out.dat"
    with atomic_write(path, mode) as fh:
        fh.write(old)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path, mode) as fh:
            fh.write(partial)
            fh.flush()
            raise RuntimeError("writer failed partway")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.dat"]


def test_clean_exit_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"  # not visible until the block ends
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_first_write_creates_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as fh:
            fh.write("partial")
            raise RuntimeError("writer failed partway")
    assert os.listdir(tmp_path) == []
