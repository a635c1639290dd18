"""Artifact writes: whole or not at all, into a directory made as needed."""

import pytest

from regraph.errors import DataError
from regraph.files import atomic_open, write_lines


def test_a_block_that_raises_leaves_the_old_bytes_and_no_temp_file(tmp_path):
    target = tmp_path / "artifact.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="half written"):
        with atomic_open(target) as fh:
            fh.write("new, but only part of it")
            raise RuntimeError("half written")
    assert target.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]


def test_a_missing_parent_directory_is_made(tmp_path):
    target = tmp_path / "new" / "dir" / "artifact.bin"
    with atomic_open(target, "wb") as fh:
        fh.write(b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in target.parent.iterdir()) == ["artifact.bin"]


def test_a_target_under_a_regular_file_is_a_data_error_naming_it(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"x")
    target = blocker / "artifact.json"
    with pytest.raises(DataError, match="cannot write") as info:
        with atomic_open(target) as fh:
            fh.write("{}")
    assert str(target) in str(info.value)
    assert blocker.read_bytes() == b"x"


def test_a_directory_in_the_way_of_the_replace_is_a_data_error(tmp_path):
    target = tmp_path / "artifact.csv"
    (target / "inside").mkdir(parents=True)
    with pytest.raises(DataError, match=f"cannot write {target}"):
        write_lines(target, ["a"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]


def test_write_lines_ends_every_line_with_a_newline(tmp_path):
    target = tmp_path / "lines.csv"
    write_lines(target, ["a,b", "1,2"])
    assert target.read_bytes() == b"a,b\n1,2\n"
    write_lines(target, iter(["only"]))
    assert target.read_bytes() == b"only\n"
