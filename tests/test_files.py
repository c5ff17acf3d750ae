"""The JSON reader and the atomic JSON and CSV writers."""

import json
import re

import pytest

from walkembed.errors import IntegrityError, SchemaError, UsageError
from walkembed.files import check_writable, ensure_dir, read_json, write_csv, write_json


def _rows_then_fail(n):
    for i in range(n):
        yield [i, f"row{i}"]
    raise RuntimeError("rows failed")


@pytest.mark.parametrize("old", [None, b"old,bytes\r\n"])
def test_write_csv_keeps_the_target_when_rows_raise(tmp_path, old):
    target = tmp_path / "out.csv"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(RuntimeError, match="rows failed"):
        write_csv(target, ["n", "name"], _rows_then_fail(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.csv"])
    if old is not None:
        assert target.read_bytes() == old


def test_write_json_keeps_the_target_when_encoding_raises(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text('{"old": 1}')
    with pytest.raises(TypeError):
        write_json({"a": [1, 2], "b": object()}, target)
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert target.read_text() == '{"old": 1}'


def test_writers_replace_the_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("stale")
    write_csv(target, ("a", "b"), [[1, "x,y"], ["", 2.5]])
    assert target.read_bytes() == b'a,b\r\n1,"x,y"\r\n,2.5\r\n'
    write_json({"k": [1, 2]}, tmp_path / "c.json", indent=None)
    write_json({"k": [1, 2]}, tmp_path / "i.json")
    assert (tmp_path / "c.json").read_text() == '{"k": [1, 2]}'
    assert (tmp_path / "i.json").read_text() == json.dumps({"k": [1, 2]}, indent=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "i.json", "out.csv"]


def _bad_json_file(tmp_path, case):
    path = tmp_path / "doc.json"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b'{"a": "\xff"}')
    elif case == "truncated":
        path.write_text('{"a": [1, ')
    return path


@pytest.mark.parametrize(
    "case, default",
    [("missing", UsageError), ("directory", UsageError), ("not UTF-8", IntegrityError), ("truncated", IntegrityError)],
)
def test_read_json_names_the_file(tmp_path, case, default):
    path = _bad_json_file(tmp_path, case)
    with pytest.raises(default, match="doc.json"):
        read_json(path, "document")
    with pytest.raises(SchemaError, match="doc.json"):
        read_json(path, "document", error=SchemaError)


@pytest.mark.parametrize("case", ["parent missing", "parent is a file", "target is a directory"])
def test_writers_name_a_target_they_cannot_write(tmp_path, case):
    """An OSError from opening the temporary file or from the rename is a
    UsageError naming the target, and no temporary file is left."""
    (tmp_path / "file").write_text("x")
    target = {
        "parent missing": tmp_path / "missing" / "out",
        "parent is a file": tmp_path / "file" / "out",
        "target is a directory": tmp_path / "dir",
    }[case]
    if case == "target is a directory":
        target.mkdir()
    with pytest.raises(UsageError, match=f"cannot write {re.escape(str(target))}") as err:
        write_json({"a": 1}, target)
    with pytest.raises(UsageError, match=f"cannot write {re.escape(str(target))}"):
        write_csv(target, ["a"], [[1]])
    assert list(tmp_path.rglob("*.tmp")) == []
    assert (tmp_path / "file").read_text() == "x"
    # checked before any work, with the message the write would end in
    with pytest.raises(UsageError) as checked:
        check_writable(tmp_path / "fine.json", target)
    assert str(checked.value) == str(err.value)


def test_check_writable_passes_a_writable_path(tmp_path):
    (tmp_path / "old.json").write_text("{}")
    check_writable(tmp_path / "new.json", str(tmp_path / "old.json"))
    check_writable()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


def test_ensure_dir_makes_parents_and_names_a_path_it_cannot_make(tmp_path):
    assert ensure_dir(tmp_path / "a" / "b") == tmp_path / "a" / "b" and (tmp_path / "a" / "b").is_dir()
    assert ensure_dir(tmp_path / "a") == tmp_path / "a"
    (tmp_path / "file").write_text("x")
    for path in (tmp_path / "file", tmp_path / "file" / "sub"):
        with pytest.raises(UsageError, match=f"cannot write {re.escape(str(path))}"):
            ensure_dir(path)
