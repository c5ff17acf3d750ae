"""The JSON reader, the typed field readers and the atomic JSON and CSV
writers."""

import copy
import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed.errors import IntegrityError, SchemaError, UsageError
from walkembed.evaluation import ExperimentConfig
from walkembed.files import (
    check_writable,
    ensure_dir,
    json_field,
    json_object,
    read_json,
    write_csv,
    write_json,
)
from walkembed.relational import schema_from_dict


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


# -- typed field readers ------------------------------------------------------------


@pytest.mark.parametrize(
    "value, kind, read",
    [
        (2, int, 2),
        (2.0, int, 2),
        (-0.0, int, 0),
        (3, float, 3.0),
        (0.5, float, 0.5),
        (False, bool, False),
        ("a", str, "a"),
        ([], list, []),
        ({}, dict, {}),
        (["a", "b"], [str], ("a", "b")),
        ([1, 2.0], [int], (1, 2)),
        ([1, 0.5], [float], (1.0, 0.5)),
        (None, (int, None), None),
        (4.0, (int, None), 4),
    ],
)
def test_json_field_reads_each_kind(value, kind, read):
    got = json_field({"f": value}, "f", kind, "doc")
    assert got == read and type(got) is type(read)


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, float, "field f is missing or not a number"),
        (True, int, "field f must be a whole number, got True"),
        (2.5, int, "field f must be a whole number, got 2.5"),
        (float("inf"), int, "field f must be a whole number, got inf"),
        (1, bool, "field f is missing or not a boolean"),
        ("1", int, "field f is missing or not an integer"),
        (10**400, float, "field f is missing or not a number"),
        ("ab", [str], "field f is missing or not a list of strings"),
        (["a", 1], [str], "field f is missing or not a list of strings"),
        ([True], [float], "field f is missing or not a list of numbers"),
        ([0, 0.5], [int], "field f must be a whole number, got 0.5"),
        ([], dict, "field f is missing or not an object"),
        (None, str, "field f is missing or not a string"),
        ("x", (int, None), "field f is missing or not an integer or null"),
    ],
)
def test_json_field_names_a_field_of_the_wrong_kind(value, kind, message):
    with pytest.raises(SchemaError, match=f"^doc: {re.escape(message)}$"):
        json_field({"f": value}, "f", kind, "doc", error=SchemaError)


def test_json_field_raises_integrity_errors_by_default_and_shows_the_label():
    with pytest.raises(IntegrityError, match=r"^m.json: field a\[0\].f is missing or not a string$"):
        json_field({}, "f", str, "m.json", "a[0].f")
    with pytest.raises(IntegrityError, match="^m.json: field f is missing or not a string$"):
        json_field(["f"], "f", str, "m.json")


def test_json_object_reads_a_closed_object():
    doc = {"a": 1, "b": [1.5], "old": "anything"}
    fields = json_object("w", UsageError, doc, {"a": int}, {"b": [float], "c": str, "old": None})
    assert fields == {"a": 1, "b": (1.5,)}
    with pytest.raises(UsageError, match=r"^w: field t.a must be a whole number, got 1.5$"):
        json_object("w", UsageError, {"a": 1.5}, {"a": int}, label="t")
    with pytest.raises(UsageError, match=r"^w: field t is missing or not an object$"):
        json_object("w", UsageError, [], {"a": int}, label="t")
    with pytest.raises(UsageError, match=r"^w: expected a JSON object$"):
        json_object("w", UsageError, "x", {"a": int})


def test_json_object_names_the_first_unknown_key_in_sorted_order():
    """The message is the same whatever the key order and string hash seed,
    names a misspelt key before the field it leaves missing, and does not
    list an accepted key that is not read."""
    keys = ["zeta", "mid", "alpha", "beta"]
    for order in (keys, keys[::-1], sorted(keys)):
        doc = {key: 0 for key in order}
        with pytest.raises(SchemaError) as err:
            json_object("w", SchemaError, doc, {"name": str}, {"old": None}, label="r[2]")
        assert str(err.value) == "w: unknown r[2] key 'alpha'; expected one of: name"
    with pytest.raises(SchemaError, match="^w: unknown config key 'b'; expected one of: a$"):
        json_object("w", SchemaError, {"b": 1}, {"a": int}, name="config")


# -- the config and the schema under arbitrary JSON --------------------------------


README = Path(__file__).resolve().parents[1] / "README.md"


@functools.cache
def _readme_examples() -> list:
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]


def test_the_readme_examples_are_read_by_the_readers():
    """Every JSON example in the README is a schema or a run config that the
    readers accept, so the documentation cannot drift from them."""
    examples = _readme_examples()
    assert any("relations" in doc for doc in examples) and any("task" in doc for doc in examples)
    for doc in examples:
        read = schema_from_dict if "relations" in doc else ExperimentConfig.from_dict
        read(doc)


@pytest.mark.parametrize(
    "over, field",
    [
        ({"trainer": {"learning_rate": 10**400}}, "trainer.learning_rate"),
        ({"ratios": [0.5, 10**400]}, "ratios"),
        ({"kernels": [{"relation": "obs", "attribute": "oval", "kind": "numeric", "sigma": 10**400}]}, "kernels[0].sigma"),
    ],
)
def test_a_config_integer_beyond_the_float_range_is_a_usage_error(over, field):
    config = {**next(doc for doc in _readme_examples() if "task" in doc), **over}
    with pytest.raises(UsageError, match=re.escape(f"malformed config: field {field} is missing or not ")):
        ExperimentConfig.from_dict(config)


# JSON integers have no bound; Python reads one beyond the float range as an int
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def _mutated(draw, doc):
    """``doc`` with one to three changes at random places: a key or an
    element set to an arbitrary JSON value, added, or removed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        value = draw(JSON_VALUES)
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node)) | st.text(max_size=4)) if node else draw(st.text(max_size=4))
            if key in node and draw(st.booleans()):
                del node[key]
            else:
                node[key] = value
        elif node and draw(st.booleans()):
            node[draw(st.integers(0, len(node) - 1))] = value
        else:
            node.append(value)
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_config_with_any_json_anywhere_is_read_or_a_usage_error(data):
    config = next(doc for doc in _readme_examples() if "task" in doc)
    try:
        ExperimentConfig.from_dict(data.draw(_mutated(config)))
    except UsageError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_schema_with_any_json_anywhere_is_read_or_a_schema_error(data):
    schema = next(doc for doc in _readme_examples() if "relations" in doc)
    try:
        schema_from_dict(data.draw(_mutated(schema)))
    except SchemaError:
        pass
