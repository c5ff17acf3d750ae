"""Schema validation, database construction, the foreign-key index, batch
insertion, derived databases, and CSV round-trips.

The foreign-key index is checked against a brute-force oracle that scans
every fact pair; insertion and ``take`` are checked against rebuilding
from scratch, and ``closure`` against the per-fact closures.
"""

import csv
import importlib.util
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_arrays,
    back_refs,
    forward_ref,
    load_database_by_rows,
    reference_cascade,
    reference_sample_closure,
)

from walkembed.errors import IntegrityError, SchemaError, UsageError
from walkembed.kernels import default_kernels
from walkembed.relational import (
    Fact,
    build_database,
    closure,
    drop_attribute,
    insert_facts,
    load_database,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    take,
    write_database_csv,
)
from walkembed.relational import _split_cells
from walkembed.synth import (
    convergence_database,
    mi_chain_database,
    planted_database,
    random_database,
    random_schema,
    two_cluster_database,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _schema_doc():
    return {
        "relations": [
            {
                "name": "R",
                "attributes": [
                    {"name": "A", "kind": "categorical", "nullable": False},
                    {"name": "B", "kind": "categorical", "nullable": True},
                ],
                "key": ["A"],
            },
            {
                "name": "S",
                "attributes": [
                    {"name": "C", "kind": "categorical", "nullable": False},
                    {"name": "D", "kind": "numeric", "nullable": True},
                ],
                "key": ["C"],
            },
        ],
        "foreign_keys": [{"src": "R", "src_attrs": ["A"], "dst": "S", "dst_attrs": ["C"]}],
    }


# -- schema validation --------------------------------------------------------


def test_schema_rejects_duplicate_relation_names():
    doc = _schema_doc()
    doc["relations"].append(doc["relations"][0])
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_duplicate_attribute_names():
    doc = _schema_doc()
    doc["relations"][0]["attributes"].append({"name": "A", "kind": "categorical"})
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_empty_key():
    doc = _schema_doc()
    doc["relations"][0]["key"] = []
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_key_over_unknown_attribute():
    doc = _schema_doc()
    doc["relations"][0]["key"] = ["NOPE"]
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_fk_arity_mismatch():
    doc = _schema_doc()
    doc["foreign_keys"][0]["src_attrs"] = ["A", "B"]
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_fk_not_targeting_full_key():
    doc = _schema_doc()
    doc["foreign_keys"][0]["dst_attrs"] = ["D"]
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_fk_over_unknown_relation():
    doc = _schema_doc()
    doc["foreign_keys"][0]["dst"] = "T"
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_schema_rejects_malformed_document():
    with pytest.raises(SchemaError):
        schema_from_dict({"relations": [{"name": "R"}]})


def test_schema_roundtrip(toy_schema):
    again = schema_from_dict(schema_to_dict(toy_schema))
    assert again == toy_schema


# -- construction -------------------------------------------------------------


def test_fact_ids_follow_row_order(toy_db):
    assert toy_db.n_facts == 5
    assert [f.relation for f in toy_db.facts] == ["R", "R", "S", "S", "S"]
    assert toy_db.relation_fact_ids("R") == (0, 1)
    assert toy_db.relation_fact_ids("S") == (2, 3, 4)
    assert toy_db.key_of(3) == ("y",)
    assert toy_db.fact_by_key("S", ("z",)) == 4
    assert toy_db.fact_by_key("S", ("missing",)) is None


def test_attr_value_and_active_domain(toy_db):
    assert toy_db.attr_value(0, "B") == "b1"
    assert toy_db.attr_value(1, "B") is None
    assert toy_db.active_domain("S", "D") == {1.0, 2.0}
    assert toy_db.active_domain("R", "B") == {"b1"}


def test_null_key_rejected(toy_schema):
    with pytest.raises(IntegrityError, match=r"null in non-nullable attribute S\.C \(row 0\)"):
        build_database(toy_schema, [("S", (None, 1.0))])


def test_duplicate_key_rejected(toy_schema):
    rows = [("S", ("x", 1.0)), ("S", ("x", 2.0))]
    with pytest.raises(IntegrityError, match=r"duplicate key \('x',\) in relation 'S'"):
        build_database(toy_schema, rows)


def test_non_nullable_null_rejected(toy_schema):
    with pytest.raises(IntegrityError, match=r"null in non-nullable attribute R\.A \(row 0\)"):
        build_database(toy_schema, [("R", (None, "b"))])


def test_wrong_arity_rejected(toy_schema):
    with pytest.raises(IntegrityError, match=r"relation 'S' expects 2 values, got 1"):
        build_database(toy_schema, [("S", ("x",))])


def test_type_mismatch_rejected(toy_schema):
    with pytest.raises(IntegrityError, match=r"non-numeric value 'not-a-number' in S\.D \(row 0\)"):
        build_database(toy_schema, [("S", ("x", "not-a-number"))])
    with pytest.raises(IntegrityError, match=r"expected string for R\.A, got 1\.5 \(row 1\)"):
        build_database(toy_schema, [("S", ("x", 1.0)), ("R", (1.5, "b"))])
    db = build_database(toy_schema, [("S", ("x", 1.0))])
    with pytest.raises(IntegrityError, match=r"non-numeric value True in S\.D \(inserted row 1\)"):
        insert_facts(db, [Fact("S", ("y", True))])


def test_dangling_reference_rejected(toy_schema):
    with pytest.raises(IntegrityError, match=r"dangling reference \('x',\) from R\(id 0\)"):
        build_database(toy_schema, [("R", ("x", None))])


def test_null_in_reference_means_non_referencing():
    # a null anywhere in the referencing tuple opts the fact out of the FK
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "R",
                    "attributes": [{"name": "rid", "kind": "categorical", "nullable": False}],
                    "key": ["rid"],
                },
                {
                    "name": "S",
                    "attributes": [
                        {"name": "sid", "kind": "categorical", "nullable": False},
                        {"name": "ref", "kind": "categorical", "nullable": True},
                    ],
                    "key": ["sid"],
                },
            ],
            "foreign_keys": [
                {"src": "S", "src_attrs": ["ref"], "dst": "R", "dst_attrs": ["rid"]}
            ],
        }
    )
    db = build_database(
        schema,
        [("R", ("r1",)), ("S", ("x", "r1")), ("S", ("y", None))],
    )
    assert forward_ref(db, 0, 1) == 0
    assert forward_ref(db, 0, 2) is None
    assert back_refs(db, 0, 0) == (1,)


def test_unknown_relation_in_rows_rejected(toy_schema):
    with pytest.raises(SchemaError):
        build_database(toy_schema, [("T", ("x",))])


# -- foreign-key index vs brute force ------------------------------------------


def _brute_force_refs(db):
    """Scan all fact pairs for each foreign key; the index must agree."""
    forward = {}
    backward = {}
    for pos, fk in enumerate(db.schema.foreign_keys):
        src_rel = db.schema.relation(fk.src)
        for f in db.relation_fact_ids(fk.src):
            ref = tuple(db.fact(f).value(src_rel, a) for a in fk.src_attrs)
            if any(v is None for v in ref):
                continue
            target = db.fact_by_key(fk.dst, ref)
            assert target is not None
            forward[(pos, f)] = target
            backward.setdefault((pos, target), []).append(f)
    return forward, backward


@pytest.mark.parametrize("seed", range(12))
def test_fk_index_matches_brute_force(seed):
    schema = random_schema(seed)
    db = random_database(schema, seed)
    forward, backward = _brute_force_refs(db)
    for pos, fk in enumerate(db.schema.foreign_keys):
        for f in db.relation_fact_ids(fk.src):
            assert forward_ref(db, pos, f) == forward.get((pos, f))
        for g in db.relation_fact_ids(fk.dst):
            assert list(back_refs(db, pos, g)) == backward.get((pos, g), [])


def test_back_refs_in_load_order(chain_db):
    assert back_refs(chain_db, 0, 0) == (2, 3)


# -- insertion ------------------------------------------------------------------


def _db_equal(a, b):
    if a.schema != b.schema or a.n_facts != b.n_facts:
        return False
    return all(a.fact(i) == b.fact(i) for i in range(a.n_facts))


@pytest.mark.parametrize("seed", range(8))
def test_insert_matches_rebuild(seed):
    """Removing trailing leaf facts and re-inserting them must reproduce the
    database built in one go, index included.

    Only works when the removed facts are the last rows and nothing outside
    the removed set references them, so the head stays closed; leaves are
    picked from the tail to guarantee that.
    """
    schema = random_schema(seed)
    db = random_database(schema, seed)
    if db.n_facts < 4:
        pytest.skip("too small to split")
    tail_ids: set[int] = set()
    for f in range(db.n_facts - 1, -1, -1):
        referencing = {
            src
            for pos in range(len(schema.foreign_keys))
            for src in back_refs(db, pos, f)
        }
        if referencing <= tail_ids:
            tail_ids.add(f)
        if len(tail_ids) == 3:
            break
    # the head must also be a row-order prefix for fact ids to line up
    while tail_ids and min(tail_ids) != db.n_facts - len(tail_ids):
        tail_ids.discard(min(tail_ids))
    if not tail_ids:
        pytest.skip("no trailing leaf facts in this database")
    cut = min(tail_ids)
    head = build_database(schema, [(db.fact(i).relation, db.fact(i).values) for i in range(cut)])
    tail = [Fact(db.fact(i).relation, db.fact(i).values) for i in range(cut, db.n_facts)]
    grown = insert_facts(head, tail)
    assert _db_equal(grown, db)
    for pos, fk in enumerate(db.schema.foreign_keys):
        for f in db.relation_fact_ids(fk.src):
            assert forward_ref(grown, pos, f) == forward_ref(db, pos, f)
        for g in db.relation_fact_ids(fk.dst):
            assert back_refs(grown, pos, g) == back_refs(db, pos, g)


def test_insert_batch_may_reference_itself(chain_schema):
    db = build_database(chain_schema, [("R", ("r1",)), ("S", ("x", "r1", "v"))])
    batch = [Fact("R", ("r9",)), Fact("S", ("n1", "r9", "w"))]
    grown = insert_facts(db, batch)
    assert grown.n_facts == 4
    assert forward_ref(grown, 0, 3) == 2


def test_insert_rejects_duplicate_key_against_existing(chain_db):
    with pytest.raises(IntegrityError):
        insert_facts(chain_db, [Fact("R", ("r1",))])


def test_insert_rejects_dangling_batch(chain_db):
    with pytest.raises(IntegrityError):
        insert_facts(chain_db, [Fact("S", ("n1", "NOWHERE", "v"))])


def test_failed_insert_leaves_database_untouched(chain_db):
    before = chain_db.n_facts
    with pytest.raises(IntegrityError):
        insert_facts(chain_db, [Fact("S", ("n1", "r1", "v")), Fact("S", ("n1", "r1", "v"))])
    assert chain_db.n_facts == before
    assert back_refs(chain_db, 0, 0) == (2, 3)


def test_insert_does_not_mutate_original(chain_db):
    grown = insert_facts(chain_db, [Fact("S", ("n1", "r1", "v"))])
    assert chain_db.n_facts == 4
    assert grown.n_facts == 5
    assert back_refs(chain_db, 0, 0) == (2, 3)
    assert back_refs(grown, 0, 0) == (2, 3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_insert_shares_untouched_back_refs(seed):
    """An insert leaves the source's backward index as it was, and the new
    database has the same back references as the source at every
    destination the batch does not reference."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    n_fk = len(schema.foreign_keys)
    before = [[back_refs(db, pos, f) for f in range(db.n_facts)] for pos in range(n_fk)]
    # copies of existing facts under fresh keys reference what the originals do
    batch = [
        Fact(db.fact(f).relation, (f"new{f}",) + db.fact(f).values[1:])
        for f in range(0, db.n_facts, 3)
    ]
    grown = insert_facts(db, batch)
    for pos in range(n_fk):
        assert [back_refs(db, pos, f) for f in range(db.n_facts)] == before[pos]
        touched = {forward_ref(grown, pos, f) for f in range(db.n_facts, grown.n_facts)}
        for f in range(db.n_facts):
            if f in touched:
                assert back_refs(grown, pos, f)[: len(before[pos][f])] == before[pos][f]
            elif before[pos][f]:
                assert back_refs(grown, pos, f) == back_refs(db, pos, f)


def _linked_batch(db, tag):
    """A fresh-keyed copy of every other fact, with references rewired in
    turn: to a null where the column allows it, to a fact of the same
    batch (possibly a later one, or itself), or left on the original's
    old destination."""
    schema = db.schema
    picked = list(range(0, db.n_facts, 2))
    new_key = {f: f"{tag}{f}" for f in picked}
    batch_keys: dict[str, list[str]] = {}
    for f in picked:
        batch_keys.setdefault(db.fact(f).relation, []).append(new_key[f])
    batch = []
    for i, f in enumerate(picked):
        fact = db.fact(f)
        rel = schema.relation(fact.relation)
        values = list(fact.values)
        values[rel.attr_index("id")] = new_key[f]
        for j, fk in enumerate(fk for fk in schema.foreign_keys if fk.src == rel.name):
            col = rel.attr_index(fk.src_attrs[0])
            turn = (i + j) % 3
            if turn == 0 and rel.attribute(fk.src_attrs[0]).nullable:
                values[col] = None
            elif turn == 1 and fk.dst in batch_keys:
                keys = batch_keys[fk.dst]
                values[col] = keys[(i + j) % len(keys)]
        batch.append(Fact(fact.relation, tuple(values)))
    return batch


def _index_arrays(db):
    return [(ix.fwd, ix.offsets, ix.flat) for ix in db.fk_index]


@pytest.mark.parametrize("seed", range(12))
def test_chained_inserts_extend_arrays_like_a_rebuild(seed):
    """Two or three batches in a row: after each, every foreign key's
    arrays equal those of a database built in one go from the combined
    rows, and the source's arrays are left as they were."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    rows = [(f.relation, f.values) for f in db.facts]
    for round_no in range(2 + seed % 2):
        before = [tuple(a.copy() for a in arrays) for arrays in _index_arrays(db)]
        batch = _linked_batch(db, f"b{round_no}_")
        grown = insert_facts(db, batch)
        rows += [(f.relation, f.values) for f in batch]
        rebuilt = build_database(schema, rows)
        for got, want in zip(_index_arrays(grown), _index_arrays(rebuilt)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)
        for now, then in zip(_index_arrays(db), before):
            for a, b in zip(now, then):
                assert np.array_equal(a, b)
        db = grown


def test_drop_attribute_shares_the_index_arrays():
    checked = 0
    for seed in range(12):
        schema = random_schema(seed)
        db = random_database(schema, seed)
        for rel in schema.relations:
            if "x0" in rel.attr_names:
                assert drop_attribute(db, rel.name, "x0").fk_index is db.fk_index
                checked += 1
    assert checked > 0


# -- file round-trips -------------------------------------------------------------


def test_csv_roundtrip(tmp_path, toy_db):
    write_database_csv(toy_db, tmp_path)
    again = load_database(toy_db.schema, tmp_path)
    assert _db_equal(again, toy_db)


def test_csv_roundtrip_random(tmp_path):
    schema = random_schema(3)
    db = random_database(schema, 3)
    write_database_csv(db, tmp_path)
    again = load_database(schema, tmp_path)
    assert _db_equal(again, db)


def _empty_string_schema(kind):
    return schema_from_dict(
        {
            "relations": [
                {
                    "name": "R",
                    "attributes": [
                        {"name": "a", "kind": "categorical", "nullable": False},
                        {"name": "b", "kind": kind, "nullable": True},
                    ],
                    "key": ["a"],
                }
            ],
            "foreign_keys": [],
        }
    )


@pytest.mark.parametrize("kind", ["categorical", "text"])
def test_csv_write_refuses_a_non_null_empty_string(tmp_path, kind):
    # a cell cannot tell "" from null: the load would read row 2's b as null
    schema = _empty_string_schema(kind)
    rows = [("R", ("x", "p")), ("R", ("y", None)), ("R", ("z", "")), ("R", ("w", ""))]
    db = build_database(schema, rows)
    out = tmp_path / "data"
    with pytest.raises(UsageError) as err:
        write_database_csv(db, out)
    assert str(err.value) == (
        "cannot write R.b: row 2 (R.csv line 4) holds an empty string, which would load back as null"
    )
    assert not out.exists()  # refused before anything is written
    # an empty key is refused the same way, at its own row
    keyed = build_database(schema, [("R", ("x", "p")), ("R", ("", "q"))])
    with pytest.raises(UsageError, match=r"^cannot write R\.a: row 1 \(R\.csv line 3\)"):
        write_database_csv(keyed, out)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["categorical", "text"])
def test_csv_roundtrip_with_null_where_the_empty_string_was(tmp_path, kind):
    # the same rows with null in place of "" round-trip unchanged, and a
    # database derived from one holding "" is checked by its own rows
    schema = _empty_string_schema(kind)
    db = build_database(schema, [("R", ("x", "p")), ("R", ("y", None)), ("R", ("z", None))])
    write_database_csv(db, tmp_path)
    again = load_database(schema, tmp_path)
    assert _db_equal(again, db)
    assert again.attr_value(2, "b") is None and again.attr_value(0, "b") == "p"
    base = build_database(schema, [("R", ("x", "")), ("R", ("y", None))])
    kept = take(base, np.asarray([1]))
    write_database_csv(kept, tmp_path / "kept")
    assert _db_equal(load_database(schema, tmp_path / "kept"), kept)


def test_schema_file_roundtrip(tmp_path, toy_schema):
    path = tmp_path / "schema.json"
    save_schema(toy_schema, path)
    assert load_schema(path) == toy_schema


def test_load_missing_relation_file(tmp_path, toy_db):
    write_database_csv(toy_db, tmp_path)
    (tmp_path / "S.csv").unlink()
    with pytest.raises(IntegrityError):
        load_database(toy_db.schema, tmp_path)


def test_load_header_mismatch(tmp_path, toy_db):
    write_database_csv(toy_db, tmp_path)
    text = (tmp_path / "R.csv").read_text().replace("A,B", "A,WRONG")
    (tmp_path / "R.csv").write_text(text)
    with pytest.raises(IntegrityError):
        load_database(toy_db.schema, tmp_path)


def test_load_bad_numeric_cell(tmp_path, toy_db):
    write_database_csv(toy_db, tmp_path)
    with open(tmp_path / "S.csv", "a", encoding="utf-8") as fh:
        fh.write("w,abc\n")
    with pytest.raises(IntegrityError, match=r"cannot parse 'abc' as numeric for S\.D \(S\.csv line 5\)"):
        load_database(toy_db.schema, tmp_path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_non_finite_numeric_cell(tmp_path, toy_db, cell):
    write_database_csv(toy_db, tmp_path)
    with open(tmp_path / "S.csv", "a", encoding="utf-8") as fh:
        fh.write(f"w,{cell}\n")
    with pytest.raises(IntegrityError, match=r"S\.D \(S\.csv line 5\)"):
        load_database(toy_db.schema, tmp_path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numeric_value_rejected(toy_schema, value):
    with pytest.raises(IntegrityError, match=r"S\.D \(row 1\)"):
        build_database(toy_schema, [("S", ("x", 1.0)), ("S", ("y", value))])
    db = build_database(toy_schema, [("S", ("x", 1.0))])
    with pytest.raises(IntegrityError, match=r"S\.D \(inserted row 1\)"):
        insert_facts(db, [Fact("S", ("y", value))])
    assert db.n_facts == 1


def test_load_empty_non_nullable_cell_names_file_and_line(tmp_path):
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "S",
                    "attributes": [
                        {"name": "a", "kind": "categorical", "nullable": False},
                        {"name": "b", "kind": "numeric", "nullable": False},
                    ],
                    "key": ["a"],
                }
            ]
        }
    )
    (tmp_path / "S.csv").write_text("a,b\nx,1.0\ny,\n")
    with pytest.raises(IntegrityError, match=r"null in non-nullable attribute S\.b \(S\.csv line 3\)"):
        load_database(schema, tmp_path)
    (tmp_path / "S.csv").write_text("a,b\n,1.0\n")
    with pytest.raises(IntegrityError, match=r"null in non-nullable attribute S\.a \(S\.csv line 2\)"):
        load_database(schema, tmp_path)


def test_load_empty_key_cell_names_file_and_line(tmp_path):
    # a key attribute declared nullable still refuses a null
    schema = schema_from_dict(
        {
            "relations": [
                {"name": "S", "attributes": [{"name": "a", "kind": "categorical"}], "key": ["a"]}
            ]
        }
    )
    (tmp_path / "S.csv").write_text("a\nx\n\"\"\n")
    with pytest.raises(IntegrityError, match=r"null key value in S\.a \(S\.csv line 3\)"):
        load_database(schema, tmp_path)


def test_empty_cell_loads_as_null(tmp_path, toy_db):
    write_database_csv(toy_db, tmp_path)
    again = load_database(toy_db.schema, tmp_path)
    assert again.attr_value(4, "D") is None
    assert again.attr_value(1, "B") is None


def test_missing_schema_file(tmp_path):
    with pytest.raises(SchemaError):
        load_schema(tmp_path / "nope.json")


def test_numeric_values_survive_roundtrip(tmp_path, toy_schema):
    db = build_database(toy_schema, [("S", ("a", 0.1234567890123))])
    write_database_csv(db, tmp_path)
    (tmp_path / "R.csv").write_text("A,B\n")
    again = load_database(toy_schema, tmp_path)
    assert again.attr_value(0, "D") == pytest.approx(0.1234567890123, abs=0.0)


# -- the column load against the per-row load ---------------------------------------


def _outcome(load, schema, data_dir):
    """The database ``load`` reads from ``data_dir``, or its error as (type, message)."""
    try:
        return load(schema, data_dir)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_loads_alike(schema, data_dir):
    """The column load and the per-row load give equal stores, or the same
    error; returns the per-row load's outcome."""
    got, want = (_outcome(load, schema, data_dir) for load in (load_database, load_database_by_rows))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_arrays(got, want)
    return want


SYNTH = {
    "planted": lambda: planted_database(n_items=12, n_obs=3, seed=2).db,
    "two_cluster": lambda: two_cluster_database(5),
    "convergence": lambda: convergence_database(8),
    "mi_chain": lambda: mi_chain_database(4),
    **{f"random_{seed}": (lambda seed=seed: random_database(random_schema(seed), seed)) for seed in range(8)},
}


@pytest.mark.parametrize("generator", SYNTH)
def test_column_load_equals_row_load_on_synth_databases(generator, tmp_path):
    db = SYNTH[generator]()
    write_database_csv(db, tmp_path)
    for rel in db.schema.relations:
        # the files write_csv writes are split without a list per row
        with open(tmp_path / f"{rel.name}.csv", newline="", encoding="utf-8") as fh:
            assert _split_cells(fh.read(), len(rel.attributes)) is not None
    assert_same_arrays(load_database(db.schema, tmp_path), load_database_by_rows(db.schema, tmp_path))


@pytest.mark.parametrize("workload", ["experiment", "select", "insert"])
def test_column_load_equals_row_load_on_bench_shapes(workload, tmp_path, monkeypatch):
    """The benchmark's three input shapes, generated by its own input
    module at a reduced number of items."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("_bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.EXPERIMENT["n_items"] = 20
    inputs.SELECT["n_items"] = 60
    inputs.INSERT.update(n_items=40, held_out=8)
    inputs.GENERATORS[workload](3, tmp_path)
    schema = load_schema(tmp_path / "schema.json")
    assert_same_arrays(load_database(schema, tmp_path / "data"), load_database_by_rows(schema, tmp_path / "data"))


# P is keyed by a string and a number, which Q references; Q's key is declared
# nullable, and Q references itself
CSV_SCHEMA = schema_from_dict(
    {
        "relations": [
            {
                "name": "P",
                "attributes": [
                    {"name": "pid", "kind": "categorical", "nullable": False},
                    {"name": "grade", "kind": "numeric", "nullable": False},
                    {"name": "note", "kind": "text"},
                    {"name": "score", "kind": "numeric"},
                ],
                "key": ["pid", "grade"],
            },
            {
                "name": "Q",
                "attributes": [
                    {"name": "qid", "kind": "categorical"},
                    {"name": "rp", "kind": "categorical"},
                    {"name": "rg", "kind": "numeric"},
                    {"name": "label", "kind": "categorical", "nullable": False},
                    {"name": "up", "kind": "categorical"},
                ],
                "key": ["qid"],
            },
        ],
        "foreign_keys": [
            {"src": "Q", "src_attrs": ["rp", "rg"], "dst": "P", "dst_attrs": ["pid", "grade"]},
            {"src": "Q", "src_attrs": ["up"], "dst": "Q", "dst_attrs": ["qid"]},
        ],
    }
)
TEXT_CELLS = ["", "a", "b", "x y", "a,b", 'say "hi"', '"', "two\nlines", "cr\rhere", "crlf\r\n", " a", "\x85",
              "\u2028", "\x0b", "é"]
# the cells each attribute accepts, and some it rejects
VALID = {
    "pid": [f"k{i}" for i in range(1, 9)] + ["k 9", "k,10", 'k"11', "k1 "],
    "grade": ["1", "2", "3", "1.0", " 1 ", "1_0", "1e0", "\t2\n"],
    "note": TEXT_CELLS,
    "score": ["", "1", "-2.5", "1e3", "1_000", "-1E-2", ".5", "5.", "+0", "-0", "\u0661\u0662"],
    "qid": [f"q{i}" for i in range(1, 13)] + ["q1 ", "q,1"],
    "label": TEXT_CELLS[1:],
}
INVALID = {
    "pid": [""],
    "grade": ["", "nan", "x"],
    "score": ["1__0", "_1", "nan", "NaN", "inf", "-Infinity", "1e999", "abc", "0x10"],
    "qid": [""],
    "rp": ["k99"],
    "rg": ["x", "inf"],
    "label": [""],
    "up": ["q99"],
}


ROW_FAULTS = ["wide", "narrow", "nul", "cell", "repeat"]


def _csv_bytes(draw, names, rows, n_faults):
    """``rows`` under a header of ``names`` as the bytes of a CSV file:
    written by ``csv.writer`` or joined raw, with any line end, with or
    without a final one, and ``n_faults`` faults at different lines: a row
    of the wrong width, a wrong header, a blank line, a NUL, a cell the
    attribute rejects or a repeated row."""
    names, rows = list(names), [list(r) for r in rows]
    header = names
    free = list(range(len(rows)))  # the rows no fault has changed
    blanks = 0
    for _ in range(n_faults):
        fault = draw(st.sampled_from(["header", "blank", *ROW_FAULTS]))
        if fault == "header" and header is names:
            header = draw(st.sampled_from([names[::-1], names[:-1], names + ["extra"]]))
        elif fault == "blank":
            blanks += 1
        elif fault in ROW_FAULTS and free:
            i = free.pop(draw(st.integers(0, len(free) - 1)))
            if fault == "wide":
                rows[i].append("extra")
            elif fault == "narrow":
                rows[i].pop()
            elif fault == "nul":
                rows[i][-1] += "\x00"
            elif fault == "cell":
                j = draw(st.sampled_from([j for j, a in enumerate(names) if a in INVALID]))
                rows[i][j] = draw(st.sampled_from(INVALID[names[j]]))
            else:
                rows.append(list(rows[i]))
    raw = draw(st.sampled_from([False, False, False, True]))

    def line(cells):
        if raw:
            return ",".join(cells)
        buf = io.StringIO()
        csv.writer(buf).writerow(cells)  # quotes a cell holding \r or \n, as the default \r\n line end has both
        return buf.getvalue()[:-2]

    lines = [line(header)] + [line(r) for r in rows]
    for _ in range(blanks):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\r\n", "\n", "\r"] if raw else ["\r\n", "\n"]))
    return (end.join(lines) + (end if draw(st.booleans()) else "")).encode("utf-8")


@st.composite
def csv_databases(draw):
    """The bytes of ``P.csv`` and ``Q.csv`` for ``CSV_SCHEMA``: Q's
    references name P's keys as P's file writes them, or are null.  Up to
    two faults go into either file."""
    p_names, q_names = (rel.attr_names for rel in CSV_SCHEMA.relations)
    p_row = st.tuples(*[st.sampled_from(VALID[a]) for a in p_names])
    p_rows = draw(st.lists(p_row, max_size=6, unique_by=lambda r: r[0]))
    refs = [("", ""), ("", ""), ("k1", "")] + [r[:2] for r in p_rows]
    q_row = st.tuples(st.sampled_from(VALID["qid"]), st.sampled_from(refs), st.sampled_from(VALID["label"]))
    q_rows = draw(st.lists(q_row, max_size=6, unique_by=lambda r: r[0]))
    up = st.sampled_from(["", ""] + [qid for qid, _, _ in q_rows])
    q_rows = [(qid, *ref, label, draw(up)) for qid, ref, label in q_rows]
    n_faults = draw(st.integers(0, 2))
    p_faults = draw(st.integers(0, n_faults))
    return _csv_bytes(draw, p_names, p_rows, p_faults), _csv_bytes(draw, q_names, q_rows, n_faults - p_faults)


@settings(max_examples=300, deadline=None)
@given(files=csv_databases())
def test_column_load_equals_row_load_on_generated_files(files):
    """Quoted cells with commas and line ends, either line end, empty
    cells, numbers with spaces, ``_``, exponents, nan and inf: both loads
    give equal stores, or both raise the same error, the first of up to
    two faults."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in zip(("P.csv", "Q.csv"), files):
            (Path(tmp) / name).write_bytes(data)
        _assert_loads_alike(CSV_SCHEMA, tmp)


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet=',"\r\n\x00ab \x85\u2028', max_size=30), width=st.integers(1, 3))
def test_split_cells_reads_as_csv_reader(text, width):
    """Where ``_split_cells`` splits, it reads what ``csv.reader`` reads, so
    it splits no text with a row of the wrong width."""
    got = _split_cells(text, width)
    if got is not None:
        header, columns = got
        assert [header, *map(list, zip(*columns))] == list(csv.reader(io.StringIO(text, newline="")))


def test_field_size_limit_holds_in_the_column_load(tmp_path):
    """A line longer than the field size limit is read by ``csv.reader``,
    which accepts it when no one field is too long; a field that is too
    long is a data error naming the file and line, as in the per-row
    load."""
    schema = schema_from_dict(
        {"relations": [{"name": "S", "attributes": [{"name": "a", "kind": "categorical"},
                                                    {"name": "b", "kind": "categorical"}], "key": ["a"]}]}
    )
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(6)
        (tmp_path / "S.csv").write_text("a,b\nkey1,value1\n")
        with open(tmp_path / "S.csv", newline="", encoding="utf-8") as fh:
            assert _split_cells(fh.read(), 2) is None
        assert _assert_loads_alike(schema, tmp_path).n_facts == 1
        (tmp_path / "S.csv").write_text("a,b\nkey1,value12\n")
        too_long = f"{tmp_path / 'S.csv'} line 2: field larger than field limit (6)"
        assert _assert_loads_alike(schema, tmp_path) == (IntegrityError, too_long)
    finally:
        csv.field_size_limit(limit)


def test_random_database_is_deterministic():
    schema = random_schema(5)
    a = random_database(schema, 5)
    b = random_database(schema, 5)
    assert _db_equal(a, b)


def test_random_database_numeric_domains_finite():
    schema = random_schema(7)
    db = random_database(schema, 7)
    for rel in schema.relations:
        for attr in rel.attributes:
            if attr.kind != "numeric":
                continue
            for v in db.active_domain(rel.name, attr.name):
                assert np.isfinite(v)


# -- the column store against the per-row build -------------------------------------


def _reference_check_value(rel, attr, value, where, n):
    if value is None:
        if not attr.nullable:
            raise IntegrityError(f"null in non-nullable attribute {rel.name}.{attr.name} ({where} {n})")
        return None
    if attr.kind == "numeric":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise IntegrityError(f"non-numeric value {value!r} in {rel.name}.{attr.name} ({where} {n})")
        if not math.isfinite(value):
            raise IntegrityError(f"non-finite value {value!r} in {rel.name}.{attr.name} ({where} {n})")
        return float(value)
    if not isinstance(value, str):
        raise IntegrityError(f"expected string for {rel.name}.{attr.name}, got {value!r} ({where} {n})")
    return value


def _reference_build_database(schema, rows):
    """The build as first written: one fact at a time, checked, keyed and
    stored as a ``Fact``, then each foreign key's references in id order.
    Returns (facts, key maps, per foreign key (fwd, offsets, flat))."""
    facts = []
    by_relation = {r: [] for r in schema.relation_names}
    key_to_fact = {r: {} for r in schema.relation_names}
    for rel_name, values in rows:
        rel = schema.relation(rel_name)
        width = len(rel.attributes)
        if len(values) != width:
            raise IntegrityError(f"relation {rel_name!r} expects {width} values, got {len(values)}")
        fact_id = len(facts)
        checked = tuple(
            _reference_check_value(rel, attr, v, "row", fact_id) for attr, v in zip(rel.attributes, values)
        )
        key = tuple(checked[rel.attr_index(a)] for a in rel.key)
        if None in key:
            raise IntegrityError(f"null key value in {rel_name!r} row {fact_id}")
        if key in key_to_fact[rel_name]:
            raise IntegrityError(f"duplicate key {key!r} in relation {rel_name!r}")
        key_to_fact[rel_name][key] = fact_id
        facts.append(Fact(rel_name, checked, fact_id))
        by_relation[rel_name].append(fact_id)
    n = len(facts)
    index = []
    for fk in schema.foreign_keys:
        src_pos = [schema.relation(fk.src).attr_index(a) for a in fk.src_attrs]
        srcs, dsts = [], []
        for fact_id in by_relation[fk.src]:
            ref = tuple(facts[fact_id].values[p] for p in src_pos)
            if None in ref:
                continue
            dst_id = key_to_fact[fk.dst].get(ref)
            if dst_id is None:
                raise IntegrityError(f"dangling reference {ref!r} from {fk.src}(id {fact_id}) via {fk.name}")
            srcs.append(fact_id)
            dsts.append(dst_id)
        fwd = np.full(n, -1, dtype=np.int64)
        fwd[srcs] = dsts
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.asarray(dsts, dtype=np.int64), minlength=n), out=offsets[1:])
        flat = np.asarray([s for _, s in sorted(zip(dsts, srcs))], dtype=np.int64)
        index.append((fwd, offsets, flat))
    return facts, key_to_fact, index


def _assert_matches_reference(db, rows):
    facts, key_to_fact, index = _reference_build_database(db.schema, rows)
    assert db.n_facts == len(facts)
    for i, want in enumerate(facts):
        got = db.fact(i)
        assert got == want
        assert [type(v) for v in got.values] == [type(v) for v in want.values]
    assert list(db.facts) == facts
    for rel in db.schema.relations:
        assert db.relation_facts(rel.name) == [f for f in facts if f.relation == rel.name]
        assert len(db.relation_fact_ids(rel.name)) == len(key_to_fact[rel.name])
        for key, fact_id in key_to_fact[rel.name].items():
            assert db.fact_by_key(rel.name, key) == fact_id
            assert db.key_of(fact_id) == key
        for pos, attr in enumerate(rel.attributes):
            want_domain = {f.values[pos] for f in facts if f.relation == rel.name and f.values[pos] is not None}
            got_domain = db.active_domain(rel.name, attr.name)
            assert got_domain == want_domain
            assert list(got_domain) == list(want_domain)  # same iteration order, so the same sigma
    for got, want in zip(db.fk_index, index):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


def _shuffled_rows(db, order_seed):
    """The rows of ``db`` in an order that interleaves the relations."""
    rows = [(f.relation, f.values) for f in db.facts]
    order = np.random.default_rng(order_seed).permutation(len(rows))
    return [rows[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), order_seed=st.integers(min_value=0, max_value=1000))
def test_column_build_matches_per_row_build(seed, order_seed):
    schema = random_schema(seed)
    rows = _shuffled_rows(random_database(schema, seed), order_seed)
    _assert_matches_reference(build_database(schema, rows), rows)


def test_columns_code_strings_in_first_seen_order(toy_schema):
    db = build_database(toy_schema, [("R", ("y", "b2")), ("S", ("y", None)), ("R", ("x", "b1")), ("S", ("x", 2.5))])
    data, null, table = db.column("R", "A")
    assert tuple(table) == ("y", "x") and data.dtype == np.int32 and data.tolist() == [0, 1]
    data, null, table = db.column("S", "D")
    assert table is None and data.dtype == np.float64
    assert null.tolist() == [True, False] and data[1] == 2.5
    assert db.row_of.tolist() == [0, 0, 1, 1]


_FAULTS = [
    "wide", "narrow", "string_number", "bool_number", "non_finite",
    "null_non_nullable", "null_key", "duplicate_key", "dangling", "unknown_relation",
]


def _inject(schema, rows, fault, row_pick, taken):
    """``rows`` with ``fault`` put into one of the rows it fits outside
    ``taken``, picked by ``row_pick``, and that row's index; None when no
    row fits."""

    def numeric_pos(rel_name):
        rel = schema.relation(rel_name)
        return [i for i, a in enumerate(rel.attributes) if a.kind == "numeric"]

    def fk_pos(rel_name):
        rel = schema.relation(rel_name)
        return [rel.attr_index(fk.src_attrs[0]) for fk in schema.foreign_keys if fk.src == rel_name]

    fits = {
        "string_number": lambda r: bool(numeric_pos(r[0])),
        "bool_number": lambda r: bool(numeric_pos(r[0])),
        "non_finite": lambda r: bool(numeric_pos(r[0])),
        # the duplicated key comes from a row no earlier fault changed
        "duplicate_key": lambda r: sum(1 for j, s in enumerate(rows) if s[0] == r[0] and j not in taken) > 1,
        "dangling": lambda r: bool(fk_pos(r[0])),
    }.get(fault, lambda r: True)
    candidates = [i for i, r in enumerate(rows) if i not in taken and fits(r)]
    if not candidates:
        return None
    i = candidates[row_pick % len(candidates)]
    rel_name, values = rows[i]
    values = list(values)
    rel = schema.relation(rel_name)
    id_pos = rel.attr_index("id")
    if fault == "wide":
        values.append("extra")
    elif fault == "narrow":
        values.pop()
    elif fault in ("string_number", "bool_number", "non_finite"):
        values[numeric_pos(rel_name)[0]] = {"string_number": "1.5", "bool_number": True, "non_finite": math.inf}[fault]
    elif fault in ("null_non_nullable", "null_key"):
        values[id_pos] = None
    elif fault == "duplicate_key":
        other = next(r for j, r in enumerate(rows) if r[0] == rel_name and j != i and j not in taken)
        values[id_pos] = other[1][id_pos]
    elif fault == "dangling":
        values[fk_pos(rel_name)[0]] = "nowhere"
    else:
        rel_name = "NOPE"
    return rows[:i] + [(rel_name, tuple(values))] + rows[i + 1 :], i


def _error_of(build, *args):
    try:
        build(*args)
    except (IntegrityError, SchemaError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    order_seed=st.integers(min_value=0, max_value=1000),
    faults=st.lists(
        st.tuples(st.sampled_from(_FAULTS), st.integers(min_value=0, max_value=10_000)), min_size=1, max_size=2
    ),
)
# a narrowed one-attribute row has no key left to duplicate
@example(seed=182, order_seed=0, faults=[("narrow", 0), ("duplicate_key", 0)])
def test_build_errors_match_per_row_build(seed, order_seed, faults):
    """One or two faults at random rows: the column build raises the
    error of the first faulty row, as the per-row build does."""
    schema = random_schema(seed)
    if any(fault == "null_key" for fault, _ in faults):
        # a key attribute declared nullable: the null reaches the key check
        doc = schema_to_dict(schema)
        for rel in doc["relations"]:
            rel["attributes"][0]["nullable"] = True
        schema = schema_from_dict(doc)
    rows = _shuffled_rows(random_database(schema, seed), order_seed)
    taken: set[int] = set()
    for fault, row_pick in faults:
        injected = _inject(schema, rows, fault, row_pick, taken)
        assume(injected is not None)
        rows, i = injected
        taken.add(i)
    want = _error_of(_reference_build_database, schema, rows)
    assert want is not None
    assert _error_of(build_database, schema, rows) == want


@pytest.mark.parametrize("kind, faulty", [("numeric", [None, math.inf, "1.5", True]), ("categorical", [None, 5, 1.5, ["x"]])])
def test_faults_in_one_column_raise_the_first_rows_error(kind, faulty):
    """Faults of each kind at different rows of one non-nullable column,
    in every order: the build raises the first faulty row's error, as the
    per-row build does."""
    schema = schema_from_dict(
        {"relations": [{"name": "S", "attributes": [{"name": "k", "kind": "categorical", "nullable": False},
                                                    {"name": "v", "kind": kind, "nullable": False}], "key": ["k"]}]}
    )
    good = 1.0 if kind == "numeric" else "a"
    for order in itertools.permutations(faulty):
        rows = [("S", (f"k{i}", v)) for i, v in enumerate([good, *order])]
        want = _error_of(_reference_build_database, schema, rows)
        assert want is not None and "row 1)" in want[1]
        assert _error_of(build_database, schema, rows) == want


def _snapshot(db):
    """Copies of every column; a value table and code map only up to the
    column's own table length, since newer versions may share them."""
    return [
        (
            c.data.copy(),
            c.null.copy(),
            None if c.table is None else tuple(c.table),
            None if c.codes is None else {s: k for s, k in c.codes.items() if k < len(c.table)},
        )
        for rel in db.schema.relations
        for c in db._columns[rel.name]
    ]


@pytest.mark.parametrize("seed", range(10))
def test_inserts_from_one_base_leave_the_base_and_each_other_alone(seed):
    """Two databases derived from one base, each with new strings in its
    columns: both equal a rebuild from their rows, and the base's columns
    and value tables are as they were."""
    schema = random_schema(seed)
    base = random_database(schema, seed)
    rows = [(f.relation, f.values) for f in base.facts]
    before = _snapshot(base)
    grown = []
    for tag in ("a_", "b_"):
        batch = _linked_batch(base, tag)
        # fresh strings in every categorical non-reference column
        batch = [
            Fact(f.relation, tuple(
                f"{tag}{v}" if isinstance(v, str) and a.name.startswith("x") else v
                for a, v in zip(schema.relation(f.relation).attributes, f.values)
            ))
            for f in batch
        ]
        grown.append((insert_facts(base, batch), rows + [(f.relation, f.values) for f in batch]))
    for db, all_rows in grown:
        _assert_matches_reference(db, all_rows)
    after = _snapshot(base)
    for (d0, n0, t0, c0), (d1, n1, t1, c1) in zip(before, after):
        assert np.array_equal(d0, d1, equal_nan=d0.dtype.kind == "f") and np.array_equal(n0, n1)
        assert t0 == t1 and c0 == c1
    _assert_matches_reference(base, rows)


def test_insert_shares_the_columns_of_untouched_relations(chain_db):
    grown = insert_facts(chain_db, [Fact("R", ("r9",))])
    assert grown._columns["S"] is chain_db._columns["S"]
    assert grown._key_to_fact["S"] is chain_db._key_to_fact["S"]
    assert grown.relation_fact_ids("S") is chain_db.relation_fact_ids("S")
    assert grown._columns["R"] is not chain_db._columns["R"]


def _reference_insert(db, rows):
    """The insert checks as first written, one batch row at a time, then
    each foreign key's references in batch order; raises what they raise."""
    schema = db.schema
    staged = []
    key_extra = {r: {} for r in schema.relation_names}
    next_id = db.n_facts
    for rel_name, values in rows:
        rel = schema.relation(rel_name)
        if len(values) != len(rel.attributes):
            raise IntegrityError(f"relation {rel_name!r} expects {len(rel.attributes)} values, got {len(values)}")
        checked = tuple(
            _reference_check_value(rel, attr, v, "inserted row", next_id) for attr, v in zip(rel.attributes, values)
        )
        key = tuple(checked[rel.attr_index(a)] for a in rel.key)
        if None in key:
            raise IntegrityError(f"null key value in inserted {rel_name!r} row")
        if db.fact_by_key(rel_name, key) is not None or key in key_extra[rel_name]:
            raise IntegrityError(f"duplicate key {key!r} in relation {rel_name!r}")
        key_extra[rel_name][key] = next_id
        staged.append((rel_name, checked))
        next_id += 1
    for fk in schema.foreign_keys:
        src_pos = [schema.relation(fk.src).attr_index(a) for a in fk.src_attrs]
        for rel_name, checked in staged:
            if rel_name != fk.src:
                continue
            ref = tuple(checked[p] for p in src_pos)
            if None in ref:
                continue
            if db.fact_by_key(fk.dst, ref) is None and ref not in key_extra[fk.dst]:
                raise IntegrityError(f"dangling reference {ref!r} from inserted {fk.src} row via {fk.name}")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    fault=st.sampled_from(_FAULTS + ["existing_key"]),
    row_pick=st.integers(min_value=0, max_value=10_000),
)
def test_insert_errors_match_per_row_insert(seed, fault, row_pick):
    """A batch with one fault at a random row: insert_facts raises what
    the per-row insert raised, and the source is left as it was."""
    schema = random_schema(seed)
    if fault == "null_key":
        doc = schema_to_dict(schema)
        for rel in doc["relations"]:
            rel["attributes"][0]["nullable"] = True
        schema = schema_from_dict(doc)
    db = random_database(schema, seed)
    rows = [(f.relation, f.values) for f in _linked_batch(db, "n_")]
    if fault == "existing_key":
        i = row_pick % len(rows)
        rel_name, values = rows[i]
        rows[i] = (rel_name, (db.key_of(db.relation_fact_ids(rel_name)[0])[0],) + tuple(values[1:]))
    else:
        injected = _inject(schema, rows, fault, row_pick, set())
        assume(injected is not None)
        rows = injected[0]
    want = _error_of(_reference_insert, db, rows)
    assert want is not None
    before = _snapshot(db)
    assert _error_of(insert_facts, db, [Fact(r, v) for r, v in rows]) == want
    for (d0, n0, t0, c0), (d1, n1, t1, c1) in zip(before, _snapshot(db)):
        assert np.array_equal(d0, d1, equal_nan=d0.dtype.kind == "f") and np.array_equal(n0, n1)
        assert t0 == t1 and c0 == c1


# -- the tip rule: appends in place at the newest version ---------------------------


def _with_fresh_strings(schema, batch, tag):
    """``batch`` with ``tag`` put before every string of a non-key,
    non-reference column, so the batch adds strings to the value tables."""
    return [
        Fact(f.relation, tuple(
            f"{tag}{v}" if isinstance(v, str) and a.name.startswith("x") else v
            for a, v in zip(schema.relation(f.relation).attributes, f.values)
        ))
        for f in batch
    ]


def _rows(batch):
    return [(f.relation, f.values) for f in batch]


def _as_read(db):
    """Every store of ``db`` as ``db`` reads it: the columns (``_snapshot``),
    the entries of the key maps that ``fact_by_key`` finds, the id tuples
    and the index arrays."""
    keys = {r: [(k, v) for k, v in m.items() if db.fact_by_key(r, k) == v] for r, m in db._key_to_fact.items()}
    ids = {r: db.relation_fact_ids(r) for r in db.schema.relation_names}
    arrays = [db.row_of, db._rel_of] + [a for ix in db.fk_index for a in ix]
    return _snapshot(db), keys, ids, arrays


def _assert_same_as_read(got, want):
    """Two ``_as_read`` results equal array for array, dtypes included."""
    (got_cols, got_keys, got_ids, got_arrays), (want_cols, want_keys, want_ids, want_arrays) = got, want
    for g, w in zip(got_cols, want_cols, strict=True):
        assert g[0].dtype == w[0].dtype and np.array_equal(g[0], w[0], equal_nan=w[0].dtype.kind == "f")
        assert np.array_equal(g[1], w[1]) and g[2:] == w[2:]
    assert got_keys == want_keys and got_ids == want_ids
    for g, w in zip(got_arrays, want_arrays, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _assert_equals_rebuild(db, rows):
    """``db`` equals a build from ``rows`` array for array, and in its
    decoded facts, active domains and default kernels."""
    rebuilt = build_database(db.schema, rows)
    _assert_same_as_read(_as_read(db), _as_read(rebuilt))
    _assert_matches_reference(db, rows)
    assert default_kernels(db) == default_kernels(rebuilt)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), length=st.integers(min_value=2, max_value=4))
def test_two_insert_chains_from_one_base_each_equal_a_rebuild(seed, length):
    """A chain of inserts from a base, then a second chain from the same
    base, as a benchmark cycle runs them: after all appends every version,
    the earlier ones included, equals a rebuild from its rows."""
    schema = random_schema(seed)
    base = random_database(schema, seed)
    versions = [(base, _rows(base.facts))]
    for chain in "ab":
        db, rows = versions[0]
        for step in range(length):
            tag = f"{chain}{step}_"
            batch = _with_fresh_strings(schema, _linked_batch(db, tag), tag)
            db, rows = insert_facts(db, batch), rows + _rows(batch)
            versions.append((db, rows))
    # the first chain grew the base's stores in place; the second copied them
    assert versions[1][0]._lineage is base._lineage
    assert versions[length + 1][0]._lineage is not base._lineage
    for db, rows in versions:
        _assert_equals_rebuild(db, rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    fault=st.sampled_from(["dangling", "duplicate_key", "existing_key"]),
    row_pick=st.integers(min_value=0, max_value=10_000),
)
def test_a_failed_insert_at_the_tip_leaves_nothing_behind(seed, fault, row_pick):
    """A batch with new strings and numbers that fails a late check, then a
    good batch with the same keys: the good batch appends in place, and
    nothing of the failed one shows in a store, a decoded value, an active
    domain or the default kernels."""
    schema = random_schema(seed)
    base = random_database(schema, seed)
    good = _with_fresh_strings(schema, _linked_batch(base, "n_"), "good_")
    bad = _rows(_with_fresh_strings(schema, _linked_batch(base, "n_"), "bad_"))
    bad = [
        (r, tuple(1e6 + i if isinstance(v, float) else v for v in values)) for i, (r, values) in enumerate(bad)
    ]
    if fault == "existing_key":
        i = row_pick % len(bad)
        rel_name, values = bad[i]
        bad[i] = (rel_name, (base.key_of(base.relation_fact_ids(rel_name)[0])[0],) + tuple(values[1:]))
    else:
        injected = _inject(schema, bad, fault, row_pick, set())
        assume(injected is not None)
        bad = injected[0]
    with pytest.raises(IntegrityError):
        insert_facts(base, [Fact(r, v) for r, v in bad])
    grown = insert_facts(base, good)
    assert grown._lineage is base._lineage
    rows = _rows(base.facts)
    _assert_equals_rebuild(base, rows)
    _assert_equals_rebuild(grown, rows + _rows(good))
    for rel in schema.relations:
        for attr in rel.attr_names:
            assert not any(isinstance(v, str) and v.startswith("bad_") for v in grown.active_domain(rel.name, attr))
            assert not any(isinstance(v, float) and v >= 1e6 for v in grown.active_domain(rel.name, attr))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), tip_first=st.booleans())
def test_a_tip_and_its_drop_attribute_sibling_both_insert(seed, tip_first):
    """A database and ``drop_attribute`` of it share their lineage: the
    first of the two to insert appends in place, the other copies, and
    every version equals a rebuild from its rows."""
    schema = random_schema(seed)
    base = random_database(schema, seed)
    rel = next((r for r in schema.relations if "x0" in r.attr_names), None)
    assume(rel is not None)
    sibling = drop_attribute(base, rel.name, "x0")
    drop = rel.attr_index("x0")
    rows = _rows(base.facts)
    sibling_rows = [(r, v[:drop] + v[drop + 1 :] if r == rel.name else v) for r, v in rows]
    starts = [(base, rows), (sibling, sibling_rows)]
    versions = list(starts)
    for db, db_rows in (starts if tip_first else starts[::-1]):
        name = "s" if db is sibling else "t"
        for step in range(2):
            tag = f"{name}{step}_"
            batch = _with_fresh_strings(db.schema, _linked_batch(db, tag), tag)
            db, db_rows = insert_facts(db, batch), db_rows + _rows(batch)
            versions.append((db, db_rows))
    first = versions[2][0]
    assert first._lineage is (base if tip_first else sibling)._lineage
    assert versions[4][0]._lineage is not base._lineage
    for db, db_rows in versions:
        _assert_equals_rebuild(db, db_rows)


def test_loading_the_same_files_twice_gives_equal_stores(tmp_path):
    """Two loads of one set of CSV files in one process, with inserts into
    both and into the first load after its own child: the two loads read
    alike, and every version equals a rebuild from its rows."""
    for seed in range(12):
        schema = random_schema(seed)
        out = tmp_path / str(seed)
        write_database_csv(random_database(schema, seed), out)
        first = load_database(schema, out)
        rows = _rows(first.facts)
        batch = _with_fresh_strings(schema, _linked_batch(first, "l_"), "l_")
        grown = insert_facts(first, batch)
        for rel in schema.relations:
            if "x0" in rel.attr_names:
                insert_facts(drop_attribute(grown, rel.name, "x0"), [])
        second = load_database(schema, out)
        other = _with_fresh_strings(schema, _linked_batch(second, "m_"), "m_")
        again = insert_facts(first, other)  # no longer the newest version of its lineage: copies
        grown_second = insert_facts(second, other)
        _assert_same_as_read(_as_read(first), _as_read(second))
        _assert_same_as_read(_as_read(again), _as_read(grown_second))
        _assert_equals_rebuild(first, rows)
        _assert_equals_rebuild(grown, rows + _rows(batch))
        _assert_equals_rebuild(second, rows)
        _assert_equals_rebuild(grown_second, rows + _rows(other))
        _assert_equals_rebuild(again, rows + _rows(other))


def _fit(schema, source, fact, **changes):
    """``fact`` of a database over ``source``, with the attribute values
    ``changes`` (by name), as a fact over ``schema``, which may lack
    attributes of ``source``."""
    values = dict(zip(source.relation(fact.relation).attr_names, fact.values), **changes)
    return Fact(fact.relation, tuple(values[a] for a in schema.relation(fact.relation).attr_names))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    order=st.sampled_from(["before_fork", "after_fork"]),
    fork=st.sampled_from(["base", "sibling"]),
)
def test_a_key_another_lineage_adds_is_not_this_versions(seed, order, fork):
    """Foreign key S -> R.  One lineage inserts only R fact "new_r" into a
    base; the other starts from the base (or its ``drop_attribute``
    sibling) with S facts only, under the same ids, before or after that
    insert.  The second lineage does not know "new_r": a reference to it
    is dangling, inserting it works, and every version and ``take`` of it
    equal a rebuild from their rows."""
    schema = random_schema(seed)
    fk = next((fk for fk in schema.foreign_keys if fk.src != fk.dst), None)
    assume(fk is not None)
    base = random_database(schema, seed)
    start = base
    if fork == "sibling":
        rel = next((r for r in schema.relations if "x0" in r.attr_names), None)
        assume(rel is not None)
        start = drop_attribute(base, rel.name, "x0")
    r_fact = _fit(schema, schema, base.fact(base.relation_fact_ids(fk.dst)[0]), id="new_r")
    s_template = base.fact(base.relation_fact_ids(fk.src)[0])
    s_batch = [_fit(start.schema, schema, s_template, id=f"new_s{i}") for i in range(3)]
    versions = [(base, _rows(base.facts)), (start, _rows(start.facts))]
    if order == "before_fork":
        first = insert_facts(base, [r_fact])
        versions.append((first, versions[0][1] + _rows([r_fact])))
        other = insert_facts(start, s_batch)
    else:
        one_s = _fit(schema, schema, s_template, id="new_s_first")
        tip = insert_facts(base, [one_s])
        other = insert_facts(start, s_batch)
        first = insert_facts(tip, [r_fact])  # appends in place after the fork
        versions.append((first, versions[0][1] + _rows([one_s, r_fact])))
    assert first._lineage is base._lineage and other._lineage is not base._lineage
    other_rows = versions[1][1] + _rows(s_batch)
    versions.append((other, other_rows))
    assert first.fact_by_key(fk.dst, ("new_r",)) is not None
    assert other.fact_by_key(fk.dst, ("new_r",)) is None
    dangling = _fit(start.schema, schema, s_template, id="new_s_dangling", **{fk.src_attrs[0]: "new_r"})
    with pytest.raises(IntegrityError, match="dangling reference"):
        insert_facts(other, [dangling])
    r_again = _fit(start.schema, schema, r_fact)
    again = insert_facts(other, [r_again])
    versions.append((again, other_rows + _rows([r_again])))
    for db, db_rows in versions:
        _assert_equals_rebuild(db, db_rows)
        shuffled = np.random.default_rng(seed).permutation(db.n_facts)
        for ids in (np.arange(db.n_facts), shuffled):
            rows = [(db.fact(f).relation, db.fact(f).values) for f in ids.tolist()]
            _assert_same_store(take(db, ids), build_database(db.schema, rows))


# -- derived databases: take and closure -------------------------------------------


def _assert_same_store(got, want):
    """Equal facts, ids per relation, key maps, ``row_of``, relation
    positions, foreign-key arrays and default kernels."""
    assert got.facts == want.facts
    for a, b in ((got.row_of, want.row_of), (got._rel_of, want._rel_of)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for rel in got.schema.relation_names:
        assert got.relation_fact_ids(rel) == want.relation_fact_ids(rel)
        assert list(got._key_to_fact[rel].items()) == list(want._key_to_fact[rel].items())
    for got_ix, want_ix in zip(got.fk_index, want.fk_index, strict=True):
        for a, b in zip(got_ix, want_ix):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
    assert default_kernels(got) == default_kernels(want)  # Gaussian sigmas to the bit


def _store_arrays(db):
    """Copies of every array and map of ``db``'s store."""
    arrays = [a.copy() for ix in db.fk_index for a in ix] + [db.row_of.copy(), db._rel_of.copy()]
    return _snapshot(db), arrays, dict(db._by_relation), {r: dict(k) for r, k in db._key_to_fact.items()}


def _assert_store_unchanged(before, db):
    columns, arrays, by_relation, keys = _store_arrays(db)
    for (d0, n0, t0, c0), (d1, n1, t1, c1) in zip(before[0], columns, strict=True):
        assert np.array_equal(d0, d1, equal_nan=d0.dtype.kind == "f") and np.array_equal(n0, n1)
        assert t0 == t1 and c0 == c1
    assert all(np.array_equal(a, b) for a, b in zip(before[1], arrays, strict=True))
    assert (by_relation, keys) == before[2:]


def _mask(db, chosen):
    mask = np.zeros(db.n_facts, dtype=bool)
    mask[chosen] = True
    return mask


_DERIVE_CASES = dict(
    seed=st.integers(min_value=0, max_value=400),
    pick_seed=st.integers(min_value=0, max_value=1000),
    size=st.sampled_from([1, 3, 7]),
)


def _chosen(db, pick_seed, size):
    return np.random.default_rng(pick_seed).choice(db.n_facts, size=min(size, db.n_facts), replace=False)


@settings(max_examples=80, deadline=None)
@given(**_DERIVE_CASES)
def test_take_equals_a_rebuild_and_an_insert(seed, pick_seed, size):
    """Drop a cascade: ``take`` of the survivors equals a rebuild from their
    decoded rows, and ``take`` of survivors then cascade equals inserting
    the cascade into that rebuild.  The source is left as it was, and the
    derived databases share its value tables."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    removed = closure(db, _mask(db, _chosen(db, pick_seed, size)), referencing=True, referenced=False)
    kept, gone = np.flatnonzero(~removed), np.flatnonzero(removed)
    before = _store_arrays(db)
    reduced = take(db, kept)
    extended = take(db, np.concatenate([kept, gone]))
    rebuild = build_database(schema, [(db.fact(f).relation, db.fact(f).values) for f in kept.tolist()])
    _assert_same_store(reduced, rebuild)
    _assert_same_store(extended, insert_facts(rebuild, [db.fact(f) for f in gone.tolist()]))
    _assert_store_unchanged(before, db)
    for derived in (reduced, extended):
        for rel in schema.relation_names:
            for got, source in zip(derived._columns[rel], db._columns[rel], strict=True):
                assert got.table is source.table and got.codes is source.codes


@settings(max_examples=60, deadline=None)
@given(**_DERIVE_CASES)
def test_take_from_a_version_whose_sibling_appended_since(seed, pick_seed, size):
    """An insert grows the source's stores in place after the source was
    made; ``take`` of the source's survivors, in id order and shuffled,
    still equals a rebuild from their rows, without the newer facts' keys
    and strings in its key maps."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    newer = insert_facts(db, _with_fresh_strings(schema, _linked_batch(db, "s_"), "s_"))
    assert newer._lineage is db._lineage
    removed = closure(db, _mask(db, _chosen(db, pick_seed, size)), referencing=True, referenced=False)
    kept = np.flatnonzero(~removed)
    shuffled = np.random.default_rng(pick_seed).permutation(db.n_facts)
    for ids in (kept, shuffled):
        derived = take(db, ids)
        rebuild = build_database(schema, [(db.fact(f).relation, db.fact(f).values) for f in ids.tolist()])
        _assert_same_store(derived, rebuild)


@settings(max_examples=80, deadline=None)
@given(**_DERIVE_CASES)
def test_closure_matches_the_per_fact_closures(seed, pick_seed, size):
    schema = random_schema(seed)
    db = random_database(schema, seed)
    chosen = _chosen(db, pick_seed, size)
    mask = _mask(db, chosen)
    cascade = closure(db, mask, referencing=True, referenced=False)
    assert set(np.flatnonzero(cascade).tolist()) == reference_cascade(db, chosen)
    both = closure(db, mask, referencing=True, referenced=True)
    assert set(np.flatnonzero(both).tolist()) == reference_sample_closure(db, chosen)
    assert np.array_equal(closure(db, mask, referencing=False, referenced=False), mask)
    assert set(np.flatnonzero(mask).tolist()) == set(chosen.tolist())  # the input is not changed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), pick=st.integers(min_value=0, max_value=10_000))
def test_take_refuses_a_fact_whose_reference_is_not_taken(seed, pick):
    """Leave out one fact that another fact references: ``take`` raises,
    and the source is left as it was."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    referenced = [int(ix.fwd[f]) for ix in db.fk_index for f in np.flatnonzero(ix.fwd >= 0) if ix.fwd[f] != f]
    assume(referenced)
    dropped = referenced[pick % len(referenced)]
    before = _store_arrays(db)
    with pytest.raises(IntegrityError, match="which is not taken"):
        take(db, [f for f in range(db.n_facts) if f != dropped])
    _assert_store_unchanged(before, db)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), order_seed=st.integers(min_value=0, max_value=1000))
def test_take_in_any_order_equals_a_rebuild_in_that_order(seed, order_seed):
    """Every fact, in a shuffled order: the renumbered index still groups
    each destination's referencing facts in ascending new id."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    order = np.random.default_rng(order_seed).permutation(db.n_facts)
    rows = [(db.fact(f).relation, db.fact(f).values) for f in order.tolist()]
    _assert_same_store(take(db, order), build_database(schema, rows))
