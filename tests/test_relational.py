"""Schema validation, database construction, the foreign-key index, batch
insertion, and CSV round-trips.

The foreign-key index is checked against a brute-force oracle that scans
every fact pair; insertion is checked against rebuilding from scratch.
"""

import math

import numpy as np
import pytest

from walkembed.errors import IntegrityError, SchemaError
from walkembed.relational import (
    Fact,
    build_database,
    drop_attribute,
    insert_facts,
    load_database,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    write_database_csv,
)
from walkembed.synth import random_database, random_schema


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
    assert db.forward_ref(0, 1) == 0
    assert db.forward_ref(0, 2) is None
    assert db.back_refs(0, 0) == (1,)


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
            assert db.forward_ref(pos, f) == forward.get((pos, f))
        for g in db.relation_fact_ids(fk.dst):
            assert list(db.back_refs(pos, g)) == backward.get((pos, g), [])


def test_back_refs_in_load_order(chain_db):
    assert chain_db.back_refs(0, 0) == (2, 3)


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
            for src in db.back_refs(pos, f)
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
            assert grown.forward_ref(pos, f) == db.forward_ref(pos, f)
        for g in db.relation_fact_ids(fk.dst):
            assert grown.back_refs(pos, g) == db.back_refs(pos, g)


def test_insert_batch_may_reference_itself(chain_schema):
    db = build_database(chain_schema, [("R", ("r1",)), ("S", ("x", "r1", "v"))])
    batch = [Fact("R", ("r9",)), Fact("S", ("n1", "r9", "w"))]
    grown = insert_facts(db, batch)
    assert grown.n_facts == 4
    assert grown.forward_ref(0, 3) == 2


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
    assert chain_db.back_refs(0, 0) == (2, 3)


def test_insert_does_not_mutate_original(chain_db):
    grown = insert_facts(chain_db, [Fact("S", ("n1", "r1", "v"))])
    assert chain_db.n_facts == 4
    assert grown.n_facts == 5
    assert chain_db.back_refs(0, 0) == (2, 3)
    assert grown.back_refs(0, 0) == (2, 3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_insert_shares_untouched_back_refs(seed):
    """An insert leaves the source's backward index as it was, and the new
    database has the same back references as the source at every
    destination the batch does not reference."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    n_fk = len(schema.foreign_keys)
    before = [[db.back_refs(pos, f) for f in range(db.n_facts)] for pos in range(n_fk)]
    # copies of existing facts under fresh keys reference what the originals do
    batch = [
        Fact(db.fact(f).relation, (f"new{f}",) + db.fact(f).values[1:])
        for f in range(0, db.n_facts, 3)
    ]
    grown = insert_facts(db, batch)
    for pos in range(n_fk):
        assert [db.back_refs(pos, f) for f in range(db.n_facts)] == before[pos]
        touched = {grown.forward_ref(pos, f) for f in range(db.n_facts, grown.n_facts)}
        for f in range(db.n_facts):
            if f in touched:
                assert grown.back_refs(pos, f)[: len(before[pos][f])] == before[pos][f]
            elif before[pos][f]:
                assert grown.back_refs(pos, f) == db.back_refs(pos, f)


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
