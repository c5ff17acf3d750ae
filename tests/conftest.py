"""Shared fixtures: small databases with hand-checkable structure, and
the decoding of sampled target values."""

import pytest

from walkembed.relational import Value, build_database, schema_from_dict


def decoded(db, tws, dests, values) -> list[Value]:
    """``sample_target_values_batch``'s codes or floats as Python values,
    through ``Database.column``; None where no destination was reached."""
    _, _, table = db.column(tws.scheme.end_relation, tws.target_attr)
    decode = (lambda v: v) if table is None else table.__getitem__
    return [None if d < 0 else decode(v) for d, v in zip(dests.tolist(), values.tolist())]


@pytest.fixture
def toy_schema():
    """Two relations R(A,B) and S(C,D) with one foreign key R(A) -> S(C)."""
    return schema_from_dict(
        {
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
            "foreign_keys": [
                {"src": "R", "src_attrs": ["A"], "dst": "S", "dst_attrs": ["C"]}
            ],
        }
    )


@pytest.fixture
def toy_db(toy_schema):
    """R(x, b1), R(y, null); S(x, 1.0), S(y, 2.0), S(z, null).

    Fact ids in row order: R rows are 0 and 1, S rows are 2, 3, 4.
    Every R fact forward-references the S fact sharing its key; S(z) is
    referenced by nothing.
    """
    rows: list[tuple[str, tuple[Value, ...]]] = [
        ("R", ("x", "b1")),
        ("R", ("y", None)),
        ("S", ("x", 1.0)),
        ("S", ("y", 2.0)),
        ("S", ("z", None)),
    ]
    return build_database(toy_schema, rows)


@pytest.fixture
def chain_schema():
    """R(rid) and S(sid, ref, sval) where S.ref references R.rid."""
    return schema_from_dict(
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
                        {"name": "ref", "kind": "categorical", "nullable": False},
                        {"name": "sval", "kind": "categorical", "nullable": True},
                    ],
                    "key": ["sid"],
                },
            ],
            "foreign_keys": [
                {"src": "S", "src_attrs": ["ref"], "dst": "R", "dst_attrs": ["rid"]}
            ],
        }
    )


@pytest.fixture
def chain_db(chain_schema):
    """R(r1), R(r2); S(x, r1, va), S(y, r1, vb).

    Fact ids: R(r1)=0, R(r2)=1, S(x)=2, S(y)=3.  Walking backward through
    the foreign key from R(r1) reaches S(x) or S(y) with probability 1/2
    each; from R(r2) every walk dies (nothing references it).
    """
    rows: list[tuple[str, tuple[Value, ...]]] = [
        ("R", ("r1",)),
        ("R", ("r2",)),
        ("S", ("x", "r1", "va")),
        ("S", ("y", "r1", "vb")),
    ]
    return build_database(chain_schema, rows)
