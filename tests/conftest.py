"""Shared fixtures: small databases with hand-checkable structure, the
decoding of sampled target values and exact value laws, scalar readers of
the foreign-key arrays, and the dict walkers, per-fact closures and the
per-row CSV load that the array and column paths replaced, kept as
oracles, and an optimality oracle for the logistic classifier."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from walkembed.errors import IntegrityError
from walkembed.evaluation import _GRADIENT_TOL
from walkembed.kernels import kernel_eval
from walkembed.relational import Value, build_database, schema_from_dict
from walkembed.schemes import FORWARD


def decoded(db, tws, dests, values) -> list[Value]:
    """``sample_target_values_batch``'s codes or floats as Python values,
    through ``Database.column``; None where no destination was reached."""
    _, _, table = db.column(tws.scheme.end_relation, tws.target_attr)
    decode = (lambda v: v) if table is None else table.__getitem__
    return [None if d < 0 else decode(v) for d, v in zip(dests.tolist(), values.tolist())]


def law_dicts(db, tws, law, n_rows) -> list[dict]:
    """An ``exact_value_law`` (or, with ``tws`` None, an ``exact_dest_law``)
    as one dict per start row, values decoded through ``Database.column``."""
    row, keys, weight = law
    keys = keys.tolist()
    if tws is not None:
        _, _, table = db.column(tws.scheme.end_relation, tws.target_attr)
        if table is not None:
            keys = [table[c] for c in keys]
    out: list[dict] = [{} for _ in range(n_rows)]
    for r, k, w in zip(row.tolist(), keys, weight.tolist()):
        out[r][k] = w
    return out


# -- the per-row CSV load ----------------------------------------------------------------


def _parse_cell(rel, attr, cell, file, line_no):
    if cell == "":
        if not attr.nullable:
            raise IntegrityError(
                f"null in non-nullable attribute {rel.name}.{attr.name} ({file} line {line_no})"
            )
        if attr.name in rel.key:
            raise IntegrityError(f"null key value in {rel.name}.{attr.name} ({file} line {line_no})")
        return None
    if attr.kind == "numeric":
        try:
            value = float(cell)
        except ValueError:
            raise IntegrityError(
                f"cannot parse {cell!r} as numeric for {rel.name}.{attr.name} ({file} line {line_no})"
            ) from None
        if not math.isfinite(value):
            raise IntegrityError(
                f"non-finite value {cell!r} in {rel.name}.{attr.name} ({file} line {line_no})"
            )
        return value
    return cell


def read_relation_csv(rel, path):
    """The parsed rows of one relation's CSV file, one at a time, as the
    load first read them: each row checked cell by cell, and an error
    raised at the first faulty line."""
    line_no = 0  # the last line read
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IntegrityError(f"{path} is empty; expected a header row") from None
            line_no = 1
            if tuple(header) != rel.attr_names:
                raise IntegrityError(
                    f"{path} header {header!r} does not match attributes {rel.attr_names!r}"
                )
            attributes, width, file = rel.attributes, len(rel.attributes), path.name
            for line_no, cells in enumerate(reader, start=2):
                if len(cells) != width:
                    raise IntegrityError(
                        f"{path} line {line_no}: expected {width} cells, got {len(cells)}"
                    )
                yield tuple([
                    _parse_cell(rel, attr, cell, file, line_no) for attr, cell in zip(attributes, cells)
                ])
    except csv.Error as exc:
        raise IntegrityError(f"{path} line {line_no + 1}: {exc}") from None
    except UnicodeDecodeError:
        data = path.read_bytes()  # the text layer decodes in chunks: find the line in the bytes
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise IntegrityError(f"{path} line {line_no}: not UTF-8 text ({exc.reason})") from None
        raise
    except OSError as exc:
        raise IntegrityError(f"cannot read {path}: {exc.strerror}") from None


def load_database_by_rows(schema, data_dir):
    """The load as first written: every file through the per-row reader
    ``read_relation_csv`` into one list of (relation, row) pairs, relations
    in schema order, then ``build_database`` over that list."""
    rows = []
    for rel in schema.relations:
        path = Path(data_dir) / f"{rel.name}.csv"
        if not path.exists():
            raise IntegrityError(f"missing data file for relation {rel.name!r}: {path}")
        rows.extend((rel.name, values) for values in read_relation_csv(rel, path))
    return build_database(schema, rows)


def assert_same_arrays(got, want):
    """``got`` and ``want`` hold equal stores array for array: every
    column's data (to the bit), null mask, value table and code map, the
    key maps in order with keys of the same types, the id tuples, ``row_of``, the relation positions
    and every ``FkIndex``."""
    assert got.schema == want.schema
    for a, b in ((got.row_of, want.row_of), (got._rel_of, want._rel_of)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for rel in got.schema.relation_names:
        for c, d in zip(got._columns[rel], want._columns[rel], strict=True):
            assert c.data.dtype == d.data.dtype and c.data.tobytes() == d.data.tobytes()
            assert c.null.dtype == d.null.dtype == bool and np.array_equal(c.null, d.null)
            if d.table is None:
                assert c.table is None and c.codes is None
            else:
                assert c.table.dtype == d.table.dtype == object and c.table.tolist() == d.table.tolist()
                assert list(c.codes.items()) == list(d.codes.items())
        assert list(got._key_to_fact[rel].items()) == list(want._key_to_fact[rel].items())
        for a, b in zip(got._key_to_fact[rel], want._key_to_fact[rel]):
            assert list(map(type, a)) == list(map(type, b))
        assert got.relation_fact_ids(rel) == want.relation_fact_ids(rel)
    for a, b in zip(got.fk_index, want.fk_index, strict=True):
        for x, y in zip(a, b, strict=True):
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


# -- the classifier's objective, in plain 2-D numpy ----------------------------------

CLASSIFIER_L2 = 1e-4


def classifier_problem(X, labels) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(classes, column means, column scales, standardised features with a
    bias column, one-hot labels) of one classification problem; a constant
    column gets unit scale."""
    X = np.asarray(X, dtype=np.float64)
    classes = sorted(set(labels), key=str)
    y = np.zeros((len(labels), len(classes)))
    y[np.arange(len(labels)), [classes.index(lab) for lab in labels]] = 1.0
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return classes, mean, scale, np.hstack([(X - mean) / scale, np.ones((len(X), 1))]), y


def classifier_objective(Xs, y, W) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of weights ``W`` (d+1, classes) plus
    ``CLASSIFIER_L2``/2 times the squared weights outside the bias row, and
    its gradient."""
    logits = Xs @ W
    logits -= logits.max(axis=1, keepdims=True)
    log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    grad = Xs.T @ (np.exp(log_p) - y) / len(Xs)
    grad[:-1] += CLASSIFIER_L2 * W[:-1]
    return float(-(log_p * y).sum(axis=1).mean() + CLASSIFIER_L2 / 2 * (W[:-1] ** 2).sum()), grad


def assert_optimal_classifier(clf, X, labels, descent_steps: int = 0) -> None:
    """``clf`` has the classes and moments of (X, labels) and minimises its
    objective: the gradient's largest entry is within the solver's stated
    tolerance (plus 1e-13 for this oracle's rounding), each weight row sums
    to zero, and, given ``descent_steps``, the objective is no higher than
    that many unit steps of full-batch gradient descent from zero reach."""
    classes, mean, scale, Xs, y = classifier_problem(X, labels)
    assert clf.classes == classes
    assert np.array_equal(clf.mean, mean) and np.array_equal(clf.scale, scale)
    value, grad = classifier_objective(Xs, y, clf.weights)
    assert np.abs(grad).max() <= _GRADIENT_TOL + 1e-13
    assert np.abs(clf.weights.sum(axis=1)).max() <= 1e-12
    if descent_steps:
        W = np.zeros_like(clf.weights)
        for _ in range(descent_steps):
            W -= classifier_objective(Xs, y, W)[1]
        assert value <= classifier_objective(Xs, y, W)[0] + 1e-12


# -- scalar readers of the foreign-key arrays -----------------------------------------


def forward_ref(db, fk_pos, fact_id):
    """Fact referenced by ``fact_id`` through the foreign key at ``fk_pos``, if any."""
    dst = int(db.fk_index[fk_pos].fwd[fact_id])
    return None if dst < 0 else dst


def back_refs(db, fk_pos, fact_id):
    """Facts referencing ``fact_id`` through the foreign key at ``fk_pos``, in load order."""
    index = db.fk_index[fk_pos]
    return tuple(index.flat[index.offsets[fact_id] : index.offsets[fact_id + 1]].tolist())


def step_candidates(db, fact_id, step):
    """The facts one step of a walk can move to from ``fact_id``."""
    pos = db.schema.fk_position(step.fk)
    if step.direction == FORWARD:
        dst = forward_ref(db, pos, fact_id)
        return () if dst is None else (dst,)
    return back_refs(db, pos, fact_id)


# -- closures one fact at a time ------------------------------------------------------


def reference_cascade(db, chosen) -> set[int]:
    """The deletion cascade as first written: follow every removed fact's
    back references, one fact and one foreign key at a time, until the
    set stops growing."""
    removed = set(int(x) for x in chosen)
    grew = True
    while grew:
        grew = False
        for pos, fk in enumerate(db.schema.foreign_keys):
            for dst in list(removed):
                if db.fact(dst).relation != fk.dst:
                    continue
                for src in back_refs(db, pos, dst):
                    if src not in removed:
                        removed.add(src)
                        grew = True
    return removed


def reference_sample_closure(db, seeds) -> set[int]:
    """The sample database's closure as first written: from ``seeds``,
    follow every forward and back reference one fact at a time."""
    closed: set[int] = set()
    frontier = [int(x) for x in seeds]
    while frontier:
        fid = frontier.pop()
        if fid in closed:
            continue
        closed.add(fid)
        relation = db.relation_of(fid)
        for pos, fk in enumerate(db.schema.foreign_keys):
            if fk.src == relation:
                dst = forward_ref(db, pos, fid)
                if dst is not None and dst not in closed:
                    frontier.append(dst)
            if fk.dst == relation:
                frontier.extend(src for src in back_refs(db, pos, fid) if src not in closed)
    return closed


# -- dict walkers: the exact laws one fact at a time ----------------------------------


def reference_dest_distribution(db, fact_id, scheme) -> dict[int, float]:
    """Exact destination law of one start, propagated as a dict; mass
    flowing into a dead end is discarded and the rest renormalised."""
    assert db.relation_of(fact_id) == scheme.start_relation
    dist = {fact_id: 1.0}
    for step in scheme.steps:
        nxt: dict[int, float] = {}
        for fid, p in dist.items():
            candidates = step_candidates(db, fid, step)
            if not candidates:
                continue
            share = p / len(candidates)
            for c in candidates:
                nxt[c] = nxt.get(c, 0.0) + share
        dist = nxt
        if not dist:
            return {}
    total = sum(dist.values())
    if total <= 0.0:
        return {}
    return {fid: p / total for fid, p in dist.items()}


def reference_value_distribution(db, fact_id, tws) -> dict[Value, float]:
    """Destination-attribute law with nulls dropped and the rest renormalised."""
    dest = reference_dest_distribution(db, fact_id, tws.scheme)
    out: dict[Value, float] = {}
    for fid, p in dest.items():
        v = db.attr_value(fid, tws.target_attr)
        if v is None:
            continue
        out[v] = out.get(v, 0.0) + p
    total = sum(out.values())
    if total <= 0.0:
        return {}
    return {v: p / total for v, p in out.items()}


def reference_has_complete_walk(db, fact_id, scheme) -> bool:
    """Whether at least one walk of the scheme completes from ``fact_id``,
    propagating the set of reachable facts."""
    frontier = {fact_id}
    for step in scheme.steps:
        nxt: set[int] = set()
        for fid in frontier:
            nxt.update(step_candidates(db, fid, step))
        frontier = nxt
        if not frontier:
            return False
    return True


def reference_kd(db, fact_a, fact_b, tws, spec) -> float | None:
    """Expected kernel distance from the dict value laws and the scalar
    ``kernel_eval``; None where either law is empty."""
    da = reference_value_distribution(db, fact_a, tws)
    dbb = reference_value_distribution(db, fact_b, tws)
    if not da or not dbb:
        return None
    return sum(pa * pb * kernel_eval(spec, va, vb) for va, pa in da.items() for vb, pb in dbb.items())


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
