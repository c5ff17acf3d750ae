"""Relational schemas, databases, and the foreign-key index.

A database is a set of facts over a fixed schema.  Attribute values are
plain Python objects: ``None`` for null, ``str`` for categorical and text
attributes, ``float`` for numeric ones.  Every relation declares a key, and
every foreign key must target the full key of its destination relation, so
a non-null reference always resolves to exactly one fact.

Facts get integer ids in load order across the whole database; ids are
stable and serve as the identity of a fact everywhere else in the package.
Databases are immutable once built.

The foreign-key index holds one ``FkIndex`` of int64 arrays per foreign
key, in schema order, and is the only form of the index: the walk
samplers step through these arrays directly.  ``fwd[f]`` is the fact that
fact ``f`` references, or -1 when ``f`` is not in the source relation or
has a null in a referencing attribute.  The backward direction is CSR:
the facts referencing ``d`` are ``flat[offsets[d]:offsets[d + 1]]``, in
ascending id (load) order.  ``build_database`` builds the arrays once.
``insert_facts`` extends copies of its source's arrays with the batch's
references, so the result equals a full rebuild on the combined rows and
the source is left as it was.  ``drop_attribute`` (a column in no key and
no foreign key) shares the fact ids, the key maps and the index arrays
with its source; this is safe because nothing mutates them after
construction and the index reads only key and foreign-key attributes.
There is no per-database cache.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import IntegrityError, SchemaError

Value = None | str | float

KINDS = ("categorical", "numeric", "text")


@dataclass(frozen=True)
class AttributeDecl:
    """One attribute of a relation: name, value kind, nullability."""

    name: str
    kind: str
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class RelationSchema:
    name: str
    attributes: tuple[AttributeDecl, ...]
    key: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {self.name!r}")
        if not self.key:
            raise SchemaError(f"relation {self.name!r} declares an empty key")
        for attr in self.key:
            if attr not in names:
                raise SchemaError(f"key attribute {attr!r} not declared in relation {self.name!r}")
        if len(set(self.key)) != len(self.key):
            raise SchemaError(f"repeated attribute in key of relation {self.name!r}")

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attr_index(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise SchemaError(f"relation {self.name!r} has no attribute {name!r}")

    def attribute(self, name: str) -> AttributeDecl:
        return self.attributes[self.attr_index(name)]


@dataclass(frozen=True)
class ForeignKey:
    """Inclusion dependency src[src_attrs] ⊆ dst[dst_attrs], dst_attrs = key(dst)."""

    src: str
    src_attrs: tuple[str, ...]
    dst: str
    dst_attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.src_attrs) != len(self.dst_attrs) or not self.src_attrs:
            raise SchemaError(
                f"foreign key {self.src}->{self.dst} must list matching, non-empty attribute tuples"
            )

    @property
    def name(self) -> str:
        return (
            f"{self.src}({','.join(self.src_attrs)})->"
            f"{self.dst}({','.join(self.dst_attrs)})"
        )


@dataclass(frozen=True)
class DatabaseSchema:
    relations: tuple[RelationSchema, ...]
    foreign_keys: tuple[ForeignKey, ...]
    _by_name: dict[str, RelationSchema] = field(init=False, repr=False, compare=False)
    _fk_pos: dict[ForeignKey, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, RelationSchema] = {}
        for rel in self.relations:
            if rel.name in by_name:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            by_name[rel.name] = rel
        object.__setattr__(self, "_by_name", by_name)
        fk_pos: dict[ForeignKey, int] = {}
        for pos, fk in enumerate(self.foreign_keys):
            if fk in fk_pos:
                raise SchemaError(f"duplicate foreign key {fk.name}")
            fk_pos[fk] = pos
            for side, rel_name, attrs in (("source", fk.src, fk.src_attrs), ("destination", fk.dst, fk.dst_attrs)):
                if rel_name not in by_name:
                    raise SchemaError(f"foreign key {fk.name} references unknown {side} relation {rel_name!r}")
                rel = by_name[rel_name]
                for attr in attrs:
                    if attr not in rel.attr_names:
                        raise SchemaError(f"foreign key {fk.name} uses unknown attribute {attr!r} of {rel_name!r}")
            if tuple(fk.dst_attrs) != by_name[fk.dst].key:
                raise SchemaError(
                    f"foreign key {fk.name} must target the key of {fk.dst!r} "
                    f"(key is {by_name[fk.dst].key})"
                )
        object.__setattr__(self, "_fk_pos", fk_pos)

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def fk_position(self, fk: ForeignKey) -> int:
        """Index of ``fk`` in ``foreign_keys``."""
        try:
            return self._fk_pos[fk]
        except KeyError:
            raise SchemaError(f"foreign key {fk.name} is not part of the schema") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)


@dataclass(frozen=True)
class Fact:
    """One tuple.  ``fact_id`` is -1 until the fact joins a database."""

    relation: str
    values: tuple[Value, ...]
    fact_id: int = -1

    def value(self, schema: RelationSchema, attr: str) -> Value:
        return self.values[schema.attr_index(attr)]


class FkIndex(NamedTuple):
    """One foreign key's index: ``fwd`` maps a fact id to the referenced
    id (-1 for none); the facts referencing ``d`` are
    ``flat[offsets[d]:offsets[d + 1]]`` in ascending id order."""

    fwd: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray


class Database:
    """Immutable fact store plus the foreign-key index, one ``FkIndex`` per
    foreign key in schema order."""

    def __init__(
        self,
        schema: DatabaseSchema,
        facts: tuple[Fact, ...],
        by_relation: dict[str, tuple[int, ...]],
        key_to_fact: dict[str, dict[tuple[Value, ...], int]],
        fk_index: tuple[FkIndex, ...],
    ) -> None:
        self.schema = schema
        self._facts = facts
        self._by_relation = by_relation
        self._key_to_fact = key_to_fact
        self.fk_index = fk_index

    # -- basic access ------------------------------------------------------

    @property
    def n_facts(self) -> int:
        return len(self._facts)

    @property
    def facts(self) -> tuple[Fact, ...]:
        return self._facts

    def fact(self, fact_id: int) -> Fact:
        return self._facts[fact_id]

    def relation_fact_ids(self, relation: str) -> tuple[int, ...]:
        self.schema.relation(relation)
        return self._by_relation.get(relation, ())

    def relation_facts(self, relation: str) -> list[Fact]:
        return [self._facts[i] for i in self.relation_fact_ids(relation)]

    def attr_value(self, fact_id: int, attr: str) -> Value:
        fact = self._facts[fact_id]
        return fact.values[self.schema.relation(fact.relation).attr_index(attr)]

    def key_of(self, fact_id: int) -> tuple[Value, ...]:
        fact = self._facts[fact_id]
        rel = self.schema.relation(fact.relation)
        return tuple(fact.values[rel.attr_index(a)] for a in rel.key)

    def fact_by_key(self, relation: str, key: tuple[Value, ...]) -> int | None:
        return self._key_to_fact.get(relation, {}).get(key)

    # -- foreign-key index -------------------------------------------------

    def forward_ref(self, fk_pos: int, fact_id: int) -> int | None:
        """Fact referenced by ``fact_id`` through the fk at ``fk_pos``, if any."""
        dst = int(self.fk_index[fk_pos].fwd[fact_id])
        return None if dst < 0 else dst

    def back_refs(self, fk_pos: int, fact_id: int) -> tuple[int, ...]:
        """Facts referencing ``fact_id`` through the fk at ``fk_pos``, in load order."""
        index = self.fk_index[fk_pos]
        return tuple(index.flat[index.offsets[fact_id] : index.offsets[fact_id + 1]].tolist())

    def active_domain(self, relation: str, attr: str) -> set[Value]:
        rel = self.schema.relation(relation)
        pos = rel.attr_index(attr)
        return {self._facts[i].values[pos] for i in self.relation_fact_ids(relation)
                if self._facts[i].values[pos] is not None}


# -- construction ----------------------------------------------------------


def _check_value(rel: RelationSchema, attr: AttributeDecl, value: Value, where: str, n: int) -> Value:
    """``value`` as stored; errors name the row as ``where`` followed by ``n``."""
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


def build_database(schema: DatabaseSchema, rows: Sequence[tuple[str, Sequence[Value]]]) -> Database:
    """Build a database from (relation name, values) rows, ids in row order."""
    facts: list[Fact] = []
    by_relation: dict[str, list[int]] = {r: [] for r in schema.relation_names}
    key_to_fact: dict[str, dict[tuple[Value, ...], int]] = {r: {} for r in schema.relation_names}
    # Per relation, looked up once: schema, width, key positions and the
    # key and id buckets the rows go into.
    plans: dict[str, tuple] = {}

    for rel_name, values in rows:
        plan = plans.get(rel_name)
        if plan is None:
            rel = schema.relation(rel_name)
            key_pos = tuple(rel.attr_index(a) for a in rel.key)
            plan = plans[rel_name] = (
                rel, len(rel.attributes), key_pos, key_to_fact[rel_name], by_relation[rel_name]
            )
        rel, width, key_pos, keys, ids = plan
        if len(values) != width:
            raise IntegrityError(
                f"relation {rel_name!r} expects {width} values, got {len(values)}"
            )
        fact_id = len(facts)
        checked = tuple([
            _check_value(rel, attr, v, "row", fact_id) for attr, v in zip(rel.attributes, values)
        ])
        key = tuple([checked[p] for p in key_pos])
        if None in key:
            raise IntegrityError(f"null key value in {rel_name!r} row {fact_id}")
        if key in keys:
            raise IntegrityError(f"duplicate key {key!r} in relation {rel_name!r}")
        keys[key] = fact_id
        facts.append(Fact(rel_name, checked, fact_id))
        ids.append(fact_id)

    by_relation_ids = {r: tuple(ids) for r, ids in by_relation.items()}
    fk_index = _build_fk_index(schema, facts, by_relation_ids, key_to_fact)
    return Database(schema, tuple(facts), by_relation_ids, key_to_fact, fk_index)


def _build_fk_index(
    schema: DatabaseSchema,
    facts: Sequence[Fact],
    by_relation: dict[str, tuple[int, ...]],
    key_to_fact: dict[str, dict[tuple[Value, ...], int]],
) -> tuple[FkIndex, ...]:
    n = len(facts)
    index: list[FkIndex] = []
    for fk in schema.foreign_keys:
        src_rel = schema.relation(fk.src)
        src_pos = [src_rel.attr_index(a) for a in fk.src_attrs]
        dst_keys = key_to_fact[fk.dst]
        srcs: list[int] = []
        dsts: list[int] = []
        for fact_id in by_relation[fk.src]:
            values = facts[fact_id].values
            ref = tuple([values[p] for p in src_pos])
            if None in ref:
                continue  # a null anywhere in the reference makes it non-referencing
            dst_id = dst_keys.get(ref)
            if dst_id is None:
                raise IntegrityError(
                    f"dangling reference {ref!r} from {fk.src}(id {fact_id}) via {fk.name}"
                )
            srcs.append(fact_id)
            dsts.append(dst_id)
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        fwd = np.full(n, -1, dtype=np.int64)
        fwd[src] = dst
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=offsets[1:])
        # sources come in ascending id order, so a stable sort by
        # destination keeps each group in load order
        index.append(FkIndex(fwd, offsets, src[np.argsort(dst, kind="stable")]))
    return tuple(index)


def _extend_fk_index(old: FkIndex, n: int, srcs: list[int], dsts: list[int]) -> FkIndex:
    """``old`` grown to ``n`` facts plus the references ``srcs[i] -> dsts[i]``.

    ``srcs`` must ascend and exceed every id ``old`` covers; then each new
    source belongs at the end of its destination's group, and the groups
    stay in load order.  ``old`` is not changed.
    """
    n_old = len(old.fwd)
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    fwd = np.concatenate([old.fwd, np.full(n - n_old, -1, dtype=np.int64)])
    fwd[src] = dst
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    # offsets[i] grows by the number of new references to ids below i
    offsets = np.concatenate([old.offsets, np.full(n - n_old, old.offsets[-1])])
    offsets += np.repeat(np.arange(len(dst) + 1), np.diff(dst + 1, prepend=0, append=n + 1))
    ends = old.offsets[np.minimum(dst + 1, n_old)]
    return FkIndex(fwd, offsets, np.insert(old.flat, ends, src))


def insert_facts(db: Database, new_facts: Iterable[Fact]) -> Database:
    """Return a new database with ``new_facts`` appended under fresh ids.

    The whole batch is validated before anything is added; on error the
    original database is untouched.  Batch facts may reference each other.
    The resulting index is identical to a full rebuild on the combined rows.
    """
    schema = db.schema
    staged: list[Fact] = []
    key_extra: dict[str, dict[tuple[Value, ...], int]] = {r: {} for r in schema.relation_names}
    next_id = db.n_facts
    for fact in new_facts:
        rel = schema.relation(fact.relation)
        if len(fact.values) != len(rel.attributes):
            raise IntegrityError(
                f"relation {fact.relation!r} expects {len(rel.attributes)} values, got {len(fact.values)}"
            )
        checked = tuple(
            _check_value(rel, attr, v, "inserted row", next_id)
            for attr, v in zip(rel.attributes, fact.values)
        )
        key = tuple(checked[rel.attr_index(a)] for a in rel.key)
        if None in key:
            raise IntegrityError(f"null key value in inserted {fact.relation!r} row")
        if db.fact_by_key(fact.relation, key) is not None or key in key_extra[fact.relation]:
            raise IntegrityError(f"duplicate key {key!r} in relation {fact.relation!r}")
        key_extra[fact.relation][key] = next_id
        staged.append(Fact(fact.relation, checked, next_id))
        next_id += 1

    def resolve(rel_name: str, key: tuple[Value, ...]) -> int | None:
        hit = db.fact_by_key(rel_name, key)
        if hit is not None:
            return hit
        return key_extra[rel_name].get(key)

    # Validate all references (old facts cannot dangle; only new ones
    # checked), then extend copies of the source's arrays.
    fk_index: list[FkIndex] = []
    for pos, fk in enumerate(schema.foreign_keys):
        src_rel = schema.relation(fk.src)
        src_pos = [src_rel.attr_index(a) for a in fk.src_attrs]
        srcs: list[int] = []
        dsts: list[int] = []
        for fact in staged:
            if fact.relation != fk.src:
                continue
            ref = tuple(fact.values[p] for p in src_pos)
            if None in ref:
                continue
            dst_id = resolve(fk.dst, ref)
            if dst_id is None:
                raise IntegrityError(
                    f"dangling reference {ref!r} from inserted {fk.src} row via {fk.name}"
                )
            srcs.append(fact.fact_id)
            dsts.append(dst_id)
        fk_index.append(_extend_fk_index(db.fk_index[pos], next_id, srcs, dsts))

    facts = db.facts + tuple(staged)
    by_relation = {
        r: db._by_relation.get(r, ()) + tuple(f.fact_id for f in staged if f.relation == r)
        for r in schema.relation_names
    }
    key_to_fact = {
        r: {**db._key_to_fact.get(r, {}), **key_extra[r]} for r in schema.relation_names
    }
    return Database(schema, facts, by_relation, key_to_fact, tuple(fk_index))


def drop_attribute(db: Database, relation: str, attribute: str) -> Database:
    """``db`` without one attribute of ``relation``, under the same fact ids.

    The attribute must be in neither the relation's key nor any foreign
    key.  Then the key maps and the foreign-key index, which read only
    key and foreign-key attributes, are the source's own and are shared
    with it; only the facts of ``relation`` are rebuilt.
    """
    rel = db.schema.relation(relation)
    drop = rel.attr_index(attribute)
    if attribute in rel.key:
        raise SchemaError(f"cannot drop key attribute {relation}.{attribute}")
    for fk in db.schema.foreign_keys:
        if fk.src == relation and attribute in fk.src_attrs:
            raise SchemaError(f"cannot drop {relation}.{attribute}: it is in foreign key {fk.name}")
    new_rel = RelationSchema(
        relation, rel.attributes[:drop] + rel.attributes[drop + 1 :], rel.key
    )
    schema = DatabaseSchema(
        tuple(new_rel if r.name == relation else r for r in db.schema.relations),
        db.schema.foreign_keys,
    )
    facts = list(db.facts)
    for fact_id in db.relation_fact_ids(relation):
        values = facts[fact_id].values
        facts[fact_id] = Fact(relation, values[:drop] + values[drop + 1 :], fact_id)
    return Database(schema, tuple(facts), db._by_relation, db._key_to_fact, db.fk_index)


# -- schema and CSV loading -------------------------------------------------


def schema_from_dict(doc: dict) -> DatabaseSchema:
    try:
        relations = tuple(
            RelationSchema(
                name=rel["name"],
                attributes=tuple(
                    AttributeDecl(a["name"], a["kind"], bool(a.get("nullable", True)))
                    for a in rel["attributes"]
                ),
                key=tuple(rel["key"]),
            )
            for rel in doc["relations"]
        )
        foreign_keys = tuple(
            ForeignKey(
                src=fk["src"],
                src_attrs=tuple(fk["src_attrs"]),
                dst=fk["dst"],
                dst_attrs=tuple(fk["dst_attrs"]),
            )
            for fk in doc.get("foreign_keys", [])
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema descriptor: {exc}") from exc
    return DatabaseSchema(relations, foreign_keys)


def schema_to_dict(schema: DatabaseSchema) -> dict:
    """Inverse of schema_from_dict."""
    return {
        "relations": [
            {
                "name": rel.name,
                "attributes": [
                    {"name": a.name, "kind": a.kind, "nullable": a.nullable}
                    for a in rel.attributes
                ],
                "key": list(rel.key),
            }
            for rel in schema.relations
        ],
        "foreign_keys": [
            {
                "src": fk.src,
                "src_attrs": list(fk.src_attrs),
                "dst": fk.dst,
                "dst_attrs": list(fk.dst_attrs),
            }
            for fk in schema.foreign_keys
        ],
    }


def save_schema(schema: DatabaseSchema, path: str | Path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh, indent=2)


def load_schema(path: str | Path) -> DatabaseSchema:
    import json

    path = Path(path)
    if not path.exists():
        raise SchemaError(f"schema file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    return schema_from_dict(doc)


def _parse_cell(rel: RelationSchema, attr: AttributeDecl, cell: str, file: str, line_no: int) -> Value:
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


def read_relation_csv(rel: RelationSchema, path: Path) -> Iterator[tuple[Value, ...]]:
    """The parsed rows of one relation's CSV file, one at a time.

    The header must equal the attribute names in schema order and every
    row must have one cell per attribute.  Empty cells are nulls, which
    key and non-nullable attributes reject; numeric cells must parse as
    finite floats.  Errors name the file and line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IntegrityError(f"{path} is empty; expected a header row") from None
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


def load_database(schema: DatabaseSchema, data_dir: str | Path) -> Database:
    """Load one CSV per relation from ``data_dir``.

    Files are named ``<relation>.csv`` and read by ``read_relation_csv``.
    Fact ids follow file row order, relations in schema order, so loading
    is deterministic.
    """
    data_dir = Path(data_dir)
    rows: list[tuple[str, tuple[Value, ...]]] = []
    for rel in schema.relations:
        path = data_dir / f"{rel.name}.csv"
        if not path.exists():
            raise IntegrityError(f"missing data file for relation {rel.name!r}: {path}")
        rows.extend((rel.name, values) for values in read_relation_csv(rel, path))
    return build_database(schema, rows)


def write_database_csv(db: Database, out_dir: str | Path) -> None:
    """Write one CSV per relation, inverse of load_database."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rel in db.schema.relations:
        with open(out_dir / f"{rel.name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(rel.attr_names)
            for fact in db.relation_facts(rel.name):
                writer.writerow(["" if v is None else v for v in fact.values])
