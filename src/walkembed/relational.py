"""Relational schemas, databases, and the foreign-key index.

A database is a set of facts over a fixed schema.  Attribute values are
``None`` for null, ``str`` for categorical and text attributes and
``float`` for numeric ones.  Every relation declares a key, and every
foreign key must target the full key of its destination relation, so a
non-null reference always resolves to exactly one fact.

Facts get integer ids in load order across the whole database; ids are
stable and serve as the identity of a fact everywhere else in the package.
A database never changes once built: what it reads stays as it was,
whatever is derived from it later.

Values are stored as columns, and only as columns.  Each relation holds
one ``Column`` per attribute over its facts in id order: categorical and
text values as int32 codes into a value table of the distinct strings (an
object array), numbered in the order they first occur (never in set or
hash order, so codes do not depend on ``PYTHONHASHSEED``), numeric values
as float64.  Every column has a null mask.  Per fact id the database keeps
the position of its relation in the schema and its row in that relation's
columns (``row_of``), so a sampler reads the values its walks reach with
array indexing instead of one Python lookup per row.  ``Fact`` tuples are
built on demand: ``fact``, ``facts``, ``relation_facts``, ``attr_value``,
``key_of`` and ``active_domain`` decode them from the columns, and
``active_domain`` collects in id order, so a set of floats iterates as a
row-by-row build made it.

Builds, inserts and loads meet in one column entry: each hands it the
new facts as one value column per attribute of each relation, which it
validates and encodes one column at a time.  ``build_database`` and
``insert_facts`` transpose their rows into those columns;
``read_relation_columns`` reads a CSV file whole straight into them, for
loads and for new rows alike.  Each rule is written once: a column check
names its own first faulty row, or line of a file, and the error raised
is the first a row-by-row pass meets.  No input is read twice.

The foreign-key index holds one ``FkIndex`` of int64 arrays per foreign
key, in schema order, and is the only form of the index: the walk
samplers step through these arrays directly.  ``fwd[f]`` is the fact that
fact ``f`` references, or -1 when ``f`` is not in the source relation or
has a null in a referencing attribute.  The backward direction is CSR:
the facts referencing ``d`` are ``flat[offsets[d]:offsets[d + 1]]``, in
ascending id (load) order.

Writes append, and they append in place at the newest version.  A lineage
is the chain of versions built from one another by ``insert_facts``.  Its
token, shared by the versions, records the fact count of the newest
version (the tip) and which stores the lineage made and so may grow:
``row_of``, the relation positions, each column's codes or values and
null mask, each value table and code map, each key map, and each foreign
key's ``fwd``, ``offsets`` and ``flat``.  An insert into the tip
validates its batch column by column as a build does, into batch-sized
arrays, and only then writes the batch after the tip's entries in those
stores, so a failed insert leaves nothing behind; the new version views
the longer prefixes and becomes the tip.  Every version reads only its own
prefix of each array, and of each shared dict only its own entries, which
come first.  In a code map these are the codes below the column's table
length.  In a key map they are the ids below the version's fact count
that are facts of that relation: an insert into any version but the tip
copies the stores it touches into a new lineage and shares the key maps
of the relations it does not touch, and the old lineage may go on
appending to those under ids that the new one gives to facts of other
relations.  So every version reads as it did, and every one equals a
rebuild from its rows.  A reference from the batch to an older fact
lengthens that fact's backward group: the foreign key's ``offsets`` and
``flat`` are then written whole into new buffers, one pass over the
index.  A new buffer has room for an eighth more than the entries it
takes over; a build and ``take`` allocate exactly.  Relations a batch
does not touch keep the source's columns and key maps; their id tuples
are shared, and a touched relation's tuple is rebuilt from its key map
when first asked for.
``build_database`` is an insert into an empty database.
``drop_attribute`` (a column in no key and no foreign key) removes that
one column and shares everything else, its lineage included, with its
source.  ``take`` derives a database from chosen facts in a chosen order
and starts a new lineage: it gathers their column rows, renumbers the key
maps and the index and shares the value tables, which may then hold
strings no taken fact uses, numbered as in the source and not as a
rebuild would number them.  The taken ids must be closed under forward
references; ``closure`` grows a mask to such a set.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, islice, repeat
from operator import is_, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import IntegrityError, SchemaError, UsageError
from .files import ensure_dir, json_object, read_json, write_csv, write_json

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


class Column(NamedTuple):
    """One attribute over the facts of its relation, in id order.

    ``data`` holds int32 codes into ``table`` for categorical and text
    attributes and float64 values for numeric ones; ``null`` marks the null
    rows, which hold code -1 or NaN.  ``table`` is an object array of the
    strings, and ``codes`` maps each string of ``table`` to its code.  A
    code map may be shared with newer versions of the database, so a code
    at or past ``len(table)`` is not this column's.  ``table`` and
    ``codes`` are None for numeric columns.
    """

    data: np.ndarray
    null: np.ndarray
    table: np.ndarray | None
    codes: dict[str, int] | None

    def value(self, row: int) -> Value:
        if self.null.item(row):
            return None
        v = self.data.item(row)
        return v if self.table is None else self.table[v]

    def values(self) -> list[Value]:
        """The value of every row, None for nulls."""
        if self.table is None:
            return [None if n else v for v, n in zip(self.data.tolist(), self.null.tolist())]
        out = np.full(len(self.data), None, dtype=object)
        keep = ~self.null
        out[keep] = self.table[self.data[keep]]
        return out.tolist()


class _Lineage:
    """The versions of a database built from one another by appends.

    ``n_tip`` is the fact count of the newest version, the only one that
    appends in place.  ``owned`` names the stores the lineage made, which
    it may grow in place: the versions view prefixes of one buffer per
    array (the array's ``base``) and share one dict per map.  The token
    holds no store, so a store lives only as long as a version reads it.
    """

    __slots__ = ("n_tip", "owned")

    def __init__(self, n_tip: int) -> None:
        self.n_tip = n_tip
        self.owned: set[tuple] = set()

    def __reduce__(self):
        # a copy in another process gets copies of the arrays: its first append copies again
        return _Lineage, (self.n_tip,)


class Database:
    """Column store plus the foreign-key index, one ``FkIndex`` per
    foreign key in schema order; observably immutable."""

    def __init__(
        self,
        schema: DatabaseSchema,
        columns: dict[str, tuple[Column, ...]],
        rel_of: np.ndarray,
        row_of: np.ndarray,
        by_relation: dict[str, tuple[int, ...]],
        key_to_fact: dict[str, dict[tuple[Value, ...], int]],
        fk_index: tuple[FkIndex, ...],
        lineage: _Lineage | None = None,
    ) -> None:
        self.schema = schema
        self._columns = columns
        # per fact id: its relation's position in schema.relations and its
        # row in that relation's columns
        self._rel_of = rel_of
        self.row_of = row_of
        # id tuples, built from the key maps on first use where missing
        self._by_relation = by_relation
        # may be shared with other versions; this version's facts come first
        self._key_to_fact = key_to_fact
        self.fk_index = fk_index
        self._lineage = _Lineage(len(row_of)) if lineage is None else lineage

    # -- basic access ------------------------------------------------------

    @property
    def n_facts(self) -> int:
        return len(self.row_of)

    @property
    def facts(self) -> tuple[Fact, ...]:
        out: list[Fact] = [None] * self.n_facts  # type: ignore[list-item]
        for rel in self.schema.relations:
            for fact in self.relation_facts(rel.name):
                out[fact.fact_id] = fact
        return tuple(out)

    def relation_of(self, fact_id: int) -> str:
        return self.schema.relations[self._rel_of.item(fact_id)].name

    def fact(self, fact_id: int) -> Fact:
        fact_id = int(fact_id)
        row = self.row_of.item(fact_id)
        relation = self.relation_of(fact_id)
        # decoded inline: a Column.value call per attribute costs more than the decode
        values = tuple([
            None if null.item(row) else data.item(row) if table is None else table[data.item(row)]
            for data, null, table, _ in self._columns[relation]
        ])
        return Fact(relation, values, fact_id)

    def relation_fact_ids(self, relation: str) -> tuple[int, ...]:
        self.schema.relation(relation)
        ids = self._by_relation.get(relation)
        if ids is None:
            # a key map lists this version's facts first, in id order
            rows = len(self._columns[relation][0].data)
            ids = self._by_relation[relation] = tuple(islice(self._key_to_fact[relation].values(), rows))
        return ids

    def relation_facts(self, relation: str) -> list[Fact]:
        ids = self.relation_fact_ids(relation)
        rows = zip(*[c.values() for c in self._columns[relation]])
        return [Fact(relation, values, fact_id) for fact_id, values in zip(ids, rows)]

    def column(self, relation: str, attr: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(data, null mask, value table) of one attribute; rows follow
        ``relation_fact_ids`` and a fact's row is ``row_of[fact_id]``.  The
        value table is an object array, None for a numeric attribute.  All
        three are views that newer versions may share: read them, never
        write them."""
        col = self._column(relation, attr)
        return col.data, col.null, col.table

    def attr_values(self, relation: str, attr: str) -> list[Value]:
        """One attribute's values over the relation's facts, in id order."""
        return self._column(relation, attr).values()

    def _column(self, relation: str, attr: str) -> Column:
        return self._columns[relation][self.schema.relation(relation).attr_index(attr)]

    def attr_value(self, fact_id: int, attr: str) -> Value:
        return self._column(self.relation_of(fact_id), attr).value(self.row_of.item(fact_id))

    def key_of(self, fact_id: int) -> tuple[Value, ...]:
        relation = self.relation_of(fact_id)
        row = self.row_of.item(fact_id)
        return tuple(self._column(relation, a).value(row) for a in self.schema.relation(relation).key)

    def fact_by_key(self, relation: str, key: tuple[Value, ...]) -> int | None:
        fact_id = self._key_to_fact.get(relation, {}).get(key)
        # a key map may be shared with other lineages: an id past n_facts,
        # or one that here is a fact of another relation, is not this version's
        if fact_id is None or fact_id >= self.n_facts or self.relation_of(fact_id) != relation:
            return None
        return fact_id

    def active_domain(self, relation: str, attr: str) -> set[Value]:
        # filled in id order: default_kernels sums the set in its iteration order
        return {v for v in self.attr_values(relation, attr) if v is not None}


# -- construction ----------------------------------------------------------
#
# Each check finds its own first faulty row and builds that row's error.
# The error raised is the one a row-by-row pass meets first; it checks a row
# for a known relation, its width, each attribute in schema order, a key not
# null and a key no earlier row or older fact has, then after all rows each
# foreign key's references, in schema order.


class _First:
    """The first fault among the first ``rows`` rows of one relation: the
    checks run in the row-by-row order, each over the rows before the
    first fault found so far, so a fault one finds comes first."""

    def __init__(self, rows: int, error: Exception | None = None) -> None:
        self.rows, self.error = rows, error  # with an error, the rows before its row

    def check(self, bad: Sequence[bool] | np.ndarray, message: Callable[[int], str]) -> None:
        """Take the error ``message(i)`` of the first row ``i`` where ``bad`` holds."""
        hit = np.flatnonzero(bad[: self.rows])
        if len(hit):
            self.rows = int(hit[0])
            self.error = IntegrityError(message(self.rows))

    def cut(self, seq):
        """``seq`` without the rows from the first fault on."""
        return seq if len(seq) <= self.rows else seq[: self.rows]


_PLAIN_NUMERIC = {float, int, type(None)}
_STRING = (str, type(None))


def _encode(
    rel_name: str, attr: AttributeDecl, cells: Sequence[Value], old: Column, first: _First, at: Callable[[int], str]
) -> tuple[Column, np.ndarray | None]:
    """The column of ``cells`` with its own value table, and the code of
    each of its strings in ``old``'s numbering followed by -1, so that
    indexing it with the column's codes gives the codes in that numbering.

    Strings ``old`` lacks get the codes after its table, in the order they
    first occur.  ``old`` is not changed.  The cells are checked over
    ``first``'s rows, row ``i`` named ``at(i)``, and the column covers the
    rows before the first fault.
    """
    cells = first.cut(cells)
    name = f"{rel_name}.{attr.name}"
    null = np.fromiter(map(is_, cells, repeat(None)), dtype=bool, count=len(cells))
    if not attr.nullable:
        first.check(null, lambda i: f"null in non-nullable attribute {name} ({at(i)})")
    if attr.kind == "numeric":
        if not set(map(type, cells)) <= _PLAIN_NUMERIC:
            bad = [v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))) for v in cells]
            first.check(bad, lambda i: f"non-numeric value {cells[i]!r} in {name} ({at(i)})")
            cells, null = first.cut(cells), first.cut(null)
        data = np.array(cells, dtype=np.float64)  # None becomes NaN
        first.check(~(np.isfinite(data) | null), lambda i: f"non-finite value {cells[i]!r} in {name} ({at(i)})")
        return Column(data, null, None, None), None
    try:
        seen = dict.fromkeys(cells)
        strings = all(map(isinstance, seen, repeat(_STRING)))
    except TypeError:  # an unhashable value, which is no string
        strings = False
    if not strings:
        bad = [not isinstance(v, _STRING) for v in cells]
        first.check(bad, lambda i: f"expected string for {name}, got {cells[i]!r} ({at(i)})")
        cells, null = first.cut(cells), first.cut(null)
        seen = dict.fromkeys(cells)
    seen.pop(None, None)
    codes = dict(zip(seen, range(len(seen))))
    data = np.fromiter(map(codes.get, cells, repeat(-1)), dtype=np.int32, count=len(cells))
    width = len(old.table)
    glob = np.empty(len(seen) + 1, dtype=np.int32)
    glob[:-1] = np.fromiter(map(old.codes.get, seen, repeat(width)), dtype=np.int64, count=len(seen))
    # codes past old's table belong to newer versions that share its code map
    fresh = glob[:-1] >= width
    glob[:-1][fresh] = width + np.arange(np.count_nonzero(fresh))
    glob[-1] = -1
    return Column(data, null, np.fromiter(seen, dtype=object, count=len(seen)), codes), glob


def _key_map(
    db: Database, rel: RelationSchema, cells: Sequence[Sequence[Value]], cols: tuple[Column, ...], ids: list[int],
    first: _First, inserted: bool,
) -> dict[tuple[Value, ...], int]:
    """The key of each row before ``first``'s first fault, built from the
    values (strings as given, numbers from their float64 column) and mapped
    to the row's id in ``ids``.  A null key, or one that an earlier row or
    a fact of ``db`` has, is a fault."""
    key_pos = [rel.attr_index(a) for a in rel.key]
    first.check(
        np.logical_or.reduce([cols[p].null[: first.rows] for p in key_pos]),
        lambda i: f"null key value in inserted {rel.name!r} row" if inserted
        else f"null key value in {rel.name!r} row {ids[i]}",
    )
    parts = [cols[p].data[: first.rows].tolist() if cols[p].table is None else first.cut(cells[p]) for p in key_pos]
    keys = dict(zip(zip(*parts), ids))
    # a shared key map also holds the keys of newer versions
    if len(keys) < first.rows or not db._key_to_fact[rel.name].keys().isdisjoint(keys) and any(
        db.fact_by_key(rel.name, k) is not None for k in keys
    ):
        rows = list(zip(*parts))
        first_row = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
        bad = [first_row[k] != i or db.fact_by_key(rel.name, k) is not None for i, k in enumerate(rows)]
        first.check(bad, lambda i: f"duplicate key {rows[i]!r} in relation {rel.name!r}")
    return keys


def _references(
    fk: ForeignKey, rel: RelationSchema, cols: tuple[Column, ...], ids: np.ndarray,
    resolve: Callable[[list[tuple[Value, ...]]], np.ndarray], inserted: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(sources, destinations) of the facts ``ids`` of ``fk.src``, whose
    columns are ``cols``; a fact with a null in the reference has none.
    ``resolve`` gives the destination of each of a list of keys, -1 for
    none, and the first reference that has none raises."""
    ref_cols = [cols[rel.attr_index(a)] for a in fk.src_attrs]
    has = ~ref_cols[0].null
    for c in ref_cols[1:]:
        has &= ~c.null
    col = ref_cols[0]
    if len(ref_cols) == 1 and col.table is not None:
        # one lookup per distinct value
        dst = resolve(list(zip(col.table.tolist())))[col.data[has]]
    else:
        dst = resolve(list(compress(zip(*[c.values() for c in ref_cols]), has.tolist())))
    dangling = np.flatnonzero(dst < 0)
    if len(dangling):
        row = np.flatnonzero(has)[dangling[0]]
        ref = tuple(c.value(row) for c in ref_cols)
        raise IntegrityError(
            f"dangling reference {ref!r} from inserted {fk.src} row via {fk.name}" if inserted
            else f"dangling reference {ref!r} from {fk.src}(id {ids[row]}) via {fk.name}"
        )
    return ids[has], dst


# -- growing in place ---------------------------------------------------------
#
# A store the lineage owns is grown in place: the new entries go after the
# parent's in the same buffer, and the child views the longer prefix.  Any
# other store is copied once into a new buffer, which the lineage then owns.


def _buffer(lineage: _Lineage, key: tuple, n: int, extra: int, dtype) -> np.ndarray:
    """A new buffer, which ``lineage`` then owns, for ``n`` entries, room
    for ``extra`` more past them and an eighth of ``n`` beyond that."""
    lineage.owned.add(key)
    return np.empty(n + extra + n // 8, dtype=dtype)


def _room(lineage: _Lineage, key: tuple, view: np.ndarray, extra: int) -> np.ndarray:
    """A buffer that starts with ``view`` and has room for ``extra``
    entries past it: ``view``'s own when ``lineage`` owns it and it has the
    room, else a new one."""
    n = len(view)
    buf = view.base
    if key in lineage.owned and buf is not None and len(buf) >= n + extra:
        return buf
    buf = _buffer(lineage, key, n, extra, view.dtype)
    buf[:n] = view
    return buf


def _extend(lineage: _Lineage, key: tuple, view: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``view`` followed by ``new``; ``view`` is not changed."""
    n = len(view)
    buf = _room(lineage, key, view, len(new))
    buf[n : n + len(new)] = new
    return buf[: n + len(new)]


def _extend_map(lineage: _Lineage, key: tuple, old: dict, own: int, extra: dict) -> dict:
    """The first ``own`` entries of ``old`` (the parent version's) and then
    ``extra``, which the result takes over: ``old`` grown in place when
    ``lineage`` owns it (it then has no others), else a new dict, which is
    ``extra`` itself when the parent has no entries, as in a build."""
    if key in lineage.owned:
        old.update(extra)
        return old
    lineage.owned.add(key)
    if not own:
        return extra
    new = dict(islice(old.items(), own))
    new.update(extra)
    return new


def _extend_column(lineage: _Lineage, key: tuple, old: Column, new: Column, glob: np.ndarray | None) -> Column:
    """``old`` followed by ``new``, which ``_encode`` coded after it as ``glob``."""
    n, k = len(old.data), len(new.data)
    data = _room(lineage, (*key, "data"), old.data, k)
    null = _extend(lineage, (*key, "null"), old.null, new.null)
    if glob is None:
        data[n : n + k] = new.data
        return Column(data[: n + k], null, None, None)
    np.take(glob, new.data, out=data[n : n + k])
    table, codes = old.table, old.codes
    width = len(table)
    fresh = new.table[glob[:-1] >= width]
    if len(fresh):
        # into an empty table every string is fresh: the batch's own codes are the codes
        extra = new.codes if width == 0 else dict(zip(fresh.tolist(), range(width, width + len(fresh))))
        codes = _extend_map(lineage, (*key, "codes"), codes, width, extra)
        table = _extend(lineage, (*key, "table"), table, fresh)
    return Column(data[: n + k], null, table, codes)


def _extend_fk_index(
    lineage: _Lineage, pos: int, old: FkIndex, n: int, src: np.ndarray, dst: np.ndarray
) -> FkIndex:
    """``old`` grown to ``n`` facts plus the references ``src[i] -> dst[i]``.

    ``src`` must ascend and exceed every id ``old`` covers; then each new
    source belongs at the end of its destination's group, and the groups
    stay in load order.  References to new facts only append to
    ``offsets`` and ``flat``; one to an older fact grows that fact's group,
    which shifts all later groups into new buffers.  ``old`` is not changed.
    """
    n_old = len(old.fwd)
    fwd = _room(lineage, ("fwd", pos), old.fwd, n - n_old)
    fwd[n_old:n] = -1
    fwd[src] = dst
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    split = np.searchsorted(dst, n_old)  # the references to older facts come first
    if split:
        # an older fact's group grows and every later group shifts: older
        # versions still read the old offsets, so these go to a new buffer
        groups, counts = np.unique(dst[:split], return_counts=True)
        # offsets[i] counts the references to ids below i: it grows past each group
        bounds = [*(groups + 1).tolist(), n_old + 1]
        offsets = _buffer(lineage, ("offsets", pos), n_old + 1, n - n_old, np.int64)
        offsets[: bounds[0]] = old.offsets[: bounds[0]]
        for lo, hi, add in zip(bounds, bounds[1:], np.cumsum(counts).tolist()):
            np.add(old.offsets[lo:hi], add, out=offsets[lo:hi])
        flat = np.insert(old.flat, old.offsets[dst[:split] + 1], src[:split])
    else:
        offsets, flat = _room(lineage, ("offsets", pos), old.offsets, n - n_old), old.flat
    offsets[n_old + 1 : n + 1] = offsets[n_old] + np.cumsum(np.bincount(dst[split:] - n_old, minlength=n - n_old))
    return FkIndex(fwd[:n], offsets[: n + 1], _extend(lineage, ("flat", pos), flat, src[split:]))


def _transpose(
    schema: DatabaseSchema, rows: Sequence[tuple[str, Sequence[Value]]]
) -> tuple[np.ndarray, dict[str, list[tuple[Value, ...]]], list[tuple[int, Exception]]]:
    """Each row's relation position in the schema, per relation with rows
    one column of values per attribute in row order, and the (row, error)
    pairs of the first row of an unknown relation and of each relation's
    first row of the wrong width, which end the rows and its rows."""
    pos = {r.name: i for i, r in enumerate(schema.relations)}
    rel_new = np.fromiter(map(pos.get, map(itemgetter(0), rows), repeat(-1)), np.int32, len(rows))
    faults: list[tuple[int, Exception]] = []
    unknown = np.flatnonzero(rel_new < 0)
    if len(unknown):
        u = int(unknown[0])
        faults.append((u, SchemaError(f"unknown relation {rows[u][0]!r}")))
        rel_new = rel_new[:u]
    columns = {}
    for p in np.flatnonzero(np.bincount(rel_new, minlength=len(pos))).tolist():
        rel = schema.relations[p]
        local = np.flatnonzero(rel_new == p).tolist()
        values = [rows[i][1] for i in local]
        width = len(rel.attributes)
        if not set(map(len, values)) <= {width}:
            w = next(i for i, v in enumerate(values) if len(v) != width)
            error = IntegrityError(f"relation {rel.name!r} expects {width} values, got {len(values[w])}")
            faults.append((local[w], error))
            values = values[:w]
        columns[rel.name] = list(zip(*values)) or [()] * width
    return rel_new, columns, faults


def _empty_database(schema: DatabaseSchema) -> Database:
    none = np.empty(0, dtype=np.int64)
    columns = {
        rel.name: tuple(
            Column(np.empty(0), np.empty(0, dtype=bool), None, None) if a.kind == "numeric"
            else Column(np.empty(0, dtype=np.int32), np.empty(0, dtype=bool), np.empty(0, dtype=object), {})
            for a in rel.attributes
        )
        for rel in schema.relations
    }
    return Database(
        schema,
        columns,
        np.empty(0, dtype=np.int32),
        none,
        {r: () for r in schema.relation_names},
        {r: {} for r in schema.relation_names},
        tuple(FkIndex(none, np.zeros(1, dtype=np.int64), none) for _ in schema.foreign_keys),
    )


def build_database(schema: DatabaseSchema, rows: Sequence[tuple[str, Sequence[Value]]]) -> Database:
    """Build a database from (relation name, values) rows, ids in row order."""
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    return _append(_empty_database(schema), *_transpose(schema, rows), inserted=False)


def insert_facts(db: Database, new_facts: Iterable[Fact]) -> Database:
    """Return a new database with ``new_facts`` appended under fresh ids.

    The whole batch is validated before anything is written; on error
    every database is as it was.  Batch facts may reference each other.
    The result equals a full rebuild on the combined rows, index included.
    When ``db`` is the newest version of its lineage the batch is appended
    in place, at a cost in proportion to the batch (plus one pass over the
    index of each foreign key the batch adds a reference to an older fact
    through); ``db`` still reads only its own facts.  Otherwise the touched
    stores are copied first.  Relations the batch does not touch keep the
    source's columns, key map and id tuple.
    """
    batch = [(f.relation, f.values) for f in new_facts]
    return _append(db, *_transpose(db.schema, batch), inserted=True)


def insert_columns(db: Database, columns: dict[str, Sequence[Sequence[Value]]]) -> Database:
    """``insert_facts`` with the new facts given as one value column per
    attribute of each relation in ``columns``; their ids follow the
    relations in schema order, then row order."""
    return _append(db, _stacked(db.schema, columns), columns, inserted=True)


def _stacked(schema: DatabaseSchema, columns: dict[str, Sequence[Sequence[Value]]]) -> np.ndarray:
    """The relation position of each fact of ``columns``, the relations'
    facts one after another in schema order."""
    counts = [len(columns[r.name][0]) if r.name in columns else 0 for r in schema.relations]
    return np.repeat(np.arange(len(counts), dtype=np.int32), counts)


def _append(
    db: Database, rel_new: np.ndarray, values: dict[str, Sequence[Sequence[Value]]],
    faults: Sequence[tuple[int, Exception]] = (), *, inserted: bool,
) -> Database:
    """``db`` with a batch of facts appended, checked column by column; a
    fault raises before any store is written.

    ``rel_new`` holds each new fact's relation position in the schema, in
    id order, and ``values`` one column of values per attribute over each
    of those relations' new facts, in id order.  ``faults`` holds (batch
    row, error) pairs found before; a relation's columns end before its
    own.  Errors name a row by its id, in an insert's words if ``inserted``.
    """
    schema = db.schema
    n_old, n = db.n_facts, db.n_facts + len(rel_new)
    label = "inserted row" if inserted else "row"
    faults = list(faults)
    staged: dict[str, tuple] = {}  # per touched relation: batch rows, their ids, their columns
    batch_keys: dict[str, dict[tuple[Value, ...], int]] = {}
    for pos in np.flatnonzero(np.bincount(rel_new, minlength=len(schema.relations))).tolist():
        rel = schema.relations[pos]
        local = np.flatnonzero(rel_new == pos)
        id_list = (local + n_old).tolist()  # shared by the key map and the id tuple
        cells = values[rel.name]
        first = _First(len(cells[0]))

        def at(i: int) -> str:
            return f"{label} {id_list[i]}"

        encoded = tuple(
            _encode(rel.name, attr, c, o, first, at) for attr, c, o in zip(rel.attributes, cells, db._columns[rel.name])
        )
        keys = _key_map(db, rel, cells, tuple(c for c, _ in encoded), id_list, first, inserted)
        if first.error is not None:
            faults.append((int(local[first.rows]), first.error))
        staged[rel.name] = (local, id_list, encoded)
        batch_keys[rel.name] = keys
    if faults:  # (batch row, error) pairs, one per row: the first row's is the first fault
        raise min(faults, key=itemgetter(0))[1]

    def resolver(relation: str) -> Callable[[list[tuple[Value, ...]]], np.ndarray]:
        extra, old = batch_keys.get(relation, {}), db._key_to_fact[relation]
        rel_pos = schema.relation_names.index(relation)

        def resolve(keys: list[tuple[Value, ...]]) -> np.ndarray:
            got = np.fromiter(map(extra.get, keys, repeat(-1)), np.int64, len(keys))
            miss = np.flatnonzero(got < 0)
            if len(miss) and n_old:
                ids = np.fromiter(map(old.get, [keys[i] for i in miss.tolist()], repeat(-1)), np.int64, len(miss))
                # a shared key map also holds ids past n_old, or of other relations here
                mine = (ids >= 0) & (ids < n_old)
                mine[mine] = db._rel_of[ids[mine]] == rel_pos
                got[miss] = np.where(mine, ids, -1)
            return got

        return resolve

    none = np.empty(0, dtype=np.int64)
    refs = []
    for fk in schema.foreign_keys:
        if fk.src in staged:
            local, _, encoded = staged[fk.src]
            cols = tuple(c for c, _ in encoded)
            refs.append(_references(fk, schema.relation(fk.src), cols, local + n_old, resolver(fk.dst), inserted))
        else:
            refs.append((none, none))

    # every check has passed: write
    lineage = db._lineage if db._lineage.n_tip == n_old else _Lineage(n_old)
    row_new = np.empty(len(rel_new), dtype=np.int64)
    columns = dict(db._columns)
    by_relation = dict(db._by_relation)
    key_to_fact = dict(db._key_to_fact)
    for name in list(staged):  # each batch column is freed once it is written
        local, id_list, encoded = staged.pop(name)
        old = columns[name]
        row_new[local] = len(old[0].data) + np.arange(len(local))
        columns[name] = tuple(
            _extend_column(lineage, (name, attr.name), o, c, glob)
            for attr, o, (c, glob) in zip(schema.relation(name).attributes, old, encoded)
        )
        key_to_fact[name] = _extend_map(lineage, ("keys", name), key_to_fact[name], len(old[0].data), batch_keys[name])
        # a concatenated tuple would cost the relation's size: rebuilt on first use instead
        if by_relation.get(name) == ():
            by_relation[name] = tuple(id_list)
        else:
            by_relation.pop(name, None)
    fk_index = []
    for pos, ix in enumerate(db.fk_index):
        fk_index.append(_extend_fk_index(lineage, pos, ix, n, *refs[pos]))
        refs[pos] = None  # freed once it is in the index
    rel_of = _extend(lineage, ("rel_of",), db._rel_of, rel_new)
    row_of = _extend(lineage, ("row_of",), db.row_of, row_new)
    lineage.n_tip = n
    return Database(schema, columns, rel_of, row_of, by_relation, key_to_fact, tuple(fk_index), lineage)


def drop_attribute(db: Database, relation: str, attribute: str) -> Database:
    """``db`` without one attribute of ``relation``, under the same fact ids.

    The attribute must be in neither the relation's key nor any foreign
    key.  The result drops that one column and shares every other column,
    the key maps, the foreign-key index and the lineage with the source:
    whichever of the two appends first grows the shared stores in place.
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
    cols = db._columns[relation]
    columns = {**db._columns, relation: cols[:drop] + cols[drop + 1 :]}
    return Database(
        schema, columns, db._rel_of, db.row_of, db._by_relation, db._key_to_fact, db.fk_index, db._lineage
    )


def closure(db: Database, mask: np.ndarray, referencing: bool, referenced: bool) -> np.ndarray:
    """``mask`` (one bool per fact) grown until it stops growing: with
    ``referencing`` every fact that references a member joins, with
    ``referenced`` every fact a member references joins.  The mask is
    pushed through each foreign key's ``fwd`` array; ``mask`` itself is
    not changed."""
    closed = np.array(mask, dtype=bool)
    refs = [(src, ix.fwd[src]) for ix in db.fk_index for src in [np.flatnonzero(ix.fwd >= 0)]]
    grew = True
    while grew:
        grew = False
        for src, dst in refs:
            inside = closed[src]
            # a reference with one end in: the other end joins if its direction is followed
            hit = (inside != closed[dst]) & ((inside & referenced) | (~inside & referencing))
            if hit.any():
                closed[src[hit]] = closed[dst[hit]] = True
                grew = True
    return closed


def _taken_keys(keys: dict[tuple[Value, ...], int], rows: int, new_of: np.ndarray) -> dict[tuple[Value, ...], int]:
    """The first ``rows`` entries of ``keys`` (one version's own facts)
    renumbered through ``new_of``, in new id order, without the untaken
    facts."""
    names = list(islice(keys, rows))
    new = new_of[np.fromiter(islice(keys.values(), rows), dtype=np.int64, count=rows)]
    got = np.flatnonzero(new >= 0)
    order = got[np.argsort(new[got])]
    return dict(zip([names[i] for i in order.tolist()], new[order].tolist()))


def take(db: Database, ids: Sequence[int] | np.ndarray) -> Database:
    """The database whose fact ``i`` is ``db``'s fact ``ids[i]``.

    ``ids`` must be distinct, and every fact a taken fact references must
    be taken too, else ``IntegrityError``.  Nothing is decoded: the value
    tables and code maps are shared with ``db``, the key maps are
    renumbered, and each ``fwd`` is renumbered and its CSR rebuilt in
    ascending new id.  The result starts a new lineage; ``db`` is not
    changed.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    # the slot past the last fact holds -1, so an absent reference (-1) stays -1
    new_of = np.full(db.n_facts + 1, -1, dtype=np.int64)
    new_of[ids] = np.arange(n)
    rel_of, old_rows = db._rel_of[ids], db.row_of[ids]
    row_of = np.empty(n, dtype=np.int64)
    columns, key_to_fact = {}, {}
    for pos, rel in enumerate(db.schema.relations):
        local = np.flatnonzero(rel_of == pos)
        row_of[local] = np.arange(len(local))
        rows = old_rows[local]
        columns[rel.name] = tuple(Column(c.data[rows], c.null[rows], c.table, c.codes) for c in db._columns[rel.name])
        key_to_fact[rel.name] = _taken_keys(db._key_to_fact[rel.name], len(db._columns[rel.name][0].data), new_of)

    fk_index = []
    for fk, ix in zip(db.schema.foreign_keys, db.fk_index):
        ref = ix.fwd[ids]
        fwd = new_of[ref]
        lost = np.flatnonzero((fwd < 0) & (ref >= 0))
        if len(lost):
            raise IntegrityError(
                f"take: fact {ids[lost[0]]} references fact {ref[lost[0]]} via {fk.name}, which is not taken"
            )
        src = np.flatnonzero(fwd >= 0)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(fwd[src], minlength=n))])
        fk_index.append(FkIndex(fwd, offsets, src[np.argsort(fwd[src], kind="stable")]))
    return Database(db.schema, columns, rel_of, row_of, {}, key_to_fact, tuple(fk_index))


# -- schema and CSV loading -------------------------------------------------


def schema_from_dict(doc: dict) -> DatabaseSchema:
    """The schema of a JSON document.  A missing or ill-typed field, or a key
    no field reads (at top level, in a relation, an attribute or a foreign
    key), is a SchemaError naming it."""
    read = partial(json_object, "malformed schema descriptor", SchemaError)
    top = read(doc, {"relations": list}, {"foreign_keys": list}, name="schema")
    relations = []
    for i, rel_doc in enumerate(top["relations"]):
        label = f"relations[{i}]"
        rel = read(rel_doc, {"name": str, "attributes": list, "key": [str]}, label=label)
        attributes = tuple(
            AttributeDecl(**read(a, {"name": str, "kind": str}, {"nullable": bool}, label=f"{label}.attributes[{j}]"))
            for j, a in enumerate(rel["attributes"])
        )
        relations.append(RelationSchema(rel["name"], attributes, rel["key"]))
    fk_kinds = {"src": str, "src_attrs": [str], "dst": str, "dst_attrs": [str]}
    foreign_keys = tuple(
        ForeignKey(**read(fk, fk_kinds, label=f"foreign_keys[{i}]")) for i, fk in enumerate(top.get("foreign_keys", []))
    )
    return DatabaseSchema(tuple(relations), foreign_keys)


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
    write_json(schema_to_dict(schema), path)


def load_schema(path: str | Path) -> DatabaseSchema:
    doc = read_json(path, "schema file", error=SchemaError)
    try:
        return schema_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _split_cells(text: str, width: int) -> tuple[list[str], list[list[str]]] | None:
    """The header and the cells per column that ``csv.reader`` reads from
    ``text``, split without one list per row, or None for text only
    ``csv.reader`` reads right: with a quote, a NUL, a carriage return
    outside a ``\\r\\n`` line end, a blank line, a line longer than the
    field size limit or a row of other than ``width`` cells."""
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":  # the final newline ends the last row
        lines.pop()
    if not lines or "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    body = lines[1:]
    if not set(map(str.count, body, repeat(","))) <= {width - 1}:
        return None
    flat = ",".join(body).split(",") if body else []
    return lines[0].split(","), [flat[j::width] for j in range(width)]


def _unparsable(cell: str) -> bool:
    """Whether ``cell`` is neither empty nor a number ``float`` reads."""
    try:
        float(cell)
    except ValueError:
        return cell != ""
    return False


def _parse_column(
    rel: RelationSchema, attr: AttributeDecl, cells: Sequence[str], first: _First, at: Callable[[int], str]
) -> Sequence[Value]:
    """One attribute's cells over ``first``'s rows, row ``i`` named
    ``at(i)``: empty cells as None, which key and non-nullable attributes
    reject, and numeric cells as finite floats.  The values cover the rows
    before the first fault."""
    cells = first.cut(cells)
    name = f"{rel.name}.{attr.name}"
    empty = "" in cells
    if empty and (not attr.nullable or attr.name in rel.key):
        null = "null key value in" if attr.nullable else "null in non-nullable attribute"
        first.check([not c for c in cells], lambda i: f"{null} {name} ({at(i)})")
        cells, empty = first.cut(cells), False
    if attr.kind != "numeric":
        return [c or None for c in cells] if empty else cells
    try:
        values = [float(c) if c else None for c in cells] if empty else list(map(float, cells))
    except ValueError:
        bad = list(map(_unparsable, cells))
        first.check(bad, lambda i: f"cannot parse {cells[i]!r} as numeric for {name} ({at(i)})")
        cells = first.cut(cells)
        values = [float(c) if c else None for c in cells]
    # filter(None, ...) drops the nulls, and the zeros, which are finite
    if not all(map(math.isfinite, filter(None, values))):
        bad = [v is not None and not math.isfinite(v) for v in values]
        first.check(bad, lambda i: f"non-finite value {cells[i]!r} in {name} ({at(i)})")
    return values


def read_relation_columns(rel: RelationSchema, path: Path) -> list[Sequence[Value]]:
    """The values of one relation's CSV file, read whole, one list per
    attribute.

    The header must equal the attribute names in schema order and every
    row must have one cell per attribute.  Empty cells are nulls, which
    key and non-nullable attributes reject; numeric cells must parse as
    finite floats.  The error of the first faulty row names the file and
    line, as does that of a file not UTF-8 or one ``csv.reader`` rejects.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IntegrityError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise IntegrityError(f"{path} line {line_no}: not UTF-8 text ({exc.reason})") from None
    del data  # freed before the split
    width = len(rel.attributes)
    split = _split_cells(text, width)
    if split is None:
        rows: list[list[str]] = []
        error = None
        try:
            # extend keeps the rows read before an error
            rows.extend(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            error = IntegrityError(f"{path} line {len(rows) + 1}: {exc}")
        if not rows:
            raise error or IntegrityError(f"{path} is empty; expected a header row")
        header, rows = rows[0], rows[1:]
        first = _First(len(rows), error)
        if not set(map(len, rows)) <= {width}:
            bad = [len(r) != width for r in rows]
            first.check(bad, lambda i: f"{path} line {i + 2}: expected {width} cells, got {len(rows[i])}")
        split = header, list(zip(*first.cut(rows))) or [()] * width
    else:
        first = _First(len(split[1][0]))
    header, cells = split
    if tuple(header) != rel.attr_names:
        raise IntegrityError(f"{path} header {header!r} does not match attributes {rel.attr_names!r}")

    def at(i: int) -> str:
        return f"{path.name} line {i + 2}"

    values = [_parse_column(rel, attr, c, first, at) for attr, c in zip(rel.attributes, cells)]
    if first.error is not None:
        raise first.error
    return values


def load_database(schema: DatabaseSchema, data_dir: str | Path) -> Database:
    """Load one CSV per relation from ``data_dir``.

    Files are named ``<relation>.csv``; each is read by
    ``read_relation_columns``, and its columns go straight to the build.
    Fact ids follow file row order, relations in schema order, so loading
    is deterministic.
    """
    data_dir = Path(data_dir)
    columns: dict[str, list[Sequence[Value]]] = {}
    for rel in schema.relations:
        path = data_dir / f"{rel.name}.csv"
        if not path.exists():
            raise IntegrityError(f"missing data file for relation {rel.name!r}: {path}")
        columns[rel.name] = read_relation_columns(rel, path)
    return _append(_empty_database(schema), _stacked(schema, columns), columns, inserted=False)


def write_database_csv(db: Database, out_dir: str | Path) -> None:
    """Write one CSV per relation, inverse of load_database.

    A cell cannot tell the empty string from null, so a non-null empty
    string in any column is a UsageError naming the first such row, raised
    before anything is written."""
    for rel in db.schema.relations:
        for attr in rel.attributes:
            col = db._column(rel.name, attr.name)
            code = None if col.codes is None else col.codes.get("")
            if code is None or code >= len(col.table):  # a newer version's code
                continue
            rows = np.flatnonzero((col.data == code) & ~col.null)
            if len(rows):
                raise UsageError(
                    f"cannot write {rel.name}.{attr.name}: row {rows[0]} ({rel.name}.csv "
                    f"line {rows[0] + 2}) holds an empty string, which would load back as null"
                )
    out_dir = ensure_dir(out_dir)
    for rel in db.schema.relations:
        rows = (["" if v is None else v for v in fact.values] for fact in db.relation_facts(rel.name))
        write_csv(out_dir / f"{rel.name}.csv", rel.attr_names, rows)
