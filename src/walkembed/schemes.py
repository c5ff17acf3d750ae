"""Walk schemes: enumeration, random walks, and exact destination laws.

A walk scheme starts at a relation and takes a fixed sequence of steps,
each traversing one foreign key either forward (from referencing fact to
the referenced fact) or backward (from a fact to the facts referencing
it).  A walk instantiates the scheme from a concrete start fact, picking
uniformly among the candidate facts at every step.  Length zero is
allowed: the walk is just the start fact.

A targeted scheme pairs a scheme with an attribute of its end relation;
sampling one yields the attribute value at the walk's destination.

The exact law of the destination is computed in one place,
``exact_dest_law``, for many start facts at once.  It walks the same
foreign-key arrays as the samplers and holds the law as COO arrays (start
row, destination, weight): a forward step indexes ``fwd``, a backward step
repeats each entry over its CSR range with its weight split evenly, and
equal (row, destination) pairs are merged after every step, so the entries
never exceed starts times the facts the step reaches.  Dead-end mass is
dropped and each row renormalised at the end.  ``exact_value_law`` gathers
that law through the target column, drops nulls and merges equal values.
The exact kernel distance, the exact kernel variance and the extension's
exact targets are read from these two laws.  ``row_walk_laws`` holds the
law of complete walks over relation rows instead, for many schemes at
once: per walk position, the chance of reaching each row and of
completing from it, one ``np.bincount`` per step.  Mutual information
reads its entropies from it, the sampled sub-database its start facts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, UsageError
from .relational import Database, DatabaseSchema, FkIndex, ForeignKey

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class WalkStep:
    fk: ForeignKey
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in (FORWARD, BACKWARD):
            raise SchemaError(f"unknown step direction {self.direction!r}")

    @property
    def source_relation(self) -> str:
        return self.fk.src if self.direction == FORWARD else self.fk.dst

    @property
    def target_relation(self) -> str:
        return self.fk.dst if self.direction == FORWARD else self.fk.src


@dataclass(frozen=True)
class WalkScheme:
    start_relation: str
    steps: tuple[WalkStep, ...] = ()

    def __post_init__(self) -> None:
        here = self.start_relation
        for step in self.steps:
            if step.source_relation != here:
                raise SchemaError(
                    f"step over {step.fk.name} ({step.direction}) does not chain from {here!r}"
                )
            here = step.target_relation

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end_relation(self) -> str:
        return self.steps[-1].target_relation if self.steps else self.start_relation


@dataclass(frozen=True)
class TargetedWalkScheme:
    scheme: WalkScheme
    target_attr: str


def scheme_text(scheme: WalkScheme) -> str:
    """Canonical rendering: R0[A0]--[B1]R1[A1]--...--[B_l]R_l.

    For each hop, the bracket on the left holds the attributes used on the
    side being left, the bracket on the right those on the side entered.
    """
    parts = [scheme.start_relation]
    for step in scheme.steps:
        if step.direction == FORWARD:
            left, right = step.fk.src_attrs, step.fk.dst_attrs
        else:
            left, right = step.fk.dst_attrs, step.fk.src_attrs
        parts.append(f"[{','.join(left)}]--[{','.join(right)}]{step.target_relation}")
    return "".join(parts)


def targeted_text(tws: TargetedWalkScheme) -> str:
    return f"{scheme_text(tws.scheme)} :: {tws.target_attr}"


# -- enumeration -------------------------------------------------------------


def _steps_from(schema: DatabaseSchema, relation: str) -> list[WalkStep]:
    steps = []
    for fk in schema.foreign_keys:
        if fk.src == relation:
            steps.append(WalkStep(fk, FORWARD))
        if fk.dst == relation:
            steps.append(WalkStep(fk, BACKWARD))
    steps.sort(key=lambda s: (s.fk.name, s.direction))
    return steps


def enumerate_walk_schemes(schema: DatabaseSchema, start: str, max_length: int) -> list[WalkScheme]:
    """All schemes from ``start`` up to ``max_length`` steps, canonical order.

    Canonical order is by length, then lexicographic by the sequence of
    (foreign-key name, direction) pairs.  Immediate backtracking is not
    pruned; a step and its reverse may follow each other.
    """
    if max_length < 0:
        raise UsageError("max_length must be non-negative")
    schema.relation(start)
    out: list[WalkScheme] = []
    frontier = [WalkScheme(start)]
    out.extend(frontier)
    for _ in range(max_length):
        nxt = []
        for scheme in frontier:
            for step in _steps_from(schema, scheme.end_relation):
                nxt.append(WalkScheme(start, scheme.steps + (step,)))
        out.extend(nxt)
        frontier = nxt
    return out


def enumerate_targeted_schemes(
    schema: DatabaseSchema, start: str, max_length: int
) -> list[TargetedWalkScheme]:
    """Targeted schemes in canonical order: scheme order, then attribute order."""
    out = []
    for scheme in enumerate_walk_schemes(schema, start, max_length):
        for attr in schema.relation(scheme.end_relation).attr_names:
            out.append(TargetedWalkScheme(scheme, attr))
    return out


# -- exact laws -------------------------------------------------------------------


def exact_dest_law(
    db: Database, scheme: WalkScheme, starts: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of the walk destination from every start, conditioned on
    completing, as COO arrays ``(row, dest, weight)``.

    ``row`` indexes ``starts``; entries are sorted by row, then by
    destination id.  Mass flowing into a dead end is discarded and each
    row's weights are renormalised to sum to one; a start from which no
    walk completes has no entries.  Entries never exceed starts times the
    facts a step can reach.
    """
    starts = np.asarray(starts, dtype=np.int64)
    wrong = [f for f in starts.tolist() if db.relation_of(f) != scheme.start_relation]
    if wrong:
        raise UsageError(
            f"fact {wrong[0]} is in {db.relation_of(wrong[0])!r}, "
            f"scheme starts at {scheme.start_relation!r}"
        )
    row = np.arange(len(starts), dtype=np.int64)
    dest = starts.copy()
    weight = np.ones(len(starts))
    for step in scheme.steps:
        index = db.fk_index[db.schema.fk_position(step.fk)]
        if step.direction == FORWARD:
            dest = index.fwd[dest]
            live = dest >= 0
            row, dest, weight = row[live], dest[live], weight[live]
        else:
            # entry i moves to each of flat[lo[i]:lo[i] + width[i]] with
            # weight/width; a dead end (width 0) is repeated zero times
            lo = index.offsets[dest]
            width = index.offsets[dest + 1] - lo
            owner = np.repeat(np.arange(len(lo)), width)
            within = np.arange(len(owner)) - (np.cumsum(width) - width)[owner]
            dest = index.flat[lo[owner] + within]
            row, weight = row[owner], weight[owner] / width[owner]
        pair, merged = np.unique(row * db.n_facts + dest, return_inverse=True)
        weight = np.bincount(merged, weights=weight)
        row, dest = pair // db.n_facts, pair % db.n_facts
    return row, dest, weight / np.bincount(row, weights=weight)[row]


def exact_value_law(
    db: Database, tws: TargetedWalkScheme, starts: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Law of the destination's target value from every start, as COO
    arrays ``(row, value, weight)``.

    The destination law gathered through ``Database.row_of`` and the target
    column: values are codes or floats as ``Database.column`` holds them,
    nulls are dropped, equal values of one row are merged and each row is
    renormalised.  Entries are sorted by row, then by value; a start whose
    complete walks all end on nulls has no entries.
    """
    row, dest, weight = exact_dest_law(db, tws.scheme, starts)
    data, null, _ = db.column(tws.scheme.end_relation, tws.target_attr)
    at = db.row_of[dest]
    keep = ~null[at]
    row, value, weight = row[keep], data[at[keep]], weight[keep]
    order = np.lexsort((value, row))
    row, value, weight = row[order], value[order], weight[order]
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (value[1:] != value[:-1])
    weight = np.bincount(np.cumsum(first) - 1, weights=weight)
    row, value = row[first], value[first]
    return row, value, weight / np.bincount(row, weights=weight)[row]


def _moves(db: Database, step: WalkStep) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """One entry per edge ``step`` can take: the row it leaves, the row it
    enters, and its chance from the row it leaves (1 forward, one over the
    referencing facts backward)."""
    index = db.fk_index[db.schema.fk_position(step.fk)]
    dst = index.fwd[index.flat]
    if step.direction == FORWARD:
        return db.row_of[index.flat], db.row_of[dst], 1.0
    return db.row_of[dst], db.row_of[index.flat], 1.0 / (index.offsets[dst + 1] - index.offsets[dst])


def row_walk_laws(
    db: Database, schemes: Iterable[WalkScheme]
) -> dict[WalkScheme, tuple[list[np.ndarray], list[np.ndarray]]]:
    """``(reach, finish)`` of each distinct scheme, one array per walk
    position over the rows (``Database.row_of``) of its relation:
    ``reach[i]`` the chance that a walk from a uniform start fact is at
    each row after ``i`` steps, ``finish[i]`` the chance that a walk there
    completes.  ``finish[0] > 0`` marks the starts ``exact_dest_law`` gives
    entries.  Each distinct step's edge arrays are built once per call."""
    laws: dict[WalkScheme, tuple[list[np.ndarray], list[np.ndarray]]] = dict.fromkeys(schemes)
    moves = {step: _moves(db, step) for step in {step for scheme in laws for step in scheme.steps}}
    for scheme in laws:
        relations = [scheme.start_relation, *(step.target_relation for step in scheme.steps)]
        sizes = [len(db.relation_fact_ids(rel)) for rel in relations]
        reach = [np.full(sizes[0], 1.0 / max(sizes[0], 1))]
        for step, size in zip(scheme.steps, sizes[1:]):
            leave, enter, chance = moves[step]
            reach.append(np.bincount(enter, weights=reach[-1][leave] * chance, minlength=size))
        finish = [np.ones(sizes[-1])]
        for step, size in zip(scheme.steps[::-1], sizes[-2::-1]):
            leave, enter, chance = moves[step]
            finish.append(np.bincount(leave, weights=finish[-1][enter] * chance, minlength=size))
        laws[scheme] = reach, finish[::-1]
    return laws


def exact_dest_distribution(db: Database, fact_id: int, scheme: WalkScheme) -> dict[int, float]:
    """``exact_dest_law`` of one start as a dict from destination id to
    probability; empty when no walk completes."""
    _, dest, weight = exact_dest_law(db, scheme, [fact_id])
    return dict(zip(dest.tolist(), weight.tolist()))


# -- vectorised walking ------------------------------------------------------
#
# Many walkers advance together, one step at a time, through the database's
# foreign-key arrays (see relational.py): a forward step indexes the dense
# forward map, a backward step picks uniformly within each walker's CSR
# range.  Walkers at -1 are dead and stay dead.  Target values are read
# from the end relation's column: each retry round gathers the rows of the
# walks that arrived (``Database.row_of``), keeps those whose row is not
# null and takes their codes or floats with one more index, so no value is
# decoded to a Python object.  Callers compare codes for equality kernels;
# codes of one column are equal exactly when the strings are.


def _resolve(db: Database, scheme: WalkScheme) -> list[tuple[FkIndex, bool]]:
    """Each step's foreign-key index and whether it is taken forward."""
    return [
        (db.fk_index[db.schema.fk_position(step.fk)], step.direction == FORWARD)
        for step in scheme.steps
    ]


def _uniforms(
    rng: np.random.Generator | Sequence[np.random.Generator],
    n: int,
    block: np.ndarray | None,
) -> np.ndarray:
    """``n`` uniforms: one ``rng.random`` call, or with ``block`` one call
    per block that has walkers, each on that block's generator."""
    if block is None:
        return rng.random(n)
    counts = np.bincount(block, minlength=len(rng)).tolist()
    return np.concatenate([g.random(c) for g, c in zip(rng, counts) if c])


def _advance(
    index: FkIndex,
    forward: bool,
    cur: np.ndarray,
    rng: np.random.Generator | Sequence[np.random.Generator],
    block: np.ndarray | None = None,
) -> np.ndarray:
    """Where the (non-empty set of) walkers at ``cur`` go on one step over
    ``index``; -1 for a dead end.

    A backward step draws one ``rng.random`` value per walker that has a
    candidate, in one call, and none when no walker has one.  With
    ``block`` (each walker's block number, non-decreasing) ``rng`` is one
    generator per block, and each block with such walkers makes that call
    on its own generator.
    """
    if forward:
        return index.fwd[cur]
    lo = index.offsets[cur]
    width = index.offsets[cur + 1] - lo
    if width.all():  # every walker has a candidate
        return index.flat[lo + (_uniforms(rng, len(cur), block) * width).astype(np.int64)]
    nxt = np.full(len(cur), -1, dtype=np.int64)
    has = width > 0
    if has.any():
        u = _uniforms(rng, int(has.sum()), None if block is None else block[has])
        nxt[has] = index.flat[lo[has] + (u * width[has]).astype(np.int64)]
    return nxt


def _drop_dead(
    here: np.ndarray, live: np.ndarray | None, block: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``here``, ``live`` and ``block`` without the walkers at -1."""
    ok = here >= 0
    if ok.all():
        return here, live, block
    kept = np.flatnonzero(ok)
    live = kept if live is None else live[kept]
    return here[kept], live, None if block is None else block[kept]


def _walk(
    steps: list[tuple[FkIndex, bool]],
    start: np.ndarray,
    rng: np.random.Generator | Sequence[np.random.Generator],
    block: np.ndarray | None = None,
    paths: np.ndarray | None = None,
) -> np.ndarray:
    """Destinations of the walkers at ``start`` over resolved ``steps``; -1
    marks a dead end, and a start below 0 is dead.  With ``paths``, column
    i + 1 of each live walker's row gets its position after step i.

    While every walker lives the arrays are stepped whole; once one dies
    the live walkers are compacted, with their rows (``live``) and
    blocks, so each step advances exactly the walkers alive before it, in
    row order."""
    here, live = start, None
    for col, (index, forward) in enumerate(steps, start=1):
        here, live, block = _drop_dead(here, live, block)
        if not len(here):
            break
        here = _advance(index, forward, here, rng, block)
        if paths is not None:
            paths[slice(None) if live is None else live, col] = here
    here, live, _ = _drop_dead(here, live, None)
    if live is None:
        return here
    out = np.full(len(start), -1, dtype=np.int64)
    out[live] = here
    return out


def sample_dest_batch(
    db: Database,
    fact_ids: np.ndarray,
    scheme: WalkScheme,
    rng: np.random.Generator | Sequence[np.random.Generator],
    block: np.ndarray | None = None,
) -> np.ndarray:
    """Walk destinations for many starts at once; -1 marks a dead end.

    Each walk picks uniformly among the candidates at every step.  With
    ``block``, ``rng`` holds one generator per block (see ``_advance``).
    """
    return _walk(_resolve(db, scheme), np.array(fact_ids, dtype=np.int64), rng, block)


def sample_target_values_batch(
    db: Database,
    fact_ids: np.ndarray,
    tws: TargetedWalkScheme,
    rng: np.random.Generator | Sequence[np.random.Generator],
    retry_cap: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """(destination ids with -1 for failures, their target values) per start.

    Each start retries dead ends and null destinations up to ``retry_cap``
    attempts (at least 1).  The values are the target column
    (``Database.column``) gathered at the destinations: codes or floats,
    meaningful where the destination is not -1.

    ``rng`` is one generator or a sequence of G generators.  With G, the
    starts are G equal contiguous blocks, and block g draws from ``rng[g]``
    exactly the numbers, in the same order, that a call on that block alone
    would draw: one ``random`` call per retry round and backward step when
    some of its walkers draw, none otherwise.  So one call samples many
    callers' walks, each on its own stream.
    """
    if retry_cap < 1:
        raise UsageError(f"retry_cap must be at least 1, got {retry_cap}")
    start = np.asarray(fact_ids, dtype=np.int64)
    block = None
    if not isinstance(rng, np.random.Generator):
        if not rng or len(start) % len(rng):
            raise UsageError(f"{len(start)} starts do not split into {len(rng)} equal blocks")
        block = np.arange(len(start)) // (len(start) // len(rng) or 1)
    data, null, _ = db.column(tws.scheme.end_relation, tws.target_attr)
    steps = _resolve(db, tws.scheme)
    dests = np.full(len(start), -1, dtype=np.int64)
    values = np.zeros(len(start), dtype=data.dtype)
    pending = np.arange(len(start))
    for _ in range(retry_cap):
        if len(pending) == 0:
            break
        got = _walk(steps, start[pending], rng, None if block is None else block[pending])
        ok = got >= 0
        rows = db.row_of[got[ok]]
        keep = ~null[rows]
        ok[ok] = keep
        done = pending[ok]
        dests[done] = got[ok]
        values[done] = data[rows[keep]]
        pending = pending[~ok]
    return dests, values


def sample_walks_batch(
    db: Database,
    fact_ids: np.ndarray,
    scheme: WalkScheme,
    rng: np.random.Generator,
) -> np.ndarray:
    """Full paths for many starts, shape (n, length+1); dead rows hold -1."""
    here = np.asarray(fact_ids, dtype=np.int64)
    paths = np.empty((len(here), scheme.length + 1), dtype=np.int64)
    paths[:, 0] = here
    paths[_walk(_resolve(db, scheme), here, rng, paths=paths) < 0] = -1
    return paths
