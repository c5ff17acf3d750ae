"""Walk schemes: enumeration, random walks, and exact destination laws.

A walk scheme starts at a relation and takes a fixed sequence of steps,
each traversing one foreign key either forward (from referencing fact to
the referenced fact) or backward (from a fact to the facts referencing
it).  A walk instantiates the scheme from a concrete start fact, picking
uniformly among the candidate facts at every step.  Length zero is
allowed: the walk is just the start fact.

A targeted scheme pairs a scheme with an attribute of its end relation;
sampling one yields the attribute value at the walk's destination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, UsageError
from .relational import Database, DatabaseSchema, ForeignKey, Value

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


# -- scalar stepping and exact laws ---------------------------------------------


def step_candidates(db: Database, fact_id: int, step: WalkStep) -> tuple[int, ...]:
    """The facts one step of a walk can move to from ``fact_id``."""
    pos = db.schema.fk_position(step.fk)
    if step.direction == FORWARD:
        dst = db.forward_ref(pos, fact_id)
        return () if dst is None else (dst,)
    return db.back_refs(pos, fact_id)


def exact_dest_distribution(db: Database, fact_id: int, scheme: WalkScheme) -> dict[int, float]:
    """Exact law of the walk destination, conditioned on completing.

    Mass flowing into a dead end is discarded and the rest renormalised;
    the result is empty when no walk completes.
    """
    fact = db.fact(fact_id)
    if fact.relation != scheme.start_relation:
        raise UsageError(
            f"fact {fact_id} is in {fact.relation!r}, scheme starts at {scheme.start_relation!r}"
        )
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


def exact_value_distribution(
    db: Database, fact_id: int, tws: TargetedWalkScheme
) -> dict[Value, float]:
    """Destination-attribute law with nulls dropped and the rest renormalised."""
    dest = exact_dest_distribution(db, fact_id, tws.scheme)
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


def _advance(db: Database, cur: np.ndarray, step: WalkStep, rng: np.random.Generator) -> np.ndarray:
    """Where the walkers at ``cur`` go on ``step``; -1 for a dead end.

    A backward step draws one ``rng.random`` value per walker that has a
    candidate, in one call, and none when no walker has one.
    """
    index = db.fk_index[db.schema.fk_position(step.fk)]
    if step.direction == FORWARD:
        return index.fwd[cur]
    lo = index.offsets[cur]
    width = index.offsets[cur + 1] - lo
    nxt = np.full(len(cur), -1, dtype=np.int64)
    has = width > 0
    if has.any():
        picks = lo[has] + (rng.random(int(has.sum())) * width[has]).astype(np.int64)
        nxt[has] = index.flat[picks]
    return nxt


def sample_dest_batch(
    db: Database, fact_ids: np.ndarray, scheme: WalkScheme, rng: np.random.Generator
) -> np.ndarray:
    """Walk destinations for many starts at once; -1 marks a dead end.

    Each walk picks uniformly among the candidates at every step.
    """
    here = np.asarray(fact_ids, dtype=np.int64).copy()
    alive = here >= 0
    for step in scheme.steps:
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        here[idx] = _advance(db, here[idx], step, rng)
        alive = here >= 0
    here[~alive] = -1
    return here


def sample_target_values_batch(
    db: Database,
    fact_ids: np.ndarray,
    tws: TargetedWalkScheme,
    rng: np.random.Generator,
    retry_cap: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """(destination ids with -1 for failures, their target values) per start.

    Each start retries dead ends and null destinations up to ``retry_cap``
    attempts.  The values are the target column (``Database.column``)
    gathered at the destinations: codes or floats, meaningful where the
    destination is not -1.
    """
    start = np.asarray(fact_ids, dtype=np.int64)
    data, null, _ = db.column(tws.scheme.end_relation, tws.target_attr)
    dests = np.full(len(start), -1, dtype=np.int64)
    values = np.zeros(len(start), dtype=data.dtype)
    pending = np.arange(len(start))
    for _ in range(max(1, retry_cap)):
        if len(pending) == 0:
            break
        got = sample_dest_batch(db, start[pending], tws.scheme, rng)
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
    here = np.asarray(fact_ids, dtype=np.int64).copy()
    paths = np.full((len(here), scheme.length + 1), -1, dtype=np.int64)
    paths[:, 0] = here
    alive = here >= 0
    for col, step in enumerate(scheme.steps, start=1):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        here[idx] = paths[idx, col] = _advance(db, here[idx], step, rng)
        alive = here >= 0
    paths[~alive, :] = -1
    return paths


def has_complete_walk(db: Database, fact_id: int, scheme: WalkScheme) -> bool:
    """Whether at least one walk of the scheme completes from ``fact_id``."""
    frontier = {fact_id}
    for step in scheme.steps:
        nxt: set[int] = set()
        for fid in frontier:
            nxt.update(step_candidates(db, fid, step))
        frontier = nxt
        if not frontier:
            return False
    return True
