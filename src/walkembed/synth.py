"""Synthetic database builders.

Used by the test suite and handy for smoke-testing the pipeline without
real data.  The planted benchmark contains schemes of known character:

- six informative schemes: one backward step into an observation relation
  whose value column correlates with the start tuple's class, with enough
  per-tuple mixing that the expected kernel distance genuinely varies
  across pairs;
- six planted noise schemes: forward references to rows whose targeted
  columns are either unique per start tuple (kernel constantly 0) or
  shared constants (kernel constantly 1), so their similarity carries no
  information;
- assorted incidental schemes (key columns, reference columns) that any
  enumeration of the schema necessarily includes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relational import Database, DatabaseSchema, Value, build_database, schema_from_dict
from .schemes import BACKWARD, FORWARD, TargetedWalkScheme
from .seeding import derive_rng


@dataclass(frozen=True)
class PlantedSetup:
    schema: DatabaseSchema
    db: Database
    task_relation: str
    task_attribute: str
    n_obs: int
    with_noise: bool

    def kind_of(self, tws: TargetedWalkScheme) -> str:
        """'informative' | 'noise_unique' | 'noise_const' | 'incidental'."""
        s = tws.scheme
        if s.length == 1:
            step = s.steps[0]
            if step.direction == BACKWARD and step.fk.src.startswith("obs") and tws.target_attr == "oval":
                return "informative"
            if step.direction == FORWARD and step.fk.dst in ("uniq", "uniq2"):
                return "noise_unique"
            if step.direction == FORWARD and step.fk.dst == "const":
                return "noise_const"
        return "incidental"

    def informative(self, schemes: list[TargetedWalkScheme]) -> list[TargetedWalkScheme]:
        return [t for t in schemes if self.kind_of(t) == "informative"]

    def planted_noise(self, schemes: list[TargetedWalkScheme]) -> list[TargetedWalkScheme]:
        return [t for t in schemes if self.kind_of(t).startswith("noise")]


def _categorical_schema(relations: dict[str, list[str]], fks: list[tuple[str, str, str]]) -> DatabaseSchema:
    """Relations of non-nullable categorical attributes (name: attribute
    names, the first one the key) and foreign keys (source relation, its
    attribute, destination relation) onto a destination's key."""
    return schema_from_dict({
        "relations": [
            {"name": name, "attributes": [{"name": a, "kind": "categorical", "nullable": False} for a in attrs],
             "key": [attrs[0]]}
            for name, attrs in relations.items()
        ],
        "foreign_keys": [{"src": src, "src_attrs": [a], "dst": dst, "dst_attrs": [relations[dst][0]]}
                         for src, a, dst in fks],
    })


def planted_database(
    n_items: int = 40,
    n_classes: int = 2,
    n_obs: int = 6,
    obs_per_item: int = 3,
    with_noise: bool = True,
    seed: int = 0,
) -> PlantedSetup:
    """Build the planted benchmark database.

    Each item has a class label (the prediction target).  Observation
    relation j holds ``obs_per_item`` rows per item whose values are drawn
    from a two-value pool specific to (relation, class), so the value
    distribution at the end of the backward walk identifies the class but
    still varies within it.
    """
    rng = derive_rng(seed, "planted")
    relations = {"item": ["iid", "cls"]}
    fks = []
    if with_noise:
        relations["item"] += ["u", "u2", "c"]
        for rel, col in (("uniq", "u"), ("uniq2", "u2"), ("const", "c")):
            relations[rel] = ["cid", "cval"] if rel == "const" else ["uid", "uval"]
            fks.append(("item", col, rel))
    for j in range(n_obs):
        relations[f"obs{j}"] = ["oid", "ref", "oval"]
        fks.append((f"obs{j}", "ref", "item"))
    schema = _categorical_schema(relations, fks)

    rows: list[tuple[str, tuple[Value, ...]]] = []
    classes = [i % n_classes for i in range(n_items)]
    for i in range(n_items):
        vals: list[Value] = [f"i{i:04d}", f"c{classes[i]}"]
        if with_noise:
            vals += [f"u{i}", f"w{i}", "k0"]
        rows.append(("item", tuple(vals)))
    if with_noise:
        for i in range(n_items):
            rows.append(("uniq", (f"u{i}", f"uv{i}")))
        for i in range(n_items):
            rows.append(("uniq2", (f"w{i}", f"wv{i}")))
        rows.append(("const", ("k0", "kv")))
    for j in range(n_obs):
        for i in range(n_items):
            pool = (f"v{j}_{classes[i]}_a", f"v{j}_{classes[i]}_b")
            for t in range(obs_per_item):
                rows.append(
                    (f"obs{j}", (f"o{j}_{i}_{t}", f"i{i:04d}", pool[int(rng.integers(2))]))
                )
    db = build_database(schema, rows)
    return PlantedSetup(schema, db, "item", "cls", n_obs, with_noise)


# -- small fixed databases -----------------------------------------------------


def two_cluster_database(n_per_cluster: int = 6) -> Database:
    """Items referencing one of two group rows; the expected kernel distance
    on the forward scheme targeting the group value is exactly 1 within a
    cluster and 0 across."""
    schema = _categorical_schema({"item": ["iid", "g"], "grp": ["gid", "gval"]}, [("item", "g", "grp")])
    rows: list[tuple[str, tuple[Value, ...]]] = [
        ("grp", ("ga", "va")),
        ("grp", ("gb", "vb")),
    ]
    for i in range(2 * n_per_cluster):
        rows.append(("item", (f"i{i}", "ga" if i < n_per_cluster else "gb")))
    return build_database(schema, rows)


def convergence_database(n_items: int = 8, obs_per_item: int = 3, seed: int = 1) -> Database:
    """Small database with a mix of deterministic and mildly random schemes,
    sized for exact expected-kernel-distance computation."""
    rng = derive_rng(seed, "convergence")
    schema = _categorical_schema(
        {"item": ["iid", "g"], "grp": ["gid", "gval"], "obs": ["oid", "ref", "oval"]},
        [("item", "g", "grp"), ("obs", "ref", "item")],
    )
    rows: list[tuple[str, tuple[Value, ...]]] = [("grp", ("ga", "va")), ("grp", ("gb", "vb"))]
    for i in range(n_items):
        rows.append(("item", (f"i{i}", "ga" if i % 2 == 0 else "gb")))
    for i in range(n_items):
        for t in range(obs_per_item):
            val = "v0" if rng.random() < 0.8 else "v1"
            rows.append(("obs", (f"o{i}_{t}", f"i{i}", val)))
    return build_database(schema, rows)


def mi_chain_database(n: int = 4) -> Database:
    """X -> Y is a bijection (one deterministic step, mutual information
    log n); every Y references the single Z row (an uninformative step,
    mutual information exactly 0)."""
    schema = _categorical_schema(
        {"X": ["xid", "fy"], "Y": ["yid", "fz"], "Z": ["zid"]}, [("X", "fy", "Y"), ("Y", "fz", "Z")]
    )
    rows: list[tuple[str, tuple[Value, ...]]] = [("Z", ("z0",))]
    for i in range(n):
        rows.append(("Y", (f"y{i}", "z0")))
    for i in range(n):
        rows.append(("X", (f"x{i}", f"y{i}")))
    return build_database(schema, rows)


# -- random schemas and databases (for oracle-based property tests) -------------


def random_schema(seed: int, max_relations: int = 5, max_fks: int = 6) -> DatabaseSchema:
    rng = derive_rng(seed, "schema")
    n_rel = int(rng.integers(1, max_relations + 1))
    relations = []
    for r in range(n_rel):
        attrs = [{"name": "id", "kind": "categorical", "nullable": False}]
        for e in range(int(rng.integers(0, 3))):
            kind = "numeric" if rng.random() < 0.5 else "categorical"
            attrs.append({"name": f"x{e}", "kind": kind, "nullable": True})
        relations.append({"name": f"R{r}", "attributes": attrs, "key": ["id"]})
    n_fk = int(rng.integers(0, max_fks + 1))
    fks = []
    for i in range(n_fk):
        src = int(rng.integers(0, n_rel))
        dst = int(rng.integers(0, n_rel))
        col = f"f{i}"
        nullable = bool(rng.random() < 0.3)
        relations[src]["attributes"].append(
            {"name": col, "kind": "categorical", "nullable": nullable}
        )
        fks.append(
            {"src": f"R{src}", "src_attrs": [col], "dst": f"R{dst}", "dst_attrs": ["id"]}
        )
    return schema_from_dict({"relations": relations, "foreign_keys": fks})


def random_database(schema: DatabaseSchema, seed: int, max_facts: int = 50) -> Database:
    """Valid random instance: keys are generated first so references (and
    self-referential cycles) can always resolve."""
    rng = derive_rng(seed, "db")
    n_rel = len(schema.relations)
    budget = int(rng.integers(n_rel, max_facts + 1))
    counts = {r.name: 1 + int(rng.integers(0, max(1, budget // n_rel))) for r in schema.relations}
    keys = {r.name: [f"{r.name.lower()}k{i}" for i in range(counts[r.name])] for r in schema.relations}
    fk_by_src: dict[str, list[tuple[str, str]]] = {}
    for fk in schema.foreign_keys:
        fk_by_src.setdefault(fk.src, []).append((fk.src_attrs[0], fk.dst))
    rows: list[tuple[str, tuple[Value, ...]]] = []
    for rel in schema.relations:
        fk_cols = dict(fk_by_src.get(rel.name, []))
        for i in range(counts[rel.name]):
            values: list[Value] = []
            for attr in rel.attributes:
                if attr.name == "id":
                    values.append(keys[rel.name][i])
                elif attr.name in fk_cols:
                    dst = fk_cols[attr.name]
                    if attr.nullable and rng.random() < 0.25:
                        values.append(None)
                    else:
                        values.append(keys[dst][int(rng.integers(0, len(keys[dst])))])
                elif attr.kind == "numeric":
                    values.append(None if attr.nullable and rng.random() < 0.15 else float(np.round(rng.normal(), 3)))
                else:
                    values.append(None if attr.nullable and rng.random() < 0.15 else f"v{int(rng.integers(0, 4))}")
            rows.append((rel.name, tuple(values)))
    return build_database(schema, rows)
