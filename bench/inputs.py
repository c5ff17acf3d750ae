"""Input generation for the benchmark workloads.

Run as a child process (``python3 bench/inputs.py WORKLOAD SEED DIR``) so
that the generator's memory does not count towards the measured process's
peak RSS.  Everything written depends only on the workload name and the
seed.  The program under test never sees the seed: it reads the files.

Layout written under DIR:

- ``schema.json`` and ``data/<relation>.csv`` for every workload;
- ``config.json`` for ``experiment`` (a ``walkembed experiment`` config);
- ``new_items.json`` for ``insert``: the held-out items, each with its
  label and the rows (item first, then its observations) to insert.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from _paths import add_src

add_src()

from walkembed.relational import (  # noqa: E402
    build_database,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    write_database_csv,
)
from walkembed.seeding import derive_rng  # noqa: E402
from walkembed.synth import planted_database  # noqa: E402

# A small planted database trained on a grid of four cells (baseline and
# kvar at ratio 0.5, two seeds each), under 3 s per run so that one
# measurement holds many runs.  Accuracy climbs for five to seven epochs
# towards 1.0, so t* for kvar lands on a late epoch of its runs, not on the
# first one.  With 60 items kvar's ensemble missed 95% of the baseline on
# some seeds.
EXPERIMENT = {
    "n_items": 80,
    "n_obs": 2,
    "trainer": {"k": 16, "n_samples": 2, "epochs": 8, "learning_rate": 0.15},
    "folds": 5,
}

# About 42k facts: the planted layout plus one nullable numeric column per
# observation relation, so the Gaussian kernel and the sampler's retry
# loop over null destinations are both exercised.
SELECT = {"n_items": 2000, "n_obs": 6, "obs_per_item": 3, "null_share": 0.3}

# About 38k facts in the base database after 100 items are held out; few
# items with many observations each keep base training short while the
# database stays large.
INSERT = {"n_items": 600, "n_obs": 6, "obs_per_item": 12, "held_out": 100}


def _write(db, schema, out: Path) -> None:
    save_schema(schema, out / "schema.json")
    write_database_csv(db, out / "data")


def experiment_inputs(seed: int, out: Path) -> None:
    p = planted_database(n_items=EXPERIMENT["n_items"], n_obs=EXPERIMENT["n_obs"], seed=seed)
    _write(p.db, p.schema, out)
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "item", "attribute": "cls"},
        "max_length": 1,
        "trainer": {**EXPERIMENT["trainer"], "seed": seed},
        "strategies": ["kvar"],
        "ratios": [0.5],
        "seeds": [seed, seed + 1],
        "folds": EXPERIMENT["folds"],
        "split_seed": seed,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")


def select_inputs(seed: int, out: Path) -> None:
    p = planted_database(
        n_items=SELECT["n_items"], n_obs=SELECT["n_obs"], obs_per_item=SELECT["obs_per_item"], seed=seed
    )
    doc = schema_to_dict(p.schema)
    for rel in doc["relations"]:
        if rel["name"].startswith("obs"):
            rel["attributes"].append({"name": "onum", "kind": "numeric", "nullable": True})
    schema = schema_from_dict(doc)
    rng = derive_rng(seed, "bench", "onum")
    cls = {f.values[0]: f.values[1] for f in p.db.relation_facts("item")}
    rows = []
    for fact in p.db.facts:
        values = fact.values
        if fact.relation.startswith("obs"):
            if rng.random() < SELECT["null_share"]:
                onum = None
            else:
                # class-dependent mean, so the numeric schemes carry signal too
                onum = round(float(rng.normal(1.0 if cls[values[1]] == "c1" else 0.0, 1.0)), 6)
            values = values + (onum,)
        rows.append((fact.relation, values))
    _write(build_database(schema, rows), schema, out)


def insert_inputs(seed: int, out: Path) -> None:
    p = planted_database(
        n_items=INSERT["n_items"], n_obs=INSERT["n_obs"], obs_per_item=INSERT["obs_per_item"], seed=seed
    )
    rng = derive_rng(seed, "bench", "held-out")
    items = p.db.relation_facts("item")
    picked = sorted(int(i) for i in rng.choice(len(items), size=INSERT["held_out"], replace=False))
    held = {items[i].values[0]: items[i] for i in picked}
    item_rel = p.schema.relation("item")
    cls_pos = item_rel.attr_index("cls")

    base_rows = []
    new_rows: dict[str, list] = {key: [] for key in held}
    for fact in p.db.facts:
        if fact.relation == "item" and fact.values[0] in held:
            continue
        if fact.relation.startswith("obs") and fact.values[1] in held:
            new_rows[fact.values[1]].append([fact.relation, list(fact.values)])
            continue
        base_rows.append((fact.relation, fact.values))
    new_items = []
    for key, fact in held.items():
        stripped = list(fact.values[:cls_pos] + fact.values[cls_pos + 1 :])
        new_items.append(
            {"key": key, "label": fact.values[cls_pos], "rows": [["item", stripped], *new_rows[key]]}
        )
    _write(build_database(p.schema, base_rows), p.schema, out)
    (out / "new_items.json").write_text(json.dumps(new_items), encoding="utf-8")


GENERATORS = {"experiment": experiment_inputs, "select": select_inputs, "insert": insert_inputs}


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out_dir.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](seed, out_dir)
