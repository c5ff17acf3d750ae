"""Model and embedding serialisation.

Models are stored as versioned JSON: phi rows are keyed by the start
relation's key tuple (not by fact id, which is load-order dependent), and
each scheme carries its structural encoding so it can be rebound to a
schema on load.  Loaders fail loudly on a format-version mismatch.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IntegrityError, SchemaError, UsageError
from .files import json_array, json_field, read_json, write_csv, write_json
from .relational import Database
from .schemes import TargetedWalkScheme, WalkScheme, WalkStep, scheme_text
from .trainer import EmbeddingModel, KeyedRows

MODEL_FORMAT_VERSION = 1


def _scheme_doc(tws: TargetedWalkScheme) -> dict:
    return {
        "text": scheme_text(tws.scheme),
        "target": tws.target_attr,
        "start": tws.scheme.start_relation,
        "steps": [
            {
                "src": st.fk.src,
                "src_attrs": list(st.fk.src_attrs),
                "dst": st.fk.dst,
                "dst_attrs": list(st.fk.dst_attrs),
                "direction": st.direction,
            }
            for st in tws.scheme.steps
        ],
    }


def _scheme_from_doc(doc, db: Database, path: str | Path, label: str) -> TargetedWalkScheme:
    steps = []
    for j, st in enumerate(json_field(doc, "steps", list, path, f"{label}.steps")):
        where = f"{label}.steps[{j}]"
        src, dst, direction = (json_field(st, n, str, path, f"{where}.{n}") for n in ("src", "dst", "direction"))
        src_attrs, dst_attrs = (json_field(st, n, list, path, f"{where}.{n}") for n in ("src_attrs", "dst_attrs"))
        match = None
        for fk in db.schema.foreign_keys:
            if (
                fk.src == src
                and fk.dst == dst
                and list(fk.src_attrs) == src_attrs
                and list(fk.dst_attrs) == dst_attrs
            ):
                match = fk
                break
        if match is None:
            raise IntegrityError(
                f"{path}: field {where} references a foreign key absent from the schema: "
                f"{src}{src_attrs} -> {dst}{dst_attrs}"
            )
        steps.append((match, direction))
    start = json_field(doc, "start", str, path, f"{label}.start")
    target = json_field(doc, "target", str, path, f"{label}.target")
    try:
        return TargetedWalkScheme(WalkScheme(start, tuple(WalkStep(fk, d) for fk, d in steps)), target)
    except SchemaError as exc:
        raise IntegrityError(f"{path}: field {label}: {exc}") from None


def save_model(model: EmbeddingModel, db: Database, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "start_relation": model.start_relation,
        "schemes": [_scheme_doc(t) for t in model.psi],
        "active": sorted(model.psi.index[t] for t in model.active_schemes),
        "psi": model.psi.data.tolist(),
        "phi": [
            {"key": list(db.key_of(fid)), "vec": vec.tolist()}
            for fid, vec in sorted(model.phi.items())
        ],
    }
    write_json(doc, path, indent=None)


def load_model(path: str | Path, db: Database) -> EmbeddingModel:
    doc = read_json(path, "model file")
    if not isinstance(doc, dict):
        raise IntegrityError(f"{path}: the model file is not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise UsageError(
            f"model format version {version!r} not supported (expected {MODEL_FORMAT_VERSION})"
        )
    k = json_field(doc, "k", int, path)
    if k < 1:
        raise IntegrityError(f"{path}: field k must be at least 1, got {k}")
    start = json_field(doc, "start_relation", str, path)
    if start not in db.schema.relation_names:
        raise IntegrityError(f"{path}: field start_relation names unknown relation {start!r}")
    scheme_docs = json_field(doc, "schemes", list, path)
    schemes = [_scheme_from_doc(d, db, path, f"schemes[{i}]") for i, d in enumerate(scheme_docs)]
    for i, t in enumerate(schemes):
        if t.scheme.start_relation != start:
            raise IntegrityError(f"{path}: field schemes[{i}] does not start at {start!r}")
        if t.target_attr not in db.schema.relation(t.scheme.end_relation).attr_names:
            raise IntegrityError(f"{path}: field schemes[{i}].target names no attribute of its end relation")
    if len(set(schemes)) != len(schemes):
        raise IntegrityError(f"{path}: field schemes repeats a scheme")
    psi = json_array(json_field(doc, "psi", list, path), (len(schemes), k, k), "iuf", path, "psi")
    active_doc = json_field(doc, "active", list, path)
    active = json_array(active_doc, (len(active_doc),), "iu", path, "active")
    if ((active < 0) | (active >= len(schemes))).any() or (np.diff(np.sort(active)) == 0).any():
        raise IntegrityError(f"{path}: field active holds an index out of range or twice")

    rows = json_field(doc, "phi", list, path)
    try:
        keys = [tuple(row["key"]) for row in rows]
        vecs = [row["vec"] for row in rows]
        fids = [db.fact_by_key(start, key) for key in keys]
    except (TypeError, KeyError):
        raise IntegrityError(f"{path}: field phi is not a list of key and vec pairs") from None
    if None in fids:
        key = keys[fids.index(None)]
        raise IntegrityError(f"{path}: field phi holds an embedding for unknown {start!r} key {key!r}")
    if len(set(fids)) != len(fids):
        raise IntegrityError(f"{path}: field phi repeats a key")
    phi_rows = json_array(vecs, (len(vecs), k), "iuf", path, "phi.vec").astype(np.float64)
    psi = psi.astype(np.float64)
    for label, arr in (("psi", psi), ("phi.vec", phi_rows)):
        if not np.isfinite(arr).all():
            raise IntegrityError(f"{path}: field {label} holds a non-finite number")
    phi, psi = KeyedRows(fids, phi_rows), KeyedRows(schemes, psi)
    return EmbeddingModel(k, start, phi, psi, [schemes[i] for i in active])


def export_embeddings_csv(
    model: EmbeddingModel, db: Database, path: str | Path, fact_ids: list[int] | None = None
) -> None:
    """Write embeddings as CSV: the start relation's key columns followed by
    e0..e{k-1}.  ``fact_ids`` restricts the export (e.g. to new facts)."""
    rel = db.schema.relation(model.start_relation)
    ids = sorted(model.phi.keys()) if fact_ids is None else list(fact_ids)
    missing = [fid for fid in ids if fid not in model.phi]
    if missing:
        raise UsageError(f"no embedding for fact {missing[0]}")
    rows = (["" if v is None else v for v in db.key_of(fid)] + list(model.phi[fid]) for fid in ids)
    write_csv(path, list(rel.key) + [f"e{i}" for i in range(model.k)], rows)
