"""Model JSON round trips and the embeddings CSV export."""

import csv
import json

import numpy as np
import pytest

from walkembed.errors import IntegrityError, UsageError
from walkembed.model_io import export_embeddings_csv, load_model, save_model
from walkembed.relational import Fact, build_database, insert_facts
from walkembed.schemes import enumerate_targeted_schemes
from walkembed.synth import planted_database, two_cluster_database
from walkembed.trainer import TrainConfig, train


def _small_model(seed=0):
    setup = planted_database(n_items=10, n_obs=2, with_noise=False, seed=seed)
    stripped_schemes = enumerate_targeted_schemes(setup.db.schema, "item", 1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=seed)
    model, _ = train(setup.db, "item", stripped_schemes, cfg)
    return setup.db, model


def test_save_load_roundtrip(tmp_path):
    db, model = _small_model()
    path = tmp_path / "model.json"
    save_model(model, db, path)
    loaded = load_model(path, db)
    assert loaded.k == model.k
    assert loaded.start_relation == model.start_relation
    assert set(loaded.phi) == set(model.phi)
    for f in model.phi:
        assert np.array_equal(loaded.phi[f], model.phi[f])
    assert loaded.active_schemes == model.active_schemes
    for t in model.psi:
        assert np.array_equal(loaded.psi[t], model.psi[t])


def test_roundtrip_preserves_frozen_inactive_schemes(tmp_path):
    db, model = _small_model()
    dropped = model.active_schemes.pop()  # psi row stays behind
    path = tmp_path / "model.json"
    save_model(model, db, path)
    loaded = load_model(path, db)
    assert dropped not in loaded.active_schemes
    assert dropped in loaded.psi
    assert np.array_equal(loaded.psi[dropped], model.psi[dropped])


def test_phi_is_keyed_by_key_tuples_not_fact_ids(tmp_path):
    """Rows reordered on disk give new fact ids; key-based storage must
    still attach each vector to the same tuple."""
    db, model = _small_model()
    path = tmp_path / "model.json"
    save_model(model, db, path)
    doc = json.loads(path.read_text())
    assert all(isinstance(row["key"], list) for row in doc["phi"])
    # rebuild the database with the start relation's rows reversed
    rows = [(f.relation, f.values) for f in db.facts if f.relation != "item"]
    item_rows = [(f.relation, f.values) for f in db.facts if f.relation == "item"]
    shuffled = build_database(db.schema, item_rows[::-1] + rows)
    loaded = load_model(path, shuffled)
    for fid, vec in loaded.phi.items():
        key = shuffled.key_of(fid)
        old_fid = db.fact_by_key("item", key)
        assert np.array_equal(vec, model.phi[old_fid])


def test_version_mismatch_rejected(tmp_path):
    db, model = _small_model()
    path = tmp_path / "model.json"
    save_model(model, db, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="format version"):
        load_model(path, db)


def test_unknown_key_rejected(tmp_path):
    db, model = _small_model()
    path = tmp_path / "model.json"
    save_model(model, db, path)
    doc = json.loads(path.read_text())
    doc["phi"][0]["key"] = ["no-such-item"]
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="unknown"):
        load_model(path, db)


def test_missing_foreign_key_rejected(tmp_path):
    db, model = _small_model()
    path = tmp_path / "model.json"
    save_model(model, db, path)
    other = two_cluster_database(3)  # same-named FKs do not exist here
    with pytest.raises(IntegrityError, match="foreign key"):
        load_model(path, other)


def test_export_embeddings_csv(tmp_path):
    db, model = _small_model()
    path = tmp_path / "emb.csv"
    export_embeddings_csv(model, db, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iid", "e0", "e1", "e2", "e3"]
    assert len(rows) == 1 + len(model.phi)
    ids = sorted(model.phi)
    for row, fid in zip(rows[1:], ids):
        assert row[0] == db.key_of(fid)[0]
        assert np.allclose([float(x) for x in row[1:]], model.phi[fid])


def test_export_restricted_to_fact_ids(tmp_path):
    db, model = _small_model()
    ids = sorted(model.phi)[:3]
    path = tmp_path / "emb.csv"
    export_embeddings_csv(model, db, path, fact_ids=ids)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4


def test_export_missing_embedding_errors(tmp_path):
    """The check runs before anything is written: an embedded id ahead of
    the missing one leaves no partial file and no temporary file."""
    db, model = _small_model()
    new_db = insert_facts(db, [Fact("item", ("fresh", "c0"))])
    with pytest.raises(UsageError, match="no embedding"):
        export_embeddings_csv(model, new_db, tmp_path / "emb.csv",
                              fact_ids=[min(model.phi), new_db.n_facts - 1])
    assert list(tmp_path.iterdir()) == []
