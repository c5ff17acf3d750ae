"""End-to-end command-line runs against a small generated database.

Commands run in-process through main(argv) so exit codes and printed
output can be asserted directly; one subprocess smoke test checks the
installed entry point.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import walkembed
from walkembed.cli import main
from walkembed.evaluation import strip_attribute
from walkembed.model_io import load_model, save_model
from walkembed.relational import (
    AttributeDecl,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
    build_database,
    load_database,
    load_schema,
    save_schema,
    write_database_csv,
)
from walkembed.schemes import enumerate_targeted_schemes, targeted_text
from walkembed.synth import planted_database
from walkembed.trainer import EmbeddingModel


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Planted database on disk plus its run configuration."""
    root = tmp_path_factory.mktemp("cli")
    setup = planted_database(n_items=12, n_obs=2, with_noise=False, seed=0)
    (root / "data").mkdir()
    save_schema(setup.schema, root / "schema.json")
    write_database_csv(setup.db, root / "data")
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "item", "attribute": "cls"},
        "max_length": 1,
        "trainer": {"k": 4, "n_samples": 3, "epochs": 2, "learning_rate": 0.1, "seed": 0},
        "strategies": ["length"],
        "ratios": [0.5],
        "seeds": [0, 1],
        "folds": 3,
    }
    (root / "config.json").write_text(json.dumps(config))
    stripped, _ = strip_attribute(setup.db, "item", "cls")
    n_schemes = len(enumerate_targeted_schemes(stripped.schema, "item", 1))
    return {"root": root, "config": root / "config.json", "n_schemes": n_schemes,
            "setup": setup}


@pytest.fixture(scope="module")
def trained(ws):
    out = ws["root"] / "train_out"
    code, _ = _run(["--out-dir", str(out), "train", "--config", str(ws["config"])])
    assert code == 0
    return out


# -- schemes ----------------------------------------------------------------------


def test_schemes_lists_and_counts(ws):
    code, out = _run([
        "schemes", "--schema", str(ws["root"] / "schema.json"),
        "--start", "item", "--max-length", "1", "--stats",
    ])
    assert code == 0
    lines = out.splitlines()
    listed = [l for l in lines if not l.startswith("#")]
    n = next(int(l.split(":")[1]) for l in lines if l.startswith("# targeted schemes"))
    assert len(listed) == n
    assert "item :: iid" in listed
    assert any(l.startswith("# walk schemes:") for l in lines)
    assert any(l.startswith("# average length:") for l in lines)


# -- score ---------------------------------------------------------------------------


def test_score_writes_csv_and_selection(ws):
    out = ws["root"] / "score_out"
    code, printed = _run([
        "--out-dir", str(out), "score",
        "--config", str(ws["config"]), "--strategy", "length",
    ])
    assert code == 0
    with open(out / "scores_length.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scheme_text", "target_attr", "strategy", "score", "rank", "diagnostics"]
    assert len(rows) == 1 + ws["n_schemes"]
    assert {r[2] for r in rows[1:]} == {"length"}
    ranks = sorted(int(r[4]) for r in rows[1:])
    assert ranks == list(range(1, ws["n_schemes"] + 1))

    sel = json.loads((out / "selection_length_0.5.json").read_text())
    assert sel["strategy"] == "length" and sel["ratio"] == 0.5
    assert len(sel["kept"]) == math.ceil(0.5 * ws["n_schemes"])
    assert set(sel["kept"]) & set(sel["removed"]) == set()
    assert len(sel["kept"]) + len(sel["removed"]) == ws["n_schemes"]


def test_score_manifest_records_the_run(ws):
    out = ws["root"] / "score_out"  # written by the previous test's module fixture use
    if not (out / "manifest.json").exists():
        _run(["--out-dir", str(out), "score", "--config", str(ws["config"]),
              "--strategy", "length"])
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "score"
    assert doc["status"] == "complete"
    assert doc["config_hash"] == hashlib.sha256(ws["config"].read_bytes()).hexdigest()
    assert doc["root_seed"] == 0
    assert doc["outputs"]
    assert "finished_at" in doc


def test_score_online_is_rejected(ws):
    code, _ = _run([
        "--out-dir", str(ws["root"] / "x"), "score",
        "--config", str(ws["config"]), "--strategy", "online",
    ])
    assert code == 2


# -- train ----------------------------------------------------------------------------


def test_train_writes_model_log_and_embeddings(ws, trained):
    model_path = trained / "model.json"
    assert model_path.exists()
    schema = load_schema(ws["root"] / "schema.json")
    raw = load_database(schema, ws["root"] / "data")
    db, _ = strip_attribute(raw, "item", "cls")
    model = load_model(model_path, db)
    assert len(model.active_schemes) == ws["n_schemes"]
    assert len(model.phi) == 12

    with open(trained / "embeddings.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iid", "e0", "e1", "e2", "e3"]
    assert len(rows) == 13

    with open(trained / "training_log.csv", newline="") as fh:
        log = list(csv.reader(fh))
    assert log[0][:3] == ["epoch", "scheme_text", "target_attr"]
    assert {r[0] for r in log[1:]} == {"1", "2"}  # one block per epoch


def test_train_with_strategy_keeps_subset(ws):
    out = ws["root"] / "train_sel"
    code, printed = _run([
        "--out-dir", str(out), "train", "--config", str(ws["config"]),
        "--strategy", "length", "--ratio", "0.5",
    ])
    assert code == 0
    kept = math.ceil(0.5 * ws["n_schemes"])
    assert f"kept {kept} of {ws['n_schemes']} schemes via length" in printed
    schema = load_schema(ws["root"] / "schema.json")
    db, _ = strip_attribute(load_database(schema, ws["root"] / "data"), "item", "cls")
    model = load_model(out / "model.json", db)
    assert len(model.active_schemes) == kept


def test_train_from_selection_manifest(ws):
    score_out = ws["root"] / "score_out"
    sel_path = score_out / "selection_length_0.5.json"
    if not sel_path.exists():
        _run(["--out-dir", str(score_out), "score", "--config", str(ws["config"]),
              "--strategy", "length"])
    out = ws["root"] / "train_manifest"
    code, printed = _run([
        "--out-dir", str(out), "train", "--config", str(ws["config"]),
        "--selection", str(sel_path),
    ])
    assert code == 0
    sel = json.loads(sel_path.read_text())
    schema = load_schema(ws["root"] / "schema.json")
    db, _ = strip_attribute(load_database(schema, ws["root"] / "data"), "item", "cls")
    model = load_model(out / "model.json", db)
    assert sorted(targeted_text(t) for t in model.active_schemes) == sorted(sel["kept"])


def test_train_selection_with_unknown_scheme_fails(ws, tmp_path):
    bad = tmp_path / "sel.json"
    bad.write_text(json.dumps({"kept": ["item :: nope"], "removed": []}))
    code, _ = _run([
        "--out-dir", str(tmp_path), "train", "--config", str(ws["config"]),
        "--selection", str(bad),
    ])
    assert code == 2


def test_train_selection_and_strategy_conflict(ws, tmp_path):
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"kept": [], "removed": []}))
    code, _ = _run([
        "--out-dir", str(tmp_path), "train", "--config", str(ws["config"]),
        "--selection", str(sel), "--strategy", "length",
    ])
    assert code == 2


def test_train_online_prints_schedule(ws):
    out = ws["root"] / "train_online"
    code, printed = _run([
        "--out-dir", str(out), "train", "--config", str(ws["config"]),
        "--strategy", "online", "--ratio", "0.5",
    ])
    assert code == 0
    assert "online schedule (active schemes per epoch):" in printed


def test_train_seed_override_changes_the_model(ws):
    a_dir, b_dir = ws["root"] / "seed_a", ws["root"] / "seed_b"
    _run(["--seed", "11", "--out-dir", str(a_dir), "train", "--config", str(ws["config"])])
    _run(["--seed", "12", "--out-dir", str(b_dir), "train", "--config", str(ws["config"])])
    a = (a_dir / "embeddings.csv").read_text()
    b = (b_dir / "embeddings.csv").read_text()
    assert a != b
    doc = json.loads((a_dir / "manifest.json").read_text())
    assert doc["root_seed"] == 11


# -- evaluate --------------------------------------------------------------------------


def test_evaluate_reports_accuracy(ws, trained):
    code, printed = _run([
        "evaluate", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"),
    ])
    assert code == 0
    assert "labeled facts, 3 folds" in printed
    acc = float(printed.split("accuracy=")[1].split(" ")[0])
    assert 0.0 <= acc <= 1.0


# -- extend -----------------------------------------------------------------------------


def test_extend_sampled_with_new_rows(ws, trained):
    new_dir = ws["root"] / "new_rows"
    new_dir.mkdir(exist_ok=True)
    (new_dir / "item.csv").write_text("iid\nfresh\n")
    out = ws["root"] / "extend_out"
    code, printed = _run([
        "--out-dir", str(out), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
        "--verify",
    ])
    assert code == 0
    assert "extended 1 fact(s)" in printed
    assert (out / "model_extended.json").exists()
    with open(out / "embeddings_new.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "fresh"


def test_extend_zero_new_facts_is_a_no_op(ws, trained, tmp_path):
    new_dir = tmp_path / "empty"
    new_dir.mkdir()
    out = tmp_path / "out"
    code, printed = _run([
        "--out-dir", str(out), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 0
    assert "extended 0 fact(s)" in printed
    assert (out / "model_extended.json").exists()


def test_extend_non_start_rows_do_not_need_embeddings(ws, trained, tmp_path):
    new_dir = tmp_path / "obs_only"
    new_dir.mkdir()
    item_key = ws["setup"].db.key_of(list(ws["setup"].db.relation_fact_ids("item"))[0])[0]
    (new_dir / "obs0.csv").write_text(f"oid,ref,oval\nnew-obs,{item_key},1.25\n")
    out = tmp_path / "out"
    code, printed = _run([
        "--out-dir", str(out), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 0
    assert "extended 0 fact(s)" in printed


def test_extend_dangling_reference_exits_3(ws, trained, tmp_path):
    new_dir = tmp_path / "bad"
    new_dir.mkdir()
    (new_dir / "obs0.csv").write_text("oid,ref,oval\nnew-obs,ghost,1.0\n")
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 3


def test_non_finite_numeric_cell_exits_3(toy_db, tmp_path, capsys):
    save_schema(toy_db.schema, tmp_path / "schema.json")
    write_database_csv(toy_db, tmp_path / "data")
    with open(tmp_path / "data" / "S.csv", "a", encoding="utf-8") as fh:
        fh.write("w,nan\n")
    config = {"schema": "schema.json", "data_dir": "data", "task": {"relation": "R", "attribute": "B"}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "score", "--config", str(tmp_path / "config.json"),
        "--strategy", "length",
    ])
    assert code == 3
    assert "non-finite value 'nan' in S.D (S.csv line 5)" in capsys.readouterr().err


def test_extend_wrong_header_exits_3(ws, trained, tmp_path):
    new_dir = tmp_path / "bad_header"
    new_dir.mkdir()
    (new_dir / "item.csv").write_text("wrong\nfresh\n")
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 3


def test_extend_extra_cell_exits_3(ws, trained, tmp_path, capsys):
    new_dir = tmp_path / "extra_cell"
    new_dir.mkdir()
    (new_dir / "item.csv").write_text("iid\nfresh,EXTRA-CELL\n")
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 3
    assert f"{new_dir / 'item.csv'} line 2: expected 1 cells, got 2" in capsys.readouterr().err


def test_extend_non_numeric_cell_exits_3(toy_db, tmp_path, capsys):
    save_schema(toy_db.schema, tmp_path / "schema.json")
    write_database_csv(toy_db, tmp_path / "data")
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "R", "attribute": "B"},
        "max_length": 1,
        "trainer": {"k": 2, "n_samples": 1, "epochs": 1},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "train", "--config", str(tmp_path / "config.json")])
    assert code == 0
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    (new_dir / "S.csv").write_text("C,D\nw,abc\n")
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(tmp_path / "config.json"),
        "--model", str(tmp_path / "out" / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 3
    assert "cannot parse 'abc' as numeric for S.D (S.csv line 2)" in capsys.readouterr().err


# -- strict clone verification ----------------------------------------------------------


@pytest.fixture(scope="module")
def strict_ws(tmp_path_factory):
    """Two labeled clusters plus a hand-built model whose bilinear responses
    equal the exact kernel distances, so the strict residual gate holds."""
    root = tmp_path_factory.mktemp("strict")
    schema = DatabaseSchema(
        (
            RelationSchema(
                "grp",
                (AttributeDecl("gid", "text"), AttributeDecl("gval", "text")),
                ("gid",),
            ),
            RelationSchema(
                "item",
                (
                    AttributeDecl("iid", "text"),
                    AttributeDecl("g", "text"),
                    AttributeDecl("label", "text", nullable=True),
                ),
                ("iid",),
            ),
        ),
        (ForeignKey("item", ("g",), "grp", ("gid",)),),
    )
    rows = [("grp", ("ga", "va")), ("grp", ("gb", "vb")), ("grp", ("gc", "vc"))]
    for i in range(6):
        rows.append(("item", (f"a{i}", "ga", "la")))
        rows.append(("item", (f"b{i}", "gb", "lb")))
    raw = build_database(schema, rows)
    (root / "data").mkdir()
    save_schema(schema, root / "schema.json")
    write_database_csv(raw, root / "data")
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "item", "attribute": "label"},
        "max_length": 1,
        "trainer": {"k": 2, "n_samples": 3, "epochs": 2, "learning_rate": 0.1, "seed": 0},
        "seeds": [0],
        "folds": 2,
    }
    (root / "config.json").write_text(json.dumps(config))

    db, _ = strip_attribute(raw, "item", "label")
    (tws,) = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item[g]--[gid]grp :: gval"
    ]
    rel = db.schema.relation("item")
    phi = {}
    for f in db.relation_fact_ids("item"):
        vec = np.zeros(2)
        vec[0 if db.fact(f).value(rel, "g") == "ga" else 1] = 1.0
        phi[f] = vec
    model = EmbeddingModel(2, "item", phi, {tws: np.eye(2)}, [tws])
    save_model(model, db, root / "hand_model.json")
    return root


def test_strict_verify_passes_on_a_response_exact_model(strict_ws):
    new_dir = strict_ws / "new"
    new_dir.mkdir(exist_ok=True)
    (new_dir / "item.csv").write_text("iid,g\nclone,ga\n")
    out = strict_ws / "out_ok"
    code, printed = _run([
        "--out-dir", str(out), "extend", "--config", str(strict_ws / "config.json"),
        "--model", str(strict_ws / "hand_model.json"), "--new-dir", str(new_dir),
        "--verify", "--exact", "--exhaustive",
    ])
    assert code == 0
    assert "(ok)" in printed
    residual = float(printed.split("max residual ")[1].split(" ")[0])
    assert residual < 1e-6


def test_strict_verify_skips_facts_without_a_twin(strict_ws):
    new_dir = strict_ws / "new_twinless"
    new_dir.mkdir(exist_ok=True)
    (new_dir / "item.csv").write_text("iid,g\nlone,gc\n")  # no item uses gc
    out = strict_ws / "out_skip"
    code, printed = _run([
        "--out-dir", str(out), "extend", "--config", str(strict_ws / "config.json"),
        "--model", str(strict_ws / "hand_model.json"), "--new-dir", str(new_dir),
        "--verify", "--exact", "--exhaustive",
    ])
    assert code == 0
    assert "no structural twin" in printed


def test_strict_verify_fails_on_an_unconverged_model(strict_ws):
    train_out = strict_ws / "train_rough"
    code, _ = _run([
        "--out-dir", str(train_out), "train",
        "--config", str(strict_ws / "config.json"),
    ])
    assert code == 0
    new_dir = strict_ws / "new"
    code, printed = _run([
        "--out-dir", str(strict_ws / "out_fail"), "extend",
        "--config", str(strict_ws / "config.json"),
        "--model", str(train_out / "model.json"), "--new-dir", str(new_dir),
        "--verify", "--exact", "--exhaustive",
    ])
    assert code == 4
    assert "(FAIL)" in printed


# -- experiment and plot-data ----------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_out(ws):
    out = ws["root"] / "exp_out"
    code, printed = _run([
        "--out-dir", str(out), "experiment", "--config", str(ws["config"]),
        "--dynamic", "0.3",
    ])
    assert code == 0
    return out, printed


def test_experiment_writes_report_and_curves(ws, experiment_out):
    out, printed = experiment_out
    doc = json.loads((out / "report.json").read_text())
    assert doc["format_version"] == 1
    assert doc["alpha_star"] == pytest.approx(0.95 * doc["baseline_accuracy"])
    assert (out / "curve_baseline_1.csv").exists()
    assert (out / "curve_length_0.5.csv").exists()
    assert "baseline accuracy:" in printed
    assert "accuracy threshold (95%):" in printed
    assert "t*(baseline, r=1)" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert str(out / "report.json") in manifest["outputs"]


def test_experiment_dynamic_csv(ws, experiment_out):
    out, _ = experiment_out
    with open(out / "dynamic.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "fraction_deleted", "n_inserted", "accuracy"]
    assert {r[0] for r in rows[1:]} == {"baseline", "length"}
    for r in rows[1:]:
        assert float(r[1]) == 0.3
        assert 0.0 <= float(r[3]) <= 1.0


def test_plot_data_flattens_the_report(ws, experiment_out):
    out, _ = experiment_out
    code, printed = _run(["plot-data", "--report", str(out)])
    assert code == 0
    with open(out / "plotdata.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "ratio", "series", "seconds", "accuracy"]
    series = {r[2] for r in rows[1:]}
    assert {"seed0", "seed1", "ensemble"} <= series


def test_plot_data_rejects_unknown_format(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"format_version": 99}))
    code, _ = _run(["plot-data", "--report", str(report)])
    assert code == 2


# -- error handling --------------------------------------------------------------------


def test_missing_config_exits_2(tmp_path):
    code, _ = _run([
        "--out-dir", str(tmp_path), "score",
        "--config", str(tmp_path / "nope.json"), "--strategy", "length",
    ])
    assert code == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    code, _ = _run([
        "--out-dir", str(tmp_path), "train", "--config", str(bad),
    ])
    assert code == 2


def test_installed_entry_point_runs(ws):
    # the child imports the package the tests import, installed or not
    package_root = str(Path(walkembed.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "walkembed.cli", "schemes",
         "--schema", str(ws["root"] / "schema.json"),
         "--start", "item", "--max-length", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "# targeted schemes:" in proc.stdout
