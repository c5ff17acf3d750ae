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
from walkembed import cli, evaluation, files
from walkembed.cli import main
from walkembed.errors import UsageError
from walkembed.evaluation import ExperimentConfig, strip_attribute
from walkembed.model_io import load_model, save_model
from walkembed.relational import (
    AttributeDecl,
    Database,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
    build_database,
    load_database,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    write_database_csv,
)
from walkembed.schemes import enumerate_targeted_schemes, targeted_text
from walkembed.selection import SchemeScore, online_elimination_train, select
from walkembed.synth import planted_database
from walkembed.trainer import EmbeddingModel, TrainConfig


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


def test_train_manifest_records_peak_rss(trained):
    doc = json.loads((trained / "manifest.json").read_text())
    assert doc["status"] == "complete"
    assert math.isfinite(doc["peak_rss_mb"]) and doc["peak_rss_mb"] > 0


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", "--strategy", "bogus"], "unknown strategy 'bogus', expected one of: random, length,"),
        (["score", "--strategy", "online"], "the online strategy scores nothing up front"),
        (["train", "--strategy", "bogus"], "unknown strategy 'bogus', expected one of: random, length,"),
        (["train", "--strategy", "kvar", "--ratio", "2"], "ratio must be in (0, 1]"),
        (["train", "--strategy", "online", "--ratio", "0"], "ratio must be in (0, 1]"),
    ],
    ids=["score-bogus", "score-online", "train-bogus", "train-kvar-ratio-2", "train-online-ratio-0"],
)
def test_bad_strategy_or_ratio_exits_2_before_loading(ws, tmp_path, capsys, monkeypatch, argv, message):
    def loaded(*args, **kwargs):
        pytest.fail("the command loaded the database before checking --strategy and --ratio")

    monkeypatch.setattr(evaluation, "load_database", loaded)
    code, _ = _run(["--out-dir", str(tmp_path), argv[0], "--config", str(ws["config"]), *argv[1:]])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, field",
    [("config", "strategy"), ("score", "strategy"), ("train", "strategy"), ("config", "ratio"),
     ("score", "ratio"), ("train", "ratio"), ("select", "ratio"), ("online_elimination_train", "ratio")],
)
def test_a_bad_strategy_or_ratio_has_one_message_wherever_it_is_given(ws, tmp_path, capsys, source, field):
    """The config, both commands and the library calls reject the unknown
    strategy ``kvr`` and the ratio 1.5 in the same words; a command puts
    ``error: `` in front, and the config's path when the config holds it."""
    message = {
        "strategy": "unknown strategy 'kvr', expected one of: random, length, mi, kvar, one_epoch, sampling, online",
        "ratio": "ratio must be in (0, 1], got 1.5",
    }[field]
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"))
    db, _ = strip_attribute(ws["setup"].db, "item", "cls")
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    if source in ("config", "score"):
        config.update({"strategies": ["kvr"]} if field == "strategy" else {"ratios": [1.5]})
    if source in ("score", "train"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = ["--strategy", "kvr"] if field == "strategy" else ["--strategy", "kvar"]
        if source == "train" and field == "ratio":
            flags += ["--ratio", "1.5"]
        code, _ = _run(["--out-dir", str(tmp_path), source, "--config", str(path), *flags])
        assert code == 2
        assert capsys.readouterr().err.strip() in (f"error: {message}", f"error: {path}: {message}")
        return
    with pytest.raises(UsageError) as err:
        if source == "config":
            ExperimentConfig.from_dict(config)
        elif source == "select":
            select([SchemeScore(t, 0.5, "length") for t in schemes], 1.5)
        else:
            online_elimination_train(db, "item", schemes, TrainConfig(k=4, epochs=1), 1.5)
    assert str(err.value) == message


@pytest.mark.parametrize("command", ["train", "experiment"])
@pytest.mark.parametrize(
    "literal, field, message",
    [
        ('"trainer": {"learning_rate": NaN}', "learning_rate", "learning_rate must be a finite positive number, got nan"),
        ('"trainer": {"learning_rate": Infinity}', "learning_rate", "learning_rate must be a finite positive number, got inf"),
        ('"kernels": [{"relation": "obs0", "attribute": "oval", "kind": "numeric", "sigma": NaN}]', "sigma",
         "needs a finite sigma > 0, got nan"),
        ('"kernels": [{"relation": "obs0", "attribute": "oval", "kind": "numeric", "sigma": Infinity}]', "sigma",
         "needs a finite sigma > 0, got inf"),
    ],
    ids=["lr-nan", "lr-inf", "sigma-nan", "sigma-inf"],
)
def test_non_finite_float_option_exits_2_before_loading(ws, tmp_path, capsys, monkeypatch, command, literal, field,
                                                        message):
    """The JSON literals NaN and Infinity reach the config as floats, and a
    float option that must be finite is rejected by name before any load."""
    def loaded(*args, **kwargs):
        pytest.fail(f"the command loaded the database before checking {field}")

    monkeypatch.setattr(evaluation, "load_database", loaded)
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"))
    config.pop("trainer")
    text = json.dumps(config)
    bad = tmp_path / "config.json"
    bad.write_text(text[:-1] + ", " + literal + "}")
    code, _ = _run(["--out-dir", str(tmp_path / "out"), command, "--config", str(bad)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "training_log.csv").exists()


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


def test_training_log_reports_levels_and_phase_times_within_the_wall_time(trained):
    with open(trained / "training_log.csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    assert log
    for row in log:
        phases = [float(row[f"{phase}_s"]) for phase in ("sample", "kernel", "sgd", "check")]
        assert all(t >= 0.0 for t in phases)
        assert sum(phases) <= float(row["wall_time"])
        assert 0 < int(row["sgd_levels"]) <= int(row["samples_used"])


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


def test_train_selection_with_a_repeated_scheme_fails(ws, tmp_path, capsys):
    stripped, _ = strip_attribute(ws["setup"].db, "item", "cls")
    text = targeted_text(enumerate_targeted_schemes(stripped.schema, "item", 1)[0])
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"kept": [text, text], "removed": []}))
    out = tmp_path / "out"
    code, _ = _run(["--out-dir", str(out), "train", "--config", str(ws["config"]), "--selection", str(sel)])
    message = f"scheme {text} is listed more than once"
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    doc = json.loads((out / "manifest.json").read_text())
    assert (doc["status"], doc["exit_code"], doc["error"]) == ("failed", 2, message)
    assert not (out / "model.json").exists()


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


def test_extend_passes_the_configs_retry_cap(ws, trained, tmp_path, monkeypatch):
    config = json.loads(ws["config"].read_text())
    config["trainer"]["retry_cap"] = 3
    (tmp_path / "config.json").write_text(json.dumps(config))
    for name in ("schema.json", "data"):
        (tmp_path / name).symlink_to(ws["root"] / name)
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    (new_dir / "item.csv").write_text("iid\nfresh\n")
    caps = []
    real_extend = cli.extend_embedding

    def spy(*args, retry_cap=20, **kwargs):
        caps.append(retry_cap)
        return real_extend(*args, retry_cap=retry_cap, **kwargs)

    monkeypatch.setattr(cli, "extend_embedding", spy)
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(tmp_path / "config.json"),
        "--model", str(trained / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 0 and caps == [3]


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


def _write_faulty_csv(path, fault):
    if fault == "not UTF-8":
        path.write_bytes(b"C,D\nw,1.0\n\xff,2.0\n")
    else:
        path.mkdir()


@pytest.mark.parametrize("fault, message", [("not UTF-8", "S.csv line 3: not UTF-8"), ("directory", "Is a directory")])
def test_unreadable_data_csv_exits_3(toy_db, tmp_path, capsys, fault, message):
    """A data CSV that is not UTF-8 or cannot be read exits 3 with a message
    naming it, both in --new-dir and in the data directory."""
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
    train = ["--out-dir", str(tmp_path / "out"), "train", "--config", str(tmp_path / "config.json")]
    assert _run(train)[0] == 0
    (tmp_path / "new").mkdir()
    _write_faulty_csv(tmp_path / "new" / "S.csv", fault)
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(tmp_path / "config.json"),
        "--model", str(tmp_path / "out" / "model.json"), "--new-dir", str(tmp_path / "new"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "new" / "S.csv") in err and message in err
    (tmp_path / "data" / "S.csv").unlink()
    _write_faulty_csv(tmp_path / "data" / "S.csv", fault)
    assert _run(train)[0] == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "data" / "S.csv") in err and message in err


# fault: (file, its content, or None to remove it, or "dir" for a directory; the message)
LOAD_FAULTS = {
    "missing file": ("S.csv", None, "missing data file for relation 'S': {data}/S.csv"),
    "empty file": ("S.csv", b"", "{data}/S.csv is empty; expected a header row"),
    "header mismatch": (
        "S.csv", b"C,E\r\nx,1.0\r\n", "{data}/S.csv header ['C', 'E'] does not match attributes ('C', 'D')"
    ),
    "wrong width": ("S.csv", b"C,D\nx,1.0\ny\n", "{data}/S.csv line 3: expected 2 cells, got 1"),
    "null in a non-nullable attribute": ("R.csv", b"A,B\nx,b1\n,b2\n", "null in non-nullable attribute R.A (R.csv line 3)"),
    "null key": ("S.csv", b"C,D\nx,1.0\n,2.0\n", "null key value in S.C (S.csv line 3)"),
    "non-numeric": ("S.csv", b"C,D\nx,1.0\ny,abc\n", "cannot parse 'abc' as numeric for S.D (S.csv line 3)"),
    "non-finite": ("S.csv", b"C,D\nx,1.0\ny,1e999\n", "non-finite value '1e999' in S.D (S.csv line 3)"),
    "duplicate key": ("S.csv", b"C,D\nx,1.0\ny,2.0\nx,3.0\n", "duplicate key ('x',) in relation 'S'"),
    "dangling reference": ("R.csv", b"A,B\nx,b1\nw,b2\n", "dangling reference ('w',) from R(id 1) via R(A)->S(C)"),
    "not UTF-8": ("S.csv", b"C,D\nx,1.0\n\xff,2.0\n", "{data}/S.csv line 3: not UTF-8 text (invalid start byte)"),
    "directory": ("S.csv", "dir", "cannot read {data}/S.csv: Is a directory"),
    "oversized field": (
        "S.csv", b'C,D\nx,1.0\n"' + b"y" * 200_000 + b'",2.0\n', "{data}/S.csv line 3: field larger than field limit (131072)"
    ),
}


@pytest.mark.parametrize("fault", LOAD_FAULTS)
def test_every_load_fault_exits_3_with_its_message(toy_db, tmp_path, capsys, fault):
    """Each fault of a data directory ends the command with exit 3, the
    message on stderr and in the failed manifest; the column load names
    the faulty line or row as the per-row load does."""
    doc = schema_to_dict(toy_db.schema)
    doc["relations"][1]["attributes"][0]["nullable"] = True  # a nullable key attribute still refuses a null
    save_schema(schema_from_dict(doc), tmp_path / "schema.json")
    data = tmp_path / "data"
    write_database_csv(toy_db, data)
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "R", "attribute": "B"},
        "max_length": 1,
        "trainer": {"k": 2, "n_samples": 1, "epochs": 1},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    name, content, message = LOAD_FAULTS[fault]
    (data / name).unlink()
    if content == "dir":
        (data / name).mkdir()
    elif content is not None:
        (data / name).write_bytes(content)
    out = tmp_path / "out"
    code, _ = _run(["--out-dir", str(out), "train", "--config", str(tmp_path / "config.json")])
    message = message.format(data=data)
    assert code == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    doc = json.loads((out / "manifest.json").read_text())
    assert (doc["status"], doc["exit_code"], doc["error"]) == ("failed", 3, message)


# fault: (file in --new-dir, its content, or "dir" for a directory; the message)
EXTEND_FAULTS = {
    "empty file": ("S.csv", b"", "{new}/S.csv is empty; expected a header row"),
    "header mismatch": (
        "S.csv", b"C,E\r\nw,1.0\r\n", "{new}/S.csv header ['C', 'E'] does not match attributes ('C', 'D')"
    ),
    "wrong width": ("S.csv", b"C,D\nw,1.0\nv\n", "{new}/S.csv line 3: expected 2 cells, got 1"),
    "null key": ("S.csv", b"C,D\nw,1.0\n,2.0\n", "null key value in S.C (S.csv line 3)"),
    "non-numeric": ("S.csv", b"C,D\nw,1.0\nv,abc\n", "cannot parse 'abc' as numeric for S.D (S.csv line 3)"),
    "non-finite": ("S.csv", b"C,D\nw,1.0\nv,-inf\n", "non-finite value '-inf' in S.D (S.csv line 3)"),
    "not UTF-8": ("S.csv", b"C,D\nw,1.0\n\xff,2.0\n", "{new}/S.csv line 3: not UTF-8 text (invalid start byte)"),
    "directory": ("S.csv", "dir", "cannot read {new}/S.csv: Is a directory"),
    "key in the base": ("S.csv", b"C,D\nw,1.0\ny,3.0\n", "duplicate key ('y',) in relation 'S'"),
    "dangling reference": ("R.csv", b"A\nw\n", "dangling reference ('w',) from inserted R row via R(A)->S(C)"),
    # the null key comes first: a row-by-row read stops there, before the short row
    "two faults in one file": ("S.csv", b"C,D\nw,1.0\n,2.0\nv\n", "null key value in S.C (S.csv line 3)"),
}


@pytest.fixture(scope="module")
def toy_model(tmp_path_factory):
    """The toy database on disk, with a nullable key attribute S.C, its
    run configuration and a model trained on it (R.B is the task, so the
    model's R has the one attribute A)."""
    root = tmp_path_factory.mktemp("toy")
    doc = {
        "relations": [
            {"name": "R", "attributes": [{"name": "A", "kind": "categorical", "nullable": False},
                                         {"name": "B", "kind": "categorical"}], "key": ["A"]},
            {"name": "S", "attributes": [{"name": "C", "kind": "categorical"},
                                         {"name": "D", "kind": "numeric"}], "key": ["C"]},
        ],
        "foreign_keys": [{"src": "R", "src_attrs": ["A"], "dst": "S", "dst_attrs": ["C"]}],
    }
    schema = schema_from_dict(doc)
    save_schema(schema, root / "schema.json")
    rows = [("R", ("x", "b1")), ("R", ("y", None)), ("S", ("x", 1.0)), ("S", ("y", 2.0)), ("S", ("z", None))]
    write_database_csv(build_database(schema, rows), root / "data")
    config = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "R", "attribute": "B"},
        "max_length": 1,
        "trainer": {"k": 2, "n_samples": 1, "epochs": 1},
    }
    (root / "config.json").write_text(json.dumps(config))
    assert _run(["--out-dir", str(root / "out"), "train", "--config", str(root / "config.json")])[0] == 0
    return root


@pytest.mark.parametrize("fault", EXTEND_FAULTS)
def test_every_extend_fault_exits_3_with_its_message(toy_model, tmp_path, capsys, fault):
    """Each fault of a --new-dir file ends ``extend`` with exit 3 and the
    message on stderr and in the failed manifest; new rows are read and
    checked as a load's are, with an insert's wording for the build's
    checks."""
    name, content, message = EXTEND_FAULTS[fault]
    new = tmp_path / "new"
    new.mkdir()
    if content == "dir":
        (new / name).mkdir()
    else:
        (new / name).write_bytes(content)
    out = tmp_path / "out"
    code, _ = _run([
        "--out-dir", str(out), "extend", "--config", str(toy_model / "config.json"),
        "--model", str(toy_model / "out" / "model.json"), "--new-dir", str(new),
    ])
    message = message.format(new=new)
    assert code == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    doc = json.loads((out / "manifest.json").read_text())
    assert (doc["status"], doc["exit_code"], doc["error"]) == ("failed", 3, message)
    assert not (out / "model_extended.json").exists()


def test_extend_new_dir_that_is_a_file_exits_2(ws, trained, tmp_path, capsys):
    not_a_dir = tmp_path / "item.csv"
    not_a_dir.write_text("iid,cls\n")
    out = tmp_path / "out"
    code, _ = _run([
        "--out-dir", str(out), "extend", "--config", str(ws["config"]),
        "--model", str(trained / "model.json"), "--new-dir", str(not_a_dir),
    ])
    assert code == 2
    assert f"--new-dir is not a directory: {not_a_dir}" in capsys.readouterr().err
    assert not (out / "model_extended.json").exists()


def test_extend_empty_key_cell_exits_3(toy_db, tmp_path, capsys):
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
    (new_dir / "S.csv").write_text("C,D\nw,1.0\n,2.0\n")
    code, _ = _run([
        "--out-dir", str(tmp_path / "out"), "extend", "--config", str(tmp_path / "config.json"),
        "--model", str(tmp_path / "out" / "model.json"), "--new-dir", str(new_dir),
    ])
    assert code == 3
    assert "null in non-nullable attribute S.C (S.csv line 3)" in capsys.readouterr().err


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


def test_verify_decodes_the_start_relation_once_per_batch(strict_ws, monkeypatch):
    """Each new fact's twin is the first existing fact, in id order, with
    its non-key values; the relation is decoded once for the whole batch."""
    new_dir = strict_ws / "new_batch"
    new_dir.mkdir(exist_ok=True)
    (new_dir / "item.csv").write_text("iid,g\nc1,ga\nc2,gb\nc3,ga\n")
    calls = []
    relation_facts = Database.relation_facts

    def spy(self, relation):
        calls.append(relation)
        return relation_facts(self, relation)

    monkeypatch.setattr(Database, "relation_facts", spy)
    code, printed = _run([
        "--out-dir", str(strict_ws / "out_batch"), "extend", "--config", str(strict_ws / "config.json"),
        "--model", str(strict_ws / "hand_model.json"), "--new-dir", str(new_dir),
        "--verify", "--exact", "--exhaustive",
    ])
    assert code == 0
    assert calls == ["item"]
    # grp holds facts 0-2, then items alternate a0 (3, g=ga), b0 (4, g=gb), ...
    twins = [int(line.split(" vs twin ")[1].split(":")[0]) for line in printed.splitlines() if " vs twin " in line]
    assert twins == [3, 4, 3]
    assert printed.count("(ok)") == 3


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
    manifest = json.loads((strict_ws / "out_fail" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["exit_code"] == 4
    assert "clone residual check failed" in manifest["error"]


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


@pytest.mark.parametrize(
    "fractions, entry",
    [("abc", "'abc'"), ("1.5", "'1.5'"), ("0.1,,0.3", "''")],
)
def test_experiment_rejects_a_bad_deletion_fraction_before_training(ws, fractions, entry, capsys):
    """Each bad ``--dynamic`` entry exits 2 with a message naming it, and
    the grid never runs: no report is written."""
    out = ws["root"] / f"exp_bad_{fractions}"
    code, _ = _run([
        "--out-dir", str(out), "experiment", "--config", str(ws["config"]),
        "--dynamic", fractions,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"deletion fraction {entry}" in err
    assert not (out / "report.json").exists()


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


# -- fault injection into the files the CLI reads ------------------------------------------


def _set(path, value):
    """A fault that sets the field at ``path`` (keys and indices) to ``value``."""
    def fault(doc):
        *head, last = path
        node = doc
        for step in head:
            node = node[step]
        node[last] = value(node[last]) if callable(value) else value
        return doc
    return fault


def _drop(name):
    def fault(doc):
        del doc[name]
        return doc
    return fault


# name: (fault applied to the parsed file, a fragment of the message)
MODEL_FAULTS = {
    "not an object": (lambda doc: [doc], "not a JSON object"),
    "missing phi": (_drop("phi"), "field phi "),
    "missing k": (_drop("k"), "field k "),
    "k not an integer": (_set(["k"], "4"), "field k "),
    "k disagrees with the vectors": (_set(["k"], 3), "field psi "),
    "short phi row": (_set(["phi", 0, "vec"], lambda v: v[:3]), "field phi.vec"),
    "phi row of strings": (_set(["phi", 0, "vec"], lambda v: [str(x) for x in v]), "field phi.vec"),
    "phi row not an object": (_set(["phi", 0], [1, 2]), "field phi "),
    "infinite phi row": (_set(["phi", 0, "vec"], lambda v: [math.inf] + v[1:]), "non-finite"),
    "repeated phi key": (lambda doc: _set(["phi", 1, "key"], doc["phi"][0]["key"])(doc), "repeats a key"),
    "unknown phi key": (_set(["phi", 0, "key"], ["no-such-item"]), "unknown 'item' key"),
    "psi one matrix short": (_set(["psi"], lambda m: m[:-1]), "field psi "),
    "nan psi matrix": (_set(["psi", 0], lambda m: [[math.nan] * len(row) for row in m]), "non-finite"),
    "ragged psi matrix": (_set(["psi", 0, 0], lambda row: row[:-1]), "field psi "),
    "active out of range": (_set(["active"], [99]), "field active"),
    "active negative": (_set(["active"], [-1]), "field active"),
    "active repeated": (_set(["active"], [0, 0]), "field active"),
    "active not integers": (_set(["active"], [0.5]), "field active"),
    "schemes not a list": (_set(["schemes"], {}), "field schemes "),
    "scheme without steps": (_set(["schemes", 0], {"start": "item", "target": "x"}), "field schemes[0].steps"),
    "bad step direction": (_set(["schemes", -1, "steps", 0, "direction"], "sideways"), "unknown step direction"),
    "unknown start relation": (_set(["start_relation"], "nowhere"), "field start_relation"),
}

REPORT_FAULTS = {
    "not an object": (lambda doc: [doc], "not a JSON object"),
    "missing cells": (_drop("cells"), "field cells "),
    "missing ensembles": (_drop("ensembles"), "field ensembles "),
    "cells not a list": (_set(["cells"], {"a": 1}), "field cells "),
    "cell without points": (_set(["cells", 0], {"strategy": "x", "ratio": 1.0, "seed": 0}), "field cells[0].points"),
    "point not a pair": (_set(["cells", 0, "points", 0], [1.0]), "field cells[0].points"),
    "ratio a string": (_set(["ensembles", 0, "ratio"], "half"), "field ensembles[0].ratio"),
}

SELECTION_FAULTS = {
    "not an object": (lambda doc: [doc], "field kept"),
    "missing kept": (_drop("kept"), "field kept"),
    "kept not a list": (_set(["kept"], "item"), "field kept"),
    "kept holds a number": (_set(["kept"], [3]), "field kept"),
}

TRUNCATIONS = [0, 1, 0.25, 0.5, -1]  # byte offsets; fractions of the file length

FAULT_CASES = (
    [(cmd, "missing file") for cmd in ("evaluate", "extend", "plot-data", "train")]
    + [(cmd, f"truncated at {at}") for cmd in ("evaluate", "extend", "plot-data", "train") for at in TRUNCATIONS]
    + [(cmd, name) for cmd in ("evaluate", "extend") for name in MODEL_FAULTS]
    + [("plot-data", name) for name in REPORT_FAULTS]
    + [("train", name) for name in SELECTION_FAULTS]
)


@pytest.fixture(scope="module")
def readable_files(ws, trained, experiment_out):
    score_out = ws["root"] / "score_out"
    selection = score_out / "selection_length_0.5.json"
    if not selection.exists():
        assert _run(["--out-dir", str(score_out), "score", "--config", str(ws["config"]), "--strategy", "length"])[0] == 0
    return {"model": trained / "model.json", "report": experiment_out[0] / "report.json", "selection": selection}


@pytest.mark.parametrize("command, fault", FAULT_CASES)
def test_bad_input_files_exit_with_a_code_and_a_message(ws, readable_files, tmp_path, capsys, command, fault):
    """A missing file exits 2; a truncated file or bad content exits 3.
    Either way the message names the file (and the field), and nothing
    raises out of main."""
    kind = {"evaluate": "model", "extend": "model", "plot-data": "report", "train": "selection"}[command]
    source = readable_files[kind]
    bad = tmp_path / f"faulty_{kind}.json"
    if fault == "missing file":
        message = "not found"
    elif fault.startswith("truncated at "):
        data = source.read_bytes()
        at = float(fault.split()[-1])
        cut = int(at * len(data)) if 0 < at < 1 else int(at) % len(data)
        bad.write_bytes(data[:cut])
        message = "not valid JSON"
    else:
        faults = {"model": MODEL_FAULTS, "report": REPORT_FAULTS, "selection": SELECTION_FAULTS}[kind]
        apply, message = faults[fault]
        bad.write_text(json.dumps(apply(json.loads(source.read_text()))))
    argv = {
        "evaluate": ["evaluate", "--config", str(ws["config"]), "--model", str(bad)],
        "extend": ["--out-dir", str(tmp_path / "out"), "extend", "--config", str(ws["config"]),
                   "--model", str(bad), "--new-dir", str(tmp_path)],
        "plot-data": ["plot-data", "--report", str(bad), "--out", str(tmp_path / "plot.csv")],
        "train": ["--out-dir", str(tmp_path / "out"), "train", "--config", str(ws["config"]),
                  "--selection", str(bad)],
    }[command]
    code, _ = _run(argv)
    err = capsys.readouterr().err
    assert code == (2 if fault == "missing file" else 3)
    assert bad.name in err and message in err


# -- output paths that cannot be written -----------------------------------------------

# fault: the output directory is a regular file, the parent of --model-out or
# --out is missing, or the output path is an existing directory
WRITE_FAULT_CASES = (
    [(cmd, "out-dir is a file") for cmd in ("score", "train", "extend", "experiment", "plot-data")]
    + [(cmd, "parent missing") for cmd in ("train", "extend", "plot-data")]
    + [(cmd, "target is a directory") for cmd in ("score", "train", "extend", "experiment", "plot-data")]
)


@pytest.mark.parametrize("command, fault", WRITE_FAULT_CASES)
def test_unwritable_output_exits_2_naming_the_path(ws, readable_files, tmp_path, capsys, monkeypatch, command, fault):
    """An output that cannot be written exits 2 with a message naming it,
    leaves no temporary file and no partial target, and a manifest already
    opened records the failure.  The paths are checked before any data is
    loaded, any model trained or any grid run."""

    def work_started(*args, **kwargs):
        pytest.fail("the command started its work before checking its output paths")

    for name in ("load_task", "train", "online_elimination_train", "run_experiment", "compute_scores"):
        monkeypatch.setattr(cli, name, work_started)
    out = tmp_path / "out"
    (tmp_path / "new").mkdir()
    argv = {
        "score": ["score", "--config", str(ws["config"]), "--strategy", "length"],
        "train": ["train", "--config", str(ws["config"])],
        "extend": ["extend", "--config", str(ws["config"]), "--model", str(readable_files["model"]),
                   "--new-dir", str(tmp_path / "new")],
        "experiment": ["experiment", "--config", str(ws["config"])],
        "plot-data": ["plot-data", "--report", str(readable_files["report"])],
    }[command]
    default_target = {"score": "scores_length.csv", "train": "model.json", "extend": "model_extended.json",
                      "experiment": "report.json", "plot-data": None}[command]
    if fault == "out-dir is a file":
        (tmp_path / "file").write_text("x")
        target = tmp_path / "file"
        if command == "plot-data":
            argv += ["--out", str(target / "plotdata.csv")]
        else:
            out = target
    elif fault == "parent missing":
        target = tmp_path / "missing" / "output"
        argv += ["--out" if command == "plot-data" else "--model-out", str(target)]
    else:
        target = tmp_path / "taken" if command == "plot-data" else out / default_target
        target.mkdir(parents=True)
        if command == "plot-data":
            argv += ["--out", str(target)]
    code, _ = _run(["--out-dir", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert str(target) in err and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []
    if fault == "out-dir is a file":
        assert target.read_text() == "x"
    elif fault == "parent missing":
        assert not target.parent.exists()
    else:
        assert target.is_dir() and not any(target.iterdir())
    if command != "plot-data" and fault != "out-dir is a file":
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] == 2
        assert str(target) in manifest["error"]


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


@pytest.mark.parametrize("fault", ["missing", "directory", "not UTF-8", "truncated JSON"])
@pytest.mark.parametrize("option, code", [("--config", 2), ("--schema", 3)])
def test_unreadable_config_or_schema_exits_with_its_code(tmp_path, capsys, option, code, fault):
    """A config that cannot be read exits 2 and a schema exits 3, with a
    message naming the file; nothing raises out of main."""
    bad = tmp_path / "input.json"
    if fault == "directory":
        bad.mkdir()
    elif fault == "not UTF-8":
        bad.write_bytes(b'{"schema": "\xff"}')
    elif fault == "truncated JSON":
        bad.write_text('{"relations": [')
    argv = {
        "--config": ["--out-dir", str(tmp_path / "out"), "train", "--config", str(bad)],
        "--schema": ["schemes", "--schema", str(bad), "--start", "item", "--max-length", "1"],
    }[option]
    assert _run(argv)[0] == code
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3", "malformed schema descriptor"),
        ('{"relations": [{"name": "R", "attributes": [{"name": "a", "kind": "categorical"}], "key": []}]}',
         "declares an empty key"),
    ],
)
def test_bad_schema_content_exits_3_with_a_message_that_starts_with_its_path(ws, tmp_path, capsys, text, message):
    """Errors from the schema's content name the file, as read errors do;
    a command that opened its manifest records the failure there."""
    schema = tmp_path / "s.json"
    schema.write_text(text)
    assert _run(["schemes", "--schema", str(schema), "--start", "item", "--max-length", "1"])[0] == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {schema}: ") and message in err
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(schema), data_dir=str(ws["root"] / "data"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["--out-dir", str(out), "train", "--config", str(tmp_path / "config.json")])[0] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["exit_code"] == 3
    assert manifest["error"].startswith(f"{schema}: ") and "finished_at" in manifest and "peak_rss_mb" in manifest


def test_a_manifest_that_cannot_be_finalised_keeps_the_runs_error(ws, tmp_path, capsys, monkeypatch):
    def write_json(doc, path, indent=2):
        if doc.get("status") == "failed":
            raise UsageError(f"cannot write {path}: No space left on device")
        files.write_json(doc, path, indent)

    monkeypatch.setattr(cli, "write_json", write_json)
    (tmp_path / "s.json").write_text("3")
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(tmp_path / "s.json"), data_dir=str(ws["root"] / "data"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["--out-dir", str(out), "train", "--config", str(tmp_path / "config.json")])[0] == 3
    err = capsys.readouterr().err
    assert "malformed schema descriptor" in err and "No space left" not in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


@pytest.mark.parametrize("text", ["[]", "3"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "config.json"
    bad.write_text(text)
    code, _ = _run(["--out-dir", str(tmp_path), "train", "--config", str(bad)])
    assert code == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_out_of_range_config_exits_2_before_training(ws, tmp_path, capsys):
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"),
                  strategies=["online"], per_epoch_removals=0)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "experiment", "--config", str(bad)])
    assert code == 2
    assert "per_epoch_removals must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "over, message",
    [
        ({"pair_buget": 50}, "unknown config key 'pair_buget'"),
        ({"task": {"relation": "item", "atribute": "cls"}}, "unknown task key 'atribute'"),
    ],
)
def test_misspelt_config_key_exits_2_naming_the_key(ws, tmp_path, capsys, over, message):
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"), **over)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "experiment", "--config", str(bad)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "over, field",
    [
        ({"folds": 2.7}, "folds"),
        ({"pair_budget": 1.5}, "pair_budget"),
        ({"seeds": [0, 0.5]}, "seeds"),
        ({"trainer": {"epochs": 1.5}}, "trainer.epochs"),
        ({"facts_per_scheme": float("inf")}, "facts_per_scheme"),
        ({"workers": True}, "workers"),
    ],
)
def test_fractional_count_exits_2_naming_the_field(ws, tmp_path, capsys, over, field):
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"), **over)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "experiment", "--config", str(bad)])
    assert code == 2
    assert f"{field} must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_integral_float_counts_are_accepted(ws, tmp_path, capsys):
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"), folds=2.0)
    good = tmp_path / "config.json"
    good.write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "score", "--config", str(good), "--strategy", "length"])
    assert code == 0


def test_workers_flag_is_validated(ws, tmp_path, capsys):
    code, _ = _run([
        "--workers", "0", "--out-dir", str(tmp_path / "out"), "experiment",
        "--config", str(ws["config"]),
    ])
    assert code == 2
    assert "workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "over, message",
    [
        ({"sampling_epochs": 0}, "sampling_epochs must be at least 1"),
        ({"sampling_epochs": -2}, "sampling_epochs must be at least 1"),
        ({"trainer": {"retry_cap": 0}}, "retry_cap must be at least 1"),
        ({"trainer": {"retry_cap": -1}}, "retry_cap must be at least 1"),
    ],
)
def test_count_below_one_exits_2_before_training(ws, tmp_path, capsys, over, message):
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"),
                  strategies=["sampling"], **over)
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    code, _ = _run(["--out-dir", str(tmp_path / "out"), "experiment", "--config", str(bad)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


# name: (fields set in the config, a fragment naming the field)
MALFORMED_CONFIGS = {
    "seeds a string": ({"seeds": "12"}, "field seeds "),
    "trainer a list": ({"trainer": []}, "field trainer "),
    "learning rate a boolean": ({"trainer": {"learning_rate": True}}, "field trainer.learning_rate "),
    "ratio a boolean": ({"ratios": [True]}, "field ratios "),
    "strategies a string": ({"strategies": "kvar"}, "field strategies "),
    "misspelt kernel key": (
        {"kernels": [{"relation": "obs0", "attribute": "oval", "kind": "categorical", "sgima": 1.0}]},
        "unknown kernels[0] key 'sgima'",
    ),
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_an_ill_typed_or_misspelt_config_field_exits_2_naming_the_file_and_the_field(ws, tmp_path, capsys, name):
    """Nothing is coerced or ignored: the run fails before its work, and the
    manifest records the failure with no root seed."""
    over, fragment = MALFORMED_CONFIGS[name]
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(ws["root"] / "schema.json"), data_dir=str(ws["root"] / "data"), **over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["--out-dir", str(out), "score", "--config", str(path), "--strategy", "length"])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed config: ") and fragment in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"], manifest["root_seed"]) == ("failed", 2, None)
    assert manifest["error"] == err.removeprefix("error: ").rstrip("\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def _relation_named_5(doc):
    doc["relations"].insert(0, {"name": 5, "attributes": [{"name": "a", "kind": "categorical"}], "key": ["a"]})


# name: (change to the schema document, a fragment naming the field)
MALFORMED_SCHEMAS = {
    "nullable a string": (lambda doc: doc["relations"][0]["attributes"][0].update(nullable="false"),
                          "field relations[0].attributes[0].nullable "),
    "misspelt nullable": (lambda doc: doc["relations"][0]["attributes"][0].update(nulable=False),
                          "unknown relations[0].attributes[0] key 'nulable'"),
    "misspelt foreign_keys": (lambda doc: doc.update(foreign_key=doc.pop("foreign_keys")),
                              "unknown schema key 'foreign_key'"),
    "relation named 5": (_relation_named_5, "field relations[0].name "),
    "foreign key over a number": (lambda doc: doc["foreign_keys"][0].update(src_attrs=[7]),
                                  "field foreign_keys[0].src_attrs "),
}


@pytest.mark.parametrize("name", MALFORMED_SCHEMAS)
def test_an_ill_typed_or_misspelt_schema_field_exits_3_naming_the_file_and_the_field(ws, tmp_path, capsys, name):
    change, fragment = MALFORMED_SCHEMAS[name]
    doc = json.loads((ws["root"] / "schema.json").read_text())
    change(doc)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    assert _run(["schemes", "--schema", str(schema), "--start", "item", "--max-length", "1"])[0] == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {schema}: malformed schema descriptor: ") and fragment in err
    config = json.loads(ws["config"].read_text())
    config.update(schema=str(schema), data_dir=str(ws["root"] / "data"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["--out-dir", str(out), "score", "--config", str(tmp_path / "config.json"), "--strategy", "length"])[0] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"], manifest["root_seed"]) == ("failed", 3, 0)
    assert manifest["error"].startswith(f"{schema}: ") and fragment in manifest["error"]


# name: (kernel override on the toy database, whose S.C is categorical, S.D numeric and R.B the task; message)
KERNEL_OVERRIDE_FAULTS = {
    "no such attribute": ({"relation": "S", "attribute": "E", "kind": "categorical"},
                          "kernel override S.E names no attribute of the database"),
    "the stripped task attribute": ({"relation": "R", "attribute": "B", "kind": "categorical"},
                                    "kernel override R.B names no attribute of the database"),
    "unknown kind": ({"relation": "S", "attribute": "C", "kind": "gaussian"},
                     "kernel override S.C: unknown kind 'gaussian'; expected one of: categorical, numeric, text"),
    "numeric on categorical": ({"relation": "S", "attribute": "C", "kind": "numeric", "sigma": 1.0},
                               "kernel override S.C is numeric but the attribute is categorical"),
    "categorical on numeric": ({"relation": "S", "attribute": "D", "kind": "categorical"},
                               "kernel override S.D is categorical but the attribute is numeric"),
}


@pytest.mark.parametrize("name", KERNEL_OVERRIDE_FAULTS)
def test_a_kernel_override_that_fits_no_attribute_exits_2_naming_it(toy_model, tmp_path, capsys, name):
    override, message = KERNEL_OVERRIDE_FAULTS[name]
    config = json.loads((toy_model / "config.json").read_text())
    config.update(schema=str(toy_model / "schema.json"), data_dir=str(toy_model / "data"), kernels=[override])
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["--out-dir", str(out), "train", "--config", str(tmp_path / "config.json")])[0] == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"], manifest["error"]) == ("failed", 2, message)


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
