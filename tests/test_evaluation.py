"""Label stripping, cross-validated scoring, timing curves, and the
experiment grid, with hand-checked threshold arithmetic."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import walkembed.evaluation as evaluation
from walkembed.errors import UsageError
from walkembed.evaluation import (
    ExperimentConfig,
    TimingCurve,
    cross_validate,
    dynamic_protocol,
    ensemble_accuracy,
    ensemble_points,
    make_folds,
    run_experiment,
    strip_attribute,
    time_to_threshold,
    train_classifier,
    accuracy_score,
    predict,
    write_report,
)
from walkembed.relational import save_schema, write_database_csv
from walkembed.schemes import enumerate_targeted_schemes
from walkembed.synth import planted_database
from walkembed.trainer import TrainConfig


# -- stripping the prediction column -----------------------------------------------


def test_strip_attribute_removes_column_and_collects_labels():
    setup = planted_database(n_items=12, n_obs=2, with_noise=False, seed=0)
    stripped, task = strip_attribute(setup.db, "item", "cls")
    assert "cls" not in stripped.schema.relation("item").attr_names
    assert stripped.n_facts == setup.db.n_facts
    assert len(task.labels) == 12
    assert set(task.labels.values()) == {"c0", "c1"}
    # fact ids are stable: unrelated relations keep their rows verbatim
    for f in setup.db.relation_fact_ids("obs0"):
        assert stripped.fact(f).values == setup.db.fact(f).values


def test_strip_attribute_skips_null_labels(toy_db):
    stripped, task = strip_attribute(toy_db, "R", "B")
    assert task.labels == {0: "b1"}  # the null-labeled fact is absent
    assert stripped.n_facts == toy_db.n_facts


def test_strip_attribute_rejects_bad_targets():
    setup = planted_database(n_items=6, n_obs=1, with_noise=False, seed=0)
    with pytest.raises(UsageError):
        strip_attribute(setup.db, "item", "nope")
    with pytest.raises(UsageError):
        strip_attribute(setup.db, "item", "iid")  # key attribute
    with pytest.raises(UsageError):
        strip_attribute(setup.db, "obs0", "ref")  # foreign-key source


# -- classifier --------------------------------------------------------------------


def _blobs(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(n_per, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(n_per, 2))
    X = np.vstack([a, b])
    labels = ["a"] * n_per + ["b"] * n_per
    return X, labels


def test_classifier_separates_blobs():
    X, labels = _blobs()
    clf = train_classifier(X, labels)
    assert predict(clf, X) == labels
    assert accuracy_score(clf, X, labels) == 1.0


def test_classifier_is_deterministic():
    X, labels = _blobs()
    a = train_classifier(X, labels)
    b = train_classifier(X, labels)
    assert np.array_equal(a.weights, b.weights)


def test_classifier_rejects_degenerate_inputs():
    X, _ = _blobs(5)
    with pytest.raises(UsageError):
        train_classifier(X, ["a"] * len(X))  # one class
    with pytest.raises(UsageError):
        train_classifier(X, ["a", "b"])  # misaligned


# -- folds --------------------------------------------------------------------------


def test_make_folds_is_stratified_and_fixed():
    labels = ["a"] * 10 + ["b"] * 10
    assign = make_folds(labels, 5, split_seed=3)
    assert np.array_equal(assign, make_folds(labels, 5, split_seed=3))
    for fold in range(5):
        members = [labels[i] for i in range(20) if assign[i] == fold]
        assert members.count("a") == 2 and members.count("b") == 2


def test_make_folds_falls_back_when_a_class_is_tiny():
    labels = ["a"] * 9 + ["b"]  # class b is smaller than the fold count
    with pytest.warns(UserWarning, match="unstratified"):
        assign = make_folds(labels, 3, split_seed=0)
    counts = np.bincount(assign, minlength=3)
    assert counts.sum() == 10
    assert counts.max() - counts.min() <= 1


def test_make_folds_rejects_bad_inputs():
    with pytest.raises(UsageError):
        make_folds(["a", "b"], 1, 0)
    with pytest.raises(UsageError):
        make_folds(["a", "b"], 3, 0)


def test_cross_validate_separable_data():
    X, labels = _blobs(15)
    assert cross_validate(X, labels, folds=3) == 1.0


# -- timing curves --------------------------------------------------------------------


def test_accuracy_at_is_a_step_function():
    curve = TimingCurve("s", 1.0, 0, points=[(1.0, 0.5), (2.0, 0.8)])
    assert curve.accuracy_at(0.5) is None
    assert curve.accuracy_at(1.0) == 0.5
    assert curve.accuracy_at(1.5) == 0.5
    assert curve.accuracy_at(2.0) == 0.8
    assert curve.accuracy_at(99.0) == 0.8


def test_ensemble_accuracy_undefined_until_all_runs_report():
    early = TimingCurve("s", 1.0, 0, points=[(1.0, 0.4), (2.0, 0.6)])
    late = TimingCurve("s", 1.0, 1, points=[(1.5, 0.8)])
    assert ensemble_accuracy([early, late], 1.0) is None
    assert ensemble_accuracy([early, late], 1.5) == pytest.approx(0.6)
    assert ensemble_accuracy([early, late], 2.0) == pytest.approx(0.7)
    with pytest.raises(UsageError):
        ensemble_accuracy([], 1.0)


def test_ensemble_points_sample_every_epoch_boundary():
    early = TimingCurve("s", 1.0, 0, points=[(1.0, 0.4), (2.0, 0.6)])
    late = TimingCurve("s", 1.0, 1, points=[(1.5, 0.8)])
    pts = ensemble_points([early, late])
    assert pts == [(1.5, pytest.approx(0.6)), (2.0, pytest.approx(0.7))]


def test_time_to_threshold_first_crossing():
    pts = [(1.0, 0.3), (2.0, 0.7), (3.0, 0.6), (4.0, 0.9)]
    assert time_to_threshold(pts, 0.65) == 2.0
    assert time_to_threshold(pts, 0.3) == 1.0
    assert time_to_threshold(pts, 0.95) is None


# -- configuration -----------------------------------------------------------------


def _config_kwargs(**over):
    base = dict(
        schema_path="s.json",
        data_dir="d",
        task_relation="item",
        task_attribute="cls",
    )
    base.update(over)
    return base


def test_experiment_config_validation():
    with pytest.raises(UsageError):
        ExperimentConfig(**_config_kwargs(strategies=("nope",)))
    with pytest.raises(UsageError):
        ExperimentConfig(**_config_kwargs(ratios=(0.0,)))
    with pytest.raises(UsageError):
        ExperimentConfig(**_config_kwargs(ratios=(1.2,)))
    with pytest.raises(UsageError):
        ExperimentConfig(**_config_kwargs(seeds=()))


def test_experiment_config_from_dict_resolves_paths():
    doc = {
        "schema": "schema.json",
        "data_dir": "data",
        "task": {"relation": "item", "attribute": "cls"},
        "max_length": 3,
        "trainer": {"k": 4, "epochs": 2},
        "strategies": ["length", "mi"],
        "ratios": [0.25, 0.75],
        "seeds": [1, 2],
        "kernels": [
            {"relation": "obs0", "attribute": "oval", "kind": "numeric", "sigma": 2.0}
        ],
    }
    cfg = ExperimentConfig.from_dict(doc, base_dir="/tmp/exp")
    assert cfg.schema_path == str(Path("/tmp/exp") / "schema.json")
    assert cfg.data_dir == str(Path("/tmp/exp") / "data")
    assert cfg.trainer.k == 4 and cfg.trainer.epochs == 2
    assert cfg.strategies == ("length", "mi")
    assert cfg.ratios == (0.25, 0.75)
    assert cfg.seeds == (1, 2)
    assert cfg.kernel_overrides[0].sigma == 2.0


# -- the experiment grid ----------------------------------------------------------


def _materialise(tmp_path, n_items=12, n_obs=2, seed=0):
    setup = planted_database(n_items=n_items, n_obs=n_obs, with_noise=False, seed=seed)
    schema_path = tmp_path / "schema.json"
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_schema(setup.schema, schema_path)
    write_database_csv(setup.db, data_dir)
    return setup, schema_path, data_dir


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    setup, schema_path, data_dir = _materialise(tmp_path)
    cfg = ExperimentConfig(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0),
        strategies=("length",),
        ratios=(0.5,),
        seeds=(0, 1),
        folds=3,
    )
    return cfg, run_experiment(cfg), setup


def test_experiment_grid_shape(small_report):
    cfg, report, setup = small_report
    n = len(enumerate_targeted_schemes(setup.db.schema, "item", 1)) - 1  # label gone
    assert report.scheme_count == n
    assert report.kept_counts[("baseline", 1.0)] == n
    assert report.kept_counts[("length", 0.5)] == math.ceil(0.5 * n)
    # one baseline cell plus one strategy cell, per seed
    assert len(report.cells) == 4
    assert set(report.ensembles) == {("baseline", 1.0), ("length", 0.5)}
    assert set(report.t_star) == set(report.ensembles)
    assert report.failures == {}
    assert "length" in report.scoring_seconds


def test_alpha_star_is_exactly_95_percent_of_baseline(small_report):
    _, report, _ = small_report
    assert 0.0 <= report.baseline_accuracy <= 1.0
    assert report.alpha_star == 0.95 * report.baseline_accuracy


def test_curves_have_one_point_per_epoch(small_report):
    cfg, report, _ = small_report
    for cell in report.cells:
        assert len(cell.curve.points) == cfg.trainer.epochs
        times = [t for t, _ in cell.curve.points]
        assert times == sorted(times)
        assert all(0.0 <= a <= 1.0 for _, a in cell.curve.points)


def test_best_time_tracks_the_fastest_ratio(small_report):
    _, report, _ = small_report
    t = report.t_star[("length", 0.5)]
    if t is None:
        assert report.best_time["length"] is None
    else:
        assert report.best_time["length"] == t
        assert report.best_ratio["length"] == 0.5


def test_write_report_emits_json_and_curves(small_report, tmp_path):
    _, report, _ = small_report
    paths = write_report(report, tmp_path / "out")
    assert all(p.exists() for p in paths)
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["format_version"] == 1
    assert doc["baseline_accuracy"] == report.baseline_accuracy
    assert {c["strategy"] for c in doc["cells"]} == {"baseline", "length"}
    assert [c["cv_seconds"] for c in doc["cells"]] == [c.cv_seconds for c in report.cells]
    assert all(c["cv_seconds"] > 0.0 for c in doc["cells"])
    curve = tmp_path / "out" / "curve_baseline_1.csv"
    assert curve.exists()
    assert curve.read_text().splitlines()[0] == "seconds,accuracy"


def test_failed_scoring_is_recorded_not_fatal(tmp_path, monkeypatch):
    setup, schema_path, data_dir = _materialise(tmp_path)

    def boom(strategy, *args, **kwargs):
        raise UsageError("scoring exploded")

    monkeypatch.setattr(evaluation, "compute_scores", boom)
    cfg = ExperimentConfig(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0),
        strategies=("mi",),
        ratios=(0.5,),
        seeds=(0,),
        folds=3,
    )
    report = run_experiment(cfg)
    assert report.failures == {"score:mi": "scoring exploded"}
    assert set(report.ensembles) == {("baseline", 1.0)}  # the grid still ran


def test_online_strategy_keeps_ceil_counts(tmp_path):
    setup, schema_path, data_dir = _materialise(tmp_path)
    n = len(enumerate_targeted_schemes(setup.db.schema, "item", 1)) - 1
    cfg = ExperimentConfig(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0),
        strategies=("online",),
        ratios=(0.5,),
        seeds=(0,),
        folds=3,
        per_epoch_removals=1,
    )
    report = run_experiment(cfg)
    assert report.kept_counts[("online", 0.5)] == math.ceil(0.5 * n)
    assert ("online", 0.5) in report.ensembles


def test_parallel_grid_matches_serial_and_records_failures(tmp_path):
    """workers=2 gives the serial accuracies, and a failing cell (online
    elimination rejects per_epoch_removals=0) is recorded under the same
    key and message while the rest of the grid survives."""
    setup, schema_path, data_dir = _materialise(tmp_path, n_items=10)
    cfg = ExperimentConfig(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=4, n_samples=2, epochs=2, learning_rate=0.1, seed=0),
        strategies=("length", "online"),
        ratios=(0.5,),
        seeds=(0, 1),
        folds=3,
        per_epoch_removals=0,
    )
    serial = run_experiment(cfg)
    parallel = run_experiment(replace(cfg, workers=2))
    expected = {f"train:online:0.5:{seed}": "per_epoch_removals must be at least 1" for seed in (0, 1)}
    assert serial.failures == expected
    assert parallel.failures == expected
    assert parallel.baseline_accuracy == serial.baseline_accuracy
    assert [(c.strategy, c.ratio, c.seed) for c in parallel.cells] == [
        (c.strategy, c.ratio, c.seed) for c in serial.cells
    ]
    for p, s in zip(parallel.cells, serial.cells):
        assert [a for _, a in p.curve.points] == [a for _, a in s.curve.points]
        assert p.cv_seconds > 0.0
    assert set(parallel.ensembles) == {("baseline", 1.0), ("length", 0.5)}


# -- dynamic protocol -----------------------------------------------------------------


def test_dynamic_protocol_reinserts_and_scores():
    setup = planted_database(n_items=12, n_obs=2, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0)
    pts = dynamic_protocol(
        setup.db, "item", "cls", 1, cfg, fractions=(0.3,), seed=0
    )
    assert len(pts) == 1
    assert pts[0].fraction_deleted == 0.3
    assert pts[0].n_inserted == 4  # round(0.3 * 12)
    assert 0.0 <= pts[0].accuracy <= 1.0
    again = dynamic_protocol(
        setup.db, "item", "cls", 1, cfg, fractions=(0.3,), seed=0
    )
    assert again == pts


def test_dynamic_protocol_rejects_degenerate_fractions():
    setup = planted_database(n_items=12, n_obs=1, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0)
    with pytest.raises(UsageError):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.0,))
    with pytest.raises(UsageError):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(1.0,))


def test_dynamic_protocol_single_class_remainder_is_an_error():
    setup = planted_database(n_items=6, n_obs=1, with_noise=False, seed=1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0)
    with pytest.raises(UsageError, match="single label class"):
        dynamic_protocol(
            setup.db, "item", "cls", 1, cfg, fractions=(0.6,), seed=1
        )
