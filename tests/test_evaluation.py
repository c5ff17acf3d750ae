"""Label stripping, cross-validated scoring, timing curves, and the
experiment grid, with hand-checked threshold arithmetic."""

import inspect
import json
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_optimal_classifier,
    back_refs,
    classifier_objective,
    classifier_problem,
    forward_ref,
    reference_cascade,
)

import walkembed.evaluation as evaluation
from walkembed.seeding import derive_rng
from walkembed.errors import NumericError, UsageError
from walkembed.kernels import KernelSpec, default_kernels
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
from walkembed.relational import (
    DatabaseSchema,
    Fact,
    RelationSchema,
    build_database,
    closure,
    insert_facts,
    save_schema,
    write_database_csv,
)
from walkembed.schemes import enumerate_targeted_schemes
from walkembed.selection import SchemeScore, online_elimination_train
from walkembed.synth import planted_database, random_database, random_schema
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


def _reference_strip_attribute(db, relation, attribute):
    """Stripping by a full rebuild of the remaining columns, as first written."""
    rel = db.schema.relation(relation)
    drop = rel.attr_index(attribute)
    new_rel = RelationSchema(
        relation, tuple(a for a in rel.attributes if a.name != attribute), rel.key
    )
    schema = DatabaseSchema(
        tuple(new_rel if r.name == relation else r for r in db.schema.relations),
        db.schema.foreign_keys,
    )
    rows = []
    labels = {}
    for fact in db.facts:
        if fact.relation == relation:
            label = fact.values[drop]
            if label is not None:
                labels[fact.fact_id] = label
            rows.append((relation, fact.values[:drop] + fact.values[drop + 1 :]))
        else:
            rows.append((fact.relation, fact.values))
    return build_database(schema, rows), labels


def _index_snapshot(db):
    """Every observable part of a database's ids, key maps and fk index."""
    return (
        db.facts,
        {r: db.relation_fact_ids(r) for r in db.schema.relation_names},
        [db.fact_by_key(db.fact(f).relation, db.key_of(f)) for f in range(db.n_facts)],
        [
            (forward_ref(db, pos, f), back_refs(db, pos, f))
            for pos in range(len(db.schema.foreign_keys))
            for f in range(db.n_facts)
        ],
    )


def _strippable(schema, pick):
    """One (relation, attribute) in no key and no foreign key, chosen by ``pick``."""
    fk_attrs = {(fk.src, a) for fk in schema.foreign_keys for a in fk.src_attrs}
    options = [
        (rel.name, a)
        for rel in schema.relations
        for a in rel.attr_names
        if a not in rel.key and (rel.name, a) not in fk_attrs
    ]
    return options[pick % len(options)] if options else None


@settings(max_examples=60, deadline=None)
@given(db_seed=st.integers(min_value=0, max_value=400), pick=st.integers(min_value=0, max_value=1000))
def test_strip_attribute_matches_rebuild(db_seed, pick):
    """The derived database equals a full rebuild of the stripped rows:
    facts, ids, key lookups, both directions of every foreign key, and the
    labels including their order.  Random schemas bring null labels,
    nullable and self-referencing foreign keys."""
    schema = random_schema(db_seed)
    target = _strippable(schema, pick)
    assume(target is not None)
    db = random_database(schema, db_seed)
    stripped, task = strip_attribute(db, *target)
    rebuilt, labels = _reference_strip_attribute(db, *target)
    assert stripped.schema == rebuilt.schema
    assert _index_snapshot(stripped) == _index_snapshot(rebuilt)
    assert list(task.labels.items()) == list(labels.items())


def test_insert_into_stripped_database_leaves_source_index_alone():
    setup = planted_database(n_items=8, n_obs=2, with_noise=False, seed=0)
    before = _index_snapshot(setup.db)
    stripped, _ = strip_attribute(setup.db, "item", "cls")
    item = stripped.fact(stripped.relation_fact_ids("item")[0])
    obs = stripped.fact(stripped.relation_fact_ids("obs0")[0])
    grown = insert_facts(
        stripped,
        [Fact("item", ("fresh",) + item.values[1:]), Fact("obs0", ("fresh-obs", item.values[0]) + obs.values[2:])],
    )
    assert back_refs(grown, 0, item.fact_id)[-1] == grown.n_facts - 1
    assert _index_snapshot(setup.db) == before
    assert _index_snapshot(stripped)[1:] == before[1:]


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


def _training_folds(X, labels, folds):
    """The training sets of ``cross_validate``'s split (seed 0)."""
    assign = make_folds(labels, folds, 0)
    return [(X[assign != f], [l for l, a in zip(labels, assign) if a != f]) for f in range(folds)]


def _hard_problems(case: str) -> list[tuple[np.ndarray, list]]:
    if case == "separable blobs":
        return [_blobs()]
    if case == "separable folds":
        return _training_folds(*_blobs(15), folds=3)
    if case == "one mislabelled point":
        X, labels = _blobs()
        labels[0] = "b"  # inside the other blob: nearly separable
        return [(X, labels)]
    if case == "constant column":
        X, labels = _blobs()
        return [(np.hstack([X, np.full((len(X), 1), 3.0)]), labels)]
    if case == "130 classes":
        rng = np.random.default_rng(130)
        labels = [f"c{c}" for c, size in enumerate(3 + rng.integers(0, 3, size=130)) for _ in range(size)]
        return [(rng.normal(size=(len(labels), 3)) * 4.0, labels)]
    # one far point: undamped Newton from zero diverges on these five points
    X = np.array([[0.4, -0.7], [-9.2, -3.3], [0.8, 0.2], [-0.6, -1.4], [-0.3, 0.2]])
    return [(X, ["a", "b", "a", "a", "b"])]


@pytest.mark.parametrize(
    "case",
    ["separable blobs", "separable folds", "one mislabelled point", "constant column", "130 classes", "far point"],
)
def test_newton_converges_on_hard_problems(monkeypatch, case):
    """Each problem reaches the gradient tolerance before the step cap, and
    no accepted Newton step raises the objective (the oracle's rounding
    aside).  ``_fit_stack`` takes the softmax of every accepted iterate, so
    recording those calls on a one-problem stack gives its iterates."""
    iterates = []
    real_probabilities = evaluation._probabilities

    def recording(W, Xt):
        iterates.append(W[0].T.copy())
        return real_probabilities(W, Xt)

    monkeypatch.setattr(evaluation, "_probabilities", recording)
    for X, labels in _hard_problems(case):
        iterates.clear()
        clf = train_classifier(X, labels)
        assert_optimal_classifier(clf, X, labels)
        assert np.array_equal(iterates[-1], clf.weights)
        assert len(iterates) <= evaluation._NEWTON_STEPS  # the start and fewer steps than the cap
        _, _, _, Xs, y = classifier_problem(X, labels)
        values = [classifier_objective(Xs, y, W)[0] for W in iterates]
        assert np.all(np.diff(values) <= 1e-14), values


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


@pytest.mark.parametrize(
    "field, bad, least",
    [
        ("per_epoch_removals", 0, 1),
        ("folds", 1, 2),
        ("workers", 0, 1),
        ("max_length", -1, 0),
        ("facts_per_scheme", 0, 1),
        ("pair_budget", 1, 2),
    ],
)
def test_experiment_config_rejects_out_of_range_counts(field, bad, least):
    with pytest.raises(UsageError, match=field):
        ExperimentConfig(**_config_kwargs(**{field: bad}))
    assert getattr(ExperimentConfig(**_config_kwargs(**{field: least})), field) == least


def test_experiment_config_default_pair_budget_is_valid():
    assert ExperimentConfig(**_config_kwargs(pair_budget=None)).pair_budget is None


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


def _config_doc(**over):
    doc = {"schema": "schema.json", "data_dir": "data", "task": {"relation": "item", "attribute": "cls"}}
    doc.update(over)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "over",
    [{"folds": "x"}, {"pair_budget": "many"}, {"trainer": {"bogus": 1}}, {"task": {}}, {"schema": None}],
)
def test_experiment_config_from_dict_rejects_malformed_fields(over):
    with pytest.raises(UsageError, match="malformed config"):
        ExperimentConfig.from_dict(_config_doc(**over))


def test_experiment_config_from_dict_leaves_absent_fields_to_the_dataclass():
    expected = ExperimentConfig(**_config_kwargs(schema_path=str(Path("b") / "schema.json"),
                                                 data_dir=str(Path("b") / "data")))
    assert ExperimentConfig.from_dict(_config_doc(), base_dir="b") == expected
    assert ExperimentConfig.from_dict({**_config_doc(), "pair_budget": None}, base_dir="b") == expected


@pytest.mark.parametrize(
    "over, message",
    [
        ({"pair_buget": 50}, "unknown config key 'pair_buget'; expected one of: data_dir,"),
        ({"bogus": 1, "sampling_epoch": 3}, "unknown config key 'bogus'"),
        ({"task": {"relation": "item", "atribute": "cls"}}, "unknown task key 'atribute'; expected one of: attribute, relation"),
    ],
)
def test_experiment_config_from_dict_rejects_unknown_keys(over, message):
    with pytest.raises(UsageError, match=message):
        ExperimentConfig.from_dict(_config_doc(**over))


def test_experiment_config_from_dict_ignores_walk_budget():
    """A config written when mutual information sampled walks still loads."""
    assert ExperimentConfig.from_dict(_config_doc(walk_budget=2000)) == ExperimentConfig.from_dict(_config_doc())


def test_experiment_config_from_dict_reads_pair_budget_as_a_count_or_null():
    """A whole-number float is a count; the string "5" is not read as one."""
    assert ExperimentConfig.from_dict(_config_doc(pair_budget=5.0)).pair_budget == 5
    assert ExperimentConfig.from_dict({**_config_doc(), "pair_budget": None}).pair_budget is None
    assert ExperimentConfig.from_dict(_config_doc()).pair_budget is None
    with pytest.raises(UsageError, match="field pair_budget is missing or not an integer or null"):
        ExperimentConfig.from_dict(_config_doc(pair_budget="5"))


# -- the experiment grid ----------------------------------------------------------


def _materialise(tmp_path, n_items=12, n_obs=2, seed=0, with_noise=False):
    setup = planted_database(n_items=n_items, n_obs=n_obs, with_noise=with_noise, seed=seed)
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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_the_benchmarks_experiment_grid_reaches_t_star(tmp_path, seed):
    """The shape of the benchmark's ``experiment`` workload: 80 planted items
    with noise, k 16, two samples, lr 0.15, 8 epochs, two seeds and 5 folds.
    kvar at ratio 0.5 reaches 95% of the baseline accuracy, and no cell
    fails; an unreached t* fails the benchmark run."""
    _, schema_path, data_dir = _materialise(tmp_path, n_items=80, seed=seed, with_noise=True)
    cfg = ExperimentConfig(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=16, n_samples=2, epochs=8, learning_rate=0.15, seed=seed),
        strategies=("kvar",),
        ratios=(0.5,),
        seeds=(seed, seed + 1),
        folds=5,
        split_seed=seed,
    )
    report = run_experiment(cfg)
    assert report.failures == {}
    assert len(report.cells) == 4
    assert report.t_star[("kvar", 0.5)] is not None


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


def test_parallel_grid_matches_serial_and_records_failures(tmp_path, monkeypatch):
    """workers=2 gives the serial accuracies, and a failing cell is recorded
    under the same key and message while the rest of the grid survives.

    The failure is raised inside the cell: the ``length`` scores gain a
    scheme that targets the stripped label, which has no kernel, so its
    training stops in the worker process, not in the scoring step."""
    setup, schema_path, data_dir = _materialise(tmp_path, n_items=10)
    real_scores = evaluation.compute_scores

    def scores_with_label_scheme(strategy, *args, **kwargs):
        scores = real_scores(strategy, *args, **kwargs)
        if strategy == "length":
            label_tws = replace(scores[0].tws, target_attr="cls")
            scores = [SchemeScore(label_tws, math.inf, "length")] + scores
        return scores

    monkeypatch.setattr(evaluation, "compute_scores", scores_with_label_scheme)
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
    )
    serial = run_experiment(cfg)
    parallel = run_experiment(replace(cfg, workers=2))
    expected = {f"train:length:0.5:{seed}": "no kernel configured for attribute item.cls" for seed in (0, 1)}
    assert serial.failures == expected
    assert parallel.failures == expected
    assert parallel.baseline_accuracy == serial.baseline_accuracy
    assert [(c.strategy, c.ratio, c.seed) for c in parallel.cells] == [
        (c.strategy, c.ratio, c.seed) for c in serial.cells
    ]
    for p, s in zip(parallel.cells, serial.cells):
        assert [a for _, a in p.curve.points] == [a for _, a in s.curve.points]
        assert p.cv_seconds > 0.0
    assert set(parallel.ensembles) == {("baseline", 1.0), ("online", 0.5)}


def _reference_run_cell(db, args):
    """The grid cell as first written: cross-validated in the callback of
    every epoch, one 2-D ``cross_validate`` call per epoch."""
    cfg = replace(args["trainer"], seed=args["seed"])
    curve = TimingCurve(args["strategy"], args["ratio"], args["seed"])
    clock = {"train": 0.0, "cv": 0.0}

    def cb(epoch, model, stats):
        clock["train"] += stats.wall_time
        t0 = time.perf_counter()
        X = np.stack([model.phi[f] for f in args["labeled_ids"]])
        acc = cross_validate(X, args["labels_list"], fold_assign=args["fold_assign"])
        clock["cv"] += time.perf_counter() - t0
        curve.points.append((clock["train"], acc))

    if args["online"]:
        online_elimination_train(
            db, args["start"], args["schemes"], cfg, args["ratio"],
            per_epoch_removals=args["per_epoch_removals"], kernels=args["kernels"], callbacks=[cb],
        )
        kept = max(1, math.ceil(args["ratio"] * len(args["schemes"])))
    else:
        evaluation.train(db, args["start"], args["schemes"], cfg, args["kernels"], callbacks=[cb])
        kept = len(args["schemes"])
    return evaluation.CellResult(args["strategy"], args["ratio"], args["seed"], curve, kept, clock["cv"])


def _with_label_scheme(strategy_name):
    """compute_scores, with a scheme targeting the stripped label put first
    in ``strategy_name``'s scores; training a cell that keeps it fails."""
    real_scores = evaluation.compute_scores

    def scores(strategy, *args, **kwargs):
        out = real_scores(strategy, *args, **kwargs)
        if strategy == strategy_name:
            label_tws = replace(out[0].tws, target_attr="cls")
            out = [SchemeScore(label_tws, math.inf, strategy)] + out
        return out

    return scores


def _assert_same_grid(got, want):
    """Equal cells (accuracy sequences, kept, point counts) and failures;
    times are not compared."""
    assert [(c.strategy, c.ratio, c.seed) for c in got.cells] == [(c.strategy, c.ratio, c.seed) for c in want.cells]
    for g, w in zip(got.cells, want.cells):
        assert [a for _, a in g.curve.points] == [a for _, a in w.curve.points]
        assert len(g.curve.points) == len(w.curve.points)
        assert g.kept == w.kept
    assert got.failures == want.failures
    assert got.kept_counts == want.kept_counts
    assert got.baseline_accuracy == want.baseline_accuracy


def _grid_config(schema_path, data_dir, **over):
    kwargs = dict(
        schema_path=str(schema_path),
        data_dir=str(data_dir),
        task_relation="item",
        task_attribute="cls",
        max_length=1,
        trainer=TrainConfig(k=4, n_samples=2, epochs=3, learning_rate=0.1, seed=0),
        strategies=("length", "random", "online"),
        ratios=(0.5, 1.0),
        seeds=(0, 1),
        folds=3,
    )
    kwargs.update(over)
    return ExperimentConfig(**kwargs)


def test_grid_matches_per_epoch_cross_validation(tmp_path, monkeypatch):
    """Cross-validating each cell once after training gives the accuracies,
    kept counts and failures of cross-validating after every epoch, on a
    grid with baseline, scored, online and failing cells."""
    _, schema_path, data_dir = _materialise(tmp_path, n_items=10)
    monkeypatch.setattr(evaluation, "compute_scores", _with_label_scheme("random"))
    cfg = _grid_config(schema_path, data_dir)
    got = run_experiment(cfg)
    monkeypatch.setattr(evaluation, "_run_cell", _reference_run_cell)
    want = run_experiment(cfg)
    _assert_same_grid(got, want)
    assert {c.strategy for c in got.cells} == {"baseline", "length", "online"}
    assert all(len(c.curve.points) == 3 for c in got.cells)
    assert set(got.failures) == {f"train:random:{r}:{s}" for r in (0.5, 1.0) for s in (0, 1)}


def test_single_class_training_fold_fails_cells_as_per_epoch_cv(tmp_path, monkeypatch):
    """A fold holding every member of one of two classes leaves a training
    set of one class: every cell fails with the message of per-epoch
    cross-validation, also where training would fail in a later epoch.
    With every baseline cell failed the grid raises, so the cell failures
    are recorded as they leave the cell."""
    _, schema_path, data_dir = _materialise(tmp_path, n_items=10)
    real_make_folds = evaluation.make_folds

    def one_class_fold(labels, folds, split_seed):
        assign = real_make_folds(labels, folds, split_seed)
        assign[[i for i, l in enumerate(labels) if l == labels[0]]] = 0
        return assign

    real_train = evaluation.train

    def train_failing_at_epoch_2(*args, callbacks, **kwargs):
        calls = []

        def boom(epoch, model, stats):
            calls.append(epoch)
            if len(calls) == 2:
                raise NumericError("diverged in epoch 2")

        return real_train(*args, callbacks=[*callbacks, boom], **kwargs)

    monkeypatch.setattr(evaluation, "make_folds", one_class_fold)
    monkeypatch.setattr(evaluation, "train", train_failing_at_epoch_2)
    cfg = _grid_config(schema_path, data_dir, strategies=("length", "online"), ratios=(0.5,))

    got_cells, want_cells = [], []
    for run_cell, out in ((evaluation._run_cell, got_cells), (_reference_run_cell, want_cells)):
        def recording(db, args, run_cell=run_cell, out=out):
            try:
                return run_cell(db, args)
            except Exception as exc:
                out.append((args["strategy"], args["ratio"], args["seed"], str(exc)))
                raise
        monkeypatch.setattr(evaluation, "_run_cell", recording)
        with pytest.raises(UsageError, match="no epochs"):
            run_experiment(cfg)  # every baseline cell failed
    assert got_cells == want_cells
    assert len(got_cells) == 6
    assert {msg for *_, msg in got_cells} == {"classifier needs at least two classes"}


def test_zero_epochs_leaves_the_baseline_without_points(tmp_path):
    _, schema_path, data_dir = _materialise(tmp_path, n_items=10)
    cfg = _grid_config(
        schema_path, data_dir, trainer=TrainConfig(k=4, n_samples=2, epochs=0, learning_rate=0.1, seed=0)
    )
    with pytest.raises(UsageError, match="baseline training produced no epochs"):
        run_experiment(cfg)


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


def test_dynamic_protocol_extends_with_the_trainers_retry_cap(monkeypatch):
    setup = planted_database(n_items=12, n_obs=2, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0, retry_cap=3)
    caps = []
    real_extend = evaluation.extend_embedding

    def spy(*args, retry_cap=20, **kwargs):
        caps.append(retry_cap)
        return real_extend(*args, retry_cap=retry_cap, **kwargs)

    monkeypatch.setattr(evaluation, "extend_embedding", spy)
    dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.3, 0.5), seed=0)
    assert caps == [3, 3]


def test_dynamic_protocol_trains_and_extends_under_the_configs_kernel_overrides(monkeypatch):
    """Both kernel maps of the protocol are the defaults with the config's
    overrides, as the grid's are."""
    setup = planted_database(n_items=12, n_obs=2, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0)
    override = KernelSpec("obs0", "oval", "text")
    config = ExperimentConfig(**_config_kwargs(kernel_overrides=(override,)))
    seen = []

    def spy(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, inspect.signature(fn).bind(*args, **kwargs).arguments["kernels"]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(evaluation, "train", spy(evaluation.train))
    monkeypatch.setattr(evaluation, "extend_embedding", spy(evaluation.extend_embedding))
    dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.3,), config=config, seed=0)
    assert [name for name, _ in seen] == ["train", "extend_embedding"]
    assert all(kernels[("obs0", "oval")] == override for _, kernels in seen)
    assert all(kernels[("obs1", "oval")].kind == "categorical" for _, kernels in seen)


def test_default_kernels_apply_overrides_and_reject_an_override_that_fits_no_attribute():
    db, _ = strip_attribute(planted_database(n_items=6, n_obs=1, with_noise=False, seed=0).db, "item", "cls")
    defaults = default_kernels(db)
    text = KernelSpec("obs0", "oval", "text")  # an equality kernel; categorical and text share it
    assert default_kernels(db, (text,)) == {**defaults, ("obs0", "oval"): text}
    assert default_kernels(db, ()) == defaults
    for spec, message in [
        (KernelSpec("item", "cls", "categorical"), "kernel override item.cls names no attribute"),
        (KernelSpec("obs0", "oval", "gaussian"), "kernel override obs0.oval: unknown kind 'gaussian'"),
        (KernelSpec("obs0", "oval", "numeric", 1.0), "kernel override obs0.oval is numeric but the attribute is categorical"),
    ]:
        with pytest.raises(UsageError, match=re.escape(message)):
            default_kernels(db, (text, spec))


def test_dynamic_protocol_rejects_degenerate_fractions():
    setup = planted_database(n_items=12, n_obs=1, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0)
    with pytest.raises(UsageError):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.0,))
    with pytest.raises(UsageError):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(1.0,))


@pytest.mark.parametrize("strategy", ["kvar", "mi", "sampling"])
def test_dynamic_protocol_strategy_without_config_is_a_usage_error(strategy):
    """Scoring reads budgets from the config; without one the protocol
    stops with a UsageError, also under ``python -O``."""
    setup = planted_database(n_items=12, n_obs=1, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0)
    with pytest.raises(UsageError, match=f"strategy '{strategy}' needs a config"):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.3,), strategy=strategy, ratio=0.5)


def test_dynamic_protocol_rejects_the_online_strategy(monkeypatch):
    """``online`` scores nothing ahead of training, so the protocol stops
    with the UsageError of ``compute_scores`` before it trains anything."""
    setup = planted_database(n_items=12, n_obs=1, with_noise=False, seed=0)
    cfg = TrainConfig(k=4, n_samples=3, epochs=1, learning_rate=0.1, seed=0)
    monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: pytest.fail("the protocol trained"))
    with pytest.raises(UsageError, match="strategy 'online' scores schemes during training, not ahead of it"):
        dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.3,), strategy="online", ratio=0.5,
                         config=ExperimentConfig(**_config_kwargs()), seed=0)


def test_dynamic_protocol_single_class_remainder_is_an_error():
    setup = planted_database(n_items=6, n_obs=1, with_noise=False, seed=1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=2, learning_rate=0.1, seed=0)
    with pytest.raises(UsageError, match="single label class"):
        dynamic_protocol(
            setup.db, "item", "cls", 1, cfg, fractions=(0.6,), seed=1
        )


def _cascade(db, chosen):
    """The removal cascade of ``dynamic_protocol``: ``chosen`` and every fact
    that transitively references it, as a mask."""
    mask = np.zeros(db.n_facts, dtype=bool)
    mask[chosen] = True
    return closure(db, mask, referencing=True, referenced=False)


def _reference_dynamic_protocol(raw_db, task_relation, task_attribute, max_length, trainer, fractions, seed):
    """``dynamic_protocol`` as first written, with the per-fact cascade,
    id map and rebuild; returns the points and each fraction's removed set."""
    db, task = evaluation.strip_attribute(raw_db, task_relation, task_attribute)
    labeled = [f for f in db.relation_fact_ids(task_relation) if f in task.labels]
    points, removed_sets = [], []
    for q in fractions:
        rng = derive_rng(seed, "dynamic", repr(q))
        n_remove = max(1, int(round(q * len(labeled))))
        if n_remove >= len(labeled) - 1:
            n_remove = len(labeled) - 2
        chosen = rng.choice(np.asarray(labeled, dtype=np.int64), size=n_remove, replace=False)
        removed = reference_cascade(db, chosen)
        removed_sets.append(removed)
        reduced = build_database(
            db.schema, [(db.fact(f).relation, db.fact(f).values) for f in range(db.n_facts) if f not in removed]
        )
        old_to_new, new_id = {}, 0
        for f in range(db.n_facts):
            if f not in removed:
                old_to_new[f] = new_id
                new_id += 1
        schemes = enumerate_targeted_schemes(db.schema, task_relation, max_length)
        cfg = replace(trainer, seed=seed)
        model, _ = evaluation.train(reduced, task_relation, schemes, cfg, evaluation.default_kernels(reduced))
        train_ids = [old_to_new[f] for f in labeled if f not in removed]
        clf = train_classifier(
            np.stack([model.phi[f] for f in train_ids]), [task.labels[f] for f in labeled if f not in removed]
        )
        insert_order = sorted(removed)
        extended_db = insert_facts(reduced, [Fact(db.fact(f).relation, db.fact(f).values) for f in insert_order])
        new_ids = {old: reduced.n_facts + i for i, old in enumerate(insert_order)}
        pred = [f for f in insert_order if db.fact(f).relation == task_relation and f in task.labels]
        extended = evaluation.extend_embedding(
            extended_db, model, [new_ids[f] for f in pred], evaluation.ExtensionConfig(),
            evaluation.default_kernels(extended_db), seed=seed,
        )
        X_new = np.stack([extended.phi[new_ids[f]] for f in pred])
        points.append(
            evaluation.DynamicPoint(q, len(pred), accuracy_score(clf, X_new, [task.labels[f] for f in pred]))
        )
    return points, removed_sets


def test_dynamic_protocol_matches_the_per_fact_reference():
    setup = planted_database(n_items=16, n_obs=2, seed=3)
    cfg = TrainConfig(k=4, n_samples=2, epochs=2, learning_rate=0.1, seed=0)
    fractions = (0.2, 0.4, 0.6)
    want, removed_sets = _reference_dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions, 5)
    assert evaluation.dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=fractions, seed=5) == want
    db, task = strip_attribute(setup.db, "item", "cls")
    labeled = [f for f in db.relation_fact_ids("item") if f in task.labels]
    for q, removed in zip(fractions, removed_sets):
        chosen = derive_rng(5, "dynamic", repr(q)).choice(
            np.asarray(labeled, dtype=np.int64), size=max(1, int(round(q * len(labeled)))), replace=False
        )
        assert len(removed) > len(chosen)  # the cascade reached the observations
        assert set(np.flatnonzero(_cascade(db, chosen)).tolist()) == removed


@pytest.mark.parametrize("seed", range(12))
def test_cascade_matches_the_per_fact_reference_on_random_databases(seed):
    schema = random_schema(seed)
    db = random_database(schema, seed)
    rng = np.random.default_rng(seed)
    for size in (1, 3):
        chosen = rng.choice(db.n_facts, size=min(size, db.n_facts), replace=False)
        got = set(np.flatnonzero(_cascade(db, chosen)).tolist())
        assert got == reference_cascade(db, chosen)
