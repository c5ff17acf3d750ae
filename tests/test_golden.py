"""Bit-for-bit golden values for training and cross-validation.

The trainer's update loop and the classifier's Newton solve are tuned for
speed under one promise: a fixed seed gives the same bits, whatever the
number of BLAS threads.  The training values were recorded with the
trainer that levels its updates by first fit on phi rows (each update on
the lowest level that neither of its rows holds yet) and steps each psi
matrix once per level by the sum of its updates' symmetrised gradients,
summed by one matrix product per chunk of at most 256 updates of a level;
the scalar oracle in tests/test_trainer.py, which adds them one by one,
agrees within 1e-12.  They were re-recorded when that product replaced
per-update outer products added in shuffle order: on the benchmark's
``experiment`` inputs of seeds 1-40 the baseline accuracy did not move on
any seed and t*(kvar, 0.5) was still reached on every seed.  Any change to
the RNG draw order, to the update schedule or to the floating-point
expression order moves them.
``CV`` was first recorded with 400 steps of gradient descent per fold,
which stop short of the classifier's optimum, and re-recorded when each
fold came to be solved to that optimum by damped Newton steps: only
``uneven`` moved (0.5467 to 0.4467); on the benchmark's ``experiment``
inputs of seeds 1-40 t*(kvar, 0.5) was still reached on every seed and
the mean baseline accuracy moved by -0.0011.
``model`` is the SHA-256 of the trained model's ``save_model`` file, which
pins the model file's layout, row order and number format as well.
``SCORES`` holds the SHA-256 of the sampled kvar and mutual-information
scores, which pins the samplers' draws and the scorers' arithmetic; it
was recorded with a walker that found the live walkers afresh before
every step and a mutual information made of three ``np.unique`` counts.
Its mutual-information value, and the ``score --strategy mi`` pins in
``CLI``, were re-recorded when mutual information became one score per
walk scheme, and again when it became exact: each step's entropy under
the complete-walk law, computed from arrays with no walks sampled.  The
exact scores match an explicit joint-law oracle within 1e-12
(tests/test_selection.py), so these pins hold its arithmetic only.
``CLI`` holds the SHA-256 of the files that ``score --strategy kvar``,
``score --strategy mi``, ``train`` and ``train --strategy online`` write on
the scoring database: each score CSV and selection JSON as bytes, and each
``training_log.csv`` cell by cell with its timing columns (``wall_time``
and the four phase times) blanked.  They pin the header, the rows' order
and every cell's text, so a numpy scalar that reaches a cell as
``np.float64(...)`` moves them; the ``train`` and ``online`` pins moved
with the training values and the log's ``sgd_levels`` and phase-time
columns.  Run this file as a script to print the current values.

The classifier is also checked on generated inputs against an optimality
oracle in plain 2-D numpy (tests/conftest.py): the gradient is within
tolerance, every weight row sums to zero, and the objective is no higher
than 4000 descent steps reach.  Stacked fits, per-snapshot calls and
``train_classifier`` on each fold agree bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tempfile
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_optimal_classifier

import walkembed.evaluation as evaluation
from walkembed.errors import UsageError
from walkembed.evaluation import (
    accuracy_score,
    cross_validate,
    make_folds,
    strip_attribute,
    train_classifier,
)
from walkembed.cli import main
from walkembed.kernels import default_kernels
from walkembed.model_io import save_model
from walkembed.relational import (
    build_database,
    save_schema,
    schema_from_dict,
    schema_to_dict,
    write_database_csv,
)
from walkembed.schemes import enumerate_targeted_schemes, sample_target_values_batch
from walkembed.seeding import derive_rng
from walkembed.selection import score_kvar, score_mi
from walkembed.synth import planted_database
from walkembed.trainer import TrainConfig, train

# -- recorded values -------------------------------------------------------------

PLANTED = {
    "phi": "4af86a0b73cc4a7f46cba29d154b3a7baec4b7f363a07fe3cca16b5906a485e3",
    "psi": "4f5eeef1bce5e5ae2b472c06d2bf3721f83bd1ad78149a57f946120a3fe11c05",
    "losses": "4467d2201cdb1d5df089fae6bbd309cd52964ef7224b6026c8185087d4333ea6",
    "samples": [[2560, 0]] * 8,
    "model": "20f90cefd9271a33a3bb6d09494f1ee9ee2ae311ca0908a2c392bfcfa871d4c4",
}
NULLABLE = {
    "phi": "08dad726ce0ff8030ecc4731654d586b0d0f98d5d312aa77bd251795ace73805",
    "psi": "fb823e14062e2ebc161ba2b7ec0f0d21ede30f71e106fbebdd1b008865c6eab5",
    "losses": "9cacbc002d0650949f3c09e70131ecc1822d79e16906c4afb05bc487eda2538e",
    "samples": [[193, 143], [203, 133], [189, 147], [184, 152]],
    "model": "2e021f63a632ccbd55e1ce37cec7ebc3b2fd2a8cc200f6b7af9e12b39c6ee1cb",
}
SCORES = {
    "kvar": "faebee21ba5146bf19cf0dc19912c66dd8c934cfea3660ffe9fad62a25af39bb",
    "mi": "04cee1ac7ee7792ac88e5c8df12a36fa06eb58cbf42e534f8c3b5bc2e22b00da",
}
CLI = {
    "kvar": [
        "57e429a04dd426f6ab2c71d8df0f4bf5c9cd12da50e2a2eb3ffafe015eace6c3",
        "1b351b55d58f3ff788528befcc6faacfa488a30b6ab4e074d73a14d1b8d5d01f",
    ],
    "mi": [
        "a0e1226606f11e791924fb890b7bc7a940d2284c6ea27fdf8e23a9410d915469",
        "ee22ee58b9f4b24343ee6f6ad06f49cb0956cdc03925925eb9d32cd1375da173",
    ],
    "train": ["fb5d2a68633d86b480a4cd6d635417cb26d4574785e484c982c5f23f804ca132"],
    "online": ["0554808ef40f34e013aa4da61b1b9561a6a35eb43a30c7b3f004ab9e14726b76"],
}
CV = {
    "stratified": 0.825,
    "uneven": 0.44666666666666666,
    "unstratified": 0.6666666666666667,
}


# -- how they are computed -------------------------------------------------------


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _model_sha(model, db) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, db, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _fingerprint(db, start, max_length, cfg) -> dict:
    schemes = enumerate_targeted_schemes(db.schema, start, max_length)
    model, history = train(db, start, schemes, cfg, default_kernels(db))
    losses = [
        [stats.epoch_mean_loss.get(t, -1.0) for t in schemes]
        + [stats.cumulative_mean_loss.get(t, -1.0) for t in schemes]
        for stats in history
    ]
    return {
        "phi": _sha(model.phi[f] for f in sorted(model.phi)),
        "psi": _sha(model.psi[t] for t in schemes),
        "losses": _sha([np.asarray(losses)]),
        "samples": [[s.samples_used, s.samples_skipped] for s in history],
        "model": _model_sha(model, db),
    }


def planted_fingerprint() -> dict:
    """The experiment workload's size: 80 items, 16 schemes, k=16, 8 epochs."""
    setup = planted_database(n_items=80, n_obs=2, seed=3)
    db, _ = strip_attribute(setup.db, "item", "cls")
    cfg = TrainConfig(k=16, n_samples=2, epochs=8, learning_rate=0.15, seed=3)
    return _fingerprint(db, "item", 1, cfg)


def nullable_database():
    """Items with observations whose numeric value is null about a third of
    the time (Gaussian kernel, null retries); three items have none."""
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "item",
                    "attributes": [
                        {"name": "iid", "kind": "categorical", "nullable": False},
                        {"name": "size", "kind": "numeric", "nullable": True},
                    ],
                    "key": ["iid"],
                },
                {
                    "name": "obs",
                    "attributes": [
                        {"name": "oid", "kind": "categorical", "nullable": False},
                        {"name": "ref", "kind": "categorical", "nullable": False},
                        {"name": "val", "kind": "numeric", "nullable": True},
                        {"name": "tag", "kind": "categorical", "nullable": True},
                    ],
                    "key": ["oid"],
                },
            ],
            "foreign_keys": [
                {"src": "obs", "src_attrs": ["ref"], "dst": "item", "dst_attrs": ["iid"]}
            ],
        }
    )
    rng = derive_rng(0, "golden", "nullable")
    n_items = 14
    rows = [
        ("item", (f"i{i}", None if i % 4 == 0 else round(float(rng.normal(5.0, 2.0)), 3)))
        for i in range(n_items)
    ]
    for j in range(45):
        ref = f"i{rng.integers(0, n_items - 3)}"
        val = None if rng.random() < 0.35 else round(float(rng.normal(0.0, 2.0)), 3)
        tag = None if rng.random() < 0.2 else f"t{rng.integers(0, 3)}"
        rows.append(("obs", (f"o{j}", ref, val, tag)))
    return build_database(schema, rows)


def nullable_fingerprint() -> dict:
    cfg = TrainConfig(k=5, n_samples=3, epochs=4, learning_rate=0.05, seed=1, retry_cap=4)
    return _fingerprint(nullable_database(), "item", 2, cfg)


def scoring_database(labeled: bool = False):
    """The planted layout with a nullable numeric column on every
    observation relation, about a third null, as the ``select`` benchmark
    builds it but with 40 items: kvar's Gaussian kernel and the samplers'
    retry rounds over null destinations both run, and an item whose
    observations are all null retries up to the cap.  The item label
    ``cls`` is stripped unless ``labeled``."""
    p = planted_database(n_items=40, n_obs=2, obs_per_item=3, seed=5)
    doc = schema_to_dict(p.schema)
    for rel in doc["relations"]:
        if rel["name"].startswith("obs"):
            rel["attributes"].append({"name": "onum", "kind": "numeric", "nullable": True})
    rng = derive_rng(0, "golden", "scoring")
    rows = []
    for fact in p.db.facts:
        values = fact.values
        if fact.relation.startswith("obs"):
            values += (None if rng.random() < 0.35 else round(float(rng.normal()), 3),)
        rows.append((fact.relation, values))
    db = build_database(schema_from_dict(doc), rows)
    return db if labeled else strip_attribute(db, "item", "cls")[0]


def scoring_fingerprint() -> dict:
    """kvar and mi over every scheme of length <= 2 from the items."""
    db = scoring_database()
    schemes = enumerate_targeted_schemes(db.schema, "item", 2)
    kvar = score_kvar(db, schemes, default_kernels(db), 200, seed=3)
    mi = score_mi(db, schemes)
    return {"kvar": _sha([[s.score for s in kvar]]), "mi": _sha([[s.score for s in mi]])}


TIMING_COLUMNS = ("wall_time", "sample_s", "kernel_s", "sgd_s", "check_s")


def _masked_log(path: Path) -> bytes:
    """A training log's cells as JSON, with the timing columns blanked."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    timed = {rows[0].index(name) for name in TIMING_COLUMNS}
    masked = [["" if i in timed else cell for i, cell in enumerate(row)] for row in rows[1:]]
    return json.dumps([rows[0], *masked]).encode()


def cli_fingerprint() -> dict:
    """Output hashes of ``score`` (kvar, mi) and ``train`` (plain, online)
    run through ``main`` on the scoring database, schemes of length <= 2."""
    runs = {
        "kvar": (["score", "--strategy", "kvar"], ["scores_kvar.csv", "selection_kvar_0.5.json"]),
        "mi": (["score", "--strategy", "mi"], ["scores_mi.csv", "selection_mi_0.5.json"]),
        "train": (["train"], ["training_log.csv"]),
        "online": (["train", "--strategy", "online", "--ratio", "0.5"], ["training_log.csv"]),
    }
    db = scoring_database(labeled=True)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_schema(db.schema, root / "schema.json")
        write_database_csv(db, root)
        config = {
            "schema": "schema.json",
            "data_dir": ".",
            "task": {"relation": "item", "attribute": "cls"},
            "max_length": 2,
            "trainer": {"k": 4, "n_samples": 2, "epochs": 3, "learning_rate": 0.1, "seed": 3},
            "ratios": [0.5],
            "pair_budget": 200,
        }
        (root / "config.json").write_text(json.dumps(config))
        for name, (command, files) in runs.items():
            out_dir = root / name
            argv = ["--out-dir", str(out_dir), command[0], "--config", str(root / "config.json"), *command[1:]]
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            out[name] = [
                hashlib.sha256(
                    _masked_log(out_dir / f) if f == "training_log.csv" else (out_dir / f).read_bytes()
                ).hexdigest()
                for f in files
            ]
    return out


def cv_case(name: str) -> tuple[np.ndarray, list, int]:
    """(features, labels, folds) of one recorded cross-validation split."""
    rng = derive_rng(0, "golden", "cv", name)
    if name == "stratified":  # two balanced classes, five equal folds
        labels = ["a", "b"] * 20
        folds = 5
    elif name == "uneven":  # three classes, folds of 4 and 5 samples
        labels = ["a"] * 8 + ["b"] * 8 + ["c"] * 7
        folds = 5
    else:  # class "c" has one member: unstratified, one fold trains on two classes
        labels = ["a"] * 20 + ["b"] * 9 + ["c"]
        folds = 5
    centre = {"a": 0.0, "b": 0.8, "c": -0.8}
    X = rng.normal(size=(len(labels), 6)) + np.array([[centre[l]] * 6 for l in labels])
    return X, labels, folds


def cv_value(name: str) -> float:
    X, labels, folds = cv_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cross_validate(X, labels, folds=folds, split_seed=4)


# -- tests -------------------------------------------------------------------------


def test_planted_training_is_bit_identical():
    assert planted_fingerprint() == PLANTED


def test_nullable_numeric_training_is_bit_identical():
    got = nullable_fingerprint()
    assert sum(skipped for _, skipped in got["samples"]) > 0  # null retries ran out
    assert got == NULLABLE


def test_scheme_scores_are_bit_identical():
    db = scoring_database()
    onum = [t for t in enumerate_targeted_schemes(db.schema, "item", 1) if t.target_attr == "onum"]
    items = np.asarray(db.relation_fact_ids("item"), dtype=np.int64)
    dests, _ = sample_target_values_batch(db, items, onum[0], np.random.default_rng(0))
    assert (dests < 0).any()  # some walkers run to the retry cap
    assert scoring_fingerprint() == SCORES


def test_cli_outputs_are_byte_identical():
    assert cli_fingerprint() == CLI


@pytest.mark.parametrize("name", sorted(CV))
def test_cross_validate_is_bit_identical(name):
    assert cv_value(name) == CV[name]


def _per_fold_cross_validate(X, labels, fold_assign):
    """Cross-validation one fold at a time through ``train_classifier``,
    checking that each fold's classifier is optimal."""
    accs = []
    for fold in range(int(fold_assign.max()) + 1):
        test = fold_assign == fold
        train_labels = [l for l, m in zip(labels, ~test) if m]
        clf = train_classifier(X[~test], train_labels)
        assert_optimal_classifier(clf, X[~test], train_labels)
        accs.append(accuracy_score(clf, X[test], [l for l, m in zip(labels, test) if m]))
    return float(np.mean(accs))


def _assert_stack_matches_train_classifier(X, labels, fold_assign):
    """Every (snapshot, fold) classifier of a stacked fit has, bit for bit,
    the weights of ``train_classifier`` on that fold, and is optimal."""
    split = evaluation._split(labels, fold_assign)
    for x, fits in zip(X, evaluation._fit_folds(X, split)):
        for fold, clf in enumerate(fits):
            train = fold_assign != fold
            train_labels = [l for l, m in zip(labels, train) if m]
            want = train_classifier(x[train], train_labels)
            assert clf.classes == want.classes
            assert np.array_equal(clf.mean, want.mean) and np.array_equal(clf.scale, want.scale)
            assert np.array_equal(clf.weights, want.weights)
            assert_optimal_classifier(clf, x[train], train_labels)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(6, 40),
    d=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    folds=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_classifier_matches_per_fold_oracle(n, d, n_classes, folds, seed):
    """``train_classifier`` reaches the optimum that the plain 2-D oracle
    checks (gradient, zero row sums, no worse than 4000 descent steps), and
    ``cross_validate`` equals, float for float, one ``train_classifier``
    call per fold."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
    if seed % 5 == 0:
        X[:, 0] = 1.5  # a constant column: unit scale
    labels = [f"c{int(c)}" for c in rng.integers(0, n_classes, size=n)]
    if len(set(labels)) < 2:
        with pytest.raises(UsageError):
            train_classifier(X, labels)
        return
    assert_optimal_classifier(train_classifier(X, labels), X, labels, descent_steps=4000)

    if n < folds:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assign = make_folds(labels, folds, seed)
    if any(len({l for l, a in zip(labels, assign) if a != f}) < 2 for f in range(folds)):
        return  # a training fold with one class cannot be fitted by either path
    assert cross_validate(X, labels, fold_assign=assign) == _per_fold_cross_validate(X, labels, assign)


def _split_labels(kind: str, folds: int, n_classes: int, rng) -> list[str]:
    """Shuffled labels whose class sizes give a stratified split with equal
    folds, a stratified split with uneven folds, or (one class smaller than
    the fold count) the unstratified fallback."""
    sizes = [folds * int(rng.integers(1, 4)) for _ in range(n_classes)]
    if kind == "uneven":
        sizes = [s + int(rng.integers(1, folds)) for s in sizes]
    elif kind == "fallback":
        sizes[0] = int(rng.integers(1, folds))
    labels = [f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]
    return [labels[i] for i in rng.permutation(len(labels))]


@settings(max_examples=25, deadline=None)
@given(
    snaps=st.integers(1, 4),
    d=st.integers(1, 4),
    n_classes=st.integers(2, 3),
    folds=st.integers(2, 5),
    kind=st.sampled_from(["stratified", "uneven", "fallback"]),
    seed=st.integers(0, 10_000),
)
def test_stacked_cross_validate_matches_per_snapshot_calls(snaps, d, n_classes, folds, kind, seed):
    """A (snapshots, n, d) stack gives, float for float, the accuracies of
    separate 2-D calls and of one ``train_classifier`` call per fold, and
    every (snapshot, fold) classifier has the weights of ``train_classifier``
    on that fold and is optimal."""
    rng = np.random.default_rng(seed)
    labels = _split_labels(kind, folds, n_classes, rng)
    X = rng.normal(size=(snaps, len(labels), d)) * rng.uniform(0.1, 10.0)
    if seed % 5 == 0:
        X[:, :, 0] = 1.5  # a constant column: unit scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assign = make_folds(labels, folds, seed)
    if any(len({l for l, a in zip(labels, assign) if a != f}) < 2 for f in range(folds)):
        with pytest.raises(UsageError, match="at least two classes"):
            cross_validate(X, labels, fold_assign=assign)
        with pytest.raises(UsageError, match="at least two classes"):
            cross_validate(X[0], labels, fold_assign=assign)
        return
    got = cross_validate(X, labels, fold_assign=assign)
    assert got == [cross_validate(x, labels, fold_assign=assign) for x in X]
    assert got == [_per_fold_cross_validate(x, labels, assign) for x in X]
    _assert_stack_matches_train_classifier(X, labels, assign)


def _stack_spy(monkeypatch):
    """Spy on ``_fit_stack``: the list it returns gets, per call, the
    number of problems stacked and the bytes one problem counts against
    ``CV_STACK_BYTES`` (features and three (d * (classes - 1))^2 arrays)."""
    calls = []
    real_fit_stack = evaluation._fit_stack

    def counting_fit_stack(Xs, y, *args, **kwargs):
        (n, d), classes = Xs.shape[1:], y.shape[2]
        calls.append((len(Xs), (n * d + 3 * (d * (classes - 1)) ** 2) * 8))
        return real_fit_stack(Xs, y, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_fit_stack", counting_fit_stack)
    return calls


def test_chunked_stack_gives_the_same_accuracies(monkeypatch):
    """A byte cap below one problem fits one problem per ``_fit_stack``
    call, a cap of two of the largest problems stacks two or more, and the
    accuracies do not move."""
    rng = np.random.default_rng(7)
    labels = _split_labels("uneven", 4, 3, rng)
    X = rng.normal(size=(5, len(labels), 3))
    assign = make_folds(labels, 4, 7)
    whole = cross_validate(X, labels, fold_assign=assign)
    calls = _stack_spy(monkeypatch)
    monkeypatch.setattr(evaluation, "CV_STACK_BYTES", 1)
    assert cross_validate(X, labels, fold_assign=assign) == whole
    assert [size for size, _ in calls] == [1] * 5 * 4  # every (snapshot, fold) problem alone
    largest = max(problem for _, problem in calls)
    monkeypatch.setattr(evaluation, "CV_STACK_BYTES", 2 * largest)
    calls.clear()
    assert cross_validate(X, labels, fold_assign=assign) == whole
    assert sum(size for size, _ in calls) == 5 * 4
    assert all(size * problem <= 2 * largest for size, problem in calls)
    shapes = [int((assign != f).sum()) for f in range(4)]
    assert len(calls) == sum(-(-5 * shapes.count(n) // 2) for n in set(shapes))  # pairs per shape group


def test_stacks_bound_the_hessians_of_many_classes(monkeypatch):
    """30 classes and 16 features: a problem's three 493 x 493 arrays of
    doubles (5.8 MB) count against ``CV_STACK_BYTES``, so the 10 problems
    of 2 snapshots and 5 folds run in stacks of at most 5, and the
    accuracies equal those of one unbounded stack."""
    rng = np.random.default_rng(30)
    labels = [f"c{c}" for c in range(30) for _ in range(5)]
    X = rng.normal(size=(2, len(labels), 16)) + 0.5 * rng.normal(size=(30, 16)).repeat(5, axis=0)
    assign = make_folds(labels, 5, 3)
    calls = _stack_spy(monkeypatch)
    bounded = cross_validate(X, labels, fold_assign=assign)
    assert [size for size, _ in calls] == [5, 5]
    assert all(size * problem <= evaluation.CV_STACK_BYTES for size, problem in calls)
    monkeypatch.setattr(evaluation, "CV_STACK_BYTES", 1 << 40)
    calls.clear()
    assert cross_validate(X, labels, fold_assign=assign) == bounded
    assert [size for size, _ in calls] == [10]


@pytest.mark.parametrize("n_classes", [8, 9, 16, 17, 130])
def test_classifier_matches_per_fold_oracle_at_pairwise_class_counts(n_classes):
    """From 8 classes on numpy adds a row in eight lanes, and above 128 in
    halves, which a descent's softmax once had to follow to keep its bits.
    At these class counts ``train_classifier`` is optimal too (no worse than
    4000 descent steps), and every (snapshot, fold) model of a stacked fit
    equals it on its fold and is optimal."""
    rng = np.random.default_rng(n_classes)
    folds = 3
    sizes = folds + rng.integers(0, 3, size=n_classes)  # uneven folds: several shape groups
    labels = [f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    X = rng.normal(size=(2, len(labels), 3)) * 4.0

    got = train_classifier(X[0], labels)
    assert_optimal_classifier(got, X[0], labels, descent_steps=4000)
    _assert_stack_matches_train_classifier(X, labels, make_folds(labels, folds, n_classes))


if __name__ == "__main__":
    print("PLANTED =", planted_fingerprint())
    print("NULLABLE =", nullable_fingerprint())
    print("SCORES =", scoring_fingerprint())
    print("CLI =", cli_fingerprint())
    print("CV =", {name: cv_value(name) for name in sorted(CV)})
