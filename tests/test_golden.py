"""Bit-for-bit golden values for training and cross-validation.

The trainer's update loop and the classifier's gradient descent are tuned
for speed under one promise: a fixed seed gives the same bits.  The values
below were recorded with a per-sample trainer that keyed everything by
scheme and a classifier that fitted one fold at a time.  Any change to the
RNG draw order or to the floating-point expression order moves them.  Run
this file as a script to print the current values.

The batched classifier is also checked against that per-fold classifier,
kept here as an oracle, on generated inputs.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed.errors import UsageError
from walkembed.evaluation import (
    LogisticModel,
    _standardise,
    accuracy_score,
    cross_validate,
    make_folds,
    strip_attribute,
    train_classifier,
)
from walkembed.kernels import default_kernels
from walkembed.relational import build_database, schema_from_dict
from walkembed.schemes import enumerate_targeted_schemes
from walkembed.seeding import derive_rng
from walkembed.synth import planted_database
from walkembed.trainer import TrainConfig, train

# -- recorded values -------------------------------------------------------------

PLANTED = {
    "phi": "eef73ee68726a5a1f6ad5c556ec7bf72b49c52b5ed53286c705ded361717fa6b",
    "psi": "b60a0bfe68adfcd41673d65d4eb3ed0bd54c1ad3d4543c9a0279a1a65b252fe6",
    "losses": "93713eec53c6865872bb3201a1e2f2a44be14c103a2c2bb00e527fb885ba5c81",
    "samples": [[2560, 0]] * 8,
}
NULLABLE = {
    "phi": "45730a0a3f5d370351e75774814f838a06aef71ad2c349b2d85a77e50a99e714",
    "psi": "56d117670dd715a67c89079a98ace46ca333a0e1365841919a2538bfb39674d4",
    "losses": "3777b5d138e2b23c1b6dd90e8229d1006b5354307da2a102749bd94225ca6ef5",
    "samples": [[193, 143], [203, 133], [189, 147], [184, 152]],
}
CV = {
    "stratified": 0.825,
    "uneven": 0.5466666666666666,
    "unstratified": 0.6666666666666667,
}


# -- how they are computed -------------------------------------------------------


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


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


@pytest.mark.parametrize("name", sorted(CV))
def test_cross_validate_is_bit_identical(name):
    assert cv_value(name) == CV[name]


def _oracle_classifier(X, labels, l2=1e-4, learning_rate=1.0, iterations=400) -> LogisticModel:
    """The per-fold classifier as first written: one 2-D problem at a time."""
    X = np.asarray(X, dtype=np.float64)
    classes = sorted(set(labels), key=str)
    class_pos = {c: i for i, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, class_pos[lab]] = 1.0
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = np.hstack([_standardise(X, mean, scale), np.ones((X.shape[0], 1))])
    n, d = Xs.shape
    W = np.zeros((d, len(classes)))
    for _ in range(iterations):
        logits = Xs @ W
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = Xs.T @ (p - y) / n
        grad[:-1] += l2 * W[:-1]
        W -= learning_rate * grad
    return LogisticModel(classes, mean, scale, W)


def _oracle_cross_validate(X, labels, fold_assign):
    accs = []
    for fold in range(int(fold_assign.max()) + 1):
        test = fold_assign == fold
        train_labels = [l for l, m in zip(labels, ~test) if m]
        clf = _oracle_classifier(X[~test], train_labels)
        accs.append(accuracy_score(clf, X[test], [l for l, m in zip(labels, test) if m]))
    return float(np.mean(accs))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(6, 40),
    d=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    folds=st.integers(2, 5),
    seed=st.integers(0, 10_000),
    iterations=st.integers(1, 60),
)
def test_classifier_matches_per_fold_oracle(n, d, n_classes, folds, seed, iterations):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
    if seed % 5 == 0:
        X[:, 0] = 1.5  # a constant column: unit scale
    labels = [f"c{int(c)}" for c in rng.integers(0, n_classes, size=n)]
    if len(set(labels)) < 2:
        with pytest.raises(UsageError):
            train_classifier(X, labels)
        return
    got = train_classifier(X, labels, iterations=iterations)
    want = _oracle_classifier(X, labels, iterations=iterations)
    assert got.classes == want.classes
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.scale, want.scale)
    assert np.array_equal(got.weights, want.weights)

    if n < folds:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assign = make_folds(labels, folds, seed)
    if any(len({l for l, a in zip(labels, assign) if a != f}) < 2 for f in range(folds)):
        return  # a training fold with one class cannot be fitted by either path
    assert cross_validate(X, labels, fold_assign=assign) == _oracle_cross_validate(X, labels, assign)


if __name__ == "__main__":
    print("PLANTED =", planted_fingerprint())
    print("NULLABLE =", nullable_fingerprint())
    print("CV =", {name: cv_value(name) for name in sorted(CV)})
