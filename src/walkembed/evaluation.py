"""Downstream evaluation: column prediction from tuple embeddings.

The task takes one attribute of one relation as the label, removes that
attribute from the database (so nothing can leak through walks), trains
embeddings on what is left, and measures how well a classifier fitted on
the embeddings recovers the label.

The classifier is an in-repo multinomial logistic regression on
standardised features, solved to the optimum of its L2-penalised
cross-entropy by damped Newton steps; accuracy comes from stratified
k-fold cross-validation with one fixed split per task, and reported
accuracies are means over an ensemble of independently seeded training
runs.  Timing curves record cumulative training wall time only; scoring
time is reported per strategy and cross-validation time per grid cell
(``cv_seconds``).

Cost: a grid cell is cross-validated once, after training.  Its epoch
callback only copies the labelled rows; then one ``cross_validate`` call
fits every (epoch, fold) problem whose training set has the same shape in
one batched Newton solve, where each problem stops on its own once its
largest gradient entry is at most 1e-10.  On a 2-vCPU Xeon VM a cell of
8 epochs, 5 folds and 80 labelled tuples with 16 features spends 10-12 ms
in cross-validation; its 40 problems take 5 to 12 steps, each step
building their 17 x 17 Hessians from two batched products and solving
them in one ``np.linalg.solve`` call.  A stack holds at most
``CV_STACK_BYTES`` of features and Hessian arrays (or one problem), so
memory stays bounded when many epochs, folds, classes or labelled tuples
meet.  Every fold's
weights are bit-identical to ``train_classifier`` on that fold alone.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import IntegrityError, UsageError
from .files import ensure_dir, json_object, write_csv, write_json
from .kernels import KernelMap, KernelSpec, default_kernels
from .relational import (  # noqa: F401  (build_database: bench/layertrace.py patches it here)
    Database,
    Value,
    build_database,
    closure,
    drop_attribute,
    load_database,
    load_schema,
    take,
)
from .schemes import TargetedWalkScheme, enumerate_targeted_schemes
from .seeding import derive_rng
from .selection import (
    SchemeScore,
    check_ratio,
    check_strategy,
    default_pair_budget,
    online_elimination_train,
    score_kvar,
    score_length,
    score_mi,
    score_one_epoch,
    score_random,
    score_sampling,
    select,
)
from .extension import ExtensionConfig, extend_embedding
from .trainer import EmbeddingModel, TrainConfig, train

REPORT_FORMAT_VERSION = 1


# -- label extraction --------------------------------------------------------


@dataclass(frozen=True)
class DownstreamTask:
    relation: str
    attribute: str
    labels: dict[int, Value]  # fact id in the stripped database -> label


def strip_attribute(db: Database, relation: str, attribute: str) -> tuple[Database, DownstreamTask]:
    """Remove the label column and collect labels.

    The attribute must not be part of the relation's key or of any foreign
    key, so removing it keeps the schema valid and fact ids stable.  Facts
    with a null label are simply absent from the task's label map, whose
    keys are in fact-id order.

    The stripped database is derived by ``drop_attribute``, not rebuilt: it
    shares every other column, the key maps and the foreign-key index with
    the source, so a load costs one validated build.
    """
    rel = db.schema.relation(relation)
    if attribute not in rel.attr_names:
        raise UsageError(f"relation {relation!r} has no attribute {attribute!r}")
    if attribute in rel.key:
        raise UsageError(f"prediction attribute {attribute!r} is part of the key of {relation!r}")
    for fk in db.schema.foreign_keys:
        if fk.src == relation and attribute in fk.src_attrs:
            raise UsageError(
                f"prediction attribute {attribute!r} participates in foreign key {fk.name}"
            )
    labels = {
        fact_id: label
        for fact_id, label in zip(db.relation_fact_ids(relation), db.attr_values(relation, attribute))
        if label is not None
    }
    stripped = drop_attribute(db, relation, attribute)
    return stripped, DownstreamTask(relation, attribute, labels)


# -- classifier ----------------------------------------------------------------


@dataclass
class LogisticModel:
    classes: list[Value]
    mean: np.ndarray
    scale: np.ndarray
    weights: np.ndarray  # (d+1, n_classes), last row is the bias


def _standardise(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (X - mean) / scale


def _one_hot(labels: list[Value]) -> tuple[list[Value], np.ndarray]:
    """(classes, one-hot labels) of one classification problem."""
    classes = sorted(set(labels), key=str)
    if len(classes) < 2:
        raise UsageError("classifier needs at least two classes")
    class_pos = {c: i for i, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, class_pos[lab]] = 1.0
    return classes, y


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and scales of a feature matrix; a constant column gets
    unit scale."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _prepare(
    X: np.ndarray, labels: list[Value]
) -> tuple[list[Value], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(classes, mean, scale, standardised features with a bias column,
    one-hot labels) of one classification problem."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(labels) != X.shape[0]:
        raise UsageError("features and labels must align")
    classes, y = _one_hot(labels)
    mean, scale = _moments(X)
    Xs = np.hstack([_standardise(X, mean, scale), np.ones((X.shape[0], 1))])
    return classes, mean, scale, Xs, y


# Newton stops a problem once its largest gradient entry is at most this, or
# after _NEWTON_STEPS steps; no problem in the tests or the benchmark takes 14.
_GRADIENT_TOL = 1e-10
_NEWTON_STEPS = 50


def _probabilities(W: np.ndarray, Xt: np.ndarray) -> np.ndarray:
    """Softmax (problems, classes, n) of weights W (problems, classes, d)
    on features Xt (problems, d, n)."""
    p = W @ Xt
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _fit_stack(Xs: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> np.ndarray:
    """Damped Newton on a stack of equally shaped problems.

    ``Xs`` is (problems, n, d) with the bias as the last column and ``y``
    is (problems, n, classes); returns the weights (problems, d, classes)
    minimising mean cross-entropy plus ``l2/2`` times the squared weights
    outside the bias row; each weight row sums to zero.  Steps are solved
    in the orthonormal Helmert basis ``Q`` of zero-sum rows, where the
    Hessian, sum_i Q^T (diag p_i - p_i p_i^T) Q (x) x_i x_i^T / n, is
    regular.  A step is halved until the objective does not rise, with
    each sample's rise computed as one quantity, log1p of a sum of expm1s
    of logit changes relative to its label's: near the optimum a
    difference of two objectives is all rounding.  A problem that
    converges, reaches the cap or finds no descent down to 1e-9 of its
    step leaves the stack, so its bits never depend on the other problems.
    """
    n, d = Xs.shape[1:]
    C = y.shape[2]
    K = C - 1
    k = np.arange(1, C)
    helmert = np.triu(np.ones((C, C)), 1) - np.diag(np.r_[0, k])
    helmert[:, 0] = 1.0
    helmert /= np.sqrt(np.r_[C, k * (k + 1)])
    Q = helmert[:, 1:]
    # sum_j p_ij Q_j Q_j^T, the Hessian's first term, is T3 @ (helmert^T p_i)
    T3 = (Q[:, :, None] * Q[:, None, :]).reshape(C, K * K).T @ helmert
    penalty = np.r_[np.full(d - 1, l2), 0.0]
    ridge = np.diag(np.tile(penalty, K))
    X, Xt, Yt = Xs, np.ascontiguousarray(Xs.transpose(0, 2, 1)), np.ascontiguousarray(y.transpose(0, 2, 1))
    W = np.zeros((len(Xs), C, d))
    out, live, p, moved = np.empty_like(W), np.arange(len(Xs)), _probabilities(W, Xt), np.ones(len(Xs), dtype=bool)
    for step in range(_NEWTON_STEPS + 1):
        g = (p - Yt) @ X / n + W * penalty
        go = (np.abs(g).max(axis=(1, 2)) > _GRADIENT_TOL) & moved & (step < _NEWTON_STEPS)
        if not go.all():
            out[live[~go]] = W[~go]
            live, W, X, Xt, Yt, p, g = (v[go] for v in (live, W, X, Xt, Yt, p, g))
            if not live.size:
                break
        B = ((helmert.T @ p)[:, :, None] * Xt[:, None]).reshape(len(W), C * d, n)
        curv = (T3 @ (B @ X).reshape(-1, C, d * d)).reshape(-1, K, K, d, d).transpose(0, 1, 3, 2, 4)
        hess = (curv.reshape(-1, K * d, K * d) - B[:, d:] @ B[:, d:].transpose(0, 2, 1)) / n + ridge
        s = Q @ np.linalg.solve(hess, (Q.T @ g).reshape(-1, K * d, 1)).reshape(-1, K, d)
        dL = s @ Xt
        dL -= (dL * Yt).sum(axis=1, keepdims=True)  # logit changes relative to the label's
        lin, quad = (penalty * W * s).sum(axis=(1, 2)), (penalty * s * s).sum(axis=(1, 2)) / 2
        t, todo = 1.0, np.arange(len(W))
        while todo.size and t > 1e-9:
            with np.errstate(all="ignore"):
                rise = np.log1p((p[todo] * np.expm1(-t * dL[todo])).sum(axis=1)).mean(axis=1)
                rise += t * (t * quad[todo] - lin[todo])
            ok = (rise <= 0.0) & np.isfinite(rise)  # -inf: a sum that cancelled to -1, not descent
            W[todo[ok]] -= t * s[todo[ok]]
            todo, t = todo[~ok], t / 2
        moved = ~np.isin(np.arange(len(W)), todo)
        p = _probabilities(W, Xt)
    return out.transpose(0, 2, 1).copy()


def train_classifier(X: np.ndarray, labels: list[Value], l2: float = 1e-4) -> LogisticModel:
    """Multinomial logistic regression with an L2 penalty, solved to its
    optimum by ``_fit_stack``.

    Weights start at zero and nothing is random, so identical inputs give
    identical models.
    """
    classes, mean, scale, Xs, y = _prepare(X, labels)
    return LogisticModel(classes, mean, scale, _fit_stack(Xs[None], y[None], l2)[0])


def predict(clf: LogisticModel, X: np.ndarray) -> list[Value]:
    Xs = np.hstack(
        [_standardise(np.asarray(X, dtype=np.float64), clf.mean, clf.scale),
         np.ones((len(X), 1))]
    )
    picks = np.argmax(Xs @ clf.weights, axis=1)
    return [clf.classes[i] for i in picks]


def accuracy_score(clf: LogisticModel, X: np.ndarray, labels: list[Value]) -> float:
    got = predict(clf, X)
    return float(np.mean([a == b for a, b in zip(got, labels)]))


# -- cross validation ----------------------------------------------------------


def make_folds(labels: list[Value], folds: int, split_seed: int) -> np.ndarray:
    """Fold assignment per sample, derived from labels and seed only.

    Stratified: each class is shuffled and dealt round-robin across folds.
    When any class is smaller than the fold count stratification cannot
    hold and the whole split falls back to a plain shuffled deal, with a
    warning.
    """
    n = len(labels)
    if folds < 2:
        raise UsageError("need at least two folds")
    if n < folds:
        raise UsageError(f"cannot split {n} samples into {folds} folds")
    rng = derive_rng(split_seed, "folds")
    assign = np.empty(n, dtype=np.int64)
    by_class: dict[Value, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    if any(len(v) < folds for v in by_class.values()):
        warnings.warn(
            "a class has fewer members than folds; falling back to an unstratified split",
            stacklevel=2,
        )
        order = rng.permutation(n)
        for pos, i in enumerate(order):
            assign[i] = pos % folds
        return assign
    for cls in sorted(by_class, key=str):
        members = np.asarray(by_class[cls])
        order = rng.permutation(len(members))
        for pos, j in enumerate(order):
            assign[members[j]] = pos % folds
    return assign


# Largest stack, in bytes, that one batched Newton solve in cross_validate
# holds (features and per-step Hessian arrays, see _fit_folds); more
# problems run in further stacks.
CV_STACK_BYTES = 32 << 20

# One fold of a fixed split: the test mask, the training set's classes and
# one-hot labels, and the test labels.
_Fold = tuple[np.ndarray, list[Value], np.ndarray, list[Value]]


def _split(labels: list[Value], fold_assign: np.ndarray) -> list[_Fold]:
    """The folds of a fold assignment, in fold order.  A training set with
    fewer than two classes raises the UsageError of ``train_classifier``."""
    out = []
    for fold in range(int(fold_assign.max()) + 1):
        test = fold_assign == fold
        classes, y = _one_hot([l for l, m in zip(labels, test) if not m])
        out.append((test, classes, y, [l for l, m in zip(labels, test) if m]))
    return out


def _fit_folds(snaps: np.ndarray, split: list[_Fold]) -> list[list[LogisticModel]]:
    """The classifier of every (snapshot, fold) problem, indexed
    [snapshot][fold], for ``snaps`` of shape (snapshots, n, d).

    Problems whose training sets have the same shape are fitted together,
    in ``_fit_stack`` calls of as many problems as ``CV_STACK_BYTES``
    holds (at least one): a problem counts its standardised features and
    the three (d * (classes - 1))^2 arrays ``_fit_stack`` builds per step,
    the Hessian among them."""
    n_snaps, _, d = snaps.shape
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (_, _, y, _) in enumerate(split):
        groups.setdefault(y.shape, []).append(i)
    models: list[list] = [[None] * len(split) for _ in range(n_snaps)]
    for (n_train, n_classes), members in groups.items():
        problem_bytes = (n_train * (d + 1) + 3 * ((d + 1) * (n_classes - 1)) ** 2) * 8
        step = max(1, CV_STACK_BYTES // problem_bytes)
        problems = [(i, s) for i in members for s in range(n_snaps)]
        for lo in range(0, len(problems), step):
            stack = problems[lo : lo + step]
            Xs = np.empty((len(stack), n_train, d + 1))
            Xs[..., d] = 1.0
            moments = []
            for x, (i, s) in zip(Xs, stack):
                train_x = snaps[s][~split[i][0]]
                mean, scale = _moments(train_x)
                x[:, :d] = _standardise(train_x, mean, scale)
                moments.append((mean, scale))
            W = _fit_stack(Xs, np.stack([split[i][2] for i, _ in stack]))
            for (i, s), (mean, scale), w in zip(stack, moments, W):
                models[s][i] = LogisticModel(split[i][1], mean, scale, w)
    return models


def cross_validate(
    X: np.ndarray,
    labels: list[Value],
    folds: int = 10,
    split_seed: int = 0,
    fold_assign: np.ndarray | None = None,
) -> float | list[float]:
    """Mean test accuracy over the fixed k-fold split.

    ``X`` is one (n, d) feature matrix, which gives one accuracy, or a
    (snapshots, n, d) stack over the same samples, such as one matrix per
    training epoch, which gives a list of accuracies, one per snapshot.
    All problems whose training sets have the same shape (sample and class
    counts) are solved together by batched Newton steps; each fold's model
    is bit-identical to ``train_classifier`` on that fold alone, because a
    problem's steps never depend on the others in its stack.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-2] != len(labels):
        raise UsageError("features and labels must align")
    if fold_assign is None:
        fold_assign = make_folds(labels, folds, split_seed)
    split = _split(labels, fold_assign)
    snaps = X[None] if X.ndim == 2 else X
    accs = [
        float(np.mean([
            accuracy_score(clf, x[test], test_labels)
            for clf, (test, _, _, test_labels) in zip(fits, split)
        ]))
        for x, fits in zip(snaps, _fit_folds(snaps, split))
    ]
    return accs[0] if X.ndim == 2 else accs


# -- timing curves and thresholds -----------------------------------------------


@dataclass
class TimingCurve:
    strategy: str
    ratio: float
    seed: int
    points: list[tuple[float, float]] = field(default_factory=list)  # (seconds, accuracy)

    def accuracy_at(self, t: float) -> float | None:
        best = None
        for when, acc in self.points:
            if when <= t:
                best = acc
            else:
                break
        return best


def ensemble_accuracy(curves: list[TimingCurve], t: float) -> float | None:
    """Mean accuracy over runs at time t; None while any run has not yet
    finished its first epoch (the point is undefined, not zero)."""
    if not curves:
        raise UsageError("no curves given")
    vals = [c.accuracy_at(t) for c in curves]
    if any(v is None for v in vals):
        return None
    return float(np.mean(vals))


def ensemble_points(curves: list[TimingCurve]) -> list[tuple[float, float]]:
    """The ensemble curve sampled at every per-run epoch boundary."""
    times = sorted({when for c in curves for when, _ in c.points})
    out = []
    for t in times:
        acc = ensemble_accuracy(curves, t)
        if acc is not None:
            out.append((t, acc))
    return out


def time_to_threshold(points: list[tuple[float, float]], alpha_star: float) -> float | None:
    """Earliest time at which the curve reaches alpha_star, if ever."""
    for when, acc in points:
        if acc >= alpha_star:
            return when
    return None


# -- experiment configuration ----------------------------------------------------


@dataclass
class ExperimentConfig:
    schema_path: str
    data_dir: str
    task_relation: str
    task_attribute: str
    max_length: int = 2
    trainer: TrainConfig = field(default_factory=TrainConfig)
    strategies: tuple[str, ...] = ("kvar",)
    ratios: tuple[float, ...] = (0.5,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    folds: int = 10
    split_seed: int = 0
    pair_budget: int | None = None
    facts_per_scheme: int = 10
    sampling_epochs: int = 10
    per_epoch_removals: int = 1
    workers: int = 1
    kernel_overrides: tuple[KernelSpec, ...] = ()

    def __post_init__(self) -> None:
        for s in self.strategies:
            check_strategy(s)
        for r in self.ratios:
            check_ratio(r)
        if not self.seeds:
            raise UsageError("at least one ensemble seed is required")
        for name, least in (
            ("max_length", 0),
            ("folds", 2),
            ("facts_per_scheme", 1),
            ("sampling_epochs", 1),
            ("per_epoch_removals", 1),
            ("workers", 1),
        ):
            if getattr(self, name) < least:
                raise UsageError(f"{name} must be at least {least}")
        if self.pair_budget is not None and self.pair_budget < 2:
            raise UsageError("pair_budget must be at least 2 (or absent for the default)")

    @staticmethod
    def from_dict(doc: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        """The config of a JSON document; a field the document leaves out
        takes the dataclass default.  A missing required field, an ill-typed
        one, a count that is not a whole number, or a key no field reads
        (at top level, in ``task``, ``trainer`` or a ``kernels`` entry) is a
        UsageError naming it.  ``walk_budget``, which mutual information no
        longer reads, is accepted and ignored."""
        read = partial(json_object, "malformed config", UsageError)
        given = read(doc, {"schema": str, "data_dir": str, "task": dict}, {
            "trainer": dict, "kernels": list, "max_length": int, "folds": int, "split_seed": int,
            "pair_budget": (int, None), "facts_per_scheme": int, "sampling_epochs": int, "per_epoch_removals": int,
            "workers": int, "strategies": [str], "ratios": [float], "seeds": [int], "walk_budget": None,
        }, name="config")
        task = read(given.pop("task"), {"relation": str, "attribute": str}, label="task")
        trainer = read(given.pop("trainer", {}), {}, {
            "k": int, "n_samples": int, "epochs": int, "learning_rate": float, "seed": int, "retry_cap": int,
        }, label="trainer")
        kernels = [
            KernelSpec(**read(spec, {"relation": str, "attribute": str, "kind": str}, {"sigma": (float, None)},
                              label=f"kernels[{i}]"))
            for i, spec in enumerate(given.pop("kernels", []))
        ]
        base = Path(base_dir)
        return ExperimentConfig(
            schema_path=str(base / given.pop("schema")),
            data_dir=str(base / given.pop("data_dir")),
            task_relation=task["relation"],
            task_attribute=task["attribute"],
            trainer=TrainConfig(**trainer),
            kernel_overrides=tuple(kernels),
            **given,
        )


# -- experiment run ----------------------------------------------------------------


@dataclass
class CellResult:
    strategy: str
    ratio: float
    seed: int
    curve: TimingCurve
    kept: int
    cv_seconds: float  # snapshot copies plus the post-training CV, outside the curve's clock


@dataclass
class ExperimentReport:
    scheme_count: int
    baseline_accuracy: float
    alpha_star: float
    cells: list[CellResult]
    ensembles: dict[tuple[str, float], list[tuple[float, float]]]
    t_star: dict[tuple[str, float], float | None]
    best_time: dict[str, float | None]
    best_ratio: dict[str, float | None]
    scoring_seconds: dict[str, float]
    kept_counts: dict[tuple[str, float], int]
    failures: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "scheme_count": self.scheme_count,
            "baseline_accuracy": self.baseline_accuracy,
            "alpha_star": self.alpha_star,
            "cells": [
                {
                    "strategy": c.strategy,
                    "ratio": c.ratio,
                    "seed": c.seed,
                    "kept": c.kept,
                    "cv_seconds": c.cv_seconds,
                    "points": [[t, a] for t, a in c.curve.points],
                }
                for c in self.cells
            ],
            "ensembles": [
                {"strategy": s, "ratio": r, "points": [[t, a] for t, a in pts]}
                for (s, r), pts in sorted(self.ensembles.items())
            ],
            "t_star": [
                {"strategy": s, "ratio": r, "t": t}
                for (s, r), t in sorted(self.t_star.items())
            ],
            "best": [
                {"strategy": s, "t": self.best_time[s], "ratio": self.best_ratio[s]}
                for s in sorted(self.best_time)
            ],
            "scoring_seconds": dict(sorted(self.scoring_seconds.items())),
            "kept_counts": [
                {"strategy": s, "ratio": r, "kept": k}
                for (s, r), k in sorted(self.kept_counts.items())
            ],
            "failures": self.failures,
        }


def _run_cell(db: Database, args: dict) -> CellResult:
    """One (strategy, ratio, seed) training run with one accuracy per epoch.

    The curve's clock counts training time only.  Each epoch's callback
    adds the epoch to the clock and keeps a copy of the labelled rows; one
    ``cross_validate`` call scores every epoch after training ends."""
    cfg: TrainConfig = replace(args["trainer"], seed=args["seed"])
    curve = TimingCurve(args["strategy"], args["ratio"], args["seed"])
    clock = {"train": 0.0, "cv": 0.0}
    times: list[float] = []
    snapshots: list[np.ndarray] = []

    def cb(epoch: int, model: EmbeddingModel, stats) -> None:
        clock["train"] += stats.wall_time
        t0 = time.perf_counter()
        if not snapshots:  # a split that cannot be fitted fails the cell now, not after training
            _split(args["labels_list"], args["fold_assign"])
        snapshots.append(model.phi.take(args["labeled_ids"]))
        times.append(clock["train"])
        clock["cv"] += time.perf_counter() - t0

    if args["online"]:
        online_elimination_train(
            db,
            args["start"],
            args["schemes"],
            cfg,
            args["ratio"],
            per_epoch_removals=args["per_epoch_removals"],
            kernels=args["kernels"],
            callbacks=[cb],
        )
        kept = math.ceil(args["ratio"] * len(args["schemes"]))
    else:
        train(db, args["start"], args["schemes"], cfg, args["kernels"], callbacks=[cb])
        kept = len(args["schemes"])
    if snapshots:
        t0 = time.perf_counter()
        accs = cross_validate(np.stack(snapshots), args["labels_list"], fold_assign=args["fold_assign"])
        clock["cv"] += time.perf_counter() - t0
        curve.points = list(zip(times, accs))
    return CellResult(args["strategy"], args["ratio"], args["seed"], curve, kept, clock["cv"])


# The database of a worker process, sent once through the pool initializer
# rather than pickled into every job.
_worker_db: Database | None = None


def _init_worker(db: Database) -> None:
    global _worker_db
    _worker_db = db


def _run_worker_cell(args: dict) -> CellResult:
    return _run_cell(_worker_db, args)


def compute_scores(
    strategy: str,
    db: Database,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    kernels: KernelMap,
    config: ExperimentConfig,
) -> list[SchemeScore]:
    check_strategy(strategy)
    if strategy == "online":
        raise UsageError("strategy 'online' scores schemes during training, not ahead of it")
    if strategy == "random":
        return score_random(schemes, cfg.seed)
    if strategy == "length":
        return score_length(schemes)
    if strategy == "mi":
        return score_mi(db, schemes)
    if strategy == "kvar":
        budget = config.pair_budget
        if budget is None:
            budget = default_pair_budget(db, config.task_relation, cfg)
        return score_kvar(db, schemes, kernels, budget, cfg.seed, cfg.retry_cap)
    if strategy == "one_epoch":
        return score_one_epoch(db, schemes, cfg, kernels)
    # "sampling", the one strategy left
    return score_sampling(db, schemes, cfg, config.facts_per_scheme, config.sampling_epochs, kernels)


def load_task(config: ExperimentConfig) -> tuple[Database, DownstreamTask, list[TargetedWalkScheme], KernelMap]:
    """The database of ``config`` without its prediction attribute, the
    labels taken from it, the targeted schemes of the prediction relation
    and the kernels (defaults with the config's overrides)."""
    schema = load_schema(config.schema_path)
    raw_db = load_database(schema, config.data_dir)
    db, task = strip_attribute(raw_db, config.task_relation, config.task_attribute)
    schemes = enumerate_targeted_schemes(db.schema, config.task_relation, config.max_length)
    return db, task, schemes, default_kernels(db, config.kernel_overrides)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    db, task, schemes, kernels = load_task(config)
    if not task.labels:
        raise IntegrityError("prediction attribute has no non-null labels")
    labeled_ids = sorted(task.labels)
    labels_list = [task.labels[f] for f in labeled_ids]
    if len(set(map(str, labels_list))) < 2:
        raise IntegrityError("prediction attribute has a single class; nothing to learn")
    fold_assign = make_folds(labels_list, config.folds, config.split_seed)
    if not schemes:
        raise UsageError("no targeted walk schemes to train on")

    def cell_args(strategy: str, ratio: float, seed: int, kept: list[TargetedWalkScheme], online: bool) -> dict:
        return {
            "start": config.task_relation,
            "schemes": kept,
            "trainer": config.trainer,
            "strategy": strategy,
            "ratio": ratio,
            "seed": seed,
            "kernels": kernels,
            "labeled_ids": labeled_ids,
            "labels_list": labels_list,
            "fold_assign": fold_assign,
            "online": online,
            "per_epoch_removals": config.per_epoch_removals,
        }

    jobs: list[dict] = []
    scoring_seconds: dict[str, float] = {}
    kept_counts: dict[tuple[str, float], int] = {}
    failures: dict[str, str] = {}

    for seed in config.seeds:
        jobs.append(cell_args("baseline", 1.0, seed, schemes, online=False))
    kept_counts[("baseline", 1.0)] = len(schemes)

    for strategy in config.strategies:
        if strategy == "online":
            for ratio in config.ratios:
                kept_counts[("online", ratio)] = math.ceil(ratio * len(schemes))
                for seed in config.seeds:
                    jobs.append(cell_args("online", ratio, seed, schemes, online=True))
            continue
        t0 = time.perf_counter()
        try:
            scores = compute_scores(strategy, db, schemes, config.trainer, kernels, config)
        except Exception as exc:  # a failed strategy should not sink the grid
            failures[f"score:{strategy}"] = str(exc)
            continue
        scoring_seconds[strategy] = time.perf_counter() - t0
        for ratio in config.ratios:
            selection = select(scores, ratio)
            kept_counts[(strategy, ratio)] = len(selection.kept)
            for seed in config.seeds:
                jobs.append(cell_args(strategy, ratio, seed, list(selection.kept), online=False))

    results: list[CellResult] = []

    def collect(job: dict, run: Callable[[], CellResult]) -> None:
        try:
            results.append(run())
        except Exception as exc:  # a failed cell should not sink the grid
            failures[f"train:{job['strategy']}:{job['ratio']}:{job['seed']}"] = str(exc)

    if config.workers > 1:
        with ProcessPoolExecutor(
            max_workers=config.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(db,),
        ) as pool:
            futures = [pool.submit(_run_worker_cell, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                collect(job, fut.result)
    else:
        for job in jobs:
            collect(job, partial(_run_cell, db, job))

    by_cell: dict[tuple[str, float], list[TimingCurve]] = {}
    for res in results:
        by_cell.setdefault((res.strategy, res.ratio), []).append(res.curve)

    base_curves = by_cell.get(("baseline", 1.0), [])
    if not base_curves or any(not c.points for c in base_curves):
        raise UsageError("baseline training produced no epochs; increase trainer.epochs")
    baseline_accuracy = float(np.mean([c.points[-1][1] for c in base_curves]))
    alpha_star = 0.95 * baseline_accuracy

    ensembles = {key: ensemble_points(curves) for key, curves in by_cell.items()}
    t_star = {key: time_to_threshold(pts, alpha_star) for key, pts in ensembles.items()}

    best_time: dict[str, float | None] = {}
    best_ratio: dict[str, float | None] = {}
    for strategy in set(s for s, _ in t_star) - {"baseline"}:
        reached = [
            (t, r) for (s, r), t in t_star.items() if s == strategy and t is not None
        ]
        if reached:
            t, r = min(reached)
            best_time[strategy], best_ratio[strategy] = t, r
        else:
            best_time[strategy], best_ratio[strategy] = None, None

    return ExperimentReport(
        scheme_count=len(schemes),
        baseline_accuracy=baseline_accuracy,
        alpha_star=alpha_star,
        cells=results,
        ensembles=ensembles,
        t_star=t_star,
        best_time=best_time,
        best_ratio=best_ratio,
        scoring_seconds=scoring_seconds,
        kept_counts=kept_counts,
        failures=failures,
    )


# -- dynamic protocol ---------------------------------------------------------------


@dataclass(frozen=True)
class DynamicPoint:
    fraction_deleted: float
    n_inserted: int
    accuracy: float


def dynamic_protocol(
    raw_db: Database,
    task_relation: str,
    task_attribute: str,
    max_length: int,
    trainer: TrainConfig,
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    extension: ExtensionConfig = ExtensionConfig(),
    strategy: str | None = None,
    ratio: float = 1.0,
    config: ExperimentConfig | None = None,
    seed: int = 0,
) -> list[DynamicPoint]:
    """Delete a fraction of the prediction relation, train on the rest, fit
    a classifier, re-insert the deleted tuples, solve their embeddings by
    extension, and score the classifier on the inserted tuples only.

    Deleting a prediction fact cascades to every fact that (transitively)
    references it (``closure``), so the reduced database stays valid; the
    cascade is re-inserted together with the prediction facts.  Both are
    ``take``s, so no fact is decoded: the survivors in id order, then the
    removed facts in id order, the ids ``insert_facts`` would give them.
    Training and extension take the default kernels with ``config``'s
    overrides, as ``load_task`` does.  With a ``strategy`` and a ``ratio``
    below 1, training keeps the schemes ``compute_scores`` ranks on top.
    """
    db, task = strip_attribute(raw_db, task_relation, task_attribute)
    all_ids = list(db.relation_fact_ids(task_relation))
    labeled = [f for f in all_ids if f in task.labels]
    if len(labeled) < 4:
        raise UsageError("too few labeled facts for the dynamic protocol")

    overrides = config.kernel_overrides if config is not None else ()
    points: list[DynamicPoint] = []
    for q in fractions:
        if not (0.0 < q < 1.0):
            raise UsageError("deletion fractions must lie strictly between 0 and 1")
        rng = derive_rng(seed, "dynamic", repr(q))
        n_remove = max(1, int(round(q * len(labeled))))
        if n_remove >= len(labeled) - 1:
            n_remove = len(labeled) - 2  # keep at least two facts to train on
        chosen = rng.choice(np.asarray(labeled, dtype=np.int64), size=n_remove, replace=False)
        chosen_mask = np.zeros(db.n_facts, dtype=bool)
        chosen_mask[chosen] = True
        removed = closure(db, chosen_mask, referencing=True, referenced=False)
        kept, gone = np.flatnonzero(~removed), np.flatnonzero(removed)
        reduced = take(db, kept)
        old_to_new = np.cumsum(~removed) - 1

        schemes = enumerate_targeted_schemes(db.schema, task_relation, max_length)
        kernels = default_kernels(reduced, overrides)
        cfg = replace(trainer, seed=seed)
        if strategy is not None and ratio < 1.0:
            if config is None:
                raise UsageError(f"strategy {strategy!r} needs a config to score schemes")
            scores = compute_scores(strategy, reduced, schemes, cfg, kernels, config)
            schemes = list(select(scores, ratio).kept)
        model, _ = train(reduced, task_relation, schemes, cfg, kernels)

        train_ids = [int(old_to_new[f]) for f in labeled if not removed[f]]
        train_labels = [task.labels[f] for f in labeled if not removed[f]]
        if len(set(map(str, train_labels))) < 2:
            raise UsageError(
                f"deletion fraction {q} left a single label class; cannot fit a classifier"
            )
        clf = train_classifier(model.phi.take(train_ids), train_labels)

        extended_db = take(db, np.concatenate([kept, gone]))
        # (new id, old id) of the re-inserted prediction facts: gone[i] is new fact len(kept) + i
        pred = [
            (len(kept) + i, f)
            for i, f in enumerate(gone.tolist())
            if db.relation_of(f) == task_relation and f in task.labels
        ]
        new_pred = [new for new, _ in pred]
        ext_kernels = default_kernels(extended_db, overrides)
        extended = extend_embedding(
            extended_db, model, new_pred, extension, ext_kernels, seed=seed, retry_cap=cfg.retry_cap
        )
        X_new = extended.phi.take(new_pred)
        y_new = [task.labels[f] for _, f in pred]
        points.append(DynamicPoint(q, len(new_pred), accuracy_score(clf, X_new, y_new)))
    return points


def write_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus one CSV per ensemble curve; returns the paths."""
    out_dir = ensure_dir(out_dir)
    paths = []
    report_path = out_dir / "report.json"
    write_json(report.to_dict(), report_path)
    paths.append(report_path)
    for (strategy, ratio), pts in sorted(report.ensembles.items()):
        path = curve_path(out_dir, strategy, ratio)
        write_csv(path, ["seconds", "accuracy"], ([repr(t), repr(a)] for t, a in pts))
        paths.append(path)
    return paths


def curve_path(out_dir: Path, strategy: str, ratio: float) -> Path:
    return out_dir / f"curve_{strategy}_{ratio:g}.csv"
