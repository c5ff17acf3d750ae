"""Downstream evaluation: column prediction from tuple embeddings.

The task takes one attribute of one relation as the label, removes that
attribute from the database (so nothing can leak through walks), trains
embeddings on what is left, and measures how well a classifier fitted on
the embeddings recovers the label.

The classifier is an in-repo multinomial logistic regression trained by
full-batch gradient descent on standardised features; accuracy comes from
stratified k-fold cross-validation with one fixed split per task, and
reported accuracies are means over an ensemble of independently seeded
training runs.  Timing curves record cumulative training wall time only;
scoring time is reported per strategy and cross-validation time per grid
cell (``cv_seconds``).

Cost: cross-validation fits all folds whose training sets have the same
shape in one batched gradient descent, so each of the 400 steps is a
dozen numpy calls for the whole stack instead of a dozen per fold.  One
5-fold call on 80 samples with 16 features takes about 19 ms on a 2-vCPU
Xeon VM.  Every fold's weights are bit-identical to ``train_classifier``
on that fold alone.
"""

from __future__ import annotations

import json
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
from .kernels import KernelMap, KernelSpec, default_kernels
from .relational import (
    Database,
    DatabaseSchema,
    Fact,
    RelationSchema,
    Value,
    build_database,
    insert_facts,
    load_database,
    load_schema,
)
from .schemes import TargetedWalkScheme, enumerate_targeted_schemes
from .seeding import derive_rng
from .selection import (
    STRATEGIES,
    SamplingParams,
    SchemeScore,
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
    with a null label are simply absent from the task's label map.
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
    drop = rel.attr_index(attribute)
    new_rel = RelationSchema(
        relation,
        tuple(a for a in rel.attributes if a.name != attribute),
        rel.key,
    )
    schema = DatabaseSchema(
        tuple(new_rel if r.name == relation else r for r in db.schema.relations),
        db.schema.foreign_keys,
    )
    rows = []
    labels: dict[int, Value] = {}
    for fact in db.facts:
        if fact.relation == relation:
            label = fact.values[drop]
            if label is not None:
                labels[fact.fact_id] = label
            rows.append((relation, fact.values[:drop] + fact.values[drop + 1 :]))
        else:
            rows.append((fact.relation, fact.values))
    stripped = build_database(schema, rows)
    assert attribute not in stripped.schema.relation(relation).attr_names
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


def _prepare(
    X: np.ndarray, labels: list[Value]
) -> tuple[list[Value], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(classes, mean, scale, standardised features with a bias column,
    one-hot labels) of one classification problem."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(labels) != X.shape[0]:
        raise UsageError("features and labels must align")
    classes = sorted(set(labels), key=str)
    if len(classes) < 2:
        raise UsageError("classifier needs at least two classes")
    class_pos = {c: i for i, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, class_pos[lab]] = 1.0

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = np.hstack([_standardise(X, mean, scale), np.ones((X.shape[0], 1))])
    return classes, mean, scale, Xs, y


def _fit_stack(
    Xs: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-4,
    learning_rate: float = 1.0,
    iterations: int = 400,
) -> np.ndarray:
    """Full-batch gradient descent on a stack of equally shaped problems.

    ``Xs`` is (problems, n, d) with the bias as the last column and ``y``
    is (problems, n, classes); returns the weights, (problems, d, classes).
    Every problem gets the bits it would get on its own: a batched matmul
    runs the same product on each slice, and the row max is taken column
    by column with ``np.maximum``, which is exact.
    """
    n, d = Xs.shape[1:]
    n_classes = y.shape[2]
    Xt = Xs.transpose(0, 2, 1)
    W = np.zeros((len(Xs), d, n_classes))
    for _ in range(iterations):
        logits = Xs @ W
        top = logits[..., 0]
        for j in range(1, n_classes):
            top = np.maximum(top, logits[..., j])
        logits -= top[..., None]
        p = np.exp(logits)
        p /= p.sum(axis=-1, keepdims=True)
        grad = Xt @ (p - y) / n
        grad[:, :-1] += l2 * W[:, :-1]  # no penalty on the bias row
        W -= learning_rate * grad
    return W


def train_classifier(
    X: np.ndarray,
    labels: list[Value],
    seed: int = 0,
    l2: float = 1e-4,
    learning_rate: float = 1.0,
    iterations: int = 400,
) -> LogisticModel:
    """Multinomial logistic regression, deterministic for a given seed.

    Weights start at zero and full-batch gradient descent is run for a
    fixed iteration count, so identical inputs give identical models.
    """
    classes, mean, scale, Xs, y = _prepare(X, labels)
    W = _fit_stack(Xs[None], y[None], l2, learning_rate, iterations)[0]
    return LogisticModel(classes, mean, scale, W)


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


def cross_validate(
    X: np.ndarray,
    labels: list[Value],
    folds: int = 10,
    split_seed: int = 0,
    fold_assign: np.ndarray | None = None,
    classifier_seed: int = 0,
) -> float:
    """Mean test accuracy over the fixed k-fold split.

    Folds whose training sets have the same shape (sample and class
    counts) are fitted together in one batched descent; each fold's model
    is bit-identical to ``train_classifier`` on that fold alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if fold_assign is None:
        fold_assign = make_folds(labels, folds, split_seed)
    tests = [fold_assign == fold for fold in range(int(fold_assign.max()) + 1)]
    fits = [_prepare(X[~test], [l for l, m in zip(labels, test) if not m]) for test in tests]
    groups: dict[tuple, list[int]] = {}
    for i, (_, _, _, Xs, y) in enumerate(fits):
        groups.setdefault((Xs.shape, y.shape), []).append(i)
    weights: dict[int, np.ndarray] = {}
    for members in groups.values():
        W = _fit_stack(np.stack([fits[i][3] for i in members]), np.stack([fits[i][4] for i in members]))
        weights.update(zip(members, W))
    accs = []
    for i, ((classes, mean, scale, _, _), test) in enumerate(zip(fits, tests)):
        clf = LogisticModel(classes, mean, scale, weights[i])
        accs.append(accuracy_score(clf, X[test], [l for l, m in zip(labels, test) if m]))
    return float(np.mean(accs))


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
    walk_budget: int = 2000
    pair_budget: int | None = None
    facts_per_scheme: int = 10
    sampling_epochs: int = 10
    per_epoch_removals: int = 1
    workers: int = 1
    kernel_overrides: tuple[KernelSpec, ...] = ()

    def __post_init__(self) -> None:
        for s in self.strategies:
            if s not in STRATEGIES:
                raise UsageError(f"unknown strategy {s!r}; choose from {STRATEGIES}")
        for r in self.ratios:
            if not (0.0 < r <= 1.0):
                raise UsageError("ratios must lie in (0, 1]")
        if not self.seeds:
            raise UsageError("at least one ensemble seed is required")

    @staticmethod
    def from_dict(doc: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        base = Path(base_dir)
        trainer = TrainConfig(**doc.get("trainer", {}))
        task = doc["task"]
        kernels = tuple(
            KernelSpec(k["relation"], k["attribute"], k["kind"], k.get("sigma"))
            for k in doc.get("kernels", [])
        )
        return ExperimentConfig(
            schema_path=str(base / doc["schema"]),
            data_dir=str(base / doc["data_dir"]),
            task_relation=task["relation"],
            task_attribute=task["attribute"],
            max_length=int(doc.get("max_length", 2)),
            trainer=trainer,
            strategies=tuple(doc.get("strategies", ["kvar"])),
            ratios=tuple(float(r) for r in doc.get("ratios", [0.5])),
            seeds=tuple(int(s) for s in doc.get("seeds", [0, 1, 2, 3, 4])),
            folds=int(doc.get("folds", 10)),
            split_seed=int(doc.get("split_seed", 0)),
            walk_budget=int(doc.get("walk_budget", 2000)),
            pair_budget=doc.get("pair_budget"),
            facts_per_scheme=int(doc.get("facts_per_scheme", 10)),
            sampling_epochs=int(doc.get("sampling_epochs", 10)),
            per_epoch_removals=int(doc.get("per_epoch_removals", 1)),
            workers=int(doc.get("workers", 1)),
            kernel_overrides=kernels,
        )


def apply_kernel_overrides(kernels: KernelMap, overrides: tuple[KernelSpec, ...]) -> KernelMap:
    out = dict(kernels)
    for spec in overrides:
        out[(spec.relation, spec.attribute)] = spec
    return out


# -- experiment run ----------------------------------------------------------------


@dataclass
class CellResult:
    strategy: str
    ratio: float
    seed: int
    curve: TimingCurve
    kept: int
    cv_seconds: float  # spent in the epoch callbacks, outside the curve's clock


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


def _labeled_matrix(model: EmbeddingModel, labeled_ids: list[int]) -> np.ndarray:
    return np.stack([model.phi[f] for f in labeled_ids])


def _run_cell(db: Database, args: dict) -> CellResult:
    """One (strategy, ratio, seed) training run, cross-validated after every
    epoch.  The curve's clock counts training time only."""
    cfg: TrainConfig = replace(args["trainer"], seed=args["seed"])
    curve = TimingCurve(args["strategy"], args["ratio"], args["seed"])
    clock = {"train": 0.0, "cv": 0.0}

    def cb(epoch: int, model: EmbeddingModel, stats) -> None:
        clock["train"] += stats.wall_time
        t0 = time.perf_counter()
        X = _labeled_matrix(model, args["labeled_ids"])
        acc = cross_validate(X, args["labels_list"], fold_assign=args["fold_assign"])
        clock["cv"] += time.perf_counter() - t0
        curve.points.append((clock["train"], acc))

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
        kept = max(1, math.ceil(args["ratio"] * len(args["schemes"])))
    else:
        train(db, args["start"], args["schemes"], cfg, args["kernels"], callbacks=[cb])
        kept = len(args["schemes"])
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
    if strategy == "random":
        return score_random(schemes, cfg.seed)
    if strategy == "length":
        return score_length(schemes)
    if strategy == "mi":
        return score_mi(db, schemes, config.walk_budget, cfg.seed, cfg.retry_cap)
    if strategy == "kvar":
        budget = config.pair_budget
        if budget is None:
            budget = default_pair_budget(db, config.task_relation, cfg)
        return score_kvar(db, schemes, kernels, budget, cfg.seed, cfg.retry_cap)
    if strategy == "one_epoch":
        return score_one_epoch(db, schemes, cfg, kernels)
    if strategy == "sampling":
        return score_sampling(
            db,
            schemes,
            cfg,
            SamplingParams(config.facts_per_scheme, config.sampling_epochs),
            kernels,
        )
    if strategy == "online":
        raise UsageError("strategy 'online' scores schemes during training, not ahead of it")
    raise UsageError(f"unknown strategy {strategy!r}, expected one of: {', '.join(STRATEGIES)}")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    schema = load_schema(config.schema_path)
    raw_db = load_database(schema, config.data_dir)
    db, task = strip_attribute(raw_db, config.task_relation, config.task_attribute)
    if not task.labels:
        raise IntegrityError("prediction attribute has no non-null labels")
    labeled_ids = sorted(task.labels)
    labels_list = [task.labels[f] for f in labeled_ids]
    if len(set(map(str, labels_list))) < 2:
        raise IntegrityError("prediction attribute has a single class; nothing to learn")
    fold_assign = make_folds(labels_list, config.folds, config.split_seed)

    schemes = enumerate_targeted_schemes(db.schema, config.task_relation, config.max_length)
    if not schemes:
        raise UsageError("no targeted walk schemes to train on")
    kernels = apply_kernel_overrides(default_kernels(db), config.kernel_overrides)

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
                kept_counts[("online", ratio)] = max(1, math.ceil(ratio * len(schemes)))
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
    references it, so the reduced database stays valid; the cascade is
    re-inserted together with the prediction facts.
    """
    db, task = strip_attribute(raw_db, task_relation, task_attribute)
    all_ids = list(db.relation_fact_ids(task_relation))
    labeled = [f for f in all_ids if f in task.labels]
    if len(labeled) < 4:
        raise UsageError("too few labeled facts for the dynamic protocol")

    points: list[DynamicPoint] = []
    for q in fractions:
        if not (0.0 < q < 1.0):
            raise UsageError("deletion fractions must lie strictly between 0 and 1")
        rng = derive_rng(seed, "dynamic", repr(q))
        n_remove = max(1, int(round(q * len(labeled))))
        if n_remove >= len(labeled) - 1:
            n_remove = len(labeled) - 2  # keep at least two facts to train on
        chosen = set(
            int(x)
            for x in rng.choice(np.asarray(labeled, dtype=np.int64), size=n_remove, replace=False)
        )
        removed = set(chosen)
        grew = True  # cascade: drop facts referencing removed facts
        while grew:
            grew = False
            for pos, fk in enumerate(db.schema.foreign_keys):
                for dst in list(removed):
                    if db.fact(dst).relation != fk.dst:
                        continue
                    for src in db.back_refs(pos, dst):
                        if src not in removed:
                            removed.add(src)
                            grew = True

        kept_rows = [
            (db.fact(f).relation, db.fact(f).values)
            for f in range(db.n_facts)
            if f not in removed
        ]
        reduced = build_database(db.schema, kept_rows)
        old_to_new = {}
        new_id = 0
        for f in range(db.n_facts):
            if f not in removed:
                old_to_new[f] = new_id
                new_id += 1

        schemes = enumerate_targeted_schemes(db.schema, task_relation, max_length)
        kernels = default_kernels(reduced)
        cfg = replace(trainer, seed=seed)
        if strategy is not None and strategy != "online" and ratio < 1.0:
            assert config is not None, "a full config is required to score strategies"
            scores = compute_scores(strategy, reduced, schemes, cfg, kernels, config)
            schemes = list(select(scores, ratio).kept)
        model, _ = train(reduced, task_relation, schemes, cfg, kernels)

        train_ids = [old_to_new[f] for f in labeled if f not in removed]
        train_labels = [task.labels[f] for f in labeled if f not in removed]
        if len(set(map(str, train_labels))) < 2:
            raise UsageError(
                f"deletion fraction {q} left a single label class; cannot fit a classifier"
            )
        clf = train_classifier(_labeled_matrix(model, train_ids), train_labels)

        insert_order = sorted(removed)
        batch = [Fact(db.fact(f).relation, db.fact(f).values) for f in insert_order]
        extended_db = insert_facts(reduced, batch)
        inserted_new_ids = {
            old: reduced.n_facts + i for i, old in enumerate(insert_order)
        }
        new_pred = [
            inserted_new_ids[f]
            for f in insert_order
            if db.fact(f).relation == task_relation and f in task.labels
        ]
        ext_kernels = default_kernels(extended_db)
        extended = extend_embedding(
            extended_db, model, new_pred, extension, ext_kernels, seed=seed
        )
        X_new = np.stack([extended.phi[f] for f in new_pred])
        y_new = [
            task.labels[f]
            for f in insert_order
            if db.fact(f).relation == task_relation and f in task.labels
        ]
        points.append(DynamicPoint(q, len(new_pred), accuracy_score(clf, X_new, y_new)))
    return points


def write_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus one CSV per ensemble curve; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = out_dir / "report.json"
    tmp = report_path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    tmp.replace(report_path)
    paths.append(report_path)
    for (strategy, ratio), pts in sorted(report.ensembles.items()):
        path = out_dir / f"curve_{strategy}_{ratio:g}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("seconds,accuracy\n")
            for t, a in pts:
                fh.write(f"{t!r},{a!r}\n")
        paths.append(path)
    return paths
