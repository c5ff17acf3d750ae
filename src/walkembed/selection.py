"""Walk-scheme selection strategies.

Training cost grows with the number of targeted walk schemes, so a
selection strategy scores every scheme and only the top fraction is
trained.  Higher score always means "keep".  Strategies:

- random: uniform noise, the control baseline.
- length: 1/length; shorter schemes score higher, length 0 scores 2.
- mutual information: walks are sampled per scheme and the smallest
  empirical mutual information between consecutive walk positions is the
  bottleneck; its negation is the score (an information-poor step makes
  the whole scheme uninformative).  Each step counts only the value pairs
  that occur: O(walks * log walks) time and linear memory.
- kernel variance: the variance of the expected kernel distance across
  start-fact pairs, estimated from sampled walk pairs; a scheme whose
  similarity never varies cannot distinguish tuples.  After sampling, a
  scheme costs one vectorised kernel pass and one grouping of the draws
  by start pair.
- one epoch: train a throwaway model for a single epoch on all schemes
  and score each scheme by its mean loss in that epoch (negated is NOT
  applied: low loss means the scheme is easy to fit and carries little
  signal, so low-loss schemes are dropped, i.e. the loss itself is the
  score).
- sampling: same idea, but ten epochs on a small sampled sub-database
  closed under foreign-key reachability, scored by cumulative mean loss.
- online: no pre-scoring; training starts on all schemes and the lowest
  per-epoch-loss schemes are eliminated after every epoch until the
  target count remains.

Schemes a strategy cannot assess (length 0 for mutual information, no
complete walks, never sampled) are assigned one less than the lowest
finite score, so they are eliminated first, with a diagnostic attached.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import UsageError
from .kernels import (  # noqa: F401  (kernel_eval: bench/layertrace.py patches it here)
    KernelMap,
    default_kernels,
    kd_exact,
    kernel_eval,
    kernel_eval_batch,
    kernel_for,
)
from .relational import Database, build_database
from .schemes import (
    TargetedWalkScheme,
    has_complete_walk,
    sample_target_values_batch,
    sample_walks_batch,
)
from .seeding import derive_rng
from .trainer import EmbeddingModel, EpochStats, TrainConfig, train

STRATEGIES = ("random", "length", "mi", "kvar", "one_epoch", "sampling", "online")


@dataclass(frozen=True)
class SchemeScore:
    tws: TargetedWalkScheme
    score: float
    strategy: str
    diagnostic: str = ""


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    ratio: float
    kept: tuple[TargetedWalkScheme, ...]
    removed: tuple[TargetedWalkScheme, ...]
    scores: tuple[SchemeScore, ...]


def _fill_unassessable(
    schemes: list[TargetedWalkScheme],
    raw: dict[TargetedWalkScheme, float],
    notes: dict[TargetedWalkScheme, str],
    strategy: str,
) -> list[SchemeScore]:
    finite = [v for v in raw.values() if math.isfinite(v)]
    floor = (min(finite) if finite else 0.0) - 1.0
    out = []
    for tws in schemes:
        if tws in raw and math.isfinite(raw[tws]):
            out.append(SchemeScore(tws, raw[tws], strategy, notes.get(tws, "")))
        else:
            note = notes.get(tws, "unassessable")
            out.append(SchemeScore(tws, floor, strategy, note))
    return out


def score_random(schemes: list[TargetedWalkScheme], seed: int) -> list[SchemeScore]:
    rng = derive_rng(seed, "score", "random")
    return [SchemeScore(t, float(rng.uniform(0.0, 1.0)), "random") for t in schemes]


def score_length(schemes: list[TargetedWalkScheme]) -> list[SchemeScore]:
    """1/length, with length 0 above everything at 2."""
    return [
        SchemeScore(t, 2.0 if t.scheme.length == 0 else 1.0 / t.scheme.length, "length")
        for t in schemes
    ]


def _empirical_mi(a: np.ndarray, b: np.ndarray) -> float:
    """Plug-in mutual information (natural log) of two aligned samples.

    Only the value pairs that occur are counted, so time is O(n log n) and
    memory O(n) in the sample size n, whatever the number of distinct
    values on either side."""
    _, ia = np.unique(a, return_inverse=True)
    vb, ib = np.unique(b, return_inverse=True)
    n = len(ia)
    pairs, counts = np.unique(ia * len(vb) + ib, return_counts=True)
    pij = counts / n
    pa = np.bincount(ia) / n
    pb = np.bincount(ib) / n
    mi = float(np.sum(pij * np.log(pij / (pa[pairs // len(vb)] * pb[pairs % len(vb)]))))
    return max(0.0, mi)


def score_mi(
    db: Database,
    schemes: list[TargetedWalkScheme],
    walk_budget: int,
    seed: int,
    retry_cap: int = 20,
) -> list[SchemeScore]:
    """Score = -min over consecutive positions of empirical mutual
    information, from ``walk_budget`` complete walks per scheme (uniform
    start fact; dead walks redrawn up to the retry cap)."""
    if walk_budget <= 0:
        raise UsageError("walk_budget must be positive")
    raw: dict[TargetedWalkScheme, float] = {}
    notes: dict[TargetedWalkScheme, str] = {}
    for idx, tws in enumerate(schemes):
        if tws.scheme.length == 0:
            notes[tws] = "length-0 scheme: no step pairs to assess"
            continue
        start_ids = np.asarray(
            db.relation_fact_ids(tws.scheme.start_relation), dtype=np.int64
        )
        if len(start_ids) == 0:
            notes[tws] = "start relation is empty"
            continue
        rng = derive_rng(seed, "score", "mi", idx)
        rows: list[np.ndarray] = []
        need = walk_budget
        for _ in range(max(1, retry_cap)):
            if need <= 0:
                break
            starts = start_ids[rng.integers(0, len(start_ids), size=need)]
            paths = sample_walks_batch(db, starts, tws.scheme, rng)
            ok = paths[:, -1] >= 0
            if ok.any():
                rows.append(paths[ok])
                need -= int(ok.sum())
        if not rows:
            notes[tws] = "no complete walks within the retry cap"
            continue
        walks = np.concatenate(rows, axis=0)
        mi_per_step = [
            _empirical_mi(walks[:, i], walks[:, i + 1]) for i in range(tws.scheme.length)
        ]
        raw[tws] = -min(mi_per_step)
        notes[tws] = f"walks={len(walks)}"
    return _fill_unassessable(schemes, raw, notes, "mi")


def _unbiased_variance(values: Sequence[float] | np.ndarray) -> float | None:
    if len(values) < 2:
        return None
    return float(np.var(np.asarray(values, dtype=np.float64), ddof=1))


def default_pair_budget(db: Database, start_relation: str, cfg: TrainConfig) -> int:
    """A tenth of the trainer's per-scheme sample count per epoch."""
    n = len(db.relation_fact_ids(start_relation)) * cfg.n_samples
    return max(2, round(0.1 * n))


def score_kvar(
    db: Database,
    schemes: list[TargetedWalkScheme],
    kernels: KernelMap,
    pair_budget: int,
    seed: int,
    retry_cap: int = 20,
) -> list[SchemeScore]:
    """Variance of the expected kernel distance across start pairs.

    Each draw takes a uniform pair f != f', one destination value from
    each side, and uses the kernel of the two values as a one-sample
    estimate of the pair's expected kernel distance; estimates are
    averaged per pair before the unbiased variance is taken.  Draws where
    either side found no non-null destination within the retry cap are
    left out."""
    if pair_budget < 2:
        raise UsageError("pair_budget must be at least 2")
    raw: dict[TargetedWalkScheme, float] = {}
    notes: dict[TargetedWalkScheme, str] = {}
    for idx, tws in enumerate(schemes):
        start_ids = np.asarray(
            db.relation_fact_ids(tws.scheme.start_relation), dtype=np.int64
        )
        m = len(start_ids)
        if m < 2:
            notes[tws] = "fewer than two start facts"
            continue
        rng = derive_rng(seed, "score", "kvar", idx)
        spec = kernel_for(kernels, tws)
        pos_a = rng.integers(0, m, size=pair_budget)
        pos_b = (pos_a + 1 + rng.integers(0, m - 1, size=pair_budget)) % m
        facts_a = start_ids[pos_a]
        facts_b = start_ids[pos_b]
        dests_a, vals_a = sample_target_values_batch(db, facts_a, tws, rng, retry_cap)
        dests_b, vals_b = sample_target_values_batch(db, facts_b, tws, rng, retry_cap)
        ok = np.flatnonzero((dests_a >= 0) & (dests_b >= 0))
        k = kernel_eval_batch(spec, [vals_a[i] for i in ok], [vals_b[i] for i in ok])
        lo = np.minimum(facts_a[ok], facts_b[ok])
        hi = np.maximum(facts_a[ok], facts_b[ok])
        _, pair = np.unique(lo * db.n_facts + hi, return_inverse=True)
        means = np.bincount(pair, weights=k) / np.bincount(pair)
        var = _unbiased_variance(means)
        if var is None:
            notes[tws] = f"only {len(means)} assessable pair(s) within the retry cap"
            continue
        raw[tws] = var
        notes[tws] = f"pairs={len(means)}"
    return _fill_unassessable(schemes, raw, notes, "kvar")


def score_kvar_exact(
    db: Database, schemes: list[TargetedWalkScheme], kernels: KernelMap
) -> list[SchemeScore]:
    """Exhaustive kernel-variance: exact expected kernel distance for every
    unordered start pair.  Only viable on small databases."""
    raw: dict[TargetedWalkScheme, float] = {}
    notes: dict[TargetedWalkScheme, str] = {}
    for tws in schemes:
        start_ids = db.relation_fact_ids(tws.scheme.start_relation)
        spec = kernel_for(kernels, tws)
        values = []
        complete = [f for f in start_ids if has_complete_walk(db, f, tws.scheme)]
        for i, fa in enumerate(complete):
            for fb in complete[i + 1 :]:
                values.append(kd_exact(db, fa, fb, tws, spec))
        var = _unbiased_variance(values)
        if var is None:
            notes[tws] = f"only {len(values)} assessable pair(s)"
            continue
        raw[tws] = var
        notes[tws] = f"pairs={len(values)}"
    return _fill_unassessable(schemes, raw, notes, "kvar")


def score_one_epoch(
    db: Database,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    kernels: KernelMap | None = None,
) -> list[SchemeScore]:
    """Mean per-scheme loss over one from-scratch epoch on a throwaway
    model.  Low loss means easy to fit, hence uninformative, hence the
    loss itself is the keep score."""
    one = replace(cfg, epochs=1)
    start = schemes[0].scheme.start_relation if schemes else ""
    if not schemes:
        raise UsageError("scheme list is empty")
    _, history = train(db, start, schemes, one, kernels)
    losses = history[0].epoch_mean_loss
    raw = {t: losses[t] for t in schemes if t in losses}
    notes = {
        t: "no samples survived the retry cap" for t in schemes if t not in losses
    }
    return _fill_unassessable(schemes, raw, notes, "one_epoch")


# -- sampled sub-database -----------------------------------------------------


def build_sample_database(
    db: Database,
    schemes: list[TargetedWalkScheme],
    facts_per_scheme: int,
    seed: int,
) -> tuple[Database, dict[int, int]]:
    """Small database for cheap scheme scoring.

    Per scheme, up to ``facts_per_scheme`` start facts that admit at least
    one complete walk are drawn uniformly; the union is closed under
    foreign-key reachability in both directions, so every reference
    resolves.  Returns the new database and a map from old fact id to new.
    """
    if facts_per_scheme <= 0:
        raise UsageError("facts_per_scheme must be positive")
    rng = derive_rng(seed, "sample-db")
    seeds: set[int] = set()
    for tws in schemes:
        eligible = [
            f
            for f in db.relation_fact_ids(tws.scheme.start_relation)
            if has_complete_walk(db, f, tws.scheme)
        ]
        if not eligible:
            continue
        take = min(facts_per_scheme, len(eligible))
        picked = rng.choice(np.asarray(eligible, dtype=np.int64), size=take, replace=False)
        seeds.update(int(x) for x in picked)

    closed: set[int] = set()
    frontier = list(seeds)
    while frontier:
        fid = frontier.pop()
        if fid in closed:
            continue
        closed.add(fid)
        fact = db.fact(fid)
        for pos, fk in enumerate(db.schema.foreign_keys):
            if fk.src == fact.relation:
                dst = db.forward_ref(pos, fid)
                if dst is not None and dst not in closed:
                    frontier.append(dst)
            if fk.dst == fact.relation:
                for src in db.back_refs(pos, fid):
                    if src not in closed:
                        frontier.append(src)

    ordered = sorted(closed)
    rows = [(db.fact(fid).relation, db.fact(fid).values) for fid in ordered]
    sub = build_database(db.schema, rows)
    return sub, {old: new for new, old in enumerate(ordered)}


@dataclass(frozen=True)
class SamplingParams:
    facts_per_scheme: int = 10
    epochs: int = 10


def score_sampling(
    db: Database,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    params: SamplingParams = SamplingParams(),
    kernels: KernelMap | None = None,
) -> list[SchemeScore]:
    """Cumulative mean loss after ``params.epochs`` epochs on the sampled
    sub-database; the throwaway model is discarded."""
    if not schemes:
        raise UsageError("scheme list is empty")
    sub, _ = build_sample_database(db, schemes, params.facts_per_scheme, cfg.seed)
    start = schemes[0].scheme.start_relation
    if len(sub.relation_fact_ids(start)) < 2:
        raise UsageError(
            "sampled sub-database has fewer than two start facts; raise facts_per_scheme"
        )
    sub_cfg = replace(cfg, epochs=params.epochs)
    sub_kernels = default_kernels(sub) if kernels is None else kernels
    _, history = train(sub, start, schemes, sub_cfg, sub_kernels)
    cumulative = history[-1].cumulative_mean_loss
    raw = {t: cumulative[t] for t in schemes if t in cumulative}
    notes = {
        t: "never sampled on the sub-database" for t in schemes if t not in cumulative
    }
    return _fill_unassessable(schemes, raw, notes, "sampling")


# -- selection ----------------------------------------------------------------


def select(scores: list[SchemeScore], ratio: float) -> SelectionResult:
    """Keep the top ceil(ratio * N) schemes by score.

    Ties break toward the earlier scheme in the given (canonical) order.
    """
    if not scores:
        raise UsageError("no scores to select from")
    if not (0.0 < ratio <= 1.0):
        raise UsageError("ratio must be in (0, 1]")
    n_keep = math.ceil(ratio * len(scores))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i].score, i))
    kept_idx = sorted(order[:n_keep])
    removed_idx = sorted(order[n_keep:])
    return SelectionResult(
        strategy=scores[0].strategy,
        ratio=ratio,
        kept=tuple(scores[i].tws for i in kept_idx),
        removed=tuple(scores[i].tws for i in removed_idx),
        scores=tuple(scores),
    )


def ranked(scores: list[SchemeScore]) -> list[tuple[int, SchemeScore]]:
    """(rank, score) pairs, rank 1 = highest score, ties by input order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i].score, i))
    ranks = [0] * len(scores)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return [(ranks[i], scores[i]) for i in range(len(scores))]


# -- online elimination -------------------------------------------------------


@dataclass
class OnlineSchedule:
    """Scheme counts observed after each epoch, for reporting."""

    counts: list[int] = field(default_factory=list)
    removed: list[tuple[TargetedWalkScheme, ...]] = field(default_factory=list)


def online_elimination_train(
    db: Database,
    start_relation: str,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    ratio: float,
    per_epoch_removals: int = 1,
    kernels: KernelMap | None = None,
    callbacks: list | None = None,
    remove_highest: bool = False,
) -> tuple[EmbeddingModel, list[EpochStats], OnlineSchedule]:
    """Train once while eliminating schemes after each epoch.

    After epoch i the bottom ``per_epoch_removals`` active schemes by that
    epoch's mean loss are dropped (never below ceil(ratio * N)); dropped
    schemes keep their frozen psi.  With ratio 1 nothing is ever removed
    and the run is identical to plain training under the same seed.
    ``remove_highest`` inverts the criterion; it exists as an experiment
    baseline, not as a recommended mode.
    """
    n = len(schemes)
    if n == 0:
        raise UsageError("scheme list is empty")
    if not (0.0 < ratio <= 1.0):
        raise UsageError("ratio must be in (0, 1]")
    floor = math.ceil(ratio * n)
    if floor < 1:
        raise UsageError(f"ratio {ratio} would keep zero of {n} schemes")
    if per_epoch_removals < 1:
        raise UsageError("per_epoch_removals must be at least 1")
    schedule = OnlineSchedule()
    index_of = {t: i for i, t in enumerate(schemes)}

    def eliminate(epoch: int, model: EmbeddingModel, stats: EpochStats) -> None:
        active = list(model.active_schemes)
        n_remove = min(per_epoch_removals, len(active) - floor)
        if n_remove <= 0:
            schedule.counts.append(len(active))
            schedule.removed.append(())
            return
        # Schemes that produced no samples this epoch carry no signal;
        # they sort below every real loss and go first.
        def key(tws: TargetedWalkScheme):
            loss = stats.epoch_mean_loss.get(tws, -1.0)
            return (-loss if remove_highest else loss, index_of[tws])

        victims = sorted(active, key=key)[:n_remove]
        model.active_schemes = [t for t in active if t not in set(victims)]
        schedule.counts.append(len(model.active_schemes))
        schedule.removed.append(tuple(victims))

    model, history = train(
        db,
        start_relation,
        schemes,
        cfg,
        kernels,
        callbacks=[eliminate, *(callbacks or ())],
    )
    return model, history, schedule
