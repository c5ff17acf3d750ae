"""Walk-scheme selection strategies.

Training cost grows with the number of targeted walk schemes, so a
selection strategy scores every scheme and only the top fraction is
trained.  Higher score always means "keep".  Strategies:

- random: uniform noise, the control baseline.
- length: 1/length; shorter schemes score higher, length 0 scores 2.
- mutual information: the smallest mutual information between
  consecutive walk positions is the bottleneck; its negation is the score
  (an information-poor step makes the whole scheme uninformative).  It is
  exact, under the law of complete walks, and samples nothing: a step's
  mutual information is the entropy of its referenced side, read from the
  row-space walk law (``schemes.row_walk_laws``), linear in the
  foreign-key edges the steps cross.  The target attribute plays no part,
  so this is a property of the walk scheme and all of its targets share
  one score.
- kernel variance: the variance of the expected kernel distance across
  start-fact pairs, estimated from sampled walk pairs; a scheme whose
  similarity never varies cannot distinguish tuples.  After sampling, a
  scheme costs one vectorised kernel pass over the sampled codes or
  floats and one grouping of the draws by start pair.
- one epoch: train a throwaway model for a single epoch on all schemes
  and score each scheme by its mean loss in that epoch (negated is NOT
  applied: low loss means the scheme is easy to fit and carries little
  signal, so low-loss schemes are dropped, i.e. the loss itself is the
  score).
- sampling: same idea, but ten epochs on a small sampled sub-database
  closed under foreign-key reachability, scored by cumulative mean loss.
  Its start facts are drawn among those the row-space walk law gives a
  chance of completing.
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
    column_kernel,
    default_kernels,
    kernel_eval,
    kernel_for,
)
from .relational import Database, closure, take
from .schemes import (  # noqa: F401  (sample_walks_batch: bench/layertrace.py patches it here)
    FORWARD,
    TargetedWalkScheme,
    exact_value_law,
    row_walk_laws,
    sample_target_values_batch,
    sample_walks_batch,
)
from .seeding import derive_rng
from .trainer import EmbeddingModel, EpochStats, TrainConfig, train

STRATEGIES = ("random", "length", "mi", "kvar", "one_epoch", "sampling", "online")


def check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}, expected one of: {', '.join(STRATEGIES)}")


def check_ratio(ratio: float) -> None:
    """A keep ratio must lie in (0, 1]; NaN does not."""
    if not 0.0 < ratio <= 1.0:
        raise UsageError(f"ratio must be in (0, 1], got {ratio!r}")


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
    schemes: list[TargetedWalkScheme], raw: list[float], notes: list[str], strategy: str
) -> list[SchemeScore]:
    """Scores from ``raw`` and ``notes``, both by position in ``schemes``:
    a non-finite (NaN: not assessed) score becomes one less than the
    lowest finite one."""
    floor = min((v for v in raw if math.isfinite(v)), default=0.0) - 1.0
    return [
        SchemeScore(t, v if math.isfinite(v) else floor, strategy, note)
        for t, v, note in zip(schemes, raw, notes)
    ]


def score_random(schemes: list[TargetedWalkScheme], seed: int) -> list[SchemeScore]:
    rng = derive_rng(seed, "score", "random")
    return [SchemeScore(t, float(rng.uniform(0.0, 1.0)), "random") for t in schemes]


def score_length(schemes: list[TargetedWalkScheme]) -> list[SchemeScore]:
    """1/length, with length 0 above everything at 2."""
    return [
        SchemeScore(t, 2.0 if t.scheme.length == 0 else 1.0 / t.scheme.length, "length")
        for t in schemes
    ]


def _entropy(mass: np.ndarray) -> float:
    """Entropy (natural log) of ``mass`` normalised, clamped at 0."""
    p = mass[mass > 0]
    p = p / p.sum()
    return max(0.0, float(-np.sum(p * np.log(p))))


def score_mi(
    db: Database,
    schemes: list[TargetedWalkScheme],
    walk_budget: int | None = None,
    seed: int | None = None,
) -> list[SchemeScore]:
    """Score = -min over steps of the exact mutual information between
    consecutive walk positions, under the law of complete walks: a uniform
    start fact, uniform steps, conditioned on completing.

    One position of a foreign-key step is a function of the other, so a
    step's mutual information is the entropy of its referenced side, whose
    law is the chance of reaching each row times the chance of completing
    from it (``row_walk_laws``).  Nothing is sampled, so
    ``walk_budget`` and ``seed`` are ignored, kept for callers that pass
    them.  The target attribute plays no part, so all targets of a walk
    scheme share its score and note, unassessable ones included."""
    raw, notes = [math.nan] * len(schemes), [""] * len(schemes)
    first = {tws.scheme: idx for idx, tws in reversed(list(enumerate(schemes)))}  # earliest wins
    laws = row_walk_laws(db, (scheme for scheme in first if scheme.length))
    for scheme, idx in first.items():
        if scheme.length == 0:
            notes[idx] = "length-0 scheme: no step pairs to assess"
            continue
        reach, finish = laws[scheme]
        if not len(finish[0]):
            notes[idx] = "start relation is empty"
            continue
        completing = np.count_nonzero(finish[0])
        if not completing:
            notes[idx] = "no complete walks"
            continue
        referenced = [i + 1 if step.direction == FORWARD else i for i, step in enumerate(scheme.steps)]
        raw[idx] = 0.0 - min(_entropy(reach[i] * finish[i]) for i in referenced)  # 0.0, not -0.0
        notes[idx] = f"walks=exact, from {completing} of {len(finish[0])} start facts"
    at = [first[tws.scheme] for tws in schemes]  # each target takes its walk scheme's score
    return _fill_unassessable(schemes, [raw[i] for i in at], [notes[i] for i in at], "mi")


def _unbiased_variance(values: Sequence[float] | np.ndarray) -> float | None:
    if len(values) < 2:
        return None
    return float(np.var(np.asarray(values, dtype=np.float64), ddof=1))


def default_pair_budget(db: Database, start_relation: str, cfg: TrainConfig) -> int:
    """A tenth of the trainer's per-scheme sample count per epoch."""
    n = len(db.relation_fact_ids(start_relation)) * cfg.n_samples
    return max(2, round(0.1 * n))


def _start_arrays(db: Database, schemes: list[TargetedWalkScheme]) -> dict[str, np.ndarray]:
    """The fact ids of each start relation among ``schemes`` as one int64
    array, made once per scoring pass rather than once per scheme."""
    return {
        rel: np.asarray(db.relation_fact_ids(rel), dtype=np.int64)
        for rel in {t.scheme.start_relation for t in schemes}
    }


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
    raw, notes = [math.nan] * len(schemes), [""] * len(schemes)
    start_arrays = _start_arrays(db, schemes)
    for idx, tws in enumerate(schemes):
        start_ids = start_arrays[tws.scheme.start_relation]
        m = len(start_ids)
        if m < 2:
            notes[idx] = "fewer than two start facts"
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
        k = column_kernel(spec, vals_a[ok], vals_b[ok])
        lo = np.minimum(facts_a[ok], facts_b[ok])
        hi = np.maximum(facts_a[ok], facts_b[ok])
        _, pair = np.unique(lo * db.n_facts + hi, return_inverse=True)
        means = np.bincount(pair, weights=k) / np.bincount(pair)
        var = _unbiased_variance(means)
        if var is None:
            notes[idx] = f"only {len(means)} assessable pair(s) within the retry cap"
            continue
        raw[idx] = var
        notes[idx] = f"pairs={len(means)}"
    return _fill_unassessable(schemes, raw, notes, "kvar")


def score_kvar_exact(
    db: Database, schemes: list[TargetedWalkScheme], kernels: KernelMap
) -> list[SchemeScore]:
    """Exhaustive kernel-variance: exact expected kernel distance for every
    unordered pair of start facts whose value law is not empty (a start
    with no complete walk, or whose walks all end on nulls, is left out).

    Per scheme the value laws form a dense matrix P (assessable starts x
    distinct target values) and the kernel a dense matrix K over those
    values; the distances are the upper triangle of P K P^T.  Memory is
    8 bytes times (starts x values + values^2 + starts^2), so this is
    for small databases or small domains."""
    raw, notes = [math.nan] * len(schemes), [""] * len(schemes)
    for idx, tws in enumerate(schemes):
        start_ids = db.relation_fact_ids(tws.scheme.start_relation)
        spec = kernel_for(kernels, tws)
        row, value, weight = exact_value_law(db, tws, start_ids)
        starts, at_start = np.unique(row, return_inverse=True)
        domain, at_value = np.unique(value, return_inverse=True)
        law = np.zeros((len(starts), len(domain)))
        law[at_start, at_value] = weight
        n = len(domain)
        gram = column_kernel(spec, np.repeat(domain, n), np.tile(domain, n), exact=True)
        kd = law @ gram.reshape(n, n) @ law.T
        pairs = kd[np.triu_indices(len(starts), 1)]
        var = _unbiased_variance(pairs)
        if var is None:
            notes[idx] = f"only {len(pairs)} assessable pair(s)"
            continue
        raw[idx] = var
        notes[idx] = f"pairs={len(pairs)}"
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
    raw = [losses.get(t, math.nan) for t in schemes]
    notes = ["" if t in losses else "no samples survived the retry cap" for t in schemes]
    return _fill_unassessable(schemes, raw, notes, "one_epoch")


# -- sampled sub-database -----------------------------------------------------


def build_sample_database(
    db: Database,
    schemes: list[TargetedWalkScheme],
    facts_per_scheme: int,
    seed: int,
) -> tuple[Database, dict[int, int]]:
    """Small database for cheap scheme scoring.

    Per targeted scheme, up to ``facts_per_scheme`` start facts that admit
    a complete walk (``finish[0] > 0`` of ``row_walk_laws``, once per walk
    scheme) are drawn uniformly; the union is closed under foreign-key
    reachability in both directions (``closure``), so every reference
    resolves, and ``take`` keeps the members in id order without decoding
    them; the sub-database shares ``db``'s value tables.  Returns the new
    database and a map from old fact id to new.
    """
    if facts_per_scheme <= 0:
        raise UsageError("facts_per_scheme must be positive")
    rng = derive_rng(seed, "sample-db")
    start_arrays = _start_arrays(db, schemes)
    eligible_of = {
        scheme: start_arrays[scheme.start_relation][finish[0] > 0]
        for scheme, (_, finish) in row_walk_laws(db, (tws.scheme for tws in schemes)).items()
    }
    closed = np.zeros(db.n_facts, dtype=bool)
    for tws in schemes:
        eligible = eligible_of[tws.scheme]
        if not len(eligible):
            continue
        size = min(facts_per_scheme, len(eligible))
        closed[rng.choice(eligible, size=size, replace=False)] = True

    # a fact joins when it references a member or a member references it
    ordered = np.flatnonzero(closure(db, closed, referencing=True, referenced=True))
    return take(db, ordered), {old: new for new, old in enumerate(ordered.tolist())}


def score_sampling(
    db: Database,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    facts_per_scheme: int = 10,
    epochs: int = 10,
    kernels: KernelMap | None = None,
) -> list[SchemeScore]:
    """Cumulative mean loss after ``epochs`` epochs on the sub-database of
    ``build_sample_database``; the throwaway model is discarded."""
    if not schemes:
        raise UsageError("scheme list is empty")
    if epochs < 1:
        raise UsageError(f"sampling epochs must be at least 1, got {epochs}")
    sub, _ = build_sample_database(db, schemes, facts_per_scheme, cfg.seed)
    start = schemes[0].scheme.start_relation
    if len(sub.relation_fact_ids(start)) < 2:
        raise UsageError(
            "sampled sub-database has fewer than two start facts; raise facts_per_scheme"
        )
    sub_cfg = replace(cfg, epochs=epochs)
    sub_kernels = default_kernels(sub) if kernels is None else kernels
    _, history = train(sub, start, schemes, sub_cfg, sub_kernels)
    cumulative = history[-1].cumulative_mean_loss
    raw = [cumulative.get(t, math.nan) for t in schemes]
    notes = ["" if t in cumulative else "never sampled on the sub-database" for t in schemes]
    return _fill_unassessable(schemes, raw, notes, "sampling")


# -- selection ----------------------------------------------------------------


def select(scores: list[SchemeScore], ratio: float) -> SelectionResult:
    """Keep the top ceil(ratio * N) schemes by score.

    Ties break toward the earlier scheme in the given (canonical) order.
    """
    if not scores:
        raise UsageError("no scores to select from")
    check_ratio(ratio)
    n_keep = math.ceil(ratio * len(scores))
    keep = [rank <= n_keep for rank, _ in ranked(scores)]
    return SelectionResult(
        strategy=scores[0].strategy,
        ratio=ratio,
        kept=tuple(sc.tws for sc, k in zip(scores, keep) if k),
        removed=tuple(sc.tws for sc, k in zip(scores, keep) if not k),
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
) -> tuple[EmbeddingModel, list[EpochStats], OnlineSchedule]:
    """Train once while eliminating schemes after each epoch.

    After epoch i the bottom ``per_epoch_removals`` active schemes by that
    epoch's mean loss are dropped (never below ceil(ratio * N)); dropped
    schemes keep their frozen psi.  With ratio 1 nothing is ever removed
    and the run is identical to plain training under the same seed.
    """
    n = len(schemes)
    if n == 0:
        raise UsageError("scheme list is empty")
    check_ratio(ratio)
    floor = math.ceil(ratio * n)
    if per_epoch_removals < 1:
        raise UsageError("per_epoch_removals must be at least 1")
    schedule = OnlineSchedule()

    def eliminate(epoch: int, model: EmbeddingModel, stats: EpochStats) -> None:
        active = list(model.active_schemes)
        n_remove = min(per_epoch_removals, len(active) - floor)
        if n_remove <= 0:
            schedule.counts.append(len(active))
            schedule.removed.append(())
            return
        # Schemes that produced no samples this epoch carry no signal; they
        # sort below every real loss and go first.  active keeps the given
        # order and the sort is stable, so ties go to the earlier scheme.
        victims = sorted(active, key=lambda t: stats.epoch_mean_loss.get(t, -1.0))[:n_remove]
        model.active_schemes = [t for t in active if t not in victims]
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
