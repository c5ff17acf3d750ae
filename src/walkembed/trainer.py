"""Bilinear embedding trainer.

Each start-relation fact f gets a vector phi(f); each targeted walk scheme
(s, A) gets a symmetric matrix psi(s, A).  The model holds them as two
arrays read by key (``KeyedRows``): phi facts x k, psi schemes x k x k.
Training drives the bilinear form phi(f)^T psi(s,A) phi(f') toward the
expected kernel distance of the pair under the scheme, using single-sample
SGD: the regression target for one update is the kernel applied to one
sampled destination value from each side, an unbiased estimate of the
expected kernel distance.

Epoch procedure (fixed, so runs are reproducible from the seed alone):
for every scheme in active order, every start fact contributes
``n_samples`` draws, each pairing it with a uniform partner fact distinct
from it; destination values are sampled per side with dead ends and null
destinations retried up to ``retry_cap`` attempts; pairs still incomplete
are skipped and counted.  All surviving samples of the epoch are then
shuffled by one seeded permutation and applied level by level (below).

Cost: a scheme is its position.  Its psi row is its position in the run's
scheme list, and within an epoch each sample names its scheme by position
in the active list, so neither the sampling phase nor the loss sums hash
scheme dataclasses; only the returned ``EpochStats`` dicts are keyed by
scheme.  The shuffled updates then run level by level (see
``_apply_levels``), packed by first fit (``_levels``): walking them in
shuffle order, each takes the lowest level that no earlier update of its
fact row or its partner row holds.  Updates of one level touch disjoint phi
rows (a partner is never its own fact) and all read the level-start phi
and psi, so a level runs as one stack of numpy operations on gathered
copies.  Each phi row gets its updates in level order, which need not be
shuffle order, with ``sgd_step``'s arithmetic, to the bit: numpy's stacked
``matmul`` calls the same BLAS gemv and ddot per element as the 1-D
products, and the rest is elementwise in the same expression order.  psi
is the one densely shared parameter, so the updates of a level may share a
scheme matrix: the matrix takes one step by the sum of their symmetrised
gradients, added in shuffle order.  The rows follow DSGD's conflict-free
strata (Gemulla et al., KDD 2011) and psi a Hogwild!-style summed update
(Niu et al., NeurIPS 2011).  A matrix with one update in its level takes
``sgd_step``'s psi step.  A level costs about two dozen numpy calls, plus
one in-place add per further update of its busiest matrix: at k=16 on a
2-vCPU Xeon VM about 18 µs for one update, 2.5 µs per further update and
1 µs per add.  With 16 schemes on 80 start facts an epoch's 2560 updates
run in about 80 levels of about 32 updates, as many levels as the busiest
row has updates, against about 210 when an update went one level above
the highest level of its two rows.  ``_apply_levels`` then takes about
7 ms an epoch, 0.6 ms of it finding the levels, against about 9.5 ms
(0.2 ms): about 2.7 µs an update, against 14-20 µs for one ``sgd_step``
call.  With two start facts every level holds one update.  A fixed seed
fixes phi, psi and the losses (tests/test_golden.py holds their hashes).

Kernel targets come from arrays: the sampler returns each scheme's target
column gathered at the walk destinations, a sample is skipped where either
side has no destination, equality kernels compare codes, and the
Gaussian's argument is computed with numpy and ``math.exp`` applied per
element.  That is the scalar ``kernel_eval`` to the bit; ``np.exp`` can
round the Gaussian differently.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, UsageError
from .kernels import (  # noqa: F401  (kernel_eval: bench/layertrace.py patches it here)
    KernelMap,
    column_kernel,
    default_kernels,
    kernel_eval,
    kernel_for,
)
from .relational import Database
from .schemes import TargetedWalkScheme, sample_target_values_batch, targeted_text
from .seeding import derive_rng


@dataclass(frozen=True)
class TrainConfig:
    k: int = 32
    n_samples: int = 5
    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 0
    retry_cap: int = 20

    def __post_init__(self) -> None:
        if self.k <= 0 or self.n_samples <= 0 or self.epochs < 0:
            raise UsageError("k and n_samples must be positive, epochs non-negative")
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")
        if self.retry_cap < 1:
            raise UsageError("retry_cap must be at least 1")


class KeyedRows(Mapping):
    """The rows of one stacked array, read by key in row order: ``rows[key]``
    is a view that writes into ``data``, and ``take(keys)`` stacks a copy."""

    def __init__(self, keys: Iterable, data: np.ndarray) -> None:
        self.data, self.index = data, {key: i for i, key in enumerate(keys)}

    def __getitem__(self, key) -> np.ndarray:
        return self.data[self.index[key]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def take(self, keys: Iterable) -> np.ndarray:
        return self.data[[self.index[key] for key in keys]]

    def first_non_finite(self):
        """The key of the first row holding a non-finite number, or None."""
        bad = ~np.isfinite(self.data.reshape(len(self.data), -1)).all(axis=1)
        return list(self.index)[int(bad.argmax())] if bad.any() else None


@dataclass
class EmbeddingModel:
    """phi and psi as ``KeyedRows``: a dict of rows is copied into one new array, a view is shared."""

    k: int
    start_relation: str
    phi: KeyedRows
    psi: KeyedRows
    active_schemes: list[TargetedWalkScheme]

    def __post_init__(self) -> None:
        for name, shape in (("phi", (self.k,)), ("psi", (self.k, self.k))):
            rows = getattr(self, name)
            if not isinstance(rows, KeyedRows):
                data = np.array(list(rows.values()), dtype=np.float64).reshape(-1, *shape)
                setattr(self, name, KeyedRows(rows, data))


@dataclass
class EpochStats:
    epoch_index: int
    # keyed in the order the epoch's shuffle first reached each scheme, which
    # is also the order of training_log.csv's rows
    epoch_mean_loss: dict[TargetedWalkScheme, float]
    # keyed in psi row order, over every scheme sampled in some epoch so far
    cumulative_mean_loss: dict[TargetedWalkScheme, float]
    samples_used: int
    samples_skipped: int
    wall_time: float
    active_schemes: tuple[TargetedWalkScheme, ...]
    # seconds spent drawing walks, evaluating kernel targets, applying
    # updates and checking finiteness; they add up to at most wall_time
    phase_seconds: dict[str, float]
    # row-disjoint batches the updates ran in (see _levels): at most
    # samples_used; at least the largest number D of updates that touch one
    # phi row, and by first fit at most 2D - 1
    sgd_levels: int


def init_model(
    db: Database,
    start_relation: str,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
) -> EmbeddingModel:
    """Fresh model: phi entries i.i.d. uniform on (-1/sqrt(k), 1/sqrt(k)),
    psi the identity.  Deterministic under cfg.seed.  Every scheme must
    start at ``start_relation`` and be listed once, else UsageError."""
    if not schemes:
        raise UsageError("scheme list is empty")
    seen: set[TargetedWalkScheme] = set()
    for tws in schemes:
        if tws.scheme.start_relation != start_relation:
            raise UsageError(
                f"scheme {targeted_text(tws)} does not start at {start_relation!r}"
            )
        # each occurrence would be sampled, and all but one copy of its psi updates lost
        if tws in seen:
            raise UsageError(f"scheme {targeted_text(tws)} is listed more than once")
        seen.add(tws)
    rng = derive_rng(cfg.seed, "init")
    bound = 1.0 / np.sqrt(cfg.k)
    ids = db.relation_fact_ids(start_relation)
    phi = KeyedRows(ids, rng.uniform(-bound, bound, size=(len(ids), cfg.k)))
    psi = KeyedRows(schemes, np.tile(np.eye(cfg.k), (len(schemes), 1, 1)))
    return EmbeddingModel(cfg.k, start_relation, phi, psi, list(schemes))


def bilinear(model: EmbeddingModel, fact: int, partner: int, tws: TargetedWalkScheme) -> float:
    return float(model.phi[fact] @ model.psi[tws] @ model.phi[partner])


def loss_and_grads(
    phi_f: np.ndarray, phi_p: np.ndarray, psi: np.ndarray, kappa: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample loss 0.5 * (phi_f^T psi phi_p - kappa)^2 and its gradients
    with respect to phi_f, phi_p, and the (unconstrained) psi matrix."""
    residual = float(phi_f @ psi @ phi_p) - kappa
    loss = 0.5 * residual * residual
    grad_f = residual * (psi @ phi_p)
    grad_p = residual * (psi.T @ phi_f)
    grad_psi = residual * np.outer(phi_f, phi_p)
    return loss, grad_f, grad_p, grad_psi


def sgd_step(
    phi_f: np.ndarray, phi_p: np.ndarray, psi: np.ndarray, kappa: float, learning_rate: float
) -> float:
    """One update of the rows phi_f, phi_p and the matrix psi, in place.

    All gradients use pre-update values, and the psi update is
    symmetrised so psi stays exactly symmetric.  Returns the pre-update
    loss; a non-finite loss raises before anything is written.  The
    arithmetic is that of ``loss_and_grads`` to the bit: ``phi_f @ psi``
    is computed once and serves both the prediction and grad_p (it runs
    the same matrix-vector product as ``psi.T @ phi_f``).  Training runs
    the same arithmetic on stacks of updates, and sums the psi steps of
    updates that share a matrix within a level (``_apply_levels``).
    """
    row = phi_f @ psi
    residual = float(row @ phi_p) - kappa
    loss = 0.5 * residual * residual
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss (kappa={kappa})")
    grad_f = residual * (psi @ phi_p)
    grad_psi = residual * (phi_f[:, None] * phi_p)
    phi_f -= learning_rate * grad_f
    phi_p -= learning_rate * (residual * row)
    psi -= learning_rate * 0.5 * (grad_psi + grad_psi.T)
    return loss


def _draw_partners(
    m: int, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Start positions: each of range(m) repeated n_samples times, and a
    uniform partner position distinct from each."""
    fact_pos = np.repeat(np.arange(m), n_samples)
    offsets = rng.integers(0, m - 1, size=len(fact_pos))
    return fact_pos, (fact_pos + 1 + offsets) % m


def _levels(f: list[int], p: list[int], n_rows: int) -> list[int]:
    """Level of each update (f[i], p[i]) by first fit, in order: the lowest
    level (from 1) that no earlier update of its fact row or its partner row
    holds.

    The busiest row's update count D bounds the level count from below,
    and first fit uses at most 2D - 1 levels: an update's two rows hold at
    most 2D - 2 levels besides its own.  Bit j of ``taken[r]`` says row r
    holds level j + 1, so the lowest level free in both rows is the lowest
    zero bit of their union."""
    taken = [0] * n_rows
    levels = []
    for a, b in zip(f, p):
        x = taken[a] | taken[b]
        bit = ~x & (x + 1)
        taken[a] |= bit
        taken[b] |= bit
        levels.append(bit.bit_length())
    return levels


def _level_order(level: np.ndarray, s: np.ndarray, n_mats: int) -> tuple[np.ndarray, list[list]]:
    """The order the updates run in, and per level (start, end, u, sums).

    Within a level the updates run in blocks by rank, the rank of an update
    being the number of earlier updates of its matrix in the level.  Block 0
    holds one update of each of the level's u matrices, ordered by how many
    updates the matrix takes (most first), then by matrix; each later block
    follows the same order, so it holds the first matrices of block 0.
    ``sums`` lists the later blocks as (start, end) relative to the level.
    """
    n = len(level)
    # stable: shuffle order within a level's matrix
    by_mat = np.argsort(level * n_mats + s, kind="stable")
    lev = level[by_mat]
    head = _run_heads(lev, s[by_mat])
    first = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    rank = np.arange(n) - first[group]
    size = np.diff(np.append(first, n))[group]  # updates of the matrix in the level
    # by level, rank, then most updates first; stable, so ties keep the matrix order
    span = int(size.max(initial=0)) + 1
    blocked = np.lexsort((rank * span + span - size, lev))
    by_mat, lev, rank = by_mat[blocked], lev[blocked], rank[blocked]
    starts = np.flatnonzero(_run_heads(lev, rank))
    plan: list[list] = []
    for lo, hi, r in zip(starts.tolist(), [*starts[1:].tolist(), n], rank[starts].tolist()):
        if r == 0:
            plan.append([lo, hi, hi - lo, []])
        else:
            plan[-1][1] = hi
            plan[-1][3].append((lo - plan[-1][0], hi - plan[-1][0]))
    return by_mat, plan


def _run_heads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where (a[i], b[i]) differs from the pair before it, and at 0."""
    head = np.ones(len(a), dtype=bool)
    head[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return head


def _apply_levels(
    phi: np.ndarray,
    psi: np.ndarray,
    f: np.ndarray,
    p: np.ndarray,
    s: np.ndarray,
    kappa: np.ndarray,
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the updates (rows f[i], p[i] of phi, matrix s[i] of psi,
    target kappa[i]), given in shuffle order, in place, one level at a time.

    Returns each update's pre-update loss and its level (``_levels``), in
    shuffle order.  Levels run lowest first, so a phi row takes its updates
    in level order, which need not be shuffle order.  Every update of a
    level reads the level-start phi rows and psi matrix.  Its phi rows take
    ``sgd_step``'s arithmetic on stacked arrays, with the same BLAS calls
    and the same elementwise expression order.  Each matrix
    takes one step by the sum of its updates' symmetrised gradients, added
    in shuffle order; a matrix with one update in the level takes
    ``sgd_step``'s psi update.  A non-finite loss does not stop the loop;
    the caller names the first one in level order.
    """
    level = np.array(_levels(f.tolist(), p.tolist(), len(phi)), dtype=np.int64)
    order, plan = _level_order(level, s, len(psi))
    # per update: its fact and partner row, matrix, and target as (1, 1)
    rows = np.stack((f, p), axis=1)[order]
    mats = s[order]
    target = kappa[order, None, None]
    residual = np.empty_like(target)
    half_lr = learning_rate * 0.5
    for a, b, u, sums in plan:
        fp, m = rows[a:b], mats[a:b]
        x, ps = phi.take(fp, axis=0), psi.take(m, axis=0)  # x: (w, 2, k)
        pf, pp = x[:, :1], x[:, 1:]
        pp_col = pp.transpose(0, 2, 1)
        row = np.matmul(pf, ps)  # phi_f @ psi, (w, 1, k)
        r = np.matmul(row, pp_col) - target[a:b]
        residual[a:b] = r
        # (psi @ phi_p, phi_f @ psi): the gradients of phi_f and phi_p divided by r
        grads = np.concatenate((np.matmul(ps, pp_col).transpose(0, 2, 1), row), axis=1)
        phi[fp] = x - learning_rate * (r * grads)
        # a level may hold one update per two phi rows: keep at most two (w, k, k) arrays alive
        del ps
        grad_psi = r * (pf.transpose(0, 2, 1) * pp)
        sym = grad_psi + grad_psi.transpose(0, 2, 1)
        del grad_psi
        for c, e in sums:  # a later block onto the first matrices of block 0
            sym[: e - c] += sym[c:e]
        psi[m[:u]] -= half_lr * sym[:u]  # psi[m] is still the level-start psi
    loss = np.empty(len(level))
    loss[order] = (0.5 * residual * residual).ravel()
    return loss, level


def train_epoch(
    db: Database,
    model: EmbeddingModel,
    cfg: TrainConfig,
    kernels: KernelMap,
    epoch_index: int,
    ledger: np.ndarray,
) -> EpochStats:
    """Run one epoch in place and report its statistics.

    Skipped samples (either side failed to produce a non-null destination
    within the retry cap) never reach the optimiser and are excluded from
    loss means.  ``ledger`` is a (2, schemes) float array of loss sums and
    counts by psi row across epochs; the epoch adds its own to it.
    """
    t0 = time.perf_counter()
    start_ids = np.asarray(db.relation_fact_ids(model.start_relation), dtype=np.int64)
    if len(start_ids) < 2:
        raise UsageError("start relation needs at least two facts for partner sampling")
    rng = derive_rng(cfg.seed, "epoch", epoch_index)

    # Surviving samples, one array per scheme: fact and partner by position
    # in start_ids, each scheme by its index in active.  The empty first
    # part lets an epoch without active schemes concatenate too.
    active = list(model.active_schemes)
    none = np.empty(0, dtype=np.int64)
    parts: list[tuple[np.ndarray, ...]] = [(none, none, none, np.empty(0))]
    skipped = 0
    sample_s = kernel_s = 0.0
    for s, tws in enumerate(active):
        t1 = time.perf_counter()
        spec = kernel_for(kernels, tws)
        fpos, ppos = _draw_partners(len(start_ids), cfg.n_samples, rng)
        dests_f, vals_f = sample_target_values_batch(db, start_ids[fpos], tws, rng, cfg.retry_cap)
        dests_p, vals_p = sample_target_values_batch(db, start_ids[ppos], tws, rng, cfg.retry_cap)
        t2 = time.perf_counter()
        sample_s += t2 - t1
        ok = (dests_f >= 0) & (dests_p >= 0)
        kappa = column_kernel(spec, vals_f[ok], vals_p[ok], exact=True)
        skipped += len(ok) - len(kappa)
        parts.append((fpos[ok], ppos[ok], np.full(len(kappa), s, dtype=np.int64), kappa))
        kernel_s += time.perf_counter() - t2
    facts, partners, scheme_of, kappas = map(np.concatenate, zip(*parts))

    # The start rows and active matrices are gathered by index, updated level by level and,
    # once every loss is finite, written back with one assignment each; frozen psi stay untouched.
    t3 = time.perf_counter()
    order = rng.permutation(len(kappas))
    rows = [model.phi.index[f] for f in start_ids.tolist()]
    mats = [model.psi.index[t] for t in active]
    phi, psi = model.phi.data[rows], model.psi.data[mats]
    shuffled = scheme_of[order]
    losses, levels = _apply_levels(
        phi, psi, facts[order], partners[order], shuffled, kappas[order], cfg.learning_rate
    )
    bad = np.flatnonzero(~np.isfinite(losses))
    if len(bad):
        # the first in application order: lowest level, then shuffle position
        j = int(order[bad[levels[bad].argmin()]])
        raise NumericError(
            f"non-finite loss on scheme {targeted_text(active[scheme_of[j]])} "
            f"(facts {start_ids[facts[j]]},{start_ids[partners[j]]}, kappa={kappas[j]})"
        )
    model.phi.data[rows] = phi
    model.psi.data[mats] = psi

    # Per-scheme loss sums, added by bincount in shuffle order, and means as
    # Python floats (see EpochStats for the key orders).
    loss_sum = np.bincount(shuffled, weights=losses, minlength=len(active))
    loss_n = np.bincount(shuffled, minlength=len(active))
    ledger[:, mats] += (loss_sum, loss_n)
    _, first = np.unique(shuffled, return_index=True)
    reached = shuffled[np.sort(first)].tolist()
    epoch_mean_loss = {active[s]: float(loss_sum[s] / loss_n[s]) for s in reached}
    total, count = ledger.tolist()
    cumulative_mean_loss = {t: total[i] / count[i] for i, t in enumerate(model.psi) if count[i]}
    t4 = time.perf_counter()

    if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
        fid, tws = model.phi.first_non_finite(), model.psi.first_non_finite()
        if fid is not None:
            raise NumericError(f"non-finite embedding for fact {fid} after epoch {epoch_index}")
        if tws is not None:
            raise NumericError(f"non-finite scheme matrix for {targeted_text(tws)} after epoch {epoch_index}")
    t5 = time.perf_counter()

    return EpochStats(
        epoch_index=epoch_index,
        epoch_mean_loss=epoch_mean_loss,
        cumulative_mean_loss=cumulative_mean_loss,
        samples_used=len(kappas),
        samples_skipped=skipped,
        wall_time=time.perf_counter() - t0,
        active_schemes=tuple(active),
        phase_seconds={"sample": sample_s, "kernel": kernel_s, "sgd": t4 - t3, "check": t5 - t4},
        sgd_levels=int(levels.max(initial=0)),
    )


EpochCallback = Callable[[int, "EmbeddingModel", "EpochStats"], None]


def train(
    db: Database,
    start_relation: str,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
    kernels: KernelMap | None = None,
    callbacks: list[EpochCallback] | None = None,
) -> tuple[EmbeddingModel, list[EpochStats]]:
    """Initialise a model and train for cfg.epochs epochs.

    Callbacks run after every epoch with (epoch_index, model, stats); a
    callback may shrink ``model.active_schemes`` to stop sampling a scheme
    from the next epoch on (its psi stays in the model, frozen).
    """
    if kernels is None:
        kernels = default_kernels(db)
    model = init_model(db, start_relation, schemes, cfg)
    ledger = np.zeros((2, len(model.psi)))
    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        stats = train_epoch(db, model, cfg, kernels, epoch, ledger)
        history.append(stats)
        for cb in callbacks or ():
            cb(epoch, model, stats)
    return model, history
