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
shuffle order, with ``sgd_step``'s step.  psi stays exactly symmetric
(every step adds a gradient sum to its transpose), so one stacked product
of the (fact, partner) rows with psi gives both ``phi_f @ psi`` and
``psi @ phi_p``.  psi is the one densely shared parameter, so the updates
of a level may share a scheme matrix: the matrix takes one step by the sum
of their symmetrised gradients, and one matrix product per chunk of at
most ``PSI_CHUNK`` updates gives every matrix's sum at once.  The rows
follow DSGD's conflict-free strata (Gemulla et al., KDD 2011) and psi a
Hogwild!-style summed update (Niu et al., NeurIPS 2011).  With 16 schemes
on 80 start facts an epoch's 2560 updates run in about 80 levels of about
32 updates, as many levels as the busiest row has updates.  At k=16 on a
2-vCPU Xeon VM ``_apply_levels`` then takes about 4.8 ms an epoch against
6.3 ms with one outer product per update (median of 5 runs each, the two
interleaved): about 1.9 µs an update, against 14-20 µs for one
``sgd_step`` call.  At 2000 start facts (levels of about 750 updates) it took 86 ms against
213 ms.  With 70 schemes on 80 start facts, where most matrices of a level
take one update and the product's block is mostly zeros, it takes about
26 ms either way.  With two start facts every level holds one update.  A
fixed seed fixes phi, psi and the losses, under any number of BLAS threads
(tests/test_golden.py holds their hashes).

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning_rate must be a finite positive number, got {self.learning_rate!r}")
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
    the same matrix-vector product as ``psi.T @ phi_f``).  Training takes
    this step on stacks of updates (``_apply_levels``): it reads
    ``psi @ phi_p`` as ``phi_p @ psi``, psi being symmetric, and sums the
    psi steps of the updates that share a matrix within a level by matrix
    products, so it agrees with this function to rounding, not to the bit.
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


# A level's summed psi gradients come from matrix products over at most
# this many updates each, added in a fixed order: one longer product lets
# OpenBLAS split its sums by the thread count, and the bits move with it.
PSI_CHUNK = 256


def _plan(level: np.ndarray, mats: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """The levels and chunks of updates sorted by level, then matrix.

    Per level: (start, end, its matrices in slot order, its chunks), a
    chunk being (start, end, its first update's slot, slots spanned) for
    at most ``PSI_CHUNK`` updates of the level.  Also each update's slot
    counted from its chunk's first slot."""
    n = len(level)
    level_head = np.ones(n, dtype=bool)
    level_head[1:] = level[1:] != level[:-1]
    starts = np.flatnonzero(level_head)
    ends = np.append(starts[1:], n)[: len(starts)]  # none when there is no update
    level_of = np.cumsum(level_head) - 1
    run_head = level_head.copy()
    run_head[1:] |= mats[1:] != mats[:-1]
    run = np.cumsum(run_head) - 1
    slot = run - run[starts][level_of]  # of the update's matrix in its level
    heads = np.flatnonzero((np.arange(n) - starts[level_of]) % PSI_CHUNK == 0)  # each level head among them
    tails = np.minimum(heads + PSI_CHUNK, ends[level_of[heads]])
    local = slot - np.repeat(slot[heads], tails - heads)
    stepped = mats[run_head]
    plan = [
        (a, b, stepped[first : last + 1], [])
        for a, b, first, last in zip(starts.tolist(), ends.tolist(), run[starts].tolist(), run[ends - 1].tolist())
    ]
    for c, e, i, offset, width in zip(
        heads.tolist(), tails.tolist(), level_of[heads].tolist(), slot[heads].tolist(), (local[tails - 1] + 1).tolist()
    ):
        plan[i][3].append((c, e, offset, width))
    return plan, local


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
    level reads the level-start phi rows and psi matrices, which must be
    exactly symmetric (each step keeps them so), so one stacked product
    gives both ``phi_f @ psi`` and ``psi @ phi_p``.  Within a level the
    updates are sorted by matrix, shuffle order kept within each.  Each
    matrix takes one step by the sum of its updates' symmetrised
    gradients.  The level runs in chunks of at most ``PSI_CHUNK`` updates:
    a chunk's partner rows go into a zero (updates, matrices * k) block
    over the chunk's matrices, one row each at its matrix's slot, and one
    product of that block's transpose with the rows r * phi_f gives each
    of those matrices' gradient sum.  A matrix whose updates span two
    chunks adds their sums in chunk order.  A non-finite loss does not
    stop the loop; the caller names the first one in level order.
    """
    level = np.array(_levels(f.tolist(), p.tolist(), len(phi)), dtype=np.int64)
    order = np.lexsort((s, level))  # stable: shuffle order within a level's matrix
    n, k = len(order), phi.shape[1]
    mats = s[order]
    rows = np.stack((f, p), axis=1)[order]
    target = kappa[order, None, None]
    plan, local = _plan(level[order], mats)
    upto = np.arange(PSI_CHUNK)
    residual = np.empty_like(target)
    half_lr = learning_rate * 0.5
    for a, b, level_mats, chunks in plan:
        fp = rows[a:b]
        x, ps = phi.take(fp, axis=0), psi.take(mats[a:b], axis=0)  # x: (w, 2, k)
        y = np.matmul(x, ps)  # (phi_f @ psi, phi_p @ psi); the latter is psi @ phi_p
        r = np.matmul(y[:, :1], x[:, 1:].transpose(0, 2, 1)) - target[a:b]
        residual[a:b] = r
        phi[fp] = x - learning_rate * (r * y[:, ::-1])
        del ps  # a level may hold one update per two phi rows: free the (w, k, k) stack
        pp, rf = x[:, 1], r[:, 0] * x[:, 0]
        grad = np.zeros((len(level_mats), k, k))
        for c, e, offset, width in chunks:
            block = np.zeros((e - c, width, k))
            block[upto[: e - c], local[c:e]] = pp[c - a : e - a]
            sums = block.reshape(e - c, -1).T @ rf[c - a : e - a]  # (width * k, k)
            grad[offset : offset + width] += sums.reshape(-1, k, k)
        psi[level_mats] -= half_lr * (grad + grad.transpose(0, 2, 1))  # psi is still the level-start psi
    loss = np.empty(n)
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
    counts by psi row across epochs; the epoch adds its own to it.  An
    active scheme matrix must be exactly symmetric, as ``init_model`` makes
    it and every epoch keeps it; one that is not raises UsageError.
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
    if not np.array_equal(psi, psi.transpose(0, 2, 1), equal_nan=True):  # _apply_levels reads psi.T as psi
        s = next(i for i, m in enumerate(psi) if not np.array_equal(m, m.T, equal_nan=True))
        raise UsageError(f"scheme matrix for {targeted_text(active[s])} is not symmetric")
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
