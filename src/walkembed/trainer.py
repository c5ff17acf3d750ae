"""Bilinear embedding trainer.

Each start-relation fact f gets a vector phi(f); each targeted walk scheme
(s, A) gets a symmetric matrix psi(s, A).  Training drives the bilinear
form phi(f)^T psi(s,A) phi(f') toward the expected kernel distance of the
pair under the scheme, using single-sample SGD: the regression target for
one update is the kernel applied to one sampled destination value from
each side, an unbiased estimate of the expected kernel distance.

Epoch procedure (fixed, so runs are reproducible from the seed alone):
for every scheme in active order, every start fact contributes
``n_samples`` draws, each pairing it with a uniform partner fact distinct
from it; destination values are sampled per side with dead ends and null
destinations retried up to ``retry_cap`` attempts; pairs still incomplete
are skipped and counted.  All surviving samples of the epoch are then
applied in one seeded shuffled order.

Cost: an epoch interns its active schemes to list indices once and keeps
its samples as parallel lists, so an update indexes lists instead of
hashing scheme dataclasses.  One update is one ``sgd_step`` call of about
a dozen small numpy operations, about 18-20 µs at k=16 on a 2-vCPU Xeon
VM.  The arithmetic is that of ``loss_and_grads`` to the bit, so a fixed
seed fixes phi, psi and the losses (tests/test_golden.py holds their
hashes).  Kernel targets stay on the scalar ``kernel_eval``, because
``np.exp`` can round the Gaussian differently from ``math.exp``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, UsageError
from .kernels import KernelMap, default_kernels, kernel_eval, kernel_for
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


@dataclass
class EmbeddingModel:
    k: int
    start_relation: str
    phi: dict[int, np.ndarray]
    psi: dict[TargetedWalkScheme, np.ndarray]
    active_schemes: list[TargetedWalkScheme]


@dataclass
class EpochStats:
    epoch_index: int
    epoch_mean_loss: dict[TargetedWalkScheme, float]
    cumulative_mean_loss: dict[TargetedWalkScheme, float]
    samples_used: int
    samples_skipped: int
    wall_time: float
    active_schemes: tuple[TargetedWalkScheme, ...]
    # seconds spent drawing walks, evaluating kernel targets, applying
    # updates and checking finiteness; they add up to at most wall_time
    phase_seconds: dict[str, float]


def init_model(
    db: Database,
    start_relation: str,
    schemes: list[TargetedWalkScheme],
    cfg: TrainConfig,
) -> EmbeddingModel:
    """Fresh model: phi entries i.i.d. uniform on (-1/sqrt(k), 1/sqrt(k)),
    psi the identity.  Deterministic under cfg.seed."""
    if not schemes:
        raise UsageError("scheme list is empty")
    for tws in schemes:
        if tws.scheme.start_relation != start_relation:
            raise UsageError(
                f"scheme {targeted_text(tws)} does not start at {start_relation!r}"
            )
    rng = derive_rng(cfg.seed, "init")
    bound = 1.0 / np.sqrt(cfg.k)
    phi = {
        fid: rng.uniform(-bound, bound, size=cfg.k)
        for fid in db.relation_fact_ids(start_relation)
    }
    psi = {tws: np.eye(cfg.k) for tws in schemes}
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
    the same matrix-vector product as ``psi.T @ phi_f``).
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


@dataclass
class _LossLedger:
    """Running per-scheme loss sums across epochs, for cumulative means."""

    total: dict[TargetedWalkScheme, float] = field(default_factory=dict)
    count: dict[TargetedWalkScheme, int] = field(default_factory=dict)

    def add(self, tws: TargetedWalkScheme, loss_sum: float, n: int) -> None:
        self.total[tws] = self.total.get(tws, 0.0) + loss_sum
        self.count[tws] = self.count.get(tws, 0) + n

    def means(self) -> dict[TargetedWalkScheme, float]:
        return {t: self.total[t] / self.count[t] for t in self.total if self.count[t] > 0}


def _draw_partners(
    start_ids: np.ndarray, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(facts repeated n_samples times, uniform partners distinct from each)."""
    m = len(start_ids)
    fact_pos = np.repeat(np.arange(m), n_samples)
    offsets = rng.integers(0, m - 1, size=len(fact_pos))
    partner_pos = (fact_pos + 1 + offsets) % m
    return start_ids[fact_pos], start_ids[partner_pos]


def train_epoch(
    db: Database,
    model: EmbeddingModel,
    cfg: TrainConfig,
    kernels: KernelMap,
    epoch_index: int,
    ledger: _LossLedger,
) -> EpochStats:
    """Run one epoch in place and report its statistics.

    Skipped samples (either side failed to produce a non-null destination
    within the retry cap) never reach the optimiser and are excluded from
    loss means.
    """
    t0 = time.perf_counter()
    start_ids = np.asarray(db.relation_fact_ids(model.start_relation), dtype=np.int64)
    if len(start_ids) < 2:
        raise UsageError("start relation needs at least two facts for partner sampling")
    rng = derive_rng(cfg.seed, "epoch", epoch_index)

    # Surviving samples as parallel lists, each scheme by its index in active.
    active = list(model.active_schemes)
    facts: list[int] = []
    partners: list[int] = []
    scheme_of: list[int] = []
    kappas: list[float] = []
    skipped = 0
    sample_s = kernel_s = 0.0
    for s, tws in enumerate(active):
        t1 = time.perf_counter()
        spec = kernel_for(kernels, tws)
        fs, ps = _draw_partners(start_ids, cfg.n_samples, rng)
        _, vals_f = sample_target_values_batch(db, fs, tws, rng, cfg.retry_cap)
        _, vals_p = sample_target_values_batch(db, ps, tws, rng, cfg.retry_cap)
        t2 = time.perf_counter()
        sample_s += t2 - t1
        for f, p, a, b in zip(fs.tolist(), ps.tolist(), vals_f, vals_p):
            if a is None or b is None:
                skipped += 1
                continue
            facts.append(f)
            partners.append(p)
            scheme_of.append(s)
            kappas.append(kernel_eval(spec, a, b))
        kernel_s += time.perf_counter() - t2

    # sgd_step is looked up as a module global on every call, so that it
    # can be wrapped from outside (bench/layertrace.py counts updates).
    t3 = time.perf_counter()
    order = rng.permutation(len(kappas))
    phi, psis, lr = model.phi, [model.psi[t] for t in active], cfg.learning_rate
    loss_sum = [0.0] * len(active)
    loss_n = [0] * len(active)
    for j in order.tolist():
        f, p, s = facts[j], partners[j], scheme_of[j]
        try:
            loss = sgd_step(phi[f], phi[p], psis[s], kappas[j], lr)
        except NumericError as exc:
            raise NumericError(
                f"non-finite loss on scheme {targeted_text(active[s])} "
                f"(facts {f},{p}, kappa={kappas[j]})"
            ) from exc
        loss_sum[s] += loss
        loss_n[s] += 1

    # Loss means keyed in the order the shuffle first reached each scheme,
    # the row order of training_log.csv.
    shuffled = np.asarray(scheme_of, dtype=np.int64)[order]
    _, first = np.unique(shuffled, return_index=True)
    epoch_mean_loss = {}
    for s in shuffled[np.sort(first)].tolist():
        epoch_mean_loss[active[s]] = loss_sum[s] / loss_n[s]
        ledger.add(active[s], loss_sum[s], loss_n[s])
    t4 = time.perf_counter()

    for fid, vec in model.phi.items():
        if not np.all(np.isfinite(vec)):
            raise NumericError(f"non-finite embedding for fact {fid} after epoch {epoch_index}")
    for tws, mat in model.psi.items():
        if not np.all(np.isfinite(mat)):
            raise NumericError(
                f"non-finite scheme matrix for {targeted_text(tws)} after epoch {epoch_index}"
            )
    t5 = time.perf_counter()

    return EpochStats(
        epoch_index=epoch_index,
        epoch_mean_loss=epoch_mean_loss,
        cumulative_mean_loss=ledger.means(),
        samples_used=len(kappas),
        samples_skipped=skipped,
        wall_time=time.perf_counter() - t0,
        active_schemes=tuple(active),
        phase_seconds={"sample": sample_s, "kernel": kernel_s, "sgd": t4 - t3, "check": t5 - t4},
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
    ledger = _LossLedger()
    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        stats = train_epoch(db, model, cfg, kernels, epoch, ledger)
        history.append(stats)
        for cb in callbacks or ():
            cb(epoch, model, stats)
    return model, history
