"""Embedding extension for newly inserted facts.

A new start-relation fact gets its vector by solving a regularised linear
least-squares problem against the frozen trained model: for partner facts
f' with known embeddings, the row psi(s,A) phi(f') paired with a target
estimate of the expected kernel distance between the new fact and f'
constrains phi(new) so that the bilinear form reproduces the similarity.
Existing phi rows and every psi matrix are never touched.

Partners are drawn only from facts embedded before the batch arrived and
each new fact uses its own derived random stream, so the result does not
depend on the order of the batch.

With sampled targets, each (new fact, scheme) costs one sampler call.  Its
stream first draws the partners, then the walks of one batch: S walks from
the new fact per partner, followed by S walks from each partner (S =
samples_per_partner), with the usual retries over dead ends and nulls.
Row i of the first half is paired with row i of the second, the kernel is
evaluated once, on the sampled codes or floats, over the pairs in which
both walks succeeded, and each partner's target is the mean over its
surviving pairs; a partner with none is dropped.  With exact targets, each
(new fact, scheme) costs one exact value law over the new fact and its
partners (``exact_value_law``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .kernels import (  # noqa: F401  (kernel_eval: bench/layertrace.py patches it here)
    KernelMap,
    column_kernel,
    kd_from_value_law,
    kernel_eval,
    kernel_for,
)
from .relational import Database
from .schemes import exact_value_law, sample_target_values_batch
from .seeding import derive_rng
from .trainer import EmbeddingModel


@dataclass(frozen=True)
class ExtensionConfig:
    partners_per_scheme: int = 10
    samples_per_partner: int = 5
    ridge: float = 1e-6
    exhaustive_partners: bool = False
    exact_targets: bool = False

    def __post_init__(self) -> None:
        if self.partners_per_scheme <= 0 or self.samples_per_partner <= 0:
            raise UsageError("partners_per_scheme and samples_per_partner must be positive")
        if self.ridge < 0:
            raise UsageError("ridge must be non-negative")


def solve_ridge(rows: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (A^T A + ridge I) x = A^T b.

    With ridge 0 the normal matrix may be singular; that raises with advice
    rather than returning garbage.
    """
    gram = rows.T @ rows
    if ridge > 0:
        gram = gram + ridge * np.eye(rows.shape[1])
    rhs = rows.T @ targets
    try:
        if ridge <= 0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
            raise np.linalg.LinAlgError("singular normal matrix")
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise NumericError(
            "normal matrix is singular; use a positive ridge coefficient"
        ) from None
    if not np.all(np.isfinite(x)):
        raise NumericError("extension solve produced non-finite values")
    return x


def extend_embedding(
    db: Database,
    model: EmbeddingModel,
    new_fact_ids: list[int],
    cfg: ExtensionConfig,
    kernels: KernelMap,
    seed: int = 0,
    retry_cap: int = 20,
) -> EmbeddingModel:
    """Solve embeddings for ``new_fact_ids`` against the frozen model.

    ``db`` must already contain the new facts (walks run on it).  Partners
    come exclusively from the model's existing embeddings, never from the
    batch, and each new fact derives its own random stream from ``seed``
    and its key, so any batch order yields the same vectors.
    """
    existing = sorted(model.phi.keys())
    if not existing:
        raise UsageError("model has no existing embeddings to extend from")
    new_set = set(new_fact_ids)
    pool = np.asarray([f for f in existing if f not in new_set], dtype=np.int64)
    if not len(pool):
        raise UsageError("no pre-existing partner facts available")

    phi = dict(model.phi)
    n_draws = cfg.samples_per_partner
    for new_fact in new_fact_ids:
        relation = db.relation_of(new_fact)
        if relation != model.start_relation:
            raise UsageError(
                f"fact {new_fact} is in {relation!r}, model embeds {model.start_relation!r}"
            )
        rng = derive_rng(seed, "extend", str(db.key_of(new_fact)))
        blocks: list[np.ndarray] = []
        targets: list = []
        for tws in model.active_schemes:
            if cfg.exhaustive_partners:
                partners = pool
            else:
                take = min(cfg.partners_per_scheme, len(pool))
                partners = pool[rng.choice(len(pool), size=take, replace=False)]
            spec = kernel_for(kernels, tws)
            if cfg.exact_targets:
                # one value law over the new fact and its partners; a
                # partner whose distance is undefined is dropped
                law = exact_value_law(db, tws, np.concatenate([[new_fact], partners]))
                kd = kd_from_value_law(spec, *law, 1 + len(partners))
                has = ~np.isnan(kd)
                kept, means = partners[has].tolist(), kd[has]
            else:
                # one sampler call: n_draws walks from the new fact per
                # partner, then n_draws from each partner; row i of the two
                # halves is one pair
                half = len(partners) * n_draws
                starts = np.concatenate(
                    [np.full(half, new_fact, dtype=np.int64), np.repeat(partners, n_draws)]
                )
                dests, values = sample_target_values_batch(db, starts, tws, rng, retry_cap)
                ok = np.flatnonzero((dests[:half] >= 0) & (dests[half:] >= 0))
                sims = column_kernel(spec, values[ok], values[half + ok])
                owner = ok // n_draws
                counts = np.bincount(owner, minlength=len(partners))
                sums = np.bincount(owner, weights=sims, minlength=len(partners))
                has = counts > 0  # a partner without a surviving pair is dropped
                kept, means = partners[has].tolist(), sums[has] / counts[has]
            if kept:
                blocks.append(np.stack([phi[p] for p in kept]) @ model.psi[tws].T)
                targets.append(means)
        if not blocks:
            raise NumericError(
                f"no complete walks for any scheme from new fact {new_fact}; "
                f"cannot build an extension system"
            )
        phi[new_fact] = solve_ridge(np.concatenate(blocks), np.concatenate(targets), cfg.ridge)
    return EmbeddingModel(model.k, model.start_relation, phi, model.psi, model.active_schemes)
