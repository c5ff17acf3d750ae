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

With sampled targets, each new fact's stream first draws its partners for
a scheme, then the walks of one block: S walks from the new fact per
partner, followed by S walks from each partner (S = samples_per_partner),
with the usual retries over dead ends and nulls.  Row i of a block's first
half is paired with row i of its second half.  The blocks of all new facts
go to one sampler call per scheme, each block on its own fact's stream
(``sample_target_values_batch`` with one generator per block), so a batch
costs one call per active scheme rather than one per (new fact, scheme),
and every vector is what a call per fact would give, to the bit.  The
kernel is evaluated once per scheme, on the sampled codes or floats, over
the pairs in which both walks succeeded, and each partner's target is the
mean over its surviving pairs; a partner with none is dropped.  With exact
targets, each (new fact, scheme) costs one exact value law over the new
fact and its partners (``exact_value_law``).
"""

from __future__ import annotations

import math
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
from .trainer import EmbeddingModel, KeyedRows

# Walkers in one sampler call.  A batch of new facts is extended in chunks
# of facts whose walks fit (at least one fact per chunk), so exhaustive
# partners or a large batch do not allocate facts x partners x samples
# walkers at once.
EXTEND_WALKERS = 1 << 18


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
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise UsageError(f"ridge must be a finite non-negative number, got {self.ridge!r}")


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
    if retry_cap < 1:
        raise UsageError(f"retry_cap must be at least 1, got {retry_cap}")
    for new_fact in new_fact_ids:
        if not 0 <= new_fact < db.n_facts:
            raise UsageError(f"fact {new_fact} is not in the database ({db.n_facts} facts)")
        relation = db.relation_of(new_fact)
        if relation != model.start_relation:
            raise UsageError(
                f"fact {new_fact} is in {relation!r}, model embeds {model.start_relation!r}"
            )
    pool = np.setdiff1d(np.fromiter(model.phi, np.int64), new_fact_ids)  # sorted
    if not len(pool):
        raise UsageError("no pre-existing partner facts available")

    pool_phi = model.phi.take(pool.tolist())
    rngs = [derive_rng(seed, "extend", str(db.key_of(f))) for f in new_fact_ids]
    n_partners = len(pool) if cfg.exhaustive_partners else min(cfg.partners_per_scheme, len(pool))
    per_chunk = max(1, EXTEND_WALKERS // (2 * n_partners * cfg.samples_per_partner))
    # the source's rows, then each new fact's row in batch order
    keys = dict.fromkeys([*model.phi, *new_fact_ids])
    phi = KeyedRows(keys, np.concatenate([model.phi.data, np.empty((len(keys) - len(model.phi), model.k))]))
    for lo in range(0, len(new_fact_ids), per_chunk):
        chunk = new_fact_ids[lo : lo + per_chunk]
        systems = _chunk_systems(
            db, model, chunk, rngs[lo : lo + per_chunk], pool, pool_phi, n_partners, cfg, kernels, retry_cap
        )
        for new_fact, (blocks, targets) in zip(chunk, systems):
            if not blocks:
                raise NumericError(
                    f"no complete walks for any scheme from new fact {new_fact}; "
                    f"cannot build an extension system"
                )
            phi[new_fact][:] = solve_ridge(np.concatenate(blocks), np.concatenate(targets), cfg.ridge)
    return EmbeddingModel(model.k, model.start_relation, phi, model.psi, model.active_schemes)


def _chunk_systems(
    db: Database,
    model: EmbeddingModel,
    chunk: list[int],
    rngs: list[np.random.Generator],
    pool: np.ndarray,
    pool_phi: np.ndarray,
    n_partners: int,
    cfg: ExtensionConfig,
    kernels: KernelMap,
    retry_cap: int,
) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Each new fact's system rows and targets, scheme by scheme.

    ``pos[t]`` holds fact t's partners as positions in ``pool``; each fact
    draws them on its own stream before its walks.  A partner whose target
    is undefined is dropped.
    """
    n_draws, n = cfg.samples_per_partner, len(chunk)
    half = n_partners * n_draws
    systems: list[tuple[list, list]] = [([], []) for _ in chunk]
    for tws in model.active_schemes:
        if cfg.exhaustive_partners:
            pos = np.broadcast_to(np.arange(len(pool)), (n, len(pool)))
        else:
            pos = np.stack([rng.choice(len(pool), size=n_partners, replace=False) for rng in rngs])
        spec = kernel_for(kernels, tws)
        if cfg.exact_targets:
            # one value law per new fact over it and its partners
            kd = np.stack([
                kd_from_value_law(spec, *exact_value_law(db, tws, np.concatenate([[f], pool[p]])), 1 + n_partners)
                for f, p in zip(chunk, pos)
            ])
            has = ~np.isnan(kd)
            means = kd[has]
        else:
            # one sampler call: fact t's block holds n_draws walks from it
            # per partner, then n_draws from each partner, on t's stream;
            # row i of the block's two halves is one pair
            starts = np.empty((n, 2, half), dtype=np.int64)
            starts[:, 0] = np.asarray(chunk, dtype=np.int64)[:, None]
            starts[:, 1] = np.repeat(pool[pos], n_draws, axis=1)
            dests, values = sample_target_values_batch(db, starts.ravel(), tws, rngs, retry_cap)
            dests, values = dests.reshape(n, 2, half), values.reshape(n, 2, half)
            both = (dests[:, 0] >= 0) & (dests[:, 1] >= 0)
            sims = column_kernel(spec, values[:, 0][both], values[:, 1][both])
            owner = np.flatnonzero(both) // n_draws  # bin t * n_partners + partner
            counts = np.bincount(owner, minlength=n * n_partners)
            sums = np.bincount(owner, weights=sims, minlength=n * n_partners)
            has = counts > 0  # a partner without a surviving pair is dropped
            means = sums[has] / counts[has]
            has = has.reshape(n, n_partners)
        ends = np.cumsum(has.sum(axis=1)).tolist()
        psi_t = model.psi[tws].T
        for (blocks, targets), p, keep, lo, hi in zip(systems, pos, has, [0] + ends, ends):
            if hi > lo:
                # each fact's rows at their own shape, as a taller matmul
                # need not round the same way
                blocks.append(pool_phi[p[keep]] @ psi_t)
                targets.append(means[lo:hi])
    return systems
