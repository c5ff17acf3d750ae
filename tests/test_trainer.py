"""Bilinear trainer: gradients against central differences, fixed points,
loss bookkeeping, determinism, and the level-batched epoch against a scalar
one.

The gradient oracle perturbs every coordinate of phi_f, phi_p, and psi by
h = 1e-5 and compares the two-sided difference quotient to the analytic
gradient; psi is treated as unconstrained here because the analytic value
is the raw (unsymmetrised) matrix gradient.

The epoch oracle is a scalar trainer: the same levels, run one update at
a time with ``loss_and_grads`` at the level-start psi, and one summed psi
step per matrix and level.  The level-batched trainer sums each level's
psi gradients by matrix products, which BLAS sums in an order of its own,
so it must match the oracle within ``ORACLE_RTOL`` (relative to each
array's largest magnitude), with the same sample counts and loss key
orders, and raise the same message on the same update.
"""

import copy
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decoded

import walkembed
from walkembed import trainer
from walkembed.errors import NumericError, UsageError
from walkembed.evaluation import strip_attribute
from walkembed.extension import ExtensionConfig, extend_embedding
from walkembed.kernels import default_kernels, kernel_eval, kernel_for
from walkembed.relational import Fact, insert_facts
from walkembed.schemes import enumerate_targeted_schemes, sample_target_values_batch, targeted_text
from walkembed.seeding import derive_rng
from walkembed.synth import (
    convergence_database,
    planted_database,
    random_database,
    random_schema,
    two_cluster_database,
)
from walkembed.trainer import (
    EmbeddingModel,
    KeyedRows,
    TrainConfig,
    bilinear,
    init_model,
    loss_and_grads,
    sgd_step,
    train,
    train_epoch,
)


def _ledger(model):
    """A fresh loss ledger: sums and counts by psi row."""
    return np.zeros((2, len(model.psi)))


def _gval_scheme(db):
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    (tws,) = [t for t in schemes if targeted_text(t) == "item[g]--[gid]grp :: gval"]
    return tws


# -- configuration -------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(k=0)
    with pytest.raises(UsageError):
        TrainConfig(n_samples=0)
    with pytest.raises(UsageError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(UsageError):
        TrainConfig(epochs=-1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_non_finite_learning_rate(rate):
    with pytest.raises(UsageError, match="learning_rate must be a finite positive number"):
        TrainConfig(learning_rate=rate)


# -- initialisation -------------------------------------------------------------


def test_init_model_deterministic_and_bounded():
    db = two_cluster_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=6, seed=11)
    a = init_model(db, "item", schemes, cfg)
    b = init_model(db, "item", schemes, cfg)
    bound = 1.0 / np.sqrt(6)
    for fid, vec in a.phi.items():
        assert np.array_equal(vec, b.phi[fid])
        assert np.all(np.abs(vec) < bound)
    for tws in schemes:
        assert np.array_equal(a.psi[tws], np.eye(6))
    assert a.active_schemes == schemes


def test_init_model_rejects_foreign_scheme():
    db = two_cluster_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "grp", 1)
    with pytest.raises(UsageError):
        init_model(db, "item", schemes, TrainConfig(k=4))


def test_init_model_rejects_a_repeated_scheme():
    """A repeated scheme would be sampled once per occurrence and all but
    one copy of its psi updates lost: it is refused, named, by init_model
    and so by train."""
    db = two_cluster_database(4)
    s0, s1 = enumerate_targeted_schemes(db.schema, "item", 1)[:2]
    message = f"scheme {targeted_text(s0)} is listed more than once"
    with pytest.raises(UsageError, match=re.escape(message)):
        init_model(db, "item", [s0, s1, s0], TrainConfig(k=4))
    with pytest.raises(UsageError, match=re.escape(message)):
        train(db, "item", [s0, s0], TrainConfig(k=4, epochs=1))


def test_init_model_rejects_empty_schemes():
    db = two_cluster_database(4)
    with pytest.raises(UsageError):
        init_model(db, "item", [], TrainConfig(k=4))


# -- gradients --------------------------------------------------------------------


def test_gradients_match_central_differences():
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(0, "fd", str(trial))
        k = int(rng.integers(2, 9))
        phi_f = rng.normal(size=k)
        phi_p = rng.normal(size=k)
        psi = rng.normal(size=(k, k))
        kappa = float(rng.uniform())
        _, g_f, g_p, g_psi = loss_and_grads(phi_f, phi_p, psi, kappa)

        def loss_at(pf, pp, ps):
            return 0.5 * (pf @ ps @ pp - kappa) ** 2

        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            num = (loss_at(phi_f + e, phi_p, psi) - loss_at(phi_f - e, phi_p, psi)) / (2 * h)
            worst = max(worst, abs(num - g_f[i]) / max(1.0, abs(num)))
            num = (loss_at(phi_f, phi_p + e, psi) - loss_at(phi_f, phi_p - e, psi)) / (2 * h)
            worst = max(worst, abs(num - g_p[i]) / max(1.0, abs(num)))
        for i in range(k):
            for j in range(k):
                E = np.zeros((k, k))
                E[i, j] = h
                num = (loss_at(phi_f, phi_p, psi + E) - loss_at(phi_f, phi_p, psi - E)) / (2 * h)
                worst = max(worst, abs(num - g_psi[i, j]) / max(1.0, abs(num)))
    assert worst < 1e-6


def test_loss_value():
    phi_f = np.array([1.0, 0.0])
    phi_p = np.array([0.0, 1.0])
    psi = np.array([[0.0, 0.25], [0.0, 0.0]])
    loss, g_f, g_p, g_psi = loss_and_grads(phi_f, phi_p, psi, 1.0)
    # prediction 0.25, residual -0.75, loss 0.28125
    assert loss == pytest.approx(0.28125, abs=1e-15)
    assert g_psi == pytest.approx(-0.75 * np.outer(phi_f, phi_p), abs=1e-15)


# -- single step ------------------------------------------------------------------


def _toy_model(tws, k=2):
    phi = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    psi = {tws: np.eye(k)}
    return EmbeddingModel(k, "item", phi, psi, [tws])


def test_sgd_step_uses_pre_update_gradients():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    model = _toy_model(tws)
    # prediction = e0^T I e1 = 0, kappa = 1, residual = -1, loss = 0.5
    loss = sgd_step(model.phi[0], model.phi[1], model.psi[tws], 1.0, learning_rate=0.1)
    assert loss == pytest.approx(0.5, abs=1e-15)
    # grad_f = r * psi phi_p = -e1; grad_p = -e0; grad_psi = -outer(e0, e1),
    # symmetrised to -0.5 (e0 e1^T + e1 e0^T)
    assert model.phi[0] == pytest.approx([1.0, 0.1], abs=1e-15)
    assert model.phi[1] == pytest.approx([0.1, 1.0], abs=1e-15)
    expected_psi = np.eye(2) + 0.1 * 0.5 * (
        np.outer([1, 0], [0, 1]) + np.outer([0, 1], [1, 0])
    )
    assert model.psi[tws] == pytest.approx(expected_psi, abs=1e-15)


def test_sgd_step_keeps_psi_symmetric():
    db = two_cluster_database(3)
    tws = _gval_scheme(db)
    rng = derive_rng(5, "sym")
    model = _toy_model(tws)
    model.phi[0][:] = rng.normal(size=2)
    model.phi[1][:] = rng.normal(size=2)
    for _ in range(20):
        sgd_step(model.phi[0], model.phi[1], model.psi[tws], float(rng.uniform()), 0.05)
    assert np.array_equal(model.psi[tws], model.psi[tws].T)


def test_sgd_step_non_finite_loss_raises():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    model = _toy_model(tws)
    model.phi[0][:] = [np.inf, 0.0]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        sgd_step(model.phi[0], model.phi[1], model.psi[tws], 1.0, 0.1)


def test_sgd_step_matches_loss_and_grads_bitwise():
    """The fused update equals the update built from loss_and_grads, bit
    for bit (grad_p reuses phi_f @ psi in place of psi.T @ phi_f)."""
    for trial in range(50):
        rng = derive_rng(0, "fused", str(trial))
        k = int(rng.integers(1, 33))
        phi_f, phi_p = rng.normal(size=k), rng.normal(size=k)
        a = rng.normal(size=(k, k))
        psi = a + a.T
        kappa, lr = float(rng.uniform()), float(rng.uniform(0.01, 0.5))
        loss, g_f, g_p, g_psi = loss_and_grads(phi_f, phi_p, psi, kappa)
        want = (phi_f - lr * g_f, phi_p - lr * g_p, psi - lr * 0.5 * (g_psi + g_psi.T))
        got = (phi_f.copy(), phi_p.copy(), psi.copy())
        assert sgd_step(*got, kappa, lr) == loss
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_non_finite_loss_writes_nothing_and_names_the_scheme():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    model = init_model(db, "item", [tws], TrainConfig(k=2))
    first = db.relation_fact_ids("item")[0]
    model.phi[first][0] = np.inf
    before = model.phi[first].copy()

    cfg = TrainConfig(k=2, n_samples=2, epochs=1, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        train_epoch(db, model, cfg, default_kernels(db), 1, _ledger(model))
    assert targeted_text(tws) in str(err.value)
    assert "facts " in str(err.value) and "kappa=" in str(err.value)
    # a write would have turned the infinite row into NaN
    assert np.array_equal(model.phi[first], before)


def test_epoch_phase_times_add_up_to_at_most_the_wall_time():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    _, history = train(db, "item", schemes, TrainConfig(k=4, n_samples=3, epochs=2, seed=0))
    for stats in history:
        assert set(stats.phase_seconds) == {"sample", "kernel", "sgd", "check"}
        assert all(v >= 0.0 for v in stats.phase_seconds.values())
        assert sum(stats.phase_seconds.values()) <= stats.wall_time


# -- full training ------------------------------------------------------------------


def test_train_deterministic_under_seed():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=3, learning_rate=0.05, seed=9)
    m1, h1 = train(db, "item", schemes, cfg)
    m2, h2 = train(db, "item", schemes, cfg)
    for fid in m1.phi:
        assert np.array_equal(m1.phi[fid], m2.phi[fid])
    for tws in schemes:
        assert np.array_equal(m1.psi[tws], m2.psi[tws])
    assert [s.epoch_mean_loss for s in h1] == [s.epoch_mean_loss for s in h2]


def test_train_seed_changes_outcome():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    m1, _ = train(db, "item", schemes, TrainConfig(k=4, epochs=2, seed=0))
    m2, _ = train(db, "item", schemes, TrainConfig(k=4, epochs=2, seed=1))
    assert any(not np.array_equal(m1.phi[f], m2.phi[f]) for f in m1.phi)


# -- the model's layout: two arrays read by key -------------------------------------


def test_init_model_draws_phi_as_the_per_row_draws():
    """One (facts, k) uniform draw equals one k-draw per fact, in fact order."""
    db = two_cluster_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=5, seed=3)
    model = init_model(db, "item", schemes, cfg)
    rng = derive_rng(cfg.seed, "init")
    bound = 1.0 / np.sqrt(cfg.k)
    for fid in db.relation_fact_ids("item"):
        assert model.phi[fid].tobytes() == rng.uniform(-bound, bound, size=cfg.k).tobytes()
    assert model.phi.data.shape == (len(model.phi), 5) and model.psi.data.shape == (len(schemes), 5, 5)


def test_a_dict_is_copied_in_and_a_view_is_shared():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    rows = {3: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}
    psi = {tws: np.eye(2)}
    model = EmbeddingModel(2, "item", rows, psi, [tws])
    rows[3][0] = 9.0
    psi[tws][0, 0] = 9.0
    assert model.phi[3].tolist() == [1.0, 2.0] and model.psi[tws][0, 0] == 1.0
    assert model.phi.data.dtype == np.float64
    shared = EmbeddingModel(2, "item", model.phi, model.psi, [tws])
    assert shared.phi is model.phi and shared.psi is model.psi
    empty = EmbeddingModel(2, "item", {}, {}, [])
    assert empty.phi.data.shape == (0, 2) and empty.psi.data.shape == (0, 2, 2)


def test_rows_iterate_in_row_order_and_take_stacks_a_copy():
    data = np.arange(12.0).reshape(4, 3)
    rows = KeyedRows([7, 2, 9, 0], data)
    assert list(rows) == [7, 2, 9, 0] and len(rows) == 4
    assert 9 in rows and 5 not in rows
    assert [k for k, _ in rows.items()] == [7, 2, 9, 0]
    taken = rows.take([0, 7, 0])
    assert np.array_equal(taken, np.stack([rows[0], rows[7], rows[0]]))
    assert rows.take([]).shape == (0, 3)
    taken[0, 0] = -1.0
    assert data[3, 0] == 9.0  # take copies
    rows[2][:] = 5.0
    assert data[1].tolist() == [5.0, 5.0, 5.0]  # a row is a view into the array


def test_first_non_finite_names_the_first_row_in_row_order():
    rows = KeyedRows(["a", "b", "c"], np.zeros((3, 2, 2)))
    assert rows.first_non_finite() is None
    rows["c"][1, 0] = np.nan
    rows["b"][0, 1] = np.inf
    assert rows.first_non_finite() == "b"


def test_a_write_through_a_row_reaches_training():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=3, n_samples=2, epochs=1, seed=4)
    model = init_model(db, "item", schemes, cfg)
    first = db.relation_fact_ids("item")[0]
    model.phi[first][:] = [0.5, -0.5, 0.25]
    # the same values handed over as dicts: training must see the written row
    twin = EmbeddingModel(cfg.k, "item", {f: v.copy() for f, v in model.phi.items()},
                          {t: m.copy() for t, m in model.psi.items()}, list(schemes))
    untouched = init_model(db, "item", schemes, cfg)
    for m in (model, twin, untouched):
        train_epoch(db, m, cfg, default_kernels(db), 1, _ledger(m))
    assert np.array_equal(model.phi.data, twin.phi.data) and np.array_equal(model.psi.data, twin.psi.data)
    assert not np.array_equal(model.phi.data, untouched.phi.data)


def test_deepcopy_gives_an_independent_model():
    db = two_cluster_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    model = init_model(db, "item", schemes, TrainConfig(k=2, seed=0))
    clone = copy.deepcopy(model)
    first = db.relation_fact_ids("item")[0]
    clone.phi[first][:] = 7.0
    clone.psi[schemes[0]][:] = 7.0
    assert not np.array_equal(model.phi[first], clone.phi[first])
    assert not np.array_equal(model.psi[schemes[0]], clone.psi[schemes[0]])
    assert list(clone.phi) == list(model.phi) and list(clone.psi) == list(model.psi)


def test_an_extended_model_leaves_its_sources_rows_untouched():
    db = two_cluster_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    model, _ = train(db, "item", schemes, TrainConfig(k=2, n_samples=2, epochs=2, seed=1))
    before = model.phi.data.copy()
    rel = db.schema.relation("item")
    first = db.relation_fact_ids("item")[0]
    db2 = insert_facts(db, [Fact("item", ("fresh", db.fact(first).value(rel, "g")))])
    new = db2.n_facts - 1
    ext = extend_embedding(db2, model, [new], ExtensionConfig(), default_kernels(db2))
    assert list(ext.phi) == [*model.phi, new]  # the source's rows, then the new one
    assert ext.psi is model.psi and new not in model.phi
    ext.phi[first][:] = 3.0
    assert np.array_equal(model.phi.data, before)


def test_zero_loss_model_is_a_fixed_point():
    """phi = cluster indicator, psi = identity reproduces every kernel target
    exactly, so gradients vanish and training must not move anything."""
    db = two_cluster_database(5)
    tws = _gval_scheme(db)
    phi = {}
    for fid in db.relation_fact_ids("item"):
        g = db.attr_value(fid, "g")
        phi[fid] = np.array([1.0, 0.0]) if g == "ga" else np.array([0.0, 1.0])
    model = EmbeddingModel(2, "item", phi, {tws: np.eye(2)}, [tws])
    before_phi = {f: v.copy() for f, v in model.phi.items()}
    before_psi = model.psi[tws].copy()

    cfg = TrainConfig(k=2, n_samples=4, epochs=1, learning_rate=0.5, seed=0)
    kernels = default_kernels(db)
    stats = train_epoch(db, model, cfg, kernels, 1, _ledger(model))
    assert stats.epoch_mean_loss[tws] == 0.0
    for f, v in model.phi.items():
        assert np.array_equal(v, before_phi[f])
    assert np.array_equal(model.psi[tws], before_psi)


def test_training_reduces_loss():
    db = convergence_database(8)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=8, n_samples=5, epochs=30, learning_rate=0.05, seed=0)
    _, history = train(db, "item", schemes, cfg)
    first = float(np.mean(list(history[0].epoch_mean_loss.values())))
    last = float(np.mean(list(history[-1].epoch_mean_loss.values())))
    assert last < 0.5 * first


def test_skip_accounting_excludes_dead_samples(chain_db):
    # R(r2) has no referencing facts: every sample touching it is skipped
    schemes = [
        t
        for t in enumerate_targeted_schemes(chain_db.schema, "R", 1)
        if t.scheme.length == 1 and t.target_attr == "sval"
    ]
    cfg = TrainConfig(k=2, n_samples=6, epochs=1, learning_rate=0.1, seed=0)
    model, history = train(chain_db, "R", schemes, cfg)
    stats = history[0]
    # both facts pair with each other and one side always dies
    assert stats.samples_used == 0
    assert stats.samples_skipped == 12
    assert stats.epoch_mean_loss == {}


def test_cumulative_mean_matches_recomputation():
    db = convergence_database(6)
    (tws,) = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item[g]--[gid]grp :: gval"
    ]
    cfg = TrainConfig(k=4, n_samples=4, epochs=4, learning_rate=0.05, seed=2)
    _, history = train(db, "item", [tws], cfg)
    total = 0.0
    count = 0
    for stats in history:
        used = stats.samples_used
        total += stats.epoch_mean_loss[tws] * used
        count += used
        assert stats.cumulative_mean_loss[tws] == pytest.approx(total / count, rel=1e-12)


def test_train_requires_two_start_facts(chain_schema):
    from walkembed.relational import build_database

    db = build_database(chain_schema, [("R", ("only",))])
    schemes = enumerate_targeted_schemes(db.schema, "R", 0)
    with pytest.raises(UsageError):
        train(db, "R", schemes, TrainConfig(k=2, epochs=1))


def test_callback_can_shrink_active_schemes():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    assert len(schemes) >= 3
    seen = []

    def drop_last(epoch, model, stats):
        seen.append(tuple(model.active_schemes))
        if epoch == 1:
            model.active_schemes = model.active_schemes[:2]

    cfg = TrainConfig(k=4, n_samples=2, epochs=3, learning_rate=0.05, seed=0)
    model, history = train(db, "item", schemes, cfg, callbacks=[drop_last])
    assert len(history[0].active_schemes) == len(schemes)
    assert len(history[1].active_schemes) == 2
    assert len(model.active_schemes) == 2
    # the dropped schemes keep their (frozen) psi entries
    assert set(model.psi) == set(schemes)


def test_frozen_scheme_psi_untouched_after_drop():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    dropped = schemes[-1]
    frozen = {}

    def drop(epoch, model, stats):
        if epoch == 1:
            model.active_schemes = [t for t in model.active_schemes if t != dropped]
            frozen["psi"] = model.psi[dropped].copy()

    cfg = TrainConfig(k=4, n_samples=3, epochs=4, learning_rate=0.05, seed=1)
    model, _ = train(db, "item", schemes, cfg, callbacks=[drop])
    assert np.array_equal(model.psi[dropped], frozen["psi"])


def test_bilinear_definition():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    model = _toy_model(tws)
    model.psi[tws][:] = [[2.0, 0.5], [0.5, 1.0]]
    assert bilinear(model, 0, 1, tws) == pytest.approx(0.5, abs=1e-15)
    assert bilinear(model, 0, 0, tws) == pytest.approx(2.0, abs=1e-15)


# -- level-batched epochs against the sequential oracle ---------------------------


# Largest difference from the scalar oracle, relative to the largest
# magnitude of the array compared (phi, psi, or one epoch's loss means).  A
# loss is half a squared residual whose rounding is that of the prediction,
# not of the residual, so loss means below 1 are held relative to the
# square root of the largest.
ORACLE_RTOL = 1e-12


def _assert_close(got, want, loss=False):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = float(np.abs(want[np.isfinite(want)]).max(initial=0.0))
    if loss:
        scale = max(scale, math.sqrt(scale))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=ORACLE_RTOL * scale)


def _assert_matches_oracle(got, want):
    """``_run`` results of the level-batched trainer and of the oracle: the
    same message (or none), per epoch the same sample counts and loss keys
    in the same order, and loss means, phi and psi within ORACLE_RTOL."""
    assert got[2] == want[2]
    assert len(got[1]) == len(want[1])
    for (g_epoch, g_cum, *g_counts), (w_epoch, w_cum, *w_counts) in zip(got[1], want[1]):
        assert g_counts == w_counts
        for g, w in ((g_epoch, w_epoch), (g_cum, w_cum)):
            assert [key for key, _ in g] == [key for key, _ in w]
            _assert_close([v for _, v in g], [v for _, v in w], loss=True)
    if want[2] is None:
        assert list(got[0].phi) == list(want[0].phi) and list(got[0].psi) == list(want[0].psi)
        _assert_close(got[0].phi.data, want[0].phi.data)
        _assert_close(got[0].psi.data, want[0].psi.data)


def _reference_train_epoch(db, model, cfg, kernels, epoch_index, ledger):
    """The scalar epoch: the same draws, then the updates level by level
    (``_reference_levels``), each level in shuffle order.  Every update
    takes ``loss_and_grads`` at the level-start psi and steps its two phi
    rows at once; at the level's end each matrix steps once by the sum of
    its updates' symmetrised gradients, added in shuffle order.  The first
    non-finite loss in that order raises.  ``ledger`` holds loss sums and
    counts by psi row.  Returns (epoch means in first-reach order,
    cumulative means in psi row order, samples used, samples skipped)."""
    start_ids = np.asarray(db.relation_fact_ids(model.start_relation), dtype=np.int64)
    rng = derive_rng(cfg.seed, "epoch", epoch_index)
    active = list(model.active_schemes)
    facts, partners, scheme_of, kappas = [], [], [], []
    skipped = 0
    m = len(start_ids)
    for s, tws in enumerate(active):
        spec = kernel_for(kernels, tws)
        fact_pos = np.repeat(np.arange(m), cfg.n_samples)
        partner_pos = (fact_pos + 1 + rng.integers(0, m - 1, size=len(fact_pos))) % m
        fs, ps = start_ids[fact_pos], start_ids[partner_pos]
        dests_f, vals_f = sample_target_values_batch(db, fs, tws, rng, cfg.retry_cap)
        dests_p, vals_p = sample_target_values_batch(db, ps, tws, rng, cfg.retry_cap)
        vals_f, vals_p = decoded(db, tws, dests_f, vals_f), decoded(db, tws, dests_p, vals_p)
        for f, p, a, b in zip(fs.tolist(), ps.tolist(), vals_f, vals_p):
            if a is None or b is None:
                skipped += 1
                continue
            facts.append(f)
            partners.append(p)
            scheme_of.append(s)
            kappas.append(kernel_eval(spec, a, b))
    order = rng.permutation(len(kappas)).tolist()
    levels = _reference_levels([facts[j] for j in order], [partners[j] for j in order])
    losses = {}
    for level in sorted(set(levels)):
        steps = {}
        for j in [j for j, lv in zip(order, levels) if lv == level]:
            f, p, s = facts[j], partners[j], scheme_of[j]
            loss, g_f, g_p, g_psi = loss_and_grads(model.phi[f], model.phi[p], model.psi[active[s]], kappas[j])
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss on scheme {targeted_text(active[s])} "
                    f"(facts {f},{p}, kappa={kappas[j]})"
                )
            losses[j] = loss
            model.phi[f][:] = model.phi[f] - cfg.learning_rate * g_f
            model.phi[p][:] = model.phi[p] - cfg.learning_rate * g_p
            sym = g_psi + g_psi.T
            steps[s] = sym if s not in steps else steps[s] + sym
        for s, total in steps.items():
            model.psi[active[s]][:] = model.psi[active[s]] - cfg.learning_rate * 0.5 * total
    loss_sum = [0.0] * len(active)
    loss_n = [0] * len(active)
    for j in order:
        loss_sum[scheme_of[j]] += losses[j]
        loss_n[scheme_of[j]] += 1
    epoch_mean_loss = {}
    for j in order:
        s = scheme_of[j]
        if active[s] not in epoch_mean_loss:
            epoch_mean_loss[active[s]] = loss_sum[s] / loss_n[s]
            row = model.psi.index[active[s]]
            ledger[0, row] += loss_sum[s]
            ledger[1, row] += loss_n[s]
    cumulative = {t: float(ledger[0, i] / ledger[1, i]) for i, t in enumerate(model.psi) if ledger[1, i]}
    for fid, vec in model.phi.items():
        if not np.all(np.isfinite(vec)):
            raise NumericError(f"non-finite embedding for fact {fid} after epoch {epoch_index}")
    for tws, mat in model.psi.items():
        if not np.all(np.isfinite(mat)):
            raise NumericError(f"non-finite scheme matrix for {targeted_text(tws)} after epoch {epoch_index}")
    return epoch_mean_loss, cumulative, len(kappas), skipped


def _run(epoch_fn, db, start, schemes, cfg, shrink):
    """Train with epoch_fn; after epoch 1 keep only the first ``shrink``
    active schemes (None keeps all).  Returns (model, per-epoch records,
    the NumericError message or None)."""
    kernels = default_kernels(db)
    model = init_model(db, start, schemes, cfg)
    ledger = _ledger(model)
    records = []
    try:
        for epoch in range(1, cfg.epochs + 1):
            out = epoch_fn(db, model, cfg, kernels, epoch, ledger)
            if isinstance(out, trainer.EpochStats):
                out = (out.epoch_mean_loss, out.cumulative_mean_loss, out.samples_used, out.samples_skipped)
            records.append((list(out[0].items()), list(out[1].items()), out[2], out[3]))
            if epoch == 1 and shrink is not None:
                model.active_schemes = model.active_schemes[:shrink]
    except NumericError as exc:
        return model, records, str(exc)
    return model, records, None


def _case(kind, db_seed):
    """(database, start relation, schemes) of one generated case, or None."""
    if kind == "two":  # two start facts: every update shares both rows
        db = two_cluster_database(1)
        return db, "item", enumerate_targeted_schemes(db.schema, "item", 1)
    if kind == "convergence":
        db = convergence_database(4 + db_seed % 6, obs_per_item=1 + db_seed % 3, seed=db_seed)
        return db, "item", enumerate_targeted_schemes(db.schema, "item", 1)
    # random schemas: nullable attributes and foreign keys, dead ends, retries, skips
    schema = random_schema(db_seed)
    db = random_database(schema, db_seed)
    for rel in schema.relations:
        schemes = enumerate_targeted_schemes(schema, rel.name, 2)
        if len(db.relation_fact_ids(rel.name)) >= 2 and schemes:
            return db, rel.name, schemes[:8]
    return None


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["two", "convergence", "random"]),
    db_seed=st.integers(min_value=0, max_value=300),
    k=st.integers(min_value=1, max_value=33),
    n_samples=st.integers(min_value=1, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
    learning_rate=st.floats(min_value=0.01, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
    shrink=st.none() | st.integers(min_value=0, max_value=3),
)
def test_level_batched_training_matches_sequential_oracle(
    kind, db_seed, k, n_samples, epochs, learning_rate, seed, shrink
):
    """Full train runs agree with the scalar oracle within ORACLE_RTOL:
    phi, psi (active and frozen), and epoch and cumulative loss means,
    with the same key order and sample counts; a run that diverges raises
    the same message in both.  ``shrink`` 0 leaves an epoch with no
    active scheme."""
    case = _case(kind, db_seed)
    if case is None:
        return
    db, start, schemes = case
    cfg = TrainConfig(k=k, n_samples=n_samples, epochs=epochs, learning_rate=learning_rate, seed=seed)
    with np.errstate(all="ignore"):
        got = _run(train_epoch, db, start, schemes, cfg, shrink)
        want = _run(_reference_train_epoch, db, start, schemes, cfg, shrink)
    _assert_matches_oracle(got, want)


def _level_spy(monkeypatch):
    """Spy on ``_apply_levels``: the list it returns gets, per epoch, the
    matrix and the level of every update."""
    seen = []
    apply_levels = trainer._apply_levels

    def spy(phi, psi, f, p, s, kappa, learning_rate):
        loss, levels = apply_levels(phi, psi, f, p, s, kappa, learning_rate)
        seen.append((s, levels))
        return loss, levels

    monkeypatch.setattr(trainer, "_apply_levels", spy)
    return seen


@pytest.mark.parametrize("n_schemes", [1, 3])
def test_wide_levels_sum_each_matrix_like_the_oracle(monkeypatch, n_schemes):
    """Many facts and few schemes: levels hold many updates of one matrix
    (with one scheme, every update of a level shares one matrix), and the
    summed psi steps still match the scalar oracle."""
    db = convergence_database(40, obs_per_item=2, seed=3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)[:n_schemes]
    cfg = TrainConfig(k=5, n_samples=3, epochs=2, learning_rate=0.1, seed=4)
    seen = _level_spy(monkeypatch)
    got = _run(train_epoch, db, "item", schemes, cfg, None)
    want = _run(_reference_train_epoch, db, "item", schemes, cfg, None)
    for s, levels in seen:
        # some level steps one matrix by a sum of at least 5 updates
        assert max(np.bincount(s[levels == v]).max() for v in range(1, levels.max() + 1)) >= 5
        assert n_schemes > 1 or not s.any()
    assert got[2] is None
    _assert_matches_oracle(got, want)


def test_one_update_per_level_matches_the_oracle(monkeypatch):
    """Two start facts: every update shares both phi rows, so each level
    holds one update, and a matrix takes each update's step alone."""
    db = two_cluster_database(1)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=3, learning_rate=0.2, seed=6)
    seen = _level_spy(monkeypatch)
    got = _run(train_epoch, db, "item", schemes, cfg, None)
    want = _run(_reference_train_epoch, db, "item", schemes, cfg, None)
    for s, levels in seen:
        assert len(s) > 1 and sorted(levels.tolist()) == list(range(1, len(s) + 1))
    assert got[2] is None
    _assert_matches_oracle(got, want)


def test_a_level_wider_than_the_chunk_matches_the_oracle(monkeypatch):
    """1000 start facts and one draw each per scheme: some level holds more
    than ``PSI_CHUNK`` updates, and one matrix's updates span two chunks,
    whose partial sums are added in order."""
    db = convergence_database(1000, obs_per_item=1, seed=3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)[:2]
    cfg = TrainConfig(k=4, n_samples=1, epochs=2, learning_rate=0.1, seed=2)
    seen = _level_spy(monkeypatch)
    got = _run(train_epoch, db, "item", schemes, cfg, None)
    want = _run(_reference_train_epoch, db, "item", schemes, cfg, None)
    for s, levels in seen:
        assert np.bincount(levels).max() > trainer.PSI_CHUNK
        assert np.bincount(s[levels == 1]).max() > trainer.PSI_CHUNK // 2
    assert got[2] is None
    _assert_matches_oracle(got, want)


# One epoch on the planted layout; prints the scheme count, the mean level
# width and one hash of phi, psi and the loss means.
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from walkembed.evaluation import strip_attribute
from walkembed.schemes import enumerate_targeted_schemes
from walkembed.synth import planted_database
from walkembed.trainer import TrainConfig, train
n_items, n_obs, max_length = map(int, sys.argv[1:])
db, _ = strip_attribute(planted_database(n_items=n_items, n_obs=n_obs, seed=7).db, "item", "cls")
schemes = enumerate_targeted_schemes(db.schema, "item", max_length)
model, (stats,) = train(db, "item", schemes, TrainConfig(k=16, n_samples=2, epochs=1, learning_rate=0.15, seed=7))
losses = np.array([stats.epoch_mean_loss.get(t, -1.0) for t in schemes])
digest = hashlib.sha256(model.phi.data.tobytes() + model.psi.data.tobytes() + losses.tobytes()).hexdigest()
print(len(schemes), stats.samples_used / stats.sgd_levels, digest)
"""


@pytest.mark.parametrize("n_items, n_obs, max_length", [(1000, 2, 1), (80, 7, 2)], ids=["wide-levels", "71-schemes"])
def test_training_bytes_do_not_depend_on_the_blas_thread_count(n_items, n_obs, max_length):
    """Two child processes train under ``OPENBLAS_NUM_THREADS`` 1 and 2:
    phi, psi and the loss means are the same bytes, with levels wider than
    ``PSI_CHUNK`` (1000 start facts) and with 71 schemes."""
    package_root = str(Path(walkembed.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(n_items), str(n_obs), str(max_length)],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout.split())
    (schemes, width, digest), again = outputs
    assert again == [schemes, width, digest]
    if n_items == 1000:
        assert float(width) > trainer.PSI_CHUNK  # the mean level holds more than one chunk
    else:
        assert int(schemes) >= 70


def test_an_asymmetric_scheme_matrix_is_refused_before_anything_is_written():
    db = convergence_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=3, n_samples=2, epochs=1, seed=4)
    model = init_model(db, "item", schemes, cfg)
    model.psi[schemes[1]][0, 2] = 0.5
    before = copy.deepcopy(model)
    message = f"scheme matrix for {targeted_text(schemes[1])} is not symmetric"
    with pytest.raises(UsageError, match=re.escape(message)):
        train_epoch(db, model, cfg, default_kernels(db), 1, _ledger(model))
    assert np.array_equal(model.phi.data, before.phi.data) and np.array_equal(model.psi.data, before.psi.data)


def test_trained_psi_is_exactly_symmetric():
    """Each level steps a matrix by a gradient sum plus its transpose, so
    psi stays symmetric to the bit: training reads ``phi_p @ psi`` as
    ``psi @ phi_p``."""
    setup = planted_database(n_items=80, n_obs=2, seed=7)
    db, _ = strip_attribute(setup.db, "item", "cls")
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    model, _ = train(db, "item", schemes, TrainConfig(k=16, n_samples=2, epochs=3, learning_rate=0.15, seed=7))
    assert not np.array_equal(model.psi.data, np.tile(np.eye(16), (len(schemes), 1, 1)))
    assert np.array_equal(model.psi.data, model.psi.data.transpose(0, 2, 1))


def test_epoch_without_surviving_samples_is_a_no_op(chain_db):
    schemes = [
        t
        for t in enumerate_targeted_schemes(chain_db.schema, "R", 1)
        if t.scheme.length == 1 and t.target_attr == "sval"
    ]
    cfg = TrainConfig(k=3, n_samples=4, epochs=1, seed=0)
    model = init_model(chain_db, "R", schemes, cfg)
    before = copy.deepcopy(model)
    stats = train_epoch(chain_db, model, cfg, default_kernels(chain_db), 1, _ledger(model))
    assert (stats.samples_used, stats.sgd_levels, stats.epoch_mean_loss) == (0, 0, {})
    for fid, vec in model.phi.items():
        assert np.array_equal(vec, before.phi[fid])
    for tws, mat in model.psi.items():
        assert np.array_equal(mat, before.psi[tws])


def _planted_model(db, schemes, cfg, plant_seed, n_bad):
    """A fresh model with n_bad non-finite entries in random phi rows."""
    model = init_model(db, "item", schemes, cfg)
    rng = derive_rng(plant_seed, "plant")
    ids = db.relation_fact_ids("item")
    for i in rng.choice(len(ids), size=n_bad, replace=False).tolist():
        model.phi[ids[i]][int(rng.integers(0, cfg.k))] = [np.inf, -np.inf, np.nan][int(rng.integers(0, 3))]
    return model


def _raise_message(epoch_fn, db, model, cfg):
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        epoch_fn(db, model, cfg, default_kernels(db), 1, _ledger(model))
    return str(err.value)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
    plant_seed=st.integers(min_value=0, max_value=2**16),
    n_bad=st.integers(min_value=1, max_value=3),
)
def test_non_finite_loss_names_the_oracles_update_and_writes_nothing(k, seed, plant_seed, n_bad):
    """The message names the first non-finite loss in application order,
    lowest level first and then shuffle position, as the scalar oracle
    meets it; the model keeps every value it had."""
    db = convergence_database(8)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=k, n_samples=2, epochs=1, seed=seed)
    model = _planted_model(db, schemes, cfg, plant_seed, n_bad)
    before = copy.deepcopy(model)
    got = _raise_message(train_epoch, db, model, cfg)
    assert got == _raise_message(_reference_train_epoch, db, copy.deepcopy(before), cfg)
    assert got.startswith("non-finite loss on scheme ")
    for fid, vec in model.phi.items():
        assert np.array_equal(vec, before.phi[fid], equal_nan=True)
    for tws, mat in model.psi.items():
        assert np.array_equal(mat, before.psi[tws])


def test_lowest_level_failure_wins_over_an_earlier_one_in_shuffle_order(monkeypatch):
    """With two planted rows, some epoch's first failing update in shuffle
    order sits on a higher level than a later, independent failure.  The
    lower level runs first and spoils the matrices the higher one reads, so
    the message names the later update, as the scalar oracle does."""
    db = convergence_database(8)
    ids = db.relation_fact_ids("item")
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    seen = []
    apply_levels = trainer._apply_levels

    def spy(phi, psi, f, p, s, kappa, learning_rate):
        loss, levels = apply_levels(phi, psi, f, p, s, kappa, learning_rate)
        seen.append((f, p, levels, loss))
        return loss, levels

    monkeypatch.setattr(trainer, "_apply_levels", spy)
    inverted = 0
    for trial in range(20):
        cfg = TrainConfig(k=4, n_samples=1, epochs=1, seed=trial)
        model = _planted_model(db, schemes, cfg, trial, 2)
        before = copy.deepcopy(model)
        got = _raise_message(train_epoch, db, model, cfg)
        assert got == _raise_message(_reference_train_epoch, db, before, cfg)
        f, p, levels, loss = seen[-1]
        bad = np.flatnonzero(~np.isfinite(loss)).tolist()
        first = min(bad, key=lambda i: (levels[i], i))
        assert f"(facts {ids[f[first]]},{ids[p[first]]}, " in got
        inverted += first != bad[0]
    assert inverted > 0


def _stats(db, schemes, cfg):
    _, history = train(db, "item", schemes, cfg)
    return history


def _busiest_rows(monkeypatch):
    """Spy on ``_apply_levels``: the list it returns gets, per epoch, the
    most updates any one phi row takes."""
    most = []
    apply_levels = trainer._apply_levels

    def spy(phi, psi, f, p, s, kappa, learning_rate):
        most.append(int(np.bincount(np.concatenate((f, p))).max()))
        return apply_levels(phi, psi, f, p, s, kappa, learning_rate)

    monkeypatch.setattr(trainer, "_apply_levels", spy)
    return most


def test_sgd_levels_bounds(monkeypatch):
    """Updates that touch one phi row sit on distinct levels, so the most
    updates any row takes bound the level count from below; first fit uses
    at most twice that, less one.  Updates of one scheme may share a level:
    one scheme alone runs in fewer levels than it has samples."""
    db = convergence_database(10)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, n_samples=3, epochs=2, seed=5)
    touches = _busiest_rows(monkeypatch)
    history = _stats(db, schemes, cfg)
    for stats, most in zip(history, touches, strict=True):
        assert stats.samples_skipped == 0  # every fact starts 3 samples of every scheme
        assert len(schemes) * 3 <= most <= stats.sgd_levels < stats.samples_used
        assert stats.sgd_levels <= 2 * most - 1
    for stats in _stats(db, schemes[:1], cfg):
        assert stats.sgd_levels < stats.samples_used == 10 * 3


def test_sgd_levels_equal_samples_with_two_start_facts():
    db = two_cluster_database(1)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    for stats in _stats(db, schemes, TrainConfig(k=3, n_samples=4, epochs=2, seed=1)):
        assert stats.samples_used > 0
        assert stats.sgd_levels == stats.samples_used


def test_experiment_epochs_run_in_about_as_many_levels_as_the_busiest_row(monkeypatch):
    """The benchmark's ``experiment`` shape (80 items, 16 schemes,
    ``n_samples`` 2): an epoch runs in at most 5% more levels than its
    busiest row has updates.  The rule that put an update one level above
    its rows' highest level took about 2.7 times as many."""
    setup = planted_database(n_items=80, n_obs=2, seed=7)
    db, _ = strip_attribute(setup.db, "item", "cls")
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    assert len(schemes) == 16
    most = _busiest_rows(monkeypatch)
    cfg = TrainConfig(k=16, n_samples=2, epochs=2, learning_rate=0.15, seed=7)
    _, history = train(db, "item", schemes, cfg)
    for stats, busiest in zip(history, most, strict=True):
        assert stats.samples_used == 80 * 16 * 2
        assert busiest <= stats.sgd_levels <= 1.05 * busiest


def _reference_levels(f, p):
    """First fit, written plainly on rows of any hashable kind: each update
    takes the lowest level from 1 that neither of its rows holds yet."""
    taken = {}
    levels = []
    for a, b in zip(f, p):
        held = taken.setdefault(a, set()) | taken.setdefault(b, set())
        level = 1
        while level in held:
            level += 1
        taken[a].add(level)
        taken[b].add(level)
        levels.append(level)
    return levels


def _draw_updates(n_rows, data):
    """Up to 60 updates (fact row, partner row) on rows range(n_rows)."""
    n = data.draw(st.integers(0, 60))
    f = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    offsets = data.draw(st.lists(st.integers(1, n_rows - 1), min_size=n, max_size=n))
    return f, [(a + o) % n_rows for a, o in zip(f, offsets)]  # a partner is never its own fact


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(2, 12), data=st.data())
def test_levels_match_the_first_fit_oracle(n_rows, data):
    f, p = _draw_updates(n_rows, data)
    assert trainer._levels(f, p, n_rows) == _reference_levels(f, p)


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(2, 12), data=st.data())
def test_levels_are_row_disjoint_and_each_update_takes_the_lowest_free_level(n_rows, data):
    f, p = _draw_updates(n_rows, data)
    levels = trainer._levels(f, p, n_rows)
    for level in set(levels):
        rows = [r for a, b, lv in zip(f, p, levels) if lv == level for r in (a, b)]
        assert len(rows) == len(set(rows))
    for i, (a, b, level) in enumerate(zip(f, p, levels)):
        # the levels that earlier updates of row a or row b hold
        held = {lv for c, d, lv in zip(f[:i], p[:i], levels[:i]) if {c, d} & {a, b}}
        assert level not in held and held >= set(range(1, level))
    if f:
        most = int(np.bincount(f + p).max())
        assert most <= max(levels) <= 2 * most - 1
