"""Bilinear trainer: gradients against central differences, fixed points,
loss bookkeeping, and determinism.

The gradient oracle perturbs every coordinate of phi_f, phi_p, and psi by
h = 1e-5 and compares the two-sided difference quotient to the analytic
gradient; psi is treated as unconstrained here because the analytic value
is the raw (unsymmetrised) matrix gradient.
"""

import numpy as np
import pytest

from walkembed.errors import NumericError, UsageError
from walkembed.kernels import default_kernels
from walkembed.schemes import enumerate_targeted_schemes, targeted_text
from walkembed.seeding import derive_rng
from walkembed.synth import convergence_database, two_cluster_database
from walkembed.trainer import (
    EmbeddingModel,
    TrainConfig,
    bilinear,
    init_model,
    loss_and_grads,
    sgd_step,
    train,
)


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
    model.phi[0] = rng.normal(size=2)
    model.phi[1] = rng.normal(size=2)
    for _ in range(20):
        sgd_step(model.phi[0], model.phi[1], model.psi[tws], float(rng.uniform()), 0.05)
    assert np.array_equal(model.psi[tws], model.psi[tws].T)


def test_sgd_step_non_finite_loss_raises():
    db = two_cluster_database(2)
    tws = _gval_scheme(db)
    model = _toy_model(tws)
    model.phi[0] = np.array([np.inf, 0.0])
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

    from walkembed.trainer import train_epoch, _LossLedger

    cfg = TrainConfig(k=2, n_samples=2, epochs=1, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        train_epoch(db, model, cfg, default_kernels(db), 1, _LossLedger())
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

    from walkembed.trainer import train_epoch, _LossLedger

    cfg = TrainConfig(k=2, n_samples=4, epochs=1, learning_rate=0.5, seed=0)
    kernels = default_kernels(db)
    stats = train_epoch(db, model, cfg, kernels, 1, _LossLedger())
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
    model.psi[tws] = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert bilinear(model, 0, 1, tws) == pytest.approx(0.5, abs=1e-15)
    assert bilinear(model, 0, 0, tws) == pytest.approx(2.0, abs=1e-15)
