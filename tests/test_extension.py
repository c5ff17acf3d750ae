"""Ridge-solved embeddings for freshly inserted facts.

The clone check is the core oracle: a model whose bilinear responses equal
the exact kernel distances must give an inserted duplicate row a vector
that behaves like its twin's, up to the ridge shrinkage lam/(n + lam)
with exact targets, and up to Monte Carlo noise with sampled ones.
"""

import math

import numpy as np
import pytest

from conftest import reference_kd, reference_value_distribution

from walkembed import evaluation, extension
from walkembed.errors import NumericError, UsageError
from walkembed.extension import ExtensionConfig, extend_embedding, solve_ridge
from walkembed.kernels import (
    column_kernel,
    default_kernels,
    kd_exact,
    kd_from_value_law,
    kernel_eval,
    kernel_for,
)
from walkembed.relational import Fact, build_database, insert_facts, schema_from_dict
from walkembed.schemes import (
    enumerate_targeted_schemes,
    exact_value_law,
    sample_target_values_batch,
    targeted_text,
)
from walkembed.model_io import save_model
from walkembed.seeding import derive_rng
from walkembed.synth import planted_database, two_cluster_database
from walkembed.trainer import EmbeddingModel, TrainConfig, bilinear, train


def _cluster_indicator_model():
    """Hand-built model on the two-cluster data: phi is the one-hot group
    indicator and psi the identity for the group-value scheme, so the
    bilinear response equals the exact kernel distance for every pair."""
    db = two_cluster_database(6)
    items = list(db.relation_fact_ids("item"))
    rel = db.schema.relation("item")
    (tws,) = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item[g]--[gid]grp :: gval"
    ]
    first_group = db.fact(items[0]).value(rel, "g")
    phi = {}
    for f in items:
        vec = np.zeros(2)
        vec[0 if db.fact(f).value(rel, "g") == first_group else 1] = 1.0
        phi[f] = vec
    model = EmbeddingModel(2, "item", phi, {tws: np.eye(2)}, [tws])
    return db, model, tws, items


# -- solve_ridge -----------------------------------------------------------------------


def test_solve_ridge_recovers_exact_solution():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(20, 6))
    x0 = rng.normal(size=6)
    x = solve_ridge(rows, rows @ x0, ridge=0.0)
    assert np.max(np.abs(x - x0)) < 1e-8


def test_solve_ridge_huge_coefficient_shrinks_to_zero():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(20, 6))
    x = solve_ridge(rows, rows @ rng.normal(size=6), ridge=1e6)
    assert np.max(np.abs(x)) < 1e-3


def test_solve_ridge_zero_on_singular_system_errors():
    rows = np.tile(np.array([1.0, 0.0]), (5, 1))  # rank 1 in 2 dims
    with pytest.raises(NumericError, match="positive ridge"):
        solve_ridge(rows, np.ones(5), ridge=0.0)


def test_solve_ridge_non_finite_result_errors():
    rows = np.eye(3)
    with pytest.raises(NumericError):
        solve_ridge(rows, np.array([1.0, np.nan, 0.0]), ridge=1e-6)


def test_extension_config_validation():
    with pytest.raises(UsageError):
        ExtensionConfig(partners_per_scheme=0)
    with pytest.raises(UsageError):
        ExtensionConfig(samples_per_partner=0)
    with pytest.raises(UsageError):
        ExtensionConfig(ridge=-1.0)
    ExtensionConfig(ridge=0.0)  # zero is allowed; the solve may still reject it


@pytest.mark.parametrize("ridge", [math.nan, math.inf])
def test_extension_config_rejects_a_non_finite_ridge(ridge):
    with pytest.raises(UsageError, match="ridge must be a finite non-negative number"):
        ExtensionConfig(ridge=ridge)


# -- clone behaviour against a response-exact model ------------------------------------------


def test_clone_gets_twin_like_responses():
    db, model, tws, items = _cluster_indicator_model()
    rel = db.schema.relation("item")
    twin = items[0]
    clone = Fact("item", ("clone", db.fact(twin).value(rel, "g")))
    db2 = insert_facts(db, [clone])
    new_id = db2.n_facts - 1
    cfg = ExtensionConfig(exhaustive_partners=True, exact_targets=True)
    ext = extend_embedding(db2, model, [new_id], cfg, default_kernels(db))
    worst = max(
        abs(bilinear(ext, new_id, p, tws) - bilinear(ext, twin, p, tws)) for p in items
    )
    # ridge shrinkage on a 6-partner cluster: lam / (6 + lam)
    assert worst < 1e-6
    assert worst == pytest.approx(1e-6 / (6 + 1e-6), rel=1e-3)


def test_clone_vector_recovers_twin_at_tiny_ridge():
    db, model, tws, items = _cluster_indicator_model()
    rel = db.schema.relation("item")
    twin = items[0]
    clone = Fact("item", ("clone", db.fact(twin).value(rel, "g")))
    db2 = insert_facts(db, [clone])
    new_id = db2.n_facts - 1
    cfg = ExtensionConfig(exhaustive_partners=True, exact_targets=True, ridge=1e-12)
    ext = extend_embedding(db2, model, [new_id], cfg, default_kernels(db))
    assert np.max(np.abs(ext.phi[new_id] - model.phi[twin])) < 1e-8


def test_huge_ridge_drives_new_vector_to_zero():
    db, model, tws, items = _cluster_indicator_model()
    rel = db.schema.relation("item")
    clone = Fact("item", ("clone", db.fact(items[0]).value(rel, "g")))
    db2 = insert_facts(db, [clone])
    new_id = db2.n_facts - 1
    cfg = ExtensionConfig(exhaustive_partners=True, exact_targets=True, ridge=1e6)
    ext = extend_embedding(db2, model, [new_id], cfg, default_kernels(db))
    assert np.max(np.abs(ext.phi[new_id])) < 1e-4


# -- freezing ----------------------------------------------------------------------


def test_existing_model_is_untouched(tmp_path):
    db, model, tws, items = _cluster_indicator_model()
    rel = db.schema.relation("item")
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    save_model(model, db, before)
    clone = Fact("item", ("clone", db.fact(items[0]).value(rel, "g")))
    db2 = insert_facts(db, [clone])
    cfg = ExtensionConfig(exhaustive_partners=True, exact_targets=True)
    ext = extend_embedding(db2, model, [db2.n_facts - 1], cfg, default_kernels(db))
    save_model(model, db, after)
    assert before.read_bytes() == after.read_bytes()
    # the extended model shares psi and keeps every old phi row bit-identical
    assert ext.psi is model.psi
    for f in items:
        assert np.array_equal(ext.phi[f], model.phi[f])
    assert set(ext.phi) == set(model.phi) | {db2.n_facts - 1}


# -- batch handling ---------------------------------------------------------------


def _trained_cluster_model(seed=0):
    db = two_cluster_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, n_samples=4, epochs=3, learning_rate=0.1, seed=seed)
    model, _ = train(db, "item", schemes, cfg)
    return db, model


def test_batch_order_does_not_change_vectors():
    db, model = _trained_cluster_model()
    rel = db.schema.relation("item")
    items = list(db.relation_fact_ids("item"))
    g0 = db.fact(items[0]).value(rel, "g")
    g1 = next(
        db.fact(f).value(rel, "g")
        for f in items
        if db.fact(f).value(rel, "g") != g0
    )
    db2 = insert_facts(db, [Fact("item", ("n1", g0)), Fact("item", ("n2", g1))])
    a, b = db2.n_facts - 2, db2.n_facts - 1
    cfg = ExtensionConfig()  # sampled targets exercise the per-fact streams
    fwd = extend_embedding(db2, model, [a, b], cfg, default_kernels(db), seed=7)
    rev = extend_embedding(db2, model, [b, a], cfg, default_kernels(db), seed=7)
    assert np.array_equal(fwd.phi[a], rev.phi[a])
    assert np.array_equal(fwd.phi[b], rev.phi[b])


def test_partners_never_come_from_the_batch():
    db, model, tws, items = _cluster_indicator_model()
    # pretend every embedded fact is itself part of the batch
    with pytest.raises(UsageError, match="partner"):
        extend_embedding(db, model, list(model.phi), ExtensionConfig(), default_kernels(db))


def test_empty_model_rejected():
    db, model, tws, items = _cluster_indicator_model()
    empty = EmbeddingModel(model.k, "item", {}, model.psi, model.active_schemes)
    with pytest.raises(UsageError):
        extend_embedding(db, empty, [items[0]], ExtensionConfig(), default_kernels(db))


def test_wrong_relation_fact_rejected():
    db, model, tws, items = _cluster_indicator_model()
    grp_fact = next(iter(db.relation_fact_ids("grp")))
    with pytest.raises(UsageError, match="relation|embeds"):
        extend_embedding(
            db, model, [grp_fact], ExtensionConfig(), default_kernels(db)
        )


def test_new_fact_with_no_complete_walk_errors(chain_db):
    schemes = enumerate_targeted_schemes(chain_db.schema, "R", 1)
    (back,) = [t for t in schemes if targeted_text(t) == "R[rid]--[ref]S :: sval"]
    phi = {f: np.ones(2) for f in chain_db.relation_fact_ids("R")}
    model = EmbeddingModel(2, "R", phi, {back: np.eye(2)}, [back])
    db2 = insert_facts(chain_db, [Fact("R", ("r3",))])  # nothing references r3
    new_id = db2.n_facts - 1
    with pytest.raises(NumericError, match="complete walk"):
        extend_embedding(
            db2,
            model,
            [new_id],
            ExtensionConfig(exact_targets=True),
            default_kernels(chain_db),
        )
    with pytest.raises(NumericError, match="complete walk"):
        extend_embedding(
            db2, model, [new_id], ExtensionConfig(), default_kernels(chain_db)
        )


def test_empty_batch_is_identity():
    db, model, tws, items = _cluster_indicator_model()
    ext = extend_embedding(db, model, [], ExtensionConfig(), default_kernels(db))
    assert set(ext.phi) == set(model.phi)
    for f in model.phi:
        assert np.array_equal(ext.phi[f], model.phi[f])


# -- sampled targets ----------------------------------------------------------------


def _tagged_database(tags):
    """item(iid) and tag(tid, item, val, num), tag.item -> item.iid.

    ``tags`` maps an item key to its tags' (val, num) pairs; either may be
    null, which makes the backward walk from the item retry.
    """
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "item",
                    "attributes": [{"name": "iid", "kind": "categorical", "nullable": False}],
                    "key": ["iid"],
                },
                {
                    "name": "tag",
                    "attributes": [
                        {"name": "tid", "kind": "categorical", "nullable": False},
                        {"name": "item", "kind": "categorical", "nullable": False},
                        {"name": "val", "kind": "categorical", "nullable": True},
                        {"name": "num", "kind": "numeric", "nullable": True},
                    ],
                    "key": ["tid"],
                },
            ],
            "foreign_keys": [
                {"src": "tag", "src_attrs": ["item"], "dst": "item", "dst_attrs": ["iid"]}
            ],
        }
    )
    rows = [("item", (key,)) for key in tags]
    rows += [
        ("tag", (f"{key}-{i}", key, val, num))
        for key, pairs in tags.items()
        for i, (val, num) in enumerate(pairs)
    ]
    return build_database(schema, rows)


def _tag_schemes(db):
    """The item -> tag schemes targeting ``val`` and ``num``, by attribute."""
    return {
        t.target_attr: t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if t.scheme.length == 1 and t.target_attr in ("val", "num")
    }


def _new_fact(db, key, pairs):
    """``db`` plus item ``key`` and its tags, and the new item's id."""
    grown = insert_facts(
        db,
        [Fact("item", (key,))]
        + [Fact("tag", (f"{key}-{i}", key, val, num)) for i, (val, num) in enumerate(pairs)],
    )
    return grown, grown.fact_by_key("item", (key,))


def _system_of(monkeypatch, db, model, new_id, cfg, kernels):
    """Run ``extend_embedding`` and return the rows and targets it hands
    to the ridge solve."""
    seen = []

    def capture(rows, targets, ridge):
        seen.append((rows.copy(), targets.copy()))
        return solve_ridge(rows, targets, ridge)

    monkeypatch.setattr(extension, "solve_ridge", capture)
    extend_embedding(db, model, [new_id], cfg, kernels, seed=11)
    (system,) = seen
    return system


def test_one_sampler_call_per_active_scheme_per_batch(monkeypatch):
    db, model = _trained_cluster_model()
    rel = db.schema.relation("item")
    g0 = db.fact(next(iter(db.relation_fact_ids("item")))).value(rel, "g")
    db2 = insert_facts(db, [Fact("item", ("n1", g0)), Fact("item", ("n2", g0))])
    new_ids = [db2.n_facts - 2, db2.n_facts - 1]
    calls = []
    real = extension.sample_target_values_batch

    def counting(db_, starts, tws, rng, retry_cap=20):
        calls.append((starts[:: 3 * 4].tolist(), tws, len(rng)))
        return real(db_, starts, tws, rng, retry_cap)

    monkeypatch.setattr(extension, "sample_target_values_batch", counting)
    cfg = ExtensionConfig(partners_per_scheme=3, samples_per_partner=4)
    extend_embedding(db2, model, new_ids, cfg, default_kernels(db))
    # each fact's block: 3 * 4 walks from it, then 3 * 4 from its partners
    assert [(s[0], s[2], tws, g) for s, tws, g in calls] == [
        (new_ids[0], new_ids[1], tws, 2) for tws in model.active_schemes
    ]
    calls.clear()
    extend_embedding(db2, model, new_ids, ExtensionConfig(exact_targets=True), default_kernels(db))
    assert calls == []


def test_sampled_targets_match_exact_distances(monkeypatch):
    # nulls among the tags make walks retry; the kernel's variance is
    # computed from the exact value laws, so each target gets a stderr
    tags = {
        "i0": [("a", 0.0), ("b", 1.0)],
        "i1": [("a", 0.5), ("a", None), (None, 2.0)],
        "i2": [("b", -1.0), ("c", 0.0), ("a", 1.5)],
        "i3": [("c", 3.0)],
        "i4": [("b", 0.2), (None, None), ("b", 0.4)],
    }
    db = _tagged_database(tags)
    db2, new_id = _new_fact(db, "new", [("a", 0.1), ("c", None), (None, 1.2), ("b", -0.5)])
    kernels = default_kernels(db)
    partners = [db.fact_by_key("item", (k,)) for k in tags]
    phi = {f: np.eye(len(partners))[i] for i, f in enumerate(partners)}
    n_draws = 4000
    cfg = ExtensionConfig(exhaustive_partners=True, samples_per_partner=n_draws)
    for attr, tws in _tag_schemes(db).items():
        model = EmbeddingModel(len(partners), "item", phi, {tws: np.eye(len(partners))}, [tws])
        rows, targets = _system_of(monkeypatch, db2, model, new_id, cfg, kernels)
        assert rows.shape == (len(partners), len(partners))
        spec = kernel_for(kernels, tws)
        law_new = reference_value_distribution(db2, new_id, tws)
        for row, target in zip(rows, targets):
            partner = partners[int(np.argmax(row))]
            mean = kd_exact(db2, new_id, partner, tws, spec)
            second = sum(
                pa * pb * kernel_eval(spec, va, vb) ** 2
                for va, pa in law_new.items()
                for vb, pb in reference_value_distribution(db2, partner, tws).items()
            )
            stderr = math.sqrt(max(second - mean * mean, 0.0) / n_draws)
            assert abs(target - mean) <= 4 * stderr + 1e-12, (attr, partner, target, mean)


def test_exact_targets_match_per_partner_oracle(monkeypatch):
    # i3's only tag has a null val and i4 has no tag: i3 drops out of the
    # val system only, i4 out of both
    tags = {
        "i0": [("a", 0.0), ("b", 1.0)],
        "i1": [("a", 0.5), ("a", None), (None, 2.0)],
        "i2": [("b", -1.0), ("c", 0.0), ("a", 1.5)],
        "i3": [(None, 3.0)],
        "i4": [],
    }
    db = _tagged_database(tags)
    db2, new_id = _new_fact(db, "new", [("a", 0.1), ("c", None), (None, 1.2), ("b", -0.5)])
    kernels = default_kernels(db)
    partners = [db.fact_by_key("item", (k,)) for k in tags]
    phi = {f: np.eye(len(partners))[i] for i, f in enumerate(partners)}
    cfg = ExtensionConfig(exhaustive_partners=True, exact_targets=True)
    for attr, tws in _tag_schemes(db).items():
        model = EmbeddingModel(len(partners), "item", phi, {tws: np.eye(len(partners))}, [tws])
        rows, targets = _system_of(monkeypatch, db2, model, new_id, cfg, kernels)
        spec = kernel_for(kernels, tws)
        want = {
            p: kd
            for p in partners
            if (kd := reference_kd(db2, new_id, p, tws, spec)) is not None
        }
        got = dict(zip((partners[int(np.argmax(r))] for r in rows), targets.tolist()))
        assert set(got) == set(want), attr
        assert all(abs(got[p] - want[p]) <= 1e-12 for p in want), attr
        assert len(want) == (3 if attr == "val" else 4)


def test_sampled_clone_gets_twin_like_responses():
    # type-A items tag values {a, b}, type-B items {b, c}: exact distances
    # are 1/2 within a type and 1/4 across, which psi reproduces on the
    # one-hot type indicator, so the twin's responses are exact
    n_per_type = 6
    tags = {f"a{i}": [("a", None), ("b", None)] for i in range(n_per_type)}
    tags.update({f"b{i}": [("b", None), ("c", None)] for i in range(n_per_type)})
    db = _tagged_database(tags)
    tws = _tag_schemes(db)["val"]
    phi = {db.fact_by_key("item", (k,)): np.eye(2)[0 if k[0] == "a" else 1] for k in tags}
    psi = np.array([[0.5, 0.25], [0.25, 0.5]])
    model = EmbeddingModel(2, "item", phi, {tws: psi}, [tws])
    twin = db.fact_by_key("item", ("a0",))
    db2, clone = _new_fact(db, "clone", [("b", None), (None, None), ("a", None)])
    n_draws = 400
    cfg = ExtensionConfig(exhaustive_partners=True, samples_per_partner=n_draws)
    ext = extend_embedding(db2, model, [clone], cfg, default_kernels(db))
    # a response to a type is the mean of its n_per_type sampled targets
    # (the two row directions are independent and the ridge is negligible);
    # one kernel value has sd at most 1/2
    tolerance = 4 * 0.5 / math.sqrt(n_per_type * n_draws)
    worst = max(
        abs(bilinear(ext, clone, p, tws) - bilinear(ext, twin, p, tws)) for p in phi
    )
    assert worst < tolerance
    assert worst > 0  # sampled, so not exact


# -- the batched extension against the per-fact loop it replaced ------------------------


def _reference_extend_embedding(db, model, new_fact_ids, cfg, kernels, seed=0, retry_cap=20):
    """The extension as first written: one sampler call per (new fact,
    scheme), each on the fact's own stream; the batched extension must
    reproduce it to the bit."""
    existing = sorted(model.phi.keys())
    new_set = set(new_fact_ids)
    pool = np.asarray([f for f in existing if f not in new_set], dtype=np.int64)
    phi = dict(model.phi)
    n_draws = cfg.samples_per_partner
    for new_fact in new_fact_ids:
        rng = derive_rng(seed, "extend", str(db.key_of(new_fact)))
        blocks, targets = [], []
        for tws in model.active_schemes:
            if cfg.exhaustive_partners:
                partners = pool
            else:
                take = min(cfg.partners_per_scheme, len(pool))
                partners = pool[rng.choice(len(pool), size=take, replace=False)]
            spec = kernel_for(kernels, tws)
            if cfg.exact_targets:
                law = exact_value_law(db, tws, np.concatenate([[new_fact], partners]))
                kd = kd_from_value_law(spec, *law, 1 + len(partners))
                has = ~np.isnan(kd)
                kept, means = partners[has].tolist(), kd[has]
            else:
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
                has = counts > 0
                kept, means = partners[has].tolist(), sums[has] / counts[has]
            if kept:
                blocks.append(np.stack([phi[p] for p in kept]) @ model.psi[tws].T)
                targets.append(means)
        phi[new_fact] = solve_ridge(np.concatenate(blocks), np.concatenate(targets), cfg.ridge)
    return EmbeddingModel(model.k, model.start_relation, phi, model.psi, model.active_schemes)


def _assert_extends_like_reference(db, model, new_ids, cfg, kernels, seed=0):
    got = extend_embedding(db, model, new_ids, cfg, kernels, seed=seed)
    want = _reference_extend_embedding(db, model, new_ids, cfg, kernels, seed=seed)
    assert list(got.phi) == list(want.phi)
    for f, vec in want.phi.items():
        assert got.phi[f].dtype == vec.dtype and got.phi[f].tobytes() == vec.tobytes(), f


_TAGS = {
    "i0": [("a", 0.0), ("b", 1.0)],
    "i1": [("a", 0.5), ("a", None), (None, 2.0)],
    "i2": [("b", -1.0), ("c", 0.0), ("a", 1.5)],
    "i3": [(None, 3.0)],
    "i4": [],
    "i5": [("c", None), (None, None), ("b", 0.4)],
    "i6": [("a", 2.5)],
    "i7": [(None, None), ("c", -0.3)],
}
_NEW_TAGS = {
    "n0": [("a", 0.1), ("c", None), (None, 1.2), ("b", -0.5)],
    "n1": [(None, None), (None, None), ("a", None)],
    "n2": [],
    "n3": [("b", 0.9)],
    "n4": [(None, 0.3), ("c", 1.1)],
}


def _tagged_batch(n_new, seed=0):
    """A model trained on ``_TAGS`` over every scheme up to length 2, whose
    targets are nullable codes, nullable floats (Gaussian kernel) and the
    length-2 item -> tag -> item walk, and the database with ``n_new``
    new items and their tags."""
    db = _tagged_database(_TAGS)
    schemes = enumerate_targeted_schemes(db.schema, "item", 2)
    assert max(t.scheme.length for t in schemes) == 2
    model, _ = train(db, "item", schemes, TrainConfig(k=3, n_samples=2, epochs=2, seed=seed))
    keys = list(_NEW_TAGS)[:n_new]
    grown = insert_facts(
        db,
        [Fact("item", (key,)) for key in keys]
        + [
            Fact("tag", (f"{key}-{i}", key, val, num))
            for key in keys
            for i, (val, num) in enumerate(_NEW_TAGS[key])
        ],
    )
    return grown, model, [grown.fact_by_key("item", (k,)) for k in keys], default_kernels(db)


def _planted_batch(n_new, seed=0):
    """A model trained on a small planted database, and the database with
    ``n_new`` new items and their observations."""
    setup = planted_database(n_items=24, n_obs=2, seed=seed)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    model, _ = train(db, "item", schemes, TrainConfig(k=4, n_samples=2, epochs=2, seed=seed))
    rows = []
    for i in range(n_new):
        rows.append(Fact("item", (f"n{i}", f"c{i % 2}", f"u{i}", f"w{i}", "k0")))
        rows += [
            Fact(f"obs{j}", (f"no{j}_{i}_{t}", f"n{i}", f"v{j}_{i % 2}_{'ab'[(i + t) % 2]}"))
            for j in range(2)
            for t in range(3)
        ]
    grown = insert_facts(db, rows)
    return grown, model, [grown.fact_by_key("item", (f"n{i}",)) for i in range(n_new)], default_kernels(db)


@pytest.mark.parametrize("batch", [_tagged_batch, _planted_batch])
@pytest.mark.parametrize("n_new", [1, 2, 5])
def test_batched_extension_matches_per_fact_reference(batch, n_new):
    db, model, new_ids, kernels = batch(n_new)
    for ids in (new_ids, new_ids[::-1]):
        for seed in (0, 3):
            _assert_extends_like_reference(db, model, ids, ExtensionConfig(), kernels, seed)


@pytest.mark.parametrize(
    "cfg",
    [
        ExtensionConfig(partners_per_scheme=8),  # the whole pool of 8
        ExtensionConfig(partners_per_scheme=50, samples_per_partner=3),
        ExtensionConfig(exhaustive_partners=True, samples_per_partner=7),
        ExtensionConfig(partners_per_scheme=1, samples_per_partner=1),
        ExtensionConfig(exact_targets=True, partners_per_scheme=4),
        ExtensionConfig(exact_targets=True, exhaustive_partners=True),
    ],
)
def test_batched_extension_matches_reference_across_configs(cfg):
    db, model, new_ids, kernels = _tagged_batch(5)
    _assert_extends_like_reference(db, model, new_ids, cfg, kernels, seed=2)


@pytest.mark.parametrize("cap", ["one fact", "two facts", "whole batch"])
def test_batch_split_into_chunks_gives_the_same_vectors(monkeypatch, cap):
    db, model, new_ids, kernels = _tagged_batch(5)
    cfg = ExtensionConfig(partners_per_scheme=3, samples_per_partner=4)
    per_fact = 2 * 3 * 4
    walkers = {"one fact": 1, "two facts": 2 * per_fact + 1, "whole batch": 5 * per_fact}[cap]
    monkeypatch.setattr(extension, "EXTEND_WALKERS", walkers)
    sizes = []
    real = extension.sample_target_values_batch

    def recording(db_, starts, tws, rng, retry_cap=20):
        sizes.append(len(rng))
        return real(db_, starts, tws, rng, retry_cap)

    monkeypatch.setattr(extension, "sample_target_values_batch", recording)
    _assert_extends_like_reference(db, model, new_ids, cfg, kernels, seed=4)
    n_schemes = len(model.active_schemes)
    expected = {"one fact": [1] * 5, "two facts": [2, 2, 1], "whole batch": [5]}[cap]
    assert sizes == [g for g in expected for _ in range(n_schemes)]


def test_dynamic_protocol_extends_like_the_per_fact_reference(monkeypatch):
    setup = planted_database(n_items=16, n_obs=2, seed=3)
    cfg = TrainConfig(k=4, n_samples=2, epochs=2, learning_rate=0.1, seed=0)
    batches = []

    def checked(db, model, new_ids, ext_cfg, kernels, seed=0, retry_cap=20):
        batches.append(len(new_ids))
        _assert_extends_like_reference(db, model, new_ids, ext_cfg, kernels, seed)
        return extend_embedding(db, model, new_ids, ext_cfg, kernels, seed, retry_cap)

    monkeypatch.setattr(evaluation, "extend_embedding", checked)
    evaluation.dynamic_protocol(setup.db, "item", "cls", 1, cfg, fractions=(0.3, 0.6), seed=5)
    assert len(batches) == 2 and min(batches) > 1


# -- argument checks ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, "past the end"])
def test_out_of_range_fact_id_rejected_before_any_walk(monkeypatch, bad):
    db, model, tws, items = _cluster_indicator_model()
    bad = db.n_facts if bad == "past the end" else bad
    calls = []
    monkeypatch.setattr(extension, "sample_target_values_batch", lambda *a: calls.append(a))
    for ids in ([bad], [items[0], bad]):
        with pytest.raises(UsageError, match=f"fact {bad} is not in the database"):
            extend_embedding(db, model, ids, ExtensionConfig(), default_kernels(db))
    assert calls == []


@pytest.mark.parametrize("retry_cap", [0, -1])
@pytest.mark.parametrize("exact", [False, True])
def test_retry_cap_below_one_rejected(retry_cap, exact):
    db, model, tws, items = _cluster_indicator_model()
    rel = db.schema.relation("item")
    db2 = insert_facts(db, [Fact("item", ("clone", db.fact(items[0]).value(rel, "g")))])
    with pytest.raises(UsageError, match="retry_cap"):
        extend_embedding(
            db2, model, [db2.n_facts - 1], ExtensionConfig(exact_targets=exact),
            default_kernels(db), retry_cap=retry_cap,
        )
