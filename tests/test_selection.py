"""Scheme scoring strategies, selection arithmetic, and online elimination.

Exact kernel variance is checked against a literal brute-force loop over
all unordered fact pairs; the mutual-information estimator against the
closed forms ln(n) for a bijective step and 0 for a constant step; and
selection invariants with property-based ratios.  The array-based mutual
information and sampled kernel variance are checked against the
dense-table and per-pair loops they replaced, kept here as references.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed.errors import NumericError, UsageError
from walkembed.kernels import default_kernels, kd_exact, kernel_eval, kernel_for
from walkembed.relational import build_database, schema_from_dict
from walkembed.schemes import (
    enumerate_targeted_schemes,
    sample_target_values_batch,
    targeted_text,
)
from walkembed.seeding import derive_rng
from walkembed.selection import (
    SamplingParams,
    SchemeScore,
    _empirical_mi,
    _fill_unassessable,
    build_sample_database,
    default_pair_budget,
    online_elimination_train,
    ranked,
    score_kvar,
    score_kvar_exact,
    score_length,
    score_mi,
    score_one_epoch,
    score_random,
    score_sampling,
    select,
)
from walkembed.synth import mi_chain_database, planted_database, two_cluster_database
from walkembed.trainer import TrainConfig, train


# -- simple strategies -----------------------------------------------------------


def test_score_length_values():
    db = mi_chain_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "X", 3)
    scores = {targeted_text(s.tws): s.score for s in score_length(schemes)}
    assert scores["X :: xid"] == 2.0  # length 0 ranks above every 1/length
    assert scores["X[fy]--[yid]Y :: yid"] == 1.0
    assert scores["X[fy]--[yid]Y[fz]--[zid]Z :: zid"] == 0.5
    three = [v for t, v in scores.items() if t.count("--") == 3]
    assert three and all(v == pytest.approx(1 / 3) for v in three)


def test_score_random_deterministic_and_seed_sensitive():
    db = two_cluster_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    a = score_random(schemes, 7)
    b = score_random(schemes, 7)
    c = score_random(schemes, 8)
    assert [s.score for s in a] == [s.score for s in b]
    assert [s.score for s in a] != [s.score for s in c]
    assert all(0.0 <= s.score <= 1.0 for s in a)


# -- mutual information --------------------------------------------------------------


def test_mi_bijective_step_is_log_n():
    db = mi_chain_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "X", 1)
    scores = {targeted_text(s.tws): s for s in score_mi(db, schemes, 10_000, seed=0)}
    got = scores["X[fy]--[yid]Y :: yid"].score
    # deterministic bijection onto 4 values: I = ln 4, kept score is -I
    assert abs(-got - math.log(4)) <= 0.05


def test_mi_constant_step_is_zero():
    db = mi_chain_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "X", 2)
    scores = {targeted_text(s.tws): s for s in score_mi(db, schemes, 10_000, seed=0)}
    # the Y -> Z hop lands on a single Z row: that position pair carries
    # no information and the minimum over positions picks it up
    got = scores["X[fy]--[yid]Y[fz]--[zid]Z :: zid"].score
    assert abs(got) <= 0.05


def test_mi_length_zero_unassessable_below_finite():
    db = mi_chain_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "X", 1)
    scores = score_mi(db, schemes, 2_000, seed=0)
    finite = [s.score for s in scores if s.tws.scheme.length >= 1]
    zero = [s for s in scores if s.tws.scheme.length == 0]
    assert zero
    for s in zero:
        assert s.score == pytest.approx(min(finite) - 1.0)
        assert s.diagnostic != ""


def _dense_mi(a, b):
    """Reference plug-in mutual information: a dense joint table and a
    loop over its non-zero cells."""
    va, ia = np.unique(a, return_inverse=True)
    vb, ib = np.unique(b, return_inverse=True)
    joint = np.zeros((len(va), len(vb)))
    np.add.at(joint, (ia, ib), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mi = 0.0
    for i, j in zip(*np.nonzero(joint)):
        pij = joint[i, j]
        mi += pij * math.log(pij / (pa[i] * pb[j]))
    return max(0.0, mi)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(-4, 40)), min_size=1, max_size=80
    )
)
def test_empirical_mi_matches_dense_table(pairs):
    a = np.asarray([p[0] for p in pairs], dtype=np.int64)
    b = np.asarray([p[1] for p in pairs], dtype=np.int64)
    assert _empirical_mi(a, b) == pytest.approx(_dense_mi(a, b), rel=1e-12)


def test_empirical_mi_memory_is_linear_in_walks():
    # 5000 distinct values on each side: a dense joint table would hold
    # 25M cells (200 MB); the sparse count keeps only the 5000 that occur
    a = np.arange(5000)
    tracemalloc.start()
    try:
        got = _empirical_mi(a, a.copy())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(math.log(5000), rel=1e-12)
    assert peak < 10 * 2**20


def test_mi_deterministic_under_seed():
    db = mi_chain_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "X", 2)
    a = [s.score for s in score_mi(db, schemes, 1_000, seed=5)]
    b = [s.score for s in score_mi(db, schemes, 1_000, seed=5)]
    assert a == b


# -- kernel variance -------------------------------------------------------------------


def test_kvar_exact_matches_brute_force():
    db = two_cluster_database(6)
    kernels = default_kernels(db)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    scores = score_kvar_exact(db, schemes, kernels)
    items = list(db.relation_fact_ids("item"))
    for sc in scores:
        spec = kernel_for(kernels, sc.tws)
        kds = []
        for a, b in itertools.combinations(items, 2):
            try:
                kds.append(kd_exact(db, a, b, sc.tws, spec))
            except NumericError:
                pass
        assert len(kds) >= 2
        brute = float(np.var(kds, ddof=1))
        assert abs(sc.score - brute) <= 1e-9


def test_kvar_two_cluster_hand_value():
    """6+6 items split across two groups: 30 within-cluster pairs at kernel
    distance 1 and 36 across at 0 give variance 30*36*2 / (66^2 * 65/66)...
    worked out directly below from the pair counts."""
    db = two_cluster_database(6)
    kernels = default_kernels(db)
    (tws,) = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item[g]--[gid]grp :: gval"
    ]
    (sc,) = [s for s in score_kvar_exact(db, [tws], kernels) if s.tws == tws]
    m = 66  # C(12, 2) unordered pairs
    mean = 30 / m
    hand = (30 * (1 - mean) ** 2 + 36 * mean**2) / (m - 1)
    assert sc.score == pytest.approx(hand, abs=1e-12)


def test_kvar_unique_key_target_zero_variance():
    db = two_cluster_database(6)
    kernels = default_kernels(db)
    (tws,) = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item :: iid"
    ]
    (sc,) = score_kvar_exact(db, [tws], kernels)
    # every pair of distinct keys disagrees: all kernel distances 0
    assert sc.score == 0.0


def test_kvar_sampled_close_to_exact():
    db = two_cluster_database(6)
    kernels = default_kernels(db)
    schemes = [
        t
        for t in enumerate_targeted_schemes(db.schema, "item", 1)
        if targeted_text(t) == "item[g]--[gid]grp :: gval"
    ]
    exact = score_kvar_exact(db, schemes, kernels)[0].score
    sampled = score_kvar(db, schemes, kernels, pair_budget=400, seed=0)[0].score
    assert abs(sampled - exact) < 0.05


def test_kvar_deterministic_under_seed():
    db = two_cluster_database(4)
    kernels = default_kernels(db)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    a = [s.score for s in score_kvar(db, schemes, kernels, 50, seed=3)]
    b = [s.score for s in score_kvar(db, schemes, kernels, 50, seed=3)]
    assert a == b


def _reference_kvar(db, schemes, kernels, pair_budget, seed, retry_cap=20):
    """Reference sampled kernel variance: a dict of per-pair kernel lists,
    one scalar kernel_eval per draw, and a mean per pair."""
    raw, notes = {}, {}
    for idx, tws in enumerate(schemes):
        start_ids = np.asarray(db.relation_fact_ids(tws.scheme.start_relation), dtype=np.int64)
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
        _, vals_a = sample_target_values_batch(db, facts_a, tws, rng, retry_cap)
        _, vals_b = sample_target_values_batch(db, facts_b, tws, rng, retry_cap)
        per_pair = {}
        for fa, fb, va, vb in zip(facts_a, facts_b, vals_a, vals_b):
            if va is None or vb is None:
                continue
            pair = (int(min(fa, fb)), int(max(fa, fb)))
            per_pair.setdefault(pair, []).append(kernel_eval(spec, va, vb))
        means = [float(np.mean(v)) for v in per_pair.values()]
        if len(means) < 2:
            notes[tws] = f"only {len(means)} assessable pair(s) within the retry cap"
            continue
        raw[tws] = float(np.var(means, ddof=1))
        notes[tws] = f"pairs={len(means)}"
    return _fill_unassessable(schemes, raw, notes, "kvar")


def _nullable_numeric_db(n_items=15, n_obs=50, seed=0):
    """Items with observations whose numeric value is null about a third of
    the time; some items have no observation, some only null ones."""
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "item",
                    "attributes": [{"name": "iid", "kind": "categorical", "nullable": False}],
                    "key": ["iid"],
                },
                {
                    "name": "obs",
                    "attributes": [
                        {"name": "oid", "kind": "categorical", "nullable": False},
                        {"name": "ref", "kind": "categorical", "nullable": False},
                        {"name": "val", "kind": "numeric", "nullable": True},
                        {"name": "tag", "kind": "categorical", "nullable": True},
                    ],
                    "key": ["oid"],
                },
            ],
            "foreign_keys": [
                {"src": "obs", "src_attrs": ["ref"], "dst": "item", "dst_attrs": ["iid"]}
            ],
        }
    )
    rng = np.random.default_rng(seed)
    rows = [("item", (f"i{i}",)) for i in range(n_items)]
    for j in range(n_obs):
        ref = f"i{rng.integers(0, n_items - 3)}"  # the last three items have no obs
        val = None if rng.random() < 0.35 else round(float(rng.normal(0.0, 2.0)), 3)
        tag = None if rng.random() < 0.2 else f"t{rng.integers(0, 3)}"
        rows.append(("obs", (f"o{j}", ref, val, tag)))
    return build_database(schema, rows)


@pytest.mark.parametrize("case", ["two_cluster", "chain", "nullable_numeric"])
def test_kvar_matches_per_pair_reference(case, chain_db):
    if case == "two_cluster":
        db, starts = two_cluster_database(6), ["item"]
    elif case == "chain":
        db, starts = chain_db, ["R", "S"]
    else:
        db, starts = _nullable_numeric_db(), ["item", "obs"]
    kernels = default_kernels(db)
    for start in starts:
        schemes = enumerate_targeted_schemes(db.schema, start, 2)
        for budget, seed in ((10, 0), (300, 7)):
            got = score_kvar(db, schemes, kernels, budget, seed)
            want = _reference_kvar(db, schemes, kernels, budget, seed)
            assert [s.tws for s in got] == [s.tws for s in want]
            assert [s.diagnostic for s in got] == [s.diagnostic for s in want]
            for g, w in zip(got, want):
                assert g.score == pytest.approx(w.score, rel=1e-12)
            assert select(got, 0.5).kept == select(want, 0.5).kept


def test_default_pair_budget():
    db = two_cluster_database(6)  # 12 start facts
    cfg = TrainConfig(k=4, n_samples=10)
    assert default_pair_budget(db, "item", cfg) == 12  # 10% of 12*10
    tiny = TrainConfig(k=4, n_samples=1)
    assert default_pair_budget(db, "item", tiny) == 2  # floor of 2


# -- one-epoch and sampling ------------------------------------------------------------


def test_one_epoch_score_is_first_epoch_loss():
    setup = planted_database(n_items=16, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=8, n_samples=10, epochs=7, learning_rate=0.1, seed=4)
    scores = score_one_epoch(db, schemes, cfg, default_kernels(db))
    one_epoch_cfg = TrainConfig(
        k=8, n_samples=10, epochs=1, learning_rate=0.1, seed=4, retry_cap=cfg.retry_cap
    )
    _, history = train(db, "item", schemes, one_epoch_cfg, default_kernels(db))
    reference = history[0].epoch_mean_loss
    for sc in scores:
        if sc.tws in reference:
            assert sc.score == pytest.approx(reference[sc.tws], rel=1e-12)


def test_build_sample_database_closure_and_order():
    setup = planted_database(n_items=20, n_obs=2, with_noise=True, seed=1)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    sub, old_to_new = build_sample_database(db, schemes, facts_per_scheme=4, seed=0)
    assert 0 < sub.n_facts <= db.n_facts
    # the map preserves old-id order and relation/value content
    olds = sorted(old_to_new)
    assert [old_to_new[o] for o in olds] == list(range(len(olds)))
    for old, new in old_to_new.items():
        assert db.fact(old).relation == sub.fact(new).relation
        assert db.fact(old).values == sub.fact(new).values
    # referential closure: every foreign-key reference resolves in the sample
    for pos, fk in enumerate(sub.schema.foreign_keys):
        for f in sub.relation_fact_ids(fk.src):
            src_rel = sub.schema.relation(fk.src)
            ref = tuple(sub.fact(f).value(src_rel, a) for a in fk.src_attrs)
            if any(v is None for v in ref):
                continue
            assert sub.forward_ref(pos, f) is not None


def test_score_sampling_runs_and_is_deterministic():
    setup = planted_database(n_items=20, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=6, n_samples=5, epochs=3, learning_rate=0.1, seed=0)
    params = SamplingParams(facts_per_scheme=6, epochs=3)
    a = score_sampling(db, schemes, cfg, params)
    b = score_sampling(db, schemes, cfg, params)
    assert [s.score for s in a] == [s.score for s in b]
    assert len(a) == len(schemes)


def test_score_sampling_too_small_sample_is_an_error():
    db = two_cluster_database(1)  # 2 items total
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, epochs=2)
    with pytest.raises(UsageError):
        score_sampling(db, schemes, cfg, SamplingParams(facts_per_scheme=1, epochs=2))


# -- selection arithmetic ----------------------------------------------------------------


def _fake_scores(values):
    db = two_cluster_database(6)
    schemes = enumerate_targeted_schemes(db.schema, "item", 3)[: len(values)]
    assert len(schemes) == len(values)
    return [SchemeScore(t, v, "fake") for t, v in zip(schemes, values)]


def test_select_keeps_ceil_of_ratio():
    scores = _fake_scores([0.9, 0.5, 0.1])
    result = select(scores, 0.5)
    assert len(result.kept) == 2  # ceil(0.5 * 3)
    assert [s.score for s in result.scores] == [0.9, 0.5, 0.1]
    assert result.kept == (scores[0].tws, scores[1].tws)
    assert result.removed == (scores[2].tws,)


def test_select_breaks_ties_by_input_order():
    scores = _fake_scores([0.5, 0.5, 0.5, 0.1])
    result = select(scores, 0.5)
    assert result.kept == (scores[0].tws, scores[1].tws)


def test_select_ratio_one_keeps_everything():
    scores = _fake_scores([0.3, 0.2, 0.1])
    result = select(scores, 1.0)
    assert len(result.kept) == 3
    assert result.removed == ()


def test_select_rejects_bad_inputs():
    with pytest.raises(UsageError):
        select([], 0.5)
    with pytest.raises(UsageError):
        select(_fake_scores([0.1]), 0.0)
    with pytest.raises(UsageError):
        select(_fake_scores([0.1]), 1.5)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    ratio=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=99),
)
def test_select_invariants(n, ratio, seed):
    rng = np.random.default_rng(seed)
    scores = _fake_scores(list(rng.uniform(size=n)))
    result = select(scores, ratio)
    assert len(result.kept) == math.ceil(ratio * n)
    assert set(result.kept) | set(result.removed) == {s.tws for s in scores}
    assert set(result.kept) & set(result.removed) == set()
    kept_scores = {s.tws: s.score for s in scores if s.tws in set(result.kept)}
    dropped_scores = [s.score for s in scores if s.tws in set(result.removed)]
    if kept_scores and dropped_scores:
        assert min(kept_scores.values()) >= max(dropped_scores)


def test_ranked_is_stable_and_complete():
    scores = _fake_scores([0.2, 0.8, 0.2])
    pairs = ranked(scores)
    assert [r for r, _ in pairs] == [2, 1, 3]
    assert [p.score for _, p in pairs] == [0.2, 0.8, 0.2]


# -- online elimination ----------------------------------------------------------------


def test_online_ratio_one_is_plain_training():
    setup = planted_database(n_items=14, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=6, n_samples=4, epochs=4, learning_rate=0.1, seed=5)
    plain, plain_hist = train(db, "item", schemes, cfg)
    online, online_hist, schedule = online_elimination_train(
        db, "item", schemes, cfg, ratio=1.0
    )
    for f in plain.phi:
        assert np.array_equal(plain.phi[f], online.phi[f])
    for t in schemes:
        assert np.array_equal(plain.psi[t], online.psi[t])
    assert schedule.removed == [(), (), (), ()]
    assert [s.epoch_mean_loss for s in plain_hist] == [s.epoch_mean_loss for s in online_hist]


def test_online_schedule_arithmetic():
    setup = planted_database(n_items=14, n_obs=3, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    n = len(schemes)
    cfg = TrainConfig(k=6, n_samples=4, epochs=6, learning_rate=0.1, seed=0)
    ratio, k_remove = 0.3, 2
    _, _, schedule = online_elimination_train(
        db, "item", schemes, cfg, ratio=ratio, per_epoch_removals=k_remove
    )
    floor = math.ceil(ratio * n)
    assert schedule.counts == [max(floor, n - (i + 1) * k_remove) for i in range(cfg.epochs)]
    assert sum(len(r) for r in schedule.removed) == n - schedule.counts[-1]
    assert schedule.counts[-1] >= floor


def test_online_all_removals_in_first_epoch_match_one_epoch_selection():
    """With per-epoch removals >= N - ceil(rN), everything is cut after
    epoch 1, and the survivors are exactly the top schemes by first-epoch
    loss, i.e. what one-epoch scoring would select."""
    setup = planted_database(n_items=14, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    n = len(schemes)
    ratio = 0.4
    floor = math.ceil(ratio * n)
    cfg = TrainConfig(k=6, n_samples=6, epochs=3, learning_rate=0.1, seed=1)
    model, _, schedule = online_elimination_train(
        db, "item", schemes, cfg, ratio=ratio, per_epoch_removals=n
    )
    assert schedule.counts[0] == floor
    assert all(r == () for r in schedule.removed[1:])
    scores = score_one_epoch(db, schemes, TrainConfig(
        k=6, n_samples=6, epochs=3, learning_rate=0.1, seed=1
    ), default_kernels(db))
    expected = set(select(scores, ratio).kept)
    assert set(model.active_schemes) == expected


def test_online_remove_highest_inverts_victims():
    setup = planted_database(n_items=14, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=6, n_samples=4, epochs=2, learning_rate=0.1, seed=2)
    _, _, low = online_elimination_train(db, "item", schemes, cfg, ratio=0.5)
    _, _, high = online_elimination_train(
        db, "item", schemes, cfg, ratio=0.5, remove_highest=True
    )
    assert low.removed[0] != high.removed[0]


def test_online_rejects_zero_keep():
    db = two_cluster_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, epochs=1)
    with pytest.raises(UsageError):
        online_elimination_train(db, "item", schemes, cfg, ratio=0.0)


def test_unassessable_scheme_scored_below_finite(chain_db):
    # R(r2) kills every walk: schemes stay assessable only through R(r1);
    # a scheme whose every start fact dies must fall below the finite ones
    schemes = enumerate_targeted_schemes(chain_db.schema, "R", 1)
    kernels = default_kernels(chain_db)
    scores = score_kvar(chain_db, schemes, kernels, pair_budget=10, seed=0)
    by_text = {targeted_text(s.tws): s for s in scores}
    walk = by_text["R[rid]--[ref]S :: sval"]
    # with only one live start fact there is a single degenerate pair
    assert walk.diagnostic != ""
