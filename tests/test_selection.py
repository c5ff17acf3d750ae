"""Scheme scoring strategies, selection arithmetic, and online elimination.

Exact kernel variance is checked against a literal brute-force loop over
all unordered fact pairs; exact mutual information against ln(n) for a
bijective step and 0 for a constant step, and against the explicit joint
table of every complete walk, enumerated one path at a time; and
selection invariants with property-based ratios.  The sampled kernel
variance is checked against the per-pair loop it replaced, kept here as a
reference.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_arrays,
    decoded,
    forward_ref,
    reference_has_complete_walk,
    reference_kd,
    reference_sample_closure,
    reference_value_distribution,
    step_candidates,
)

import walkembed.schemes as schemes_module
import walkembed.selection as selection
from walkembed.errors import NumericError, UsageError
from walkembed.kernels import default_kernels, kd_exact, kernel_eval, kernel_for
from walkembed.relational import build_database, closure, schema_from_dict, take
from walkembed.schemes import (
    enumerate_targeted_schemes,
    exact_dest_law,
    sample_target_values_batch,
    targeted_text,
)
from walkembed.seeding import derive_rng
from walkembed.selection import (
    SchemeScore,
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
from walkembed.synth import (
    convergence_database,
    mi_chain_database,
    planted_database,
    random_database,
    random_schema,
    two_cluster_database,
)
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
    assert abs(-got - math.log(4)) <= 1e-12


def test_mi_constant_step_is_zero():
    db = mi_chain_database(4)
    schemes = enumerate_targeted_schemes(db.schema, "X", 2)
    scores = {targeted_text(s.tws): s for s in score_mi(db, schemes, 10_000, seed=0)}
    # the Y -> Z hop lands on a single Z row: that position pair carries
    # no information and the minimum over positions picks it up
    got = scores["X[fy]--[yid]Y[fz]--[zid]Z :: zid"].score
    assert got == 0.0 and math.copysign(1.0, got) == 1.0  # 0.0, not -0.0


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


def test_mi_deterministic_under_seed():
    # exact MI samples nothing: the same scores and notes for any seed and
    # walk_budget, both ignored
    db = _nullable_numeric_db()
    schemes = enumerate_targeted_schemes(db.schema, "item", 2)
    want = [(s.score, s.diagnostic) for s in score_mi(db, schemes)]
    for walk_budget, seed in ((1_000, 5), (1_000, 5), (1, 0), (10**9, 2**40), (-5, -1)):
        assert [(s.score, s.diagnostic) for s in score_mi(db, schemes, walk_budget, seed)] == want


def _complete_walks(db, scheme):
    """Every complete walk of ``scheme`` as (path, probability): a uniform
    start fact and a uniform choice among the candidates at every step."""
    starts = db.relation_fact_ids(scheme.start_relation)
    walks = [((f,), 1.0 / len(starts)) for f in starts]
    for step in scheme.steps:
        walks = [
            (path + (nxt,), p / len(cands))
            for path, p in walks
            for cands in [step_candidates(db, path[-1], step)]
            for nxt in cands
        ]
    return walks


def _brute_force_mi(db, scheme):
    """-min over steps of the mutual information of consecutive positions,
    from the explicit joint table of the complete-walk law (the walks above,
    renormalised); None when no walk completes."""
    walks = _complete_walks(db, scheme)
    total = sum(p for _, p in walks)
    if not walks:
        return None
    per_step = []
    for i in range(scheme.length):
        joint, left, right = {}, {}, {}
        for path, p in walks:
            a, b = path[i], path[i + 1]
            joint[a, b] = joint.get((a, b), 0.0) + p / total
            left[a] = left.get(a, 0.0) + p / total
            right[b] = right.get(b, 0.0) + p / total
        per_step.append(sum(q * math.log(q / (left[a] * right[b])) for (a, b), q in joint.items()))
    return -min(per_step)


def _dead_end_db():
    """R(r2) and no S: every walk from R into S dies, and S is empty."""
    schema = schema_from_dict(
        {
            "relations": [
                {
                    "name": "R",
                    "attributes": [{"name": "rid", "kind": "categorical", "nullable": False}],
                    "key": ["rid"],
                },
                {
                    "name": "S",
                    "attributes": [
                        {"name": "sid", "kind": "categorical", "nullable": False},
                        {"name": "ref", "kind": "categorical", "nullable": False},
                    ],
                    "key": ["sid"],
                },
            ],
            "foreign_keys": [
                {"src": "S", "src_attrs": ["ref"], "dst": "R", "dst_attrs": ["rid"]}
            ],
        }
    )
    return build_database(schema, [("R", ("r2",))])


def _assert_mi_matches_brute_force(db, schemes):
    """Every assessed score is the brute-force one within 1e-12, every
    unassessed one has a note and the floor score, and the targets of one
    walk scheme share score and note.  Returns the notes."""
    got = score_mi(db, schemes)
    assert [s.tws for s in got] == schemes
    finite = [s.score for s in got if s.diagnostic.startswith("walks=")]
    floor = min(finite, default=0.0) - 1.0
    by_scheme = {}
    for s in got:
        assert by_scheme.setdefault(s.tws.scheme, (s.score, s.diagnostic)) == (s.score, s.diagnostic)
        want = _brute_force_mi(db, s.tws.scheme) if s.tws.scheme.length else None
        if want is None:
            assert not s.diagnostic.startswith("walks=") and s.score == floor
        else:
            assert s.diagnostic.startswith("walks=")
            assert abs(s.score - want) <= 1e-12
    return {note for _, note in by_scheme.values()}


@settings(max_examples=60, deadline=None)
@given(db_seed=st.integers(0, 10_000), max_length=st.integers(1, 3))
def test_mi_matches_the_brute_force_complete_walk_law(db_seed, max_length):
    db = random_database(random_schema(db_seed), db_seed, max_facts=30)
    for rel in db.schema.relations:
        _assert_mi_matches_brute_force(db, enumerate_targeted_schemes(db.schema, rel.name, max_length))


@pytest.mark.parametrize("case", ["mi_chain", "nullable_numeric", "planted"])
def test_mi_matches_the_brute_force_complete_walk_law_on_fixed_databases(case):
    if case == "mi_chain":
        db, start = mi_chain_database(5), "X"
    elif case == "nullable_numeric":
        db, start = _nullable_numeric_db(), "item"
    else:
        db, start = planted_database(n_items=8, n_obs=2, seed=1).db, "item"
    _assert_mi_matches_brute_force(db, enumerate_targeted_schemes(db.schema, start, 2))


def test_mi_oracle_cases_cover_every_unassessable_note():
    db = _dead_end_db()
    notes = set()
    for start in ("R", "S"):
        notes |= _assert_mi_matches_brute_force(db, enumerate_targeted_schemes(db.schema, start, 2))
    assert notes == {
        "length-0 scheme: no step pairs to assess",
        "start relation is empty",
        "no complete walks",
    }
    db = _nullable_numeric_db()
    notes = _assert_mi_matches_brute_force(db, enumerate_targeted_schemes(db.schema, "item", 2))
    # 12 of the 15 items have an observation; the last three have none
    assert "walks=exact, from 12 of 15 start facts" in notes


def test_mi_calls_no_sampler_and_no_derive_rng(monkeypatch):
    def sampling(*args, **kwargs):
        pytest.fail("score_mi sampled")

    for name in ("derive_rng", "sample_walks_batch", "sample_target_values_batch"):
        monkeypatch.setattr(selection, name, sampling)
    for name in ("sample_walks_batch", "sample_dest_batch", "sample_target_values_batch", "_walk"):
        monkeypatch.setattr(schemes_module, name, sampling)
    monkeypatch.setattr(np.random, "default_rng", sampling)
    db = mi_chain_database(4)
    scores = score_mi(db, enumerate_targeted_schemes(db.schema, "X", 2), 100, seed=3)
    assert any(s.diagnostic.startswith("walks=") for s in scores)


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


def test_kvar_exact_leaves_out_starts_whose_values_are_all_null():
    """A start whose complete walks all end on null targets has no expected
    kernel distance; exact kvar leaves it out, as sampled kvar does, and
    equals the variance over the pairs where the dict-oracle distance is
    defined."""
    checked = 0
    for seed in range(40):
        schema = random_schema(seed)
        db = random_database(schema, seed)
        kernels = default_kernels(db)
        start = schema.relations[0].name
        starts = db.relation_fact_ids(start)
        for tws in enumerate_targeted_schemes(schema, start, 2):
            if not any(
                reference_has_complete_walk(db, f, tws.scheme)
                and not reference_value_distribution(db, f, tws)
                for f in starts
            ):
                continue
            spec = kernel_for(kernels, tws)
            kds = [
                kd
                for a, b in itertools.combinations(starts, 2)
                if (kd := reference_kd(db, a, b, tws, spec)) is not None
            ]
            (sc,) = score_kvar_exact(db, [tws], kernels)
            if len(kds) < 2:
                assert sc.diagnostic == f"only {len(kds)} assessable pair(s)"
            else:
                assert sc.diagnostic == f"pairs={len(kds)}"
                assert abs(sc.score - float(np.var(kds, ddof=1))) <= 1e-9
            checked += 1
    assert checked > 200


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
    raw, notes = [math.nan] * len(schemes), [""] * len(schemes)
    for idx, tws in enumerate(schemes):
        start_ids = np.asarray(db.relation_fact_ids(tws.scheme.start_relation), dtype=np.int64)
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
        vals_a, vals_b = decoded(db, tws, dests_a, vals_a), decoded(db, tws, dests_b, vals_b)
        per_pair = {}
        for fa, fb, va, vb in zip(facts_a, facts_b, vals_a, vals_b):
            if va is None or vb is None:
                continue
            pair = (int(min(fa, fb)), int(max(fa, fb)))
            per_pair.setdefault(pair, []).append(kernel_eval(spec, va, vb))
        means = [float(np.mean(v)) for v in per_pair.values()]
        if len(means) < 2:
            notes[idx] = f"only {len(means)} assessable pair(s) within the retry cap"
            continue
        raw[idx] = float(np.var(means, ddof=1))
        notes[idx] = f"pairs={len(means)}"
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
            assert forward_ref(sub, pos, f) is not None


def _per_fact_build_sample_database(db, schemes, facts_per_scheme, seed):
    """``build_sample_database`` as first written: completeness one fact at
    a time by set propagation, and a closure loop over the scalar
    foreign-key readers."""
    rng = derive_rng(seed, "sample-db")
    seeds: set[int] = set()
    for tws in schemes:
        eligible = [
            f
            for f in db.relation_fact_ids(tws.scheme.start_relation)
            if reference_has_complete_walk(db, f, tws.scheme)
        ]
        if not eligible:
            continue
        take = min(facts_per_scheme, len(eligible))
        picked = rng.choice(np.asarray(eligible, dtype=np.int64), size=take, replace=False)
        seeds.update(int(x) for x in picked)
    ordered = sorted(reference_sample_closure(db, seeds))
    sub = build_database(db.schema, [(f.relation, f.values) for f in map(db.fact, ordered)])
    return sub, {old: new for new, old in enumerate(ordered)}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("facts_per_scheme", [1, 3])
def test_build_sample_database_matches_reference(seed, facts_per_scheme):
    """The same sub-database and id map as the per-fact build, on random
    databases (nullable and self-referencing foreign keys) and on a
    planted one."""
    planted = planted_database(n_items=12, n_obs=2, with_noise=True, seed=seed).db
    for db in (random_database(random_schema(seed), seed), planted):
        start = db.schema.relations[0].name
        schemes = enumerate_targeted_schemes(db.schema, start, 2)
        sub, old_to_new = build_sample_database(db, schemes, facts_per_scheme, seed)
        ref, ref_map = _per_fact_build_sample_database(db, schemes, facts_per_scheme, seed)
        assert sub.facts == ref.facts
        assert list(old_to_new.items()) == list(ref_map.items())


def _reference_build_sample_database(db, schemes, facts_per_scheme, seed):
    """``build_sample_database`` with the starts that admit a complete walk
    read from the rows of ``exact_dest_law``, one law per targeted scheme."""
    rng = derive_rng(seed, "sample-db")
    closed = np.zeros(db.n_facts, dtype=bool)
    for tws in schemes:
        start_ids = np.asarray(db.relation_fact_ids(tws.scheme.start_relation), dtype=np.int64)
        row, _, _ = exact_dest_law(db, tws.scheme, start_ids)
        eligible = start_ids[np.unique(row)]
        if not len(eligible):
            continue
        size = min(facts_per_scheme, len(eligible))
        closed[rng.choice(eligible, size=size, replace=False)] = True
    ordered = np.flatnonzero(closure(db, closed, referencing=True, referenced=True))
    return take(db, ordered), {old: new for new, old in enumerate(ordered.tolist())}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("facts_per_scheme", [1, 3, 10])
@pytest.mark.parametrize("generator", ["planted", "two_cluster", "convergence", "mi_chain", "random"])
def test_build_sample_database_matches_the_exact_law_build(generator, facts_per_scheme, seed):
    """The same fact ids, columns, key maps and id map as the build that
    reads each targeted scheme's starts from ``exact_dest_law``, for the
    schemes of every start relation of every synthetic generator."""
    db = {
        "planted": lambda: planted_database(n_items=12, n_obs=2, with_noise=True, seed=seed).db,
        "two_cluster": lambda: two_cluster_database(2 + seed),
        "convergence": lambda: convergence_database(n_items=6, seed=seed),
        "mi_chain": lambda: mi_chain_database(3 + seed),
        "random": lambda: random_database(random_schema(seed), seed),
    }[generator]()
    schemes = [t for rel in db.schema.relation_names for t in enumerate_targeted_schemes(db.schema, rel, 2)]
    sub, old_to_new = build_sample_database(db, schemes, facts_per_scheme, seed)
    ref, ref_map = _reference_build_sample_database(db, schemes, facts_per_scheme, seed)
    assert_same_arrays(sub, ref)
    assert list(old_to_new.items()) == list(ref_map.items())


def test_score_sampling_runs_and_is_deterministic():
    setup = planted_database(n_items=20, n_obs=2, with_noise=True, seed=0)
    db = setup.db
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=6, n_samples=5, epochs=3, learning_rate=0.1, seed=0)
    a = score_sampling(db, schemes, cfg, facts_per_scheme=6, epochs=3)
    b = score_sampling(db, schemes, cfg, facts_per_scheme=6, epochs=3)
    assert [s.score for s in a] == [s.score for s in b]
    assert len(a) == len(schemes)


def test_score_sampling_too_small_sample_is_an_error():
    db = two_cluster_database(1)  # 2 items total
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    cfg = TrainConfig(k=4, epochs=2)
    with pytest.raises(UsageError):
        score_sampling(db, schemes, cfg, facts_per_scheme=1, epochs=2)


@pytest.mark.parametrize("epochs", [0, -2])
def test_sampling_params_reject_fewer_than_one_epoch(epochs):
    """With no epoch there is no loss to score by."""
    db = two_cluster_database(3)
    schemes = enumerate_targeted_schemes(db.schema, "item", 1)
    with pytest.raises(UsageError, match=f"sampling epochs must be at least 1, got {epochs}"):
        score_sampling(db, schemes, TrainConfig(k=4, epochs=2), facts_per_scheme=3, epochs=epochs)


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


@pytest.mark.parametrize("reverse", [False, True])
def test_online_ties_go_to_the_earlier_scheme_in_the_given_order(chain_db, reverse):
    """Every walk from R(r2) dies, so the three length-1 schemes yield no
    sample in any epoch and share the key -1.0; one goes per epoch, the
    earliest in the given order first, also when that order is reversed."""
    schemes = enumerate_targeted_schemes(chain_db.schema, "R", 1)
    if reverse:
        schemes = schemes[::-1]
    dead = [t for t in schemes if t.scheme.length == 1]
    assert len(dead) == 3 and len(schemes) == 4
    cfg = TrainConfig(k=2, n_samples=3, epochs=4, learning_rate=0.1, seed=0)
    model, history, schedule = online_elimination_train(chain_db, "R", schemes, cfg, ratio=0.25)
    assert all(t not in stats.epoch_mean_loss for stats in history for t in dead)
    assert schedule.removed == [(dead[0],), (dead[1],), (dead[2],), ()]
    assert model.active_schemes == [t for t in schemes if t not in dead]
    _, _, pairs = online_elimination_train(chain_db, "R", schemes, cfg, ratio=0.25, per_epoch_removals=2)
    assert pairs.removed == [(dead[0], dead[1]), (dead[2],), (), ()]


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
