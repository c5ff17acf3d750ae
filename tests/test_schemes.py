"""Walk schemes: enumeration, canonical text, sampling, and the exact
destination / value laws.

Enumeration is checked against an independent brute-force expander, and
the samplers against exact distributions (frozen 1/2-1/2 values for the
hand-built chain, total-variation bounds for random databases) and
against the walker and retry loops they replaced, draw for draw.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    decoded,
    law_dicts,
    reference_dest_distribution,
    reference_has_complete_walk,
    reference_value_distribution,
    step_candidates,
)

import walkembed.schemes as schemes_module
from walkembed.errors import SchemaError, UsageError
from walkembed.relational import Fact, build_database, insert_facts
from walkembed.schemes import (
    BACKWARD,
    FORWARD,
    TargetedWalkScheme,
    WalkScheme,
    WalkStep,
    enumerate_targeted_schemes,
    enumerate_walk_schemes,
    exact_dest_distribution,
    exact_dest_law,
    exact_value_law,
    row_walk_laws,
    sample_dest_batch,
    sample_target_values_batch,
    sample_walks_batch,
    scheme_text,
    targeted_text,
)
from walkembed.seeding import derive_rng
from walkembed.synth import random_database, random_schema


def _brute_force_enumeration(schema, start, max_length):
    """Independent expander: append every applicable (fk, direction) to every
    frontier scheme, then apply the canonical sort."""
    out = [WalkScheme(start, ())]
    frontier = list(out)
    for _ in range(max_length):
        nxt = []
        for ws in frontier:
            end = ws.end_relation
            for fk in schema.foreign_keys:
                for direction in (FORWARD, BACKWARD):
                    here = fk.src if direction == FORWARD else fk.dst
                    if here == end:
                        nxt.append(WalkScheme(start, ws.steps + (WalkStep(fk, direction),)))
        out.extend(nxt)
        frontier = nxt
    return sorted(
        out, key=lambda w: (w.length, tuple((s.fk.name, s.direction) for s in w.steps))
    )


def sample_walk(db, fact_id, scheme, rng):
    """Scalar oracle: one random walk as a fact-id sequence, or None on a
    dead end, drawing one integer per step with more than one candidate."""
    fact = db.fact(fact_id)
    if fact.relation != scheme.start_relation:
        raise UsageError(
            f"fact {fact_id} is in {fact.relation!r}, scheme starts at {scheme.start_relation!r}"
        )
    path = [fact_id]
    here = fact_id
    for step in scheme.steps:
        candidates = step_candidates(db, here, step)
        if not candidates:
            return None
        here = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 else candidates[0]
        path.append(here)
    return tuple(path)


def dest_attr_sample(db, fact_id, tws, rng, retry_cap=20):
    """Scalar oracle: (destination fact id, its target value), retrying over
    dead ends and null destinations up to ``retry_cap`` attempts."""
    for _ in range(retry_cap):
        path = sample_walk(db, fact_id, tws.scheme, rng)
        if path is None:
            continue
        value = db.attr_value(path[-1], tws.target_attr)
        if value is None:
            continue
        return path[-1], value
    return None


# -- enumeration ------------------------------------------------------------------


def test_enumeration_on_chain(chain_schema):
    texts = [scheme_text(w) for w in enumerate_walk_schemes(chain_schema, "R", 2)]
    assert texts == ["R", "R[rid]--[ref]S", "R[rid]--[ref]S[ref]--[rid]R"]


def test_enumeration_includes_immediate_backtracking(toy_schema):
    schemes = enumerate_walk_schemes(toy_schema, "R", 2)
    assert [scheme_text(w) for w in schemes] == ["R", "R[A]--[C]S", "R[A]--[C]S[C]--[A]R"]


def test_enumeration_canonical_order_is_length_then_text():
    schema = random_schema(4)
    start = schema.relations[0].name
    schemes = enumerate_walk_schemes(schema, start, 3)
    keys = [(w.length, tuple((s.fk.name, s.direction) for s in w.steps)) for w in schemes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", range(10))
def test_enumeration_matches_brute_force(seed):
    schema = random_schema(seed)
    start = schema.relations[0].name
    for l_max in (0, 1, 2):
        assert enumerate_walk_schemes(schema, start, l_max) == _brute_force_enumeration(
            schema, start, l_max
        )


def test_targeted_enumeration_covers_end_relation_attrs(chain_schema):
    targeted = enumerate_targeted_schemes(chain_schema, "R", 1)
    texts = [targeted_text(t) for t in targeted]
    assert texts == [
        "R :: rid",
        "R[rid]--[ref]S :: sid",
        "R[rid]--[ref]S :: ref",
        "R[rid]--[ref]S :: sval",
    ]


def test_scheme_validation_rejects_broken_chain(toy_schema):
    fk = toy_schema.foreign_keys[0]
    with pytest.raises(SchemaError):
        WalkScheme("S", (WalkStep(fk, FORWARD),))  # forward step starts at R, not S


def test_length_zero_scheme(chain_schema):
    ws = WalkScheme("R", ())
    assert ws.length == 0
    assert ws.end_relation == "R"
    assert scheme_text(ws) == "R"


# -- stepping and scalar sampling ----------------------------------------------


def test_step_candidates(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    back = WalkStep(fk, BACKWARD)
    fwd = WalkStep(fk, FORWARD)
    assert step_candidates(chain_db, 0, back) == (2, 3)
    assert step_candidates(chain_db, 1, back) == ()
    assert step_candidates(chain_db, 2, fwd) == (0,)


def test_sample_walk_uniform_over_candidates(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD),))
    rng = derive_rng(0, "walks")
    seen = {2: 0, 3: 0}
    n = 20000
    for _ in range(n):
        walk = sample_walk(chain_db, 0, ws, rng)
        assert walk is not None
        seen[walk[-1]] += 1
    assert seen[2] + seen[3] == n
    assert abs(seen[2] / n - 0.5) < 0.02


def test_sample_walk_dead_end_returns_none(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD),))
    rng = derive_rng(0, "dead")
    assert sample_walk(chain_db, 1, ws, rng) is None


def test_sample_walk_rejects_wrong_start_relation(chain_db):
    ws = WalkScheme("R", ())
    rng = derive_rng(0, "bad")
    with pytest.raises(UsageError):
        sample_walk(chain_db, 2, ws, rng)  # fact 2 lives in S


# -- exact laws -------------------------------------------------------------------


def test_exact_dest_distribution_halves(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD),))
    assert exact_dest_distribution(chain_db, 0, ws) == {2: 0.5, 3: 0.5}
    assert exact_dest_distribution(chain_db, 1, ws) == {}


def test_exact_dest_distribution_discards_dead_mass(chain_schema):
    # r1 has two referencing facts; walking back then forward then back
    # again redistributes: any completed walk is conditioned on not dying
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [
            ("R", ("r1",)),
            ("R", ("r2",)),
            ("S", ("x", "r1", "va")),
            ("S", ("y", "r2", "vb")),
        ],
    )
    fk = db.schema.foreign_keys[0]
    # back from r1: only S(x); forward again: r1; back: S(x) again
    ws = WalkScheme(
        "R", (WalkStep(fk, BACKWARD), WalkStep(fk, FORWARD), WalkStep(fk, BACKWARD))
    )
    assert exact_dest_distribution(db, 0, ws) == {2: 1.0}


def test_exact_value_distribution_drops_nulls(chain_schema):
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [
            ("R", ("r1",)),
            ("S", ("x", "r1", "va")),
            ("S", ("y", "r1", None)),
        ],
    )
    fk = db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    # destinations are {x: 0.5, y: 0.5} but y's sval is null: renormalised away
    assert reference_value_distribution(db, 0, tws) == {"va": 1.0}
    assert law_dicts(db, tws, exact_value_law(db, tws, [0]), 1) == [{"va": 1.0}]
    dist = exact_dest_distribution(db, 0, WalkScheme("R", (WalkStep(fk, BACKWARD),)))
    assert dist == {1: 0.5, 2: 0.5}


def test_exact_value_distribution_all_null_is_empty(chain_schema):
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [("R", ("r1",)), ("S", ("x", "r1", None))],
    )
    fk = db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    assert reference_value_distribution(db, 0, tws) == {}
    assert law_dicts(db, tws, exact_value_law(db, tws, [0]), 1) == [{}]
    # the walk completes; only its value is missing
    assert exact_dest_law(db, tws.scheme, [0])[0].tolist() == [0]


def test_exact_dest_distribution_sums_to_one():
    schema = random_schema(2)
    db = random_database(schema, 2)
    start = schema.relations[0].name
    for ws in enumerate_walk_schemes(schema, start, 2):
        for f in db.relation_fact_ids(start):
            dist = exact_dest_distribution(db, f, ws)
            if dist:
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                assert all(p > 0 for p in dist.values())


# -- batched sampling agrees with scalar/exact --------------------------------------


def test_sample_dest_batch_matches_exact_law(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD),))
    rng = derive_rng(1, "batch")
    n = 40000
    dests = sample_dest_batch(chain_db, np.full(n, 0, dtype=np.int64), ws, rng)
    assert dests.shape == (n,)
    assert set(np.unique(dests)) == {2, 3}
    assert abs(float(np.mean(dests == 2)) - 0.5) < 0.02
    dead = sample_dest_batch(chain_db, np.full(100, 1, dtype=np.int64), ws, rng)
    assert np.all(dead == -1)


def test_sample_walks_batch_shape_and_dead_rows(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD), WalkStep(fk, FORWARD)))
    rng = derive_rng(2, "rows")
    walks = sample_walks_batch(chain_db, np.array([0, 1], dtype=np.int64), ws, rng)
    assert walks.shape == (2, 3)
    assert walks[0, 0] == 0 and walks[0, 2] == 0 and walks[0, 1] in (2, 3)
    assert np.all(walks[1] == -1)


def test_dest_attr_sample_values(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    rng = derive_rng(3, "attr")
    seen = set()
    for _ in range(200):
        got = dest_attr_sample(chain_db, 0, tws, rng)
        assert got is not None
        dest, value = got
        assert (dest, value) in {(2, "va"), (3, "vb")}
        seen.add(value)
    assert seen == {"va", "vb"}
    assert dest_attr_sample(chain_db, 1, tws, rng) is None


def test_sample_target_values_batch_marks_dead_rows(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    rng = derive_rng(4, "tv")
    starts = np.array([0, 1, 0], dtype=np.int64)
    dests, values = sample_target_values_batch(chain_db, starts, tws, rng)
    values = decoded(chain_db, tws, dests, values)
    assert dests[1] == -1 and values[1] is None
    assert values[0] in ("va", "vb") and values[2] in ("va", "vb")


def test_sample_target_values_batch_retries_null_values(chain_schema):
    # one destination holds a null target: sampling must retry past it
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [("R", ("r1",)), ("S", ("x", "r1", "va")), ("S", ("y", "r1", None))],
    )
    fk = db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    rng = derive_rng(5, "retry")
    starts = np.full(200, 0, dtype=np.int64)
    dests, values = sample_target_values_batch(db, starts, tws, rng)
    assert all(v == "va" for v in decoded(db, tws, dests, values))
    assert np.all(dests == 1)


def test_batch_and_exact_agree_on_random_databases():
    rng = derive_rng(9, "tv-random")
    checked = 0
    for seed in range(6):
        schema = random_schema(seed)
        db = random_database(schema, seed)
        start = schema.relations[0].name
        starts = db.relation_fact_ids(start)
        if not starts:
            continue
        for ws in enumerate_walk_schemes(schema, start, 2):
            if ws.length == 0:
                continue
            f = int(starts[0])
            exact = exact_dest_distribution(db, f, ws)
            dests = sample_dest_batch(db, np.full(20000, f, dtype=np.int64), ws, rng)
            alive = dests[dests >= 0]
            if not exact:
                assert alive.size == 0
                continue
            vals, counts = np.unique(alive, return_counts=True)
            emp = dict(zip((int(v) for v in vals), counts / alive.size))
            tv = 0.5 * sum(
                abs(exact.get(d, 0.0) - emp.get(d, 0.0)) for d in set(exact) | set(emp)
            )
            assert tv < 0.03
            checked += 1
    assert checked >= 5


def test_has_complete_walk(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    ws = WalkScheme("R", (WalkStep(fk, BACKWARD),))
    assert reference_has_complete_walk(chain_db, 0, ws)
    assert not reference_has_complete_walk(chain_db, 1, ws)
    assert reference_has_complete_walk(chain_db, 0, WalkScheme("R", ()))
    # the law's rows are the starts with a complete walk
    assert exact_dest_law(chain_db, ws, [0, 1])[0].tolist() == [0, 0]
    assert exact_dest_law(chain_db, WalkScheme("R", ()), [0, 1])[0].tolist() == [0, 1]


def test_exact_dest_law_rejects_wrong_start_relation(chain_db):
    with pytest.raises(UsageError, match="scheme starts at"):
        exact_dest_law(chain_db, WalkScheme("R", ()), [0, 2])  # fact 2 lives in S


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400), pick=st.integers(min_value=0, max_value=1000))
def test_exact_laws_match_dict_oracles(seed, pick):
    """The array laws against the dict walkers on random databases, which
    bring null targets and nullable and self-referencing foreign keys:
    the same supports, weights within 1e-12, the same complete rows, and
    an empty row wherever the oracle is empty."""
    schema = random_schema(seed)
    db = random_database(schema, seed)
    start = schema.relations[pick % len(schema.relations)].name
    starts = db.relation_fact_ids(start)
    for ws in enumerate_walk_schemes(schema, start, 2):
        law = exact_dest_law(db, ws, starts)
        complete = {i for i, f in enumerate(starts) if reference_has_complete_walk(db, f, ws)}
        assert set(law[0].tolist()) == complete
        _assert_same_laws(
            law_dicts(db, None, law, len(starts)),
            [reference_dest_distribution(db, f, ws) for f in starts],
        )
        for attr in schema.relation(ws.end_relation).attr_names:
            tws = TargetedWalkScheme(ws, attr)
            _assert_same_laws(
                law_dicts(db, tws, exact_value_law(db, tws, starts), len(starts)),
                [reference_value_distribution(db, f, tws) for f in starts],
            )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    pick=st.integers(min_value=0, max_value=1000),
    max_length=st.integers(min_value=0, max_value=3),
)
@example(seed=13, pick=0, max_length=3)  # self-referencing and nullable foreign keys
@example(seed=29, pick=2, max_length=3)
def test_row_walk_laws_complete_from_the_starts_the_exact_law_gives_entries(seed, pick, max_length):
    """``finish[0] > 0`` is the set of starts with entries in
    ``exact_dest_law``, on random databases with nullable and
    self-referencing foreign keys, and on the same schema with no facts."""
    schema = random_schema(seed)
    start = schema.relations[pick % len(schema.relations)].name
    walk_schemes = enumerate_walk_schemes(schema, start, max_length)
    for db in (random_database(schema, seed), build_database(schema, [])):
        starts = db.relation_fact_ids(start)
        laws = row_walk_laws(db, walk_schemes)
        assert list(laws) == walk_schemes
        for ws in walk_schemes:
            reach, finish = laws[ws]
            assert len(reach) == len(finish) == ws.length + 1
            assert len(reach[0]) == len(finish[0]) == len(starts)
            row, _, _ = exact_dest_law(db, ws, starts)
            assert np.flatnonzero(finish[0] > 0).tolist() == np.unique(row).tolist()


def test_row_walk_laws_build_each_steps_edges_once_per_call(monkeypatch):
    calls = []
    moves = schemes_module._moves
    monkeypatch.setattr(schemes_module, "_moves", lambda db, step: calls.append(step) or moves(db, step))
    schema = random_schema(13)
    db = random_database(schema, 13)
    walk_schemes = enumerate_walk_schemes(schema, schema.relations[0].name, 3)
    laws = row_walk_laws(db, walk_schemes + walk_schemes[::-1])
    assert list(laws) == walk_schemes
    assert sorted(map(repr, calls)) == sorted(map(repr, {step for ws in walk_schemes for step in ws.steps}))


def _assert_same_laws(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert set(g) == set(w)
        assert all(abs(g[k] - p) <= 1e-12 for k, p in w.items())


# -- text rendering ------------------------------------------------------------------


def test_text_round_trip_uniqueness():
    schema = random_schema(6)
    start = schema.relations[0].name
    targeted = enumerate_targeted_schemes(schema, start, 2)
    texts = [targeted_text(t) for t in targeted]
    assert len(texts) == len(set(texts))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_enumeration_is_deterministic(seed):
    schema = random_schema(seed % 40)
    start = schema.relations[0].name
    a = enumerate_walk_schemes(schema, start, 2)
    b = enumerate_walk_schemes(schema, start, 2)
    assert a == b


# -- the walkers against the loops they replaced ---------------------------------------


def _reference_advance(db, cur, step, rng, block=None):
    """One step as first written: the foreign-key index looked up per call,
    and a -1 array, a candidate mask and a scatter on every backward step."""
    index = db.fk_index[db.schema.fk_position(step.fk)]
    if step.direction == FORWARD:
        return index.fwd[cur]
    lo = index.offsets[cur]
    width = index.offsets[cur + 1] - lo
    nxt = np.full(len(cur), -1, dtype=np.int64)
    has = width > 0
    if has.any():
        if block is None:
            u = rng.random(int(has.sum()))
        else:
            counts = np.bincount(block[has], minlength=len(rng)).tolist()
            u = np.concatenate([g.random(c) for g, c in zip(rng, counts) if c])
        picks = lo[has] + (u * width[has]).astype(np.int64)
        nxt[has] = index.flat[picks]
    return nxt


def _reference_sample_dest_batch(db, fact_ids, scheme, rng, block=None):
    """Destinations as first written: the live positions found afresh
    before every step."""
    here = np.asarray(fact_ids, dtype=np.int64).copy()
    alive = here >= 0
    for step in scheme.steps:
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        here[idx] = _reference_advance(db, here[idx], step, rng, None if block is None else block[idx])
        alive = here >= 0
    here[~alive] = -1
    return here


def _reference_sample_walks_batch(db, fact_ids, scheme, rng):
    """Full paths as first written, on the reference step."""
    here = np.asarray(fact_ids, dtype=np.int64).copy()
    paths = np.full((len(here), scheme.length + 1), -1, dtype=np.int64)
    paths[:, 0] = here
    alive = here >= 0
    for col, step in enumerate(scheme.steps, start=1):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        here[idx] = paths[idx, col] = _reference_advance(db, here[idx], step, rng)
        alive = here >= 0
    paths[~alive, :] = -1
    return paths


def _assert_walkers_match_reference(db, starts, scheme, rng_seed, n_blocks=None):
    """Destinations (plain, or over ``n_blocks`` equal blocks) and full
    paths equal the reference's, and every generator ends in the same state."""
    def rngs():
        if n_blocks is None:
            return np.random.default_rng(rng_seed)
        return [np.random.default_rng([rng_seed, g]) for g in range(n_blocks)]

    def states(rng):
        return [g.bit_generator.state for g in ([rng] if n_blocks is None else rng)]

    block = None if n_blocks is None else np.arange(len(starts)) // (len(starts) // n_blocks or 1)
    got_rng, want_rng = rngs(), rngs()
    before = starts.copy()
    got = sample_dest_batch(db, starts, scheme, got_rng, block)
    want = _reference_sample_dest_batch(db, starts, scheme, want_rng, block)
    assert np.array_equal(starts, before)  # the starts are not written
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert states(got_rng) == states(want_rng)
    if n_blocks is None:
        got_rng, want_rng = rngs(), rngs()
        paths = sample_walks_batch(db, starts, scheme, got_rng)
        assert np.array_equal(paths, _reference_sample_walks_batch(db, starts, scheme, want_rng))
        assert states(got_rng) == states(want_rng)


@settings(max_examples=80, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=400),
    pick=st.integers(min_value=0, max_value=10_000),
    n_starts=st.integers(min_value=0, max_value=40),
    dead_share=st.sampled_from([0.0, 0.2, 1.0]),
    n_blocks=st.sampled_from([None, 1, 2, 3]),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_walkers_match_reference(db_seed, pick, n_starts, dead_share, n_blocks, rng_seed):
    # random databases carry nullable and self-referencing foreign keys and
    # facts nothing references, so walkers die at every step; some starts
    # are -1, dead before the first step
    schema = random_schema(db_seed)
    db = random_database(schema, db_seed)
    start_rel = schema.relations[0].name
    schemes = enumerate_walk_schemes(schema, start_rel, 3)
    scheme = schemes[pick % len(schemes)]
    ids = db.relation_fact_ids(start_rel)
    rng = np.random.default_rng(pick)
    starts = np.asarray([ids[(pick + 7 * i) % len(ids)] for i in range(n_starts)], dtype=np.int64)
    starts[rng.random(n_starts) < dead_share] = -1
    if n_blocks is not None:
        starts = starts[: len(starts) - len(starts) % n_blocks]
    _assert_walkers_match_reference(db, starts, scheme, rng_seed, n_blocks)


@pytest.mark.parametrize("n_blocks", [None, 1, 3])
@pytest.mark.parametrize("rng_seed", [0, 1])
def test_walkers_match_reference_when_all_die_at_the_first_step(chain_schema, n_blocks, rng_seed):
    # R <- S -> R <- S: nothing references r3, so every walker from it
    # dies on the first step; from r1 and r2 walkers draw twice
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [("R", ("r1",)), ("R", ("r2",)), ("R", ("r3",))]
        + [("S", (f"x{i}", "r1", None)) for i in range(3)]
        + [("S", ("y0", "r2", None))],
    )
    fk = db.schema.foreign_keys[0]
    back, fwd = WalkStep(fk, BACKWARD), WalkStep(fk, FORWARD)
    scheme = WalkScheme("R", (back, fwd, back))
    for starts in ([2] * 6, [2, -1, 2, 2, -1, 2], [-1] * 6, [0, 2, 1, 2, 0, 0], []):
        _assert_walkers_match_reference(db, np.asarray(starts, dtype=np.int64), scheme, rng_seed, n_blocks)
    # a scheme without steps returns its live starts and -1 for the rest
    got = sample_dest_batch(db, np.asarray([0, -3, 2]), WalkScheme("R"), np.random.default_rng(0))
    assert got.tolist() == [0, -1, 2]


# -- the sampler's row loop against the loop it replaced ------------------------------


def _reference_target_values_batch(db, fact_ids, tws, rng, retry_cap=20):
    """The retry loop as first written, one numpy scalar and one ``db.fact``
    call per row, on the reference walker; the sampler must reproduce it
    draw for draw."""
    start = np.asarray(fact_ids, dtype=np.int64)
    attr_pos = db.schema.relation(tws.scheme.end_relation).attr_index(tws.target_attr)
    dests = np.full(len(start), -1, dtype=np.int64)
    values = [None] * len(start)
    pending = np.arange(len(start))
    for _ in range(retry_cap):
        if len(pending) == 0:
            break
        got = _reference_sample_dest_batch(db, start[pending], tws.scheme, rng)
        still = []
        for row, dest in zip(pending, got):
            if dest < 0:
                still.append(row)
                continue
            v = db.fact(int(dest)).values[attr_pos]
            if v is None:
                still.append(row)
                continue
            dests[row] = dest
            values[row] = v
        pending = np.asarray(still, dtype=np.int64)
    return dests, values


@settings(max_examples=60, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=400),
    pick=st.integers(min_value=0, max_value=10_000),
    n_starts=st.integers(min_value=0, max_value=30),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
    retry_cap=st.sampled_from([1, 20]),
)
def test_sampler_row_loop_matches_reference(db_seed, pick, n_starts, rng_seed, retry_cap):
    # random databases carry nullable targets and nullable references,
    # so rows retry over null destinations and dead ends
    schema = random_schema(db_seed)
    db = random_database(schema, db_seed)
    start_rel = schema.relations[0].name
    schemes = enumerate_targeted_schemes(schema, start_rel, 2)
    tws = schemes[pick % len(schemes)]
    ids = db.relation_fact_ids(start_rel)
    starts = np.asarray([ids[(pick + 7 * i) % len(ids)] for i in range(n_starts)], dtype=np.int64)
    _assert_sampler_matches_reference(db, starts, tws, rng_seed, retry_cap)


def _assert_sampler_matches_reference(db, starts, tws, rng_seed, retry_cap):
    rng_new = np.random.default_rng(rng_seed)
    rng_ref = np.random.default_rng(rng_seed)
    dests, values = sample_target_values_batch(db, starts, tws, rng_new, retry_cap)
    want_dests, want_values = _reference_target_values_batch(db, starts, tws, rng_ref, retry_cap)
    assert dests.dtype == want_dests.dtype
    assert np.array_equal(dests, want_dests)
    values = decoded(db, tws, dests, values)
    assert values == want_values
    assert [type(v) for v in values] == [type(v) for v in want_values]
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("retry_cap", [1, 20])
@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_sampler_row_loop_matches_reference_on_long_retries(chain_schema, retry_cap, rng_seed):
    # from r1 three of four walks reach a null, so rows retry many times;
    # from r2 every walk draws and reaches a null; r3 is a dead end
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [("R", ("r1",)), ("R", ("r2",)), ("R", ("r3",))]
        + [("S", (f"x{i}", "r1", "vd" if i == 0 else None)) for i in range(4)]
        + [("S", (f"y{i}", "r2", None)) for i in range(2)],
    )
    fk = db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    starts = np.asarray([0] * 40 + [1, 2, 0, 1], dtype=np.int64)
    _assert_sampler_matches_reference(db, starts, tws, rng_seed, retry_cap)


# -- one call over G blocks against G calls ---------------------------------------------


def _assert_blocks_match_single_calls(db, blocks, tws, rng_seed, retry_cap):
    """One call over the concatenated ``blocks``, block g on generator g,
    against one call per block: dests, values and every final generator
    state agree."""
    rngs = [np.random.default_rng([rng_seed, g]) for g in range(len(blocks))]
    refs = [np.random.default_rng([rng_seed, g]) for g in range(len(blocks))]
    dests, values = sample_target_values_batch(db, np.concatenate(blocks), tws, rngs, retry_cap)
    singles = [sample_target_values_batch(db, b, tws, r, retry_cap) for b, r in zip(blocks, refs)]
    want_dests = np.concatenate([d for d, _ in singles])
    want_values = np.concatenate([v for _, v in singles])
    assert dests.dtype == want_dests.dtype and np.array_equal(dests, want_dests)
    assert values.dtype == want_values.dtype and values.tobytes() == want_values.tobytes()
    for got, want in zip(rngs, refs):
        assert got.bit_generator.state == want.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=400),
    pick=st.integers(min_value=0, max_value=10_000),
    n_blocks=st.integers(min_value=1, max_value=5),
    block_len=st.integers(min_value=0, max_value=12),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
    retry_cap=st.sampled_from([1, 3, 20]),
)
def test_block_call_matches_one_call_per_block(db_seed, pick, n_blocks, block_len, rng_seed, retry_cap):
    schema = random_schema(db_seed)
    db = random_database(schema, db_seed)
    start_rel = schema.relations[0].name
    schemes = enumerate_targeted_schemes(schema, start_rel, 3)
    tws = schemes[pick % len(schemes)]
    ids = db.relation_fact_ids(start_rel)
    blocks = [
        np.asarray([ids[(pick + 7 * g + 3 * i) % len(ids)] for i in range(block_len)], dtype=np.int64)
        for g in range(n_blocks)
    ]
    _assert_blocks_match_single_calls(db, blocks, tws, rng_seed, retry_cap)


@pytest.mark.parametrize("retry_cap", [1, 20])
@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_block_call_matches_when_a_block_dies_early(chain_schema, retry_cap, rng_seed):
    # R <- S -> R <- S: walks from r3 die on the first step, so its block
    # draws nothing while the others draw on the first and last steps
    from walkembed.relational import build_database

    db = build_database(
        chain_schema,
        [("R", ("r1",)), ("R", ("r2",)), ("R", ("r3",))]
        + [("S", (f"x{i}", "r1", "vd" if i == 0 else None)) for i in range(4)]
        + [("S", (f"y{i}", "r2", None if i else "ve")) for i in range(2)],
    )
    fk = db.schema.foreign_keys[0]
    back, fwd = WalkStep(fk, BACKWARD), WalkStep(fk, FORWARD)
    tws = TargetedWalkScheme(WalkScheme("R", (back, fwd, back)), "sval")
    blocks = [np.full(6, 0), np.full(6, 2), np.asarray([1, 0, 2, 1, 1, 0])]
    _assert_blocks_match_single_calls(db, [b.astype(np.int64) for b in blocks], tws, rng_seed, retry_cap)
    # the dead block's generator is untouched
    dead = np.random.default_rng(rng_seed)
    before = dead.bit_generator.state
    sample_target_values_batch(db, np.full(6, 2, dtype=np.int64), tws, [dead], retry_cap)
    assert dead.bit_generator.state == before


def test_block_call_rejects_unequal_blocks(chain_db):
    fk = chain_db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    rngs = [np.random.default_rng(g) for g in range(2)]
    with pytest.raises(UsageError, match="equal blocks"):
        sample_target_values_batch(chain_db, np.zeros(3, dtype=np.int64), tws, rngs)
    with pytest.raises(UsageError, match="equal blocks"):
        sample_target_values_batch(chain_db, np.zeros(2, dtype=np.int64), tws, [])


@pytest.mark.parametrize("retry_cap", [0, -3])
def test_sampler_rejects_retry_cap_below_one(chain_db, retry_cap):
    fk = chain_db.schema.foreign_keys[0]
    tws = TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(UsageError, match="retry_cap"):
        sample_target_values_batch(chain_db, np.zeros(4, dtype=np.int64), tws, rng, retry_cap)
    assert rng.bit_generator.state == before


# -- the foreign-key arrays the samplers step through ------------------------------


def _reference_step_table(db, step):
    """Per-element build of one direction of a foreign key's arrays, read
    from the fact values and key lookups alone."""
    fk = step.fk
    n = db.n_facts
    src_rel = db.schema.relation(fk.src)
    refs = []  # (source, destination) in source id order
    for src in db.relation_fact_ids(fk.src):
        key = tuple(db.fact(src).value(src_rel, a) for a in fk.src_attrs)
        if None not in key:
            refs.append((src, db.fact_by_key(fk.dst, key)))
    if step.direction == FORWARD:
        fwd = np.full(n, -1, dtype=np.int64)
        for src, dst in refs:
            fwd[src] = dst
        return fwd, None, None
    counts = np.zeros(n + 1, dtype=np.int64)
    for _src, dst in refs:
        counts[dst + 1] += 1
    offsets = np.cumsum(counts)
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    filled = offsets[:-1].copy()
    for src, dst in refs:
        flat[filled[dst]] = src
        filled[dst] += 1
    return None, offsets, flat


def _assert_step_tables_match_reference(db):
    checked = 0
    for pos, fk in enumerate(db.schema.foreign_keys):
        index = db.fk_index[pos]
        for direction in (FORWARD, BACKWARD):
            fwd, offsets, flat = _reference_step_table(db, WalkStep(fk, direction))
            pairs = [(index.fwd, fwd)] if direction == FORWARD else [
                (index.offsets, offsets), (index.flat, flat)
            ]
            for got, want in pairs:
                assert got.dtype == want.dtype and np.array_equal(got, want)
            checked += 1
    return checked


def test_step_tables_match_per_element_build(chain_db):
    assert _assert_step_tables_match_reference(chain_db) == 2
    # the insert appends facts referencing both an old and a new R fact,
    # so back-reference lists grow and a new one appears
    grown = insert_facts(
        chain_db,
        [Fact("R", ("r3",)), Fact("S", ("z", "r3", "vc")), Fact("S", ("w", "r1", None))],
    )
    assert _assert_step_tables_match_reference(grown) == 2
    for seed in range(8):
        db = random_database(random_schema(seed), seed)
        _assert_step_tables_match_reference(db)
