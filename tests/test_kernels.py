"""Kernel evaluation and expected kernel distance, exact and Monte Carlo.

Gaussian check points come from the closed form exp(-(a-b)^2 / (2 sigma^2)):
equal inputs give 1.0 and a gap of sigma * sqrt(2 ln 2) gives exactly 0.5.
The 4-term brute-force sums for kd_exact are worked by hand in each test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed.errors import NumericError, UsageError
from walkembed.kernels import (
    KernelSpec,
    default_kernels,
    kd_exact,
    kd_mc,
    kernel_eval,
    kernel_eval_batch,
    kernel_for,
)
from walkembed.relational import build_database
from walkembed.schemes import (
    BACKWARD,
    TargetedWalkScheme,
    WalkScheme,
    WalkStep,
    enumerate_targeted_schemes,
)
from walkembed.seeding import derive_rng
from walkembed.synth import convergence_database


# -- kernel evaluation ---------------------------------------------------------


def _batch_of_one(spec, a, b):
    return float(kernel_eval_batch(spec, [a], [b])[0])


# every value and error case runs through the scalar and the vectorised kernel
EVALUATORS = (kernel_eval, _batch_of_one)


def test_categorical_kernel_is_equality():
    spec = KernelSpec("S", "sval", "categorical")
    for evaluate in EVALUATORS:
        assert evaluate(spec, "a", "a") == 1.0
        assert evaluate(spec, "a", "b") == 0.0


def test_text_kernel_is_equality():
    spec = KernelSpec("S", "sval", "text")
    for evaluate in EVALUATORS:
        assert evaluate(spec, "same words", "same words") == 1.0
        assert evaluate(spec, "same words", "other words") == 0.0


def test_gaussian_kernel_check_points():
    spec = KernelSpec("S", "D", "numeric", sigma=1.0)
    gap = 1.0 * math.sqrt(2.0 * math.log(2.0))
    for evaluate in EVALUATORS:
        assert evaluate(spec, 0.0, 0.0) == pytest.approx(1.0, abs=0.0)
        assert evaluate(spec, 0.0, gap) == pytest.approx(0.5, abs=1e-12)


def test_gaussian_kernel_scales_with_sigma():
    spec = KernelSpec("S", "D", "numeric", sigma=3.0)
    gap = 3.0 * math.sqrt(2.0 * math.log(2.0))
    for evaluate in EVALUATORS:
        assert evaluate(spec, 10.0, 10.0 + gap) == pytest.approx(0.5, abs=1e-12)


def test_kernel_eval_rejects_nulls():
    spec = KernelSpec("S", "sval", "categorical")
    numeric = KernelSpec("S", "D", "numeric", sigma=1.0)
    for evaluate in EVALUATORS:
        with pytest.raises(ValueError):
            evaluate(spec, None, "a")
        with pytest.raises(ValueError):
            evaluate(numeric, 1.0, None)
    # a null anywhere in a batch, next to valid values
    with pytest.raises(ValueError):
        kernel_eval_batch(spec, ["a", "b"], ["a", None])
    with pytest.raises(ValueError):
        kernel_eval_batch(numeric, [1.0, None, 2.0], [1.0, 1.0, 1.0])


def test_kernel_eval_rejects_kind_mismatch():
    spec = KernelSpec("S", "D", "numeric", sigma=1.0)
    equality = KernelSpec("S", "sval", "categorical")
    for evaluate in EVALUATORS:
        with pytest.raises(TypeError):
            evaluate(spec, "text", 1.0)
        with pytest.raises(TypeError):
            evaluate(equality, "a", 1.0)
    # numpy would turn these mixed lists into strings
    with pytest.raises(TypeError):
        kernel_eval_batch(spec, [1.0, "2.0"], [1.0, 2.0])
    with pytest.raises(TypeError):
        kernel_eval_batch(equality, ["a", 1.0], ["a", "1.0"])


def test_kernel_eval_batch_matches_scalar_elementwise():
    rng = np.random.default_rng(0)
    numeric = KernelSpec("S", "D", "numeric", sigma=1.7)
    a, b = rng.normal(size=200).tolist(), rng.normal(size=200).tolist()
    got = kernel_eval_batch(numeric, a, b)
    assert got.dtype == np.float64
    assert got.tolist() == pytest.approx([kernel_eval(numeric, x, y) for x, y in zip(a, b)], rel=1e-15)
    equality = KernelSpec("S", "sval", "categorical")
    sa = [str(v) for v in rng.integers(0, 3, size=200)]
    sb = [str(v) for v in rng.integers(0, 3, size=200)]
    assert kernel_eval_batch(equality, sa, sb).tolist() == [
        kernel_eval(equality, x, y) for x, y in zip(sa, sb)
    ]
    assert kernel_eval_batch(equality, [], []).shape == (0,)
    with pytest.raises(ValueError):
        kernel_eval_batch(numeric, [1.0, 2.0], [1.0])


def test_kernel_spec_validation():
    with pytest.raises(UsageError):
        KernelSpec("S", "D", "numeric", sigma=None)  # numeric needs a width
    with pytest.raises(UsageError):
        KernelSpec("S", "sval", "categorical", sigma=2.0)  # equality takes none
    with pytest.raises(UsageError):
        KernelSpec("S", "D", "numeric", sigma=0.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-50, max_value=50),
    b=st.floats(min_value=-50, max_value=50),
    sigma=st.floats(min_value=0.1, max_value=10),
)
def test_gaussian_kernel_symmetric_and_bounded(a, b, sigma):
    spec = KernelSpec("S", "D", "numeric", sigma=sigma)
    for evaluate in EVALUATORS:
        k_ab = evaluate(spec, a, b)
        assert evaluate(spec, b, a) == k_ab
        assert 0.0 <= k_ab <= 1.0
        assert evaluate(spec, a, a) == 1.0


# -- default kernel map ---------------------------------------------------------


def test_default_kernels_sigma_is_sample_std(toy_db):
    kernels = default_kernels(toy_db)
    spec = kernels[("S", "D")]
    assert spec.kind == "numeric"
    # active domain of S.D is {1.0, 2.0}: sample std with ddof=1
    assert spec.sigma == pytest.approx(float(np.std([1.0, 2.0], ddof=1)), abs=1e-15)
    assert kernels[("R", "B")].kind == "categorical"


def test_default_kernels_sigma_fallback_for_degenerate_domain(toy_schema):
    db = build_database(toy_schema, [("S", ("only", 5.0))])
    kernels = default_kernels(db)
    assert kernels[("S", "D")].sigma == 1.0  # single value: no spread to measure


def test_kernel_for_unknown_target(chain_db):
    tws = enumerate_targeted_schemes(chain_db.schema, "R", 1)[0]
    with pytest.raises(UsageError):
        kernel_for({}, tws)


# -- exact expected kernel distance ----------------------------------------------


def _uniform_pair_db(chain_schema, vals_a, vals_b):
    """Two R facts whose backward walks land uniformly on the given values."""
    rows = [("R", ("r1",)), ("R", ("r2",))]
    for i, v in enumerate(vals_a):
        rows.append(("S", (f"a{i}", "r1", v)))
    for i, v in enumerate(vals_b):
        rows.append(("S", (f"b{i}", "r2", v)))
    return build_database(chain_schema, rows)


def _backward_tws(db):
    fk = db.schema.foreign_keys[0]
    return TargetedWalkScheme(WalkScheme("R", (WalkStep(fk, BACKWARD),)), "sval")


def test_kd_exact_uniform_half(chain_schema):
    # both sides uniform over {u, v}: P(equal) = 2 * (1/2 * 1/2) = 0.5
    db = _uniform_pair_db(chain_schema, ["u", "v"], ["u", "v"])
    tws = _backward_tws(db)
    spec = KernelSpec("S", "sval", "categorical")
    assert kd_exact(db, 0, 1, tws, spec) == pytest.approx(0.5, abs=1e-12)


def test_kd_exact_identical_constant(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u"], ["u"])
    spec = KernelSpec("S", "sval", "categorical")
    assert kd_exact(db, 0, 1, _backward_tws(db), spec) == 1.0


def test_kd_exact_disjoint_supports(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u"], ["v"])
    spec = KernelSpec("S", "sval", "categorical")
    assert kd_exact(db, 0, 1, _backward_tws(db), spec) == 0.0


def test_kd_exact_asymmetric_supports(chain_schema):
    # left uniform {u, v}, right constant u: P(equal) = 1/2
    db = _uniform_pair_db(chain_schema, ["u", "v"], ["u"])
    spec = KernelSpec("S", "sval", "categorical")
    assert kd_exact(db, 0, 1, _backward_tws(db), spec) == pytest.approx(0.5, abs=1e-12)


def test_kd_exact_self_similarity(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u", "v"], ["u"])
    spec = KernelSpec("S", "sval", "categorical")
    # against itself: P(two independent draws agree) = 1/4 + 1/4 = 1/2
    assert kd_exact(db, 0, 0, _backward_tws(db), spec) == pytest.approx(0.5, abs=1e-12)


def test_kd_exact_dead_side_raises(chain_db):
    spec = KernelSpec("S", "sval", "categorical")
    with pytest.raises(NumericError):
        kd_exact(chain_db, 0, 1, _backward_tws(chain_db), spec)  # fact 1 walks nowhere


def test_kd_exact_symmetry_on_random_pairs():
    db = convergence_database(6)
    kernels = default_kernels(db)
    items = db.relation_fact_ids("item")
    for tws in enumerate_targeted_schemes(db.schema, "item", 2):
        spec = kernel_for(kernels, tws)
        for a, b in [(items[0], items[1]), (items[2], items[5])]:
            try:
                left = kd_exact(db, a, b, tws, spec)
            except NumericError:
                continue
            assert left == pytest.approx(kd_exact(db, b, a, tws, spec), abs=1e-12)
            assert 0.0 <= left <= 1.0


# -- Monte Carlo estimate ----------------------------------------------------------


def test_kd_mc_matches_exact_within_three_stderr(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u", "v"], ["u", "v"])
    tws = _backward_tws(db)
    spec = KernelSpec("S", "sval", "categorical")
    est = kd_mc(db, 0, 1, tws, spec, 10_000, derive_rng(0, "kdmc"))
    assert est.n_pairs == 10_000
    assert est.stderr > 0
    assert abs(est.value - 0.5) <= 3.0 * est.stderr
    assert abs(est.value - 0.5) < 0.015


def test_kd_mc_skips_dead_pairs_uncounted(chain_schema):
    # r2's only referencing fact carries a null target: every paired draw
    # for it dies, so nothing is counted
    rows = [
        ("R", ("r1",)),
        ("R", ("r2",)),
        ("S", ("a0", "r1", "u")),
    ]
    db = build_database(chain_schema, rows)
    tws = _backward_tws(db)
    spec = KernelSpec("S", "sval", "categorical")
    with pytest.raises(NumericError):
        kd_mc(db, 0, 1, tws, spec, 50, derive_rng(1, "dead"))


def test_kd_mc_constant_value_zero_stderr(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u"], ["u"])
    spec = KernelSpec("S", "sval", "categorical")
    est = kd_mc(db, 0, 1, _backward_tws(db), spec, 100, derive_rng(2, "const"))
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_kd_mc_deterministic_under_seed(chain_schema):
    db = _uniform_pair_db(chain_schema, ["u", "v"], ["u", "v"])
    tws = _backward_tws(db)
    spec = KernelSpec("S", "sval", "categorical")
    a = kd_mc(db, 0, 1, tws, spec, 500, derive_rng(3, "det"))
    b = kd_mc(db, 0, 1, tws, spec, 500, derive_rng(3, "det"))
    assert a == b
