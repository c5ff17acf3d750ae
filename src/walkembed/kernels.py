"""Attribute kernels and the expected kernel distance between tuples.

Each attribute gets a kernel: exact-match for categorical and text values,
a Gaussian bump ``exp(-(a-b)^2 / (2 sigma^2))`` for numeric ones.  The
expected kernel distance between two start facts under a targeted scheme
is the expectation of the kernel over a pair of independent walks, one
from each fact; despite the name it is a similarity (1 means the walk
destinations agree, 0 means they never do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .relational import KINDS, Database, Value
from .schemes import TargetedWalkScheme, exact_value_law, sample_target_values_batch


@dataclass(frozen=True)
class KernelSpec:
    relation: str
    attribute: str
    kind: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "numeric":
            if self.sigma is None or not (math.isfinite(self.sigma) and self.sigma > 0):
                raise UsageError(
                    f"numeric kernel for {self.relation}.{self.attribute} needs a finite sigma > 0, "
                    f"got {self.sigma!r}"
                )
        elif self.sigma is not None:
            raise UsageError(f"sigma only applies to numeric kernels ({self.relation}.{self.attribute})")


KernelMap = dict[tuple[str, str], KernelSpec]


def kernel_eval(spec: KernelSpec, a: Value, b: Value) -> float:
    if a is None or b is None:
        raise ValueError(f"kernel {spec.relation}.{spec.attribute} got a null argument")
    if spec.kind == "numeric":
        if isinstance(a, str) or isinstance(b, str):
            raise TypeError(f"numeric kernel {spec.relation}.{spec.attribute} got a string")
        d = float(a) - float(b)
        return math.exp(-(d * d) / (2.0 * spec.sigma * spec.sigma))
    if not isinstance(a, str) or not isinstance(b, str):
        raise TypeError(f"equality kernel {spec.relation}.{spec.attribute} got a non-string")
    return 1.0 if a == b else 0.0


def column_kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """The kernel over two aligned arrays of one column's values, as float64.

    Equality kernels compare codes (or strings); the Gaussian takes floats.
    The Gaussian runs ``np.exp``, which may differ from ``kernel_eval`` in
    the last bit; with ``exact`` it applies ``math.exp`` per element to the
    same argument, which is ``kernel_eval`` to the bit.
    """
    if (spec.kind == "numeric") != (a.dtype.kind == "f"):
        raise TypeError(
            f"{'numeric' if spec.kind == 'numeric' else 'equality'} kernel "
            f"{spec.relation}.{spec.attribute} got a column of the other kind"
        )
    if spec.kind != "numeric":
        return (a == b).astype(np.float64)
    d = a - b
    arg = -(d * d) / (2.0 * spec.sigma * spec.sigma)
    if exact:
        return np.fromiter(map(math.exp, arg.tolist()), dtype=np.float64, count=len(arg))
    return np.exp(arg)


def default_kernels(db: Database, overrides: tuple[KernelSpec, ...] = ()) -> KernelMap:
    """One kernel per attribute; Gaussian sigma is the sample standard
    deviation of the attribute's active domain, falling back to 1 when the
    domain has fewer than two values or zero spread.

    Each of ``overrides`` then takes its attribute's place.  An override of
    an attribute ``db`` does not have, of a kind outside ``KINDS``, or
    numeric where the attribute is not (or the reverse), is a UsageError
    naming it."""
    out: KernelMap = {}
    for rel in db.schema.relations:
        for attr in rel.attributes:
            if attr.kind == "numeric":
                dom = [float(v) for v in db.active_domain(rel.name, attr.name)]
                sigma = float(np.std(dom, ddof=1)) if len(dom) >= 2 else 0.0
                if not sigma > 0.0:
                    sigma = 1.0
                out[(rel.name, attr.name)] = KernelSpec(rel.name, attr.name, "numeric", sigma)
            else:
                out[(rel.name, attr.name)] = KernelSpec(rel.name, attr.name, attr.kind)
    kinds = {key: spec.kind for key, spec in out.items()}  # the attributes' own, not an earlier override's
    for spec in overrides:
        key, name = (spec.relation, spec.attribute), f"kernel override {spec.relation}.{spec.attribute}"
        if key not in kinds:
            raise UsageError(f"{name} names no attribute of the database")
        if spec.kind not in KINDS:
            raise UsageError(f"{name}: unknown kind {spec.kind!r}; expected one of: {', '.join(KINDS)}")
        if (spec.kind == "numeric") != (kinds[key] == "numeric"):
            raise UsageError(f"{name} is {spec.kind} but the attribute is {kinds[key]}")
        out[key] = spec
    return out


def kernel_for(kernels: KernelMap, tws: TargetedWalkScheme) -> KernelSpec:
    key = (tws.scheme.end_relation, tws.target_attr)
    try:
        return kernels[key]
    except KeyError:
        raise UsageError(f"no kernel configured for attribute {key[0]}.{key[1]}") from None


@dataclass(frozen=True)
class KDEstimate:
    value: float
    n_pairs: int
    stderr: float


def kd_from_value_law(
    spec: KernelSpec, row: np.ndarray, value: np.ndarray, weight: np.ndarray, n_rows: int
) -> np.ndarray:
    """Exact expected kernel distance between row 0 of a value law (the
    arrays of ``exact_value_law``) and each of rows 1 to ``n_rows - 1``;
    NaN where either row's law is empty.

    Each distance is the sum of p_a p_b K(a, b) over the pairs of the two
    supports, with ``column_kernel(..., exact=True)``, added in ascending
    order of the terms, so swapping the two facts gives the same float."""
    mine = np.flatnonzero(row == 0)
    other = np.flatnonzero(row > 0)
    a = np.tile(mine, len(other))
    b = np.repeat(other, len(mine))
    terms = weight[a] * weight[b] * column_kernel(spec, value[a], value[b], exact=True)
    owner = row[b]
    order = np.lexsort((terms, owner))
    sums = np.bincount(owner[order], weights=terms[order], minlength=n_rows)
    present = np.zeros(n_rows, dtype=bool)
    present[row] = True
    return np.where(present[0] & present[1:], sums[1:], np.nan)


def kd_exact(
    db: Database,
    fact_a: int,
    fact_b: int,
    tws: TargetedWalkScheme,
    spec: KernelSpec,
) -> float:
    """Expected kernel distance from the exact destination-value laws."""
    row, value, weight = exact_value_law(db, tws, [fact_a, fact_b])
    if 0 not in row or 1 not in row:
        raise NumericError(
            f"expected kernel distance undefined: no non-null destinations for "
            f"fact {fact_a if 0 not in row else fact_b}"
        )
    return float(kd_from_value_law(spec, row, value, weight, 2)[0])


def kd_mc(
    db: Database,
    fact_a: int,
    fact_b: int,
    tws: TargetedWalkScheme,
    spec: KernelSpec,
    n_pairs: int,
    rng: np.random.Generator,
    retry_cap: int = 20,
) -> KDEstimate:
    """Monte Carlo estimate of the expected kernel distance.

    Draws ``n_pairs`` pairs of walks; a pair where either walk dead-ends
    (after retries) is skipped and not counted.  Errors out when every
    pair dead-ended.
    """
    if n_pairs <= 0:
        raise UsageError("n_pairs must be positive")
    starts_a = np.full(n_pairs, fact_a, dtype=np.int64)
    starts_b = np.full(n_pairs, fact_b, dtype=np.int64)
    dests_a, vals_a = sample_target_values_batch(db, starts_a, tws, rng, retry_cap)
    dests_b, vals_b = sample_target_values_batch(db, starts_b, tws, rng, retry_cap)
    ok = (dests_a >= 0) & (dests_b >= 0)
    if not ok.any():
        raise NumericError(
            f"all {n_pairs} sampled pairs dead-ended for facts {fact_a},{fact_b}"
        )
    arr = column_kernel(spec, vals_a[ok], vals_b[ok])
    stderr = float(np.std(arr, ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return KDEstimate(value=float(arr.mean()), n_pairs=len(arr), stderr=stderr)
