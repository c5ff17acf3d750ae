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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NumericError, UsageError
from .relational import Database, Value
from .schemes import (
    TargetedWalkScheme,
    exact_value_distribution,
    sample_target_values_batch,
)


@dataclass(frozen=True)
class KernelSpec:
    relation: str
    attribute: str
    kind: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "numeric":
            if self.sigma is None or self.sigma <= 0:
                raise UsageError(
                    f"numeric kernel for {self.relation}.{self.attribute} needs sigma > 0"
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


def _checked_values(spec: KernelSpec, values: Sequence[Value] | np.ndarray) -> np.ndarray:
    """``values`` as an array, with kernel_eval's null and type checks."""
    arr = np.asarray(values)
    if spec.kind == "numeric":
        ok = arr.dtype.kind in "iuf"
    else:
        # numpy turns a list mixing strings and numbers into strings, so the
        # elements themselves are checked
        ok = arr.size == 0 or (
            arr.dtype.kind == "U" and all(map(isinstance, values, repeat(str)))
        )
    if ok:
        return arr.astype(np.float64 if spec.kind == "numeric" else str, copy=False)
    if arr.dtype.kind == "O" and any(v is None for v in arr.ravel().tolist()):
        raise ValueError(f"kernel {spec.relation}.{spec.attribute} got a null argument")
    if spec.kind == "numeric":
        raise TypeError(f"numeric kernel {spec.relation}.{spec.attribute} got a non-number")
    raise TypeError(f"equality kernel {spec.relation}.{spec.attribute} got a non-string")


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


def kernel_eval_batch(
    spec: KernelSpec, a: Sequence[Value] | np.ndarray, b: Sequence[Value] | np.ndarray
) -> np.ndarray:
    """``kernel_eval`` over two aligned value sequences, as a float64 array.

    Raises what ``kernel_eval`` raises for any element: ValueError on a
    null, TypeError on a value of the wrong kind.  The checked values then
    go through ``column_kernel``, so the Gaussian may differ from
    ``kernel_eval`` in the last bit."""
    xa = _checked_values(spec, a)
    xb = _checked_values(spec, b)
    if xa.shape != xb.shape:
        raise ValueError(
            f"kernel {spec.relation}.{spec.attribute} got {xa.shape} and {xb.shape} values"
        )
    return column_kernel(spec, xa, xb)


def default_kernels(db: Database) -> KernelMap:
    """One kernel per attribute; Gaussian sigma is the sample standard
    deviation of the attribute's active domain, falling back to 1 when the
    domain has fewer than two values or zero spread."""
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


def kd_exact(
    db: Database,
    fact_a: int,
    fact_b: int,
    tws: TargetedWalkScheme,
    spec: KernelSpec,
) -> float:
    """Expected kernel distance from the exact destination-value laws."""
    da = exact_value_distribution(db, fact_a, tws)
    dbb = exact_value_distribution(db, fact_b, tws)
    if not da or not dbb:
        raise NumericError(
            f"expected kernel distance undefined: no non-null destinations for "
            f"fact {fact_a if not da else fact_b}"
        )
    total = 0.0
    for va, pa in da.items():
        for vb, pb in dbb.items():
            total += pa * pb * kernel_eval(spec, va, vb)
    return total


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
