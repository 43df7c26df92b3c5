"""Finite classical dynamical systems: composition operators of point maps,
their density-evolving adjoints, and the structure tests that decide when an
operator comes from a point transformation.

Functions on an n-point space are coordinate vectors against the indicator
basis, so the pointwise product is the entrywise product and
multiplicativity is finitely checkable on basis pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jsonio import integer_value, real_value
from .linalg import ABS_FLOOR, DEFAULT_TOL, threshold
from .spaces import check_p

#: Per-row relative cutoff deciding which entries count as support.
SUPPORT_RTOL = 1e-10


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """n points with strictly positive masses; normalization is never
    required.  Every ratio of two masses lies within the float range, since
    the transfer operator divides one mass by another."""

    weights: np.ndarray

    def __post_init__(self):
        if np.ndim(self.weights) != 1 or len(self.weights) == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        w = np.array([real_value(m, "weights") for m in self.weights])
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if not math.isfinite(float(w.max()) / float(w.min())):
            raise ValueError("the ratio of the largest to the smallest mass must lie within the float range")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class PointMap:
    """A map of points i -> images[i] on {0, ..., n-1}."""

    images: np.ndarray

    def __post_init__(self):
        if np.ndim(self.images) != 1 or len(self.images) == 0:
            raise ValueError("images must be a nonempty 1-d integer array")
        # the range is checked on the ints as read, so that an image beyond
        # int64 is refused like any other out-of-range one
        s = [integer_value(i, "images") for i in self.images]
        if min(s) < 0 or max(s) >= len(s):
            raise ValueError("images must lie in [0, n)")
        object.__setattr__(self, "images", np.array(s, dtype=int))

    @property
    def n(self) -> int:
        return self.images.size


def koopman_of(s: PointMap) -> np.ndarray:
    """Composition operator (Vf)_i = f_{s(i)}: one 1 per row, at column s(i)."""
    v = np.zeros((s.n, s.n))
    v[np.arange(s.n), s.images] = 1.0
    return v


def frobenius_perron_of(s: PointMap, space: FiniteMeasureSpace) -> np.ndarray:
    """Density evolution: the mu-weighted adjoint of the composition operator."""
    if space.n != s.n:
        raise ValueError("point map and measure space sizes differ")
    v = koopman_of(s)
    mu = space.weights
    return (v.T * mu[None, :]) / mu[:, None]


def lp_norm(f, space: FiniteMeasureSpace, p) -> float:
    """Weighted l^p norm (sum mu_i |f_i|^p)^(1/p); max |f_i| at p = inf."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.size != space.n:
        raise ValueError("function and measure space sizes differ")
    p = check_p(p)
    if math.isinf(p):
        return float(np.max(np.abs(f)))
    return float(np.sum(space.weights * np.abs(f) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class DoublyStochasticCheck:
    ok: bool
    positivity_defect: float
    mass_defect: float
    unitality_defect: float


def doubly_stochastic_check(
    w, space: FiniteMeasureSpace, tol: float = DEFAULT_TOL
) -> DoublyStochasticCheck:
    """Positivity, total-mass preservation, and unitality of a density operator.

    Positivity of the operator on nonnegative vectors is equivalent, for a
    matrix, to entrywise nonnegativity, which is the implemented test; mass
    preservation is the exact linear identity mu^T W = mu^T; unitality is
    W 1 = 1.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (space.n, space.n):
        raise ValueError("operator shape does not match the measure space")
    mu = space.weights
    # a defect beyond the float range reads inf or nan, and fails its test
    with np.errstate(over="ignore", invalid="ignore"):
        positivity_defect = float(max(0.0, -np.min(w.real)) + np.max(np.abs(w.imag)))
        mass_defect = float(np.max(np.abs(mu @ w - mu)))
        unitality_defect = float(np.max(np.abs(w @ np.ones(space.n) - 1.0)))
        scale = max(1.0, float(np.max(np.abs(w))))
    ok = (
        positivity_defect <= threshold(scale, tol)
        and mass_defect <= threshold(float(np.max(mu)), tol)
        and unitality_defect <= threshold(1.0, tol)
    )
    return DoublyStochasticCheck(ok, positivity_defect, mass_defect, unitality_defect)


@dataclass(frozen=True)
class WeightedPermutation:
    """Row-support structure of an operator that may be a weighted composition.

    ``ok`` is the purely structural verdict (exactly one supported entry per
    row); ``compatibility_defect`` measures the isometry condition
    sum_{s(i)=j} |h_i|^p mu_i = mu_j and is reported, not asserted, because
    measure preservation is a conclusion to detect rather than a hypothesis.
    """

    ok: bool
    weights: np.ndarray | None
    point_map: PointMap | None
    compatibility_defect: float | None


def weighted_permutation_decompose(v, space: FiniteMeasureSpace, p) -> WeightedPermutation:
    """Extract h and S from V f = h * (f o S), when V has that shape.

    Exactly one supported entry per row is the classical signature of an
    L^p isometry for p != 2; the Hadamard-type rotations that are isometric
    only at p = 2 fail the support test, which is the point of running it.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (space.n, space.n):
        raise ValueError("operator shape does not match the measure space")
    p = check_p(p)
    if math.isinf(p):
        raise ValueError("decomposition needs a finite exponent p")
    n = space.n
    magnitudes = np.abs(v)
    peaks = np.max(magnitudes, axis=1)
    cutoffs = np.where(peaks > 0, SUPPORT_RTOL * peaks, ABS_FLOOR)
    support = magnitudes > cutoffs[:, None]
    if np.any(np.count_nonzero(support, axis=1) != 1):
        return WeightedPermutation(False, None, None, None)
    images = np.argmax(support, axis=1)
    weights = v[np.arange(n), images]
    s = PointMap(images)
    mu = space.weights
    pushed = np.zeros(n)
    np.add.at(pushed, images, np.abs(weights) ** p * mu)
    defect = float(np.max(np.abs(pushed - mu)))
    return WeightedPermutation(True, weights, s, defect)


@dataclass(frozen=True)
class MultiplicativityCheck:
    multiplicative: bool
    defect: float
    product_defect: float
    unitality_defect: float


@dataclass(frozen=True)
class XorConvolution:
    """The operator K[x, y] = kernel[x ^ y] on d = kernel.size points, d a
    power of two, given by its kernel alone, as complex or float."""

    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=complex if np.iscomplexobj(self.kernel) else float)
        if k.ndim != 1 or k.size == 0 or k.size & (k.size - 1):
            raise ValueError("an XOR kernel is a 1-d array of power-of-two length")
        object.__setattr__(self, "kernel", k)


def multiplicativity_check(k, tol: float = DEFAULT_TOL) -> MultiplicativityCheck:
    """Is K unital and multiplicative, i.e. a composition operator?

    The defect is the worst || K(e_i * e_j) - K(e_i) * K(e_j) ||_inf over
    indicator pairs plus || K 1 - 1 ||_inf; by bilinearity, vanishing on the
    basis is vanishing everywhere.

    K is a square array, through ``np.asarray`` as complex or float, read
    whole.  The worst disjoint pair at a point multiplies the two largest
    entries of its row in modulus; they come from two passes, the row
    maximum at its ``argmax``, then the maximum again with that one entry
    set to -1.  A maximum that occurs twice in a row is found again by the
    second pass, so it is paired with itself, as a sort would pair it.

    Or K is an ``XorConvolution``, read as its one row, the 1-d kernel, by
    the same expressions: every row of K is a permutation of it, so that
    row gives every row's maxima, in O(d) time and memory.  The product
    defect is bit-identical to the array path's on the gathered grid; the
    unitality defect, row 0's sum, may differ from the worst row sum by
    rounding.  Rows are summed in numpy's own pairwise order: a BLAS
    product with a ones vector adds them in an order, and so with a
    rounding, that may change with the thread count.
    """
    if isinstance(k, XorConvolution):
        k = k.kernel
    else:
        k = np.asarray(k, dtype=complex if np.iscomplexobj(k) else float)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] == 0:
            raise ValueError("operator must be a nonempty square matrix")
    n = k.shape[-1]
    row_sums = k.sum(axis=-1)
    # i = j: K(e_i) must be pointwise idempotent
    product_defect = float(np.abs(k - k * k).max())
    # i != j: images of disjoint indicators need disjoint support
    magnitudes = np.abs(k)
    at = magnitudes.argmax(axis=-1)
    if k.ndim == 2:
        at = (np.arange(n), at)
    largest = magnitudes[at]
    magnitudes[at] = -1.0
    # by row: the largest modulus, the worst disjoint pair, |row sum - 1|;
    # a kernel's one row gives scalars, which need no reduction
    worst = (largest, largest * magnitudes.max(axis=-1), np.abs(row_sums - 1.0))
    if k.ndim == 2:
        worst = [w.max() for w in worst]
    top, pair, unitality_defect = map(float, worst)
    if n > 1:
        product_defect = max(product_defect, pair)
    defect = product_defect + unitality_defect
    scale = max(1.0, top**2)
    return MultiplicativityCheck(
        multiplicative=bool(defect <= threshold(scale, tol)),
        defect=defect,
        product_defect=product_defect,
        unitality_defect=unitality_defect,
    )
