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

from .linalg import ABS_FLOOR, DEFAULT_TOL, threshold

#: Per-row relative cutoff deciding which entries count as support.
SUPPORT_RTOL = 1e-10


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """n points with strictly positive masses; normalization is recorded,
    never required."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= threshold(1.0, tol)


@dataclass(frozen=True)
class PointMap:
    """A map of points i -> images[i] on {0, ..., n-1}."""

    images: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.images, dtype=int)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("images must be a nonempty 1-d integer array")
        if np.any(s < 0) or np.any(s >= s.size):
            raise ValueError("images must lie in [0, n)")
        object.__setattr__(self, "images", s)

    @property
    def n(self) -> int:
        return self.images.size

    def preservation_defect(self, space: FiniteMeasureSpace) -> float:
        """max_j |pushforward mass of j - mu_j|; zero iff measure preserving."""
        if space.n != self.n:
            raise ValueError("point map and measure space sizes differ")
        pushed = np.zeros(self.n)
        np.add.at(pushed, self.images, space.weights)
        return float(np.max(np.abs(pushed - space.weights)))

    def is_measure_preserving(self, space: FiniteMeasureSpace, tol: float = DEFAULT_TOL) -> bool:
        return self.preservation_defect(space) <= threshold(float(np.max(space.weights)), tol)


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
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
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
    positivity_defect = float(max(0.0, -np.min(w.real)) + np.max(np.abs(w.imag)))
    mu = space.weights
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


def weighted_permutation_decompose(
    v, space: FiniteMeasureSpace, p, support_rtol: float = SUPPORT_RTOL
) -> WeightedPermutation:
    """Extract h and S from V f = h * (f o S), when V has that shape.

    Exactly one supported entry per row is the classical signature of an
    L^p isometry for p != 2; the Hadamard-type rotations that are isometric
    only at p = 2 fail the support test, which is the point of running it.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (space.n, space.n):
        raise ValueError("operator shape does not match the measure space")
    p = float(p)
    if math.isinf(p) or p < 1:
        raise ValueError("decomposition needs a finite exponent p >= 1")
    n = space.n
    weights = np.zeros(n, dtype=complex)
    images = np.zeros(n, dtype=int)
    for i in range(n):
        row = np.abs(v[i])
        cutoff = support_rtol * float(np.max(row)) if np.max(row) > 0 else ABS_FLOOR
        support = np.nonzero(row > cutoff)[0]
        if support.size != 1:
            return WeightedPermutation(False, None, None, None)
        images[i] = int(support[0])
        weights[i] = v[i, support[0]]
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


def multiplicativity_check(k, tol: float = DEFAULT_TOL) -> MultiplicativityCheck:
    """Is K unital and multiplicative, i.e. a composition operator?

    The defect is the worst || K(e_i * e_j) - K(e_i) * K(e_j) ||_inf over
    indicator pairs plus || K 1 - 1 ||_inf; by bilinearity, vanishing on the
    basis is vanishing everywhere.
    """
    k = np.asarray(k, dtype=complex if np.iscomplexobj(k) else float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("operator must be a square matrix")
    n = k.shape[0]
    # i = j: K(e_i) must be pointwise idempotent; one n x n work buffer
    # serves this and the magnitudes below (a second, real one if K is complex)
    work = k * k
    np.subtract(k, work, out=work)
    magnitudes = np.abs(work, out=None if np.iscomplexobj(work) else work)
    product_defect = float(np.max(magnitudes))
    np.abs(k, out=magnitudes)
    top = float(np.max(magnitudes))
    if n > 1:
        # i != j: images of disjoint indicators need disjoint support, so the
        # worst pair at a point multiplies its two largest entries in modulus
        magnitudes.partition(n - 2, axis=1)
        pairs = magnitudes[:, n - 2] * magnitudes[:, n - 1]
        product_defect = max(product_defect, float(np.max(pairs)))
    unitality_defect = float(np.max(np.abs(k @ np.ones(n) - 1.0)))
    defect = product_defect + unitality_defect
    scale = max(1.0, top**2)
    return MultiplicativityCheck(
        multiplicative=bool(defect <= threshold(scale, tol)),
        defect=defect,
        product_defect=product_defect,
        unitality_defect=unitality_defect,
    )
