"""Non-commutative L^p machinery for a matrix algebra with a faithful state.

A state omega(X) = Tr(rho X) with invertible rho turns the n x n matrices
into a scale of normed spaces

    ||A||_p = (Tr |rho^(1/2p) A rho^(1/2p)|^p)^(1/p),    1 <= p < inf,

with the plain Schatten norms as the special case rho = identity (up to
normalization).  In finite dimension every matrix already belongs to every
one of these spaces and the abstract completion step is vacuous: the
canonical embedding of the algebra into its L^p space is the identity map
on matrices.  For p = inf this module returns the operator norm of A
itself, the usual reading of L^inf as the algebra; the weighted scale only
pins L^inf down by duality, so this is a documented choice.

The sandwich map X -> rho^(1/2p) X rho^(1/2p) is an isometry from the
weighted p-norm onto the Schatten p-norm; ``tau_conjugate`` exposes it and
its inverse, and ``weighted_isometry_transport`` in :mod:`nclp.superop`
conjugates whole maps through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    DimensionMismatchError,
    as_matrices,
    as_matrix,
    dagger,
    frac_power,
    hermitian_eig,
    hermitian_part,
    threshold,
)
from .sampling import ginibre, rng_from

#: Exponent grid used by every sampling-based check in the package.
P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)


def check_p(p) -> float:
    """Validate an L^p exponent: a real number >= 1, or inf."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError("p must be >= 1")
    return p


def conjugate_exponent(p) -> float:
    """The dual exponent q with 1/p + 1/q = 1."""
    p = check_p(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


class QuantumMeasure:
    """A faithful state omega(X) = Tr(rho X), with cached powers of rho.

    Each power rho^r is ``linalg.frac_power(rho, r)``, computed once and
    cached.  Every call decomposes the same matrix rho, so products of
    cached powers satisfy the exponent semigroup law to rounding accuracy.
    """

    def __init__(self, rho, tol: float = DEFAULT_TOL):
        if not isinstance(rho, DensityMatrix):
            rho = DensityMatrix(rho, tol=tol)
        self.density = rho
        self.tol = tol
        self._eigenvectors = hermitian_eig(rho.matrix, rho.tol).eigenvectors
        self._powers: dict[float, np.ndarray] = {}

    @property
    def rho(self) -> np.ndarray:
        return self.density.matrix

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def eigenbasis(self) -> np.ndarray:
        """Orthonormal eigenvectors of rho, in ascending eigenvalue order."""
        return self._eigenvectors

    def power(self, r: float) -> np.ndarray:
        """rho^r for any real r (rho is invertible by construction)."""
        r = float(r)
        cached = self._powers.get(r)
        if cached is None:
            cached = frac_power(self.rho, r, tol=self.tol)
            self._powers[r] = cached
        return cached

    def expectation(self, a) -> complex:
        return complex(np.trace(self.rho @ as_matrix(a)))


def maximally_mixed(n: int) -> QuantumMeasure:
    """The tracial state rho = identity/n."""
    return QuantumMeasure(np.eye(n) / n)


def schatten_norm(a, p):
    """Schatten p-norm (sum of singular values^p)^(1/p); max singular value at p=inf.

    A (k, n, n) stack gives the array of its k norms; a single matrix is
    normed as a stack of one and gives a float.
    """
    a = as_matrices(a)
    p = check_p(p)
    s = np.linalg.svd(a.reshape(-1, *a.shape[-2:]), compute_uv=False)
    top = s.max(axis=1, initial=0.0)
    if math.isinf(p):
        norms = top
    elif p == 1.0:
        norms = s.sum(axis=1)
    else:
        # factor out the largest singular value so s**p cannot overflow
        unit = np.where(top > 0.0, top, 1.0)
        norms = top * np.sum((s / unit[:, None]) ** p, axis=1) ** (1.0 / p)
    return norms if a.ndim == 3 else float(norms[0])


def weighted_norm(a, measure: QuantumMeasure, p):
    """State-weighted p-norm (Tr |rho^(1/2p) A rho^(1/2p)|^p)^(1/p).

    For p = inf returns the operator norm of A itself (L^inf as the algebra).
    Stacks are normed as in ``schatten_norm``.
    """
    a = as_matrices(a)
    p = check_p(p)
    if a.shape[-1] != measure.dim:
        raise DimensionMismatchError(
            f"matrix dim {a.shape[-1]} does not match state dim {measure.dim}"
        )
    if math.isinf(p):
        return schatten_norm(a, math.inf)
    root = measure.power(1.0 / (2.0 * p))
    norms = schatten_norm(root @ a.reshape(-1, *a.shape[-2:]) @ root, p)
    return norms if a.ndim == 3 else float(norms[0])


def weighted_inner(a, b, measure: QuantumMeasure) -> complex:
    """The L^2 inner product <A, B> = Tr(rho^(1/2) A* rho^(1/2) B).

    Sesquilinear, conjugate-linear in the first argument; its quadratic form
    is the square of the weighted 2-norm.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != measure.dim:
        raise DimensionMismatchError("operands must match the state dimension")
    half = measure.power(0.5)
    return complex(np.trace(half @ dagger(a) @ half @ b))


def tau_conjugate(x, measure: QuantumMeasure, p, direction: str = "forward") -> np.ndarray:
    """Sandwich X -> rho^(1/2p) X rho^(1/2p), or its inverse.

    The forward map carries the weighted p-norm isometrically onto the
    Schatten p-norm; forward followed by inverse is the identity.
    """
    x = as_matrix(x)
    p = check_p(p)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    r = 0.0 if math.isinf(p) else 1.0 / (2.0 * p)
    if direction == "inverse":
        r = -r
    root = measure.power(r)
    return root @ x @ root


def integrability_constant(
    t, measure: QuantumMeasure, tol: float = DEFAULT_TOL, trials: int = 50, seed=0
) -> float:
    """Least c >= 0 with T_*(rho) <= c * rho in the positive-semidefinite order.

    T must be positivity preserving (verified by sampling; NotPositiveError
    otherwise); normality is automatic in finite dimension.  The constant is
    computed in one shot as the top eigenvalue of
    rho^(-1/2) T_*(rho) rho^(-1/2).  With rho invertible this is always
    finite -- the unbounded alternative of the abstract criterion cannot
    occur at finite dimension, a degeneracy worth remembering when reading
    the verdicts.
    """
    from .superop import NotPositiveError, positivity_check

    report = positivity_check(t, trials=trials, seed=seed, tol=tol)
    if not report.positive:
        raise NotPositiveError(
            f"map is not positivity preserving: defect {report.defect:.3e}"
        )
    pushed = hermitian_part(t.predual().apply(measure.rho))
    inv_half = measure.power(-0.5)
    w = np.linalg.eigvalsh(hermitian_part(inv_half @ pushed @ inv_half))
    return float(w[-1])


@dataclass(frozen=True)
class NormScaleRow:
    seed: int
    dim: int
    p: float
    q: float
    norm_p: float
    norm_q: float
    sign: int


@dataclass(frozen=True)
class NormScaleReport:
    """Empirical direction of the weighted-norm scale across exponents.

    ``direction`` is "nondecreasing_in_p" when no sampled pair had
    norm_p > norm_q for p < q, "nonincreasing_in_p" for the mirror case,
    "tie" when every comparison was a tie, and "mixed" otherwise.
    Conventions in the literature differ on which inclusion direction a
    weighted scale should satisfy, so the report records the measured
    direction instead of asserting a theorem.
    """

    rows: tuple[NormScaleRow, ...]
    direction: str
    consistent: bool


def norm_scale_report(
    measure: QuantumMeasure, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> NormScaleReport:
    """Sample matrices and record sign(norm_p - norm_q) over the exponent grid."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_from(seed)
    rows = []
    signs = set()
    for _ in range(trials):
        a = ginibre(measure.dim, rng)
        norms = {p: weighted_norm(a, measure, p) for p in P_GRID}
        for i, p in enumerate(P_GRID):
            for q in P_GRID[i + 1 :]:
                np_, nq = norms[p], norms[q]
                diff = np_ - nq
                sign = 0 if abs(diff) <= threshold(max(np_, nq), tol) else (1 if diff > 0 else -1)
                signs.add(sign)
                rows.append(NormScaleRow(seed, measure.dim, p, q, np_, nq, sign))
    if signs <= {0}:
        direction = "tie"
    elif 1 not in signs:
        direction = "nondecreasing_in_p"
    elif -1 not in signs:
        direction = "nonincreasing_in_p"
    else:
        direction = "mixed"
    return NormScaleReport(rows=tuple(rows), direction=direction, consistent=direction != "mixed")
