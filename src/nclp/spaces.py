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

from .jsonio import count_value, real_value
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SingularInputError,
    as_matrices,
    as_matrix,
    dagger,
    hermitian_eig,
    hermitian_part,
    invertible,
    threshold,
)
from .sampling import ginibre_stack

#: Exponent grid used by every sampling-based check in the package.
P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)


def check_p(p) -> float:
    """Validate an L^p exponent: a real number >= 1, or inf.  A bool or any
    other value that is not a real number, such as a string, is refused
    (``jsonio.real_value``), never cast."""
    p = real_value(p, "p")
    if math.isnan(p) or p < 1.0:
        raise ValueError("p must be >= 1")
    return p


def check_dim(n: int, measure: QuantumMeasure) -> None:
    """Refuse, with DimensionMismatchError, a matrix or a map on n x n
    matrices that does not act on the state's n x n matrices."""
    if n != measure.dim:
        raise DimensionMismatchError(f"matrix dim {n} does not match state dim {measure.dim}")


def tau_exponent(p: float) -> float:
    """The exponent 1/(2p) of the sandwich rho^(1/2p) X rho^(1/2p) at a
    checked p; 0 at p = inf, where the sandwich is the identity."""
    return 0.0 if math.isinf(p) else 1.0 / (2.0 * p)


class QuantumMeasure:
    """A faithful state omega(X) = Tr(rho X), validated and decomposed once,
    with cached powers of rho.

    The given matrix is kept as ``matrix``, a read-only copy.  It must be
    Hermitian within ``tol`` (``hermitian_eig``, whose decomposition of the
    Hermitian part is kept as ``eigenvalues`` and ``eigenbasis``), have unit
    trace, and be positive definite and ``invertible``.  ``rho`` is that
    Hermitian part, so that the predual and every power read one state.
    Each power rho^r is read from the one decomposition and cached.
    Everything a measure holds is read-only, since every caller shares it;
    products of cached powers satisfy the exponent semigroup law to rounding
    accuracy.  A ``QuantumMeasure`` passed as ``rho`` is shared as it
    stands, with its own tolerance, decomposition and cached powers.
    """

    def __init__(self, rho, tol: float = DEFAULT_TOL):
        if isinstance(rho, QuantumMeasure):
            vars(self).update(vars(rho))
            return
        self.matrix = as_matrix(np.array(rho, dtype=complex))
        self.matrix.setflags(write=False)
        w, v = hermitian_eig(self.matrix, tol)
        tr = float(np.sum(w))
        if abs(tr - 1.0) > threshold(1.0, tol):
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        if w[0] <= 0.0:
            raise ValueError(f"density matrix is not positive definite: min eigenvalue {w[0]:.3e}")
        if not invertible(w[0], w[-1]):
            raise SingularInputError(f"density matrix is numerically singular: min eigenvalue {w[0]:.3e}")
        self.rho = hermitian_part(self.matrix)
        for shared in (self.rho, w, v):
            shared.setflags(write=False)
        self.eigenvalues, self.eigenbasis = w, v
        self.tol = tol
        self.dim = self.matrix.shape[0]
        self._powers: dict[float, np.ndarray] = {}

    def power(self, r: float) -> np.ndarray:
        """rho^r for any real r (rho is positive definite by construction)."""
        r = float(r)
        cached = self._powers.get(r)
        if cached is None:
            v = self.eigenbasis
            cached = hermitian_part((v * np.power(self.eigenvalues, r)) @ dagger(v))
            cached.setflags(write=False)
            self._powers[r] = cached
        return cached


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

    For p = inf returns the operator norm of A itself (L^inf as the algebra);
    otherwise the Schatten p-norm of ``tau_conjugate``'s sandwich.  Stacks
    are normed as in ``schatten_norm``.
    """
    a = as_matrices(a)
    p = check_p(p)
    if math.isinf(p):
        check_dim(a.shape[-1], measure)
        return schatten_norm(a, math.inf)
    return schatten_norm(tau_conjugate(a, measure, p), p)


def weighted_inner(a, b, measure: QuantumMeasure) -> complex:
    """The L^2 inner product <A, B> = Tr(rho^(1/2) A* rho^(1/2) B).

    Sesquilinear, conjugate-linear in the first argument; its quadratic form
    is the square of the weighted 2-norm.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"operands of shapes {a.shape} and {b.shape} differ")
    check_dim(a.shape[0], measure)
    half = measure.power(0.5)
    return complex(np.trace(half @ dagger(a) @ half @ b))


def tau_conjugate(x, measure: QuantumMeasure, p, inverse: bool = False) -> np.ndarray:
    """Sandwich X -> rho^(1/2p) X rho^(1/2p), or with inverse=True its inverse.

    The forward map carries the weighted p-norm isometrically onto the
    Schatten p-norm; forward followed by inverse is the identity.  A
    (k, n, n) stack is sandwiched matrix by matrix, as one product.
    """
    x = as_matrices(x)
    p = check_p(p)
    check_dim(x.shape[-1], measure)
    r = tau_exponent(p)
    root = measure.power(-r if inverse else r)
    return root @ x @ root


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
    trials = count_value(trials, "trials")
    samples = ginibre_stack(measure.dim, trials, seed)
    # one stack norm per exponent, one row per sample
    norms = {p: weighted_norm(samples, measure, p).tolist() for p in P_GRID}
    rows = []
    signs = set()
    for k in range(trials):
        for i, p in enumerate(P_GRID):
            for q in P_GRID[i + 1 :]:
                np_, nq = norms[p][k], norms[q][k]
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
