"""Dense complex linear algebra primitives shared by every other module.

Tolerance policy, used package-wide: every comparison takes an explicit
relative tolerance (default ``DEFAULT_TOL``) and is floored at the absolute
``ABS_FLOOR``.  Invertibility has one rule, ``invertible``: the smallest
eigenvalue or singular value must exceed ``INVERTIBILITY_RATIO`` times the
largest one; anything closer to singular is rejected loudly instead of
being regularized.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
ABS_FLOOR = 1e-12
INVERTIBILITY_RATIO = 1e-12


class NonHermitianError(ValueError):
    """Input required to be Hermitian is not, beyond tolerance."""


class NoConvergenceError(RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


class SingularInputError(ValueError):
    """Input required to be invertible is numerically singular."""


class DimensionMismatchError(ValueError):
    """Operands do not have compatible shapes."""


def threshold(scale: float, tol: float = DEFAULT_TOL) -> float:
    """Comparison cutoff: relative to ``scale``, never below the absolute floor."""
    return max(tol * abs(scale), ABS_FLOOR)


def invertible(low: float, high: float) -> bool:
    """The invertibility rule: ``high`` > 0 and ``low`` > INVERTIBILITY_RATIO * ``high``,
    for the smallest and largest eigenvalue or singular value."""
    return bool(high > 0.0 and low > INVERTIBILITY_RATIO * high)


def as_matrices(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix or a (k, n, n)
    stack of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix."""
    m = as_matrices(a)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2.0


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M - M*."""
    return float(np.linalg.norm(m - dagger(m)))


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix, symmetrizing first:
    ascending eigenvalues w and the matching orthonormal eigenvectors as the
    columns of v.

    Raises NonHermitianError when the anti-Hermitian part exceeds tolerance,
    NoConvergenceError when the iteration fails.
    """
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > threshold(frobenius(m), tol):
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance"
        )
    try:
        return np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc


def polar_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition A = U P with U unitary and P = |A| positive definite.

    Requires A ``invertible`` in its singular values, so that the unitary
    factor is unique.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a)
    if not invertible(s[-1], s[0]):
        raise SingularInputError(
            f"polar factor is not unique: smallest singular value {s[-1]:.3e}"
        )
    unitary = u @ vh
    positive = hermitian_part(dagger(vh) @ (s[:, None] * vh))
    return unitary, positive
