"""Dense complex linear algebra primitives shared by every other module.

Tolerance policy, used package-wide: every comparison takes an explicit
relative tolerance (default ``DEFAULT_TOL``) and is floored at the absolute
``ABS_FLOOR``.  A density matrix counts as invertible when its smallest
eigenvalue exceeds ``INVERTIBILITY_RATIO`` times its largest one; anything
closer to singular is rejected loudly instead of being regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
ABS_FLOOR = 1e-12
INVERTIBILITY_RATIO = 1e-12


class NonHermitianError(ValueError):
    """Input required to be Hermitian is not, beyond tolerance."""


class NoConvergenceError(RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


class NegativeEigenvalueError(ValueError):
    """Input required to be positive semidefinite has a negative eigenvalue."""


class SingularPowerError(ValueError):
    """A negative matrix power was requested for a numerically singular input."""


class SingularInputError(ValueError):
    """Input required to be invertible is numerically singular."""


class DimensionMismatchError(ValueError):
    """Operands do not have compatible shapes."""


def threshold(scale: float, tol: float = DEFAULT_TOL) -> float:
    """Comparison cutoff: relative to ``scale``, never below the absolute floor."""
    return max(tol * abs(scale), ABS_FLOOR)


def as_matrices(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix or a (k, n, n)
    stack of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
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


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a (symmetrized) Hermitian matrix.

    ``eigenvalues`` are ascending; columns of ``eigenvectors`` are the
    matching orthonormal eigenvectors; ``defect`` is the Frobenius distance
    of the raw input from its Hermitian part, measured before symmetrizing.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    defect: float

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, symmetrizing first.

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
        w, v = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    return HermitianEig(eigenvalues=w, eigenvectors=v, defect=defect)


def matrix_abs(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Operator absolute value |X| = (X*X)^(1/2)."""
    x = as_matrix(x)
    gram = dagger(x) @ x
    eig = hermitian_eig(gram, tol=tol)
    w = np.clip(eig.eigenvalues, 0.0, None)
    v = eig.eigenvectors
    return hermitian_part((v * np.sqrt(w)) @ dagger(v))


def frac_power(p, r: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fractional power P^r of a positive semidefinite matrix.

    Negative exponents additionally require P to be invertible (smallest
    eigenvalue above INVERTIBILITY_RATIO times the largest).
    """
    eig = hermitian_eig(p, tol=tol)
    w = eig.eigenvalues
    top = float(max(w[-1], 0.0))
    if w[0] < -threshold(top if top > 0 else 1.0, tol):
        raise NegativeEigenvalueError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    if r < 0 and w[0] <= INVERTIBILITY_RATIO * top:
        raise SingularPowerError(
            f"negative power {r} of a numerically singular matrix "
            f"(min eigenvalue {w[0]:.3e}, max {top:.3e})"
        )
    v = eig.eigenvectors
    return hermitian_part((v * np.power(w, r)) @ dagger(v))


def polar_decompose(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition A = U P with U unitary and P = |A| positive definite.

    Requires A invertible so that the unitary factor is unique.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a)
    if s[0] == 0.0 or s[-1] <= INVERTIBILITY_RATIO * s[0]:
        raise SingularInputError(
            f"polar factor is not unique: smallest singular value {s[-1]:.3e}"
        )
    unitary = u @ vh
    positive = hermitian_part(dagger(vh) @ (s[:, None] * vh))
    return unitary, positive


def psd_leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Positive-semidefinite order: True iff B - A has no eigenvalue below -tol."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    for m in (a, b):
        if hermiticity_defect(m) > threshold(frobenius(m), tol):
            raise NonHermitianError("psd_leq requires Hermitian operands")
    w = np.linalg.eigvalsh(hermitian_part(b - a))
    scale = max(frobenius(a), frobenius(b))
    return bool(w[0] >= -threshold(scale, tol))


@dataclass(frozen=True)
class DensityMatrix:
    """A faithful state: Hermitian, invertible, unit-trace positive matrix."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if hermiticity_defect(m) > threshold(frobenius(m), self.tol):
            raise NonHermitianError("density matrix must be Hermitian")
        w = np.linalg.eigvalsh(hermitian_part(m))
        tr = float(np.sum(w))
        if abs(tr - 1.0) > threshold(1.0, self.tol):
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        if w[0] <= INVERTIBILITY_RATIO * max(w[-1], 0.0):
            raise SingularInputError(
                f"density matrix is numerically singular: min eigenvalue {w[0]:.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
