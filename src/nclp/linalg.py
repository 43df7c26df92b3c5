"""Dense complex linear algebra primitives shared by every other module.

Tolerance policy, used package-wide: every comparison takes an explicit
relative tolerance (default ``DEFAULT_TOL``) and is floored at the absolute
``ABS_FLOOR``.  Invertibility has one rule, ``invertible``: the smallest
eigenvalue or singular value must exceed ``INVERTIBILITY_RATIO`` times the
largest one; anything closer to singular is rejected loudly instead of
being regularized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a (symmetrized) Hermitian matrix.

    ``eigenvalues`` are ascending; columns of ``eigenvectors`` are the
    matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def power(self, r: float, tol: float = DEFAULT_TOL) -> np.ndarray:
        """P^r for the positive semidefinite P this decomposes.

        Negative exponents additionally require P to be ``invertible``.
        """
        w = self.eigenvalues
        top = float(max(w[-1], 0.0))
        if w[0] < -threshold(top if top > 0 else 1.0, tol):
            raise NegativeEigenvalueError(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
            )
        w = np.clip(w, 0.0, None)
        if r < 0 and not invertible(w[0], top):
            raise SingularPowerError(
                f"negative power {r} of a numerically singular matrix "
                f"(min eigenvalue {w[0]:.3e}, max {top:.3e})"
            )
        v = self.eigenvectors
        return hermitian_part((v * np.power(w, r)) @ dagger(v))


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
    return HermitianEig(eigenvalues=w, eigenvectors=v)


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


@dataclass(frozen=True)
class DensityMatrix:
    """A faithful state: Hermitian, invertible, unit-trace positive matrix,
    with the one ``hermitian_eig`` that validated it kept as ``eig``.
    ``matrix`` is a read-only copy of the caller's matrix, so a later write
    to the caller's array cannot change the state behind ``eig``."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL
    eig: HermitianEig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = as_matrix(np.array(self.matrix, dtype=complex))
        m.setflags(write=False)
        object.__setattr__(self, "eig", hermitian_eig(m, self.tol))
        w = self.eig.eigenvalues
        tr = float(np.sum(w))
        if abs(tr - 1.0) > threshold(1.0, self.tol):
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        if not invertible(w[0], w[-1]):
            raise SingularInputError(
                f"density matrix is numerically singular: min eigenvalue {w[0]:.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
