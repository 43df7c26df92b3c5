"""Matrix primitive oracles: hand-computed fixtures plus reconstruction laws."""

import re

import numpy as np
import pytest

from nclp.linalg import (
    INVERTIBILITY_RATIO,
    NonHermitianError,
    SingularInputError,
    dagger,
    hermitian_eig,
    hermitian_part,
    hermiticity_defect,
    invertible,
    polar_decompose,
)
from nclp.sampling import ginibre, random_unitary, rng_from
from nclp.spaces import QuantumMeasure


def test_hermitian_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_hermitian_eig_sorts_ascending():
    w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_hermitian_eig_reconstruction(n):
    rng = rng_from(10 + n)
    for _ in range(20):
        m = hermitian_part(ginibre(n, rng))
        w, v = hermitian_eig(m)
        assert np.linalg.norm((v * w) @ dagger(v) - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reports_defect():
    # the defect is hermiticity_defect's, the rule hermitian_eig accepts by;
    # the accepted matrix is decomposed as its Hermitian part
    m = np.eye(2) + 1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]])
    w, v = hermitian_eig(m)
    assert 0 < hermiticity_defect(m) < 1e-10
    assert np.array_equal(w, np.linalg.eigh(hermitian_part(m))[0])
    assert np.linalg.norm((v * w) @ dagger(v) - hermitian_part(m)) <= 1e-14


def power(p: np.ndarray, r: float) -> np.ndarray:
    """P^r of a positive semidefinite P through eigh: the oracle for
    |X| = (X*X)^(1/2), against which the polar factor is checked."""
    w, v = np.linalg.eigh(p)
    return (v * np.power(np.clip(w, 0.0, None), r)) @ dagger(v)


def test_matrix_abs_strips_signs():
    x = np.diag([-1.0, 2.0])
    assert np.allclose(power(dagger(x) @ x, 0.5), np.diag([1.0, 2.0]))


def test_matrix_abs_of_unitary_is_identity():
    u = random_unitary(4, rng_from(3))
    assert np.allclose(power(dagger(u) @ u, 0.5), np.eye(4), atol=1e-12)


def test_matrix_abs_nilpotent():
    x = np.array([[0.0, 3.0], [0.0, 0.0]])
    # X*X = diag(0, 9), so |X| = diag(0, 3)
    assert np.allclose(power(dagger(x) @ x, 0.5), np.diag([0.0, 3.0]), atol=1e-12)


def test_matrix_abs_idempotent_on_positives():
    rng = rng_from(4)
    g = ginibre(5, rng)
    p = g @ g.conj().T
    assert np.allclose(power(dagger(p) @ p, 0.5), p, atol=1e-9 * np.linalg.norm(p))


def test_matrix_abs_squares_to_gram():
    rng = rng_from(5)
    x = ginibre(4, rng)
    a = power(dagger(x) @ x, 0.5)
    assert np.allclose(a @ a, x.conj().T @ x, atol=1e-9 * np.linalg.norm(x) ** 2)


# the powers of a state, read from the decomposition that validated it


def test_frac_power_identity():
    measure = QuantumMeasure(np.eye(3) / 3)
    for r in (-1.0, -0.5, 0.0, 0.25, 2.0):
        assert np.allclose(measure.power(r), 3.0**-r * np.eye(3))


def test_frac_power_scalar_cases():
    assert np.allclose(QuantumMeasure(np.diag([4.0, 9.0]) / 13).power(0.5), np.diag([2.0, 3.0]) / 13**0.5)
    assert np.allclose(QuantumMeasure(np.diag([0.5, 0.5])).power(-1.0), np.diag([2.0, 2.0]))


def test_frac_power_semigroup_law():
    rng = rng_from(6)
    g = ginibre(4, rng)
    p = g @ g.conj().T + 0.5 * np.eye(4)
    measure = QuantumMeasure(p / np.trace(p).real)
    grid = (-1.0, -0.5, 0.25, 0.5, 1.0)
    for r in grid:
        for s in grid:
            lhs = measure.power(r) @ measure.power(s)
            rhs = measure.power(r + s)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_polar_of_unitary():
    u = random_unitary(3, rng_from(7))
    w, p = polar_decompose(u)
    assert np.allclose(w, u, atol=1e-12)
    assert np.allclose(p, np.eye(3), atol=1e-12)


def test_polar_of_positive_diagonal():
    w, p = polar_decompose(np.diag([2.0, 3.0]))
    assert np.allclose(w, np.eye(2), atol=1e-12)
    assert np.allclose(p, np.diag([2.0, 3.0]))


def test_polar_scaling_oracle():
    u = random_unitary(4, rng_from(8))
    w, p = polar_decompose(2.0 * u)
    assert np.linalg.norm(p - 2.0 * np.eye(4)) <= 1e-10


def test_polar_consistency_with_abs():
    rng = rng_from(9)
    a = ginibre(4, rng) + 2 * np.eye(4)
    w, p = polar_decompose(a)
    assert np.linalg.norm(w @ p - a) <= 1e-10 * np.linalg.norm(a)
    assert np.allclose(p, power(dagger(a) @ a, 0.5), atol=1e-9 * np.linalg.norm(a))
    assert np.allclose(w.conj().T @ w, np.eye(4), atol=1e-12)


def test_polar_rejects_singular():
    with pytest.raises(SingularInputError):
        polar_decompose(np.diag([1.0, 0.0]))


#: The smallest value that a largest value of 1 leaves singular, and the
#: next float above it.
AT_RATIO = INVERTIBILITY_RATIO * 1.0
ABOVE_RATIO = float(np.nextafter(AT_RATIO, 1.0))


def test_invertible_boundary():
    assert not invertible(AT_RATIO, 1.0)
    assert invertible(ABOVE_RATIO, 1.0)
    assert not invertible(0.0, 0.0) and not invertible(1.0, 0.0) and not invertible(-1.0, -1.0)


def test_invertibility_boundary_in_every_consumer():
    for low, ok in ((AT_RATIO, False), (ABOVE_RATIO, True)):
        m = np.diag([1.0, low])
        # a diagonal input reaches the rule with its entries unrounded
        assert np.array_equal(np.linalg.svd(m, compute_uv=False), [1.0, low])
        assert np.array_equal(hermitian_eig(m)[0], [low, 1.0])
        if ok:
            polar_decompose(m)
        else:
            with pytest.raises(SingularInputError):
                polar_decompose(m)
    # a unit-trace diagonal state whose ratio is exactly the threshold, then
    # the next float above
    top = 1.0 / (1.0 + INVERTIBILITY_RATIO)
    at = INVERTIBILITY_RATIO * top
    for low, ok in ((at, False), (float(np.nextafter(at, 1.0)), True)):
        rho = np.diag([top, low])
        assert np.array_equal(hermitian_eig(rho)[0], [low, top])
        if ok:
            QuantumMeasure(rho)
        else:
            with pytest.raises(SingularInputError):
                QuantumMeasure(rho)


def test_density_matrix_validation():
    # in order: Hermitian, unit trace, positive definite, invertible
    QuantumMeasure(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(NonHermitianError):
        QuantumMeasure(np.array([[0.5, 0.1], [0.0, 0.5]]))
    for w in ([1.0, 1.0], [1.0, -1.0]):
        with pytest.raises(ValueError, match="unit trace"):
            QuantumMeasure(np.diag(w).astype(complex))
    for w in ([1.5, -0.5], [1.0, 0.0], [1.0, -1e-300]):
        message = f"density matrix is not positive definite: min eigenvalue {min(w):.3e}"
        with pytest.raises(ValueError, match=re.escape(message)):
            QuantumMeasure(np.diag(w).astype(complex))
    # positive, but below the invertibility ratio
    with pytest.raises(SingularInputError, match="density matrix is numerically singular: min eigenvalue 1.000e-13"):
        QuantumMeasure(np.diag([1.0, 1e-13]).astype(complex))
