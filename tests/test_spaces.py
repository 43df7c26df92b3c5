"""Weighted norm and inner product oracles, the sandwich isometry, and the
integrability criterion."""

import math

import numpy as np
import pytest

from nclp.linalg import psd_leq
from nclp.sampling import ginibre, random_density, random_unitary, rng_from
from nclp.spaces import (
    P_GRID,
    QuantumMeasure,
    check_p,
    conjugate_exponent,
    integrability_constant,
    maximally_mixed,
    norm_scale_report,
    schatten_norm,
    tau_conjugate,
    weighted_inner,
    weighted_norm,
)
from nclp.superop import NotPositiveError, SuperOperator


def test_check_p_rejects_small_exponents():
    with pytest.raises(ValueError, match="p must be >= 1"):
        check_p(0.5)


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    p, q = 1.5, conjugate_exponent(1.5)
    assert abs(1 / p + 1 / q - 1.0) < 1e-15


def test_schatten_identity():
    for p in P_GRID:
        assert abs(schatten_norm(np.eye(4), p) - 4 ** (1 / p)) < 1e-12


def test_schatten_diagonal_fixture():
    a = np.diag([3.0, 4.0])
    assert abs(schatten_norm(a, 1.0) - 7.0) < 1e-12
    assert abs(schatten_norm(a, 2.0) - 5.0) < 1e-12


def test_schatten_unitary_sup_norm():
    u = random_unitary(5, rng_from(0))
    assert abs(schatten_norm(u, math.inf) - 1.0) < 1e-12


def test_stack_norms_equal_the_per_matrix_norms():
    rng = rng_from(8)
    for n in (1, 2, 4):
        m = QuantumMeasure(random_density(n, rng))
        stack = np.stack([ginibre(n, rng), np.zeros((n, n)), 1e-200 * ginibre(n, rng), 1e200 * ginibre(n, rng)])
        for p in P_GRID + (math.inf,):
            for norm in (lambda a: schatten_norm(a, p), lambda a: weighted_norm(a, m, p)):
                norms = norm(stack)
                assert norms.shape == (4,)
                singles = [norm(a) for a in stack]
                assert all(isinstance(value, float) for value in singles)
                assert np.array_equal(norms, singles)
                assert norms[1] == 0.0 and norms[2] > 0.0 and np.isfinite(norms[3])
    with pytest.raises(ValueError):
        schatten_norm(np.ones((2, 2, 3)), 2.0)


def test_weighted_norm_of_identity_is_one():
    rng = rng_from(1)
    for n in (2, 3, 5):
        m = QuantumMeasure(random_density(n, rng))
        for p in P_GRID:
            assert abs(weighted_norm(np.eye(n), m, p) - 1.0) < 1e-12


def test_weighted_norm_maximally_mixed_sign_matrix():
    m = maximally_mixed(2)
    assert abs(weighted_norm(np.diag([1.0, -1.0]), m, 2.0) - 1.0) < 1e-12


def test_weighted_norm_diagonal_fixture():
    m = QuantumMeasure(np.diag([2 / 3, 1 / 3]).astype(complex))
    assert abs(weighted_norm(np.diag([1.0, 0.0]), m, 1.0) - 2 / 3) < 1e-12


def test_weighted_norm_inf_is_operator_norm():
    m = QuantumMeasure(np.diag([0.9, 0.1]).astype(complex))
    a = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert abs(weighted_norm(a, m, math.inf) - 3.0) < 1e-12


def test_weighted_inner_unit():
    rng = rng_from(2)
    m = QuantumMeasure(random_density(3, rng))
    assert abs(weighted_inner(np.eye(3), np.eye(3), m) - 1.0) < 1e-12


def test_weighted_inner_nilpotent_fixture():
    m = maximally_mixed(2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(weighted_inner(a, a, m) - 0.5) < 1e-12


def test_weighted_inner_hermitian_symmetry():
    rng = rng_from(3)
    m = QuantumMeasure(random_density(3, rng))
    for _ in range(20):
        a, b = ginibre(3, rng), ginibre(3, rng)
        assert abs(weighted_inner(a, b, m) - np.conj(weighted_inner(b, a, m))) < 1e-10


def test_weighted_inner_matches_two_norm():
    rng = rng_from(4)
    m = QuantumMeasure(random_density(4, rng))
    for _ in range(20):
        a = ginibre(4, rng)
        quad = weighted_inner(a, a, m)
        assert abs(quad.imag) < 1e-10
        assert quad.real >= 0
        norm2 = weighted_norm(a, m, 2.0) ** 2
        assert abs(quad.real - norm2) <= 1e-9 * norm2


def test_tau_scalar_state():
    m = maximally_mixed(3)
    x = ginibre(3, rng_from(5))
    for p in (1.0, 2.0, 3.0):
        expected = 3 ** (-1 / p) * x
        assert np.allclose(tau_conjugate(x, m, p), expected, atol=1e-12)


def test_tau_round_trip_and_isometry():
    rng = rng_from(6)
    for trial in range(30):
        n = 2 + trial % 3
        m = QuantumMeasure(random_density(n, rng))
        x = ginibre(n, rng)
        p = (1.0, 2.0, 3.0)[trial % 3]
        forward = tau_conjugate(x, m, p, "forward")
        back = tau_conjugate(forward, m, p, "inverse")
        assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)
        wn = weighted_norm(x, m, p)
        assert abs(schatten_norm(forward, p) - wn) <= 1e-9 * wn


def test_tau_direction_validation():
    m = maximally_mixed(2)
    with pytest.raises(ValueError, match="direction"):
        tau_conjugate(np.eye(2), m, 2.0, "sideways")


def test_integrability_identity():
    m = QuantumMeasure(random_density(3, rng_from(7)))
    assert abs(integrability_constant(SuperOperator.identity(3), m) - 1.0) < 1e-12


def test_integrability_unitary_at_uniform_state():
    u = random_unitary(3, rng_from(8))
    c = integrability_constant(SuperOperator.ad_unitary(u), maximally_mixed(3))
    assert abs(c - 1.0) < 1e-12


def test_integrability_bit_flip_fixture():
    # predual sends diag(2/3, 1/3) to diag(1/3, 2/3); the top generalized
    # eigenvalue against the state is 2
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m = QuantumMeasure(np.diag([2 / 3, 1 / 3]).astype(complex))
    c = integrability_constant(SuperOperator.ad_unitary(x), m)
    assert abs(c - 2.0) < 1e-10


def test_integrability_is_least_constant():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m = QuantumMeasure(np.diag([2 / 3, 1 / 3]).astype(complex))
    t = SuperOperator.ad_unitary(x)
    c = integrability_constant(t, m)
    pushed = t.predual().apply(m.rho)
    assert psd_leq(pushed, (c + 1e-8) * m.rho)
    assert not psd_leq(pushed, (c - 1e-6) * m.rho)


def test_integrability_rejects_non_positive_maps():
    m = maximally_mixed(2)
    flip_sign = SuperOperator.identity(2).scaled(-1.0)
    with pytest.raises(NotPositiveError):
        integrability_constant(flip_sign, m)


def test_schatten_hoelder():
    rng = rng_from(9)
    pairs = ((1.0, math.inf), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0))
    for trial in range(200):
        n = 2 + trial % 5
        a, b = ginibre(n, rng), ginibre(n, rng)
        for p, q in pairs:
            lhs = abs(np.trace(a.conj().T @ b))
            rhs = schatten_norm(a, p) * schatten_norm(b, q)
            assert lhs <= rhs * (1 + 1e-9)


def test_cached_powers_reconstruct_state():
    m = QuantumMeasure(random_density(4, rng_from(10)))
    for p in (1.0, 2.0, 3.0):
        r = 1.0 / (2.0 * p)
        assert np.allclose(m.power(r) @ m.power(-r), np.eye(4), atol=1e-10)
        assert np.allclose(m.power(r) @ m.power(1.0 - r), m.rho, atol=1e-10)
    assert np.allclose(m.power(0.5) @ m.power(0.5), m.rho, atol=1e-10)


def test_norm_scale_report_is_deterministic():
    m = maximally_mixed(3)
    report = norm_scale_report(m, trials=3, seed=0)
    again = norm_scale_report(m, trials=3, seed=0)
    assert report == again
    assert report.rows[0].dim == 3


def test_norm_scale_direction_matches_committed_fixture():
    rng = rng_from(11)
    m = QuantumMeasure(random_density(3, rng))
    report = norm_scale_report(m, trials=40, seed=12)
    assert report.consistent
    assert report.direction == "nondecreasing_in_p"
