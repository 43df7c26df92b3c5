"""Finite point dynamics: composition operators, density evolution, and the
structure tests for operators induced by point maps."""

import numpy as np
import pytest

from nclp.classical import (
    FiniteMeasureSpace,
    PointMap,
    doubly_stochastic_check,
    frobenius_perron_of,
    koopman_of,
    lp_norm,
    multiplicativity_check,
    weighted_permutation_decompose,
)
from nclp.sampling import rng_from


def uniform(n):
    return FiniteMeasureSpace(np.full(n, 1.0 / n))


def test_koopman_identity():
    assert np.array_equal(koopman_of(PointMap(np.arange(3))), np.eye(3))


def test_koopman_cyclic_shift():
    v = koopman_of(PointMap(np.array([1, 2, 0])))
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 2] = expected[2, 0] = 1.0
    assert np.array_equal(v, expected)


def test_koopman_constant_map_first_column_ones():
    v = koopman_of(PointMap(np.zeros(3, dtype=int)))
    assert np.array_equal(v[:, 0], np.ones(3))
    assert np.all(v[:, 1:] == 0)


def test_frobenius_perron_identity():
    space = FiniteMeasureSpace(np.array([0.2, 0.3, 0.5]))
    assert np.allclose(frobenius_perron_of(PointMap(np.arange(3)), space), np.eye(3))


def test_frobenius_perron_of_bijection_is_transpose():
    # measure-preserving bijection: masses constant along the cycle
    s = PointMap(np.array([1, 2, 0]))
    space = uniform(3)
    u = frobenius_perron_of(s, space)
    v = koopman_of(s)
    assert np.allclose(u, v.T)
    assert np.allclose(u @ v, np.eye(3))


def test_frobenius_perron_uniform_cyclic_is_inverse_permutation():
    s = PointMap(np.array([1, 2, 0]))
    u = frobenius_perron_of(s, uniform(3))
    # densities move the opposite way from observables
    e0 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(u @ e0, np.array([0.0, 1.0, 0.0]))


def test_adjoint_duality_exact():
    rng = rng_from(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        s = PointMap(rng.integers(0, n, size=n))
        space = FiniteMeasureSpace(rng.random(n) + 0.1)
        v = koopman_of(s)
        u = frobenius_perron_of(s, space)
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        lhs = np.sum(space.weights * (v @ f) * g)
        rhs = np.sum(space.weights * f * (u @ g))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_doubly_stochastic_permutation():
    check = doubly_stochastic_check(koopman_of(PointMap(np.array([2, 0, 1]))), uniform(3))
    assert check.ok
    assert check.positivity_defect == check.mass_defect == check.unitality_defect == 0.0


def test_doubly_stochastic_negative_entry():
    w = np.eye(2)
    w[0, 1] = -0.1
    check = doubly_stochastic_check(w, uniform(2))
    assert not check.ok
    assert abs(check.positivity_defect - 0.1) < 1e-12


def test_doubly_stochastic_mass_defect_fixture():
    # row-stochastic but mass moves: both points map onto the first one
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    check = doubly_stochastic_check(w, uniform(2))
    assert check.unitality_defect == 0.0
    assert abs(check.mass_defect - 0.5) < 1e-12
    assert not check.ok


def test_frobenius_perron_of_measure_preserving_is_doubly_stochastic():
    rng = rng_from(1)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        perm = rng.permutation(n)
        space = uniform(n)
        u = frobenius_perron_of(PointMap(perm), space)
        check = doubly_stochastic_check(u, space)
        assert check.ok
        assert max(check.positivity_defect, check.mass_defect, check.unitality_defect) == 0.0


def test_weighted_permutation_round_trip():
    rng = rng_from(2)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        perm = rng.permutation(n)
        space = uniform(n)
        dec = weighted_permutation_decompose(koopman_of(PointMap(perm)), space, 3.0)
        assert dec.ok
        assert np.array_equal(dec.point_map.images, perm)
        assert np.allclose(dec.weights, 1.0)
        assert dec.compatibility_defect <= 1e-12


def test_weighted_permutation_unimodular_weights():
    rng = rng_from(3)
    n = 4
    perm = rng.permutation(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    v = np.diag(phases) @ koopman_of(PointMap(perm))
    dec = weighted_permutation_decompose(v, uniform(n), 2.5)
    assert dec.ok
    assert np.allclose(np.abs(dec.weights), 1.0)
    assert np.array_equal(dec.point_map.images, perm)
    assert dec.compatibility_defect <= 1e-12


def test_weighted_permutation_rejects_rotation():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    dec = weighted_permutation_decompose(hadamard, uniform(2), 2.0)
    assert not dec.ok
    # it is nevertheless a genuine l^2 isometry for the uniform masses,
    # which is exactly why the exponent 2 is excluded from the structure law
    rng = rng_from(4)
    f = rng.standard_normal(2)
    space = uniform(2)
    assert abs(lp_norm(hadamard @ f, space, 2.0) - lp_norm(f, space, 2.0)) < 1e-12


def test_multiplicativity_of_koopman_operators():
    rng = rng_from(5)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        s = PointMap(rng.integers(0, n, size=n))
        check = multiplicativity_check(koopman_of(s))
        assert check.multiplicative
        assert check.defect == 0.0


def test_multiplicativity_rejects_averaging():
    shift = koopman_of(PointMap(np.array([1, 2, 0])))
    k = 0.5 * (np.eye(3) + shift)
    check = multiplicativity_check(k)
    assert not check.multiplicative
    assert check.defect >= 0.25


def test_multiplicativity_rejects_non_unital():
    check = multiplicativity_check(np.diag([2.0, 1.0, 1.0]))
    assert not check.multiplicative
    assert check.unitality_defect >= 1.0


def test_multiplicativity_real_input_matches_its_complex_cast():
    rng = rng_from(7)
    koopman = koopman_of(PointMap(np.array([1, 2, 0, 0])))
    cases = (
        koopman,
        koopman + 1e-13 * rng.standard_normal((4, 4)),
        0.5 * (np.eye(4) + koopman),
        np.diag([2.0, 1.0, 1.0]),
        rng.standard_normal((64, 64)) / 8.0,
    )
    for k in cases:
        real = multiplicativity_check(k)
        cast = multiplicativity_check(k.astype(complex))
        assert real.multiplicative == cast.multiplicative
        assert abs(real.defect - cast.defect) <= 1e-14
    # complex input stays complex: diag(1, i) misses on both counts by |i - 1|
    check = multiplicativity_check(np.diag([1.0, 1j]))
    assert abs(check.product_defect - np.sqrt(2.0)) <= 1e-15
    assert abs(check.unitality_defect - np.sqrt(2.0)) <= 1e-15
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 3), dtype=complex)):
        with pytest.raises(ValueError):
            multiplicativity_check(bad)


def _multiplicativity_defects(k):
    """The product and unitality defects with a fresh array per step."""
    n = k.shape[0]
    product_defect = float(np.max(np.abs(k - k * k)))
    if n > 1:
        top_two = np.partition(np.abs(k), n - 2, axis=1)[:, n - 2 :]
        product_defect = max(product_defect, float(np.max(top_two[:, 0] * top_two[:, 1])))
    return product_defect, float(np.max(np.abs(k @ np.ones(n) - 1.0)))


def test_multiplicativity_work_buffer_leaves_input_and_defects_alone():
    rng = rng_from(8)
    koopman = koopman_of(PointMap(np.array([2, 0, 2, 1])))
    cases = (
        koopman,
        np.array([[0.5]]),
        rng.standard_normal((33, 33)),
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        koopman.astype(complex),
    )
    for k in cases:
        before = k.copy()
        check = multiplicativity_check(k)
        assert np.array_equal(k, before)
        assert (check.product_defect, check.unitality_defect) == _multiplicativity_defects(k)
        assert check.defect == check.product_defect + check.unitality_defect


def test_koopman_isometry_iff_measure_preserving():
    rng = rng_from(6)
    hits = {True: 0, False: 0}
    for trial in range(60):
        n = int(rng.integers(2, 13))
        s = PointMap(rng.integers(0, n, size=n))
        space = FiniteMeasureSpace(rng.random(n) + 0.1)
        v = koopman_of(s)
        preserving = s.is_measure_preserving(space)
        hits[preserving] += 1
        isometric = True
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            for _ in range(5):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                nf = lp_norm(f, space, p)
                if abs(lp_norm(v @ f, space, p) - nf) > 1e-9 * nf:
                    isometric = False
        assert isometric == preserving
    assert hits[True] > 0 and hits[False] > 0


def test_multiplicative_isometry_decomposes_with_unit_weights():
    rng = rng_from(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        perm = rng.permutation(n)
        space = uniform(n)
        v = koopman_of(PointMap(perm))
        assert multiplicativity_check(v).multiplicative
        dec = weighted_permutation_decompose(v, space, 3.0)
        assert dec.ok
        assert np.allclose(dec.weights, 1.0)


def test_measure_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        PointMap(np.array([0, 3]))
    space = FiniteMeasureSpace(np.array([0.25, 0.75]))
    assert space.is_normalized()
    assert not FiniteMeasureSpace(np.array([1.0, 2.0])).is_normalized()
