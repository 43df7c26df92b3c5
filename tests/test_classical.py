"""Finite point dynamics: composition operators, density evolution, and the
structure tests for operators induced by point maps."""

import numpy as np
import pytest

from nclp.classical import (
    SUPPORT_RTOL,
    FiniteMeasureSpace,
    PointMap,
    XorConvolution,
    doubly_stochastic_check,
    frobenius_perron_of,
    koopman_of,
    lp_norm,
    multiplicativity_check,
    weighted_permutation_decompose,
)
from nclp.jsonio import SchemaError
from nclp.linalg import ABS_FLOOR
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


def _weighted_permutation_loop(v, space):
    """Row-by-row support extraction: None, or the weights and images."""
    v = np.asarray(v, dtype=complex)
    n = space.n
    weights = np.zeros(n, dtype=complex)
    images = np.zeros(n, dtype=int)
    for i in range(n):
        row = np.abs(v[i])
        cutoff = SUPPORT_RTOL * float(np.max(row)) if np.max(row) > 0 else ABS_FLOOR
        support = np.nonzero(row > cutoff)[0]
        if support.size != 1:
            return None
        images[i] = int(support[0])
        weights[i] = v[i, support[0]]
    return weights, images


def test_weighted_permutation_matches_the_row_loop():
    rng = rng_from(10)
    cases = []
    for n in (1, 2, 5, 12):
        perm = rng.permutation(n)
        phases = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = np.diag(phases) @ koopman_of(PointMap(perm))
        cases.append(v)
        # below the relative cutoff, off-support entries are not support
        cases.append(v + 1e-12 * np.abs(phases)[:, None] * rng.random((n, n)))
        zero_row = v.copy()
        zero_row[n // 2] = 0.0
        cases.append(zero_row)
        floor_row = zero_row.copy()
        floor_row[n // 2, 0] = 2.0 * ABS_FLOOR
        cases.append(floor_row)
        if n > 1:
            two = v.copy()
            two[n - 1, perm[0]] = 0.5
            two[n - 1, perm[n - 1]] = 1.0
            cases.append(two)
        cases.append(rng.standard_normal((n, n)))
    verdicts = set()
    for v in cases:
        space = FiniteMeasureSpace(rng.random(v.shape[0]) + 0.1)
        dec = weighted_permutation_decompose(v, space, 3.0)
        reference = _weighted_permutation_loop(v, space)
        assert dec.ok == (reference is not None)
        if reference is not None:
            assert np.array_equal(dec.weights, reference[0])
            assert np.array_equal(dec.point_map.images, reference[1])
        verdicts.add(dec.ok)
    assert verdicts == {True, False}


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


def test_exponents_are_read_by_the_rule_of_check_p():
    space = uniform(2)
    f = np.array([1.0, -2.0])
    v = koopman_of(PointMap(np.array([1, 0])))
    # true read as p = 1, "3" as 3 and nan gave a nan norm
    for bad in (True, False, "3", np.nan, 0.5, None):
        with pytest.raises(ValueError):
            lp_norm(f, space, bad)
        with pytest.raises(ValueError):
            weighted_permutation_decompose(v, space, bad)
    assert lp_norm(f, space, np.inf) == 2.0
    with pytest.raises(ValueError, match="finite exponent"):
        weighted_permutation_decompose(v, space, np.inf)
    assert lp_norm(f, space, np.int64(3)) == lp_norm(f, space, 3.0)
    assert weighted_permutation_decompose(v, space, 3).ok


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
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 3), dtype=complex), np.ones((0, 0))):
        with pytest.raises(ValueError):
            multiplicativity_check(bad)


def _multiplicativity_defects(k):
    """The product and unitality defects with a fresh array per step."""
    n = k.shape[0]
    product_defect = float(np.max(np.abs(k - k * k)))
    if n > 1:
        top_two = np.partition(np.abs(k), n - 2, axis=1)[:, n - 2 :]
        product_defect = max(product_defect, float(np.max(top_two[:, 0] * top_two[:, 1])))
    return product_defect, float(np.max(np.abs(k.sum(axis=1) - 1.0)))


def test_multiplicativity_work_buffer_leaves_input_and_defects_alone():
    rng = rng_from(8)
    koopman = koopman_of(PointMap(np.array([2, 0, 2, 1])))
    tied = rng.random((300, 300))
    tied[:, 7] = tied[:, 250] = 1.5  # every row's maximum occurs twice
    cases = [
        koopman,
        np.array([[0.5]]),
        np.array([[2.0 - 1j]]),
        rng.standard_normal((33, 33)),
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        koopman.astype(complex),
        tied,
        tied.astype(complex),
    ]
    # sizes that an earlier version, which streamed K in row blocks of 2^16
    # entries, split into several blocks, none of them dividing the block size
    for n in (257, 300, 1024):
        cases.append(rng.standard_normal((n, n)) / np.sqrt(n))
        cases.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cases.append(koopman_of(PointMap(rng.permutation(n))))
        cases.append(koopman_of(PointMap(rng.integers(0, n, size=n))).astype(complex))
    for k in cases:
        before = k.copy()
        check = multiplicativity_check(k)
        assert np.array_equal(k, before)
        assert (check.product_defect, check.unitality_defect) == _multiplicativity_defects(k)
        assert check.defect == check.product_defect + check.unitality_defect
    # an XOR kernel is read alone and left alone; its product defect is the
    # gathered grid's, bit for bit
    for k in _xor_kernels(rng):
        before = k.copy()
        check = multiplicativity_check(XorConvolution(k))
        assert np.array_equal(k, before)
        assert check.product_defect == _multiplicativity_defects(_xor_gather(k))[0]
        assert check.defect == check.product_defect + check.unitality_defect


def _xor_gather(k):
    """The dense operator K[x, y] = k[x ^ y]."""
    i = np.arange(k.size)
    return k[i[:, None] ^ i]


def _xor_kernels(rng):
    """Random real and complex kernels at d = 1, 2, ..., 1024 and, from d = 2,
    real and complex kernels whose largest modulus occurs twice."""
    kernels = []
    for m in range(11):
        d = 1 << m
        kernels.append(rng.standard_normal(d) / d)
        kernels.append((rng.standard_normal(d) + 1j * rng.standard_normal(d)) / d)
        if d >= 2:
            tied = rng.random(d) / 2
            tied[rng.choice(d, 2, replace=False)] = 0.75
            kernels += [tied, tied * np.exp(1j * rng.random(d))]
    return kernels


def test_xor_kernel_check_matches_the_gathered_grid():
    rng = rng_from(10)
    eps = np.finfo(float).eps
    for k in _xor_kernels(rng):
        check, dense = multiplicativity_check(XorConvolution(k)), multiplicativity_check(_xor_gather(k))
        assert check.product_defect == dense.product_defect
        assert abs(check.unitality_defect - dense.unitality_defect) <= k.size * eps * np.sum(np.abs(k))
    # dyadic kernels sum exactly in any order, so the two checks agree outright
    for m in range(11):
        d = 1 << m
        for k in (rng.integers(-4, 5, d) / 8.0, rng.integers(0, 3, d) / 4.0 + 0.5j * rng.integers(-1, 2, d)):
            check, dense = multiplicativity_check(XorConvolution(k)), multiplicativity_check(_xor_gather(k))
            assert (check.multiplicative, check.product_defect, check.defect) == (
                dense.multiplicative,
                dense.product_defect,
                dense.defect,
            )
        # a point mass at a is the translation x -> x ^ a, a composition operator
        for a in {0, d // 3, d - 1}:
            delta = np.zeros(d)
            delta[a] = 1.0
            for k in (delta, delta.astype(complex)):
                check = multiplicativity_check(XorConvolution(k))
                assert check.multiplicative and check.defect == 0.0
                assert multiplicativity_check(_xor_gather(k)) == check
    for bad in (np.ones(3), np.ones(0), np.ones((2, 2)), np.ones(6)):
        with pytest.raises(ValueError):
            XorConvolution(bad)


def test_koopman_isometry_iff_measure_preserving():
    rng = rng_from(6)
    hits = {True: 0, False: 0}
    for trial in range(60):
        n = int(rng.integers(2, 13))
        s = PointMap(rng.integers(0, n, size=n))
        space = FiniteMeasureSpace(rng.random(n) + 0.1)
        v = koopman_of(s)
        pushed = np.bincount(s.images, weights=space.weights, minlength=n)
        preserving = bool(np.max(np.abs(pushed - space.weights)) <= 1e-9 * np.max(space.weights))
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


def test_measure_space_masses_are_real_numbers():
    space = FiniteMeasureSpace([1, np.int64(2), 0.5])
    assert space.weights.dtype == float and np.array_equal(space.weights, [1.0, 2.0, 0.5])
    # bools, strings, None and complex values are refused, never cast
    for bad in (["1", True], [1.0, True], [0.5, "0.5"], [0.5, None], [0.5, 0.5j], np.ones(2, dtype=bool)):
        with pytest.raises(SchemaError):
            FiniteMeasureSpace(bad)
    for shape in (np.ones((2, 2)), np.float64(1.0), []):
        with pytest.raises(ValueError):
            FiniteMeasureSpace(shape)


def test_point_map_images_are_integers():
    s = PointMap([1, np.int64(0), 2.0])
    assert s.images.dtype == int and np.array_equal(s.images, [1, 0, 2])
    # fractions, bools, strings and None are refused, never cast
    for bad in ([0.5, 1.9], [True, False], [1, True], [0, "1"], [0, None], np.ones(2, dtype=bool)):
        with pytest.raises(SchemaError):
            PointMap(bad)
    for shape in (np.zeros((2, 2), dtype=int), np.int64(0), []):
        with pytest.raises(ValueError):
            PointMap(shape)


def test_measure_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        PointMap(np.array([0, 3]))
    FiniteMeasureSpace(np.array([0.25, 0.75]))
