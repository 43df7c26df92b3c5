"""Weighted norm and inner product oracles, the sandwich isometry, and the
integrability criterion."""

import math

import numpy as np
import pytest

from nclp.linalg import DEFAULT_TOL, DimensionMismatchError, dagger, hermitian_eig, hermitian_part, threshold
from nclp.sampling import ginibre, random_density, random_unitary, rng_from
from nclp.spaces import (
    P_GRID,
    NormScaleRow,
    QuantumMeasure,
    check_p,
    maximally_mixed,
    norm_scale_report,
    schatten_norm,
    tau_conjugate,
    weighted_inner,
    weighted_norm,
)
from nclp.superop import NotPositiveError, SuperOperator, integrability_constant


def test_check_p_rejects_small_exponents():
    with pytest.raises(ValueError, match="p must be >= 1"):
        check_p(0.5)


def test_check_p_takes_real_numbers_only():
    for bad in (True, False, "3", "inf", None, 2j):
        with pytest.raises(ValueError):
            check_p(bad)
    for p in (1, 2.5, np.float64(3.0), np.int64(4), math.inf):
        assert check_p(p) == float(p)


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


def fresh_power(matrix, r: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """matrix^r read from a fresh decomposition, as a measure reads its powers."""
    w, v = hermitian_eig(matrix, tol)
    return hermitian_part((v * np.power(w, r)) @ dagger(v))


def test_measure_powers_come_from_one_decomposition(monkeypatch):
    # rho is decomposed once, by the measure that validates it; a measure
    # built on that measure shares it, and each power equals a fresh
    # decomposition's
    exponents = (-1.0, -0.5, -1 / 3, -0.25, -1 / 6, 0.0, 1 / 6, 0.25, 1 / 3, 0.5, 1.0)
    calls = []

    def counted(name):
        kernel = getattr(np.linalg, name)

        def call(m):
            calls.append((name, m.shape))
            return kernel(m)

        monkeypatch.setattr(np.linalg, name, call)

    counted("eigh")
    counted("eigvalsh")
    rng = rng_from(11)
    for n in range(1, 9):
        calls.clear()
        rho = random_density(n, rng)
        measure = QuantumMeasure(rho)
        powers = [measure.power(r) for r in exponents]
        assert calls == [("eigh", (n, n))]
        for r, power in zip(exponents, powers):
            assert np.array_equal(power, fresh_power(rho.matrix, r, measure.tol))


def test_a_state_keeps_its_own_matrix():
    # a complex rho was kept as passed: after the caller swapped its
    # diagonal in place, rho read diag(.25, .75) and power(1) diag(.75, .25)
    rho = np.diag([0.75, 0.25]).astype(complex)
    measure = QuantumMeasure(rho)
    rho[[0, 1], [0, 1]] = rho[[1, 0], [1, 0]]
    assert np.array_equal(measure.rho, np.diag([0.75, 0.25]))
    assert np.allclose(measure.power(1.0), measure.rho, atol=1e-15)
    # everything a measure holds is shared, so it is read-only
    held = (measure.matrix, measure.rho, measure.eigenvalues, measure.eigenbasis, measure.power(1.0), measure.power(-0.5))
    for shared in held:
        with pytest.raises(ValueError, match="read-only"):
            shared[..., 0] = 1.0
    assert measure.power(-0.5) is measure.power(-0.5)


def test_a_measure_has_the_one_tolerance_of_its_density():
    rho = random_density(3, rng_from(12)).matrix
    for t in (1e-3, DEFAULT_TOL, 1e-14):
        measure = QuantumMeasure(rho, tol=t)
        assert measure.tol == t
        for r in (-0.5, 0.25, 1 / 3):
            assert np.array_equal(measure.power(r), fresh_power(rho, r, t))
    assert QuantumMeasure(rho).tol == DEFAULT_TOL
    # the tolerance also decided the validation: a trace 1e-6 off passes at
    # 1e-3 and fails at the default
    loose = QuantumMeasure(rho * (1 + 1e-6), tol=1e-3)
    with pytest.raises(ValueError, match="unit trace"):
        QuantumMeasure(rho * (1 + 1e-6))
    # a measure given as rho is shared with its own tolerance
    assert QuantumMeasure(loose).tol == 1e-3
    assert QuantumMeasure(loose).eigenbasis is loose.eigenbasis


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
        forward = tau_conjugate(x, m, p)
        back = tau_conjugate(forward, m, p, inverse=True)
        assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)
        wn = weighted_norm(x, m, p)
        assert abs(schatten_norm(forward, p) - wn) <= 1e-9 * wn


def test_a_matrix_of_another_dimension_is_refused_by_every_weighted_reader():
    # tau_conjugate raised numpy's matmul error here, where weighted_norm
    # named both dimensions
    m = maximally_mixed(2)
    refusal = "^matrix dim 3 does not match state dim 2$"
    for p in (2.0, math.inf):
        for inverse in (False, True):
            with pytest.raises(DimensionMismatchError, match=refusal):
                tau_conjugate(np.eye(3), m, p, inverse=inverse)
        with pytest.raises(DimensionMismatchError, match=refusal):
            weighted_norm(np.eye(3), m, p)
    with pytest.raises(DimensionMismatchError, match=refusal):
        weighted_inner(np.eye(3), np.eye(3), m)
    with pytest.raises(DimensionMismatchError, match="differ"):
        weighted_inner(np.eye(2), np.eye(3), m)


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
    # T_*(rho) <= k rho iff the smallest eigenvalue of k rho - T_*(rho) is >= 0
    assert np.linalg.eigvalsh((c + 1e-8) * m.rho - pushed)[0] >= -threshold(c, DEFAULT_TOL)
    assert np.linalg.eigvalsh((c - 1e-6) * m.rho - pushed)[0] < -threshold(c, DEFAULT_TOL)


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


def _norm_scale_rows_loop(measure, trials, seed, tol=DEFAULT_TOL):
    """The exponent-grid rows, each sample normed one matrix at a time."""
    rng = rng_from(seed)
    rows = []
    for _ in range(trials):
        a = ginibre(measure.dim, rng)
        norms = {p: weighted_norm(a, measure, p) for p in P_GRID}
        for i, p in enumerate(P_GRID):
            for q in P_GRID[i + 1 :]:
                np_, nq = norms[p], norms[q]
                diff = np_ - nq
                sign = 0 if abs(diff) <= threshold(max(np_, nq), tol) else (1 if diff > 0 else -1)
                rows.append(NormScaleRow(seed, measure.dim, p, q, np_, nq, sign))
    return tuple(rows)


def test_stacked_norm_scale_rows_match_the_per_sample_loop():
    rng = rng_from(44)
    for n in (1, 2, 3, 5):
        for measure in (maximally_mixed(n), QuantumMeasure(random_density(n, rng))):
            for trials, seed in ((1, 0), (7, 3)):
                report = norm_scale_report(measure, trials=trials, seed=seed)
                assert report.rows == _norm_scale_rows_loop(measure, trials, seed)
                assert all(type(r.norm_p) is float and type(r.norm_q) is float for r in report.rows)


def test_norm_scale_direction_matches_committed_fixture():
    rng = rng_from(11)
    m = QuantumMeasure(random_density(3, rng))
    report = norm_scale_report(m, trials=40, seed=12)
    assert report.consistent
    assert report.direction == "nondecreasing_in_p"


def test_rho_is_the_matrix_its_decomposition_reads():
    # rho kept a 1e-17 imaginary part on its diagonal, which eigh drops: rho,
    # read by the predual, and eig, read by every power, were two states
    raw = np.array([[0.25 + 1e-17j, 0.1 - 0.2j], [0.1 + 0.2j, 0.75]])
    measure = QuantumMeasure(raw)
    rho = measure.rho
    assert np.array_equal(rho, rho.conj().T) and not np.diagonal(rho).imag.any()
    # the decomposition is bit for bit the one of the given matrix
    w, v = hermitian_eig(raw)
    assert np.array_equal(measure.eigenvalues, w)
    assert np.array_equal(measure.eigenbasis, v)
    v = measure.eigenbasis
    assert np.linalg.norm((v * measure.eigenvalues) @ v.conj().T - rho) <= 1e-15
    assert np.linalg.norm(measure.power(1.0) - rho) <= 1e-15
