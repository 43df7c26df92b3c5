"""Superoperator conventions, Choi classification, isometry decomposition,
and the implementability route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.linalg import INVERTIBILITY_RATIO, dagger, hermitian_part
from nclp.sampling import commuting_unitary, ginibre, random_density, random_unitary, rng_from
from nclp.spaces import P_GRID, QuantumMeasure, maximally_mixed, schatten_norm, weighted_norm
from nclp.superop import (
    KIND_ANTI,
    KIND_ISO,
    NotClassifiableError,
    NotDecomposableError,
    NotJordanError,
    SuperOperator,
    _reads_rank_one,
    canonical_jordan,
    change_of_representation_demo,
    choi,
    choi_rank,
    fix_global_phase,
    implementability_check,
    isometry_check,
    jordan_check,
    jordan_classify,
    lamperti_decompose,
    phase_distance,
    positivity_check,
    swap,
    unvec,
    vec,
    weighted_isometry_transport,
)


def test_vec_is_column_stacking():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(x), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(unvec(vec(x)), x)


def test_sandwich_matches_kron_identity():
    rng = rng_from(0)
    a, b, x = ginibre(3, rng), ginibre(3, rng), ginibre(3, rng)
    t = SuperOperator.sandwich(a, b)
    assert np.allclose(t.apply(x), a @ x @ b)
    assert np.allclose(t.matrix, np.kron(b.T, a))


def test_ad_unitary_matrix_convention():
    u = random_unitary(2, rng_from(1))
    assert np.allclose(SuperOperator.ad_unitary(u).matrix, np.kron(u.conj(), u))


def test_transpose_map_and_swap():
    x = ginibre(3, rng_from(2))
    t = SuperOperator.transpose_map(3)
    assert np.allclose(t.apply(x), x.T)
    s = SuperOperator.transpose_map(3).matrix
    assert np.allclose(s @ s, np.eye(9))


def test_adjoint_pairs_with_trace():
    rng = rng_from(3)
    t = SuperOperator(3, ginibre(9, rng))
    adj = t.adjoint()
    for _ in range(10):
        x, y = ginibre(3, rng), ginibre(3, rng)
        lhs = np.trace(t.apply(x).conj().T @ y)
        rhs = np.trace(x.conj().T @ adj.apply(y))
        assert abs(lhs - rhs) < 1e-10


def test_predual_pairs_with_states():
    rng = rng_from(4)
    t = SuperOperator(3, ginibre(9, rng))
    pre = t.predual()
    for _ in range(10):
        rho, a = ginibre(3, rng), ginibre(3, rng)
        lhs = np.trace(pre.apply(rho) @ a)
        rhs = np.trace(rho @ t.apply(a))
        assert abs(lhs - rhs) < 1e-10


def test_predual_of_conjugation_is_reverse_rotation():
    u = random_unitary(3, rng_from(5))
    pre = SuperOperator.ad_unitary(u).predual()
    rho = random_density(3, rng_from(6)).matrix
    assert np.allclose(pre.apply(rho), u.conj().T @ rho @ u)


def test_choi_of_identity_is_vectorized_identity_projector():
    t = SuperOperator.identity(2)
    c = choi(t)
    omega = vec(np.eye(2)).reshape(-1, 1)
    assert np.allclose(c, omega @ omega.conj().T)
    assert choi_rank(c) == 1


def test_choi_of_conjugation_has_rank_one():
    u = random_unitary(3, rng_from(7))
    assert choi_rank(choi(SuperOperator.ad_unitary(u))) == 1


def test_choi_of_transpose_is_swap():
    c = choi(SuperOperator.transpose_map(2))
    assert np.allclose(c, SuperOperator.transpose_map(2).matrix)
    assert choi_rank(c) == 4


def test_choi_hermitian_iff_star_preserving():
    u = random_unitary(3, rng_from(8))
    hermitian_choi = choi(SuperOperator.ad_unitary(u))
    assert np.linalg.norm(hermitian_choi - hermitian_choi.conj().T) < 1e-12
    # left multiplication by a non-Hermitian matrix is not *-preserving
    skew = SuperOperator.sandwich(ginibre(3, rng_from(9)), np.eye(3))
    c = choi(skew)
    assert np.linalg.norm(c - c.conj().T) > 1e-3


def test_jordan_check_accepts_automorphisms():
    u = random_unitary(3, rng_from(10))
    check = jordan_check(SuperOperator.ad_unitary(u))
    assert check.is_jordan and check.defect <= 1e-10
    check_t = jordan_check(SuperOperator.transpose_map(3))
    assert check_t.is_jordan and check_t.defect <= 1e-10


def test_jordan_check_rejects_trace_bump():
    n = 2

    def bump(x):
        out = x.copy()
        out[0, 0] += np.trace(x)
        return out

    check = jordan_check(SuperOperator.from_apply(n, bump))
    assert not check.is_jordan
    assert check.defect > 0.1


def test_jordan_classify_conjugation():
    u0 = random_unitary(3, rng_from(11))
    cls = jordan_classify(SuperOperator.ad_unitary(u0))
    assert cls.kind == KIND_ISO
    assert phase_distance(cls.unitary, u0) < 1e-10


def test_jordan_classify_transpose():
    cls = jordan_classify(SuperOperator.transpose_map(3))
    assert cls.kind == KIND_ANTI
    assert phase_distance(cls.unitary, np.eye(3)) < 1e-10


def test_jordan_classify_transposed_conjugation_round_trip():
    u0 = random_unitary(4, rng_from(12))
    j = canonical_jordan(KIND_ANTI, u0)
    cls = jordan_classify(j)
    assert cls.kind == KIND_ANTI
    assert phase_distance(cls.unitary, u0) <= 1e-8


def test_jordan_classify_rejects_non_jordan():
    with pytest.raises(NotClassifiableError):
        jordan_classify(SuperOperator(2, ginibre(4, rng_from(13))))


def test_choi_rank_dichotomy():
    rng = rng_from(14)
    for n in (2, 3, 4, 5):
        for kind in (KIND_ISO, KIND_ANTI):
            j = canonical_jordan(kind, random_unitary(n, rng))
            plain = choi_rank(choi(j))
            flipped = choi_rank(choi(j @ SuperOperator.transpose_map(n)))
            assert (plain == 1) != (flipped == 1)


def _classify_by_svd(j):
    """The classification route before the column rank test: choi_rank's
    SVD picks the candidate, the top eigenvector of its Choi matrix gives U."""
    n = j.dim
    for kind, mapped in ((KIND_ISO, j), (KIND_ANTI, SuperOperator(n, j.matrix[:, swap(n)]))):
        c = choi(mapped)
        if choi_rank(c) == 1:
            w, v = np.linalg.eigh(hermitian_part(c))
            top = int(np.argmax(np.abs(w)))
            return kind, fix_global_phase(unvec(v[:, top], n) * math.sqrt(n))
    return None, None


def test_choi_column_rank_test_matches_choi_rank():
    rng = rng_from(40)
    chois = []
    for n in range(1, 7):
        # sparse unitaries put zeros on the Choi diagonal, so the pivot matters
        unitaries = (random_unitary(n, rng), np.eye(n), np.diag(np.exp(2j * np.pi * rng.random(n))))
        for u in unitaries:
            for kind in (KIND_ISO, KIND_ANTI):
                j = canonical_jordan(kind, u)
                cls = jordan_classify(j)
                reference_kind, reference_unitary = _classify_by_svd(j)
                # at n = 1 the transpose is the identity and both kinds read iso
                assert cls.kind == reference_kind == (kind if n > 1 else KIND_ISO)
                assert np.array_equal(cls.unitary, reference_unitary)
                chois += [choi(j), choi(SuperOperator(n, j.matrix[:, swap(n)]))]
            # a negative multiple: C = -vec(u) vec(u)*, its diagonal <= 0
            chois.append(choi(SuperOperator.ad_unitary(u).scaled(-1.0)))
        chois.append(choi(SuperOperator(n, ginibre(n * n, rng))))
        chois.append(choi(SuperOperator.transpose_map(n)))
    chois += [choi(pauli_mix(theta)) for theta in (0.5, 1e-8, 1e-10)]
    verdicts = [_reads_rank_one(c) for c in chois]
    assert verdicts == [choi_rank(c) == 1 for c in chois]
    assert any(verdicts) and not all(verdicts)


def test_fix_global_phase_pivot_positive():
    u = np.exp(0.7j) * random_unitary(3, rng_from(15))
    fixed = fix_global_phase(u)
    pivot = fixed.flat[np.argmax(np.abs(fixed))]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_positivity_check_accepts_and_rejects():
    n = 3
    u = random_unitary(n, rng_from(16))
    good = positivity_check(SuperOperator.ad_unitary(u))
    assert good.positive
    bad = positivity_check(SuperOperator.identity(n).scaled(-1.0))
    assert not bad.positive and bad.defect > 0.1
    # with no random states the diagonal matrix units alone must catch it
    units_only = positivity_check(SuperOperator.identity(n).scaled(-1.0), trials=0)
    assert not units_only.positive and units_only.defect == 1.0
    # transposition is positive but not completely positive
    transpose = SuperOperator.transpose_map(2)
    assert positivity_check(transpose).positive
    assert np.linalg.eigvalsh(hermitian_part(choi(transpose)))[0] < -0.5


def test_isometry_check_unitary_conjugation_all_p():
    u = random_unitary(3, rng_from(17))
    t = SuperOperator.ad_unitary(u)
    for p in P_GRID + (math.inf,):
        check = isometry_check(t, None, p, trials=20, seed=1)
        assert check.is_isometry and check.onto


def test_isometry_check_projection_is_not_onto():
    n = 2
    e = np.diag([1.0, 0.0]).astype(complex)
    t = SuperOperator.from_apply(n, lambda x: e @ x @ e)
    check = isometry_check(t, None, 2.0, trials=10, seed=2)
    assert not check.onto


def test_isometry_check_scaling_defect_one():
    t = SuperOperator.identity(2).scaled(2.0)
    check = isometry_check(t, None, 2.0, trials=10, seed=3)
    assert not check.is_isometry
    assert abs(check.max_rel_defect - 1.0) < 1e-12
    assert check.gram_defect is not None and check.gram_defect > 1.0


def _svd_onto(t):
    """The singular-value rule for onto, the reference for the Gram certificate."""
    sv = np.linalg.svd(t.matrix, compute_uv=False)
    return bool(sv[0] > 0.0 and sv[-1] > INVERTIBILITY_RATIO * sv[0])


def _assert_gram_onto_matches(t, measure=None):
    n = t.dim
    for p in (1.0, 2.0):
        check = isometry_check(t, measure, p, trials=2, seed=0)
        assert check.onto == _svd_onto(t)
    # at p = 2 the isometry certificate is ||G* G - 1||_F, for G the map
    # itself or its transport, unchanged bit for bit
    g = t.matrix if measure is None else weighted_isometry_transport(t, measure, 2.0).matrix
    assert check.gram_defect == float(np.linalg.norm(dagger(g) @ g - np.eye(n * n)))
    return check.onto


def test_gram_onto_matches_the_singular_values():
    rng = rng_from(41)
    maps = []
    for n in (1, 2, 3, 4):
        maps.append(SuperOperator(n, ginibre(n * n, rng)))
        conjugation = SuperOperator.ad_unitary(random_unitary(n, rng))
        # ||M||_F^2 / n^2 = s^2, away from 1
        maps += [conjugation.scaled(s) for s in (1e-3, 1.0, 1e3)]
    e = np.diag([1.0, 0.0]).astype(complex)
    maps.append(SuperOperator.from_apply(2, lambda x: e @ x @ e))
    # X -> A X B with unitary B has singular values sigma(A), each n times;
    # the ratios straddle INVERTIBILITY_RATIO = 1e-12
    for n in (2, 3):
        for ratio in (1e-11, 1e-12, 1e-13):
            a = random_unitary(n, rng) * np.geomspace(1.0, ratio, n)
            maps.append(SuperOperator.sandwich(a, random_unitary(n, rng)))
    maps.append(SuperOperator(3, np.zeros((9, 9))))
    verdicts = [_assert_gram_onto_matches(t) for t in maps]
    assert any(verdicts) and not all(verdicts)
    m = QuantumMeasure(random_density(3, rng))
    for t in maps:
        if t.dim == 3:
            _assert_gram_onto_matches(t, m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    decay=st.floats(0.0, 16.0),
    log_scale=st.floats(-6.0, 6.0),
)
def test_gram_onto_matches_the_singular_values_on_random_maps(n, seed, decay, log_scale):
    # singular values 10^log_scale down to 10^(log_scale - decay), mixed by
    # two random unitaries
    rng = rng_from(seed)
    sv = 10.0 ** np.linspace(log_scale, log_scale - decay, n * n)
    m = (random_unitary(n * n, rng) * sv) @ random_unitary(n * n, rng)
    _assert_gram_onto_matches(SuperOperator(n, m))


def _isometry_defect_loop(t, measure, p, trials, seed):
    """Worst relative norm defect of T over the seeded samples, one at a time."""
    rng = rng_from(seed)

    def norm(x):
        return schatten_norm(x, p) if measure is None else weighted_norm(x, measure, p)

    worst = 0.0
    for _ in range(trials):
        x = ginibre(t.dim, rng)
        worst = max(worst, abs(norm(t.apply(x)) - norm(x)) / norm(x))
    return worst


def test_batched_isometry_check_matches_the_sample_loop():
    rng = rng_from(34)
    for n in (1, 2, 3, 5):
        m = QuantumMeasure(random_density(n, rng))
        conjugation = SuperOperator.ad_unitary(random_unitary(n, rng))
        maps = (
            conjugation,
            SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng)),
            SuperOperator(n, conjugation.matrix + 1e-6 * ginibre(n * n, rng)),
            SuperOperator(n, ginibre(n * n, rng)),
        )
        for t in maps:
            for measure in (None, m):
                for p in (1.0, 2.0, 3.0, math.inf):
                    check = isometry_check(t, measure, p, trials=7, seed=n)
                    reference = _isometry_defect_loop(t, measure, p, trials=7, seed=n)
                    assert abs(check.max_rel_defect - reference) <= 1e-14
                    assert check.is_isometry == (
                        reference <= 1e-9 and (check.gram_defect is None or check.gram_defect <= 1e-9 * n)
                    )


def test_isometry_check_weighted_commuting_conjugation():
    rng = rng_from(18)
    m = QuantumMeasure(random_density(3, rng))
    u = commuting_unitary(m.eigenbasis, rng)
    t = SuperOperator.ad_unitary(u)
    for p in (1.0, 2.0, 3.0):
        check = isometry_check(t, m, p, trials=20, seed=4)
        assert check.is_isometry and check.onto


def test_lamperti_decompose_conjugation():
    u0 = random_unitary(3, rng_from(19))
    dec = lamperti_decompose(SuperOperator.ad_unitary(u0), 2.0)
    assert dec.kind == KIND_ISO
    assert abs(dec.scale - 1.0) < 1e-9
    assert phase_distance(dec.w, np.eye(3)) < 1e-8
    assert phase_distance(dec.implementing_unitary, u0) < 1e-8
    assert dec.residual < 1e-10


def test_lamperti_decompose_left_unitary_times_transpose():
    w0 = random_unitary(3, rng_from(20))
    t = SuperOperator.sandwich(w0, np.eye(3)) @ SuperOperator.transpose_map(3)
    dec = lamperti_decompose(t, 1.0)
    assert dec.kind == KIND_ANTI
    assert abs(dec.scale - 1.0) < 1e-9
    assert phase_distance(dec.w, w0) < 1e-8
    assert phase_distance(dec.implementing_unitary, np.eye(3)) < 1e-8


def test_lamperti_rejects_scaled_conjugation():
    u0 = random_unitary(2, rng_from(21))
    with pytest.raises(NotDecomposableError):
        lamperti_decompose(SuperOperator.ad_unitary(u0).scaled(2.0), 2.0)
    # the scale check refuses 2 Ad(u) before any Jordan work, at every p
    for p in (1.0, 2.0, 3.0, math.inf):
        with pytest.raises(NotDecomposableError, match=f"^not an onto Schatten-{p:g} isometry"):
            lamperti_decompose(SuperOperator.ad_unitary(u0).scaled(2.0), p)


def pauli_mix(theta):
    """Fixes 1, sigma_x and sigma_z and sends sigma_y to cos(theta) sigma_y +
    sin(theta) sigma_x: it passes jordan_check but is not Jordan for theta != 0."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.diag([1.0, -1.0]).astype(complex)

    def fn(x):
        c = [np.trace(s @ x) / 2.0 for s in (np.eye(2), sx, sy, sz)]
        return c[0] * np.eye(2) + c[1] * sx + c[2] * (math.cos(theta) * sy + math.sin(theta) * sx) + c[3] * sz

    return SuperOperator.from_apply(2, fn)


def test_lamperti_refuses_a_map_that_passes_jordan_check():
    for theta in (0.5, 1e-8):
        t = pauli_mix(theta)
        assert jordan_check(t).is_jordan
        for p in (1.0, 2.0, 3.0, math.inf):
            with pytest.raises(NotDecomposableError):
                lamperti_decompose(t, p)
    # at theta = 1e-8 the Choi matrix still reads rank one, and only the
    # residual from scale * W @ J tells the map from the identity
    with pytest.raises(NotDecomposableError, match="^not an onto Schatten-2 isometry: residual"):
        lamperti_decompose(pauli_mix(1e-8), 2.0)
    for p in (1.0, 2.0, 3.0, math.inf):
        dec = lamperti_decompose(pauli_mix(1e-10), p)
        assert dec.kind == KIND_ISO and dec.residual < 1e-9


def test_lamperti_rejects_perturbed_isometries():
    rng = rng_from(22)
    for trial in range(20):
        n = 2 + trial % 3
        t = SuperOperator.ad_unitary(random_unitary(n, rng))
        noisy = SuperOperator(n, t.matrix + 1e-3 * ginibre(n * n, rng))
        with pytest.raises(NotDecomposableError):
            lamperti_decompose(noisy, (1.0, 2.0, 3.0)[trial % 3])


def test_lamperti_trace_condition_on_positive_samples():
    rng = rng_from(23)
    u0 = random_unitary(3, rng)
    for p in (1.0, 2.0, 3.0):
        dec = lamperti_decompose(canonical_jordan(KIND_ANTI, u0), p)
        for _ in range(10):
            g = ginibre(3, rng)
            x = g @ g.conj().T
            lhs = np.trace(x)
            rhs = dec.scale**p * np.trace(dec.jordan.apply(x))
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_transport_is_identity_for_uniform_state():
    m = maximally_mixed(3)
    v = SuperOperator(3, ginibre(9, rng_from(24)))
    t = weighted_isometry_transport(v, m, 2.0)
    assert np.allclose(t.matrix, v.matrix, atol=1e-12)


def test_transport_of_commuting_conjugation():
    rng = rng_from(25)
    m = QuantumMeasure(random_density(3, rng))
    u = commuting_unitary(m.eigenbasis, rng)
    t = weighted_isometry_transport(SuperOperator.ad_unitary(u), m, 3.0)
    assert np.allclose(t.matrix, SuperOperator.ad_unitary(u).matrix, atol=1e-9)


def test_transport_round_trip():
    rng = rng_from(26)
    m = QuantumMeasure(random_density(3, rng))
    v = SuperOperator(3, ginibre(9, rng))
    for p in (1.0, 2.0, 4.0):
        t = weighted_isometry_transport(v, m, p)
        back = weighted_isometry_transport(t, m, p, inverse=True)
        assert np.linalg.norm(back.matrix - v.matrix) <= 1e-9 * np.linalg.norm(v.matrix)


def test_transport_preserves_isometry_verdicts():
    rng = rng_from(27)
    m = QuantumMeasure(random_density(3, rng))
    cases = [
        SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng)),
        SuperOperator(3, ginibre(9, rng)),
    ]
    for v in cases:
        t = weighted_isometry_transport(v, m, 2.0)
        weighted = isometry_check(v, m, 2.0, trials=20, seed=5)
        tracial = isometry_check(t, None, 2.0, trials=20, seed=5)
        assert weighted.is_isometry == tracial.is_isometry


def test_implementability_commuting_conjugation():
    rng = rng_from(28)
    m = QuantumMeasure(random_density(3, rng))
    u = commuting_unitary(m.eigenbasis, rng)
    report = implementability_check(SuperOperator.ad_unitary(u), m, 2.0)
    assert report.implementable
    assert report.kind == KIND_ISO
    assert report.match_defect < 1e-8
    assert report.jordan is not None


def test_implementability_transpose_at_uniform_state():
    report = implementability_check(SuperOperator.transpose_map(3), maximally_mixed(3), 2.0)
    assert report.implementable
    assert report.kind == KIND_ANTI


def test_implementability_scalar_expectation_not_onto():
    rng = rng_from(29)
    rho = random_density(3, rng).matrix
    v = SuperOperator.from_apply(3, lambda x: np.trace(rho @ x) * np.eye(3))
    report = implementability_check(v, QuantumMeasure(rho), 2.0)
    assert not report.implementable
    assert report.failure == "onto"


def test_implementability_defect_report_is_structured():
    rng = rng_from(30)
    m = maximally_mixed(2)
    v = SuperOperator.ad_unitary(random_unitary(2, rng))
    report = implementability_check(v, m, 2.0)
    defects = report.defects
    assert set(defects) >= {"unitality", "positivity", "isometry"}
    assert all(isinstance(value, float) for value in defects.values())


def _worst_over_matrix_units(n, residual):
    """max over the matrix units E_ij of ||residual(E_ij)||, one unit at a time."""
    worst = 0.0
    for k in range(n * n):
        e = unvec(np.eye(n * n)[k], n)
        worst = max(worst, float(np.linalg.norm(residual(e))))
    return worst


def _hermitian_basis(n):
    """E_ii, then for each i < k in row-major order E_ik + E_ki and i E_ik - i E_ki."""
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        yield e
    for i in range(n):
        for k in range(i + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[i, k] = x[k, i] = 1.0
            yield x
            y = np.zeros((n, n), dtype=complex)
            y[i, k], y[k, i] = 1j, -1j
            yield y


def _square_defect_loop(j):
    """Worst ||J(a^2) - J(a)^2|| over the Hermitian basis and its first maximiser."""
    square_defect, worst = 0.0, np.eye(j.dim, dtype=complex)
    for a in _hermitian_basis(j.dim):
        d = float(np.linalg.norm(j.apply(a @ a) - j.apply(a) @ j.apply(a)))
        if d > square_defect:
            square_defect, worst = d, a
    return square_defect, worst


def _choi_loop(t):
    """The Choi matrix assembled block by block: block (i, j) is T(E_ij)."""
    n = t.dim
    c = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i * n : (i + 1) * n, j * n : (j + 1) * n] = unvec(t.matrix[:, j * n + i], n)
    return c


def _positivity_defect_loop(t, trials, seed):
    """Worst relative negative eigenvalue of T(P), one sample at a time, over
    the diagonal units and then the seeded random states."""
    rng = rng_from(seed)
    n = t.dim
    samples = [np.diag(row) for row in np.eye(n, dtype=complex)]
    for _ in range(trials):
        g = ginibre(n, rng)
        p = g @ g.conj().T
        samples.append(p / np.trace(p).real)
    defect = 0.0
    for p in samples:
        out = t.apply(p)
        w = np.linalg.eigvalsh((out + out.conj().T) / 2.0)
        defect = max(defect, max(0.0, -float(w[0])) / max(1.0, float(np.abs(w).max())))
    return defect


def _swap_matrix(n):
    """The dense permutation S with S vec(X) = vec(X^T)."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return s


def test_whole_matrix_defects_match_matrix_unit_loops():
    rng = rng_from(31)
    n = 3
    j = SuperOperator(n, ginibre(n * n, rng))
    star = _worst_over_matrix_units(n, lambda e: j.apply(e.conj().T) - j.apply(e).conj().T)
    assert abs(jordan_check(j).star_defect - star) <= 1e-13 * star
    # a conjugation perturbed below tolerance passes every stage with
    # residuals far above rounding, so each one is compared with its loop
    m = maximally_mixed(n)
    perturbation = 1e-11 * ginibre(n * n, rng)
    v = SuperOperator(n, SuperOperator.ad_unitary(random_unitary(n, rng)).matrix + perturbation)
    report = implementability_check(v, m, 2.0)
    assert report.implementable
    dec = report.decomposition
    canonical = canonical_jordan(dec.kind, dec.implementing_unitary)
    t = weighted_isometry_transport(v, m, 2.0)
    expected = (
        (report.match_defect, lambda e: v.apply(e) - canonical.apply(e)),
        (dec.residual, lambda e: t.apply(e) - dec.scale * dec.w @ canonical.apply(e)),
        (jordan_classify(dec.jordan).residual, lambda e: dec.jordan.apply(e) - canonical.apply(e)),
    )
    for value, residual in expected:
        reference = _worst_over_matrix_units(n, residual)
        assert reference > 1e-12
        assert abs(value - reference) <= 1e-14
    # the batched square defect, Choi matrix, positivity defect and swap
    # index against their one-element-at-a-time references
    for n in range(1, 9):
        conjugation = SuperOperator.ad_unitary(random_unitary(n, rng)).matrix
        for m in (ginibre(n * n, rng), conjugation + 1e-6 * ginibre(n * n, rng)):
            t = SuperOperator(n, m)
            square_defect, worst = _square_defect_loop(t)
            check = jordan_check(t)
            assert square_defect > 0.0
            assert abs(check.square_defect - square_defect) <= 1e-14 * square_defect
            assert np.array_equal(check.worst_input, worst)
            assert np.array_equal(choi(t), _choi_loop(t))
            positivity = _positivity_defect_loop(t, trials=5, seed=n)
            assert positivity > 0.0 or n == 1
            assert abs(positivity_check(t, trials=5, seed=n).defect - positivity) <= 1e-14
            s = _swap_matrix(n)
            assert np.array_equal(SuperOperator.transpose_map(n).matrix, s)
            assert np.array_equal(t.predual().matrix, s @ m.T @ s)
    for t in (SuperOperator.identity(3), SuperOperator.transpose_map(3)):
        square_defect, worst = _square_defect_loop(t)
        check = jordan_check(t)
        assert square_defect == check.square_defect == 0.0
        assert np.array_equal(worst, np.eye(3)) and np.array_equal(check.worst_input, np.eye(3))


def test_change_of_representation_identity_and_transpose():
    rng = rng_from(31)
    m = maximally_mixed(3)
    u = random_unitary(3, rng)
    for lam in (SuperOperator.identity(3), SuperOperator.transpose_map(3)):
        report = change_of_representation_demo(u, lam, m, t_steps=3, trials=20, seed=6)
        assert report.all_implementable


def test_change_of_representation_unitary_frame():
    rng = rng_from(32)
    m = maximally_mixed(3)
    u = random_unitary(3, rng)
    w0 = random_unitary(3, rng)
    report = change_of_representation_demo(
        u, SuperOperator.ad_unitary(w0), m, t_steps=3, trials=20, seed=7
    )
    assert report.all_implementable
    # the implementing unitary at each step is W0 U^t W0* up to phase
    for step in report.steps:
        expected = w0 @ np.linalg.matrix_power(u, step.t) @ w0.conj().T
        dec = step.report.decomposition
        assert phase_distance(dec.implementing_unitary, expected) < 1e-8


def test_change_of_representation_rejects_non_jordan_frame():
    m = maximally_mixed(2)
    u = random_unitary(2, rng_from(33))
    with pytest.raises(NotJordanError):
        change_of_representation_demo(u, SuperOperator.identity(2).scaled(2.0), m, 2)
