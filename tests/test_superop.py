"""Superoperator conventions, Choi classification, isometry decomposition,
and the implementability route."""

import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import cli, superop
from nclp.jsonio import SchemaError, superop_to_json
from nclp.linalg import (
    ABS_FLOOR,
    INVERTIBILITY_RATIO,
    DimensionMismatchError,
    SingularInputError,
    dagger,
    hermitian_part,
    threshold,
)
from nclp.sampling import commuting_unitary, ginibre, ginibre_stack, random_density, random_unitary, rng_from
from nclp.spaces import (
    P_GRID,
    QuantumMeasure,
    maximally_mixed,
    norm_scale_report,
    schatten_norm,
    weighted_norm,
)
from nclp.superop import (
    CHOI_RANK_RTOL,
    KIND_ANTI,
    KIND_ISO,
    NotClassifiableError,
    NotDecomposableError,
    NotJordanError,
    NotPositiveError,
    SuperOperator,
    _choi_bounds,
    _choi_pivot_reading,
    _factor_gram_defects,
    canonical_jordan,
    change_of_representation_demo,
    choi,
    fix_global_phase,
    implementability_check,
    integrability_constant,
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


def choi_rank(c):
    """The SVD rank of a Choi matrix at CHOI_RANK_RTOL: the reference for the
    column rank test that ``jordan_classify`` reads from the pivot."""
    s = np.linalg.svd(np.asarray(c, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > CHOI_RANK_RTOL * s[0]))


def _from_apply(n, fn):
    """The map X -> fn(X) on n x n matrices, one matrix unit at a time."""
    m = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            m[:, j * n + i] = vec(fn(e))
    return SuperOperator(n, m)


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

    check = jordan_check(_from_apply(n, bump))
    assert not check.is_jordan
    assert check.defect > 0.1


def _svd_invertibility(t):
    """The singular-value rule, the reference for the invertibility rule: the
    invertibility term ABS_FLOOR * cond(M), the tolerance scale
    max(1, sigma_max^2), and whether M counts as singular."""
    sv = np.linalg.svd(t.matrix, compute_uv=False)
    defect = math.inf if sv[-1] <= 0.0 else ABS_FLOOR * float(sv[0] / sv[-1])
    singular = bool(sv[0] == 0.0 or sv[-1] <= INVERTIBILITY_RATIO * sv[0])
    return defect, max(1.0, float(sv[0]) ** 2), singular


def _least_passing_tol(defect, scale):
    """The least float tol with tol * scale >= defect: for defect above
    ABS_FLOOR, is_jordan at that scale holds at tol and fails one float
    below it."""
    tol = defect / scale
    while tol * scale < defect:
        tol = float(np.nextafter(tol, math.inf))
    while np.nextafter(tol, 0.0) * scale >= defect:
        tol = float(np.nextafter(tol, 0.0))
    return tol


def test_jordan_check_invertibility_matches_the_singular_values():
    rng = rng_from(42)
    certified, fallback = [], []
    for n in range(1, 7):
        u = random_unitary(n, rng)
        certified += [
            SuperOperator.ad_unitary(u),
            SuperOperator.transpose_map(n),
            canonical_jordan(KIND_ANTI, u),
        ]
        certified += [SuperOperator.ad_unitary(u).scaled(s) for s in (1e-3, 1.0, 1e3)]
    # X -> A X B with unitary B has singular values sigma(A), each n times;
    # the ratios straddle INVERTIBILITY_RATIO = 1e-12
    for n in (2, 3):
        for ratio in (1e-11, 1e-12, 1e-13):
            a = random_unitary(n, rng) * np.geomspace(1.0, ratio, n)
            fallback.append(SuperOperator.sandwich(a, random_unitary(n, rng)))
    e = np.diag([1.0, 0.0]).astype(complex)
    fallback.append(_from_apply(2, lambda x: e @ x @ e))
    fallback.append(SuperOperator(3, np.zeros((9, 9))))
    fallback += [SuperOperator(n, ginibre(n * n, rng)) for n in (2, 3, 4)]
    # a unitary times singular values spread over [1/1.2, 1]: cond(M) = 1.2,
    # but far from every X -> A X B, so the singular values decide
    fallback += [SuperOperator(n, random_unitary(n * n, rng) * np.linspace(1.0, 1.0 / 1.2, n * n)) for n in (2, 3)]
    singular = []
    for index, t in enumerate(certified + fallback):
        conclusive = _choi_bounds(_choi_pivot_reading(t.matrix)) is not None
        assert conclusive == (index < len(certified))
        reference, scale, is_singular = _svd_invertibility(t)
        check = jordan_check(t)
        if math.isinf(reference):
            assert math.isinf(check.invertibility_defect)
        else:
            assert abs(check.invertibility_defect - reference) <= 1e-12
            if conclusive:
                # a Jordan map or a multiple of one: rounding level only
                assert abs(check.invertibility_defect - reference) <= 1e-24
        defect = check.square_defect + check.star_defect + reference
        assert check.is_jordan == (defect <= threshold(scale, 1e-9))
        if not conclusive:
            # the singular values decide, bit for bit: the term, onto, and
            # the scale at which is_jordan switches
            assert check.invertibility_defect == reference
            assert isometry_check(t, None, 1.0, trials=2, seed=0).onto == (not is_singular)
            if math.isfinite(check.defect):
                tol = _least_passing_tol(check.defect, scale)
                assert jordan_check(t, tol=tol).is_jordan
                assert not jordan_check(t, tol=float(np.nextafter(tol, 0.0))).is_jordan
        singular.append(is_singular)
        if is_singular:
            with pytest.raises(SingularInputError):
                t.inverse()
        else:
            assert np.array_equal(t.inverse().matrix, np.linalg.inv(t.matrix))
    assert any(singular) and not all(singular)


def _assert_choi_bounds_match_the_singular_values(t):
    """The Choi certificate against the singular values: its bounds bracket
    them up to rounding, it concludes only at cond <= sqrt(3), and onto,
    is_jordan and inverse keep the singular-value verdicts.  Returns whether
    it was conclusive."""
    sv = np.linalg.svd(t.matrix, compute_uv=False)
    bounds = _choi_bounds(_choi_pivot_reading(t.matrix))
    if bounds is not None:
        low, high = bounds
        assert 0.0 < low and high <= math.sqrt(3.0) * low
        # half the relative slack that the squares had
        slack = 5e-13 * high
        assert low - slack <= sv[-1] and sv[0] <= high + slack
        assert sv[0] <= math.sqrt(3.0) * sv[-1] * (1.0 + 1e-12)
    assert isometry_check(t, None, 1.0, trials=2, seed=0).onto == _svd_onto(t)
    reference, scale, is_singular = _svd_invertibility(t)
    check = jordan_check(t)
    if math.isinf(reference):
        assert math.isinf(check.invertibility_defect)
    else:
        assert abs(check.invertibility_defect - reference) <= 1e-12
    assert check.is_jordan == (check.square_defect + check.star_defect + reference <= threshold(scale, 1e-9))
    if is_singular:
        with pytest.raises(SingularInputError):
            t.inverse()
    else:
        assert np.array_equal(t.inverse().matrix, np.linalg.inv(t.matrix))
    return bounds is not None


def _transposed(t):
    """t composed with the transpose: X -> t(X^T)."""
    return SuperOperator(t.dim, t.matrix[:, swap(t.dim)])


def test_choi_bounds_match_the_singular_values():
    rng = rng_from(46)
    jordan, inconclusive = [], []
    for n in range(1, 7):
        u = random_unitary(n, rng)
        for kind in (KIND_ISO, KIND_ANTI):
            jordan += [canonical_jordan(kind, u).scaled(s) for s in (1.0, 1e-3, 1e3)]
    conclusive = list(jordan)
    # X -> A X B with unitary B has cond(M) = cond(A); the certificate
    # concludes exactly when cond(A) <= sqrt(3)
    for n in (2, 3, 4):
        for cond in (1.0, 1.5, 1.8, 2.0, 1e6):
            a = random_unitary(n, rng) * np.geomspace(1.0, 1.0 / cond, n) @ random_unitary(n, rng)
            t = SuperOperator.sandwich(a, random_unitary(n, rng))
            (conclusive if cond <= math.sqrt(3.0) else inconclusive).extend([t, _transposed(t)])
        noise = 1e-3 * ginibre(n * n, rng)
        for kind in (KIND_ISO, KIND_ANTI):
            conclusive.append(SuperOperator(n, canonical_jordan(kind, random_unitary(n, rng)).matrix + noise))
        inconclusive.append(SuperOperator(n, ginibre(n * n, rng)))
        # the identity with its last matrix unit scaled by 0.9: the residual
        # 0.1 sits in M's last row block, and Weyl's lower bound is reached
        tight = SuperOperator(n, np.diag(np.r_[np.ones(n * n - 1), 0.9]).astype(complex))
        conclusive += [tight, _transposed(tight)]
    e = np.diag([1.0, 0.0]).astype(complex)
    inconclusive.append(_from_apply(2, lambda x: e @ x @ e))
    inconclusive.append(SuperOperator(3, np.zeros((9, 9))))
    assert all(_assert_choi_bounds_match_the_singular_values(t) for t in conclusive)
    assert not any(_assert_choi_bounds_match_the_singular_values(t) for t in inconclusive)
    # on Jordan maps and their multiples the bounds are exact to rounding
    for t in jordan:
        sv = np.linalg.svd(t.matrix, compute_uv=False)
        low, high = _choi_bounds(_choi_pivot_reading(t.matrix))
        assert abs(low - sv[-1]) <= 5e-14 * high and abs(high - sv[0]) <= 5e-14 * high


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 1.0),
    log_noise=st.floats(-16.0, 0.0),
    transposed=st.booleans(),
)
def test_choi_bounds_match_the_singular_values_on_random_maps(n, seed, log_cond, log_noise, transposed):
    # X -> A X B with cond(A) = cond(B) = 10^(log_cond / 2), plus Ginibre
    # noise of norm about 10^log_noise times ||M||_F, optionally transposed
    rng = rng_from(seed)
    factors = [
        random_unitary(n, rng) * np.geomspace(1.0, 10.0 ** (-log_cond / 2.0), n) @ random_unitary(n, rng)
        for _ in range(2)
    ]
    t = SuperOperator.sandwich(*factors)
    noise = ginibre(n * n, rng)
    t = SuperOperator(n, t.matrix + 10.0**log_noise * np.linalg.norm(t.matrix) / np.linalg.norm(noise) * noise)
    _assert_choi_bounds_match_the_singular_values(_transposed(t) if transposed else t)


def _dense_choi_readings(t):
    """For the Choi matrix C of t, then of t o transpose, built explicitly:
    C0 = C[:, q] C[p, :] / C[p, q], the rank-one matrix through C's entry of
    largest modulus, and ||C - C0||_F."""
    readings = []
    for mapped in (t, _transposed(t)):
        c = choi(mapped)
        p, q = divmod(int(np.argmax(np.abs(c))), c.shape[0])
        c0 = np.outer(c[:, q], c[p, :]) / c[p, q]
        readings.append((c0, float(np.linalg.norm(c - c0))))
    return readings


def test_choi_pivot_reading_matches_the_dense_choi_matrix():
    rng = rng_from(52)
    finite = infinite = 0
    for n in range(1, 7):
        assert _choi_pivot_reading(np.zeros((n * n, n * n), dtype=complex)) == ()
        rank_one = [
            SuperOperator.sandwich(ginibre(n, rng), ginibre(n, rng)),
            _transposed(SuperOperator.sandwich(ginibre(n, rng), ginibre(n, rng))),
            canonical_jordan(KIND_ANTI, random_unitary(n, rng)),
        ]
        maps = rank_one + [t.scaled(-1.0) for t in rank_one]
        for t, level in zip(rank_one, (1e-8, 1e-3, 0.3)):
            noise = ginibre(n * n, rng)
            maps.append(SuperOperator(n, t.matrix + level * np.linalg.norm(t.matrix) / np.linalg.norm(noise) * noise))
        maps.append(SuperOperator(n, ginibre(n * n, rng)))
        for index, t in enumerate(maps):
            size = float(np.linalg.norm(t.matrix))
            readings = _choi_pivot_reading(t.matrix)
            assert len(readings) == 2
            for (x, y, e), (c0, dense) in zip(readings, _dense_choi_readings(t)):
                # x and y are the rank-one map whose Choi matrix is C0
                assert np.allclose(choi(SuperOperator(n, np.kron(y, x))), c0, rtol=0.0, atol=1e-13 * size)
                if dense**2 >= float(np.linalg.norm(c0)) ** 2 / n**2:
                    assert math.isinf(e)
                    infinite += 1
                else:
                    assert abs(e - dense) <= 1e-13 * size
                    finite += 1
            if index < 2 * len(rank_one):
                assert min(e for _, _, e in readings) <= 1e-14 * size
    assert finite and infinite


def test_isometry_check_rejects_a_p2_conjugation_without_a_transport(monkeypatch):
    builds = []
    transport = superop.weighted_isometry_transport
    monkeypatch.setattr(
        superop, "weighted_isometry_transport", lambda *a, **k: builds.append(a) or transport(*a, **k)
    )
    rng = rng_from(50)
    n = 16
    m = QuantumMeasure(random_density(n, rng))
    report = implementability_check(SuperOperator.ad_unitary(random_unitary(n, rng)), m, 2.0)
    assert not report.implementable and report.failure == "isometry"
    assert report.isometry.gram_defect > 1.0
    assert builds == []


def _square_defects_whole(j):
    """||J(A^2) - J(A)^2||_F over the Hermitian spanning set, from whole
    stacked and concatenated copies: the reference for ``_square_defects``."""
    n = j.dim
    images = superop._images(j)
    units = images[np.arange(n), np.arange(n)]
    i, k = np.triu_indices(n, 1)
    pairs = np.stack([images[i, k] + images[k, i], 1j * (images[i, k] - images[k, i])], axis=1)
    ja = np.concatenate([units, pairs.reshape(-1, n, n)])
    ja_sq = np.concatenate([units, np.repeat(units[i] + units[k], 2, axis=0)])
    return np.linalg.norm(ja_sq - ja @ ja, axis=(1, 2))


def _jordan_defects_whole(j):
    """The square and star defects from whole stacked and permuted copies."""
    square = float(np.max(_square_defects_whole(j)))
    s = swap(j.dim)
    # |z|^2 as re^2 + im^2: numpy's norm(axis=0) fuses a multiply-add into it
    d = j.matrix[:, s] - j.matrix.conj()[s]
    star = math.sqrt(float(np.max(np.sum(d.real**2 + d.imag**2, axis=0))))
    return square, star


def test_square_defects_equal_the_whole_array_formula():
    rng = rng_from(50)
    for n in range(2, 13):
        i, k = np.triu_indices(n, 1)
        for kind in (KIND_ISO, KIND_ANTI):
            jordan = canonical_jordan(kind, random_unitary(n, rng)).matrix
            for m in (jordan, jordan + 1e-6 * ginibre(n * n, rng), ginibre(n * n, rng)):
                j = SuperOperator(n, m)
                assert np.array_equal(superop._square_defects(j, i, k), _square_defects_whole(j))


def test_jordan_check_defects_equal_the_whole_array_formulas():
    rng = rng_from(49)
    for n in range(1, 9):
        conjugation = SuperOperator.ad_unitary(random_unitary(n, rng)).matrix
        for m in (ginibre(n * n, rng), conjugation + 1e-6 * ginibre(n * n, rng), conjugation):
            j = SuperOperator(n, m)
            check = jordan_check(j)
            assert (check.square_defect, check.star_defect) == _jordan_defects_whole(j)
    u = random_unitary(16, rng_from(48))
    for j in (SuperOperator.ad_unitary(u), canonical_jordan(KIND_ANTI, u)):
        check = jordan_check(j)
        assert check.is_jordan
        assert (check.square_defect, check.star_defect) == _jordan_defects_whole(j)


def test_ginibre_stack_is_the_per_sample_draws():
    for n in range(1, 7):
        for trials in (1, 25, 50):
            rng = rng_from(n + trials)
            reference = np.stack([ginibre(n, rng) for _ in range(trials)])
            stack = ginibre_stack(n, trials, rng_from(n + trials))
            assert stack.shape == reference.shape and stack.tobytes() == reference.tobytes()


def _positivity_report_loop(t, trials, seed, tol=1e-9):
    """positivity_check with each state drawn by its own ``ginibre`` call,
    and Hermiticity preservation read one matrix unit at a time."""
    rng = rng_from(seed)
    n = t.dim
    star = scale = 0.0
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            image = t.apply(e)
            star = max(star, float(np.linalg.norm(t.apply(e.T) - dagger(image))))
            scale = max(scale, float(np.linalg.norm(image)))
    samples = [np.eye(n)[:, :, None] * np.eye(n)]
    for _ in range(trials):
        g = ginibre(n, rng)
        p = g @ dagger(g)
        samples.append((p / np.trace(p).real)[None])
    out = superop._apply_to_stack(t, np.concatenate(samples))
    w = np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2.0)
    defect = float(np.max(np.maximum(-w[:, 0], 0.0) / np.maximum(1.0, np.abs(w).max(axis=1))))
    hermitian = star <= threshold(max(1.0, scale), tol)
    return superop.PositivityReport(hermitian and defect <= threshold(1.0, tol), defect, trials, star, hermitian)


def _max_rel_defect_loop(t, measure, p, trials, seed):
    """isometry_check's sampled defect, one ``ginibre`` draw and norm at a time."""
    rng = rng_from(seed)
    xs = [ginibre(t.dim, rng) for _ in range(trials)]
    images = superop._apply_to_stack(t, np.stack(xs))

    def norm(x):
        return schatten_norm(x, p) if measure is None else weighted_norm(x, measure, p)

    return max(abs(norm(y) - norm(x)) / norm(x) for x, y in zip(xs, images))


def test_batched_draws_give_the_per_trial_reports():
    rng = rng_from(50)
    for n in (1, 2, 3, 5):
        u = random_unitary(n, rng)
        m = QuantumMeasure(random_density(n, rng))
        maps = (
            SuperOperator.ad_unitary(u),
            canonical_jordan(KIND_ANTI, u),
            SuperOperator(n, ginibre(n * n, rng) / n),
        )
        for t in maps:
            for trials in (1, 25):
                report = superop._sampled_positivity(t, trials, n, 1e-9)
                reference = _positivity_report_loop(t, trials, n)
                # the star defect is summed in another order: equal to rounding
                assert report.star_defect == pytest.approx(reference.star_defect, rel=1e-13, abs=1e-15)
                assert dataclasses.replace(report, star_defect=reference.star_defect) == reference
                for measure, p in ((None, 1.0), (m, 3.0)):
                    check = isometry_check(t, measure, p, trials=trials, seed=n)
                    assert check.max_rel_defect == _max_rel_defect_loop(t, measure, p, trials, n)


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


def test_jordan_classify_leaves_the_map_it_reads_unchanged():
    # at n = 1 a reshape of J's matrix is a view of it: the Hermitian Choi
    # matrix, formed in place, must not overwrite the caller's map, whose
    # residual is then read off the map as given
    rng = rng_from(52)
    for n in (1, 2, 3):
        for kind in (KIND_ISO, KIND_ANTI):
            m = canonical_jordan(kind, random_unitary(n, rng)).matrix + 1e-9 * ginibre(n * n, rng)
            j = SuperOperator(n, m.copy())
            cls = jordan_classify(j)
            assert np.array_equal(j.matrix, m)
            assert cls.residual == superop._max_column_norm(m - cls.canonical.matrix) > 0.0


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
    maps = []
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
                maps += [j, _transposed(j)]
            # a negative multiple: C = -vec(u) vec(u)*, its diagonal <= 0
            maps.append(SuperOperator.ad_unitary(u).scaled(-1.0))
        maps.append(SuperOperator(n, ginibre(n * n, rng)))
        maps.append(SuperOperator.transpose_map(n))
    maps += [pauli_mix(theta) for theta in (0.5, 1e-8, 1e-10)]
    # jordan_classify's reading: the conjugation kind reads choi(t), the
    # transposed kind choi(t o transpose), as rank one when e <= the cutoff
    verdicts = [
        [e <= CHOI_RANK_RTOL * np.linalg.norm(t.matrix) for _, _, e in _choi_pivot_reading(t.matrix)]
        for t in maps
    ]
    assert verdicts == [[choi_rank(choi(t)) == 1, choi_rank(choi(_transposed(t))) == 1] for t in maps]
    assert any(map(any, verdicts)) and not all(map(all, verdicts))


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
    # the diagonal matrix units are always tested: a sampled full-rank state
    # reads a defect below 1 here, and only a unit reads exactly 1
    units_too = positivity_check(SuperOperator.identity(n).scaled(-1.0), trials=1)
    assert not units_too.positive and units_too.defect == 1.0
    # transposition is positive but not completely positive
    transpose = SuperOperator.transpose_map(2)
    assert positivity_check(transpose).positive
    assert np.linalg.eigvalsh(hermitian_part(choi(transpose)))[0] < -0.5
    # X -> U X (U* + eps E) does not preserve Hermiticity, though the
    # Hermitian parts of its outputs read positive: the defect stays small
    rng = rng_from(53)
    for n in (2, 3, 8, 16):
        u, e = random_unitary(n, rng), ginibre(n, rng)
        t = SuperOperator.sandwich(u, u.conj().T + 1e-6 * e / np.linalg.norm(e))
        report = positivity_check(t)
        assert not report.positive and report.defect < 1e-9
        with pytest.raises(NotPositiveError, match="^map is not positivity preserving"):
            integrability_constant(t, maximally_mixed(n))


def test_positivity_check_refuses_fewer_than_one_trial():
    # the Schur multiplier X -> (2I - J) o X is not positive, but the
    # diagonal units alone miss it
    n = 3
    t = SuperOperator(n, np.diag(vec(2.0 * np.eye(n) - np.ones((n, n)))))
    report = positivity_check(t, trials=1)
    assert not report.positive and report.defect > 0.1
    for trials in (0, -1):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            positivity_check(t, trials=trials)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            integrability_constant(t, maximally_mixed(n), trials=trials)


def test_trials_and_t_steps_must_be_integers():
    # a fraction or a boolean is refused by name, never cast to a count
    n = 2
    u = random_unitary(n, rng_from(57))
    t, m = SuperOperator.ad_unitary(u), maximally_mixed(n)
    calls = {
        "trials": (
            lambda k: positivity_check(t, trials=k),
            lambda k: integrability_constant(t, m, trials=k),
            lambda k: isometry_check(t, m, 2.0, trials=k),
            lambda k: norm_scale_report(m, trials=k, seed=0),
            # refused for unitality, before any stage reads trials
            lambda k: implementability_check(SuperOperator.identity(n).scaled(2.0), m, 2.0, trials=k),
        ),
        "t_steps": (lambda k: change_of_representation_demo(u, SuperOperator.identity(n), m, t_steps=k),),
    }
    for name, checks in calls.items():
        for check in checks:
            with pytest.raises(SchemaError, match=f"^field '{name}': must be an integer, got 2.5$"):
                check(2.5)
            with pytest.raises(SchemaError, match=f"^field '{name}': must be a real number, got True$"):
                check(True)
            with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
                check(0)
            check(2.0)
    assert positivity_check(SuperOperator.identity(n).scaled(-1.0), trials=np.int64(3)).trials == 3


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from((-1.0, 0.0, 0.5, 2.0)),
    log_eps=st.one_of(st.none(), st.floats(-16.0, -6.0)),
    transposed=st.booleans(),
    log_near=st.one_of(st.none(), st.floats(-1.0, 1.0)),
)
def test_positivity_certificate_agrees_with_the_sampled_check(n, seed, c, log_eps, transposed, log_near):
    # X -> A X B (or A X^T B) with B = c A* + eps G, ||A||_F = ||G||_F = 1,
    # then optionally M plus Ginibre noise of Frobenius norm 10^log_near
    # times the threshold, which puts the certificate's delta near it
    rng = rng_from(seed)
    a, g = ginibre(n, rng), ginibre(n, rng)
    a, g = a / np.linalg.norm(a), g / np.linalg.norm(g)
    eps = 0.0 if log_eps is None else 10.0**log_eps
    t = SuperOperator.sandwich(a, c * dagger(a) + eps * g)
    t = _transposed(t) if transposed else t
    if log_near is not None:
        noise = ginibre(n * n, rng)
        t = SuperOperator(n, t.matrix + 10.0**log_near * threshold(1.0) / np.linalg.norm(noise) * noise)
    report, sampled = positivity_check(t), superop._sampled_positivity(t, 50, 0, 1e-9)
    assert report.positive == sampled.positive
    if report.trials == 0:
        # the certificate bounds what the sample reads
        assert sampled.defect <= report.defect and sampled.star_defect <= report.star_defect
        assert report.star_defect == 2.0 * report.defect <= threshold(1.0)
    else:
        assert report == sampled


def test_positivity_certificate_draws_no_sample(monkeypatch):
    def no_sample(*args):
        raise AssertionError("a state was sampled")

    monkeypatch.setattr(superop, "ginibre_stack", no_sample)
    rng = rng_from(58)
    for n in (1, 2, 3, 8):
        u, a = random_unitary(n, rng), ginibre(n, rng)
        conjugation = SuperOperator.ad_unitary(u)
        for t in (conjugation, conjugation.scaled(3.0), SuperOperator.sandwich(a, dagger(a)), _transposed(conjugation)):
            report = positivity_check(t)
            assert report.positive and report.hermitian and report.trials == 0
            assert report.defect <= 1e-13 * max(1.0, np.linalg.norm(t.matrix)) and report.star_defect == 2.0 * report.defect
        # a state-preserving Ad(u): T_*(rho) = rho, so the constant is 1
        m = QuantumMeasure(random_density(n, rng))
        v = SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng))
        assert abs(integrability_constant(v, m) - 1.0) < 1e-12
    # X -> X^T at n = 2 is positive and not completely positive: its
    # normalized Choi matrix, the partial transpose of the Bell state, has
    # eigenvalue -1/2, and its factors certify it exactly
    transpose = SuperOperator.transpose_map(2)
    assert np.linalg.eigvalsh(choi(transpose) / 2.0)[0] == -0.5
    report = positivity_check(transpose)
    assert report.positive and report.trials == 0 and report.defect <= 1e-14
    # a "no" still samples
    with pytest.raises(AssertionError, match="^a state was sampled$"):
        positivity_check(conjugation.scaled(-1.0))


def test_star_refusals_name_the_star_defect():
    # T(X) = U X (U* + eps E) and the unital T(X) = X + eps (E X - X E), E
    # Hermitian: the Hermitian parts of their outputs read positive, so only
    # the star rule refuses them, and each refusal names the star defect
    rng = rng_from(55)
    n, eps = 3, 1e-6
    u, e = random_unitary(n, rng), hermitian_part(ginibre(n, rng))
    e /= np.linalg.norm(e)
    skewed = SuperOperator.sandwich(u, u.conj().T + eps * e)
    commutator = _from_apply(n, lambda x: x + eps * (e @ x - x @ e))
    for t in (skewed, commutator):
        report, reference = positivity_check(t, trials=50, seed=0), _positivity_report_loop(t, 50, 0)
        assert not report.positive and not report.hermitian
        assert report.defect <= threshold(1.0) < eps / 10 < report.star_defect
        assert report.star_defect == pytest.approx(reference.star_defect, rel=1e-12)
        refusal = f"^map is not positivity preserving: star defect {report.star_defect:.3e}$"
        with pytest.raises(NotPositiveError, match=refusal):
            integrability_constant(t, maximally_mixed(n))
    verdict = implementability_check(commutator, maximally_mixed(n), 2.0)
    assert verdict.failure == "positivity"
    assert verdict.defects == {
        "unitality": verdict.defects["unitality"],
        "positivity": report.defect,
        "star": report.star_defect,
    }
    # a unital map that preserves Hermiticity and is not positive: the
    # sampled defect decides, and the report has no star entry
    flip = SuperOperator(n, (2.0 / n) * np.outer(vec(np.eye(n)), vec(np.eye(n))) - np.eye(n * n))
    report = positivity_check(flip)
    assert report.hermitian and not report.positive
    with pytest.raises(NotPositiveError, match=f"^map is not positivity preserving: defect {report.defect:.3e}$"):
        integrability_constant(flip, maximally_mixed(n))
    verdict = implementability_check(flip, maximally_mixed(n), 2.0)
    assert verdict.failure == "positivity" and set(verdict.defects) == {"unitality", "positivity"}


def test_positivity_and_isometry_hold_one_n2_by_n2_array():
    rng = rng_from(47)
    n = 24
    m = QuantumMeasure(random_density(n, rng))
    v = SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng))
    checks = [lambda: positivity_check(v)]
    checks += [lambda p=p, measure=measure: isometry_check(v, measure, p) for p in (1.0, 2.0) for measure in (None, m)]
    for check in checks:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n^2 x n^2 complex array (the star defect's, or one kind's Choi
        # residual) and the n^2 x n^2 real |M| of the pivot search, never both
        assert peak - base < 1.5 * v.matrix.nbytes


def test_isometry_check_unitary_conjugation_all_p():
    u = random_unitary(3, rng_from(17))
    t = SuperOperator.ad_unitary(u)
    for p in P_GRID + (math.inf,):
        check = isometry_check(t, None, p, trials=20, seed=1)
        assert check.is_isometry and check.onto


def test_invertibility_boundary_of_inverse_and_onto():
    # singular values 1, 1, 1 and exactly INVERTIBILITY_RATIO, then the next
    # float above: singular, then invertible
    at = INVERTIBILITY_RATIO * 1.0
    for low, ok in ((at, False), (float(np.nextafter(at, 1.0)), True)):
        t = SuperOperator(2, np.diag([1.0, 1.0, 1.0, low]).astype(complex))
        assert np.array_equal(np.linalg.svd(t.matrix, compute_uv=False), [1.0, 1.0, 1.0, low])
        for p in (1.0, 2.0):
            assert isometry_check(t, None, p, trials=2, seed=0).onto is ok
        if ok:
            assert np.array_equal(t.inverse().matrix, np.linalg.inv(t.matrix))
        else:
            with pytest.raises(SingularInputError):
                t.inverse()


def test_isometry_check_projection_is_not_onto():
    n = 2
    e = np.diag([1.0, 0.0]).astype(complex)
    t = _from_apply(n, lambda x: e @ x @ e)
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


def _gram_certificate(t, measure, tol=1e-9):
    """The (d0, delta) of the factor certificate that decides the p = 2 Gram
    defect, taken as ``isometry_check`` takes it, or None when the dense
    Gram product decides."""
    limit = threshold(float(t.dim), tol)
    readings = list(_choi_pivot_reading(t.matrix))
    return next(
        (
            (d0, delta)
            for d0, delta in _factor_gram_defects(readings, measure)
            if d0 + delta <= limit or d0 - delta > limit
        ),
        None,
    )


def _dense_gram_defect(t, measure):
    """||G* G - 1||_F for G the map itself or its transport."""
    g = t.matrix if measure is None else weighted_isometry_transport(t, measure, 2.0).matrix
    return float(np.linalg.norm(dagger(g) @ g - np.eye(t.dim**2)))


def _assert_gram_onto_matches(t, measure=None):
    n = t.dim
    for p in (1.0, 2.0):
        check = isometry_check(t, measure, p, trials=2, seed=0)
        assert check.onto == _svd_onto(t)
    # at p = 2 the isometry certificate is the dense ||G* G - 1||_F, bit for
    # bit, or the factor certificate's d0 within its delta of it
    dense = _dense_gram_defect(t, measure)
    certificate = _gram_certificate(t, measure)
    if certificate is None:
        assert check.gram_defect == dense
    else:
        assert abs(check.gram_defect - dense) <= certificate[1] + 1e-13 * max(1.0, dense)
    assert check.is_isometry == (check.max_rel_defect <= threshold(1.0) and dense <= threshold(float(n)))
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
    maps.append(_from_apply(2, lambda x: e @ x @ e))
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


def _counted_isometry_check(v, measure):
    """The p = 2 isometry check and the transports it built."""
    builds = []
    transport = superop.weighted_isometry_transport
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(superop, "weighted_isometry_transport", lambda *a, **k: builds.append(a) or transport(*a, **k))
        check = isometry_check(v, measure, 2.0, trials=2, seed=0)
    return check, len(builds)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), transposed=st.booleans(), weighted=st.booleans())
def test_factor_gram_certificate_matches_the_dense_gram_on_random_maps(seed, transposed, weighted):
    # n <= 6 and rho with cond 10^log_cond up to 1e9; the map is the
    # pull-back through the transport of X -> A X B (or A X^T B) with the
    # singular values of A and B in 1 + 10^log_spread [-1, 1], so that some
    # land near the threshold, plus Ginibre noise of norm 10^log_noise times
    # ||M||_F.  The sizes are drawn from the seed, evenly over their ranges
    rng = rng_from(seed)
    n = int(rng.integers(1, 7))
    log_cond, log_spread, log_noise = rng.uniform((0.0, -12.0, -16.0), (9.0, 0.0, -3.0))
    q = random_unitary(n, rng)
    lam = np.geomspace(1.0, 10.0**-log_cond, n)
    measure = QuantumMeasure((q * (lam / lam.sum())) @ q.conj().T) if weighted else None
    a, b = (
        random_unitary(n, rng) * (1.0 + 10.0**log_spread * rng.uniform(-1.0, 1.0, n)) @ random_unitary(n, rng)
        for _ in range(2)
    )
    t = SuperOperator.sandwich(a, b)
    if transposed:
        t = _transposed(t)
    if measure is not None:
        t = weighted_isometry_transport(t, measure, 2.0, inverse=True)
    noise = ginibre(n * n, rng)
    v = SuperOperator(n, t.matrix + 10.0**log_noise * np.linalg.norm(t.matrix) / np.linalg.norm(noise) * noise)
    dense = _dense_gram_defect(v, measure)
    rounding = 1e-13 * max(1.0, dense)
    for d0, delta in _factor_gram_defects(list(_choi_pivot_reading(v.matrix)), measure):
        assert abs(d0 - dense) <= delta + rounding
    check, builds = _counted_isometry_check(v, measure)
    limit = threshold(float(n))
    dense_verdict = check.max_rel_defect <= threshold(1.0) and dense <= limit
    certificate = _gram_certificate(v, measure)
    if certificate is None:
        # the dense Gram decides, on the transport when there is a measure
        assert builds == (measure is not None)
        assert check.gram_defect == dense and check.is_isometry == dense_verdict
    else:
        assert builds == 0 and check.gram_defect == certificate[0]
        if abs(dense - limit) > certificate[1] + rounding:
            assert check.is_isometry == dense_verdict


def test_factor_gram_certificate_falls_back_off_the_factor_form():
    rng = rng_from(51)
    n = 3
    m = QuantumMeasure(random_density(n, rng))
    # a unitary of the Hilbert-Schmidt space that is no X -> A X B: an L^2
    # isometry, decided by the dense Gram on M or on the transport
    u = SuperOperator(n, random_unitary(n * n, rng))
    for v, measure in ((u, None), (weighted_isometry_transport(u, m, 2.0, inverse=True), m)):
        assert _gram_certificate(v, measure) is None
        check, builds = _counted_isometry_check(v, measure)
        assert check.is_isometry and check.gram_defect <= 1e-12
        assert builds == (measure is not None)
    # a conjugation near the threshold: the residual's delta straddles it
    conjugation = SuperOperator.ad_unitary(random_unitary(n, rng))
    noise = ginibre(n * n, rng)
    near = SuperOperator(n, conjugation.matrix + 0.5 * threshold(float(n)) / np.linalg.norm(noise) * noise)
    readings = list(_choi_pivot_reading(near.matrix))
    assert any(abs(d0 - threshold(float(n))) <= delta for d0, delta in _factor_gram_defects(readings, None))
    assert _gram_certificate(near, None) is None
    assert isometry_check(near, None, 2.0).gram_defect == _dense_gram_defect(near, None)
    with pytest.raises(DimensionMismatchError):
        isometry_check(u, QuantumMeasure(random_density(n + 1, rng)), 2.0)


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

    return _from_apply(2, fn)


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


def test_lamperti_refuses_a_unital_remainder_that_fails_jordan_check():
    # T = (1 - eps) id + eps (X -> tr(X)/n 1) is unital, so W = 1, scale = 1
    # and the remainder is T itself, which squares E_01 + E_10 wrongly
    n, eps = 3, 1e-3
    t = _from_apply(n, lambda x: (1 - eps) * x + eps * np.trace(x) / n * np.eye(n))
    check = jordan_check(t)
    assert not check.is_jordan
    for p in (1.0, 2.0, 3.0, math.inf):
        with pytest.raises(NotDecomposableError, match="^remainder is not a Jordan automorphism") as info:
            lamperti_decompose(t, p)
        assert info.value.reason.endswith("defect 2.448e-03")
        assert info.value.defect == check.defect
        assert np.array_equal(info.value.witness, check.worst_input)


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
            rhs = dec.scale**p * np.trace(dec.canonical.apply(x))
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_a_map_of_another_size_than_the_state_is_refused_before_any_stage():
    # integrability_constant, implementability_check and the change of
    # representation answered "no" for the negated identity on 3 x 3
    # matrices against a 2 x 2 state
    negated, m = SuperOperator(3, -np.eye(9)), maximally_mixed(2)
    refusal = "^matrix dim 3 does not match state dim 2$"
    calls = (
        lambda: integrability_constant(negated, m),
        lambda: implementability_check(negated, m, 2.0),
        lambda: weighted_isometry_transport(negated, m, 2.0),
        lambda: change_of_representation_demo(np.eye(3), negated, m, 1),
        lambda: change_of_representation_demo(np.eye(3), SuperOperator.identity(2), m, 1),
        lambda: change_of_representation_demo(np.eye(2), negated, m, 1),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError, match=refusal):
            call()


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


def test_transport_holds_one_kron_factor_at_a_time():
    rng = rng_from(27)
    n = 12
    m = QuantumMeasure(random_density(n, rng))
    v = SuperOperator(n, ginibre(n * n, rng))
    for p, inverse in ((1.0, False), (3.0, True)):
        root, root_inv = m.power(1.0 / (2.0 * p)), m.power(-1.0 / (2.0 * p))
        forward, backward = np.kron(root.T, root), np.kron(root_inv.T, root_inv)
        reference = backward @ v.matrix @ forward if inverse else forward @ v.matrix @ backward
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = weighted_isometry_transport(v, m, p, inverse=inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.matrix, reference)
        # the result, one product and one kron factor; never both factors
        assert peak - base <= 3.5 * v.matrix.nbytes


@pytest.mark.parametrize("held", [False, True], ids=["plain", "argument-held"])
def test_a_positive_implementability_check_holds_about_five_n2_by_n2_arrays(monkeypatch, held):
    # implementability_check passes the transported map to lamperti_decompose
    # unnamed, which drops it once J exists.  From CPython 3.11 the callee's
    # frame takes over its call arguments, so the map is freed then; on 3.10
    # the caller's stack holds it until the call returns, one n^4 array more.
    # The held case wraps lamperti_decompose in a frame that holds its
    # argument, so the 3.10 figure is checked on every interpreter.
    if held:
        decompose = superop.lamperti_decompose

        def holding(t, *args, **kwargs):
            return decompose(t, *args, **kwargs)

        monkeypatch.setattr(superop, "lamperti_decompose", holding)
    bound = 6.5 if held or sys.version_info < (3, 11) else 5.5
    rng = rng_from(51)
    n = 16
    m = QuantumMeasure(random_density(n, rng))
    w = rng.random(n) + 0.25
    diagonal = QuantumMeasure(np.diag(w / w.sum()).astype(complex))
    phases = np.diag(np.exp(2j * np.pi * rng.random(n)))
    cases = (
        (SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng)), m, KIND_ISO),
        (canonical_jordan(KIND_ANTI, phases), diagonal, KIND_ANTI),
    )
    for v, measure, kind in cases:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = implementability_check(v, measure, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.implementable and report.kind == kind
        # J, the eigenvectors of its Choi matrix, the canonical map, their
        # difference and its squared moduli, plus the transported map while
        # a frame holds it; no square defect or Choi copy is alive then
        assert peak - base <= bound * v.matrix.nbytes


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
    assert report.defects["jordan_match"] < 1e-8
    assert report.jordan is not None


def test_implementability_transpose_at_uniform_state():
    report = implementability_check(SuperOperator.transpose_map(3), maximally_mixed(3), 2.0)
    assert report.implementable
    assert report.kind == KIND_ANTI


def test_implementability_scalar_expectation_not_onto():
    rng = rng_from(29)
    rho = random_density(3, rng).matrix
    v = _from_apply(3, lambda x: np.trace(rho @ x) * np.eye(3))
    report = implementability_check(v, QuantumMeasure(rho), 2.0)
    assert not report.implementable
    assert report.failure == "onto"


def _jordan_match_fixture():
    """V = tau^-1 o Ad(U) o tau at p = 1 for a rotation U of two nearly equal
    eigenvectors of rho: unital within tolerance, yet V is not Ad(U)."""
    n = 16
    u = np.eye(n, dtype=complex)
    c, s = math.cos(0.7), math.sin(0.7)
    u[:2, :2] = [[c, -s], [s, c]]
    lam = np.linspace(1.0, 2.0, n)
    lam[1] = lam[0] * (1.0 + 10.0**-8.6)
    m = QuantumMeasure(np.diag(lam / lam.sum()).astype(complex))
    return weighted_isometry_transport(SuperOperator.ad_unitary(u), m, 1.0, inverse=True), m, 1.0


def _stage_fixture(stage):
    """(map, state, p) of a map whose implementability check ends at ``stage``."""
    if stage == "jordan_match":
        return _jordan_match_fixture()
    n, eps = 3, 1e-6
    rng = rng_from(58)
    m = maximally_mixed(n)
    e = hermitian_part(ginibre(n, rng))
    e /= np.linalg.norm(e)
    h = np.triu(rng.standard_normal((n, n)), 1)
    fixtures = {
        None: lambda: SuperOperator.ad_unitary(random_unitary(n, rng)),
        "unitality": lambda: SuperOperator.ad_unitary(random_unitary(n, rng)).scaled(2.0),
        # X -> (2 tr X / n) 1 - X preserves Hermiticity; X -> X + eps [E, X] does not
        "positivity": lambda: _from_apply(n, lambda x: 2.0 * np.trace(x) / n * np.eye(n) - x),
        "positivity-star": lambda: _from_apply(n, lambda x: x + eps * (e @ x - x @ e)),
        "onto": lambda: _from_apply(n, lambda x: np.trace(x) / n * np.eye(n)),
        "isometry": lambda: _from_apply(n, lambda x: (x + np.trace(x) / n * np.eye(n)) / 2.0),
        # the Schur multiplier by 1 + i eps (h - h^T): positive and an L^2
        # isometry to within eps^2, yet eps away from every Jordan map
        "decomposition": lambda: SuperOperator(n, np.diag(vec(np.ones((n, n)) + 1j * eps * (h - h.T)))),
    }
    return fixtures[stage](), m, 2.0


def test_implementability_fails_the_jordan_match_within_its_window():
    v, m, p = _jordan_match_fixture()
    n = v.dim
    for seed in range(3):
        report = implementability_check(v, m, p, seed=seed)
        assert report.failure == "jordan_match"
        assert report.decomposition is not None and report.jordan is None
        assert 2e-9 < report.defects["unitality"] <= threshold(math.sqrt(n))
        assert threshold(1.0) < report.defects["jordan_match"] < 2e-9


def test_implementability_defect_report_is_structured():
    rng = rng_from(30)
    m = maximally_mixed(2)
    v = SuperOperator.ad_unitary(random_unitary(2, rng))
    report = implementability_check(v, m, 2.0)
    defects = report.defects
    assert set(defects) >= {"unitality", "positivity", "isometry"}
    assert all(isinstance(value, float) for value in defects.values())


#: (fixture, failure, defects reached) of each way the check ends
STAGE_CASES = [
    (None, None, "unitality positivity isometry w_phase scale jordan_match"),
    ("unitality", "unitality", "unitality"),
    ("positivity", "positivity", "unitality positivity"),
    ("positivity-star", "positivity", "unitality positivity star"),
    ("onto", "onto", "unitality positivity isometry"),
    ("isometry", "isometry", "unitality positivity isometry"),
    ("decomposition", "decomposition: ", "unitality positivity isometry"),
    ("jordan_match", "jordan_match", "unitality positivity isometry w_phase scale jordan_match"),
]


@pytest.mark.parametrize("stage, failure, reached", STAGE_CASES, ids=[c[0] or "implementable" for c in STAGE_CASES])
def test_the_defects_table_holds_each_reached_stage_once_in_order(stage, failure, reached):
    v, m, p = _stage_fixture(stage)
    report = implementability_check(v, m, p)
    if failure is None or not failure.endswith(": "):
        assert report.failure == failure
    else:
        assert report.failure.startswith(failure)
    assert list(report.defects) == reached.split()
    assert all(type(value) is float for value in report.defects.values())
    assert (report.jordan is None, report.kind is None) == (failure is not None,) * 2
    if report.isometry is None:
        assert "isometry" not in report.defects
    else:
        assert report.defects["isometry"] == report.isometry.max_rel_defect
    if report.decomposition is None:
        assert "scale" not in report.defects
    else:
        assert report.defects["scale"] == abs(report.decomposition.scale - 1.0)


def test_implementability_accept_path_takes_no_n2_svd_and_one_transport(monkeypatch):
    shapes, builds = [], []
    svd, transport = np.linalg.svd, superop.weighted_isometry_transport

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counted_transport(*args, **kwargs):
        builds.append(args)
        return transport(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(superop, "weighted_isometry_transport", counted_transport)
    rng = rng_from(45)
    n = 5
    m = QuantumMeasure(random_density(n, rng))
    w = rng.random(n) + 0.25
    diagonal = QuantumMeasure(np.diag(w / w.sum()).astype(complex))
    phases = np.diag(np.exp(2j * np.pi * rng.random(n)))
    cases = (
        (SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng)), m, KIND_ISO),
        (canonical_jordan(KIND_ANTI, phases), diagonal, KIND_ANTI),
    )
    for v, measure, kind in cases:
        for p in (1.0, 2.0, 3.0):
            shapes.clear()
            builds.clear()
            report = implementability_check(v, measure, p)
            assert report.implementable and report.kind == kind
            assert shapes and all(shape[-2:] != (n * n, n * n) for shape in shapes)
            assert len(builds) == 1


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
    # the Jordan remainder scale^-1 W* T that lamperti_decompose classifies
    remainder = SuperOperator(n, (dagger(dec.w) @ t.matrix.reshape(n, n, -1)).reshape(n * n, n * n) / dec.scale)
    expected = (
        (report.defects["jordan_match"], lambda e: v.apply(e) - canonical.apply(e)),
        (dec.residual, lambda e: t.apply(e) - dec.scale * dec.w @ canonical.apply(e)),
        (jordan_classify(remainder).residual, lambda e: remainder.apply(e) - canonical.apply(e)),
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


def test_each_map_reads_its_choi_pivot_once(monkeypatch):
    # the pivot reading lives on the map: isometry_check, jordan_check,
    # jordan_classify and inverse share one reading per distinct matrix
    reading, seen = superop._choi_pivot_reading, []

    def counted(m):
        seen.append(m.tobytes())
        return reading(m)

    monkeypatch.setattr(superop, "_choi_pivot_reading", counted)
    rng = rng_from(54)
    n = 4
    m = QuantumMeasure(random_density(n, rng))
    v = SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng))
    u, w0 = random_unitary(n, rng), random_unitary(n, rng)
    lam = SuperOperator.ad_unitary(w0)
    j = json.dumps({"J": superop_to_json(canonical_jordan(KIND_ANTI, w0))})
    runs = (
        # V and its Jordan remainder, then the remainder alone: V keeps its reading
        (lambda: implementability_check(v, m, 1.0).implementable, 2),
        (lambda: implementability_check(v, m, 2.0).implementable, 1),
        (lambda: implementability_check(v, m, 3.0).implementable, 1),
        # Lambda, then V and the Jordan remainder at each of three steps
        (lambda: change_of_representation_demo(u, lam, maximally_mixed(n), 3).all_implementable, 7),
        (lambda: cli.main(["jordan", "--input", j]) == 0, 1),
    )
    for run, readings in runs:
        seen.clear()
        assert run()
        assert len(seen) == len(set(seen)) == readings


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
    # it passes jordan_check, and the classification refuses it
    assert jordan_check(pauli_mix(0.7)).is_jordan
    with pytest.raises(NotJordanError, match="^change of representation is not a Jordan automorphism: "):
        change_of_representation_demo(u, pauli_mix(0.7), m, 2)
