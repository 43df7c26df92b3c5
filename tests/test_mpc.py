"""Truncated shift model: construction fixtures, exact identities (checked
twice: through the float weighted bit shifts and through an independent
rational-arithmetic oracle over explicit coordinate sets), stochasticity,
and the implementability verdicts."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nclp import classical, mpc
from nclp.classical import multiplicativity_check
from nclp.jsonio import SchemaError
from nclp.mpc import (
    DomainEmptyError,
    InvalidSpectralFunctionError,
    SpectralFunction,
    WalshOperator,
    WindowTooLargeError,
    build_shift,
    commutation_check,
    conditional_expectation,
    lambda_build,
    time_operator,
    wt_build,
)
from nclp.sampling import rng_from

# --- independent oracle over explicit coordinate sets -------------------------


def all_subsets(n):
    window = range(-n, n + 1)
    out = []
    for r in range(0, 2 * n + 2):
        out.extend(frozenset(c) for c in combinations(window, r))
    return out


def shifted(subset, t):
    return frozenset(k + t for k in subset)


def in_window(subset, n):
    return all(-n <= k <= n for k in subset)


def exact_value(f, s):
    # the stored float is a dyadic rational, so this lift is exact
    return Fraction(f.value(s))


def dense(op):
    """The operator's matrix, column by column from its action on the basis."""
    return np.stack([op.apply(e) for e in np.eye(op.dim)], axis=1)


# --- per-mask loop references for the array expressions ----------------------


def loop_ages(n):
    ages = np.empty(1 << (2 * n + 1), dtype=int)
    ages[0] = -n - 1
    for mask in range(1, ages.size):
        ages[mask] = mask.bit_length() - 1 - n
    return ages


def loop_lambda_weights(shift, f):
    diag = np.array([f.value(a) for a in loop_ages(shift.half_width)])
    diag[0] = 1.0
    return diag


def loop_wt_weights(shift, f, t):
    ages = loop_ages(shift.half_width)
    weights = np.zeros(shift.dim)
    weights[0] = 1.0
    for mask in range(1, shift.dim):
        if mask << t < shift.dim:
            weights[mask] = f.value(ages[mask] + t) / f.value(ages[mask])
    return weights


def loop_adjoint_multipliers(shift, t, age_multiplier):
    n = shift.half_width
    g = np.empty(1 << (2 * n + 1 - t))
    g[0] = 1.0
    for mask in range(1, g.size):
        g[mask] = age_multiplier(mask.bit_length() - 1 + (-n + t))
    return g


def dense_walsh_grid(g):
    """H diag(g) H / d with H = fwht(eye) the dense +-1 Walsh matrix."""
    h = mpc.fwht(np.eye(g.size))
    return (h * g) @ h / g.size


def xor_gather(k):
    """The d x d XOR convolution K[x, y] = k[x ^ y] of a kernel k."""
    return k[np.bitwise_xor.outer(np.arange(k.size), np.arange(k.size))]


# --- construction fixtures -----------------------------------------------------


def test_build_shift_small_window():
    shift = build_shift(1)
    assert shift.dim == 8
    ages = [loop_ages(1)[shift.index_of(s)] for s in all_subsets(1) if s]
    assert sorted(set(ages)) == [-1, 0, 1]


def test_build_shift_rejects_large_windows():
    with pytest.raises(WindowTooLargeError):
        build_shift(10)
    with pytest.raises(WindowTooLargeError):
        build_shift(0)


@pytest.mark.parametrize("coordinate", [0.5, -1.9, True], ids=["half", "negative-fraction", "bool"])
def test_index_of_refuses_coordinates_that_are_not_integers(coordinate):
    # int() cast them: {0.5} named {0}, {-1.9} named {-1} and {True} named {1}
    shift = build_shift(1)
    with pytest.raises(ValueError):
        shift.index_of({coordinate})
    assert shift.index_of({np.int64(1), 0.0}) == shift.index_of({1, 0}) == 6


@pytest.mark.parametrize("index", [9, 8, -1])
def test_coords_of_refuses_an_index_outside_the_window(index):
    # bits above the window were ignored: 9 read as 1, 8 as the empty set,
    # and -1 as the whole window
    shift = build_shift(1)
    with pytest.raises(ValueError):
        shift.coords_of(index)
    assert shift.coords_of(np.int64(7)) == shift.coords_of(7.0) == (-1, 0, 1)


def test_shift_moves_singletons():
    shift = build_shift(2)
    u = shift.shift_operator(1)
    src = shift.index_of({0})
    dst = shift.index_of({1})
    v = np.zeros(shift.dim)
    v[src] = 1.0
    assert u.apply(v)[dst] == 1.0


def test_shift_flags_off_window_images():
    shift = build_shift(2)
    u = shift.shift_operator(1)
    edge = shift.index_of({shift.half_width})
    assert not u.domain[edge]
    # the off-domain column is zero, never a silent wraparound
    assert np.count_nonzero(dense(u)[:, edge]) == 0


def test_shift_domain_matches_set_logic():
    n = 2
    shift = build_shift(n)
    for t in (1, 2):
        u = shift.shift_operator(t)
        for subset in all_subsets(n):
            expected = in_window(shifted(subset, t), n)
            assert u.domain[shift.index_of(subset)] == expected
    # S - 1 stays in the window by min(S), not by its age: no slot form
    with pytest.raises(ValueError):
        shift.shift_operator(-1)


def test_compose_is_the_matrix_product():
    shift = build_shift(2)
    f = SpectralFunction.logistic(2)
    u, u2, u3 = (shift.shift_operator(t) for t in (1, 2, 3))
    pairs = (
        (u, lambda_build(shift, f)),
        (wt_build(shift, f, 1), wt_build(shift, f, 2)),
        (conditional_expectation(shift, 0), u),
        (time_operator(shift), u2),
        (u2, time_operator(shift)),
        (conditional_expectation(shift, -1), wt_build(shift, f, 3)),
        (u3, u2),
    )
    for a, b in pairs:
        assert np.array_equal(dense(a.compose(b)), dense(a) @ dense(b))
    # a product of unweighted shifts moves exactly the masks of its domain
    for a, b in ((u2, u), (u, u2), (u3, u2)):
        product = a.compose(b)
        assert np.array_equal(dense(product).any(axis=0), product.domain)


def test_conditional_expectation_extremes():
    shift = build_shift(2)
    top = conditional_expectation(shift, shift.half_width)
    assert np.allclose(dense(top), np.eye(shift.dim))
    bottom = conditional_expectation(shift, -shift.half_width - 1)
    diag = np.diag(dense(bottom))
    assert diag[0] == 1.0 and np.all(diag[1:] == 0.0)


def test_conditional_expectation_age_zero_fixture():
    shift = build_shift(1)
    diag = np.diag(dense(conditional_expectation(shift, 0)))
    kept = {shift.coords_of(i) for i in range(shift.dim) if diag[i] == 1.0}
    assert kept == {(), (-1,), (0,), (-1, 0)}


def test_conditional_expectation_range_validation():
    shift = build_shift(1)
    with pytest.raises(ValueError):
        conditional_expectation(shift, 2)


def test_time_operator_max_rule():
    shift = build_shift(1)
    t = time_operator(shift)
    diag = np.diag(dense(t))
    assert diag[shift.index_of({-1, 1})] == 1.0
    assert diag[shift.index_of({0})] == 0.0
    assert not t.domain[0]
    multiplicities = {}
    for idx in range(1, shift.dim):
        multiplicities[diag[idx]] = multiplicities.get(diag[idx], 0) + 1
    assert multiplicities == {-1.0: 1, 0.0: 2, 1.0: 4}


def test_commutation_identity_exact():
    for n, t in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 0)):
        shift = build_shift(n)
        assert commutation_check(shift.shift_operator(t)) == 0.0


def test_commutation_oracle_set_logic():
    # ages of shifted subsets move by exactly t, by independent arithmetic
    n = 2
    for t in (1, 2):
        for subset in all_subsets(n):
            if not subset or not in_window(shifted(subset, t), n):
                continue
            assert max(shifted(subset, t)) == max(subset) + t


# --- spectral functions ---------------------------------------------------------


def test_spectral_function_logistic_is_valid():
    f = SpectralFunction.logistic(3)
    assert (f.values[1:] < f.values[:-1]).all()
    assert abs(f.value(0) - 0.5) < 1e-15


def test_spectral_function_rejects_bad_tables():
    with pytest.raises(InvalidSpectralFunctionError):
        SpectralFunction.from_table(1, [1.0, 0.9, 0.8, -0.1, 0.05])
    with pytest.raises(InvalidSpectralFunctionError):
        SpectralFunction.from_table(1, [0.5, 0.9, 0.8, 0.7, 0.6])
    # upward log second difference: f(s)^2 < f(s-1) f(s+1)
    with pytest.raises(InvalidSpectralFunctionError):
        SpectralFunction.from_table(1, [1.0, 0.5, 0.1, 0.09, 0.089])


def test_spectral_function_constant_is_flagged_but_usable():
    f = SpectralFunction.constant(2)
    # not strictly decreasing, as its values show
    assert not (f.values[1:] < f.values[:-1]).all()
    shift = build_shift(2)
    lam = lambda_build(shift, f)
    assert np.allclose(dense(lam), np.eye(shift.dim))


def test_spectral_function_geometric_table_allowed():
    # log-affine values sit exactly at the log-concavity boundary
    SpectralFunction.from_table(1, [2.0**-s for s in range(-2, 3)])


def test_a_spectral_function_keeps_its_own_values():
    # the caller's array was kept: a write after validation reached the
    # step, which then read weight 6.25 and contraction violation 5.25
    v = np.array([1.0, 0.8, 0.5, 0.3, 0.1])
    f = SpectralFunction(-2, 2, v)
    v[2] = 5.0
    assert f.values.tolist() == [1.0, 0.8, 0.5, 0.3, 0.1]
    step = wt_build(build_shift(1), f, 1)
    assert mpc.contraction_violation(step) == 0.0 and step.slot_weights.max() <= 1.0
    with pytest.raises(InvalidSpectralFunctionError, match="non-increasing"):
        SpectralFunction(-2, 2, v)
    for table in (f, SpectralFunction.logistic(1), SpectralFunction.constant(1), SpectralFunction.from_table(1, np.ones(5))):
        with pytest.raises(ValueError, match="read-only"):
            table.values[0] = -1.0


def test_built_in_spectral_functions_are_window_tables():
    for build in (SpectralFunction.logistic, SpectralFunction.constant):
        assert build(3) is build(3) is build(3.0) is build(np.int64(3))
        assert build(3) is not build(4)
    values = np.ones(7)
    assert SpectralFunction.from_table(2, values) is not SpectralFunction.from_table(2, values)


def test_lambda_build_logistic_fixture():
    shift = build_shift(1)
    diag = np.diag(dense(lambda_build(shift, SpectralFunction.logistic(1))))
    assert diag[shift.index_of({0})] == 0.5
    assert diag[0] == 1.0


def test_lambda_fixes_constants_for_every_f():
    shift = build_shift(2)
    for f in (SpectralFunction.logistic(2), SpectralFunction.constant(2)):
        assert np.diag(dense(lambda_build(shift, f)))[0] == 1.0


# --- the semigroup --------------------------------------------------------------


def test_wt_multiplier_fixture():
    shift = build_shift(1)
    f = SpectralFunction.logistic(1)
    w = wt_build(shift, f, 1)
    src = shift.index_of({0})
    dst = shift.index_of({1})
    assert abs(dense(w)[dst, src] - 2.0 / (1.0 + math.e)) < 1e-15


def test_wt_constant_f_is_plain_shift():
    shift = build_shift(2)
    w = wt_build(shift, SpectralFunction.constant(2), 1)
    u = shift.shift_operator(1)
    assert np.count_nonzero(dense(w) - dense(u)) == 0


def test_wt_validation():
    shift = build_shift(1)
    f = SpectralFunction.logistic(1)
    with pytest.raises(ValueError):
        wt_build(shift, f, 0)
    with pytest.raises(DomainEmptyError):
        wt_build(shift, f, 3)
    # the coarse step checks t by the same rule, with the same errors
    for n in (1, 2, 3):
        shift = build_shift(n)
        f = SpectralFunction.logistic(n)
        for t, error in ((0, ValueError), (2 * n + 1, DomainEmptyError)):
            with pytest.raises(error) as semigroup:
                wt_build(shift, f, t)
            with pytest.raises(error) as coarse:
                mpc.coarse_grained_wt(shift, 0, t)
            assert type(coarse.value) is type(semigroup.value) is error
            assert str(coarse.value) == str(semigroup.value)


def test_intertwining_float_and_exact_oracle():
    for n, t in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        shift = build_shift(n)
        f = SpectralFunction.logistic(n)
        w = wt_build(shift, f, t)
        assert mpc.intertwining_defect(w, lambda_build(shift, f), shift.shift_operator(t)) <= 1e-12
        # oracle: exact rational identity per coordinate set
        w_matrix = dense(w)
        for subset in all_subsets(n):
            if not subset:
                continue
            image = shifted(subset, t)
            if not in_window(image, n):
                assert not w.domain[shift.index_of(subset)]
                continue
            lhs = exact_value(f, max(subset)) * (
                exact_value(f, max(subset) + t) / exact_value(f, max(subset))
            )
            rhs = exact_value(f, max(image))
            assert lhs == rhs
            # and the stored float entry is the correctly rounded ratio
            entry = w_matrix[shift.index_of(image), shift.index_of(subset)]
            assert entry == float(exact_value(f, max(subset) + t) / exact_value(f, max(subset)))


def test_semigroup_float_and_exact_oracle():
    for n, s, t in ((2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 2)):
        shift = build_shift(n)
        f = SpectralFunction.logistic(n)
        assert mpc.semigroup_defect(wt_build(shift, f, s), wt_build(shift, f, t), wt_build(shift, f, s + t)) <= 1e-12
        for subset in all_subsets(n):
            if not subset or not in_window(shifted(subset, s + t), n):
                continue
            m = max(subset)
            stepwise = (exact_value(f, m + t) / exact_value(f, m)) * (
                exact_value(f, m + t + s) / exact_value(f, m + t)
            )
            direct = exact_value(f, m + s + t) / exact_value(f, m)
            assert stepwise == direct


def _filtration_defect_loop(shift):
    """The oracle for ``filtration_defect``: one d-length product per pair
    of times."""
    n = shift.half_width
    times = range(-n - 1, n + 1)
    projectors = {t: mpc.conditional_expectation(shift, t).weights for t in times}
    worst = 0.0
    for s in times:
        for t in times:
            product = projectors[s] * projectors[t]
            worst = max(worst, float(np.max(np.abs(product - projectors[min(s, t)]))))
    return worst


def _time_consistency_defect_loop(shift):
    """The oracle for ``time_consistency_defect``: the telescoping sum
    accumulated one time at a time."""
    n = shift.half_width
    total = np.zeros(shift.dim)
    prev = mpc.conditional_expectation(shift, -n - 1).weights
    for t in range(-n, n + 1):
        cur = mpc.conditional_expectation(shift, t).weights
        total += t * (cur - prev)
        prev = cur
    reference = mpc.time_operator(shift)
    mask = reference.domain
    return float(np.max(np.abs(total[mask] - reference.weights[mask])))


def test_filtration_and_time_consistency_exact(monkeypatch):
    for n in range(1, 7):
        shift = build_shift(n)
        assert mpc.filtration_defect(shift) == _filtration_defect_loop(shift) == 0.0
        assert mpc.time_consistency_defect(shift) == _time_consistency_defect_loop(shift) == 0.0
    original = mpc._filtration
    halved_slot = 1

    def halved(sites):
        # the rule for E_t, with E_N's weight of one age slot halved
        table = original(sites).copy()
        table[-1, halved_slot] = 0.5
        return table

    def clear_defects():
        # the defects are cached by window size: each patched rule needs
        # empty caches, and the last one must not outlive this test
        mpc.filtration_defect.cache_clear()
        mpc.time_consistency_defect.cache_clear()

    monkeypatch.setattr(mpc, "_filtration", halved)
    try:
        clear_defects()
        for n in range(1, 7):
            shift = build_shift(n)
            # slot 1 holds mask 1 = {-N} alone
            assert mpc.filtration_defect(shift) == _filtration_defect_loop(shift) == 0.5
            assert mpc.time_consistency_defect(shift) == _time_consistency_defect_loop(shift) == n / 2
        halved_slot = 2
        clear_defects()
        for n in range(1, 7):
            shift = build_shift(n)
            # slot 2 holds masks 2 and 3, {-N + 1} and {-N, -N + 1}
            assert mpc.filtration_defect(shift) > 0.0 and _filtration_defect_loop(shift) > 0.0
            assert mpc.time_consistency_defect(shift) > 0.0 and _time_consistency_defect_loop(shift) > 0.0
    finally:
        clear_defects()


def test_contraction_multipliers_in_unit_interval():
    shift = build_shift(3)
    f = SpectralFunction.logistic(3)
    for t in (1, 2, 3):
        w = wt_build(shift, f, t)
        assert mpc.contraction_violation(w) == 0.0
        data = w.weights[w.domain]
        assert np.all(data > 0.0) and np.all(data <= 1.0)


# --- grid transform --------------------------------------------------------------


def test_walsh_to_grid_constants_and_single_site():
    shift = build_shift(1)
    e_empty = np.zeros(shift.dim)
    e_empty[0] = 1.0
    assert np.array_equal(mpc.fwht(e_empty), np.ones(shift.dim))
    e0 = np.zeros(shift.dim)
    e0[shift.index_of({0})] = 1.0
    values = mpc.fwht(e0)
    assert set(values) == {-1.0, 1.0}
    # sign flips exactly with the bit of coordinate 0
    bit = shift.index_of({0})
    assert all(values[x] == (1.0 if not x & bit else -1.0) for x in range(shift.dim))


def test_grid_round_trip_and_parseval():
    shift = build_shift(3)
    rng = rng_from(0)
    grid = rng.standard_normal(shift.dim)
    coeffs = mpc.fwht(grid) / shift.dim
    back = mpc.fwht(coeffs)
    assert np.max(np.abs(back - grid)) <= 1e-12
    assert abs(np.mean(grid**2) - np.sum(coeffs**2)) <= 1e-12


def _fwht_concatenate(values):
    """The butterfly stages as two half-size temporaries and one concatenate,
    the oracle for ``fwht``."""
    a = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
    n = a.shape[0]
    rest = a.shape[1:]
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, *rest)
        a = np.concatenate((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    return a.reshape(n, *rest)


def _transform_inputs(real, imag, rng):
    """Every layout ``fwht`` must take: 1-d, 2-d, complex, a Fortran-ordered
    copy, a strided view and an integer array with two trailing axes."""
    n = real.shape[0]
    return (
        real[:, 0],
        real,
        real + 1j * imag,
        real[:, 0] + 1j * real[:, 1],
        np.asfortranarray(real),
        real[:, ::2],
        rng.integers(-3, 4, size=(n, 2, 3)),
    )


def test_in_place_fwht_matches_the_concatenating_stages():
    # the radix-16 products add in another order than the butterfly: equal
    # bit for bit wherever every partial sum is an integer, and otherwise
    # within the two summation bounds, (15/4 + 1) L u ||x||_1 per real part
    # with u = eps / 2, times sqrt(2) for complex values: below 4 L eps ||x||_1
    rng = rng_from(43)
    eps = np.finfo(float).eps
    # lengths with one, two and four bit groups, a short top group among them
    for n in (1, 2, 8, 32, 64, 512, 8192):
        levels = max(1, n.bit_length() - 1)
        integer = rng.integers(-3, 4, size=(n, 5)).astype(float)
        real = rng.standard_normal((n, 5))
        exact = _transform_inputs(integer, integer[::-1], rng)
        rounded = _transform_inputs(real, rng.standard_normal((n, 5)), rng)[:-1]
        for values, is_exact in [(v, True) for v in exact] + [(v, False) for v in rounded]:
            before = np.array(values, copy=True)
            out, oracle = mpc.fwht(values), _fwht_concatenate(values)
            assert out.dtype == oracle.dtype and out.shape == oracle.shape
            assert out.flags.c_contiguous
            assert np.array_equal(values, before)
            if is_exact:
                assert np.array_equal(out, oracle)
            else:
                bound = 4 * levels * eps * np.abs(values).sum(axis=0)
                assert np.all(np.abs(out - oracle) <= bound)
    with pytest.raises(ValueError):
        mpc.fwht(np.ones(6))


def test_hadamard_blocks_are_symmetric_sign_matrices():
    for m in (1, 2, 4, 8, 16):
        h = mpc._hadamard(m)
        assert h.shape == (m, m) and np.array_equal(h, h.T)
        assert set(np.unique(h)) <= {-1.0, 1.0}
        assert np.array_equal(h @ h, m * np.eye(m))
        assert mpc._hadamard(m) is h
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = -1.0


def test_walsh_products_are_symmetric_differences():
    shift = build_shift(2)
    rng = rng_from(1)
    subsets = all_subsets(2)
    for _ in range(20):
        r = subsets[rng.integers(len(subsets))]
        q = subsets[rng.integers(len(subsets))]
        er, eq = np.zeros(shift.dim), np.zeros(shift.dim)
        er[shift.index_of(r)] = 1.0
        eq[shift.index_of(q)] = 1.0
        product = mpc.fwht(er) * mpc.fwht(eq)
        esym = np.zeros(shift.dim)
        esym[shift.index_of(r ^ q)] = 1.0
        assert np.array_equal(product, mpc.fwht(esym))


# --- stochasticity and implementability ------------------------------------------


def stochasticity_of(op):
    """``mpc._stochasticity_of`` of the step ``op``, given the kernel that its
    verdict reads."""
    return mpc._stochasticity_of(op, mpc._step_kernel(mpc._step_weights(op)))


def test_stochasticity_logistic():
    shift = build_shift(3)
    suite = stochasticity_of(wt_build(shift, SpectralFunction.logistic(3), 1))
    assert suite.positivity_defect <= 1e-10
    assert suite.mass_defect == 0.0
    assert suite.unitality_defect == 0.0
    assert suite.domain_fraction == 0.5


def hand_built_step(shift, raw, t):
    """The semigroup step of a positive non-increasing table ``raw`` (age ->
    value on [-N-1, N+1]) that need not be a SpectralFunction, by age slot."""
    weights = np.zeros(shift.sites + 1)
    weights[0] = 1.0
    domain = np.zeros(shift.sites + 1, dtype=bool)
    domain[0] = True
    for slot in range(1, shift.sites + 1 - t):
        age = slot - 1 - shift.half_width
        weights[slot] = raw[age + t] / raw[age]
        domain[slot] = True
    return WalshOperator(t, weights, domain)


#: a positive decreasing table with an upward log second difference
EXPLORATORY = {-3: 1.0, -2: 0.9, -1: 0.5, 0: 0.05, 1: 0.045, 2: 0.044, 3: 0.0439}


def test_stochasticity_exploratory_non_log_concave():
    # the table cannot be a SpectralFunction, so its step is built by hand;
    # without log-concavity the step is not positive
    shift = build_shift(2)
    suite = stochasticity_of(hand_built_step(shift, EXPLORATORY, 1))
    print(f"exploratory non-log-concave positivity defect: {suite.positivity_defect:.3e}")
    assert suite.positivity_defect > 0.0
    assert suite.mass_defect == 0.0 and suite.unitality_defect == 0.0


def test_stochasticity_reports_lost_mass():
    shift = build_shift(1)
    weights = np.ones(shift.sites + 1)
    weights[0] = 0.5
    op = WalshOperator(0, weights, np.ones(shift.sites + 1, dtype=bool))
    suite = stochasticity_of(op)
    assert suite.mass_defect == 0.5 and suite.unitality_defect == 0.5


def _positivity_defect_loop(op, shift, t, samples, seed):
    """The sampled positivity defect, one density at a time: the largest
    max(0, -min out) over densities of the low 2N+1-t coordinates, each the
    group mean of uniform [0, 1] draws."""
    rng = rng_from(seed)
    d = shift.dim
    block = 1 << (2 * shift.half_width + 1 - t)
    defect = 0.0
    for _ in range(samples):
        grid = np.tile(rng.random(d).reshape(d // block, block).mean(axis=0), d // block)
        out = mpc.fwht(op.apply(mpc.fwht(grid) / d))
        defect = max(defect, max(0.0, -float(np.min(out.real))))
    return defect


def dense_kernel(op, shift, t):
    """The step's kernel H m / block with H the dense +-1 Walsh matrix."""
    block = 1 << (2 * shift.half_width + 1 - t)
    m = np.where(op.domain[:block], op.weights[:block], 0.0)
    return mpc.fwht(np.eye(block)) @ m / block


def stochasticity_operators():
    """(shift, t, op): a step, a coarse-graining, and two that go negative."""
    for n in (1, 2, 3, 4):
        shift = build_shift(n)
        slots = np.arange(shift.sites + 1)
        for t in (1, 2):
            # 11 * mean - 10 * U_t f: negative wherever a density exceeds 1.1
            # times its mean
            u = shift.shift_operator(t)
            reflect = WalshOperator(t, np.where(slots == 0, 1.0, -10.0 * u.slot_weights), u.slot_domain)
            wt = wt_build(shift, SpectralFunction.logistic(n), t)
            # the step with its non-constant part reflected: negative, and
            # where depends on which coordinates a density involves
            flipped = WalshOperator(t, np.where(slots == 0, 1.0, -10.0 * wt.slot_weights), wt.slot_domain)
            for op in (wt, mpc.coarse_grained_wt(shift, 0, t), reflect, flipped):
                yield shift, t, op


@st.composite
def non_log_concave_tables(draw):
    """(N, t, table): positive, non-increasing, not log-concave, N <= 4."""
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 2))
    ratios = draw(st.lists(st.floats(0.05, 1.0), min_size=2 * n + 2, max_size=2 * n + 2))
    # log-concave exactly when the ratios of neighbours never increase
    assume(any(b > a * (1 + 1e-6) for a, b in zip(ratios, ratios[1:])))
    values = np.cumprod([1.0, *ratios])
    return n, t, dict(zip(range(-n - 1, n + 2), values))


def assert_sample_below_exact_defect(shift, t, op, seed):
    exact = stochasticity_of(op).positivity_defect
    assert _positivity_defect_loop(op, shift, t, 20, seed) <= exact
    assert (exact > 0.0) == (float(np.min(dense_kernel(op, shift, t))) < 0.0)


def test_sampled_defect_never_exceeds_the_exact_one():
    for shift, t, op in stochasticity_operators():
        assert np.array_equal(op.apply(np.eye(shift.dim)), dense(op))
        assert_sample_below_exact_defect(shift, t, op, shift.half_width)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=non_log_concave_tables(), seed=st.integers(0, 2**32 - 1))
def test_sampled_defect_never_exceeds_the_exact_one_without_log_concavity(case, seed):
    n, t, raw = case
    shift = build_shift(n)
    assert_sample_below_exact_defect(shift, t, hand_built_step(shift, raw, t), seed)


def test_exact_positivity_defect_is_reached():
    # the indicator of {y : k[x ^ y] < 0} reaches -sum max(0, -k) at x; the
    # d-length round trip relabels x, so the minimum over the grid is it
    cases = [*stochasticity_operators(), (build_shift(2), 1, hand_built_step(build_shift(2), EXPLORATORY, 1))]
    reached = 0
    for shift, t, op in cases:
        d = shift.dim
        k = dense_kernel(op, shift, t)
        exact = stochasticity_of(op).positivity_defect
        assert exact == pytest.approx(float(np.sum(np.maximum(0.0, -k))), rel=1e-12, abs=1e-15)
        x = int(np.argmin(k))
        density = (k[x ^ np.arange(k.size)] < 0).astype(float)
        out = mpc.fwht(op.apply(mpc.fwht(np.tile(density, d // k.size)) / d))
        assert float(np.min(out)) == pytest.approx(-exact, rel=1e-12, abs=1e-12)
        reached += exact > 0.0
    assert reached == 17


def test_exact_positivity_defect_is_zero_on_every_valid_case():
    for n in range(1, 7):
        shift = build_shift(n)
        for t in range(1, 2 * n + 1):
            suites = [stochasticity_of(wt_build(shift, f, t)) for f in
                      (SpectralFunction.logistic(n), SpectralFunction.constant(n))]
            suites += [stochasticity_of(mpc.coarse_grained_wt(shift, s0, t)) for s0 in range(-n - 1, n + 1)]
            for suite in suites:
                # +0.0, which serializes as 0.0, never -0.0
                assert suite.positivity_defect == 0.0 and math.copysign(1.0, suite.positivity_defect) == 1.0


def test_stochasticity_rejects_a_negative_shift():
    # a negative shift would move masks above the block into it; neither the
    # shift model nor a hand-built operator can make one
    shift = build_shift(2)
    with pytest.raises(ValueError):
        stochasticity_of(shift.shift_operator(-1))
    with pytest.raises(ValueError):
        WalshOperator(-1, np.ones(shift.sites + 1), np.ones(shift.sites + 1, dtype=bool))


def test_stochasticity_sample_allocates_at_block_size():
    n, t = 5, 2
    shift = build_shift(n)
    op = wt_build(shift, SpectralFunction.logistic(n), t)
    block = 1 << (2 * n + 1 - t)
    assert shift.dim == 4 * block
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stochasticity_of(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few block-length arrays; the sample's draw alone held 400 of them
    assert peak - base <= 8 * block * 8


def test_implementability_logistic_negative_with_oracle_bound():
    shift = build_shift(3)
    f = SpectralFunction.logistic(3)
    verdict = mpc.mpc_implementability(shift, f, 1)
    bound = mpc.multiplicativity_lower_bound(verdict.step)
    assert mpc.mpc_implementability(shift, f, 1) == verdict and verdict.convolution.kernel.size == 64
    assert not verdict.implementable
    assert bound > 0.0
    assert verdict.defect >= bound


def test_implementability_constant_f_positive():
    shift = build_shift(3)
    verdict = mpc.mpc_implementability(shift, SpectralFunction.constant(3), 1)
    assert verdict.implementable
    assert verdict.defect == 0.0


def test_implementability_negative_for_every_strictly_decreasing_f():
    shift = build_shift(2)
    geometric = SpectralFunction.from_table(2, [2.0**-s for s in range(-3, 4)])
    steep = SpectralFunction.from_table(2, [10.0**-s for s in range(-3, 4)])
    for f, t in ((geometric, 1), (geometric, 2), (steep, 1), (SpectralFunction.logistic(2), 1)):
        verdict = mpc.mpc_implementability(shift, f, t)
        bound = mpc.multiplicativity_lower_bound(verdict.step)
        assert not verdict.implementable
        assert verdict.defect >= bound > 0.0


def test_restricted_adjoint_grid_matches_direct_construction():
    # independent route: transpose the full Walsh matrix (the basis is
    # orthonormal), restrict to the masks where the adjoint is defined,
    # translate the window, and conjugate by the sub-transform
    n, t = 2, 1
    shift = build_shift(n)
    f = SpectralFunction.logistic(n)
    adj = dense(wt_build(shift, f, t)).T
    d_sub = 1 << (2 * n + 1 - t)
    sub = np.zeros((d_sub, d_sub))
    for q in range(d_sub):  # input w_Q with full mask q << t
        for s in range(d_sub):  # output w_S with full mask s
            sub[s, q] = adj[s, q << t]
    h = mpc.fwht(np.eye(d_sub))
    direct = h @ sub @ h / d_sub
    g = mpc._step_weights(wt_build(shift, f, t))
    assert np.allclose(xor_gather(mpc._step_kernel(g)), direct, atol=1e-14)


def test_age_tables_match_mask_loops():
    for n in range(1, 7):
        shift = build_shift(n)
        assert np.array_equal(shift.slot_ages[mpc._slot_index(shift.sites)], loop_ages(n))
        # tabulated beyond the window, so every lookup must subtract s_min
        wide = SpectralFunction(-n - 3, n + 2, 1.0 / (1.0 + np.exp(np.arange(-n - 3, n + 3))))
        geometric = SpectralFunction.from_table(n, [2.0**-s for s in range(-n - 1, n + 2)])
        for f in (SpectralFunction.logistic(n), SpectralFunction.constant(n), geometric, wide):
            assert np.array_equal(lambda_build(shift, f).weights, loop_lambda_weights(shift, f))
            for t in range(1, 2 * n + 1):
                step = wt_build(shift, f, t)
                assert np.array_equal(step.weights, loop_wt_weights(shift, f, t))
                reference = loop_adjoint_multipliers(shift, t, lambda a: f.value(a) / f.value(a - t))
                assert np.array_equal(mpc._step_weights(step), reference)
        for t in range(1, 2 * n + 1):
            for s0 in range(-n - 1, n + 1):
                coarse = mpc.coarse_grained_wt(shift, s0, t)
                reference = loop_adjoint_multipliers(shift, t, lambda a: float(a <= s0))
                assert np.array_equal(mpc._step_weights(coarse), reference)


def slot_forms_and_mask_references(n):
    """(operator, per-mask weights, per-mask domain) for every builder at
    half-width n and every t, the references from per-mask loops."""
    shift = build_shift(n)
    d, ages = shift.dim, loop_ages(n)
    masks = np.arange(d)
    everywhere = np.ones(d, dtype=bool)
    geometric = SpectralFunction.from_table(n, [2.0**-s for s in range(-n - 1, n + 2)])
    spectral = (SpectralFunction.logistic(n), SpectralFunction.constant(n), geometric)
    diag = ages.astype(float)
    diag[0] = 0.0
    yield time_operator(shift), diag, masks != 0
    for s in range(-n - 1, n + 1):
        yield conditional_expectation(shift, s), ((masks == 0) | (ages <= s)).astype(float), everywhere
    for f in spectral:
        yield lambda_build(shift, f), loop_lambda_weights(shift, f), everywhere
    for t in range(0, 2 * n + 3):
        fits = np.array([m << t < d for m in range(d)])
        yield shift.shift_operator(t), fits.astype(float), fits
        if not 1 <= t <= 2 * n:
            continue
        for f in spectral:
            yield wt_build(shift, f, t), loop_wt_weights(shift, f, t), fits
        for s0 in range(-n - 1, n + 1):
            kept = fits & ((masks == 0) | (ages + t <= s0))
            yield mpc.coarse_grained_wt(shift, s0, t), kept.astype(float), fits


def test_slot_forms_match_mask_loops():
    rng = rng_from(7)
    for n in range(1, 7):
        v = rng.standard_normal((1 << (2 * n + 1), 2))
        for op, weights, domain in slot_forms_and_mask_references(n):
            assert op.slot_weights.size == op.slot_domain.size == 2 * n + 2
            assert np.array_equal(op.weights, weights)
            assert np.array_equal(op.domain, domain)
            assert op.domain_fraction == float(np.mean(domain))
            expected = np.zeros_like(v)
            src = np.flatnonzero(domain)
            expected[src << op.shift] = weights[src, None] * v[src]
            assert np.array_equal(op.apply(v), expected)
            assert np.array_equal(op.apply(v[:, 0]), expected[:, 0])


@pytest.mark.parametrize(
    "entry",
    [
        lambda shift, x: build_shift(x),
        lambda shift, x: shift.shift_operator(x),
        lambda shift, x: commutation_check(shift.shift_operator(x)),
        lambda shift, x: conditional_expectation(shift, x),
        lambda shift, x: wt_build(shift, SpectralFunction.logistic(2), x),
        lambda shift, x: mpc.coarse_grained_wt(shift, x, 1),
    ],
    ids=["TruncatedKShift", "shift_operator", "commutation_check", "conditional_expectation", "_check_step", "s0"],
)
def test_integer_arguments_are_integers(entry):
    shift = build_shift(2)
    # an integer of any type is taken as it is
    assert repr(entry(shift, np.int64(1))) == repr(entry(shift, 1.0)) == repr(entry(shift, 1))
    # bools, fractions and strings are refused, never truncated or cast
    for bad in (True, False, 0.5, 1.5, 2.5, "1", "3"):
        with pytest.raises(ValueError):
            entry(shift, bad)


def test_walsh_operator_rejects_slots_that_leave_the_window():
    # slot 3 of a 3-site window holds masks 4..7, which a shift by 1 moves out
    with pytest.raises(ValueError):
        WalshOperator(1, np.ones(4), np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        WalshOperator(0, np.ones(4), np.ones(3, dtype=bool))
    # slot 0, the empty mask, stays put under any shift
    op = WalshOperator(5, np.ones(4), np.arange(4) == 0)
    assert op.domain_fraction == 1 / 8
    ok = np.arange(4) <= 2
    assert WalshOperator(1, np.ones(4), ok).domain_fraction == 0.5


def test_walsh_operator_domain_is_boolean_and_products_share_a_window():
    # a float domain of ones was taken as a domain
    for domain in (np.ones(4), np.ones((1, 4), dtype=bool), [True] * 4):
        with pytest.raises(ValueError, match="boolean"):
            WalshOperator(0, np.ones(4), domain)
    # a 6-slot product was built from a 4-slot operator, and the other order
    # raised a bare IndexError
    wide, narrow = build_shift(2).shift_operator(1), build_shift(1).shift_operator(1)
    for a, b in ((wide, narrow), (narrow, wide)):
        with pytest.raises(ValueError, match="6-slot .* 4-slot|4-slot .* 6-slot"):
            a.compose(b)
    f = SpectralFunction.logistic(2)
    with pytest.raises(ValueError, match="slot"):
        mpc.intertwining_defect(wt_build(build_shift(2), f, 1), lambda_build(build_shift(2), f), narrow)


def test_semigroup_defect_refuses_operators_of_another_window():
    # W_{s+t} from a 1-site-narrower window raised numpy's broadcast error
    f = SpectralFunction.logistic(2)
    ws = wt = wt_build(build_shift(2), f, 1)
    with pytest.raises(ValueError, match="6-slot .* 4-slot"):
        mpc.semigroup_defect(ws, wt, wt_build(build_shift(1), f, 2))


def test_walsh_operator_weights_are_a_float_array():
    # a list of weights raised AttributeError from the shape comparison
    for weights in ([1.0] * 4, np.ones(4, dtype=int), np.ones(4, dtype=complex)):
        with pytest.raises(ValueError, match="float"):
            WalshOperator(0, weights, np.ones(4, dtype=bool))
    with pytest.raises(ValueError, match="one weight"):
        WalshOperator(0, np.ones((1, 4)), np.ones(4, dtype=bool))


def test_shared_tables_are_read_only():
    # the tables are cached by window size and handed to every caller, so a
    # write through one caller must fail instead of reaching the next
    shift, again = build_shift(2), build_shift(2)
    f = SpectralFunction.logistic(2)
    assert time_operator(shift) is time_operator(again)
    assert shift.slot_ages is again.slot_ages and mpc._filtration(shift.sites) is mpc._filtration(again.sites)
    row = conditional_expectation(shift, 0).slot_weights
    assert row.base is conditional_expectation(again, 0).slot_weights.base is mpc._filtration(5)
    shared = [shift.slot_ages, mpc._filtration(5), time_operator(shift).slot_weights, time_operator(shift).slot_domain]
    shared += [row, shift.shift_operator(1).slot_domain, wt_build(shift, f, 2).slot_domain, mpc._moved_slots(6, 1)]
    shared += [mpc._slot_index(5), *mpc._slot_pairs(6), mpc._slot_sizes(6), *mpc._step_ages(5, 1, f.s_min)]
    for table in shared:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def built_operators(n):
    """Every operator a builder returns at half-width n: the age operator,
    each E_s, Lambda, and U_t, W_t and the coarse step of every t and s0."""
    shift = build_shift(n)
    tail = [math.exp(-((s + n + 2) ** 2) / (4 * n)) for s in range(-n - 1, n + 2)]
    spectral = (SpectralFunction.logistic(n), SpectralFunction.constant(n), SpectralFunction.from_table(n, tail))
    yield time_operator(shift)
    for s in range(-n - 1, n + 1):
        yield conditional_expectation(shift, s)
    for f in spectral:
        yield lambda_build(shift, f)
    for t in range(0, 2 * n + 3):
        yield shift.shift_operator(t)
        if 1 <= t <= 2 * n:
            yield from (wt_build(shift, f, t) for f in spectral)
            yield from (mpc.coarse_grained_wt(shift, s0, t) for s0 in range(-n - 1, n + 1))


def test_every_builder_and_product_constructs():
    # builders and products skip the constructor's checks, so each must pass them
    for n in range(1, mpc.MAX_WINDOW + 1):
        for op in built_operators(n):
            assert type(op.shift) is int
            public = WalshOperator(op.shift, op.slot_weights, op.slot_domain)
            assert op.domain_fraction == public.domain_fraction == float(np.mean(op.domain))
    for n in range(1, 5):
        ops = list(built_operators(n))
        for a in ops:
            for b in ops:
                product = a.compose(b)
                sites = product.slot_domain.size - 1
                slots = np.flatnonzero(product.slot_domain[1:]) + 1
                assert np.all(slots + product.shift <= sites)
                assert type(product.shift) is int and product.shift == a.shift + b.shift
                public = WalshOperator(product.shift, product.slot_weights, product.slot_domain)
                assert product.domain_fraction == public.domain_fraction == float(np.mean(product.domain))


def test_walsh_operator_shifts_are_integers():
    # 1.5 raised numpy's "slice indices must be integers" TypeError, True
    # was a shift of 1, and np.int64(1) was kept unconverted
    for bad in (1.5, True, "1"):
        with pytest.raises(SchemaError, match="'shift'"):
            WalshOperator(bad, np.ones(4), np.arange(4) <= 2)
    for shift in (np.int64(1), 1.0, 1):
        op = WalshOperator(shift, np.ones(4), np.arange(4) <= 2)
        assert type(op.shift) is int and op.shift == 1


def test_window_facts_are_read_only_tables_equal_to_a_fresh_computation():
    for n in range(1, 5):
        shift = build_shift(n)
        assert mpc.filtration_defect(shift) is mpc.filtration_defect(build_shift(n))
        assert mpc.filtration_defect(shift) == _filtration_defect_loop(shift) == 0.0
        assert mpc.time_consistency_defect(shift) == _time_consistency_defect_loop(shift) == 0.0
        for t in range(0, 2 * n + 3):
            u = shift.shift_operator(t)
            assert u is build_shift(n).shift_operator(t)
            fits = np.array([m << t < shift.dim for m in range(shift.dim)])
            assert np.array_equal(u.weights, fits.astype(float)) and np.array_equal(u.domain, fits)
            for table in (u.slot_weights, u.slot_domain):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1
            with pytest.raises(AttributeError):
                u.shift = t + 1
            fresh = WalshOperator(t, u.slot_weights.copy(), u.slot_domain.copy())
            assert commutation_check(u) == commutation_check(fresh) == 0.0


def test_rows_from_cold_caches_equal_rows_from_warm_caches():
    def rows(descriptor):
        return [(r.defect_name, r.value.hex(), r.domain_fraction.hex()) for r in mpc.run_experiment(descriptor).rows]

    tables = [table for table in vars(mpc).values() if hasattr(table, "cache_clear")]

    for n in range(1, mpc.MAX_WINDOW + 1):
        tail = [math.exp(-((s + n + 2) ** 2) / (4 * n)) for s in range(-n - 1, n + 2)]
        kinds = ({"kind": "logistic"}, {"kind": "constant"}, {"kind": "table", "values": tail}, {"kind": "step", "s0": 0})
        for t in sorted({1, 2, 2 * n}):
            for f in kinds:
                descriptor = {"N": n, "f": f, "t": t}
                # every table empty; the facts cached on shared operators go with them
                for table in tables:
                    table.cache_clear()
                cold = rows(descriptor)
                assert rows(descriptor) == cold, descriptor


def test_importing_mpc_builds_no_table():
    # nothing is built at import: every cache starts empty
    probe = (
        "import nclp.mpc as m; "
        "print(sorted((k, v.cache_info().currsize) for k, v in vars(m).items() if hasattr(v, 'cache_info')))"
    )
    src = Path(mpc.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    sizes = dict(ast.literal_eval(result.stdout))
    assert {"filtration_defect", "time_consistency_defect", "_shift_operator", "_filtration"} <= set(sizes)
    assert set(sizes.values()) == {0}, sizes


def test_spectral_function_half_widths_are_integers():
    for build in (SpectralFunction.logistic, SpectralFunction.constant):
        for bad in (True, 1.5, "2"):
            with pytest.raises(SchemaError):
                build(bad)
    with pytest.raises(SchemaError):
        SpectralFunction.from_table(1.5, np.ones(6))
    assert repr(SpectralFunction.constant(2.0)) == repr(SpectralFunction.constant(2))
    assert repr(SpectralFunction.logistic(np.int64(2))) == repr(SpectralFunction.logistic(2))
    table = SpectralFunction.from_table(2.0, np.ones(7))
    assert (table.s_min, table.s_max) == (-3, 3)


def test_spectral_function_half_widths_lie_in_the_window_range():
    # logistic(-1) was a one-point function on [0, 0], logistic(-2) failed
    # with "need one value per integer in [1, -1]", and logistic(10**7)
    # built a 160 MB table that its cache kept
    for bad in (-2, -1, 0, mpc.MAX_WINDOW + 1, 10**7):
        for build in (SpectralFunction.logistic, SpectralFunction.constant):
            with pytest.raises(WindowTooLargeError, match=f"got {bad}"):
                build(bad)
        with pytest.raises(WindowTooLargeError, match=f"got {bad}"):
            SpectralFunction.from_table(bad, [1.0] * 5)
    # the constructor itself takes any range
    wide = SpectralFunction(-20, 20, np.ones(41))
    assert wide.value(20) == 1.0


def test_spectral_function_ages_are_integers():
    # value(1.5) raised numpy's IndexError and value(True) returned f(1)
    f = SpectralFunction.logistic(2)
    for bad in (1.5, True, "1"):
        with pytest.raises(SchemaError, match="'age'"):
            f.value(bad)
    assert f.value(np.int64(1)) == f.value(1.0) == f.value(1) == float(f.values[4])


def test_spectral_function_limits_are_integers():
    # float limits were stored as given: wt_build then raised IndexError and
    # cached float step indices under a key equal to (3, 1, -2), so every
    # later N = 1 experiment in the process raised IndexError too
    f = SpectralFunction(-2.0, 2.0, [1.0] * 5)
    assert (f.s_min, f.s_max) == (-2, 2) and type(f.s_min) is type(f.s_max) is int
    assert wt_build(build_shift(1), f, 1).shift == 1
    assert mpc.run_experiment({"N": 1, "t": 1, "f": {"kind": "logistic"}}).implementable is False
    # bools, fractions and strings are refused, never cast
    for s_min, s_max in ((True, 5), (-1.5, 2), (-2, 2.5), (-2, "2")):
        with pytest.raises(SchemaError):
            SpectralFunction(s_min, s_max, [1.0] * 5)


def test_spectral_function_table_values_are_real_numbers():
    good = [1.0, 0.9, 0.5, 0.2, 0.05]
    table = SpectralFunction.from_table(1, [1, 0.9, np.float32(0.5), *good[3:]])
    assert table.values.dtype == float and np.array_equal(table.values, good)
    # bools, strings, None and complex values are refused, never cast
    for slot, bad in ((0, True), (1, "0.9"), (2, None), (3, 0.2j), (0, np.True_)):
        values = list(good)
        values[slot] = bad
        with pytest.raises(SchemaError):
            SpectralFunction.from_table(1, values)
    with pytest.raises(SchemaError):
        SpectralFunction.from_table(1, np.ones(5, dtype=bool))


def test_restricted_adjoint_grid_is_the_dense_walsh_product():
    # 0/1 and constant multipliers keep every sum an integer, so the gather
    # is exact there; logistic ratios are rounded in a different order
    for n in range(1, 5):
        shift = build_shift(n)
        for t in (1, 2):
            spectral = ((SpectralFunction.constant(n), True), (SpectralFunction.logistic(n), False))
            for f, exact in spectral:
                g = loop_adjoint_multipliers(shift, t, lambda a: f.value(a) / f.value(a - t))
                grid, dense = xor_gather(mpc._step_kernel(g)), dense_walsh_grid(g)
                verdict = mpc.mpc_implementability(shift, f, t)
                reference = multiplicativity_check(dense)
                assert verdict.implementable == reference.multiplicative
                if exact:
                    assert np.array_equal(grid, dense)
                    assert verdict.defect == reference.defect
                else:
                    assert np.max(np.abs(grid - dense)) <= 1e-14
                    assert abs(verdict.defect - reference.defect) <= 1e-14
            for s0 in range(-n - 1, n + 1):
                g = loop_adjoint_multipliers(shift, t, lambda a: float(a <= s0))
                dense = dense_walsh_grid(g)
                assert np.array_equal(xor_gather(mpc._step_kernel(g)), dense)
                verdict = mpc.coarse_grained_implementability(shift, s0, t)
                reference = multiplicativity_check(dense)
                assert verdict.implementable == reference.multiplicative
                assert verdict.defect == reference.defect


def test_restricted_adjoint_grid_is_the_xor_gather():
    eps = np.finfo(float).eps
    for n in range(1, 6):
        shift = build_shift(n)
        for t in (1, 2):
            steps = [wt_build(shift, f, t) for f in (SpectralFunction.logistic(n), SpectralFunction.constant(n))]
            steps += [mpc.coarse_grained_wt(shift, s0, t) for s0 in range(-n - 1, n + 1)]
            for step in steps:
                g = mpc._step_weights(step)
                k = mpc.fwht(g) / g.size
                idx = np.arange(g.size)
                gather = k[idx[:, None] ^ idx]
                assert np.array_equal(xor_gather(mpc._step_kernel(g)), gather)
                # the kernel the verdict reads, against the check of the gather
                check = multiplicativity_check(classical.XorConvolution(k))
                assert mpc._implementability_of(step, mpc.DEFAULT_TOL).check == check
                reference = multiplicativity_check(gather)
                assert check.multiplicative == reference.multiplicative
                assert check.product_defect == reference.product_defect
                assert abs(check.unitality_defect - reference.unitality_defect) <= g.size * eps * np.sum(np.abs(k))


def test_implementability_never_holds_the_grid():
    shift = build_shift(6)
    f = SpectralFunction.logistic(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict = mpc.mpc_implementability(shift, f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.convolution.kernel.size == 4096 and not verdict.implementable
    # the 4096 x 4096 grid would be 134 MB; the kernel is 32 KB
    assert peak - base < 16 * verdict.convolution.kernel.size * 8


def _lower_bound_loop(shift, f, t):
    """The pair-scan lower bound over every subset R, one R at a time."""
    values = loop_adjoint_multipliers(shift, t, lambda a: f.value(a) / f.value(a - t))
    d_sub = values.size
    masks = np.arange(d_sub)
    worst = 0.0
    for r in range(d_sub):
        worst = max(worst, float(np.max(np.abs(values[r ^ masks] - values[r] * values))))
    return worst / float(d_sub) ** 2


def _lower_bound_rep_scan(shift, f, t):
    """The pair-scan lower bound over the empty set and the singletons R
    against every mask, one R at a time: an R of top bit b meets the same
    age triples (R, Q, R xor Q) over all Q as the singleton {b}."""
    g = mpc._step_weights(wt_build(shift, f, t))
    masks = np.arange(g.size)
    worst = 0.0
    for r in (0, *(1 << b for b in range(g.size.bit_length() - 1))):
        worst = max(worst, float(np.max(np.abs(g[r ^ masks] - g[r] * g))))
    return worst / float(g.size) ** 2


def random_log_concave_table(rng, n):
    """A strictly decreasing log-concave table on [-N-1, N+1]: its log steps
    are negative and non-increasing."""
    steps = -np.sort(rng.uniform(0.05, 1.0, 2 * n + 2))
    return SpectralFunction.from_table(n, np.exp(np.concatenate(([0.0], np.cumsum(steps)))))


def test_lower_bound_by_slot_pairs_equals_the_rep_scan():
    rng = rng_from(3)
    for n in range(1, 10):
        shift = build_shift(n)
        for f in (SpectralFunction.logistic(n), SpectralFunction.constant(n), random_log_concave_table(rng, n)):
            for t in range(1, 2 * n + 1):
                assert mpc.multiplicativity_lower_bound(wt_build(shift, f, t)) == _lower_bound_rep_scan(shift, f, t)


def test_lower_bound_matches_the_scan_over_every_subset():
    for n in range(1, 6):
        shift = build_shift(n)
        geometric = SpectralFunction.from_table(n, [2.0**-s for s in range(-n - 1, n + 2)])
        for f in (SpectralFunction.logistic(n), SpectralFunction.constant(n), geometric):
            for t in (1, 2):
                assert mpc.multiplicativity_lower_bound(wt_build(shift, f, t)) == _lower_bound_loop(shift, f, t)


def test_steps_past_the_window_are_refused():
    # shifts by 3, 4 and 5 in a 3-site window raised numpy's zero-size error
    # or an IndexError, or read a negative slice as a number
    shift = build_shift(1)
    for t in (3, 4, 5):
        op = shift.shift_operator(t)
        with pytest.raises(DomainEmptyError):
            mpc.multiplicativity_lower_bound(op)
        with pytest.raises(DomainEmptyError):
            mpc._implementability_of(op, mpc.DEFAULT_TOL)
    exact = classical.MultiplicativityCheck(True, 0.0, 0.0, 0.0)
    for t, fraction in ((1, 0.5), (2, 0.25)):
        op = shift.shift_operator(t)
        assert mpc.multiplicativity_lower_bound(op) == 0.0
        verdict = mpc._implementability_of(op, mpc.DEFAULT_TOL)
        assert (verdict.check, verdict.domain_fraction) == (exact, fraction)


def test_lower_bound_rejects_a_spectral_function_short_of_the_window():
    # the bound reads a built step, and no step is built from a spectral
    # function short of the window
    shift, short = build_shift(3), SpectralFunction.logistic(2)
    with pytest.raises(InvalidSpectralFunctionError):
        mpc.multiplicativity_lower_bound(wt_build(shift, short, 1))
    with pytest.raises(InvalidSpectralFunctionError):
        mpc.multiplicativity_lower_bound(mpc.mpc_implementability(shift, short, 1).step)


def test_pair_scan_bound_close_form_spot_check():
    # for R = Q = {0} the product multiplier is g({0})^2 while the empty set
    # carries multiplier 1, so the scan sees at least 1 - g^2
    shift = build_shift(2)
    f = SpectralFunction.logistic(2)
    t = 1
    g = f.value(1) / f.value(0)
    sites = 2 * shift.half_width + 1 - t
    bound = mpc.multiplicativity_lower_bound(wt_build(shift, f, t))
    assert bound >= (1.0 - g * g) / (1 << sites) ** 2 - 1e-15


def test_coarse_grained_semigroup_reports():
    shift = build_shift(2)
    coarse = mpc.coarse_grained_wt(shift, 0, 1)
    suite = stochasticity_of(coarse)
    assert suite.positivity_defect <= 1e-12
    assert suite.mass_defect == 0.0 and suite.unitality_defect == 0.0
    verdict = mpc.coarse_grained_implementability(shift, 0, 1)
    print(f"coarse-grained multiplicativity defect: {verdict.defect:.3e}")
    assert verdict.defect >= 0.0
    with pytest.raises(ValueError):
        mpc.coarse_grained_implementability(shift, 3, 1)


def test_an_experiment_transforms_once_and_projects_once_per_time(monkeypatch):
    names = (
        "fwht",
        "slot_ages",
        "filtration",
        "age_operator",
        "logistic",
        "constant",
        "shift_operator",
        "conditional_expectation",
        "wt_build",
        "coarse_grained_wt",
        "filtration_defect",
        "time_consistency_defect",
        "shift_table",
        "age_commutator",
    )
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("fwht", "conditional_expectation", "wt_build", "coarse_grained_wt"):
        monkeypatch.setattr(mpc, name, counted(name, getattr(mpc, name)))
    monkeypatch.setattr(mpc.TruncatedKShift, "shift_operator", counted("shift_operator", mpc.TruncatedKShift.shift_operator))
    # the size-keyed tables, each counted where it is built and cached
    tables = {}
    for name in ("slot_ages", "filtration", "age_operator", "logistic", "constant"):
        tables[name] = lru_cache(counted(name, getattr(mpc, f"_{name}").__wrapped__))
        monkeypatch.setattr(mpc, f"_{name}", tables[name])
    # the facts of the window, each counted where it is computed: the two
    # defect tables, the U_t table, and U_t's commutation defect, which is
    # cached on the shared operator
    facts = {}
    for name, attr in (
        ("filtration_defect", "filtration_defect"),
        ("time_consistency_defect", "time_consistency_defect"),
        ("shift_table", "_shift_operator"),
    ):
        facts[name] = lru_cache(counted(name, getattr(mpc, attr).__wrapped__))
        monkeypatch.setattr(mpc, attr, facts[name])
    commutator = cached_property(counted("age_commutator", mpc.WalshOperator._age_commutator.func))
    commutator.__set_name__(mpc.WalshOperator, "_age_commutator")
    monkeypatch.setattr(mpc.WalshOperator, "_age_commutator", commutator)
    for n in (1, 3, 6):
        for f in ({"kind": "logistic"}, {"kind": "constant"}, {"kind": "step", "s0": 0}):
            coarse = int(f["kind"] == "step")
            for t in (1, 2 * n):
                # empty caches, so that each table is built by this experiment
                for table in (*tables.values(), *facts.values()):
                    table.cache_clear()
                calls.update(dict.fromkeys(names, 0))
                mpc.run_experiment({"N": n, "f": f, "t": t})
                # one kernel for the verdict and the positivity defect; one
                # filtration table for both filtration rows and the coarse
                # step's projection; one age operator for the commutation
                # and time-consistency rows; one U_t, read by the
                # commutation and intertwining rows (a coarse step builds
                # its own); each step built once: the verdict's W_t (or its
                # coarse step), and W_{1+t} for the semigroup row where a
                # step by 1 + t exists; at t = 1 that row's W_1 is the
                # verdict's step
                steps = 0 if coarse else 2 if t + 1 <= 2 * n else 1
                expected = {
                    "fwht": 1,
                    "slot_ages": 1,
                    "filtration": 1,
                    "age_operator": 1,
                    "logistic": int(f["kind"] == "logistic"),
                    "constant": int(f["kind"] == "constant"),
                    "shift_operator": 1 + coarse,
                    "conditional_expectation": coarse,
                    "wt_build": steps,
                    "coarse_grained_wt": coarse,
                    # each fact of the window once: a coarse step reads the
                    # same U_t from the table
                    "filtration_defect": 1,
                    "time_consistency_defect": 1,
                    "shift_table": 1,
                    "age_commutator": 1,
                }
                assert calls == expected
                # a second experiment at the same N and f builds no table,
                # the spectral function's included
                calls.update(dict.fromkeys(names, 0))
                mpc.run_experiment({"N": n, "f": f, "t": 1})
                assert [calls[name] for name in tables] == [0] * len(tables)
                # a second experiment at the same N and t computes no window
                # fact, and still builds its steps and its one kernel: nothing
                # that depends on f is cached
                calls.update(dict.fromkeys(names, 0))
                mpc.run_experiment({"N": n, "f": f, "t": t})
                assert [calls[name] for name in (*tables, *facts, "age_commutator")] == [0] * (len(tables) + len(facts) + 1)
                assert (calls["fwht"], calls["wt_build"], calls["coarse_grained_wt"]) == (1, steps, coarse)


def test_experiments_read_the_same_from_the_butterfly_transform(monkeypatch):
    # the radix-16 transform against the butterfly stages on the whole
    # decision path: the same verdict, and every row within 1e-13 relative
    def spectral(n):
        tail = [math.exp(-((s + n + 2) ** 2) / (4 * n)) for s in range(-n - 1, n + 2)]
        return ({"kind": "logistic"}, {"kind": "constant"}, {"kind": "table", "values": tail}, {"kind": "step", "s0": 0})

    descriptors = [
        {"N": n, "f": f, "t": t} for n in range(1, mpc.MAX_WINDOW + 1) for t in sorted({1, 2, 2 * n}) for f in spectral(n)
    ]
    fast = [mpc.run_experiment(d) for d in descriptors]
    monkeypatch.setattr(mpc, "fwht", _fwht_concatenate)
    for descriptor, result in zip(descriptors, fast):
        slow = mpc.run_experiment(descriptor)
        assert (result.implementable, result.asserted) == (slow.implementable, slow.asserted)
        assert [row.defect_name for row in result.rows] == [row.defect_name for row in slow.rows]
        for row, reference in zip(result.rows, slow.rows):
            assert abs(row.value - reference.value) <= 1e-13 * abs(reference.value), (descriptor, row, reference)
            assert row.domain_fraction == reference.domain_fraction


def test_windows_past_six_pass_every_check():
    exact_rows = (
        "commutation_defect",
        "filtration_defect",
        "time_consistency_defect",
        "intertwining_defect",
        "semigroup_defect",
        "contraction_violation",
        "stochasticity_mass_defect",
        "stochasticity_unitality_defect",
    )
    for n in (7, 8, 9):
        for t in (1, 2 * n):
            for kind in ("logistic", "constant", "step"):
                f = {"kind": "step", "s0": 0} if kind == "step" else {"kind": kind}
                result = mpc.run_experiment({"N": n, "f": f, "t": t})
                rows = {row.defect_name: row.value for row in result.rows}
                assert all(rows[name] <= 1e-12 for name in exact_rows if name in rows)
                assert rows["stochasticity_positivity_defect"] <= 1e-10
                if kind == "step":
                    assert not result.asserted
                    continue
                assert result.asserted and result.implementable == (kind == "constant")
                assert rows["multiplicativity_defect"] >= rows["multiplicativity_lower_bound"]
                if kind == "logistic":
                    assert rows["multiplicativity_lower_bound"] > 0.0


def test_run_experiment_row_order():
    def names(descriptor):
        return [row.defect_name for row in mpc.run_experiment(descriptor).rows]

    head = ["commutation_defect", "filtration_defect", "time_consistency_defect"]
    tail = [
        "stochasticity_positivity_defect",
        "stochasticity_mass_defect",
        "stochasticity_unitality_defect",
        "multiplicativity_defect",
    ]
    bound, verdict = ["multiplicativity_lower_bound"], ["implementable"]
    spectral = ["intertwining_defect", "semigroup_defect", "contraction_violation"]
    assert names({"N": 2, "f": {"kind": "logistic"}, "t": 1}) == head + spectral + tail + bound + verdict
    # at t = 2N no step by 1 + t exists, so there is no semigroup row
    no_semigroup = ["intertwining_defect", "contraction_violation"]
    assert names({"N": 2, "f": {"kind": "logistic"}, "t": 4}) == head + no_semigroup + tail + bound + verdict
    assert names({"N": 2, "f": {"kind": "step", "s0": 0}, "t": 1}) == head + tail + verdict


def test_run_experiment_rows():
    result = mpc.run_experiment({"N": 2, "f": {"kind": "logistic"}, "t": 1, "seed": 9})
    names = {row.defect_name for row in result.rows}
    assert {"intertwining_defect", "multiplicativity_defect", "multiplicativity_lower_bound"} <= names
    assert result.implementable is False and result.asserted
    step = mpc.run_experiment({"N": 2, "f": {"kind": "step", "s0": 0}, "t": 1, "seed": 9})
    assert not step.asserted
    assert {"multiplicativity_defect", "stochasticity_positivity_defect"} <= {
        r.defect_name for r in step.rows
    }
    const = mpc.run_experiment({"N": 2, "f": {"kind": "constant"}, "t": 1})
    assert const.implementable is True
    # nothing is sampled: a seed in the descriptor changes nothing
    assert mpc.run_experiment({"N": 2, "f": {"kind": "logistic"}, "t": 1}) == result
