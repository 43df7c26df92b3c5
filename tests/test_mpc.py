"""Truncated shift model: construction fixtures, exact identities (checked
twice: through the float weighted bit shifts and through an independent
rational-arithmetic oracle over explicit coordinate sets), stochasticity,
and the implementability verdicts."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nclp import mpc
from nclp.classical import multiplicativity_check
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
    walsh_to_grid,
    grid_to_walsh,
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
            weights[mask] = f.ratio(ages[mask] + t, ages[mask])
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


# --- construction fixtures -----------------------------------------------------


def test_build_shift_small_window():
    shift = build_shift(1)
    assert shift.dim == 8
    ages = [shift.ages[shift.index_of(s)] for s in all_subsets(1) if s]
    assert sorted(set(ages)) == [-1, 0, 1]


def test_build_shift_rejects_large_windows():
    with pytest.raises(WindowTooLargeError):
        build_shift(7)
    with pytest.raises(WindowTooLargeError):
        build_shift(0)


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
    for t in (1, 2, -1):
        u = shift.shift_operator(t)
        for subset in all_subsets(n):
            expected = in_window(shifted(subset, t), n)
            assert u.domain[shift.index_of(subset)] == expected


def test_compose_is_the_matrix_product():
    shift = build_shift(2)
    f = SpectralFunction.logistic(2)
    u, back = shift.shift_operator(1), shift.shift_operator(-1)
    pairs = (
        (u, lambda_build(shift, f)),
        (wt_build(shift, f, 1), wt_build(shift, f, 2)),
        (conditional_expectation(shift, 0), u),
        (back, u),
        (u, back),
        (wt_build(shift, f, 1), shift.shift_operator(-2)),
    )
    for a, b in pairs:
        assert np.array_equal(dense(a.compose(b)), dense(a) @ dense(b))
    # a product of unweighted shifts moves exactly the masks of its domain
    for a, b in ((back, u), (u, back)):
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
    for n, t in ((1, 1), (2, 1), (2, 2), (3, 2)):
        assert commutation_check(build_shift(n), t) == 0.0
    assert commutation_check(build_shift(2), 0) == 0.0


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
    assert f.warnings == ()
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
    assert f.warnings
    shift = build_shift(2)
    lam = lambda_build(shift, f)
    assert np.allclose(dense(lam), np.eye(shift.dim))


def test_spectral_function_geometric_table_allowed():
    # log-affine values sit exactly at the log-concavity boundary
    SpectralFunction.from_table(1, [2.0**-s for s in range(-2, 3)])


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


def test_intertwining_float_and_exact_oracle():
    for n, t in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        shift = build_shift(n)
        f = SpectralFunction.logistic(n)
        assert mpc.intertwining_defect(shift, f, t) <= 1e-12
        # oracle: exact rational identity per coordinate set
        w = wt_build(shift, f, t)
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
        assert mpc.semigroup_defect(shift, f, s, t) <= 1e-12
        for subset in all_subsets(n):
            if not subset or not in_window(shifted(subset, s + t), n):
                continue
            m = max(subset)
            stepwise = (exact_value(f, m + t) / exact_value(f, m)) * (
                exact_value(f, m + t + s) / exact_value(f, m + t)
            )
            direct = exact_value(f, m + s + t) / exact_value(f, m)
            assert stepwise == direct


def test_filtration_and_time_consistency_exact():
    for n in (1, 2, 3):
        shift = build_shift(n)
        assert mpc.filtration_defect(shift) == 0.0
        assert mpc.time_consistency_defect(shift) == 0.0


def test_contraction_multipliers_in_unit_interval():
    shift = build_shift(3)
    f = SpectralFunction.logistic(3)
    for t in (1, 2, 3):
        assert mpc.contraction_violation(shift, f, t) == 0.0
        w = wt_build(shift, f, t)
        data = w.weights[w.domain]
        assert np.all(data > 0.0) and np.all(data <= 1.0)


# --- grid transform --------------------------------------------------------------


def test_walsh_to_grid_constants_and_single_site():
    shift = build_shift(1)
    e_empty = np.zeros(shift.dim)
    e_empty[0] = 1.0
    assert np.array_equal(walsh_to_grid(shift, e_empty), np.ones(shift.dim))
    e0 = np.zeros(shift.dim)
    e0[shift.index_of({0})] = 1.0
    values = walsh_to_grid(shift, e0)
    assert set(values) == {-1.0, 1.0}
    # sign flips exactly with the bit of coordinate 0
    bit = shift.index_of({0})
    assert all(values[x] == (1.0 if not x & bit else -1.0) for x in range(shift.dim))


def test_grid_round_trip_and_parseval():
    shift = build_shift(3)
    rng = rng_from(0)
    grid = rng.standard_normal(shift.dim)
    coeffs = grid_to_walsh(shift, grid)
    back = walsh_to_grid(shift, coeffs)
    assert np.max(np.abs(back - grid)) <= 1e-12
    assert abs(np.mean(grid**2) - np.sum(coeffs**2)) <= 1e-12


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
        product = walsh_to_grid(shift, er) * walsh_to_grid(shift, eq)
        esym = np.zeros(shift.dim)
        esym[shift.index_of(r ^ q)] = 1.0
        assert np.array_equal(product, walsh_to_grid(shift, esym))


# --- stochasticity and implementability ------------------------------------------


def test_stochasticity_logistic():
    shift = build_shift(3)
    suite = mpc.stochasticity_suite(shift, SpectralFunction.logistic(3), 1, samples=100, seed=0)
    assert suite.positivity_defect <= 1e-10
    assert suite.mass_defect == 0.0
    assert suite.unitality_defect == 0.0
    assert suite.domain_fraction == 0.5


def test_stochasticity_exploratory_non_log_concave():
    # a positive decreasing table with an upward log second difference cannot
    # be a SpectralFunction; build its semigroup step by hand and record the
    # positivity defect without asserting a sign for it
    shift = build_shift(2)
    raw = {-3: 1.0, -2: 0.9, -1: 0.5, 0: 0.05, 1: 0.045, 2: 0.044, 3: 0.0439}
    t = 1
    d = shift.dim
    weights = np.zeros(d)
    weights[0] = 1.0
    domain = np.zeros(d, dtype=bool)
    domain[0] = True
    for mask in range(1, d):
        if mask << t >= d:
            continue
        age = int(shift.ages[mask])
        weights[mask] = raw[age + t] / raw[age]
        domain[mask] = True
    op = WalshOperator(t, weights, domain)
    suite = mpc._stochasticity_of(op, shift, t, samples=200, seed=3)
    print(f"exploratory non-log-concave positivity defect: {suite.positivity_defect:.3e}")
    assert suite.mass_defect == 0.0 and suite.unitality_defect == 0.0


def test_stochasticity_reports_lost_mass():
    shift = build_shift(1)
    weights = np.ones(shift.dim)
    weights[0] = 0.5
    op = WalshOperator(0, weights, np.ones(shift.dim, dtype=bool))
    suite = mpc._stochasticity_of(op, shift, 1, samples=1, seed=0)
    assert suite.mass_defect == 0.5 and suite.unitality_defect == 0.5


def _positivity_defect_loop(op, shift, t, samples, seed):
    """The sampled positivity defect, one density at a time."""
    rng = rng_from(seed)
    d = shift.dim
    block = 1 << (2 * shift.half_width + 1 - t)
    defect = 0.0
    for _ in range(samples):
        grid = np.tile(rng.random(d).reshape(d // block, block).mean(axis=0), d // block)
        out = walsh_to_grid(shift, op.apply(grid_to_walsh(shift, grid)))
        defect = max(defect, max(0.0, -float(np.min(out.real))))
    return defect


def test_batched_stochasticity_matches_the_sample_loop():
    for n in (1, 2, 3, 4):
        shift = build_shift(n)
        d = shift.dim
        # 11 * mean - 10 * f: negative wherever a density exceeds 1.1 times its mean
        reflect = WalshOperator(0, np.where(np.arange(d) == 0, 1.0, -10.0), np.ones(d, dtype=bool))
        for t in (1, 2):
            wt = wt_build(shift, SpectralFunction.logistic(n), t)
            # the step with its non-constant part reflected: negative, and
            # where depends on which coordinates a density involves
            flipped = WalshOperator(t, np.where(np.arange(d) == 0, 1.0, -10.0 * wt.weights), wt.domain)
            for op in (wt, mpc.coarse_grained_wt(shift, 0, t), reflect, flipped):
                assert np.array_equal(op.apply(np.eye(d)), dense(op))
                suite = mpc._stochasticity_of(op, shift, t, samples=20, seed=n)
                assert suite.positivity_defect == _positivity_defect_loop(op, shift, t, 20, n)
        assert mpc._stochasticity_of(reflect, shift, 1, samples=20, seed=0).positivity_defect > 0.1


def test_implementability_logistic_negative_with_oracle_bound():
    shift = build_shift(3)
    f = SpectralFunction.logistic(3)
    verdict = mpc.mpc_implementability(shift, f, 1)
    bound = mpc.multiplicativity_lower_bound(shift, f, 1)
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
        bound = mpc.multiplicativity_lower_bound(shift, f, t)
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
    g = mpc._adjoint_multipliers(shift, f, t)
    assert np.allclose(mpc._restricted_adjoint_grid(g), direct, atol=1e-14)


def test_age_tables_match_mask_loops():
    for n in range(1, 7):
        shift = build_shift(n)
        assert np.array_equal(shift.ages, loop_ages(n))
        # tabulated beyond the window, so every lookup must subtract s_min
        wide = SpectralFunction(-n - 3, n + 2, 1.0 / (1.0 + np.exp(np.arange(-n - 3, n + 3))))
        geometric = SpectralFunction.from_table(n, [2.0**-s for s in range(-n - 1, n + 2)])
        for f in (SpectralFunction.logistic(n), SpectralFunction.constant(n), geometric, wide):
            assert np.array_equal(lambda_build(shift, f).weights, loop_lambda_weights(shift, f))
            for t in (1, 2):
                assert np.array_equal(wt_build(shift, f, t).weights, loop_wt_weights(shift, f, t))
                reference = loop_adjoint_multipliers(shift, t, lambda a: f.ratio(a, a - t))
                assert np.array_equal(mpc._adjoint_multipliers(shift, f, t), reference)


def test_restricted_adjoint_grid_is_the_dense_walsh_product():
    # 0/1 and constant multipliers keep every sum an integer, so the gather
    # is exact there; logistic ratios are rounded in a different order
    for n in range(1, 5):
        shift = build_shift(n)
        for t in (1, 2):
            spectral = ((SpectralFunction.constant(n), True), (SpectralFunction.logistic(n), False))
            for f, exact in spectral:
                g = loop_adjoint_multipliers(shift, t, lambda a: f.ratio(a, a - t))
                grid, dense = mpc._restricted_adjoint_grid(g), dense_walsh_grid(g)
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
                assert np.array_equal(mpc._restricted_adjoint_grid(g), dense)
                verdict = mpc.coarse_grained_implementability(shift, s0, t)
                reference = multiplicativity_check(dense)
                assert verdict.implementable == reference.multiplicative
                assert verdict.defect == reference.defect


def test_lower_bound_rejects_a_spectral_function_short_of_the_window():
    with pytest.raises(InvalidSpectralFunctionError):
        mpc.multiplicativity_lower_bound(build_shift(3), SpectralFunction.logistic(2), 1)


def test_pair_scan_bound_close_form_spot_check():
    # for R = Q = {0} the product multiplier is g({0})^2 while the empty set
    # carries multiplier 1, so the scan sees at least 1 - g^2
    shift = build_shift(2)
    f = SpectralFunction.logistic(2)
    t = 1
    g = f.value(1) / f.value(0)
    sites = 2 * shift.half_width + 1 - t
    bound = mpc.multiplicativity_lower_bound(shift, f, t)
    assert bound >= (1.0 - g * g) / (1 << sites) ** 2 - 1e-15


def test_coarse_grained_semigroup_reports():
    shift = build_shift(2)
    coarse = mpc.coarse_grained_wt(shift, 0, 1)
    suite = mpc._stochasticity_of(coarse, shift, 1, samples=50, seed=4)
    assert suite.positivity_defect <= 1e-12
    assert suite.mass_defect == 0.0 and suite.unitality_defect == 0.0
    verdict = mpc.coarse_grained_implementability(shift, 0, 1)
    print(f"coarse-grained multiplicativity defect: {verdict.defect:.3e}")
    assert verdict.defect >= 0.0


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
