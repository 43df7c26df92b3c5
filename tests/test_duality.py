"""The verdicts' invariants as properties: KMS duality and unitary covariance.

The pairing <X, Y> = tr(rho^(1/2) X rho^(1/2) Y) is the same for every p, so
the Banach adjoint of V on L^p(rho) is, on L^q(rho) with 1/p + 1/q = 1,

    V#(Y) = rho^(-1/2) V_*(rho^(1/2) Y rho^(1/2)) rho^(-1/2),

V_* the predual, and V is an onto isometry exactly when V# is.  The
verdicts are also invariant under V -> Ad W o V o Ad W*, rho -> W rho W*,
and under V -> T o V o T, rho -> rho^T, T the transpose map: T carries
L^p(rho) isometrically, unitally and positively onto L^p(rho^T), and
T o Ad(u) o T = Ad(conj u), so the kind of a Jordan factor is kept too.
On exactly stored data the verdict does not depend on p < oo: J(U) is
implementable exactly when U commutes with rho (or with rho^T), and at
p = oo every Jordan map is.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.linalg import threshold
from nclp.sampling import commuting_unitary, ginibre, random_unitary, rng_from
from nclp.spaces import P_GRID, QuantumMeasure
from nclp.superop import (
    KIND_ANTI,
    KIND_ISO,
    SuperOperator,
    canonical_jordan,
    implementability_check,
    isometry_check,
    positivity_check,
)

#: generic Ad(u), Ad(u) with u commuting with rho, X -> A X B, 1.1 Ad(u)
FAMILIES = ("generic", "commuting", "sandwich", "scaled")
EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


def state(n: int, log_cond: float, rng) -> QuantumMeasure:
    """A state of condition number 10^log_cond in a Haar-random eigenbasis."""
    spread = np.concatenate([[0.0, 1.0], rng.random(n - 2)])
    weights = 10.0 ** (-log_cond * spread)
    q = random_unitary(n, rng)
    return QuantumMeasure((q * (weights / weights.sum())) @ q.conj().T)


def family(kind: str, measure: QuantumMeasure, rng) -> SuperOperator:
    n = measure.dim
    if kind == "commuting":
        return SuperOperator.ad_unitary(commuting_unitary(measure.eigenbasis, rng))
    if kind == "sandwich":
        return SuperOperator.sandwich(ginibre(n, rng), ginibre(n, rng))
    conjugation = SuperOperator.ad_unitary(random_unitary(n, rng))
    return conjugation.scaled(1.1) if kind == "scaled" else conjugation


def kms_dual(v: SuperOperator, measure: QuantumMeasure) -> SuperOperator:
    inner = SuperOperator.sandwich(measure.power(0.5), measure.power(0.5))
    outer = SuperOperator.sandwich(measure.power(-0.5), measure.power(-0.5))
    return outer @ v.predual() @ inner


def conjugate_exponent(p: float) -> float:
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


# V# is formed in floats through rho^(+-1/2), and the p = 2 Gram certificate
# sees that rounding: it grows about as cond(rho)^2 and reaches the
# threshold near cond 3e5, where the stored V# of a commuting Ad(u) is no
# longer an isometry to 1e-9 (its exact Gram defect agrees with the
# reported one).  At cond <= 1e4 it stays below 1% of the threshold.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4),
    log_cond=st.floats(0.0, 4.0),
    kind=st.sampled_from(FAMILIES),
    p=st.sampled_from(EXPONENTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_isometry_verdict_agrees_with_that_of_its_kms_dual(n, log_cond, kind, p, seed):
    rng = rng_from(seed)
    measure = state(n, log_cond, rng)
    v = family(kind, measure, rng)
    direct = isometry_check(v, measure, p, seed=seed)
    dual = isometry_check(kms_dual(v, measure), measure, conjugate_exponent(p), seed=seed)
    assert direct.is_isometry == dual.is_isometry
    if kind == "commuting":
        assert direct.is_isometry


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4),
    log_cond=st.floats(0.0, 6.0),
    kind=st.sampled_from(FAMILIES),
    p=st.sampled_from(EXPONENTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_implementability_verdict_is_invariant_under_a_unitary_change_of_basis(n, log_cond, kind, p, seed):
    rng = rng_from(seed)
    measure = state(n, log_cond, rng)
    v = family(kind, measure, rng)
    w = random_unitary(n, rng)
    moved = QuantumMeasure(w @ measure.rho @ w.conj().T)
    conjugated = SuperOperator.ad_unitary(w) @ v @ SuperOperator.ad_unitary(w.conj().T)
    before = implementability_check(v, measure, p, seed=seed)
    after = implementability_check(conjugated, moved, p, seed=seed)
    assert (before.implementable, before.failure) == (after.implementable, after.failure)
    if kind != "generic":
        # a generic Ad(u) is implementable only where it preserves rho
        assert before.implementable == (kind == "commuting")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4),
    log_cond=st.floats(0.0, 6.0),
    kind=st.sampled_from(FAMILIES),
    p=st.sampled_from(EXPONENTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_implementability_verdict_is_invariant_under_transposition(n, log_cond, kind, p, seed):
    rng = rng_from(seed)
    measure = state(n, log_cond, rng)
    v = family(kind, measure, rng)
    # T permutes the column-stacked entries (i, j) -> (j, i), so T o V o T
    # permutes V's rows and columns alike
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    transposed = SuperOperator(n, v.matrix[swap][:, swap])
    before = implementability_check(v, measure, p, seed=seed)
    after = implementability_check(transposed, QuantumMeasure(measure.rho.T), p, seed=seed)
    assert (before.implementable, before.failure) == (after.implementable, after.failure)
    if before.implementable:
        assert before.kind == after.kind


#: Q = H/2 for the 4 x 4 Sylvester Hadamard matrix H: real, orthogonal and
#: symmetric, with every entry +-1/2
HADAMARD_Q = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0
#: dyadic spectra with distinct entries and an exact unit trace, cond 8 and 2048
HADAMARD_SPECTRA = ((1 / 2, 1 / 4, 3 / 16, 1 / 16), (1 / 2, 1 / 4, 1 / 4 - 2.0**-12, 2.0**-12))


def exact(a) -> np.ndarray:
    """A real float array as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(a)


def exactly_stored(d, phases) -> tuple[np.ndarray, np.ndarray]:
    """rho = Q D Q^T and U = Q Phi Q^T, Phi a monomial matrix with entries
    +-1, +-i, both asserted to equal their exact rational values, so that
    the truth is decided on the stored data."""
    q = exact(HADAMARD_Q)
    rho = HADAMARD_Q @ np.diag(d) @ HADAMARD_Q.T
    u = HADAMARD_Q @ phases @ HADAMARD_Q.T
    assert (exact(rho) == q @ exact(np.diag(d)) @ q.T).all()
    for stored, part in ((u.real, phases.real), (u.imag, phases.imag)):
        assert (exact(stored) == q @ exact(part) @ q.T).all()
    return rho, u


def test_on_exactly_stored_data_the_verdict_does_not_depend_on_p():
    # for p < oo a Jordan map J(U) is implementable exactly when U commutes
    # with rho (rho^T = rho here, so for both kinds), whatever p; at p = oo
    # the weight drops out and every Jordan map is implementable
    rng = rng_from(21)
    exponents = (*P_GRID, math.inf)
    kinds = (KIND_ISO, KIND_ANTI)
    for d in HADAMARD_SPECTRA:
        for _ in range(12):
            phases = np.diag(rng.choice(np.array([1, -1, 1j, -1j]), 4))
            rho, u = exactly_stored(d, phases)
            measure = QuantumMeasure(rho)
            for kind in kinds:
                v = canonical_jordan(kind, u)
                for p in exponents:
                    report = implementability_check(v, measure, p)
                    assert report.implementable and report.kind == kind, (d, kind, p, report.failure)
    # every permutation but the identity mixes the distinct eigenvalues
    rho, _ = exactly_stored(HADAMARD_SPECTRA[1], np.eye(4))
    measure = QuantumMeasure(rho)
    for order in itertools.permutations(range(4)):
        if order == (0, 1, 2, 3):
            continue
        _, u = exactly_stored(HADAMARD_SPECTRA[1], np.eye(4)[list(order)])
        for kind in kinds:
            v = canonical_jordan(kind, u)
            for p in P_GRID:
                assert implementability_check(v, measure, p).failure == "isometry", (order, kind, p)
            assert implementability_check(v, measure, math.inf).implementable, (order, kind)


def hadamard_family():
    """(D, rho, U, U commutes with rho) over the exactly stored n = 4 data
    above: the 24 phase choices Phi of the test above (12 draws per
    spectrum), then the 23 eigenvalue-mixing permutations of the cond 2048
    spectrum."""
    rng = rng_from(21)
    for d in HADAMARD_SPECTRA:
        for _ in range(12):
            rho, u = exactly_stored(d, np.diag(rng.choice(np.array([1, -1, 1j, -1j]), 4)))
            yield d, rho, u, True
    for order in itertools.permutations(range(4)):
        if order != (0, 1, 2, 3):
            rho, u = exactly_stored(HADAMARD_SPECTRA[1], np.eye(4)[list(order)])
            yield HADAMARD_SPECTRA[1], rho, u, False


def gaussian_product(*factors):
    """The product of complex matrices given as (real, imaginary) pairs of
    Fraction arrays, exactly."""
    re, im = factors[0]
    for r, i in factors[1:]:
        re, im = re @ r - im @ i, re @ i + im @ r
    return re, im


def exact_p1_defect_squared(d, rho, u) -> Fraction:
    """||A'* A' - 1||_F^2 for a Jordan map J(U) at p = 1, exactly.

    A' = rho^(1/2) U S^(-1/2) with S = rho, or rho^T for the transposed
    kind, which is the same real symmetric matrix here; the square is
    tr(S^-1 E S^-1 E) with E = U* rho U - S, in Gaussian rationals, and
    S^-1 = Q D^-1 Q^T exactly.
    """
    q, s, zero = exact(HADAMARD_Q), exact(rho), exact(np.zeros((4, 4)))
    s_inv = q @ np.diag([1 / Fraction(x) for x in d]) @ q.T
    assert (s_inv @ s == np.eye(4, dtype=int)).all()
    ur, ui = exact(u.real), exact(u.imag)
    er, ei = gaussian_product((ur.T, -ui.T), (s, zero), (ur, ui))
    m = gaussian_product((s_inv, zero), (er - s, ei))
    square_re, square_im = gaussian_product(m, m)
    assert np.trace(square_im) == 0
    return np.trace(square_re)


def test_the_exact_p1_defect_decides_the_stored_hadamard_family():
    # U commuting with rho leaves E = 0 exactly; a permutation that mixes
    # distinct eigenvalues leaves a defect far above the threshold
    limit = Fraction(threshold(1.0)) ** 2
    commuting = mixing = 0
    for d, rho, u, commutes in hadamard_family():
        square = exact_p1_defect_squared(d, rho, u)
        if commutes:
            assert square == 0
            commuting += 1
        else:
            assert square > limit
            mixing += 1
        measure = QuantumMeasure(rho)
        for kind in (KIND_ISO, KIND_ANTI):
            report = implementability_check(canonical_jordan(kind, u), measure, 1.0)
            assert report.implementable == (square <= limit), (d, kind, report.failure)
    assert (commuting, mixing) == (24, 23)


def kosaki_transport(v: SuperOperator, measure: QuantumMeasure, p: float, eta: float, out_eta: float) -> SuperOperator:
    """tau_out o V o tau_eta^-1, tau_eta(X) = rho^(eta/p) X rho^((1-eta)/p):
    V read from Kosaki's L^p_eta(rho) into L^p_out(rho) as a map of S_p."""
    def tau(e, sign):
        return SuperOperator.sandwich(measure.power(sign * e / p), measure.power(sign * (1.0 - e) / p))

    return tau(out_eta, 1.0) @ v @ tau(eta, -1.0)


def unital_and_positive(v: SuperOperator) -> bool:
    """The first two stages of ``implementability_check``, by its rules."""
    n = v.dim
    unital = float(np.linalg.norm(v.apply(np.eye(n)) - np.eye(n))) <= threshold(math.sqrt(n))
    return unital and positivity_check(v).positive


def onto_isometry(v: SuperOperator, measure: QuantumMeasure, p: float, eta: float, out_eta: float) -> bool:
    """Is V an onto isometry of L^p_eta(rho) onto L^p_out(rho)?  Ten samples:
    every map here that is no isometry misses by far more than the tolerance."""
    iso = isometry_check(kosaki_transport(v, measure, p, eta, out_eta), None, p, trials=10)
    return iso.is_isometry and iso.onto


KOSAKI_ETAS = (0.0, 0.25, 0.5, 1.0)


def random_kosaki_maps():
    """(kind, V, measure) at n = 2..4 and cond 10 to 1e4: the four families
    above, and X -> U X^T U* with U = Q Phi Q^T (implementable: U rho^T U* =
    rho) or U Haar-random."""
    rng = rng_from(25)
    for n in (2, 3, 4):
        for log_cond in (1.0, 2.5, 4.0):
            measure = state(n, log_cond, rng)
            for kind in FAMILIES:
                yield KIND_ISO, family(kind, measure, rng), measure
            q = measure.eigenbasis
            preserving = (q * np.exp(2j * np.pi * rng.random(n))) @ q.T
            for u in (preserving, random_unitary(n, rng)):
                yield KIND_ANTI, canonical_jordan(KIND_ANTI, u), measure


def test_every_kosaki_embedding_gives_the_same_verdict():
    # a *-isomorphism is implementable exactly when it is a unital positive
    # isometry of L^p_eta(rho) for any one eta; a *-anti-isomorphism swaps
    # left and right multiplication, so it carries L^p_eta(rho) onto
    # L^p_(1-eta)(rho^T), and rho^T = rho on the exact family
    # every third exact map: 8 commuting ones and 8 permutations
    cases = [(kind, canonical_jordan(kind, u), QuantumMeasure(rho))
             for _, rho, u, _ in list(hadamard_family())[::3] for kind in (KIND_ISO, KIND_ANTI)]
    cases += list(random_kosaki_maps())
    answers = {True: 0, False: 0}
    for kind, v, measure in cases:
        gate = unital_and_positive(v)
        for p in P_GRID:
            today = implementability_check(v, measure, p).implementable
            answers[today] += 1
            for eta in KOSAKI_ETAS:
                out_eta = eta if kind == KIND_ISO else 1.0 - eta
                assert (gate and onto_isometry(v, measure, p, eta, out_eta)) == today, (kind, p, eta)
                if kind == KIND_ANTI and eta != 0.5 and today:
                    # read into the same L^p_eta, it is no isometry
                    assert not onto_isometry(v, measure, p, eta, eta), (p, eta)
    assert min(answers.values()) > 100


def test_right_multiplication_is_an_isometry_only_where_the_weight_sits_left():
    # X -> X W keeps ||rho^(1/p) X||_p for every unitary W, but not
    # ||rho^(1/2p) X rho^(1/2p)||_p when W does not commute with rho
    rng = rng_from(26)
    measure = state(3, 2.0, rng)
    w = random_unitary(3, rng)
    assert np.linalg.norm(w @ measure.rho - measure.rho @ w) > 0.1
    v = SuperOperator.sandwich(np.eye(3), w)
    for p in P_GRID:
        at_one = isometry_check(kosaki_transport(v, measure, p, 1.0, 1.0), None, p)
        assert at_one.is_isometry and at_one.onto
        assert not isometry_check(kosaki_transport(v, measure, p, 0.5, 0.5), None, p).is_isometry
