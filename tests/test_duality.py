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

from nclp.sampling import commuting_unitary, ginibre, random_unitary, rng_from
from nclp.spaces import P_GRID, QuantumMeasure
from nclp.superop import KIND_ANTI, KIND_ISO, SuperOperator, canonical_jordan, implementability_check, isometry_check

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
