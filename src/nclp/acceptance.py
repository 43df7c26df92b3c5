"""The acceptance gate: one function per criterion, each at its stated
tolerance, runnable from the test suite or from ``nclp selftest``.

Every criterion is property-based at desk scale and fully seeded, so reruns
are bit-reproducible.  A criterion returns a result object instead of
raising, and ``run_all`` prints one pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import classical, mpc
from .linalg import DensityMatrix, frobenius
from .sampling import commuting_unitary, ginibre, random_density, random_unitary, rng_from
from .spaces import (
    QuantumMeasure,
    integrability_constant,
    maximally_mixed,
    norm_scale_report,
    schatten_norm,
    tau_conjugate,
    weighted_norm,
)
from .superop import (
    KIND_ANTI,
    KIND_ISO,
    SuperOperator,
    canonical_jordan,
    change_of_representation_demo,
    implementability_check,
    lamperti_decompose,
    phase_distance,
)

#: Committed fixture for the empirical norm-scale direction: on every sampled
#: instance the weighted norms never decreased as the exponent grew.  The
#: abstract inclusion statement for the scale is stated with opposite
#: orientations in different sources, so only the measured direction is
#: committed, not a theorem.
EXPECTED_SCALE_DIRECTION = "nondecreasing_in_p"


@dataclass(frozen=True)
class AcceptanceResult:
    criterion: int
    name: str
    passed: bool
    details: str


def _result(criterion, name, failures, details):
    passed = not failures
    if failures:
        details = details + "; FAILURES: " + "; ".join(failures[:5])
    return AcceptanceResult(criterion, name, passed, details)


def _random_state(rng, n) -> QuantumMeasure:
    return QuantumMeasure(random_density(n, rng))


def criterion_1_norm_suite() -> AcceptanceResult:
    start = time.perf_counter()
    rng = rng_from(101)
    failures = []
    exponents = (1.0, 1.5, 2.0, 3.0)
    rtol = 1e-9
    for trial in range(200):
        n = 2 + trial % 5
        m = _random_state(rng, n)
        a = ginibre(n, rng)
        b = ginibre(n, rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for p in exponents:
            na = weighted_norm(a, m, p)
            nb = weighted_norm(b, m, p)
            if abs(weighted_norm(lam * a, m, p) - abs(lam) * na) > rtol * abs(lam) * na:
                failures.append(f"homogeneity trial={trial} p={p}")
            if weighted_norm(a + b, m, p) > (na + nb) * (1 + rtol):
                failures.append(f"triangle trial={trial} p={p}")
            # faithfulness: a tiny weighted norm forces a tiny matrix
            inv = np.linalg.eigvalsh(m.power(-1.0 / (2.0 * p)))[-1]
            bound = inv**2 * n ** max(0.0, 0.5 - 1.0 / p)
            if frobenius(a) > bound * na * (1 + rtol):
                failures.append(f"faithfulness trial={trial} p={p}")
    for k in range(20):
        m = _random_state(rng, 2 + k % 5)
        for p in exponents:
            if abs(weighted_norm(np.eye(m.dim), m, p) - 1.0) > 1e-12:
                failures.append(f"unit-norm state={k} p={p}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    return _result(
        1,
        "norm suite",
        failures,
        f"200 trials, dims 2-6, p in {exponents}, plus 20 unit-norm states, {elapsed:.2f}s",
    )


def criterion_2_tau_isometry() -> AcceptanceResult:
    rng = rng_from(202)
    failures = []
    exponents = (1.0, 1.5, 2.0, 3.0, 4.0)
    for trial in range(100):
        n = 2 + trial % 5
        m = _random_state(rng, n)
        x = ginibre(n, rng)
        p = exponents[trial % len(exponents)]
        forward = tau_conjugate(x, m, p, "forward")
        iso_gap = abs(schatten_norm(forward, p) - weighted_norm(x, m, p))
        if iso_gap > 1e-9 * weighted_norm(x, m, p):
            failures.append(f"isometry trial={trial} p={p} gap={iso_gap:.2e}")
        back = tau_conjugate(forward, m, p, "inverse")
        if frobenius(back - x) > 1e-9 * frobenius(x):
            failures.append(f"round-trip trial={trial} p={p}")
    return _result(2, "tau conjugation isometry", failures, "100 trials, dims 2-6")


def criterion_3_lamperti_round_trip() -> AcceptanceResult:
    rng = rng_from(303)
    failures = []
    count = 0
    for trial in range(100):
        n = 2 + trial % 4
        p = (1.0, 2.0, 3.0)[trial % 3]
        kind = KIND_ISO if trial % 2 == 0 else KIND_ANTI
        w0 = random_unitary(n, rng)
        u0 = random_unitary(n, rng)
        built = SuperOperator.sandwich(w0, np.eye(n)) @ canonical_jordan(kind, u0)
        try:
            dec = lamperti_decompose(built, p)
        except Exception as exc:  # a failed decomposition is a failed criterion
            failures.append(f"trial={trial}: {exc}")
            continue
        count += 1
        if dec.kind != kind:
            failures.append(f"kind trial={trial}")
        if phase_distance(dec.w, w0) > 1e-8:
            failures.append(f"w trial={trial}")
        if phase_distance(dec.implementing_unitary, u0) > 1e-8:
            failures.append(f"unitary trial={trial}")
        if abs(dec.scale - 1.0) > 1e-9:
            failures.append(f"scale trial={trial}")
    return _result(
        3,
        "isometry decomposition round trip",
        failures,
        f"{count}/100 decompositions, n in 2-5, p in (1, 2, 3)",
    )


def _commuting_jordan_fixture(rng, n, kind):
    """A state and a Jordan automorphism preserving it."""
    if kind == KIND_ISO:
        m = _random_state(rng, n)
        u = commuting_unitary(m.eigenbasis, rng)
    else:
        # the transposed kind needs a transpose-invariant state: diagonal, real
        w = rng.random(n) + 0.25
        m = QuantumMeasure(DensityMatrix(np.diag(w / w.sum()).astype(complex)))
        u = np.diag(np.exp(2j * np.pi * rng.random(n)))
    return m, u, canonical_jordan(kind, u)


def criterion_4_isometry_collapse() -> AcceptanceResult:
    rng = rng_from(404)
    failures = []
    for trial in range(100):
        n = 2 + trial % 4
        p = (1.0, 2.0, 3.0)[trial % 3]
        kind = KIND_ISO if trial % 2 == 0 else KIND_ANTI
        m, _, v = _commuting_jordan_fixture(rng, n, kind)
        report = implementability_check(v, m, p, trials=25, seed=11)
        if not report.implementable:
            failures.append(f"accept trial={trial} failure={report.failure}")
        elif report.match_defect > 1e-8:
            failures.append(f"match trial={trial} defect={report.match_defect:.2e}")
        noise = ginibre(n * n, rng)
        perturbed = SuperOperator(n, v.matrix + 1e-3 * noise)
        bad = implementability_check(perturbed, m, p, trials=25, seed=11)
        if bad.implementable:
            failures.append(f"reject trial={trial}")
    return _result(4, "unital positive isometry collapse", failures, "100 accept + 100 reject")


def criterion_5_integrability() -> AcceptanceResult:
    rng = rng_from(505)
    failures = []
    for n in (2, 3, 4):
        m = _random_state(rng, n)
        c = integrability_constant(SuperOperator.identity(n), m)
        if abs(c - 1.0) > 1e-12:
            failures.append(f"identity n={n} c={c!r}")
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m = QuantumMeasure(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
    c = integrability_constant(SuperOperator.ad_unitary(pauli_x), m)
    if abs(c - 2.0) > 1e-10:
        failures.append(f"bit-flip fixture c={c!r}")
    for trial in range(20):
        n = 2 + trial % 4
        kind = KIND_ISO if trial % 2 == 0 else KIND_ANTI
        m, _, j = _commuting_jordan_fixture(rng, n, kind)
        c = integrability_constant(j, m)
        if abs(c - 1.0) > 1e-9:
            failures.append(f"jordan trial={trial} c={c!r}")
    return _result(5, "integrability constants", failures, "identity exact, fixture, 20 samples")


def _measure_preserving_map(rng, n):
    """Random permutation with masses constant along its cycles."""
    perm = rng.permutation(n)
    mu = np.empty(n)
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        mass = float(rng.random() + 0.5)
        i = start
        while not seen[i]:
            seen[i] = True
            mu[i] = mass
            i = perm[i]
    return classical.PointMap(perm), classical.FiniteMeasureSpace(mu)


def criterion_6_classical_round_trip() -> AcceptanceResult:
    rng = rng_from(606)
    failures = []
    for trial in range(100):
        n = 2 + trial % 11
        s, space = _measure_preserving_map(rng, n)
        p = (1.0, 1.5, 3.0, 4.0)[trial % 4]
        dec = classical.weighted_permutation_decompose(classical.koopman_of(s), space, p)
        if not dec.ok or not np.array_equal(dec.point_map.images, s.images):
            failures.append(f"round-trip trial={trial}")
        elif dec.compatibility_defect > 1e-12:
            failures.append(f"compatibility trial={trial}")
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    space = classical.FiniteMeasureSpace(np.array([0.5, 0.5]))
    dec = classical.weighted_permutation_decompose(hadamard, space, 2.0)
    if dec.ok:
        failures.append("rotation was not rejected")
    return _result(6, "classical composition round trip", failures, "100 maps, n <= 12, plus the p=2 counterexample")


def criterion_7_mpc_exact_identities() -> AcceptanceResult:
    start = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        shift = mpc.build_shift(n)
        f = mpc.SpectralFunction.logistic(n)
        if mpc.filtration_defect(shift) != 0.0:
            failures.append(f"filtration N={n}")
        if mpc.time_consistency_defect(shift) != 0.0:
            failures.append(f"time consistency N={n}")
        for t in (1, 2):
            if mpc.commutation_check(shift, t) != 0.0:
                failures.append(f"commutation N={n} t={t}")
            if t > 2 * n:
                continue
            if mpc.intertwining_defect(shift, f, t) > 1e-12:
                failures.append(f"intertwining N={n} t={t}")
            if 1 + t <= 2 * n and mpc.semigroup_defect(shift, f, 1, t) > 1e-12:
                failures.append(f"semigroup N={n} t={t}")
            if mpc.contraction_violation(shift, f, t) > 0.0:
                failures.append(f"contraction N={n} t={t}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    return _result(7, "shift model exact identities", failures, f"N in 1-3, t in 1-2, {elapsed:.2f}s")


def criterion_8_mpc_verdicts() -> AcceptanceResult:
    failures = []
    shift = mpc.build_shift(3)
    logistic = mpc.SpectralFunction.logistic(3)
    suite = mpc.stochasticity_suite(shift, logistic, 1, samples=100, seed=808)
    for name, value in (
        ("positivity", suite.positivity_defect),
        ("mass", suite.mass_defect),
        ("unitality", suite.unitality_defect),
    ):
        if value > 1e-10:
            failures.append(f"stochasticity {name} defect={value:.2e}")
    verdict = mpc.mpc_implementability(shift, logistic, 1)
    bound = mpc.multiplicativity_lower_bound(shift, logistic, 1)
    if verdict.implementable:
        failures.append("logistic step was reported implementable")
    if bound <= 0.0:
        failures.append("oracle bound is not positive")
    if verdict.defect < bound:
        failures.append(f"defect {verdict.defect:.2e} below oracle bound {bound:.2e}")
    constant = mpc.SpectralFunction.constant(3)
    trivial = mpc.mpc_implementability(shift, constant, 1)
    if not trivial.implementable or trivial.defect != 0.0:
        failures.append(f"constant spectral function: defect={trivial.defect!r}")
    return _result(
        8,
        "semigroup verdicts",
        failures,
        f"defect {verdict.defect:.3e} >= oracle bound {bound:.3e}; plain shift defect 0",
    )


def criterion_9_change_of_representation() -> AcceptanceResult:
    rng = rng_from(909)
    failures = []
    for trial in range(20):
        n = 2 + trial % 2
        if trial % 5 == 4:
            # structured case: a general state with everything commuting
            m = _random_state(rng, n)
            u = commuting_unitary(m.eigenbasis, rng)
            lam = SuperOperator.ad_unitary(commuting_unitary(m.eigenbasis, rng))
        else:
            # generic pair at the uniform state, where every Jordan
            # composition is an isometry
            m = maximally_mixed(n)
            u = random_unitary(n, rng)
            lam = (
                SuperOperator.identity(n),
                SuperOperator.ad_unitary(random_unitary(n, rng)),
                SuperOperator.transpose_map(n),
                SuperOperator.ad_unitary(random_unitary(n, rng)) @ SuperOperator.transpose_map(n),
            )[trial % 4]
        report = change_of_representation_demo(u, lam, m, t_steps=3, trials=25, seed=13)
        if not report.all_implementable:
            bad = [s.t for s in report.steps if not s.report.implementable]
            failures.append(f"trial={trial} failed at t={bad}")
    return _result(9, "change of representation", failures, "20 pairs, t <= 3")


def criterion_10_norm_scale_direction() -> AcceptanceResult:
    rng = rng_from(1010)
    failures = []
    total = 0
    directions = set()
    for k in range(10):
        n = 2 + k % 3
        m = _random_state(rng, n)
        report = norm_scale_report(m, trials=50, seed=1000 + k)
        total += len(report.rows) // 10  # 10 pairs per trial
        if not report.consistent:
            failures.append(f"state {k} direction mixed")
        directions.add(report.direction)
    directions.discard("tie")
    if directions != {EXPECTED_SCALE_DIRECTION}:
        failures.append(f"observed directions {sorted(directions)}")
    return _result(
        10,
        "norm scale direction",
        failures,
        f"{total} trials across dims 2-4; committed direction {EXPECTED_SCALE_DIRECTION!r}",
    )


CRITERIA = (
    criterion_1_norm_suite,
    criterion_2_tau_isometry,
    criterion_3_lamperti_round_trip,
    criterion_4_isometry_collapse,
    criterion_5_integrability,
    criterion_6_classical_round_trip,
    criterion_7_mpc_exact_identities,
    criterion_8_mpc_verdicts,
    criterion_9_change_of_representation,
    criterion_10_norm_scale_direction,
)


def run_all(verbose: bool = True) -> list[AcceptanceResult]:
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            tag = "PASS" if result.passed else "FAIL"
            print(f"[{tag}] criterion {result.criterion} ({result.name}): {result.details}")
    return results
