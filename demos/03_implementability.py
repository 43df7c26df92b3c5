#!/usr/bin/env python3
"""Which maps of a quantum system are induced by a Jordan automorphism?

A map V on the weighted space is called implementable when it is the
action of a Jordan automorphism.  The checker verifies the hypotheses
(V is unital, positive, and an onto isometry for the state), transports V
to the tracial space, decomposes it there, and demands that the unitary
factor collapse to a phase and the scale to one, so that V equals its own
Jordan part.

The second half asks whether conjugating a unitary evolution by an
isomorphic change of representation can produce dynamics that no point-like
(Jordan) evolution generates.  It cannot: every composition passes the
checker, step after step.
"""

import numpy as np

from nclp.sampling import commuting_unitary, ginibre, random_density, random_unitary, rng_from
from nclp.spaces import maximally_mixed
from nclp.superop import (
    SuperOperator,
    change_of_representation_demo,
    implementability_check,
    integrability_constant,
    vec,
)

rng = rng_from(5)
n = 3

measure = random_density(n, rng)
u = commuting_unitary(measure.eigenbasis, rng)
v = SuperOperator.ad_unitary(u)

print("conjugation by a unitary commuting with rho:")
report = implementability_check(v, measure, 2.0)
print(f"  implementable = {report.implementable}  kind = {report.kind}")
print(f"  defects: { {k: f'{x:.2e}' for k, x in report.defects.items()} }")
print(f"  integrability constant = {integrability_constant(v, measure):.12f}")

print("\nperturbing the same map by 1e-3 noise breaks the hypotheses:")
noisy = SuperOperator(n, v.matrix + 1e-3 * ginibre(n * n, rng))
bad = implementability_check(noisy, measure, 2.0)
print(f"  implementable = {bad.implementable}  failed stage = {bad.failure}")

print("\nthe expectation onto scalars is unital and positive but not onto:")
# X -> tr(rho X) 1: column vec(X) of the matrix is read against vec(rho^T)
flat = SuperOperator(n, np.outer(vec(np.eye(n)), vec(measure.rho.T)))
squeeze = implementability_check(flat, measure, 2.0)
print(f"  implementable = {squeeze.implementable}  failed stage = {squeeze.failure}")

print("\nchange of representation at the uniform state:")
uniform = maximally_mixed(n)
hamiltonian_step = random_unitary(n, rng)
for label, frame in (
    ("identity", SuperOperator.identity(n)),
    ("transpose", SuperOperator.transpose_map(n)),
    ("unitary frame", SuperOperator.ad_unitary(random_unitary(n, rng))),
):
    outcome = change_of_representation_demo(hamiltonian_step, frame, uniform, t_steps=3)
    verdicts = [step.report.implementable for step in outcome.steps]
    print(f"  frame = {label:<14} implementable at t = 1..3: {verdicts}")
    assert outcome.all_implementable
print("point dynamics survives every isomorphic change of representation.")
