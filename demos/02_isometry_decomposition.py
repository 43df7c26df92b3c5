#!/usr/bin/env python3
"""Structure of onto Schatten-p isometries.

Every linear map that carries the Schatten p-norm isometrically onto
itself factors as T(X) = scale * W @ J(X): a unitary left factor, a
scalar (forced to 1 by the trace), and a Jordan automorphism J, which on
a full matrix algebra is either a conjugation X -> U X U* or a transposed
conjugation X -> U X^T U*.  The script builds both kinds, hides them
behind a random unitary factor, and recovers every ingredient.
"""

import numpy as np

from nclp.sampling import ginibre, random_unitary, rng_from
from nclp.superop import (
    KIND_ANTI,
    KIND_ISO,
    NotDecomposableError,
    SuperOperator,
    canonical_jordan,
    isometry_check,
    lamperti_decompose,
    phase_distance,
)

rng = rng_from(1)
n = 4
w0 = random_unitary(n, rng)
u0 = random_unitary(n, rng)

print("Choi-rank fingerprints: a conjugation has a rank-one Choi matrix,")
print("a transposed conjugation acquires rank one only after composing with")
print("the transpose (the distance of each Choi matrix from its rank-one")
print("reading through the pivot, relative to its norm; inf when far):")
for kind in (KIND_ISO, KIND_ANTI):
    j = canonical_jordan(kind, u0)
    plain, flipped = (e / np.linalg.norm(j.matrix) for _, _, e in j.pivot_reading)
    print(f"  {kind:<22} choi: {plain:.1e}  choi o transpose: {flipped:.1e}")

print("\nhide each Jordan kind behind a unitary left factor and decompose:")
for kind in (KIND_ISO, KIND_ANTI):
    built = SuperOperator.sandwich(w0, np.eye(n)) @ canonical_jordan(kind, u0)
    for p in (1.0, 2.0, 3.0):
        dec = lamperti_decompose(built, p)
        print(
            f"  kind={dec.kind:<22} p={p}  scale={dec.scale:.12f}  "
            f"|W - W0| = {phase_distance(dec.w, w0):.2e}  "
            f"|U - U0| = {phase_distance(dec.implementing_unitary, u0):.2e}"
        )
        assert dec.kind == kind

print("\nmaps that are not onto isometries are refused, with the reason:")
for label, bad in (
    ("2 * conjugation", SuperOperator.ad_unitary(u0).scaled(2.0)),
    ("isometry + 1e-3 noise", SuperOperator(n, np.kron(u0.conj(), u0) + 1e-3 * ginibre(n * n, rng))),
):
    try:
        lamperti_decompose(bad, 2.0)
    except NotDecomposableError as exc:
        print(f"  {label:<24} -> {exc.reason}")

check = isometry_check(SuperOperator.ad_unitary(u0), None, 2.0)
print(
    f"\nfor p = 2 the verdict is certified by an exact Gram test: "
    f"defect {check.gram_defect:.2e}"
)
