#!/usr/bin/env python3
"""Weighted matrix norms from a faithful state.

A density matrix rho turns the n x n matrices into a scale of normed
spaces via ||A||_p = (Tr |rho^(1/2p) A rho^(1/2p)|^p)^(1/p).  This script
walks through the basic facts at desk scale:

  - the identity has norm one for every exponent (the state is normalized),
  - the sandwich map X -> rho^(1/2p) X rho^(1/2p) carries the weighted norm
    isometrically onto the plain Schatten norm,
  - the L^2 member of the scale is a genuine inner-product space,
  - and, empirically, the norms never decrease as the exponent grows.
"""

import numpy as np

from nclp.sampling import ginibre, random_density, rng_from
from nclp.spaces import (
    P_GRID,
    norm_scale_report,
    schatten_norm,
    tau_conjugate,
    weighted_inner,
    weighted_norm,
)

rng = rng_from(42)
n = 3
measure = random_density(n, rng)

print("state rho =")
print(np.round(measure.rho, 4))

print("\n||identity||_p across the exponent grid (all exactly 1):")
for p in P_GRID:
    print(f"  p = {p:<4} -> {weighted_norm(np.eye(n), measure, p):.15f}")

a = ginibre(n, rng)
print("\nrandom A, weighted norms vs Schatten norms of the sandwiched matrix:")
for p in P_GRID:
    wn = weighted_norm(a, measure, p)
    sn = schatten_norm(tau_conjugate(a, measure, p), p)
    print(f"  p = {p:<4} weighted {wn:.12f}   sandwiched Schatten {sn:.12f}")
    assert abs(wn - sn) <= 1e-9 * wn

print("\nthe p = 2 norm comes from the inner product Tr(rho^1/2 A* rho^1/2 B):")
quad = weighted_inner(a, a, measure).real
print(f"  <A, A> = {quad:.12f}    ||A||_2^2 = {weighted_norm(a, measure, 2.0) ** 2:.12f}")

print("\nempirical direction of the scale (500 samples):")
report = norm_scale_report(measure, trials=500, seed=7)
print(f"  direction = {report.direction}   consistent = {report.consistent}")
row = report.rows[0]
print(f"  e.g. ||A||_{row.p} = {row.norm_p:.6f}  <=  ||A||_{row.q} = {row.norm_q:.6f}")
