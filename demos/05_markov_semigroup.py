#!/usr/bin/env python3
"""From reversible shift to irreversible Markov semigroup, and the price.

The truncated two-sided Bernoulli shift carries an increasing filtration,
conditional expectations E_t, and the diagonal age (time) operator.  A
positive, non-increasing, log-concave spectral function f builds the
non-unitary change of representation Lam = f(T) + projection-on-constants,
and the intertwined semigroup step W_t with W_t Lam = Lam U_t.

The semigroup is doubly stochastic (decided exactly: the step is an XOR
convolution, positive exactly when its kernel is nonnegative), but it is
*not* the density evolution of any point transformation: its adjoint
fails multiplicativity by a margin that a pair scan bounds from below; the
scan pairs one subset per age with every subset, which meets every age
triple that all pairs meet.  Only the degenerate choices -- constant f (no
damping at all) or a coarse-graining projection -- restore or approach
point-map form, and the coarse-grained variant is reported as an
experiment, not asserted.
"""

from nclp import mpc

N, t = 3, 1
shift = mpc.build_shift(N)
f = mpc.SpectralFunction.logistic(N)
u = shift.shift_operator(t)
w, w1, w1t = (mpc.wt_build(shift, f, s) for s in (t, 1, 1 + t))
print(f"window half-width {N}: {shift.dim} Walsh basis elements")

print("\nexact operator identities (float route; the test suite repeats them")
print("in exact rational arithmetic):")
print(f"  age commutation defect      {mpc.commutation_check(u)}")
print(f"  filtration projector defect {mpc.filtration_defect(shift)}")
print(f"  intertwining defect         {mpc.intertwining_defect(w, mpc.lambda_build(shift, f), u)}")
print(f"  semigroup law defect        {mpc.semigroup_defect(w1, w, w1t)}")
print(f"  contraction violation       {mpc.contraction_violation(w)}")

suite = mpc.stochasticity_suite(shift, f, t)
print(f"\ndoubly stochastic on every density (domain fraction {suite.domain_fraction}):")
print(f"  positivity {suite.positivity_defect}  mass {suite.mass_defect}  "
      f"unitality {suite.unitality_defect}")

verdict = mpc.mpc_implementability(shift, f, t)
bound = mpc.multiplicativity_lower_bound(verdict.step)
print(f"\nis the semigroup step induced by a point map?")
print(f"  implementable = {verdict.implementable}")
print(f"  multiplicativity defect {verdict.defect:.6f} >= pair-scan bound {bound:.6f}")

plain = mpc.mpc_implementability(shift, mpc.SpectralFunction.constant(N), t)
print(f"\ncontrol (constant f, no damping): implementable = {plain.implementable}, "
      f"defect = {plain.defect}")

coarse = mpc.coarse_grained_implementability(shift, s0=0, t=t)
print(f"coarse-graining experiment (s0 = 0): defect = {coarse.defect:.6f} "
      f"(reported, not asserted)")
