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
fails multiplicativity by a margin that a pair scan bounds from below.
Only the degenerate choices -- constant f (no damping at all) or a
coarse-graining projection -- restore or approach point-map form, and the
coarse-grained variant is reported as an experiment, not asserted.

Each experiment below is one ``mpc.run_experiment``, the driver behind
``nclp mpc run`` and acceptance criteria 7 and 8, at N = 3, t = 1; the
test suite repeats the exact identities in rational arithmetic.
"""

from nclp import mpc

EXPERIMENTS = (
    ("logistic f", {"kind": "logistic"}),
    ("control: constant f, no damping", {"kind": "constant"}),
    ("coarse-graining experiment, s0 = 0", {"kind": "step", "s0": 0}),
)

for i, (title, f) in enumerate(EXPERIMENTS):
    if i:
        print()
    experiment = mpc.run_experiment({"N": 3, "t": 1, "f": f})
    status = "asserted" if experiment.asserted else "reported, not asserted"
    print(f"{title}: implementable = {experiment.implementable} ({status})")
    for row in experiment.rows:
        print(f"  {row.defect_name:32} {row.value:<12.6g} domain fraction {row.domain_fraction}")
