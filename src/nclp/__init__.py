"""Numerical toolkit for finite-dimensional non-commutative L^p spaces.

Submodules: :mod:`nclp.linalg` for the matrix primitives,
:mod:`nclp.sampling` for seeded random fixtures, :mod:`nclp.spaces` for
the one faithful state ``QuantumMeasure`` (which validates rho, decomposes
it once and caches its powers) and the weighted norms, :mod:`nclp.superop`
for maps on matrix algebras, their isometry structure theory and the
integrability criterion, :mod:`nclp.classical` for finite point dynamics,
and :mod:`nclp.mpc` for the truncated shift model with its intertwined
Markov semigroup.  Each public
name has one import path, through its submodule:
``from nclp.superop import SuperOperator``.

Importing the package runs ``linalg``, ``sampling``, ``spaces`` and the
``jsonio`` it reads exponents by, which every subcommand needs.  ``superop``, ``mpc``, ``classical`` and
``acceptance`` are registered lazily: each is in ``sys.modules`` and bound
here from the start, but its body runs on the first attribute access, so a
process runs only the modules it uses.
"""

import importlib.util
import sys

from . import linalg, sampling, spaces


def _lazy(name: str):
    """Register submodule ``name`` so that its body runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


acceptance = _lazy("acceptance")
classical = _lazy("classical")
mpc = _lazy("mpc")
superop = _lazy("superop")

__version__ = "0.1.0"
