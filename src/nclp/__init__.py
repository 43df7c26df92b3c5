"""Numerical toolkit for finite-dimensional non-commutative L^p spaces.

Submodules: :mod:`nclp.linalg` for the matrix primitives, :mod:`nclp.spaces`
for weighted norms and the integrability criterion, :mod:`nclp.superop` for
maps on matrix algebras and their isometry structure theory,
:mod:`nclp.classical` for finite point dynamics, and :mod:`nclp.mpc` for the
truncated shift model with its intertwined Markov semigroup.

Importing the package runs ``linalg``, ``sampling``, ``spaces`` and the
``jsonio`` it reads exponents by, which every subcommand needs.  ``superop``, ``mpc``, ``classical`` and
``acceptance`` are registered lazily: each is in ``sys.modules`` and bound
here from the start, but its body runs on the first attribute access, so a
process runs only the modules it uses.  The package-level names
(``nclp.SuperOperator``, ``nclp.weighted_norm`` and the rest of ``__all__``)
resolve through the module ``__getattr__`` on first access, to the same
object as in their submodule.
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

#: The package-level names, by the submodule that defines them.
_EXPORTS = {
    "classical": (
        "FiniteMeasureSpace PointMap doubly_stochastic_check frobenius_perron_of koopman_of "
        "multiplicativity_check weighted_permutation_decompose"
    ),
    "linalg": (
        "DEFAULT_TOL DensityMatrix HermitianEig frac_power hermitian_eig matrix_abs polar_decompose "
        "psd_leq"
    ),
    "mpc": (
        "SpectralFunction TruncatedKShift WalshOperator build_shift conditional_expectation lambda_build "
        "mpc_implementability stochasticity_suite time_operator wt_build"
    ),
    "spaces": (
        "P_GRID QuantumMeasure integrability_constant maximally_mixed norm_scale_report schatten_norm "
        "tau_conjugate weighted_inner weighted_norm"
    ),
    "superop": (
        "LampertiDecomposition SuperOperator change_of_representation_demo choi implementability_check "
        "isometry_check jordan_check jordan_classify lamperti_decompose positivity_check "
        "weighted_isometry_transport"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
