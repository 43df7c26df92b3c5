"""Seeded random fixtures: Ginibre matrices, Haar unitaries, random states.

Complex Gaussian entries are real + 1j*imag with independent N(0, 1) parts;
random states are G G* normalized to unit trace, which avoids singular or
otherwise degenerate fixtures with probability one.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(n: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def ginibre_stack(n: int, k: int, rng) -> np.ndarray:
    """k Ginibre matrices as a (k, n, n) stack: the stream is read in the
    order of k ``ginibre`` calls, so the stack equals theirs bit for bit."""
    x = rng_from(rng).standard_normal((k, 2, n, n))
    return x[:, 0] + 1j * x[:, 1]


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(n: int, rng):
    """A random faithful state, as a ``spaces.QuantumMeasure``."""
    from .spaces import QuantumMeasure  # spaces imports this module

    g = ginibre(n, rng_from(rng))
    m = g @ dagger(g)
    return QuantumMeasure(m / np.trace(m).real)


def commuting_unitary(eigenvectors: np.ndarray, rng) -> np.ndarray:
    """Random unitary diagonal in the given orthonormal eigenbasis.

    Commutes with every operator sharing that eigenbasis, e.g. the state the
    basis was taken from.
    """
    rng = rng_from(rng)
    n = eigenvectors.shape[0]
    phases = np.exp(2j * np.pi * rng.random(n))
    return eigenvectors @ (phases[:, None] * dagger(eigenvectors))
