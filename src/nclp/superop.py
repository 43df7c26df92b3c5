"""Linear maps on a matrix algebra as explicit matrices, plus the structure
theory of the ones that are onto L^p isometries.

Conventions, fixed once for the whole package (flipping any of them silently
flips downstream verdicts, so they are stated bit-exactly here):

- ``vec`` stacks the columns of an n x n matrix left to right, so that
  vec(A X B) = (B^T kron A) vec(X), i.e. ``np.kron(B.T, A)``;
- the conjugation X -> U X U* therefore has matrix ``np.kron(U.conj(), U)``;
- column vec(E_ij) of the matrix of T is vec(T(E_ij)), so the images of
  all matrix units are one reshape of the matrix (``_images``);
- ``swap(n)`` is the index permutation with vec(X^T) = vec(X)[swap(n)], so
  the transpose map is ``np.eye(n * n)[swap(n)]`` and composing with it
  permutes columns;
- the Choi matrix of a map T is C = sum_ij E_ij kron T(E_ij), the block
  matrix whose (i, j) block is T(E_ij);
- recovered unitaries are normalized so that their entry of largest modulus
  is positive real (a global phase is never observable).

An onto Schatten-p isometry of the full matrix algebra factors as
T(X) = scale * W @ J(X) with W unitary, scale a nonnegative number (the
central factor collapses to a scalar on a factor, with any sign absorbed
into W), and J a Jordan automorphism: J(X) = U X U* or J(X) = U X^T U*.
``lamperti_decompose`` recovers the factors and ``implementability_check``
runs the full unital + positive + onto-isometry route that forces
W = phase, scale = 1, and the map itself to equal J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ABS_FLOOR,
    DEFAULT_TOL,
    INVERTIBILITY_RATIO,
    DimensionMismatchError,
    SingularInputError,
    as_matrix,
    dagger,
    hermitian_part,
    polar_decompose,
    threshold,
)
from .sampling import ginibre, rng_from
from .spaces import QuantumMeasure, check_p, schatten_norm, weighted_norm

#: Relative cutoff for Choi-rank decisions: on the singular values in
#: ``choi_rank``, on the Frobenius residual in ``jordan_classify``.
CHOI_RANK_RTOL = 1e-8

KIND_ISO = "star_isomorphism"
KIND_ANTI = "star_anti_isomorphism"


class NotPositiveError(ValueError):
    """Map failed the sampled positivity check."""


class NotClassifiableError(ValueError):
    """Neither Choi-rank test identified a conjugation or a transposed one."""


class NotDecomposableError(ValueError):
    """Map is not an onto isometry (or numerics failed); carries the witness."""

    def __init__(self, reason: str, defect: float = math.nan, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.defect = defect
        self.witness = witness


class NotJordanError(ValueError):
    """A map required to be a Jordan automorphism is not one."""


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if n is None:
        n = math.isqrt(v.size)
    return v.reshape((n, n), order="F")


def swap(n: int) -> np.ndarray:
    """Index permutation with vec(X^T) = vec(X)[swap(n)]; an involution."""
    return np.arange(n * n).reshape(n, n).T.ravel()


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on n x n matrices, stored as an n^2 x n^2 matrix acting
    on column-stacked inputs."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != self.dim * self.dim:
            raise DimensionMismatchError(
                f"matrix of shape {m.shape} does not act on {self.dim}x{self.dim} inputs"
            )
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"input dim {x.shape[0]} does not match superoperator dim {self.dim}"
            )
        return unvec(self.matrix @ vec(x), self.dim)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        if other.dim != self.dim:
            raise DimensionMismatchError("composed maps must share the algebra dimension")
        return SuperOperator(self.dim, self.matrix @ other.matrix)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return self.compose(other)

    def adjoint(self) -> "SuperOperator":
        """Adjoint for the Hilbert-Schmidt pairing Tr(T(X)* Y) = Tr(X* adj(Y))."""
        return SuperOperator(self.dim, dagger(self.matrix))

    def predual(self) -> "SuperOperator":
        """Action on states: Tr(predual(rho) A) = Tr(rho T(A)) for all A."""
        s = swap(self.dim)
        return SuperOperator(self.dim, self.matrix.T[s][:, s])

    def inverse(self) -> "SuperOperator":
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= INVERTIBILITY_RATIO * sv[0]:
            raise SingularInputError("superoperator is not invertible")
        return SuperOperator(self.dim, np.linalg.inv(self.matrix))

    def scaled(self, factor: complex) -> "SuperOperator":
        return SuperOperator(self.dim, factor * self.matrix)

    # --- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "SuperOperator":
        return cls(n, np.eye(n * n, dtype=complex))

    @classmethod
    def sandwich(cls, a, b) -> "SuperOperator":
        """The map X -> A X B."""
        a = as_matrix(a)
        b = as_matrix(b)
        return cls(a.shape[0], np.kron(b.T, a))

    @classmethod
    def ad_unitary(cls, u) -> "SuperOperator":
        """Conjugation X -> U X U*."""
        u = as_matrix(u)
        return cls(u.shape[0], np.kron(u.conj(), u))

    @classmethod
    def transpose_map(cls, n: int) -> "SuperOperator":
        return cls(n, np.eye(n * n, dtype=complex)[swap(n)])

    @classmethod
    def from_apply(cls, n: int, fn) -> "SuperOperator":
        m = np.zeros((n * n, n * n), dtype=complex)
        for j in range(n):
            for i in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                m[:, j * n + i] = vec(as_matrix(fn(e)))
        return cls(n, m)


def canonical_jordan(kind: str, u, n: int | None = None) -> SuperOperator:
    """The Jordan automorphism X -> U X U* (iso) or X -> U X^T U* (anti)."""
    conjugation = SuperOperator.ad_unitary(u)
    if kind == KIND_ISO:
        return conjugation
    if kind == KIND_ANTI:
        return SuperOperator(conjugation.dim, conjugation.matrix[:, swap(conjugation.dim)])
    raise ValueError(f"unknown Jordan kind {kind!r}")


def fix_global_phase(u: np.ndarray) -> np.ndarray:
    """Rotate a matrix so its entry of largest modulus is positive real."""
    u = np.asarray(u, dtype=complex)
    idx = int(np.argmax(np.abs(u)))
    pivot = u.flat[idx]
    if pivot == 0:
        return u.copy()
    return u * (abs(pivot) / pivot)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between two matrices minimized over a global phase."""
    overlap = complex(np.trace(dagger(a) @ b))
    if overlap == 0:
        phase = 1.0
    else:
        phase = overlap / abs(overlap)
    return float(np.linalg.norm(a * phase - b))


def _max_column_norm(m: np.ndarray) -> float:
    """max over matrix units E_ij of the norm of column vec(E_ij) of ``m``:
    the worst Frobenius norm among the images of the matrix units."""
    return float(np.max(np.linalg.norm(m, axis=0)))


def _images(t: SuperOperator) -> np.ndarray:
    """The n x n x n x n array with images[i, k] = T(E_ik)."""
    n = t.dim
    return t.matrix.T.reshape(n, n, n, n).transpose(1, 0, 3, 2)


def _apply_to_stack(t: SuperOperator, xs: np.ndarray) -> np.ndarray:
    """T applied to each matrix of a (k, n, n) stack, as one product."""
    k, n = xs.shape[0], t.dim
    columns = xs.transpose(0, 2, 1).reshape(k, n * n).T
    return (t.matrix @ columns).T.reshape(k, n, n).transpose(0, 2, 1)


def choi(t: SuperOperator) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij kron T(E_ij)."""
    n = t.dim
    return _images(t).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def choi_rank(c: np.ndarray, rtol: float = CHOI_RANK_RTOL) -> int:
    s = np.linalg.svd(np.asarray(c, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _reads_rank_one(c: np.ndarray, rtol: float = CHOI_RANK_RTOL) -> bool:
    """Whether C is rank one to within rtol * ||C||_F, in O(n^4).

    A rank-one C = x y* equals column j times row i over C_ij for any
    nonzero entry; the entry of largest modulus is the pivot.  For a
    Hermitian C = s v v* that entry lies on the diagonal, and the product
    is c_k c_k* / C_kk whatever the sign of s.
    """
    i, j = np.unravel_index(int(np.argmax(np.abs(c))), c.shape)
    pivot = c[i, j]
    if pivot == 0:
        return False
    residual = np.linalg.norm(c - np.outer(c[:, j], c[i]) / pivot)
    return bool(residual <= rtol * np.linalg.norm(c))


@dataclass(frozen=True)
class JordanCheck:
    is_jordan: bool
    defect: float
    square_defect: float
    star_defect: float
    invertibility_defect: float
    worst_input: np.ndarray


def jordan_check(j: SuperOperator, tol: float = DEFAULT_TOL) -> JordanCheck:
    """Measure how far a map is from a Jordan automorphism.

    The test is necessary, not sufficient: the square defect covers only a
    Hermitian spanning set, and a map such as sigma_y -> cos(theta) sigma_y
    + sin(theta) sigma_x that fixes the other Pauli matrices passes it
    without being Jordan.  ``jordan_classify`` and the residual of
    ``lamperti_decompose`` catch such maps.

    The defect sums the worst J(A^2) - J(A)^2 deviation over a Hermitian
    spanning set, the worst *-preservation deviation over matrix units, and
    an invertibility term ABS_FLOOR * cond(J) that stays at the floor for
    honest automorphisms and blows up for maps that are not one-to-one.
    """
    n = j.dim
    # the Hermitian spanning set, in order: E_ii, then for each i < k the
    # symmetric E_ik + E_ki and the skew i E_ik - i E_ki, both squaring to
    # E_ii + E_kk; ja holds their images, ja_sq the images of their squares
    images = _images(j)
    units = images[np.arange(n), np.arange(n)]
    i, k = np.triu_indices(n, 1)
    pairs = np.stack([images[i, k] + images[k, i], 1j * (images[i, k] - images[k, i])], axis=1)
    ja = np.concatenate([units, pairs.reshape(-1, n, n)])
    ja_sq = np.concatenate([units, np.repeat(units[i] + units[k], 2, axis=0)])
    defects = np.linalg.norm(ja_sq - ja @ ja, axis=(1, 2))
    worst_index = int(np.argmax(defects))
    square_defect = float(defects[worst_index])
    worst = np.eye(n, dtype=complex)
    if square_defect > 0.0:
        worst = np.zeros((n, n), dtype=complex)
        if worst_index < n:
            worst[worst_index, worst_index] = 1.0
        else:
            pair, skew = divmod(worst_index - n, 2)
            a, b = i[pair], k[pair]
            worst[a, b], worst[b, a] = (1j, -1j) if skew else (1.0, 1.0)
    # column vec(E) of m[:, s] is J(E*); of m.conj()[s] it is J(E)*
    s = swap(n)
    star_defect = _max_column_norm(j.matrix[:, s] - j.matrix.conj()[s])
    sv = np.linalg.svd(j.matrix, compute_uv=False)
    if sv[-1] <= 0.0:
        invertibility_defect = math.inf
    else:
        invertibility_defect = ABS_FLOOR * float(sv[0] / sv[-1])
    defect = square_defect + star_defect + invertibility_defect
    scale = max(1.0, float(sv[0]) ** 2)
    return JordanCheck(
        is_jordan=bool(defect <= threshold(scale, tol)),
        defect=defect,
        square_defect=square_defect,
        star_defect=star_defect,
        invertibility_defect=invertibility_defect,
        worst_input=worst,
    )


@dataclass(frozen=True)
class JordanClassification:
    kind: str
    unitary: np.ndarray
    residual: float


def jordan_classify(j: SuperOperator, tol: float = DEFAULT_TOL) -> JordanClassification:
    """Split a Jordan automorphism into its conjugation or transposed form.

    On the full matrix algebra exactly one of choi(J), choi(J o transpose)
    has rank one.  The rank test costs O(n^4) and takes no SVD: a
    conjugation's Choi matrix is vec(U) vec(U)*, which its column c_k at the
    largest diagonal entry reproduces as c_k c_k* / C_kk, so C reads as rank
    one when that product matches C to within CHOI_RANK_RTOL of ||C||_F.
    It agrees with ``choi_rank(C) == 1`` except for spectra within a small
    factor of the cutoff.  The implementing unitary is then read off the
    top eigenvector of that candidate, rescaled to unitarity and
    phase-fixed.  Raises NotClassifiableError when neither rank test passes,
    which signals a map that is not Jordan (or a center that is not
    trivial, out of scope here).
    """
    n = j.dim
    candidates = (
        (KIND_ISO, j),
        (KIND_ANTI, SuperOperator(n, j.matrix[:, swap(n)])),
    )
    for kind, mapped in candidates:
        c = choi(mapped)
        if not _reads_rank_one(c):
            continue
        w, v = np.linalg.eigh(hermitian_part(c))
        top = int(np.argmax(np.abs(w)))
        u = unvec(v[:, top], n) * math.sqrt(n)
        u = fix_global_phase(u)
        residual = _max_column_norm(j.matrix - canonical_jordan(kind, u).matrix)
        unitarity = float(np.linalg.norm(dagger(u) @ u - np.eye(n)))
        if residual <= threshold(1.0, max(tol, 1e-6)) and unitarity <= threshold(1.0, max(tol, 1e-6)):
            return JordanClassification(kind=kind, unitary=u, residual=residual)
        raise NotClassifiableError(
            f"rank-one Choi spectrum but recovered map mismatches: residual {residual:.3e}"
        )
    raise NotClassifiableError("neither Choi matrix has rank one: not a factor Jordan map")


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    defect: float
    trials: int


def positivity_check(
    t: SuperOperator, trials: int = 50, seed=0, tol: float = DEFAULT_TOL
) -> PositivityReport:
    """Sampled positivity: T(P) must stay positive semidefinite.

    Samples unit-trace G G* states plus the diagonal matrix units.  This is
    positivity only: complete positivity is strictly stronger, and maps with
    a transposed part are positive without being completely positive.
    """
    rng = rng_from(seed)
    n = t.dim
    # the diagonal units E_ii, then the sampled states
    samples = [np.eye(n)[:, :, None] * np.eye(n)]
    for _ in range(trials):
        g = ginibre(n, rng)
        p = g @ dagger(g)
        samples.append((p / np.trace(p).real)[None])
    out = _apply_to_stack(t, np.concatenate(samples))
    w = np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2.0)
    scale = np.maximum(1.0, np.abs(w).max(axis=1))
    defect = float(np.max(np.maximum(-w[:, 0], 0.0) / scale))
    return PositivityReport(
        positive=bool(defect <= threshold(1.0, tol)),
        defect=defect,
        trials=trials,
    )


@dataclass(frozen=True)
class IsometryCheck:
    is_isometry: bool
    max_rel_defect: float
    onto: bool
    gram_defect: float | None
    trials: int


def isometry_check(
    t: SuperOperator,
    measure: QuantumMeasure | None,
    p,
    trials: int = 50,
    seed=0,
    tol: float = DEFAULT_TOL,
) -> IsometryCheck:
    """Compare ||T(X)|| with ||X|| on random inputs; measure=None uses the
    Schatten norm, otherwise the state-weighted norm.

    Surjectivity is the invertibility of the n^2 x n^2 matrix M, decided
    from its Gram matrix G = M* M first.  With c = ||M||_F^2 / n^2 the mean
    of G's eigenvalues, ||G - c 1||_F <= c / 2 puts every squared singular
    value in [c / 2, 3c / 2] (Weyl), so M is invertible and the singular
    value rule below could only agree.  When that certificate is
    inconclusive (projections, near-singular or zero maps) the singular
    values are computed and M counts as onto when the smallest exceeds
    INVERTIBILITY_RATIO times the largest.

    For p = 2 an exact Gram certificate of the isometry is available (the
    matrix of T in an orthonormal basis of the relevant L^2 inner product
    must be unitary) and is required on top of the sampled comparison; with
    measure=None it reuses G.  For other p no finite certificate is used,
    so the trial count and worst defect are reported alongside the verdict.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = check_p(p)
    rng = rng_from(seed)
    n = t.dim

    def norm(x):
        if measure is None:
            return schatten_norm(x, p)
        return weighted_norm(x, measure, p)

    xs = np.stack([ginibre(n, rng) for _ in range(trials)])
    nx = norm(xs)
    max_rel = float(np.max(np.abs(norm(_apply_to_stack(t, xs)) - nx) / nx))
    # a Gram matrix G is shifted to G - c 1 through a view of its diagonal,
    # so no n^2 x n^2 identity is built
    gram_defect = None
    if p == 2.0 and measure is not None:
        g = weighted_isometry_transport(t, measure, p).matrix
        gram = dagger(g) @ g
        gram.reshape(-1)[:: n * n + 1] -= 1.0
        gram_defect = float(np.linalg.norm(gram))
        # freed before M* M is formed, so the two are never held at once
        del g, gram
    gram = dagger(t.matrix) @ t.matrix
    diagonal = gram.reshape(-1)[:: n * n + 1]
    gram_diagonal = diagonal.copy()
    c = float(np.sum(gram_diagonal.real)) / (n * n)
    diagonal[:] = gram_diagonal - c
    onto = bool(c > 0.0 and np.linalg.norm(gram) <= c / 2.0)
    if not onto:
        sv = np.linalg.svd(t.matrix, compute_uv=False)
        onto = bool(sv[0] > 0.0 and sv[-1] > INVERTIBILITY_RATIO * sv[0])
    if p == 2.0 and measure is None:
        diagonal[:] = gram_diagonal - 1.0
        gram_defect = float(np.linalg.norm(gram))
    gram_ok = gram_defect is None or gram_defect <= threshold(float(n), tol)
    is_isometry = bool(max_rel <= threshold(1.0, tol) and gram_ok)
    return IsometryCheck(
        is_isometry=is_isometry,
        max_rel_defect=max_rel,
        onto=onto,
        gram_defect=gram_defect,
        trials=trials,
    )


@dataclass(frozen=True)
class LampertiDecomposition:
    """T(X) = scale * W @ J(X) with J a classified Jordan automorphism.

    ``scale_defect`` records |scale^p - 1| and ``residual`` the worst
    distance of T from scale * W @ J over the matrix units; on a matrix
    algebra with the plain trace an onto isometry forces scale = 1, and
    ``lamperti_decompose`` returns a decomposition only when both are within
    tolerance, so the factors certify that T is an onto isometry.
    """

    w: np.ndarray
    scale: float
    jordan: SuperOperator
    kind: str
    implementing_unitary: np.ndarray
    residual: float
    centrality_defect: float
    scale_defect: float


def lamperti_decompose(t: SuperOperator, p, tol: float = DEFAULT_TOL) -> LampertiDecomposition:
    """Factor an onto Schatten-p isometry as T(X) = scale * W @ J(X).

    Steps: (1) polar decompose T(1) = W P; (2) verify P is a multiple of the
    identity (the central factor of a factor algebra) and |scale^p - 1| is
    within tolerance; (3) peel W and the scale off and (4) check and
    classify the Jordan remainder; (5) require T to equal scale * W @ J for
    the canonical J of that class.  No sampling is involved: W unitary,
    scale = 1 and J a conjugation or a transposed one make T an onto
    Schatten-p isometry (Yeadon), so the factors are the certificate.
    Raises NotDecomposableError, carrying the worst witness, whenever a
    defect exceeds tolerance.
    """
    p = check_p(p)
    n = t.dim
    a = t.apply(np.eye(n))
    try:
        w_factor, positive = polar_decompose(a, tol=tol)
    except SingularInputError as exc:
        raise NotDecomposableError(f"T(1) is singular: {exc}", witness=a) from exc
    scale = float(np.trace(positive).real / n)
    centrality_defect = float(np.linalg.norm(positive - scale * np.eye(n)))
    if centrality_defect > threshold(scale * math.sqrt(n), tol):
        raise NotDecomposableError(
            f"central factor is not scalar: defect {centrality_defect:.3e}",
            defect=centrality_defect,
            witness=positive,
        )
    scale_defect = abs(scale - 1.0) if math.isinf(p) else abs(scale**p - 1.0)
    if scale_defect > threshold(1.0, tol):
        raise NotDecomposableError(
            f"not an onto Schatten-{p:g} isometry: |scale^p - 1| = {scale_defect:.3e}",
            defect=scale_defect,
        )
    # kron(eye(n), A) @ M multiplies each n-row block of M by A
    blocks = t.matrix.reshape(n, n, -1)
    jordan = SuperOperator(n, (dagger(w_factor) @ blocks).reshape(n * n, n * n) / scale)
    check = jordan_check(jordan, tol=tol)
    if not check.is_jordan:
        raise NotDecomposableError(
            f"remainder is not a Jordan automorphism: defect {check.defect:.3e}",
            defect=check.defect,
            witness=check.worst_input,
        )
    try:
        classification = jordan_classify(jordan, tol=tol)
    except NotClassifiableError as exc:
        raise NotDecomposableError(str(exc)) from exc
    canonical = canonical_jordan(classification.kind, classification.unitary)
    rebuilt = (scale * w_factor @ canonical.matrix.reshape(n, n, -1)).reshape(n * n, n * n)
    residual = _max_column_norm(t.matrix - rebuilt)
    if residual > threshold(1.0, tol):
        raise NotDecomposableError(
            f"not an onto Schatten-{p:g} isometry: residual {residual:.3e} "
            "from scale * W @ J",
            defect=residual,
        )
    return LampertiDecomposition(
        w=w_factor,
        scale=scale,
        jordan=jordan,
        kind=classification.kind,
        implementing_unitary=classification.unitary,
        residual=residual,
        centrality_defect=centrality_defect,
        scale_defect=scale_defect,
    )


def weighted_isometry_transport(
    v: SuperOperator, measure: QuantumMeasure, p, inverse: bool = False
) -> SuperOperator:
    """Conjugate a map on the weighted space into one on the tracial space.

    Returns T = tau_p o V o tau_p^(-1), where tau_p is the sandwich with
    rho^(1/2p); with inverse=True the conjugation runs the other way.  V is
    a weighted-norm isometry exactly when its transport is a Schatten-norm
    isometry.
    """
    p = check_p(p)
    if v.dim != measure.dim:
        raise DimensionMismatchError("map and state dimensions differ")
    r = 0.0 if math.isinf(p) else 1.0 / (2.0 * p)
    root = measure.power(r)
    root_inv = measure.power(-r)
    forward = np.kron(root.T, root)
    backward = np.kron(root_inv.T, root_inv)
    if inverse:
        return SuperOperator(v.dim, backward @ v.matrix @ forward)
    return SuperOperator(v.dim, forward @ v.matrix @ backward)


@dataclass(frozen=True)
class ImplementabilityReport:
    """Outcome of the unital + positive + onto-isometry route.

    Every failure mode is an entry here, never an exception: a negative
    verdict is a successful run.  ``jordan`` carries the implementing Jordan
    automorphism when the map is implementable, in canonical form.
    """

    implementable: bool
    jordan: SuperOperator | None
    kind: str | None
    unitality_defect: float
    positivity_defect: float | None
    isometry: IsometryCheck | None
    decomposition: LampertiDecomposition | None
    w_phase_defect: float | None
    scale_defect: float | None
    match_defect: float | None
    failure: str | None

    @property
    def defects(self) -> dict[str, float]:
        out = {"unitality": self.unitality_defect}
        if self.positivity_defect is not None:
            out["positivity"] = self.positivity_defect
        if self.isometry is not None:
            out["isometry"] = self.isometry.max_rel_defect
        if self.w_phase_defect is not None:
            out["w_phase"] = self.w_phase_defect
        if self.scale_defect is not None:
            out["scale"] = self.scale_defect
        if self.match_defect is not None:
            out["jordan_match"] = self.match_defect
        return out


def implementability_check(
    v: SuperOperator,
    measure: QuantumMeasure,
    p,
    tol: float = DEFAULT_TOL,
    trials: int = 50,
    seed=0,
) -> ImplementabilityReport:
    """Decide whether a map is induced by a Jordan automorphism.

    Checks, in order: unitality V(1) = 1; positivity on sampled states;
    onto-isometry for the weighted p-norm; then transports to the tracial
    space, decomposes (which demands scale = 1), and demands
    W = phase * identity and V = J on a spanning set.  All hypotheses are
    verified, none assumed.
    """
    p = check_p(p)
    n = v.dim

    def fail(stage, **kw):
        defaults = dict(
            implementable=False,
            jordan=None,
            kind=None,
            unitality_defect=unitality_defect,
            positivity_defect=None,
            isometry=None,
            decomposition=None,
            w_phase_defect=None,
            scale_defect=None,
            match_defect=None,
            failure=stage,
        )
        defaults.update(kw)
        return ImplementabilityReport(**defaults)

    unitality_defect = float(np.linalg.norm(v.apply(np.eye(n)) - np.eye(n)))
    if unitality_defect > threshold(math.sqrt(n), tol):
        return fail("unitality")
    pos = positivity_check(v, trials=trials, seed=seed, tol=tol)
    if not pos.positive:
        return fail("positivity", positivity_defect=pos.defect)
    iso = isometry_check(v, measure, p, trials=trials, seed=seed, tol=tol)
    if not iso.is_isometry or not iso.onto:
        stage = "onto" if not iso.onto else "isometry"
        return fail(stage, positivity_defect=pos.defect, isometry=iso)
    transported = weighted_isometry_transport(v, measure, p)
    try:
        dec = lamperti_decompose(transported, p, tol=tol)
    except NotDecomposableError as exc:
        return fail(
            f"decomposition: {exc.reason}", positivity_defect=pos.defect, isometry=iso
        )
    tr = complex(np.trace(dec.w))
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    w_phase_defect = float(np.linalg.norm(dec.w - phase * np.eye(n)))
    scale_defect = abs(dec.scale - 1.0)
    canonical = canonical_jordan(dec.kind, dec.implementing_unitary)
    match_defect = _max_column_norm(v.matrix - canonical.matrix)
    common = dict(
        positivity_defect=pos.defect,
        isometry=iso,
        decomposition=dec,
        w_phase_defect=w_phase_defect,
        scale_defect=scale_defect,
        match_defect=match_defect,
    )
    if w_phase_defect > threshold(math.sqrt(n), tol):
        return fail("w_not_phase", **common)
    if match_defect > threshold(1.0, tol):
        return fail("jordan_match", **common)
    return ImplementabilityReport(
        implementable=True,
        jordan=canonical,
        kind=dec.kind,
        unitality_defect=unitality_defect,
        failure=None,
        **common,
    )


@dataclass(frozen=True)
class ChangeRepStep:
    t: int
    report: ImplementabilityReport


@dataclass(frozen=True)
class ChangeRepReport:
    steps: tuple[ChangeRepStep, ...]
    all_implementable: bool


def change_of_representation_demo(
    u,
    lam: SuperOperator,
    measure: QuantumMeasure,
    t_steps: int,
    p=2.0,
    tol: float = DEFAULT_TOL,
    trials: int = 50,
    seed=0,
) -> ChangeRepReport:
    """Run implementability on Lam o Ad(U^t) o Lam^(-1) for t = 1..t_steps.

    Lam must itself be a Jordan automorphism (NotJordanError otherwise):
    conjugating a unitary evolution by an isomorphic change of
    representation can never escape Jordan-implemented dynamics, and this
    demo verifies the claim instance by instance.  The verdicts are with
    respect to the supplied state at the given p (default 2, the Hilbert
    space case); the composed map must in particular be an isometry for
    that state, which holds automatically at the uniform state.
    """
    u = as_matrix(u)
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    check = jordan_check(lam, tol=tol)
    if not check.is_jordan:
        raise NotJordanError(
            f"change of representation is not a Jordan automorphism: defect {check.defect:.3e}"
        )
    lam_inv = lam.inverse()
    steps = []
    for t in range(1, t_steps + 1):
        ut = np.linalg.matrix_power(u, t)
        composed = lam @ SuperOperator.ad_unitary(ut) @ lam_inv
        report = implementability_check(
            composed, measure, p, tol=tol, trials=trials, seed=seed
        )
        steps.append(ChangeRepStep(t=t, report=report))
    return ChangeRepReport(
        steps=tuple(steps),
        all_implementable=all(s.report.implementable for s in steps),
    )
