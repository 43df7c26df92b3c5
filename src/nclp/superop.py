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
W = 1, scale = 1, and the map itself to equal J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jsonio import count_value
from .linalg import (
    ABS_FLOOR,
    DEFAULT_TOL,
    DimensionMismatchError,
    SingularInputError,
    as_matrix,
    dagger,
    hermitian_part,
    invertible,
    polar_decompose,
    threshold,
)
from .sampling import ginibre_stack
from .spaces import QuantumMeasure, check_dim, check_p, schatten_norm, tau_exponent, weighted_norm

#: Relative cutoff for Choi-rank decisions, on the pivot reading's
#: Frobenius residual in ``jordan_classify``.  The invertibility rule takes
#: no cutoff: the Choi certificate's residual enters the bounds it returns,
#: and otherwise the singular values decide.
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

    @cached_property
    def pivot_reading(self) -> tuple:
        return _choi_pivot_reading(self.matrix)

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

    def predual(self) -> "SuperOperator":
        """Action on states: Tr(predual(rho) A) = Tr(rho T(A)) for all A."""
        s = swap(self.dim)
        return SuperOperator(self.dim, self.matrix.T[s][:, s])

    def inverse(self) -> "SuperOperator":
        """The inverse map; SingularInputError when the matrix M is singular.

        M counts as singular unless its singular values are ``invertible``,
        read through ``_singular_value_bounds``: the O(n^4) Choi certificate
        when it concludes, the singular values otherwise.
        """
        if not invertible(*_singular_value_bounds(self)):
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


def canonical_jordan(kind: str, u) -> SuperOperator:
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
    overlap = complex(np.vdot(a, b))
    if overlap == 0:
        phase = 1.0
    else:
        phase = overlap / abs(overlap)
    return float(np.linalg.norm(a * phase - b))


def _choi_pivot_reading(m: np.ndarray) -> tuple:
    """The (x, y, e) of the conjugation kind and of the transposed kind,
    read in O(n^4) off the n^2 x n^2 matrix M of a map; () when M = 0.

    A map X -> A X B has Choi matrix x y^T, rank one; X -> A X^T B is that
    map composed with the transpose, which only permutes the columns of M.
    The pivot, M's entry of largest modulus, is the same entry of choi(M)
    and of choi(M o transpose): both are views of ``m.reshape(n, n, n, n)``,
    indexed [b, a, k, i] for row bn + a and column kn + i.  Each kind reads
    the pivot's Choi column as an n x n matrix x and its row over the pivot
    as y, so that the map M0 whose Choi matrix is x y^T has
    M0[bn + a, kn + i] = x[a, i] y[b, k] (conjugation kind, M0 = kron(y, x))
    or x[a, k] y[b, i] (transposed kind).  The residual e = ||C - x y^T||_F
    = ||M - M0||_F is one Frobenius norm of the outer product minus a view
    of M, formed in place: no Choi matrix is built, and one n^4 array is
    alive at a time.  e is inf once it reaches ||x||_F ||y||_F / n, the root
    mean square of the n^2 singular values of M0: M is then far from M0 by
    any measure.
    """
    size = m.shape[0]
    n = math.isqrt(size)
    row, col = divmod(int(np.argmax(np.abs(m))), size)
    pivot = m[row, col]
    if pivot == 0:
        return ()
    (b0, a0), (k0, i0) = divmod(row, n), divmod(col, n)
    m4 = m.reshape(n, n, n, n)

    def reading(x, y, yb, xb):
        # M0 - M in M's layout, C-ordered so that vdot reads it in place
        residual = np.multiply(yb, xb, order="C")
        residual -= m4
        squares = float(np.vdot(residual, residual).real)
        limit = float(np.vdot(x, x).real * np.vdot(y, y).real) / (n * n)
        return x, y, (math.sqrt(squares) if squares < limit else math.inf)

    x, y = m4[b0, :, k0, :], m4[:, a0, :, i0] / pivot  # x[a, i] and y[b, k]
    conjugation = reading(x, y, y[:, None, :, None], x[:, None, :])
    x, y = m4[b0, :, :, i0], m4[:, a0, k0, :] / pivot  # x[a, k] and y[b, i]
    return conjugation, reading(x, y, y[:, None, None, :], x[:, :, None])


def _choi_bounds(readings) -> tuple[float, float] | None:
    """Weyl bounds (low, high) on the singular values of the n^2 x n^2
    matrix M of a map, from the pivot's Choi column and row (``readings``,
    the (x, y, e) of ``_choi_pivot_reading(M)``), or None when they are
    inconclusive.

    The singular values of M0 = kron(y, x), or of its column permutation,
    are sigma_i(x) sigma_j(y), and the Choi reshuffle and the transpose
    only permute entries, so ||M - M0||_2 <= e and Weyl puts every singular
    value of M in [s_min(x) s_min(y) - e, s_max(x) s_max(y) + e], from two
    n x n SVDs.  They are returned only when the upper one is at most
    sqrt(3) times the lower one, so that a conclusive certificate means
    cond(M) <= sqrt(3).  No rtol enters; the residual does, and an inf
    residual is inconclusive.
    """
    for x, y, e in readings:
        if math.isinf(e):
            continue
        sx, sy = np.linalg.svd(np.stack([x, y]), compute_uv=False)
        low = float(sx[-1] * sy[-1]) - e
        high = float(sx[0] * sy[0]) + e
        if low > 0.0 and high * high <= 3.0 * low * low:
            return low, high
    return None


def _singular_value_bounds(t: SuperOperator) -> tuple[float, float]:
    """Bounds (low, high) around the singular values of the matrix M of a
    map, the input of ``linalg.invertible``.

    They are ``_choi_bounds`` on the map's ``pivot_reading`` when it
    concludes: then cond(M) <= sqrt(3), far above the ratio, and the rule
    could only agree with the singular values.  Otherwise they are the exact
    smallest and largest singular values, from one SVD.
    """
    bounds = _choi_bounds(t.pivot_reading)
    if bounds is not None:
        return bounds
    sv = np.linalg.svd(t.matrix, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def _factor_gram_defects(readings, measure: QuantumMeasure | None):
    """Yield (d0, delta) for each kind of ``readings`` (the (x, y, e) of
    ``_choi_pivot_reading(M)``) with a finite residual: the p = 2 Gram
    defect ||G - 1||_F of the weighted transport of the map M0 read off
    the Choi pivot, and a bound delta on how far the residual e moves it
    for M itself.

    M0 is X -> A X B with A = x, B = y^T, or X -> A X^T B.  The transport
    L V(R X R) L, with L = rho^r and R = rho^(-r) for r = tau_exponent(2)
    = 1/4 (both 1 without a measure), turns it into X -> A' X B' with
    A' = L A R, B' = R B L, or into X -> A' X^T B' with R^T for R on the
    inner side.  Its matrix is kron(B'^T, A'), or that with its columns
    permuted, so its Gram matrix is kron(P, Q), up to a permutation
    similarity, with P = conj(B') B'^T and Q = A'* A'.
    d0 = ||kron(P, Q) - 1||_F is summed by blocks in O(n^3), with no
    difference of large squares:
    d0^2 = ||offdiag P||_F^2 ||Q||_F^2 + sum_i ||P_ii Q - 1||_F^2.

    The transport's matrix is kron(L^T, L) M kron(R^T, R), so it lies
    within eta = ||L||_2^2 ||R||_2^2 e of the one of M0 in Frobenius norm,
    and the Gram defects of the two differ by at most
    delta = eta (2 sigma_max(A') sigma_max(B') + eta).
    """
    spread = 1.0
    if measure is not None:
        r = tau_exponent(2.0)
        left, right = measure.power(r), measure.power(-r)
        w = measure.eigenvalues
        spread = math.sqrt(w[-1] / w[0])
    for (x, y, e), transposed in zip(readings, (False, True)):
        if math.isinf(e):
            continue
        a, b = x, y.T
        if measure is not None:
            inner = right.conj() if transposed else right
            a, b = left @ a @ inner, inner @ b @ left
        p_factor, q_factor = b.conj() @ b.T, dagger(a) @ a
        n = a.shape[0]
        off_diagonal = p_factor[~np.eye(n, dtype=bool)]
        blocks = np.diagonal(p_factor)[:, None, None] * q_factor
        blocks.reshape(n, -1)[:, :: n + 1] -= 1.0
        d0 = math.hypot(
            float(np.linalg.norm(off_diagonal)) * float(np.linalg.norm(q_factor)),
            float(np.linalg.norm(blocks)),
        )
        sa, sb = np.linalg.svd(np.stack([a, b]), compute_uv=False)[:, 0]
        eta = spread * e
        yield d0, eta * (2.0 * float(sa * sb) + eta)


def _max_column_norm(m: np.ndarray) -> float:
    """max over matrix units E_ij of the norm of column vec(E_ij) of ``m``:
    the worst Frobenius norm among the images of the matrix units."""
    return float(np.max(np.linalg.norm(m, axis=0)))


def _star_defect(m: np.ndarray) -> float:
    """The worst ||T(E*) - T(E)*||_F over matrix units E, zero exactly when
    T(X*) = T(X)* for all X: the largest column norm of the matrix
    M - conj(M)[swap][:, swap], whose column vec(E) is T(E) - T(E*)*,
    formed with its squared moduli and their column sums in one n^4 array."""
    n = math.isqrt(m.shape[0])
    m4 = m.reshape(n, n, n, n)
    # M[swap][:, swap] is m4 with both index pairs swapped
    d = np.conjugate(m4.transpose(1, 0, 3, 2), order="C")
    np.subtract(m4, d, out=d)
    parts = d.view(float).reshape(n * n, n * n, 2)
    np.square(parts, out=parts)
    np.add(parts[..., 0], parts[..., 1], out=parts[..., 0])
    return math.sqrt(float(np.max(np.add.reduce(parts[..., 0], axis=0))))


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
    """Choi matrix C = sum_ij E_ij kron T(E_ij), in a new array.

    np.array copies even at n = 1, where a reshape of T's matrix is a view
    of it, so a caller may write into C without touching T.
    """
    n = t.dim
    return np.array(_images(t).transpose(0, 2, 1, 3), order="C").reshape(n * n, n * n)


def _square_defects(j: SuperOperator, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """||J(A^2) - J(A)^2||_F over the Hermitian spanning set, in order: E_ii,
    then for each pair (i, k) of ``np.triu_indices`` the symmetric
    E_ik + E_ki and the skew i E_ik - i E_ki, both squaring to E_ii + E_kk.

    The n^2 images J(A) are written into one stack, their squares into a
    second, and each square is subtracted from its target in place, so at
    most two n^4 arrays beside J are alive at a time.
    """
    n = j.dim
    images = _images(j)
    units = images[np.arange(n), np.arange(n)]
    ja = np.empty((n * n, n, n), dtype=complex)
    ja[:n] = units
    pairs = ja[n:].reshape(-1, 2, n, n)
    upper, lower = images[i, k], images[k, i]
    np.add(upper, lower, out=pairs[:, 0])
    np.subtract(upper, lower, out=pairs[:, 1])
    del upper, lower
    np.multiply(1j, pairs[:, 1], out=pairs[:, 1])
    squares = np.matmul(ja, ja)
    del ja, pairs
    np.subtract(units, squares[:n], out=squares[:n])
    square_pairs = squares[n:].reshape(-1, 2, n, n)
    np.subtract((units[i] + units[k])[:, None], square_pairs, out=square_pairs)
    return np.linalg.norm(squares, axis=(1, 2))


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

    cond(J) and the tolerance scale max(1, sigma_max^2) are read as
    high / low and high^2 from ``_singular_value_bounds`` on J's
    ``pivot_reading``, which ``jordan_classify`` reuses: the singular values
    unless the Choi certificate concludes, which means cond(J) <= sqrt(3),
    a term within ABS_FLOOR * [1, sqrt(3)] and an invertible map under
    either reading.  On a Jordan map s * Ad(U), or one composed with the
    transpose, the term and the scale equal the exact ones to rounding; on
    other maps the certificate concludes on, the scale may rise by up to a
    factor 3, to high^2 <= 3 low^2 <= 3 sigma_min^2.
    """
    n = j.dim
    i, k = np.triu_indices(n, 1)
    defects = _square_defects(j, i, k)
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
    star_defect = _star_defect(j.matrix)
    low, high = _singular_value_bounds(j)
    invertibility_defect = math.inf if low <= 0.0 else ABS_FLOOR * (high / low)
    defect = square_defect + star_defect + invertibility_defect
    scale = max(1.0, high**2)
    return JordanCheck(
        is_jordan=bool(defect <= threshold(scale, tol)),
        defect=defect,
        square_defect=square_defect,
        star_defect=star_defect,
        invertibility_defect=invertibility_defect,
        worst_input=worst,
    )


def _hermitian_choi(j: SuperOperator, kind: str) -> np.ndarray:
    """``hermitian_part`` of choi(J) (conjugation kind) or of
    choi(J o transpose) (transposed kind), formed in place in one new n^4
    array; the latter is read off J's matrix by one index permutation."""
    n = j.dim
    if kind == KIND_ISO:
        c = choi(j)
    else:
        # a new array, as ``choi`` returns one, so the sum below writes
        # into no part of J's matrix
        c = np.array(j.matrix.T.reshape(n, n, n, n).transpose(0, 3, 1, 2), order="C").reshape(n * n, n * n)
    np.add(c, dagger(c), out=c)
    c /= 2.0
    return c


@dataclass(frozen=True)
class JordanClassification:
    kind: str
    unitary: np.ndarray
    residual: float
    canonical: SuperOperator  # canonical_jordan(kind, unitary)


def jordan_classify(j: SuperOperator, tol: float = DEFAULT_TOL) -> JordanClassification:
    """Split a Jordan automorphism into its conjugation or transposed form.

    On the full matrix algebra exactly one of choi(J), choi(J o transpose)
    has rank one: a conjugation's Choi matrix is vec(U) vec(U)*.  The rank
    test costs O(n^4) and takes no SVD: J's ``pivot_reading`` gives each
    kind's residual e from the rank-one Choi matrix through the pivot of M,
    and the kind reads as rank one when e <= CHOI_RANK_RTOL * ||M||_F
    (||M||_F = ||C||_F).  It agrees with the SVD rank test (one singular
    value of C above CHOI_RANK_RTOL times the largest) except for spectra
    within a small factor of the cutoff.  Only for that kind is the Choi
    matrix built, and the implementing unitary is read off its top
    eigenvector, rescaled to unitarity and phase-fixed.  Raises
    NotClassifiableError when neither kind reads as rank one, which signals
    a map that is not Jordan (or a center that is not trivial, out of scope
    here).
    """
    n = j.dim
    cutoff = CHOI_RANK_RTOL * float(np.linalg.norm(j.matrix))
    for kind, (_, _, e) in zip((KIND_ISO, KIND_ANTI), j.pivot_reading):
        if e > cutoff:
            continue
        w, v = np.linalg.eigh(_hermitian_choi(j, kind))
        top = int(np.argmax(np.abs(w)))
        u = unvec(v[:, top], n) * math.sqrt(n)
        u = fix_global_phase(u)
        canonical = canonical_jordan(kind, u)
        residual = _max_column_norm(j.matrix - canonical.matrix)
        unitarity = float(np.linalg.norm(dagger(u) @ u - np.eye(n)))
        if residual <= threshold(1.0, max(tol, 1e-6)) and unitarity <= threshold(1.0, max(tol, 1e-6)):
            return JordanClassification(kind=kind, unitary=u, residual=residual, canonical=canonical)
        raise NotClassifiableError(
            f"rank-one Choi spectrum but recovered map mismatches: residual {residual:.3e}"
        )
    raise NotClassifiableError("neither Choi matrix has rank one: not a factor Jordan map")


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of ``positivity_check``.  ``trials`` is 0 when the Choi pivot
    factors certified the map and no state was sampled; ``defect`` and
    ``star_defect`` are then the certificate's bounds delta and 2 delta."""

    positive: bool
    defect: float
    trials: int
    star_defect: float
    hermitian: bool


def _factor_positivity_defect(readings) -> float | None:
    """The least bound delta over the kinds of ``readings`` (the (x, y, e) of
    ``_choi_pivot_reading(M)``) that read M as X -> A X B or X -> A X^T B,
    A = x and B = y^T, with c = Re tr(A B) / ||A||_F^2 >= 0; None if none
    does.  For a unit-trace P >= 0, A P B = c A P A* + A P (B - c A*) and
    the residual moves T(P) by at most e, so lambda_min(Herm T(P)) >= -delta
    with delta = e + ||A||_F ||B - c A*||_F, and ||T(E*) - T(E)*||_F <=
    2 delta on every matrix unit E.  8 eps ||A||_F ||B||_F is added to delta
    for the rounding of the two norms.
    """
    deltas = []
    for x, y, e in readings:
        norm_x, norm_y = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        c = float(np.sum(x * y).real) / norm_x**2  # tr(A B) = sum(x * y)
        if c >= 0.0 and not math.isinf(e):
            # ||B - c A*||_F = ||y - c conj(x)||_F
            gap = float(np.linalg.norm(y - c * x.conj()))
            deltas.append(e + norm_x * gap + 8.0 * math.ulp(1.0) * norm_x * norm_y)
    return min(deltas, default=None)


def positivity_check(
    t: SuperOperator, trials: int = 50, seed=0, tol: float = DEFAULT_TOL
) -> PositivityReport:
    """Positivity: T(P) must stay positive semidefinite.

    A map whose cached ``pivot_reading`` gives a bound delta
    (``_factor_positivity_defect``) with 2 delta <= threshold(1, tol) is
    positive with ``defect`` delta, ``star_defect`` 2 delta and ``trials``
    0, and no sample: ``_sampled_positivity`` would accept it too.  Every
    other map is sampled.  On S_p, p != 2, every isometry is X -> A X B or
    A X^T B (Arazy), positive exactly when B = c A*, c >= 0.  This is
    positivity only: complete positivity is strictly stronger, and maps
    with a transposed part are positive without being completely positive.
    """
    trials = count_value(trials, "trials")
    delta = _factor_positivity_defect(t.pivot_reading)
    if delta is not None and 2.0 * delta <= threshold(1.0, tol):
        return PositivityReport(True, delta, 0, 2.0 * delta, True)
    return _sampled_positivity(t, trials, seed, tol)


def _sampled_positivity(t: SuperOperator, trials: int, seed, tol: float) -> PositivityReport:
    """Sampled positivity.  A positive map preserves Hermiticity, decided on
    the matrix units: ``star_defect`` is the worst ||T(E*) - T(E)*||_F, and
    ``hermitian`` is false, refusing the map, when it exceeds the tolerance
    relative to max(1, the largest ||T(E)||_F).  Then ``defect`` reads the
    Hermitian part of T(P) for the diagonal matrix units and ``trials``
    unit-trace G G* states.
    """
    n = t.dim
    star_defect = _star_defect(t.matrix)
    hermitian = star_defect <= threshold(max(1.0, _max_column_norm(t.matrix)), tol)
    g = ginibre_stack(n, trials, seed)
    states = g @ g.conj().transpose(0, 2, 1)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    # the diagonal units E_ii, then the sampled states
    out = _apply_to_stack(t, np.concatenate([np.eye(n)[:, :, None] * np.eye(n), states]))
    w = np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2.0)
    scale = np.maximum(1.0, np.abs(w).max(axis=1))
    defect = float(np.max(np.maximum(-w[:, 0], 0.0) / scale))
    positive = hermitian and defect <= threshold(1.0, tol)
    return PositivityReport(positive, defect, trials, star_defect, hermitian)


def integrability_constant(
    t: SuperOperator, measure: QuantumMeasure, tol: float = DEFAULT_TOL, trials: int = 50, seed=0
) -> float:
    """Least c >= 0 with T_*(rho) <= c * rho in the positive-semidefinite order.

    T must be positivity preserving (``positivity_check``; NotPositiveError
    otherwise, naming the star defect when T does not preserve Hermiticity
    and the sampled defect when it does); normality is automatic in finite
    dimension.  ``trials`` and ``seed`` do not matter for X -> c A X A* or
    c A X^T A*, c >= 0, which its Choi pivot factors certify unsampled.
    The constant is computed in one shot as the top eigenvalue of
    rho^(-1/2) T_*(rho) rho^(-1/2).  With rho invertible this is always
    finite -- the unbounded alternative of the abstract criterion cannot
    occur at finite dimension, a degeneracy worth remembering when reading
    the verdicts.
    """
    check_dim(t.dim, measure)
    report = positivity_check(t, trials=trials, seed=seed, tol=tol)
    if not report.positive:
        decided = f"defect {report.defect:.3e}" if report.hermitian else f"star defect {report.star_defect:.3e}"
        raise NotPositiveError(f"map is not positivity preserving: {decided}")
    pushed = hermitian_part(t.predual().apply(measure.rho))
    inv_half = measure.power(-0.5)
    w = np.linalg.eigvalsh(hermitian_part(inv_half @ pushed @ inv_half))
    return float(w[-1])


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

    Surjectivity is the invertibility of the n^2 x n^2 matrix M: onto when
    its singular values are ``invertible``, read through
    ``_singular_value_bounds`` on the map's own ``pivot_reading``.  Its
    Choi certificate concludes on every map close enough to an X -> A X B
    or A X^T B with cond <= sqrt(3), Jordan maps included; other maps take
    one SVD.

    For p = 2 the isometry is also decided exactly, on top of the sampled
    comparison: the matrix of T in an orthonormal basis of the relevant L^2
    inner product must be unitary, and ``gram_defect`` is ||G - 1||_F for
    its Gram matrix G, M* M with measure=None and otherwise that of the
    weighted transport, compared with threshold(n, tol).  The same Choi
    pivot reading that decides onto gives the factors A, B of the nearest
    X -> A X B or A X^T B, the form of every isometry (Arazy, Yeadon), and
    ``_factor_gram_defects`` reads from them, in O(n^3), the Gram defect d0
    of that map's transport and a bound delta on how far the pivot
    residual moves the true defect from d0.  When d0 - delta and d0 + delta
    lie on the same side of the threshold, d0 decides and is reported;
    ``gram_defect`` is then within delta, plus rounding, of the dense
    value.  Otherwise (no kind reads with a finite residual, as for a zero
    map or one far from that form, or delta straddles the threshold) the
    dense Gram product of M or of its transport decides, as an n^2 x n^2
    product.  No other p forms a Gram matrix, so the trial count and worst
    defect are reported alongside the verdict.
    """
    trials = count_value(trials, "trials")
    p = check_p(p)
    n = t.dim

    def norm(x):
        if measure is None:
            return schatten_norm(x, p)
        return weighted_norm(x, measure, p)

    xs = ginibre_stack(n, trials, seed)
    nx = norm(xs)
    max_rel = float(np.max(np.abs(norm(_apply_to_stack(t, xs)) - nx) / nx))
    onto = invertible(*_singular_value_bounds(t))
    gram_defect = None
    limit = threshold(float(n), tol)
    if p == 2.0:
        certificates = _factor_gram_defects(t.pivot_reading, measure)
        gram_defect = next((d0 for d0, delta in certificates if d0 + delta <= limit or d0 - delta > limit), None)
        if gram_defect is None:
            g = t.matrix if measure is None else weighted_isometry_transport(t, measure, p).matrix
            gram = dagger(g) @ g
            # ||G - 1||_F, the diagonal shifted through a view: no identity is built
            gram.reshape(-1)[:: n * n + 1] -= 1.0
            gram_defect = float(np.linalg.norm(gram))
    is_isometry = max_rel <= threshold(1.0, tol) and (gram_defect is None or gram_defect <= limit)
    return IsometryCheck(bool(is_isometry), max_rel, onto, gram_defect, trials)


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
    kind: str
    implementing_unitary: np.ndarray
    residual: float
    centrality_defect: float
    scale_defect: float
    canonical: SuperOperator  # canonical_jordan(kind, implementing_unitary)


def lamperti_decompose(t: SuperOperator, p, tol: float = DEFAULT_TOL) -> LampertiDecomposition:
    """Factor an onto Schatten-p isometry as T(X) = scale * W @ J(X).

    Steps: (1) polar decompose T(1) = W P; (2) verify P is a multiple of the
    identity (the central factor of a factor algebra) and |scale^p - 1| is
    within tolerance; (3) peel W and the scale off and (4) check and
    classify the Jordan remainder; (5) require T to equal scale * W @ J for
    the canonical J of that class, by the residual ``jordan_classify``
    measured: T - scale * W @ J = scale * kron(1, W) (remainder - J), and
    the unitary kron(1, W) keeps each column norm.  No sampling is
    involved: W unitary, scale = 1 and J a conjugation or a transposed one
    make T an onto Schatten-p isometry (Yeadon), so the factors are the
    certificate.
    Raises NotDecomposableError, carrying the worst witness, whenever a
    defect exceeds tolerance.
    """
    p = check_p(p)
    n = t.dim
    a = t.apply(np.eye(n))
    try:
        w_factor, positive = polar_decompose(a)
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
    remainder = dagger(w_factor) @ t.matrix.reshape(n, n, -1)
    # from here on only the remainder is needed: a caller that holds no
    # other reference to T (``implementability_check``) frees it now
    del t
    remainder /= scale
    jordan = SuperOperator(n, remainder.reshape(n * n, n * n))
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
    canonical = classification.canonical
    residual = scale * classification.residual
    if residual > threshold(1.0, tol):
        raise NotDecomposableError(
            f"not an onto Schatten-{p:g} isometry: residual {residual:.3e} "
            "from scale * W @ J",
            defect=residual,
        )
    return LampertiDecomposition(
        w=w_factor,
        scale=scale,
        kind=classification.kind,
        implementing_unitary=classification.unitary,
        residual=residual,
        centrality_defect=centrality_defect,
        scale_defect=scale_defect,
        canonical=canonical,
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
    check_dim(v.dim, measure)
    r = tau_exponent(p)
    left, right = measure.power(r), measure.power(-r)
    if inverse:
        left, right = right, left
    # one kron factor alive at a time
    m = np.kron(left.T, left) @ v.matrix
    return SuperOperator(v.dim, m @ np.kron(right.T, right))


@dataclass(frozen=True)
class ImplementabilityReport:
    """Outcome of the unital + positive + onto-isometry route.

    Every failure mode is an entry here, never an exception: a negative
    verdict is a successful run.  ``defects`` holds each reached stage's
    defect once, in stage order: ``unitality``, ``positivity``, ``star``
    (only when the map was refused for not preserving Hermiticity,
    ``PositivityReport.hermitian``), ``isometry`` (the sampled relative
    defect), then ``w_phase``, ``scale`` and ``jordan_match`` once the
    transport decomposes; ``w_phase`` is reported, never decided on (see
    ``implementability_check``).  ``isometry`` and ``decomposition`` are
    None for the stages the check did not reach; ``jordan`` carries the
    implementing Jordan automorphism when the map is implementable, in
    canonical form.
    """

    failure: str | None
    defects: dict[str, float]
    jordan: SuperOperator | None = None
    kind: str | None = None
    isometry: IsometryCheck | None = None
    decomposition: LampertiDecomposition | None = None

    @property
    def implementable(self) -> bool:
        return self.failure is None


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
    space, decomposes (which demands scale = 1), and demands V = J on a
    spanning set.  W = phase * identity needs no stage of its own: W is the
    polar factor of T(1) = rho^r V(rho^-2r) rho^r, which is positive
    definite when V is unital and positive, so W = 1, and the report's
    ``w_phase`` shows only rounding.  All hypotheses are verified, none
    assumed; a map of another size than the state is refused
    (DimensionMismatchError) before any stage.
    """
    p = check_p(p)
    trials = count_value(trials, "trials")
    check_dim(v.dim, measure)
    n = v.dim
    defects = {"unitality": float(np.linalg.norm(v.apply(np.eye(n)) - np.eye(n)))}
    if defects["unitality"] > threshold(math.sqrt(n), tol):
        return ImplementabilityReport("unitality", defects)
    pos = positivity_check(v, trials=trials, seed=seed, tol=tol)
    defects["positivity"] = pos.defect
    if not pos.positive:
        if not pos.hermitian:
            defects["star"] = pos.star_defect
        return ImplementabilityReport("positivity", defects)
    iso = isometry_check(v, measure, p, trials=trials, seed=seed, tol=tol)
    defects["isometry"] = iso.max_rel_defect
    if not iso.is_isometry or not iso.onto:
        return ImplementabilityReport("onto" if not iso.onto else "isometry", defects, isometry=iso)
    try:
        # the transported map is passed unnamed, so that it is freed once
        # lamperti_decompose has peeled W and the scale off it
        dec = lamperti_decompose(weighted_isometry_transport(v, measure, p), p, tol=tol)
    except NotDecomposableError as exc:
        return ImplementabilityReport(f"decomposition: {exc.reason}", defects, isometry=iso)
    tr = complex(np.trace(dec.w))
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    defects["w_phase"] = float(np.linalg.norm(dec.w - phase * np.eye(n)))
    defects["scale"] = abs(dec.scale - 1.0)
    defects["jordan_match"] = _max_column_norm(v.matrix - dec.canonical.matrix)
    if defects["jordan_match"] > threshold(1.0, tol):
        return ImplementabilityReport("jordan_match", defects, isometry=iso, decomposition=dec)
    return ImplementabilityReport(
        None, defects, jordan=dec.canonical, kind=dec.kind, isometry=iso, decomposition=dec
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

    Lam must itself be a Jordan automorphism, by ``jordan_check`` and by
    ``jordan_classify`` (NotJordanError otherwise):
    conjugating a unitary evolution by an isomorphic change of
    representation can never escape Jordan-implemented dynamics, and this
    demo verifies the claim instance by instance.  The verdicts are with
    respect to the supplied state at the given p (default 2, the Hilbert
    space case); the composed map must in particular be an isometry for
    that state, which holds automatically at the uniform state.
    """
    u = as_matrix(u)
    t_steps = count_value(t_steps, "t_steps")
    check_dim(u.shape[0], measure)
    check_dim(lam.dim, measure)
    refusal = "change of representation is not a Jordan automorphism"
    check = jordan_check(lam, tol=tol)
    if not check.is_jordan:
        raise NotJordanError(f"{refusal}: defect {check.defect:.3e}")
    try:
        jordan_classify(lam, tol=tol)
    except NotClassifiableError as exc:
        raise NotJordanError(f"{refusal}: {exc}") from exc
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
