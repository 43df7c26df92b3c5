"""Desk-scale irreversibility laboratory: a truncated two-sided Bernoulli
shift in the Walsh basis, its filtration and time operator, the non-unitary
change of representation built from a spectral function, and the intertwined
Markov semigroup with its (non-)implementability verdicts.

Model.  Sites live at integer positions k in [-N, N].  A Walsh basis element
is a subset S of the window (the empty set is the constant function); its
age is max(S).  The shift moves every coordinate up by one, so it moves a
subset S to S + t and adds t to its age.  A finite window can represent the
increasing filtration exactly, but the forward-generation and
backward-triviality properties of the infinite construction hold only in
the N -> infinity limit; operators therefore carry explicit domain masks,
every check quantifies only over in-domain basis elements, and every report
states the fraction it covers.

Walsh functions are +-1 valued and orthonormal for the uniform probability
measure on the 2^(2N+1) grid points, so preservation of total mass is
exactly preservation of the empty-set coefficient.

Every operator here (the shift, the filtration projectors, the age
operator, the change of representation, the semigroup step and its
coarse-grained variant) is a real weighted bit shift, so the exact
identities are comparisons of weight vectors.  The intertwining relation
holds up to float rounding (<= 1e-12) because the semigroup weights are
stored as ratios of spectral-function values.  The exact-arithmetic
counterparts of these identities are checked by the test-suite oracle over
the rationals.

Implementability asks whether the adjoint of a semigroup step is a
composition operator on the grid.  That adjoint is diagonal in the Walsh
sub-basis of its window, with multipliers g of size d, so its grid matrix
is an XOR convolution: K[x, y] = k[x ^ y] with k = fwht(g) / d, one
transform and one gather.  The tests compare it with the dense product
H diag(g) H / d, H the +-1 Walsh matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical import MultiplicativityCheck, multiplicativity_check
from .linalg import DEFAULT_TOL
from .sampling import rng_from

MAX_WINDOW = 6


class WindowTooLargeError(ValueError):
    """Requested window half-width exceeds the supported desk scale."""


class InvalidSpectralFunctionError(ValueError):
    """Spectral function violates positivity, monotonicity, or log-concavity."""


class DomainEmptyError(ValueError):
    """No nonconstant basis element survives the requested shift."""


@dataclass(frozen=True)
class SpectralFunction:
    """Positive, non-increasing, log-concave values on [-N-1, N+1].

    The declared limits are 1 at -infinity and 0 at +infinity; a finite
    window cannot exhibit them, so they are recorded as intent.  Functions
    that are not strictly decreasing (the constant one used as a control)
    are accepted but flagged in ``warnings``.
    """

    s_min: int
    s_max: int
    values: np.ndarray
    warnings: tuple[str, ...] = ()

    limit_at_minus_inf = 1.0
    limit_at_plus_inf = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.s_max - self.s_min + 1:
            raise InvalidSpectralFunctionError(
                f"need one value per integer in [{self.s_min}, {self.s_max}]"
            )
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise InvalidSpectralFunctionError("values must be finite and positive")
        if np.any(np.diff(v) > 0):
            raise InvalidSpectralFunctionError("values must be non-increasing")
        # log-concavity f(s)^2 >= f(s-1) f(s+1), with relative float slack
        mid = v[1:-1] ** 2
        sides = v[:-2] * v[2:]
        if np.any(mid < sides * (1.0 - 1e-12)):
            raise InvalidSpectralFunctionError("values must be log-concave")
        object.__setattr__(self, "values", v)
        warnings = tuple(self.warnings)
        if not np.all(np.diff(v) < 0):
            warnings += (
                "not strictly decreasing: the declared limit 0 at +infinity "
                "is unreachable; accepted as a control case",
            )
        object.__setattr__(self, "warnings", warnings)

    def value(self, s: int) -> float:
        if s < self.s_min or s > self.s_max:
            raise ValueError(f"age {s} outside the tabulated range [{self.s_min}, {self.s_max}]")
        return float(self.values[s - self.s_min])

    def ratio(self, numerator_age: int, denominator_age: int) -> float:
        return self.value(numerator_age) / self.value(denominator_age)

    @classmethod
    def logistic(cls, half_width: int) -> "SpectralFunction":
        """The default 1 / (1 + e^s): strictly decreasing with concave log."""
        s = np.arange(-half_width - 1, half_width + 2)
        return cls(-half_width - 1, half_width + 1, 1.0 / (1.0 + np.exp(s)))

    @classmethod
    def constant(cls, half_width: int, value: float = 1.0) -> "SpectralFunction":
        s_lo, s_hi = -half_width - 1, half_width + 1
        return cls(s_lo, s_hi, np.full(s_hi - s_lo + 1, float(value)))

    @classmethod
    def from_table(cls, half_width: int, values) -> "SpectralFunction":
        return cls(-half_width - 1, half_width + 1, np.asarray(values, dtype=float))


def _move(masks: np.ndarray, shift: int) -> np.ndarray:
    return masks << shift if shift >= 0 else masks >> -shift


@dataclass(frozen=True)
class WalshOperator:
    """A weighted bit shift on Walsh coordinates plus its domain mask.

    An in-domain mask m goes to m << shift (m >> -shift for a negative
    shift) times ``weights[m]``; diagonal operators have shift 0.  Masks
    outside the domain go to zero *and* are flagged: any quantity derived
    from this operator must quantify over ``domain`` only and report
    ``domain_fraction`` alongside.  In-domain masks never lose a bit, so the
    map is one-to-one there and a composition is again a weighted bit shift.
    """

    shift: int
    weights: np.ndarray
    domain: np.ndarray

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def domain_fraction(self) -> float:
        return float(np.mean(self.domain))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Map a coefficient vector, or each column of a (dim, k) array."""
        v = np.asarray(v)
        src = np.flatnonzero(self.domain)
        out = np.zeros(v.shape, dtype=np.result_type(v, self.weights))
        weights = self.weights[src].reshape(-1, *(1,) * (v.ndim - 1))
        out[_move(src, self.shift)] = weights * v[src]
        return out

    def compose(self, other: "WalshOperator") -> "WalshOperator":
        """The product self o other: ``other`` acts first."""
        src = np.flatnonzero(other.domain)
        mid = _move(src, other.shift)
        kept = self.domain[mid]
        src, mid = src[kept], mid[kept]
        weights = np.zeros(self.dim)
        weights[src] = self.weights[mid] * other.weights[src]
        domain = np.zeros(self.dim, dtype=bool)
        domain[src] = True
        return WalshOperator(self.shift + other.shift, weights, domain)


def _masked_max(values: np.ndarray, mask: np.ndarray) -> float:
    """max |value| over the masks selected by ``mask`` (0 when none is)."""
    picked = np.abs(values[mask])
    return float(picked.max()) if picked.size else 0.0


@dataclass(frozen=True)
class TruncatedKShift:
    """Walsh basis over the window [-N, N], indexed by subset bitmasks.

    Position k maps to bit k + N, so shifting a subset by +t is shifting its
    bitmask left by t; the shift stays inside the window exactly when the
    shifted mask still fits.
    """

    half_width: int

    def __post_init__(self):
        n = int(self.half_width)
        if n < 1 or n > MAX_WINDOW:
            raise WindowTooLargeError(
                f"half-width must lie in [1, {MAX_WINDOW}], got {n}"
            )
        object.__setattr__(self, "half_width", n)

    @property
    def sites(self) -> int:
        return 2 * self.half_width + 1

    @property
    def dim(self) -> int:
        return 1 << self.sites

    def coords_of(self, index: int) -> tuple[int, ...]:
        n = self.half_width
        return tuple(b - n for b in range(self.sites) if index >> b & 1)

    def index_of(self, coords) -> int:
        n = self.half_width
        mask = 0
        for k in set(coords):
            k = int(k)
            if k < -n or k > n:
                raise ValueError(f"coordinate {k} outside the window [-{n}, {n}]")
            mask |= 1 << (k + n)
        return mask

    @property
    def ages(self) -> np.ndarray:
        """age[mask] = max coordinate of the subset; the empty-set entry is a
        sentinel one below the window and must be guarded by nonempty()."""
        return _ages(self.half_width)

    def nonempty(self) -> np.ndarray:
        out = np.ones(self.dim, dtype=bool)
        out[0] = False
        return out

    def shift_operator(self, t: int) -> WalshOperator:
        """U_t: subset S -> S + t where the image stays inside the window;
        the constant function is fixed."""
        t = int(t)
        masks = np.arange(self.dim)
        if t >= 0:
            in_dom = masks << t < self.dim
        else:
            in_dom = masks >> (-t) << (-t) == masks
        return WalshOperator(t, in_dom.astype(float), in_dom)


def _top_bits(sites: int) -> np.ndarray:
    """top[mask] = position of the highest set bit of each mask below
    2^sites: the 2^b masks in [2^b, 2^(b+1)) share top bit b, and the empty
    mask gets -1."""
    positions = np.arange(sites)
    return np.concatenate(([-1], np.repeat(positions, 1 << positions)))


@lru_cache(maxsize=None)
def _ages(half_width: int) -> np.ndarray:
    # bit b is position b - N; the empty mask lands on the sentinel -N - 1
    ages = _top_bits(2 * half_width + 1) - half_width
    ages.setflags(write=False)
    return ages


def build_shift(half_width: int) -> TruncatedKShift:
    """Enumerate the truncated shift model; dimension 2^(2N+1)."""
    return TruncatedKShift(half_width)


def conditional_expectation(shift: TruncatedKShift, t: int) -> WalshOperator:
    """The projector onto ages <= t; t = -N-1 keeps only the constants."""
    n = shift.half_width
    t = int(t)
    if t < -n - 1 or t > n:
        raise ValueError(f"filtration time {t} outside [{-n - 1}, {n}]")
    keep = (shift.ages <= t) | ~shift.nonempty()
    return WalshOperator(0, keep.astype(float), np.ones(shift.dim, dtype=bool))


def time_operator(shift: TruncatedKShift) -> WalshOperator:
    """Diagonal age operator; the constant function carries no age and sits
    outside the domain mask."""
    diag = shift.ages.astype(float)
    diag[0] = 0.0
    return WalshOperator(0, diag, shift.nonempty())


def commutation_check(shift: TruncatedKShift, t: int) -> float:
    """max over in-domain nonconstant basis vectors of
    ||(T U_t - U_t T - t U_t) w||; exactly zero, since ages shift by t."""
    if t < 0:
        raise ValueError("commutation check expects t >= 0")
    u = shift.shift_operator(t)
    time = time_operator(shift)
    residual = time.compose(u).weights - u.compose(time).weights - t * u.weights
    return _masked_max(residual, u.domain & shift.nonempty())


def lambda_build(shift: TruncatedKShift, f: SpectralFunction) -> WalshOperator:
    """The change of representation: multiply each age-s basis element by
    f(s) and fix the constants.  Invertible on the window since f > 0."""
    _check_range(shift, f)
    diag = f.values[shift.ages - f.s_min]
    diag[0] = 1.0
    return WalshOperator(0, diag, np.ones(shift.dim, dtype=bool))


def wt_build(shift: TruncatedKShift, f: SpectralFunction, t: int) -> WalshOperator:
    """One step of the intertwined Markov semigroup.

    Sends an age-s subset S to S + t with multiplier f(s + t) / f(s) -- the
    multiplier is evaluated at the post-shift age, which is exactly what the
    intertwining relation with the change of representation forces -- and
    fixes the constants.  Since f is non-increasing every multiplier lies in
    (0, 1].
    """
    t = int(t)
    if t < 1:
        raise ValueError("semigroup steps require t >= 1")
    if t > 2 * shift.half_width:
        raise DomainEmptyError(
            f"no nonconstant subset survives a shift by {t} in a window of "
            f"half-width {shift.half_width}"
        )
    _check_range(shift, f)
    domain = shift.shift_operator(t).domain
    sources = np.flatnonzero(domain & shift.nonempty())
    ages = shift.ages[sources]
    weights = np.zeros(shift.dim)
    weights[0] = 1.0
    weights[sources] = f.values[ages + t - f.s_min] / f.values[ages - f.s_min]
    return WalshOperator(t, weights, domain)


def _check_range(shift: TruncatedKShift, f: SpectralFunction):
    n = shift.half_width
    if f.s_min > -n - 1 or f.s_max < n + 1:
        raise InvalidSpectralFunctionError(
            f"spectral function tabulated on [{f.s_min}, {f.s_max}] does not "
            f"cover the window range [{-n - 1}, {n + 1}]"
        )


def coarse_grained_wt(shift: TruncatedKShift, s0: int, t: int) -> WalshOperator:
    """The coarse-graining variant: project onto ages <= s0 after shifting.

    A step spectral function turns the semigroup formula into 0/0, so this
    constructor composes the projection with the shift directly.  Whether
    the result is implementable is reported by the checkers as an
    experiment; no theorem is asserted for it.
    """
    u = shift.shift_operator(int(t))
    e = conditional_expectation(shift, int(s0))
    return e.compose(u)


# --- exact-identity defects -------------------------------------------------


def intertwining_defect(shift: TruncatedKShift, f: SpectralFunction, t: int) -> float:
    """max |weight| of (W_t Lam - Lam U_t) over in-domain masks."""
    w = wt_build(shift, f, t)
    lam = lambda_build(shift, f)
    u = shift.shift_operator(t)
    residual = w.compose(lam).weights - lam.compose(u).weights
    return _masked_max(residual, u.domain)


def semigroup_defect(shift: TruncatedKShift, f: SpectralFunction, s: int, t: int) -> float:
    """max |weight| of (W_s W_t - W_{s+t}) over masks where all three act."""
    ws = wt_build(shift, f, s)
    wt = wt_build(shift, f, t)
    wst = wt_build(shift, f, s + t)
    residual = ws.compose(wt).weights - wst.weights
    return _masked_max(residual, wst.domain)


def filtration_defect(shift: TruncatedKShift) -> float:
    """Projector algebra: E_s E_t = E_t E_s = E_min(s,t), exactly."""
    n = shift.half_width
    times = range(-n - 1, n + 1)
    projectors = {t: conditional_expectation(shift, t).weights for t in times}
    worst = 0.0
    for s in times:
        for t in times:
            product = projectors[s] * projectors[t]
            worst = max(worst, float(np.max(np.abs(product - projectors[min(s, t)]))))
    return worst


def time_consistency_defect(shift: TruncatedKShift) -> float:
    """The telescoping sum sum_t t (E_t - E_{t-1}) must reproduce the age
    operator on its domain."""
    n = shift.half_width
    total = np.zeros(shift.dim)
    prev = conditional_expectation(shift, -n - 1).weights
    for t in range(-n, n + 1):
        cur = conditional_expectation(shift, t).weights
        total += t * (cur - prev)
        prev = cur
    reference = time_operator(shift)
    mask = reference.domain
    return float(np.max(np.abs(total[mask] - reference.weights[mask])))


def contraction_violation(shift: TruncatedKShift, f: SpectralFunction, t: int) -> float:
    """How far any semigroup multiplier strays outside (0, 1]."""
    w = wt_build(shift, f, t)
    data = w.weights[w.domain]
    return float(max(0.0, float(np.max(data)) - 1.0) + max(0.0, -float(np.min(data))))


# --- grid transform and stochasticity ----------------------------------------


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along axis 0.

    Self-inverse up to the factor 2^m; with +-1 Walsh functions this is both
    the coefficients-to-grid evaluation and (after dividing by the length)
    the grid-to-coefficients analysis.
    """
    a = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    rest = a.shape[1:]
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, *rest)
        a = np.concatenate((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    return a.reshape(n, *rest)


def walsh_to_grid(shift: TruncatedKShift, coefficients: np.ndarray) -> np.ndarray:
    """Evaluate a Walsh expansion on all grid points of {0,1}^(2N+1)."""
    coefficients = np.asarray(coefficients)
    if coefficients.shape[0] != shift.dim:
        raise ValueError("coefficient vector does not match the basis size")
    return fwht(coefficients)


def grid_to_walsh(shift: TruncatedKShift, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] != shift.dim:
        raise ValueError("value vector does not match the grid size")
    return fwht(values) / shift.dim


@dataclass(frozen=True)
class StochasticitySuite:
    positivity_defect: float
    mass_defect: float
    unitality_defect: float
    domain_fraction: float
    samples: int


def _stochasticity_of(
    op: WalshOperator, shift: TruncatedKShift, t: int, samples: int, seed
) -> StochasticitySuite:
    d = shift.dim
    # unitality: the constant function is fixed
    e0 = np.zeros(d)
    e0[0] = 1.0
    unitality_defect = float(np.max(np.abs(op.apply(e0) - e0)))
    # mass: the empty-set coefficient of the output equals that of the input;
    # a bit shift sends no mask but the empty set to the empty set
    mass_defect = abs(float(op.weights[0] if op.domain[0] else 0.0) - 1.0)
    # positivity on nonnegative densities supported on the domain: a density
    # that only involves coordinates <= N - t is invisible to the truncation
    rng = rng_from(seed)
    keep = 2 * shift.half_width + 1 - t
    block = 1 << keep
    groups = d // block
    # one sample per column
    grids = rng.random((samples, d)).reshape(samples, groups, block).mean(axis=1)
    grids = np.tile(grids, groups).T
    out = walsh_to_grid(shift, op.apply(grid_to_walsh(shift, grids)))
    positivity_defect = max(0.0, -float(np.min(out.real))) if samples else 0.0
    return StochasticitySuite(
        positivity_defect=positivity_defect,
        mass_defect=mass_defect,
        unitality_defect=unitality_defect,
        domain_fraction=op.domain_fraction,
        samples=samples,
    )


def stochasticity_suite(
    shift: TruncatedKShift,
    f: SpectralFunction,
    t: int,
    samples: int = 100,
    seed=0,
) -> StochasticitySuite:
    """Positivity, mass preservation, and unitality of the semigroup step.

    Mass and unitality hold exactly by construction; positivity on sampled
    nonnegative densities is the experiment, with log-concavity of the
    spectral function as the hypothesis that should make it succeed.
    """
    return _stochasticity_of(wt_build(shift, f, t), shift, t, samples, seed)


# --- implementability ---------------------------------------------------------


def _adjoint_ages(shift: TruncatedKShift, t: int) -> np.ndarray:
    """Age of each sub-basis mask of the adjoint's window [-N+t, N].

    The adjoint of a step by t acts on the subsets of [-N+t, N], a full
    Walsh system over 2N+1-t coordinates; bit b of a sub-basis mask is
    position b - N + t.  The empty mask carries the sentinel -N+t-1 and
    must be guarded.
    """
    t = int(t)
    if t < 1:
        raise ValueError("adjoint restriction requires t >= 1")
    if t > 2 * shift.half_width:
        raise DomainEmptyError("shift exceeds the window")
    return _top_bits(2 * shift.half_width + 1 - t) + (t - shift.half_width)


def _adjoint_multipliers(shift: TruncatedKShift, f: SpectralFunction, t: int) -> np.ndarray:
    """Multipliers of the adjoint of W_t on its sub-basis: a mask of age a
    gets f(a) / f(a - t), the multiplier W_t gives the subset that it shifts
    onto that mask, and the constant gets g[0] = 1."""
    _check_range(shift, f)
    ages = _adjoint_ages(shift, t)
    g = f.values[ages - f.s_min] / f.values[ages - t - f.s_min]
    g[0] = 1.0
    return g


def _restricted_adjoint_grid(g: np.ndarray) -> np.ndarray:
    """Grid matrix of the adjoint semigroup step on its valid domain.

    The adjoint is diagonal in its sub-basis with multipliers ``g``, so its
    grid matrix H diag(g) H / d (H the +-1 Walsh matrix of size d) is an
    XOR convolution: since H[x, m] H[y, m] = H[x ^ y, m],
    K[x, y] = k[x ^ y] with k = fwht(g) / d.  Multiplicativity is decided
    on this matrix.
    """
    d = g.size
    k = fwht(g) / d
    idx = np.arange(d)
    return k[idx[:, None] ^ idx]


@dataclass(frozen=True)
class MpcImplementability:
    implementable: bool
    defect: float
    check: MultiplicativityCheck
    domain_fraction: float
    restricted_dim: int


def mpc_implementability(
    shift: TruncatedKShift,
    f: SpectralFunction,
    t: int,
    tol: float = DEFAULT_TOL,
) -> MpcImplementability:
    """Is the semigroup step the density evolution of some point map?

    Equivalent question: is its adjoint a composition operator?  The adjoint
    is transported to the grid over the valid domain and fed to the
    classical multiplicativity check.  For the constant spectral function
    the step is a plain shift and the defect is zero; any strictly
    decreasing spectral function leaves a strictly positive defect.
    """
    grid = _restricted_adjoint_grid(_adjoint_multipliers(shift, f, t))
    check = multiplicativity_check(grid, tol=tol)
    return MpcImplementability(
        implementable=check.multiplicative,
        defect=check.defect,
        check=check,
        domain_fraction=shift.shift_operator(t).domain_fraction,
        restricted_dim=grid.shape[0],
    )


def coarse_grained_implementability(
    shift: TruncatedKShift, s0: int, t: int, tol: float = DEFAULT_TOL
) -> MpcImplementability:
    """Same check for the coarse-graining variant, reported as an experiment."""
    g = (_adjoint_ages(shift, t) <= s0).astype(float)
    g[0] = 1.0
    grid = _restricted_adjoint_grid(g)
    check = multiplicativity_check(grid, tol=tol)
    op = coarse_grained_wt(shift, s0, t)
    return MpcImplementability(
        implementable=check.multiplicative,
        defect=check.defect,
        check=check,
        domain_fraction=op.domain_fraction,
        restricted_dim=grid.shape[0],
    )


def multiplicativity_lower_bound(shift: TruncatedKShift, f: SpectralFunction, t: int) -> float:
    """Brute-force lower bound for the implementability defect.

    Scans every pair (R, Q) of in-domain subsets and compares the adjoint
    multiplier of the product basis element, g(R xor Q), with the product
    g(R) g(Q); a composition operator would make every comparison an
    equality.  Each Walsh function expands into grid indicators with unit
    coefficients, so the worst discrepancy divided by (number of grid
    points)^2 bounds the grid multiplicativity defect from below.
    """
    values = _adjoint_multipliers(shift, f, t)
    d_sub = values.size
    masks = np.arange(d_sub)
    worst = 0.0
    for r in range(d_sub):
        worst = max(worst, float(np.max(np.abs(values[r ^ masks] - values[r] * values))))
    return worst / float(d_sub) ** 2


# --- experiment driver --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    defect_name: str
    value: float
    domain_fraction: float


@dataclass(frozen=True)
class MpcExperiment:
    rows: tuple[ExperimentRow, ...]
    implementable: bool | None
    asserted: bool
    tol: float

    @property
    def negative_verdict(self) -> bool:
        return self.implementable is False


def spectral_function_from_descriptor(descriptor: dict, half_width: int) -> SpectralFunction | None:
    kind = descriptor.get("kind")
    if kind == "logistic":
        return SpectralFunction.logistic(half_width)
    if kind == "constant":
        return SpectralFunction.constant(half_width)
    if kind == "table":
        return SpectralFunction.from_table(half_width, descriptor["values"])
    if kind == "step":
        return None
    raise ValueError(f"unknown spectral function kind {kind!r}")


def run_experiment(descriptor: dict, tol: float = DEFAULT_TOL) -> MpcExperiment:
    """Run the full suite for a JSON descriptor.

    Descriptor fields: N (window half-width), f (spectral function spec:
    logistic | constant | table | step), t (semigroup step), seed.  For the
    step kind only the coarse-graining experiment is run and its verdict is
    recorded, not asserted.
    """
    shift = build_shift(int(descriptor["N"]))
    t = int(descriptor["t"])
    seed = int(descriptor.get("seed", 0))
    f_spec = descriptor["f"]
    f = spectral_function_from_descriptor(f_spec, shift.half_width)
    rows: list[ExperimentRow] = []

    def add(name, value, fraction):
        rows.append(ExperimentRow("mpc", name, float(value), float(fraction)))

    u = shift.shift_operator(t)
    add("commutation_defect", commutation_check(shift, t), u.domain_fraction)
    add("filtration_defect", filtration_defect(shift), 1.0)
    add("time_consistency_defect", time_consistency_defect(shift), 1.0 - 1.0 / shift.dim)

    if f is None:
        s0 = int(f_spec["s0"])
        coarse = coarse_grained_wt(shift, s0, t)
        suite = _stochasticity_of(coarse, shift, t, samples=100, seed=seed)
        add("stochasticity_positivity_defect", suite.positivity_defect, suite.domain_fraction)
        add("stochasticity_mass_defect", suite.mass_defect, suite.domain_fraction)
        add("stochasticity_unitality_defect", suite.unitality_defect, suite.domain_fraction)
        verdict = coarse_grained_implementability(shift, s0, t, tol=tol)
        add("multiplicativity_defect", verdict.defect, verdict.domain_fraction)
        add("implementable", float(verdict.implementable), verdict.domain_fraction)
        return MpcExperiment(tuple(rows), verdict.implementable, asserted=False, tol=tol)

    add("intertwining_defect", intertwining_defect(shift, f, t), u.domain_fraction)
    if t + 1 <= 2 * shift.half_width:
        add(
            "semigroup_defect",
            semigroup_defect(shift, f, 1, t),
            shift.shift_operator(1 + t).domain_fraction,
        )
    add("contraction_violation", contraction_violation(shift, f, t), u.domain_fraction)
    suite = stochasticity_suite(shift, f, t, samples=100, seed=seed)
    add("stochasticity_positivity_defect", suite.positivity_defect, suite.domain_fraction)
    add("stochasticity_mass_defect", suite.mass_defect, suite.domain_fraction)
    add("stochasticity_unitality_defect", suite.unitality_defect, suite.domain_fraction)
    verdict = mpc_implementability(shift, f, t, tol=tol)
    add("multiplicativity_defect", verdict.defect, verdict.domain_fraction)
    add("multiplicativity_lower_bound", multiplicativity_lower_bound(shift, f, t), verdict.domain_fraction)
    add("implementable", float(verdict.implementable), verdict.domain_fraction)
    return MpcExperiment(tuple(rows), verdict.implementable, asserted=True, tol=tol)
