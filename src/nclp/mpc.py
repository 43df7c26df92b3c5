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
coarse-grained variant) is a real weighted bit shift that weighs a subset,
and keeps it in the window, by its age alone, so a ``WalshOperator`` holds
one weight and one domain flag per age and the exact identities compare
those.  The intertwining relation holds up to float rounding (<= 1e-12)
because the semigroup weights are stored as ratios of spectral-function
values.  The exact-arithmetic counterparts of these identities are checked
by the test-suite oracle over the rationals.

Stochasticity is decided, not sampled: on densities a step is an XOR
convolution, positive exactly when its kernel is nonnegative.

Implementability asks whether the adjoint of a semigroup step is a
composition operator on the grid.  A step by t sends mask m to m << t, so
its adjoint sends m << t back to m with the step's weight: the adjoint's
sub-basis is the step's domain, the masks below d = 2^(2N+1-t), and its
multipliers g are the step's weights there.  Its grid matrix is then an
XOR convolution, K[x, y] = k[x ^ y] with k = fwht(g) / d.  Every row of K
is a permutation of k, so the check reads k alone and a verdict takes O(d)
time and memory, not the grid.  The tests compare it with the check of the
dense product H diag(g) H / d, H the +-1 Walsh matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .classical import MultiplicativityCheck, XorConvolution, multiplicativity_check
from .jsonio import SchemaError, integer_field, integer_value, real_value, require
from .linalg import DEFAULT_TOL

MAX_WINDOW = 9


class WindowTooLargeError(ValueError):
    """Requested window half-width exceeds the supported desk scale."""


class InvalidSpectralFunctionError(ValueError):
    """Spectral function violates positivity, monotonicity, or log-concavity."""


class DomainEmptyError(ValueError):
    """No nonconstant basis element survives the requested shift."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _half_width(value) -> int:
    """``value`` as a window half-width in [1, MAX_WINDOW]; else WindowTooLargeError."""
    n = integer_value(value, "half_width")
    if n < 1 or n > MAX_WINDOW:
        raise WindowTooLargeError(f"half-width must lie in [1, {MAX_WINDOW}], got {n}")
    return n


@dataclass(frozen=True)
class SpectralFunction:
    """Positive, non-increasing, log-concave values on [-N-1, N+1].

    The declared limits are 1 at -infinity and 0 at +infinity; a finite
    window cannot exhibit them, so they are stated here as intent.  Functions
    that are not strictly decreasing (the constant one used as a control)
    are accepted.  ``values`` is a read-only copy of the caller's values,
    validated once: a later write to the caller's array cannot reach it.
    ``logistic`` and ``constant`` are tables like the operators', one
    shared object per window size; ``from_table`` builds a new one on each
    call.  These three take a half-width in [1, MAX_WINDOW], the
    constructor any range; its limits and every age are integers, read by
    ``integer_value``'s rule.
    """

    s_min: int
    s_max: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_min", integer_value(self.s_min, "s_min"))
        object.__setattr__(self, "s_max", integer_value(self.s_max, "s_max"))
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.s_max - self.s_min + 1:
            raise InvalidSpectralFunctionError(
                f"need one value per integer in [{self.s_min}, {self.s_max}]"
            )
        if not np.isfinite(v).all() or (v <= 0).any():
            raise InvalidSpectralFunctionError("values must be finite and positive")
        if (v[1:] > v[:-1]).any():
            raise InvalidSpectralFunctionError("values must be non-increasing")
        # log-concavity f(s)^2 >= f(s-1) f(s+1), with relative float slack
        mid = v[1:-1] ** 2
        sides = v[:-2] * v[2:]
        if (mid < sides * (1.0 - 1e-12)).any():
            raise InvalidSpectralFunctionError("values must be log-concave")
        object.__setattr__(self, "values", _read_only(v))

    def value(self, s: int) -> float:
        s = integer_value(s, "age")
        if s < self.s_min or s > self.s_max:
            raise ValueError(f"age {s} outside the tabulated range [{self.s_min}, {self.s_max}]")
        return float(self.values[s - self.s_min])

    @classmethod
    def logistic(cls, half_width: int) -> "SpectralFunction":
        """The default 1 / (1 + e^s): strictly decreasing with concave log."""
        return _logistic(_half_width(half_width))

    @classmethod
    def constant(cls, half_width: int) -> "SpectralFunction":
        """f = 1, the control: every step f(s + t) / f(s) is the plain shift."""
        return _constant(_half_width(half_width))

    @classmethod
    def from_table(cls, half_width: int, values) -> "SpectralFunction":
        """f on [-N-1, N+1] from one real number per age, each read by
        ``real_value``."""
        n = _half_width(half_width)
        return cls(-n - 1, n + 1, [real_value(v, "values") for v in values])


@lru_cache(maxsize=None)
def _logistic(n: int) -> SpectralFunction:
    """``SpectralFunction.logistic(n)``, one per window size."""
    s = np.arange(-n - 1, n + 2)
    return SpectralFunction(-n - 1, n + 1, 1.0 / (1.0 + np.exp(s)))


@lru_cache(maxsize=None)
def _constant(n: int) -> SpectralFunction:
    """``SpectralFunction.constant(n)``, one per window size."""
    return SpectralFunction(-n - 1, n + 1, np.ones(2 * n + 3))


@lru_cache(maxsize=None)
def _slot_index(sites: int) -> np.ndarray:
    """slot[mask] for the 2^sites masks: 0 for the empty mask, 1 + b for the
    2^b masks in [2^b, 2^(b+1)), whose top bit is b."""
    return _read_only(np.repeat(np.arange(sites + 1), _slot_sizes(sites + 1)))


@lru_cache(maxsize=None)
def _slot_sizes(size: int) -> np.ndarray:
    """The masks in each of ``size`` slots: 1 in slot 0 and 2^b in slot 1 + b."""
    return _read_only(np.concatenate(([1], 1 << np.arange(size - 1))))


@lru_cache(maxsize=None)
def _step_domain(sites: int, t: int) -> np.ndarray:
    """The slots a step by t keeps in the window: 0 and each s with s + t <= sites."""
    slots = np.arange(sites + 1)
    return _read_only((slots == 0) | (slots + t <= sites))


@lru_cache(maxsize=None)
def _moved_slots(size: int, shift: int) -> np.ndarray:
    """Where a shift moves each slot: 0 to 0, i > 0 to i + shift, capped at
    the top slot, which only off-domain slots would pass."""
    slots = np.arange(size)
    return _read_only(np.where(slots > 0, np.minimum(slots + shift, size - 1), 0))


@lru_cache(maxsize=None)
def _slot_pairs(size: int) -> tuple[np.ndarray, ...]:
    """Over the slot pairs (i, j), row by row: the table min(i, j), then the
    triples (a, b, r) that are (i, j, max(i, j)) where i != j or i = j = 0,
    followed by (i, i, j) where j < i."""
    i, j = np.indices((size, size))
    pairs, within = (i != j) | (i + j == 0), j < i
    a, b = np.concatenate((i[pairs], i[within])), np.concatenate((j[pairs], i[within]))
    r = np.concatenate((np.maximum(i, j)[pairs], j[within]))
    return tuple(map(_read_only, (np.minimum(i, j), a, b, r)))


@lru_cache(maxsize=None)
def _slot_ages(sites: int) -> np.ndarray:
    """Slot ages -N-1..N of a 2N+1-site window; the empty mask's is the sentinel -N-1."""
    return _read_only(np.arange(sites + 1) - (sites + 1) // 2)


@lru_cache(maxsize=None)
def _filtration(sites: int) -> np.ndarray:
    """The rule for E_t: its weights at the filtration times t = -N-1..N
    (the slot ages), one row per time and one column per age slot, 1 where
    the slot's age is <= t; ``conditional_expectation`` returns its rows."""
    ages = _slot_ages(sites)
    return _read_only((ages[:, None] >= ages).astype(float))


@lru_cache(maxsize=None)
def _age_operator(sites: int) -> WalshOperator:
    """The age operator of a ``sites``-site window; ``time_operator`` returns it."""
    domain = _read_only(np.arange(sites + 1) > 0)
    return _built(0, _read_only(np.where(domain, _slot_ages(sites), 0.0)), domain)


@dataclass(frozen=True)
class WalshOperator:
    """A weighted bit shift on Walsh coordinates, stored by age slot.

    Slot 0 is the empty mask and slot 1 + b holds the 2^b masks with top bit
    b, all with the slot's weight and domain flag.  An in-domain mask m goes
    to m << shift times its weight; diagonal operators have shift 0.  Masks
    outside the domain go to zero *and* are flagged: any quantity derived
    from this operator must quantify over the domain only and report
    ``domain_fraction`` alongside.  In-domain masks never lose a bit, so the
    map is one-to-one there and a composition is again a weighted bit shift.
    ``weights``, ``domain`` and ``apply`` are the per-mask views.  The domain
    is a 1-d boolean array, matched in shape by the float weights, and an
    in-domain slot s >= 1 must stay in the window, s + shift <= sites; else
    ValueError.  ``shift`` is read by ``integer_value``'s rule.  These
    checks guard the public constructor.  The builders below (U_t, the age
    operator, E_t, Lambda, W_t and ``compose``) make operators valid by
    construction from nclp's own tables, and skip them.
    """

    shift: int
    slot_weights: np.ndarray
    slot_domain: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shift", integer_value(self.shift, "shift"))
        if self.shift < 0:
            raise ValueError("a Walsh operator shifts by t >= 0")
        if not isinstance(self.slot_domain, np.ndarray) or self.slot_domain.dtype != bool or self.slot_domain.ndim != 1:
            raise ValueError("a Walsh operator's domain is a 1-d boolean array, one flag per slot")
        if not isinstance(self.slot_weights, np.ndarray) or self.slot_weights.dtype != float:
            raise ValueError("a Walsh operator's weights are a float array, one weight per slot")
        if self.slot_weights.shape != self.slot_domain.shape:
            raise ValueError("a Walsh operator needs one weight and one domain flag per slot")
        sites = self.slot_domain.size - 1
        if any(self.slot_domain[max(1, sites - self.shift + 1) :].tolist()):
            raise ValueError(f"a domain slot leaves the {sites}-site window shifted by {self.shift}")

    @property
    def dim(self) -> int:
        return 1 << (self.slot_weights.size - 1)

    @property
    def weights(self) -> np.ndarray:
        return self.slot_weights[_slot_index(self.slot_weights.size - 1)]

    @property
    def domain(self) -> np.ndarray:
        return self.slot_domain[_slot_index(self.slot_domain.size - 1)]

    @cached_property
    def domain_fraction(self) -> float:
        # the kept masks, an exact integer count, over all of them
        return int(_slot_sizes(self.slot_domain.size).dot(self.slot_domain)) / self.dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Map a coefficient vector, or each column of a (dim, k) array."""
        v = np.asarray(v)
        src = np.flatnonzero(self.domain)
        out = np.zeros(v.shape, dtype=np.result_type(v, self.slot_weights))
        weights = self.weights[src].reshape(-1, *(1,) * (v.ndim - 1))
        out[src << self.shift] = weights * v[src]
        return out

    def compose(self, other: "WalshOperator") -> "WalshOperator":
        """The product self o other, one gather and one mask: ``other`` acts
        first, moving slot i > 0 to slot i + other.shift (``_moved_slots``).
        ValueError unless both have the same number of slots."""
        size = _slot_count(self, other)
        after, kept = self.slot_weights, self.slot_domain
        if other.shift:
            moved = _moved_slots(size, min(other.shift, size))
            after, kept = after[moved], kept[moved]
        domain = other.slot_domain & kept
        weights = np.where(domain, after * other.slot_weights, 0.0)
        # an in-domain slot s has s + other.shift in self's domain, so
        # s + other.shift + self.shift <= sites
        return _built(self.shift + other.shift, weights, domain)

    @cached_property
    def _age_commutator(self) -> float:
        """``commutation_check(self)``, computed once per operator."""
        time = _age_operator(self.slot_weights.size - 1)
        residual = time.compose(self).slot_weights - self.compose(time).slot_weights - self.shift * self.slot_weights
        return _masked_max(residual[1:], self.slot_domain[1:])


def _built(shift: int, weights: np.ndarray, domain: np.ndarray) -> WalshOperator:
    """A ``WalshOperator`` valid by construction (an int shift, float weights
    and a boolean domain kept in the window), without the constructor's checks."""
    op = object.__new__(WalshOperator)
    op.__dict__.update(shift=shift, slot_weights=weights, slot_domain=domain)
    return op


def _slot_count(a: WalshOperator, b: WalshOperator) -> int:
    """The slot count of ``a`` and ``b``; ValueError naming both unless equal."""
    if a.slot_weights.size != b.slot_weights.size:
        raise ValueError(f"cannot combine a {a.slot_weights.size}-slot operator with a {b.slot_weights.size}-slot one")
    return a.slot_weights.size


def _masked_max(values: np.ndarray, mask: np.ndarray) -> float:
    """max |value| over the entries selected by ``mask`` (0 when none is)."""
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
        object.__setattr__(self, "half_width", _half_width(self.half_width))

    @property
    def sites(self) -> int:
        return 2 * self.half_width + 1

    @property
    def dim(self) -> int:
        return 1 << self.sites

    def coords_of(self, index: int) -> tuple[int, ...]:
        index = integer_value(index, "index")
        if index < 0 or index >= self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        n = self.half_width
        return tuple(b - n for b in range(self.sites) if index >> b & 1)

    def index_of(self, coords) -> int:
        n = self.half_width
        mask = 0
        for k in set(coords):
            k = integer_value(k, "coords")
            if k < -n or k > n:
                raise ValueError(f"coordinate {k} outside the window [-{n}, {n}]")
            mask |= 1 << (k + n)
        return mask

    @property
    def slot_ages(self) -> np.ndarray:
        """The age of each slot, -N-1..N (``_slot_ages``)."""
        return _slot_ages(self.sites)

    def shift_operator(self, t: int) -> WalshOperator:
        """U_t for t >= 0: subset S -> S + t where the image stays inside the
        window; the constant function is fixed.  One read-only operator per
        window size and t (``_shift_operator``)."""
        t = integer_value(t, "t")
        if t < 0:
            raise ValueError("shift operators need t >= 0")
        return _shift_operator(self.sites, t)


@lru_cache(maxsize=None)
def _shift_operator(sites: int, t: int) -> WalshOperator:
    """U_t of a ``sites``-site window; ``shift_operator`` returns it."""
    in_dom = _step_domain(sites, min(t, sites + 1))
    return _built(t, _read_only(in_dom.astype(float)), in_dom)


def conditional_expectation(shift: TruncatedKShift, t: int) -> WalshOperator:
    """The projector onto ages <= t, row t of the shift's filtration table;
    t = -N-1 keeps only the constants."""
    n = shift.half_width
    t = integer_value(t, "t")
    if t < -n - 1 or t > n:
        raise ValueError(f"filtration time {t} outside [{-n - 1}, {n}]")
    return _built(0, _filtration(shift.sites)[t + n + 1], np.ones(shift.sites + 1, dtype=bool))


def time_operator(shift: TruncatedKShift) -> WalshOperator:
    """Diagonal age operator; the constant function carries no age and sits
    outside the domain mask.  One read-only operator per window size."""
    return _age_operator(shift.sites)


def commutation_check(u: WalshOperator) -> float:
    """max over in-domain nonconstant basis vectors of
    ||(T U_t - U_t T - t U_t) w|| for the shift U_t = ``u`` and the age
    operator T of its window; exactly zero, since ages shift by t.  Computed
    once per operator, so once per window and t for the shared U_t."""
    return u._age_commutator


def lambda_build(shift: TruncatedKShift, f: SpectralFunction) -> WalshOperator:
    """The change of representation: multiply each age-s basis element by
    f(s) and fix the constants.  Invertible on the window since f > 0."""
    _check_range(shift, f)
    diag = f.values[shift.slot_ages - f.s_min]
    diag[0] = 1.0
    return _built(0, diag, np.ones(diag.size, dtype=bool))


def wt_build(shift: TruncatedKShift, f: SpectralFunction, t: int) -> WalshOperator:
    """One step of the intertwined Markov semigroup.

    Sends an age-s subset S to S + t with multiplier f(s + t) / f(s) -- the
    multiplier is evaluated at the post-shift age, which is exactly what the
    intertwining relation with the change of representation forces -- and
    fixes the constants.  Since f is non-increasing every multiplier lies in
    (0, 1].
    """
    t = _check_step(shift, t)
    _check_range(shift, f)
    before, after = _step_ages(shift.sites, t, f.s_min)
    weights = np.zeros(shift.sites + 1)
    weights[0] = 1.0
    weights[1 : before.size + 1] = f.values[after] / f.values[before]
    return _built(t, weights, _step_domain(shift.sites, t))


@lru_cache(maxsize=None)
def _step_ages(sites: int, t: int, s_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Where a step by t reads f, as indices into values tabulated from
    s_min: the age s of each slot that stays in the window, then s + t."""
    before = _slot_ages(sites)[1 : sites + 1 - t] - s_min
    return _read_only(before), _read_only(before + t)


def _check_step(shift: TruncatedKShift, t: int) -> int:
    """``t`` as an int, if a step by it keeps a nonconstant subset."""
    t = integer_value(t, "t")
    if t < 1:
        raise ValueError("semigroup steps require t >= 1")
    if t > 2 * shift.half_width:
        raise DomainEmptyError(
            f"no nonconstant subset survives a shift by {t} in a window of half-width {shift.half_width}"
        )
    return t


def _check_range(shift: TruncatedKShift, f: SpectralFunction):
    n = shift.half_width
    if f.s_min > -n - 1 or f.s_max < n + 1:
        raise InvalidSpectralFunctionError(
            f"spectral function tabulated on [{f.s_min}, {f.s_max}] does not cover the window range [{-n - 1}, {n + 1}]"
        )


def coarse_grained_wt(shift: TruncatedKShift, s0: int, t: int) -> WalshOperator:
    """The coarse-graining variant: project onto ages <= s0 after shifting.

    A step spectral function turns the semigroup formula into 0/0, so this
    constructor composes the projection with the shift directly.  Whether
    the result is implementable is reported by the checkers as an
    experiment; no theorem is asserted for it.
    """
    u = shift.shift_operator(_check_step(shift, t))
    e = conditional_expectation(shift, integer_value(s0, "s0"))
    return e.compose(u)


# --- exact-identity defects -------------------------------------------------


def intertwining_defect(w: WalshOperator, lam: WalshOperator, u: WalshOperator) -> float:
    """max |weight| of (W_t Lam - Lam U_t) over the masks where U_t acts."""
    residual = w.compose(lam).slot_weights - lam.compose(u).slot_weights
    return _masked_max(residual, u.slot_domain)


def semigroup_defect(ws: WalshOperator, wt: WalshOperator, wst: WalshOperator) -> float:
    """max |weight| of (W_s W_t - W_{s+t}) over the masks where W_{s+t} acts;
    ValueError unless all three share a window."""
    _slot_count(ws, wst)
    residual = ws.compose(wt).slot_weights - wst.slot_weights
    return _masked_max(residual, wst.slot_domain)


@lru_cache(maxsize=None)
def filtration_defect(shift: TruncatedKShift) -> float:
    """Projector algebra: E_s E_t = E_t E_s = E_min(s,t), exactly.  A table:
    one value per window size."""
    per_age = _filtration(shift.sites)
    earlier = _slot_pairs(per_age.shape[0])[0]
    products = per_age[:, None] * per_age[None] - per_age[earlier]
    return float(np.abs(products).max())


@lru_cache(maxsize=None)
def time_consistency_defect(shift: TruncatedKShift) -> float:
    """The telescoping sum sum_t t (E_t - E_{t-1}) must reproduce the age
    operator on its domain.  A table: one value per window size."""
    total = shift.slot_ages[1:] @ np.diff(_filtration(shift.sites), axis=0)
    reference = time_operator(shift)
    mask = reference.slot_domain
    return float(np.abs(total[mask] - reference.slot_weights[mask]).max())


def contraction_violation(w: WalshOperator) -> float:
    """How far any multiplier of the step ``w`` strays outside (0, 1]."""
    data = w.slot_weights[w.slot_domain]
    return float(max(0.0, float(data.max()) - 1.0) + max(0.0, -float(data.min())))


# --- grid transform and stochasticity ----------------------------------------


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along axis 0.

    Self-inverse up to the factor 2^m; with +-1 Walsh functions this is both
    the coefficients-to-grid evaluation and (after dividing by the length)
    the grid-to-coefficients analysis.

    The Walsh matrix on 2^L points is the Kronecker power of the 2-point
    one, so each group of at most four index bits, lowest bits first, is
    transformed by one product with the +-1 matrix ``_hadamard`` of its
    size: ceil(L / 4) products in all.  Any trailing shape, float or
    complex; the result is a new C-ordered array, exact where every
    partial sum is an integer below 2^53.  ValueError unless the length is
    a power of two.
    """
    a = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    if n <= 1:
        return np.array(a, order="C")
    shape, rest = a.shape, a.size // n
    low = 1
    while low < n:
        # axis 0 as (high bits, this group's bits, low bits and trailing
        # axes); the product runs over the middle axis, as one matrix
        # product wherever the outer axes allow it
        m = min(16, n // low)
        high, inner = n // (low * m), low * rest
        h = _hadamard(m)
        if inner == 1:
            a = a.reshape(high, m) @ h
        elif high == 1:
            a = h @ a.reshape(m, inner)
        else:
            a = np.matmul(h, a.reshape(high, m, inner))
        low *= m
    return a.reshape(shape)


@lru_cache(maxsize=None)
def _hadamard(m: int) -> np.ndarray:
    """The symmetric +-1 Walsh matrix on m = 2^k points, entry (x, y) =
    (-1)^popcount(x & y), built by Kronecker doubling; read-only."""
    h = np.ones((1, 1))
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return _read_only(h)


def _step_kernel(multipliers: np.ndarray) -> np.ndarray:
    """The kernel k of scaling Walsh coefficient m by multipliers[m]: on grid
    values that is XOR convolution by k, as H[x, m] H[y, m] = H[x ^ y, m]."""
    return fwht(multipliers) / multipliers.size


def _step_slots(op: WalshOperator) -> np.ndarray:
    """The weights by age slot 0..2N+1-t, zero off its domain, of a step by t
    in a 2N+1-site window: the slots of the masks below 2^(2N+1-t), the
    subsets of the low 2N+1-t coordinates.  A step by t reads only these
    coordinates, and its adjoint acts on these masks with these multipliers.
    A step by t > 2N keeps no nonconstant subset: DomainEmptyError, the rule
    of ``_check_step``."""
    sites = op.slot_weights.size - 1 - op.shift
    if sites < 1:
        n = (op.slot_weights.size - 2) // 2
        raise DomainEmptyError(f"no nonconstant subset survives a shift by {op.shift} in a window of half-width {n}")
    return np.where(op.slot_domain[: sites + 1], op.slot_weights[: sites + 1], 0.0)


def _step_weights(op: WalshOperator) -> np.ndarray:
    """A step's weights on the masks below 2^(2N+1-t): its slot weights
    (``_step_slots``) spread over their masks."""
    slots = _step_slots(op)
    return slots[_slot_index(slots.size - 1)]


def _stochasticity_of(op: WalshOperator, kernel: np.ndarray) -> tuple[float, float]:
    """The positivity and mass defects of a step, both exact, given its
    kernel ``_step_kernel(_step_weights(op))``.

    Mass reads the weight on the empty set, the only mask that a step sends
    there, and so does unitality: one defect serves both.  Positivity is
    decided on densities of the low 2N+1-t coordinates, all that a step by t
    reads: their masks lie below block = 2^(2N+1-t), which the step scales
    by m while relabelling grid points, so it acts as XOR convolution by
    k = fwht(m) / block and is positive exactly when k >= 0.  Over densities
    with values in [0, 1] its lowest value is -sum max(0, -k), reached by
    the indicator of {y : k[x ^ y] < 0}; that sum is the positivity defect.
    """
    positivity = 0.0 - float(kernel[kernel < 0].sum())  # +0.0 when k >= 0
    return positivity, abs(float(op.slot_weights[0] if op.slot_domain[0] else 0.0) - 1.0)


# --- implementability ---------------------------------------------------------


@dataclass(frozen=True)
class MpcImplementability:
    """A step's verdict and its positivity and mass defects, from one kernel."""

    check: MultiplicativityCheck
    domain_fraction: float
    positivity_defect: float
    mass_defect: float
    # the step judged and the kernel the check read: arrays would make == ambiguous
    step: WalshOperator = field(compare=False, repr=False)
    convolution: XorConvolution = field(compare=False, repr=False)

    @property
    def implementable(self) -> bool:
        return self.check.multiplicative

    @property
    def defect(self) -> float:
        return self.check.defect


def _implementability_of(op: WalshOperator, tol: float) -> MpcImplementability:
    """The verdict on the grid of the adjoint of the step ``op`` by t, an
    XOR convolution that the check reads by its kernel, never as a grid;
    the same kernel decides the step's positivity."""
    convolution = XorConvolution(_step_kernel(_step_weights(op)))
    check = multiplicativity_check(convolution, tol=tol)
    return MpcImplementability(check, op.domain_fraction, *_stochasticity_of(op, convolution.kernel), op, convolution)


def mpc_implementability(
    shift: TruncatedKShift, f: SpectralFunction, t: int, tol: float = DEFAULT_TOL
) -> MpcImplementability:
    """Is the semigroup step the density evolution of some point map?

    Equivalent question: is its adjoint a composition operator?  The adjoint
    acts on the step's domain with the step's weights f(s + t) / f(s); it is
    transported to the grid there and fed to the classical multiplicativity
    check.  For the constant spectral function the step is a plain shift
    and the defect is zero; any strictly decreasing spectral function leaves
    a strictly positive defect.
    """
    return _implementability_of(wt_build(shift, f, t), tol)


def coarse_grained_implementability(
    shift: TruncatedKShift, s0: int, t: int, tol: float = DEFAULT_TOL
) -> MpcImplementability:
    """Same check for the coarse-graining variant, reported as an experiment.
    Its adjoint acts on the coarse step's domain with the coarse step's
    weights, E_s0's weight at m << t for mask m."""
    return _implementability_of(coarse_grained_wt(shift, s0, t), tol)


def multiplicativity_lower_bound(step: WalshOperator) -> float:
    """Pair-scan lower bound for the implementability defect of the step
    ``step`` of the shift model, in its own window.

    Compares pairs (R, Q) of in-domain subsets, with g the step's weights:
    the adjoint multiplier of the product basis element, g(R xor Q), against
    the product g(R) g(Q); a composition operator would make every
    comparison an equality.  Each Walsh function expands into grid
    indicators with unit coefficients, so the worst discrepancy divided by
    (number of grid points)^2 bounds the grid multiplicativity defect from
    below.

    g depends only on the age slot, so the scan reads the L + 1 slot
    weights gs, L = 2N+1-t, by slot pairs: R in slot i and Q in slot j give
    R xor Q in slot max(i, j) when i != j or i = j = 0, and in every slot
    r < i when i = j > 0.  The worst discrepancy is thus the max of
    |gs[r] - gs[a] gs[b]| over the triples (a, b, r) of ``_slot_pairs``,
    (i, j, max(i, j)) for those pairs and (i, i, r) for r < i: the same
    floats as the scan over every (R, Q), so the same
    maximum bit for bit, in O(N^2) time, where pairing one subset per slot
    with every subset takes (L + 1) 2^L.
    """
    gs = _step_slots(step)
    _, a, b, r = _slot_pairs(gs.size)
    worst = float(np.abs(gs[r] - gs[a] * gs[b]).max())
    return worst / float(1 << (gs.size - 1)) ** 2


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
    implementable: bool
    asserted: bool


def spectral_function_from_descriptor(descriptor: dict, half_width: int) -> SpectralFunction | None:
    if not isinstance(descriptor, dict):
        raise ValueError(f"spectral function must be an object, got {descriptor!r}")
    kind = descriptor.get("kind")
    if kind == "logistic":
        return SpectralFunction.logistic(half_width)
    if kind == "constant":
        return SpectralFunction.constant(half_width)
    if kind == "table":
        values = require(descriptor, "values")
        if not isinstance(values, list):
            raise SchemaError("values", f"must be a list of numbers, got {values!r}")
        return SpectralFunction.from_table(half_width, values)
    if kind == "step":
        return None
    raise ValueError(f"unknown spectral function kind {kind!r}")


def run_experiment(descriptor: dict, tol: float = DEFAULT_TOL) -> MpcExperiment:
    """Run the full suite for a JSON descriptor.

    Descriptor fields: N (window half-width), f (spectral function spec:
    logistic | constant | table | step), t (semigroup step); N, t and s0 are
    integers, a "seed" is ignored.  A step kind runs only the coarse-graining
    experiment, and its verdict is recorded, not asserted.

    Each operator is built once per experiment and handed to every row that
    reads it: at t = 1 the verdict's step is also the semigroup row's W_1,
    and the verdict's kernel, the one ``fwht`` of the experiment, also
    decides positivity.  Tables, the built-in spectral functions among
    them, are read-only and cached by window size.  So are the facts of the
    window: the filtration and time-consistency defects, U_t and its
    commutation defect, each computed once per window (and t); what depends
    on f is computed for each experiment.  Every operator is built from
    those tables, valid by construction, so none runs the public
    constructor's checks.  N, t and s0 are read once, here.
    """
    shift = TruncatedKShift(integer_field(descriptor, "N"))
    t = integer_field(descriptor, "t")
    f_spec = require(descriptor, "f")
    f = spectral_function_from_descriptor(f_spec, shift.half_width)
    rows: list[ExperimentRow] = []

    def add(name, value, fraction):
        rows.append(ExperimentRow("mpc", name, float(value), float(fraction)))

    u = shift.shift_operator(t)
    add("commutation_defect", commutation_check(u), u.domain_fraction)
    add("filtration_defect", filtration_defect(shift), 1.0)
    add("time_consistency_defect", time_consistency_defect(shift), 1.0 - 1.0 / shift.dim)

    if f is None:
        verdict = coarse_grained_implementability(shift, integer_field(f_spec, "s0"), t, tol=tol)
        bound = None
    else:
        verdict = mpc_implementability(shift, f, t, tol=tol)
        step = verdict.step
        add("intertwining_defect", intertwining_defect(step, lambda_build(shift, f), u), u.domain_fraction)
        if t + 1 <= 2 * shift.half_width:
            after = wt_build(shift, f, 1 + t)
            first = step if t == 1 else wt_build(shift, f, 1)
            add("semigroup_defect", semigroup_defect(first, step, after), after.domain_fraction)
        add("contraction_violation", contraction_violation(step), u.domain_fraction)
        bound = multiplicativity_lower_bound(step)
    add("stochasticity_positivity_defect", verdict.positivity_defect, verdict.domain_fraction)
    add("stochasticity_mass_defect", verdict.mass_defect, verdict.domain_fraction)
    add("stochasticity_unitality_defect", verdict.mass_defect, verdict.domain_fraction)
    add("multiplicativity_defect", verdict.defect, verdict.domain_fraction)
    if bound is not None:
        add("multiplicativity_lower_bound", bound, verdict.domain_fraction)
    add("implementable", float(verdict.implementable), verdict.domain_fraction)
    return MpcExperiment(tuple(rows), verdict.implementable, asserted=f is not None)
