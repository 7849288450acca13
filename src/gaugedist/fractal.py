"""Cantor-type constructions, box dimension, and discrete energy integrals.

Digit-restricted Cantor iterates and their difference covers are exact:
every endpoint is a rational with denominator (2m)^n and every reported
length is an identity, not a float.  Diophantine cube families and
energy integrals are float-based trend instruments; the energy ladder
only ever claims growth or plateau across a T ladder, never convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from ._blocks import _line_fit, distinct, map_blocks
from .bodies import ConvexBody, _finite_rows, _numerators, _positive
from .distset import PointSet, _unique_rows, distance_set
from .errors import BudgetError, CapabilityError, InsufficientDataError, ValidationError
from .fourier import _planar_rows

_MAX_CELLS = 10_000_000
_MAX_ATOMS = 1_000_000
_MAX_ENERGY_NODES = 2 ** 21  # polar nodes: 32 T^2 at the default density, so T <= 256


def _merge(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge intervals, sorted by lo, whose spans touch or overlap: a run
    ends where the next lo passes the running max of hi."""
    if len(lo) == 0:
        return lo, hi
    reach = np.maximum.accumulate(hi)
    start = np.ones(len(lo), dtype=bool)
    start[1:] = lo[1:] > reach[:-1]
    end = np.append(np.flatnonzero(start)[1:] - 1, len(lo) - 1)
    return lo[start], reach[end]


def _scaled(nums: np.ndarray, num: int, den: int) -> np.ndarray:
    """floor(nums * num / den) in Python integers, which cannot wrap."""
    return nums.astype(object) * num // den


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Disjoint sorted closed intervals [lo_i / den, hi_i / den], touching
    ones merged: integer numerators over one denominator, so every operation
    is integer arithmetic; Fractions are built only by intervals and total_length."""

    lo: np.ndarray
    hi: np.ndarray
    den: int

    @classmethod
    def build(cls, pairs) -> "IntervalUnion":
        """The union of rational (a, b) pairs, cleared to the lcm of their denominators."""
        nums, den = _numerators([(Fraction(a), Fraction(b)) for a, b in pairs])
        # Python integers, so that lengths and their sums cannot wrap
        nums = nums.astype(object).reshape(-1, 2)
        if np.any(nums[:, 1] < nums[:, 0]):
            raise ValidationError("interval endpoints out of order")
        return cls._from_numerators(nums[:, 0], nums[:, 1], den)

    @classmethod
    def _from_numerators(cls, lo: np.ndarray, hi: np.ndarray, den: int) -> "IntervalUnion":
        """Merge integer-numerator intervals sharing one denominator."""
        order = np.argsort(lo, kind="stable")
        return cls(*_merge(lo[order], hi[order]), den)

    @property
    def intervals(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(a, self.den), Fraction(b, self.den))
                     for a, b in zip(self.lo.tolist(), self.hi.tolist()))

    @property
    def total_length(self) -> Fraction:
        return Fraction(int((self.hi - self.lo).sum()), self.den)

    @property
    def count(self) -> int:
        return len(self.lo)

    def contains_point(self, x) -> bool:
        return self.contains_union(IntervalUnion.build([(x, x)]))

    def contains_union(self, other: "IntervalUnion") -> bool:
        """Exact containment test: every interval of other sits inside one of
        ours, the last whose lo is at or below its lo (floor and ceil of its
        ends over our denominator)."""
        a = _scaled(other.lo, self.den, other.den)
        b = -_scaled(-other.hi, self.den, other.den)
        i = np.searchsorted(self.lo, a, side="right") - 1
        return bool(np.all(i >= 0)) and bool(np.all(self.hi[i] >= b))


@dataclass(frozen=True)
class CantorSpec:
    """Base-2m Cantor set keeping only even digits {0, 2, ..., 2m-2}.

    The depth-n iterate is exactly m^n closed intervals of length
    (2m)^{-n}.
    """

    m: int
    depth: int

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("base parameter m must be >= 2")
        if self.depth < 1:
            raise ValidationError("depth must be >= 1")

    @property
    def base(self) -> int:
        return 2 * self.m

    @property
    def cell_count(self) -> int:
        return self.m ** self.depth

    @property
    def cell_length(self) -> Fraction:
        return Fraction(1, self.base ** self.depth)


def _digit_numerators(spec: CantorSpec, low: int = 0) -> np.ndarray:
    """Depth-n strings of the digits low, low + 2, ..., base - 2 as integers over
    base^depth: cell left ends (low = 0) or their signed differences (2 - base)."""
    digits = np.arange(low, spec.base - 1, 2, dtype=np.int64)
    nums = np.zeros(1, dtype=np.int64)
    for _ in range(spec.depth):
        nums = (nums[:, None] * spec.base + digits[None, :]).ravel()
    return nums


def cantor_build(spec: CantorSpec) -> IntervalUnion:
    """Exact depth-n iterate as an interval union."""
    if spec.cell_count > _MAX_CELLS:
        raise BudgetError(f"cell count {spec.cell_count} exceeds the cap of {_MAX_CELLS}")
    nums = _digit_numerators(spec)
    return IntervalUnion._from_numerators(nums, nums + 1, spec.base ** spec.depth)


@dataclass(frozen=True)
class DifferenceCover:
    """Interval cover of the absolute difference set of a Cantor iterate.

    pre_merge_count and pre_merge_length are the exact enumeration
    identities (2m-1)^n and 2 (2m-1)^n (2m)^{-n}; union is the merged
    cover of {|x - y|}.
    """

    spec: CantorSpec
    union: IntervalUnion
    pre_merge_count: int
    pre_merge_length: Fraction


def difference_cover(spec: CantorSpec) -> DifferenceCover:
    """Cover {|x-y| : x,y in the iterate} by digit-difference enumeration.

    Each pair of depth-n cells differs by a string of even digit
    differences; the distinct signed strings give (2m-1)^n centers, and
    each center covers a 2(2m)^{-n} window of differences.
    """
    pre = (2 * spec.m - 1) ** spec.depth
    if pre > _MAX_CELLS:
        raise BudgetError(f"difference count {pre} exceeds the cap of {_MAX_CELLS}")
    nums = _digit_numerators(spec, 2 - spec.base)
    # digit strings encode distinct values: tails are too small to collide
    if len(distinct(nums)) != pre:
        raise ValidationError("digit-difference enumeration produced collisions")
    den = spec.base ** spec.depth
    centers = distinct(np.abs(nums))
    union = IntervalUnion._from_numerators(np.maximum(centers - 1, 0), centers + 1, den)
    return DifferenceCover(spec, union, int(pre), 2 * Fraction(pre, den))


def _grid_count_1d(iu: IntervalUnion, eps: Fraction) -> int:
    """Cells [k eps, (k+1) eps) hit by the union, counted exactly.

    The right endpoint of an interval lands in the previous cell when it
    sits exactly on the grid, so a full interval of length 1 occupies
    exactly 1/eps cells: an interval [a, b] spans cells floor(a / eps)
    to max(ceil(b / eps) - 1, floor(a / eps)).
    """
    scale = (eps.denominator, iu.den * eps.numerator)
    lo = _scaled(iu.lo, *scale)
    hi = np.maximum(-_scaled(-iu.hi, *scale) - 1, lo)
    lo, hi = _merge(lo, hi)
    return int((hi - lo + 1).sum())


def _grid_count_points(pts: np.ndarray, eps: float) -> int:
    idx = np.floor(pts / eps).astype(np.int64)
    # domain [0,1]^2: the upper face belongs to the last cell
    nmax = int(math.ceil(1.0 / eps - 1e-12))
    idx = np.minimum(idx, nmax - 1)
    return len(_unique_rows(idx))


BoxCountable = Union[IntervalUnion, PointSet, Tuple[IntervalUnion, ...]]


def box_dim(obj: BoxCountable, scales: Sequence) -> float:
    """Box-counting dimension estimate over dyadic scales.

    Fits log N(eps) against log(1/eps) by least squares.  Interval
    unions (and product tuples of them) are counted exactly in rational
    arithmetic; point sets are binned in floats on [0,1]^2, and one
    outside it is a ValidationError.  So is a count or a scale whose
    reciprocal the float fit cannot hold.
    """
    eps_list = sorted((_positive(eps, "box scales") for eps in scales), reverse=True)
    n_distinct = len(set(eps_list))
    if n_distinct < 3:
        raise InsufficientDataError(f"box_dim needs at least 3 distinct scales, "
                                    f"got {n_distinct}")
    if isinstance(obj, IntervalUnion):
        obj = (obj,)
    if isinstance(obj, tuple):
        if any(iu.count == 0 for iu in obj):
            raise InsufficientDataError("box_dim of an empty interval union is undefined")
        counts = [math.prod(_grid_count_1d(iu, Fraction(eps)) for iu in obj)
                  for eps in eps_list]
    elif isinstance(obj, PointSet):
        lo, hi = obj.bounding_box()
        if lo.min() < 0.0 or hi.max() > 1.0:
            raise ValidationError(f"box_dim bins point sets in [0, 1]^2; the bounding "
                                  f"box is {lo.tolist()} to {hi.tolist()}")
        counts = [_grid_count_points(obj.points, float(eps)) for eps in eps_list]
    else:
        raise CapabilityError(f"cannot box-count {type(obj).__name__}")
    try:
        x = [math.log(1.0 / float(e)) for e in eps_list]
        y = [math.log(float(c)) for c in counts]
        if x[-1] == math.inf:  # 1 / 2^-1030 overflows without an error
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"box counts (the largest of {max(counts).bit_length()} bits) "
                              f"or scales are past the float range") from None
    return _line_fit(x, y)[0]


# ---------------------------------------------------------------------------
# diophantine cube families


@dataclass(frozen=True)
class DioSpec:
    """Cubes of half-side q^{-2/s} at rational centers p/q, p in S."""

    S: PointSet
    q: int
    s: float

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 1:
            raise ValidationError(f"q must be an integer >= 1, got {self.q!r}")
        if not 0 < self.s <= 2:
            raise ValidationError("s must lie in (0, 2]")

    @property
    def half_side(self) -> float:
        return float(self.q) ** (-2 / self.s)


@dataclass(frozen=True)
class DioSet:
    """Finite-stage diophantine set: clipped cubes around center points.

    disjoint reports the 2 q^{-2/s} < 1/q spacing diagnostic; the
    dimension count downstream assumes near-disjointness, overlap is
    merely merged.
    """

    spec: DioSpec
    centers: np.ndarray
    half_side: float
    disjoint: bool

    @property
    def count(self) -> int:
        return len(self.centers)

    def axis_union(self):
        """Merged 1d shadow of the cubes along the first axis, clipped to [0,1]."""
        lo = np.clip(self.centers[:, 0] - self.half_side, 0.0, 1.0)
        hi = np.clip(self.centers[:, 0] + self.half_side, 0.0, 1.0)
        order = np.argsort(lo)
        lo, hi = _merge(lo[order], hi[order])
        return list(zip(lo.tolist(), hi.tolist()))


def dio_build(spec: DioSpec) -> DioSet:
    """Cubes |x_j - p_j/q| <= q^{-2/s} for p in S cap [0,q]^2, clipped to [0,1]^2."""
    pts = spec.S.points
    inside = np.all((pts >= -1e-12) & (pts <= spec.q + 1e-12), axis=1)
    centers = pts[inside] / spec.q
    if len(centers) == 0:
        raise ValidationError("no generator points inside [0, q]^2")
    h = spec.half_side
    disjoint = 2.0 * h < 1.0 / spec.q
    return DioSet(spec, centers, h, disjoint)


@dataclass(frozen=True)
class DeltaCover:
    """Interval cover of the distance set of a diophantine stage.

    One window per distinct generator distance; count therefore equals
    the distinct-distance count of (S, body) at this q.
    """

    intervals: Tuple[Tuple[float, float], ...]
    count: int
    half_width: float
    total_length: float


def delta_cover(spec: DioSpec, body: ConvexBody, *, mode: str = "float_tol") -> DeltaCover:
    """Cover the K-distance set of the cube family by one window per value.

    Points inside two cubes sit within 2h of their centers in sup norm,
    so each K-distance lies within 2h * (corner gauge) of a center
    distance; windows have total width 4h * cornergauge before merging.
    """
    ds = distance_set(spec.S, body, mode)
    h = spec.half_side
    # the largest gauge over the unit sup-norm square, at a corner by convexity
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    half_w = 2.0 * h * float(np.max(body.gauge(corners)))
    vals = ds.values / spec.q
    lo, hi = _merge(np.maximum(vals - half_w, 0.0), vals + half_w)
    total = float(sum((hi - lo).tolist()))  # in order: numpy's pairwise sum rounds differently
    return DeltaCover(tuple(zip(lo.tolist(), hi.tolist())), ds.count, half_w, total)


# ---------------------------------------------------------------------------
# atomic measures and energy integrals


@dataclass
class AtomicMeasure:
    """Finitely many planar atoms, (n, 2), with positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValidationError(f"atoms must be an (n, 2) array, got shape "
                                  f"{self.points.shape}")
        _finite_rows(self.points, "atoms")
        if len(self.weights) != len(self.points):
            raise ValidationError("one weight per atom required")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValidationError("weights must be positive and finite")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValidationError("weights must sum to 1")

    def mass(self):
        return float(self.weights.sum())

    def ft(self, xi: np.ndarray) -> np.ndarray:
        """mu-hat(xi) = sum_j w_j exp(-2 pi i x_j . xi), exact finite sum.

        Evaluated in row blocks, so the phase buffer stays small whatever
        the atom count, as two real sums: cos minus i sin.
        """
        xi = _planar_rows(xi)

        def block(b):
            phase = (b @ self.points.T) * (2.0 * np.pi)
            return np.cos(phase) @ self.weights - 1j * (np.sin(phase) @ self.weights)

        return map_blocks(block, xi, len(self.points))


class CantorMeasure(AtomicMeasure):
    """Uniform weights on the depth-n cell centers of the Cantor square C x C.

    Per axis the centers are c + sum_k (2 j_k - m + 1) / base^k, j_k < m,
    around their mean c: a convolution of n symmetric digit measures, so
    the transform is the Riesz product e(-c xi) prod_k (1/m) sum_j
    cos(2 pi (2j - m + 1) xi / base^k), with e(t) = exp(2 pi i t).  That
    is n m cosines per axis instead of m^(2 n) atoms.
    """

    def __init__(self, spec: CantorSpec):
        n_atoms = spec.cell_count ** 2
        if n_atoms > _MAX_ATOMS:
            raise BudgetError(f"atom count {n_atoms} exceeds the cap of {_MAX_ATOMS}")
        self.spec = spec
        centers = (_digit_numerators(spec) + 0.5) / spec.base ** spec.depth
        pts = np.stack([g.ravel() for g in np.meshgrid(centers, centers, indexing="ij")],
                       axis=-1)
        super().__init__(pts, np.full(n_atoms, 1.0 / n_atoms))

    def mass(self) -> Fraction:
        return Fraction(1)  # N atoms of weight 1/N

    def ft(self, xi: np.ndarray) -> np.ndarray:
        """mu-hat(xi): the real per-axis Riesz products times one phase."""
        xi = _planar_rows(xi)
        m, base, n = self.spec.m, self.spec.base, self.spec.depth
        amp = np.ones(len(xi))
        for t in xi.T:
            for k in range(1, n + 1):
                a = (2.0 * np.pi / base ** k) * t
                amp *= sum(np.cos((2 * j - m + 1) * a) for j in range(m)) / m
        center = ((m - 1) * ((base ** n - 1) // (base - 1)) + 0.5) / base ** n
        return amp * np.exp(-2j * np.pi * center * xi.sum(axis=1))


def natural_measure(spec: CantorSpec) -> CantorMeasure:
    """Uniform weights on the depth-n cell centers of C x C."""
    return CantorMeasure(spec)


def _energy_values(mu: AtomicMeasure, gammas: Sequence[float], Ts: Sequence[float]):
    """Energy integrals indexed [gamma][T] (see energy_integral).

    gamma enters only the radial weight, so |mu-hat|^2 is evaluated once
    per T and reused; all grids are checked against the cap before any is built.
    """
    if not all(0 < g < 2 for g in gammas):
        raise ValidationError("gamma must lie in (0, 2)")
    if min(Ts) <= 1:
        raise ValidationError("T must exceed 1")
    # diam(support) <= sqrt(2) on the unit square: ~8 radial nodes per unit
    # resolves the exponential-sum oscillation envelope
    grids = [(max(128, int(8 * T)), max(64, int(4 * T))) for T in Ts]
    nodes = max(a * b for a, b in grids)
    if nodes > _MAX_ENERGY_NODES:
        raise BudgetError(f"energy grid of {nodes} polar nodes exceeds the cap of "
                          f"{_MAX_ENERGY_NODES} (T = {max(Ts):g})")
    vals = [[] for _ in gammas]
    for T, (nr, nt) in zip(Ts, grids):
        r = np.linspace(1.0, float(T), nr)
        theta = (np.arange(nt) + 0.5) * (np.pi / nt)  # half circle, |mu-hat| even
        xi = np.empty((nr * nt, 2))
        xi[:, 0] = np.outer(r, np.cos(theta)).ravel()
        xi[:, 1] = np.outer(r, np.sin(theta)).ravel()
        power = (np.abs(mu.ft(xi)) ** 2).reshape(nr, nt)
        ang = power.mean(axis=1) * (2.0 * np.pi)  # full-circle angular integral
        for row, gamma in zip(vals, gammas):
            row.append(float(np.trapezoid(r ** (1.0 - gamma) * ang, r)))
    return vals


def energy_integral(mu: AtomicMeasure, gamma: float, T: float) -> float:
    """integral of |xi|^{-gamma} |mu-hat|^2 over the annulus 1 <= |xi| <= T.

    Polar-grid quadrature in the plane; the unit disk is excluded so the
    integrable singularity cannot contaminate trend reads.  Atomic
    measures make this a trend instrument, not a convergence test.
    """
    return _energy_values(mu, [gamma], [T])[0][0]


# Increment-ratio bands for the ladder trend.  Log-periodic modulation
# of Cantor-type measures moves octave increments by ~10% either way,
# so the growth call needs a clear margin above flat.
_GROWTH_RATIO = 1.15
_DECAY_RATIO = 0.85


@dataclass(frozen=True)
class EnergyLadder:
    """Energy integrals across a T ladder with increment trend labels."""

    T_values: Tuple[float, ...]
    integrals: Tuple[float, ...]
    increments: Tuple[float, ...]
    trend: str  # growth | plateau | decay | mixed


def energy_ladders(mu: AtomicMeasure, gammas: Sequence[float],
                   T_list: Sequence[float]) -> Tuple[EnergyLadder, ...]:
    """Energy integrals at each T, one ladder per gamma, with trend labels.

    Clearly growing increments mirror a divergent continuum energy
    (gamma below the critical index); flat (plateauing) or shrinking
    increments mirror a convergent one.
    """
    Ts = sorted(float(t) for t in T_list)
    if len(Ts) < 3:
        raise InsufficientDataError("a trend needs at least 3 ladder points")
    if len(set(Ts)) < len(Ts):
        raise ValidationError("ladder T values must be distinct")
    ladders = []
    for vals in _energy_values(mu, gammas, Ts):
        incs = [b - a for a, b in zip(vals, vals[1:])]
        ratios = [b / a for a, b in zip(incs, incs[1:])]
        if all(r >= _GROWTH_RATIO for r in ratios):
            trend = "growth"
        elif all(r <= _DECAY_RATIO for r in ratios):
            trend = "decay"
        elif all(_DECAY_RATIO < r < _GROWTH_RATIO for r in ratios):
            trend = "plateau"
        else:
            trend = "mixed"
        ladders.append(EnergyLadder(tuple(Ts), tuple(vals), tuple(incs), trend))
    return tuple(ladders)
