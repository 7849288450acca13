"""Discrete point sets and distinct-distance statistics.

Point sets are float arrays in R^d, optionally carrying an exact
integer representation.  Distance sets are computed either by a
blocked all-pairs sweep or, for (rotated) lattices, by the
translation-invariance shortcut: the distances of the grid [0, q]^d
are the gauge values of the difference grid [-q, q]^d, with pair
multiplicities recovered from the grid geometry.  Exact counting
works on integer keys (squared Euclidean, l1, linf) or on rational
polygon gauges, so the reported counts are identities rather than
float artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._blocks import map_blocks
from .bodies import ConvexBody, LpBall, Polygon2D
from .errors import BudgetError, CapabilityError, InsufficientDataError, ValidationError

# Hard cap on brute-force pair enumeration; beyond it the caller gets
# an explicit error instead of silent subsampling.
_PAIR_CAP = 200_000_000

# Relative dedup tolerance in float mode.  Desk-scale lattice distances
# differ by far more than this unless genuinely equal.
_DEDUP_RTOL = 1e-9

# Hard caps on the lattice grid (q+1)^d, on the half difference grid
# ((2q+1)^d - 1)/2 and on vectors x faces in the rational fallback of exact
# polygon gauges, checked before anything is allocated.  The first two
# admit q <= 2047 in the plane.
_LATTICE_CAP = 1 << 22
_DIFFERENCE_CAP = 1 << 23
_FRACTION_CAP = 1 << 20


def _grid(q: int, d: int, dtype) -> np.ndarray:
    """The integer grid [0, q]^d in lexicographic order, as ``dtype``."""
    if q < 1:
        raise ValidationError("lattice needs q >= 1")
    if (q + 1) ** d > _LATTICE_CAP:
        raise BudgetError(f"(q+1)^d = {(q + 1) ** d} lattice points exceeds the cap of "
                          f"{_LATTICE_CAP}")
    axes = [np.arange(q + 1, dtype=dtype)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def _unique_rows(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of pts in lexicographic order, as np.unique(pts, axis=0)."""
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.empty(len(pts), dtype=bool)
    keep[0] = True
    np.any(pts[1:] != pts[:-1], axis=1, out=keep[1:])
    return pts[keep]


class PointSet:
    """A finite point set with provenance.

    Duplicate rows are removed at construction.  Lattice-derived sets
    keep enough structure (q, rotation pair) for the difference-set
    fast path; explicit integer or rational input keeps an exact
    representation for exact-mode counting.
    """

    def __init__(self, points, provenance: str = "explicit", *, q: Optional[int] = None,
                 angle: Optional[float] = None, seed: Optional[int] = None,
                 jitter: Optional[float] = None, exact=None, rot=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("points must be a nonempty (n, d) array")
        self.points = _unique_rows(pts)
        self.provenance = provenance
        self.q = q
        self.angle = angle
        self.seed = seed
        self.jitter = jitter
        self._exact = exact  # int ndarray or list of Fraction tuples, or None
        self._rot = rot      # (cos, sin) computed once; reused by the fast path

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"PointSet({self.provenance}, n={self.n}, d={self.dim})"

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    @classmethod
    def lattice(cls, q: int, d: int = 2) -> "PointSet":
        """Integer grid Z^d cap [0, q]^d, exactly (q+1)^d points."""
        grid = _grid(q, d, np.int64)
        return cls(grid.astype(float), "lattice", q=q, exact=grid)

    @classmethod
    def rotated_lattice(cls, q: int, angle: float, d: int = 2) -> "PointSet":
        """The lattice grid rotated about the origin by ``angle``.

        The (cos, sin) pair is evaluated once and shared with the
        difference-set fast path, so brute force and fast path see
        the same floats.
        """
        if d != 2:
            raise CapabilityError("rotated lattices are 2d only")
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        return cls(_grid(q, d, float) @ R.T, "rotated_lattice", q=q, angle=angle, rot=(c, s))

    @classmethod
    def perturbed_lattice(cls, q: int, seed: int, max_jitter: float, d: int = 2) -> "PointSet":
        """Lattice grid with iid uniform jitter in [-max_jitter, max_jitter]^d."""
        if not 0 <= max_jitter < 0.5:
            raise ValidationError("max_jitter must lie in [0, 0.5) to keep points distinct")
        grid = _grid(q, d, float)
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-max_jitter, max_jitter, size=grid.shape)
        return cls(grid + noise, "perturbed_lattice", q=q, seed=seed, jitter=max_jitter)

    @classmethod
    def explicit(cls, points) -> "PointSet":
        """Wrap user-supplied points; integer or Fraction input stays exact."""
        exact = None
        try:
            arr = np.asarray(points)
            if arr.dtype.kind in "iu":
                exact = arr.astype(np.int64)
            elif arr.dtype == object:
                flat = [v for row in points for v in row]
                if all(isinstance(v, (int, Fraction)) for v in flat):
                    exact = [tuple(Fraction(v) for v in row) for row in points]
        except (TypeError, ValueError):
            pass
        pts = np.asarray(points, dtype=float)
        return cls(pts, "explicit", exact=exact)


@dataclass
class DistanceSet:
    """Distinct nonzero K-distances of a point set.

    values are sorted strictly increasing; multiplicities count
    unordered pairs per value and sum to n*(n-1)/2; min_gap is the
    smallest difference of consecutive values (inf for < 2 values).
    """

    values: np.ndarray
    multiplicities: np.ndarray
    min_gap: float
    count: int
    exact: bool = False

    def __post_init__(self):
        if self.count != len(self.values):
            raise ValidationError("count must equal the number of distinct values")


@dataclass
class WellDistributedReport:
    ok: bool
    side: float
    witness: Optional[np.ndarray] = None  # origin of an empty cube, None when ok


@dataclass
class SeparatedReport:
    ok: bool
    min_distance: float


@dataclass
class GrowthReport:
    """Distinct-distance counts across a nested family, with a power fit.

    beta reproduces the log-log least squares of counts against q over
    the largest three octaves of the scan (small q is boundary-biased).
    When alpha is supplied the verdict checks beta >= d/alpha - slack.
    """

    q_values: np.ndarray
    counts: np.ndarray
    beta: float
    amplitude: float
    bound: Optional[float] = None
    verdict: Optional[bool] = None
    n_fit: int = 0


def well_distributed_check(S: PointSet, C: float) -> WellDistributedReport:
    """Test whether every side-C cube in the bounding box holds a point.

    Candidate cubes have corners on the (C/2)-grid anchored at the
    bounding-box corner and lie fully inside the box.  Returns the
    origin of an empty cube as witness on failure.
    """
    if C <= 0:
        raise ValidationError("cube side C must be positive")
    lo, hi = S.bounding_box()
    half = C / 2.0
    d = S.dim
    # Number of candidate origins per axis: k = 0 .. floor((span - C)/half).
    kmax = np.floor((hi - lo - C) / half + 1e-12).astype(int)
    if np.any(kmax < 0):
        return WellDistributedReport(True, C, None)  # box thinner than one cube
    shape = tuple(int(k) + 1 for k in kmax)
    # A point at offset t = (p - lo)/half covers cube indices ceil(t) - 2 .. floor(t).
    t = (S.points - lo) / half
    los = np.maximum(np.ceil(t - 2.0 - 1e-12).astype(int), 0)
    his = np.minimum(np.floor(t + 1e-12).astype(int), kmax) + 1
    keep = np.all(los < his, axis=1)
    los, his = los[keep], his[keep]
    # difference array: +-1 at the 2^d corners of each point's index box,
    # then a running sum along every axis counts the points covering a cube
    marks = np.zeros(tuple(k + 1 for k in shape), dtype=np.int32)
    for corner in np.ndindex(*([2] * d)):
        idx = tuple(his[:, j] if bit else los[:, j] for j, bit in enumerate(corner))
        np.add.at(marks, idx, (-1) ** sum(corner))
    for axis in range(d):
        np.cumsum(marks, axis=axis, out=marks)
    covered = marks[tuple(slice(k) for k in shape)] > 0
    if covered.all():
        return WellDistributedReport(True, C, None)
    idx = np.unravel_index(np.argmin(covered), shape)
    origin = lo + half * np.array(idx, dtype=float)
    return WellDistributedReport(False, C, origin)


def separated_check(S: PointSet, c: float) -> SeparatedReport:
    """Test min Euclidean pair distance >= c.

    A k-d tree query for each point's two nearest points gives the point
    itself and its nearest other point: rows are distinct after PointSet's
    dedupe.
    """
    if c <= 0:
        raise ValidationError("separation c must be positive")
    if S.n < 2:
        return SeparatedReport(True, math.inf)
    # imported here: the import alone costs about 0.4 s, which every CLI run
    # would pay at start-up
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(S.points).query(S.points, k=2)
    m = float(dist[:, 1].min())
    # boundary slop: isometries move exact-c distances by a few ulps
    return SeparatedReport(bool(m >= c * (1.0 - 1e-12)), m)


# ---------------------------------------------------------------------------
# distance sets


def _merge_close(values: np.ndarray, weights: np.ndarray, rtol: float = _DEDUP_RTOL):
    """Single-pass merge of sorted values whose relative gap is below rtol."""
    if len(values) == 0:
        return values, weights.astype(np.int64)
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.greater(np.diff(values), rtol * values[1:], out=keep[1:])
    idx = np.cumsum(keep) - 1
    out_v = values[keep]
    out_w = np.zeros(len(out_v), dtype=np.int64)
    np.add.at(out_w, idx, weights)
    return out_v, out_w


def _finish(values: np.ndarray, weights: np.ndarray, exact: bool) -> DistanceSet:
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    if not exact:
        values, weights = _merge_close(values, weights)
    gap = float(np.min(np.diff(values))) if len(values) > 1 else math.inf
    return DistanceSet(values, weights.astype(np.int64), gap, len(values), exact)


def _difference_grid(q: int, d: int):
    """Half of the difference grid [-q, q]^d (one of each +-a pair), with
    per-vector unordered-pair multiplicities prod_i (q + 1 - |a_i|).

    The half keeps the vectors whose first nonzero coordinate is
    positive, in lexicographic order.  It is built as one block per
    position j of that coordinate: zeros before j, a = 1..q at j, and
    the full grid [-q, q]^(d-1-j) after it.
    """
    n = ((2 * q + 1) ** d - 1) // 2
    if n > _DIFFERENCE_CAP:
        raise BudgetError(f"{n} difference vectors exceeds the cap of {_DIFFERENCE_CAP}")
    span = np.arange(-q, q + 1)
    pos = np.arange(1, q + 1)
    tail = np.zeros((1, 0), dtype=np.int64)  # full grid of the trailing coordinates
    tail_w = np.ones(1, dtype=np.int64)      # and its multiplicities
    grid = np.zeros((n, d), dtype=np.int64)
    weights = np.empty(n, dtype=np.int64)
    start = 0
    for j in range(d - 1, -1, -1):  # blocks in increasing lexicographic order
        stop = start + q * len(tail)
        grid[start:stop, j] = np.repeat(pos, len(tail))
        grid[start:stop, j + 1:] = np.tile(tail, (q, 1))
        weights[start:stop] = (q + 1) ** j * np.multiply.outer(q + 1 - pos, tail_w).ravel()
        start = stop
        if j:
            tail = np.column_stack([np.repeat(span, len(tail)), np.tile(tail, (len(span), 1))])
            tail_w = np.multiply.outer(q + 1 - np.abs(span), tail_w).ravel()
    return grid, weights


def _exact_int_values(body: ConvexBody, diffs: np.ndarray):
    """Integer distance keys for integer difference vectors.

    Returns (keys, take_sqrt, factor): squared Euclidean keys need a
    square root to become distances; l1 and linf keys are distances up
    to the float factor (1/radius for non-unit balls).  Distinctness
    of keys is distinctness of distances either way.
    """
    axes = getattr(body, "semi_axes", None)
    if axes is None or np.ptp(axes) != 0.0:
        return None, False, 1.0
    r = float(axes[0])
    p = body.p if isinstance(body, LpBall) else 2
    if p == 2:
        return np.einsum("ij,ij->i", diffs, diffs), True, 1.0 / r
    if p == 1:
        return np.abs(diffs).sum(axis=1), False, 1.0 / r
    if math.isinf(p):
        return np.abs(diffs).max(axis=1), False, 1.0 / r
    return None, False, 1.0


def _exact_polygon_faces(body: Polygon2D):
    """Integer-cleared face functionals (Nx, Ny, C) with gauge = max (N.x)/C."""
    verts = body.exact_vertices
    faces = []
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        nx, ny = y2 - y1, x1 - x2
        c = nx * x1 + ny * y1
        if c <= 0:
            raise CapabilityError("polygon face data is not usable for exact gauges")
        den = math.lcm(nx.denominator, ny.denominator, c.denominator)
        faces.append((int(nx * den), int(ny * den), int(c * den)))
    return faces


def _exact_distance_set(S: PointSet, body: ConvexBody, diffs: np.ndarray,
                        weights: np.ndarray, scale: Fraction) -> DistanceSet:
    keys, take_sqrt, factor = _exact_int_values(body, diffs)
    if keys is not None:
        nz = keys != 0
        keys = keys[nz]
        w = weights[nz]
        uniq, inv = np.unique(keys, return_inverse=True)
        mult = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(mult, inv, w)
        s = float(scale) * factor
        vals = np.sqrt(uniq.astype(float)) * s if take_sqrt else uniq.astype(float) * s
        return _finish(vals, mult, exact=True)
    if isinstance(body, Polygon2D):
        faces = _exact_polygon_faces(body)
        # common denominator L turns the gauge into integer keys:
        # gauge(x) = max_i (N_i . x)/C_i = (max_i M_i . x) / L
        L = math.lcm(*(c for _, _, c in faces))
        M = [(nx * (L // c), ny * (L // c)) for nx, ny, c in faces]
        bound = max(abs(a) + abs(b) for a, b in M) * int(np.abs(diffs).max() or 1)
        if bound < 2**52:  # keys stay exact through the float rendering
            raw = diffs @ np.array(M, dtype=np.int64).T
            keys = raw.max(axis=1)
            nz = keys != 0
            uniq, inv = np.unique(keys[nz], return_inverse=True)
            mult = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(mult, inv, weights[nz])
            vals = uniq.astype(float) * (float(scale) / L)
            return _finish(vals, mult, exact=True)
        # overflow-safe fallback: rational arithmetic per vector
        if len(diffs) * len(faces) > _FRACTION_CAP:
            raise BudgetError(f"{len(diffs)} vectors x {len(faces)} faces of rational "
                              f"gauges exceeds the cap of {_FRACTION_CAP}")
        acc: dict = {}
        for (dx, dy), w in zip(diffs.tolist(), weights.tolist()):
            if dx == 0 and dy == 0:
                continue
            # symmetric polygon: faces come in +- pairs, so the max is >= 0
            val = max(Fraction(nx * dx + ny * dy, c) for nx, ny, c in faces)
            acc[val] = acc.get(val, 0) + w
        keys_sorted = sorted(acc)
        vals = np.array([float(k * scale) for k in keys_sorted])
        mult = np.array([acc[k] for k in keys_sorted], dtype=np.int64)
        return _finish(vals, mult, exact=True)
    raise CapabilityError(
        "exact mode supports LpBall p in {1, 2, inf} and rational Polygon2D gauges")


def _exact_coords(S: PointSet):
    """Integer coordinate array and rational scale with points = ints * scale."""
    if S._exact is None:
        raise CapabilityError("exact mode requires integer or rational points")
    if isinstance(S._exact, np.ndarray):
        return S._exact, Fraction(1)
    den = 1
    for row in S._exact:
        for v in row:
            den = den // math.gcd(den, v.denominator) * v.denominator
    ints = np.array([[int(v * den) for v in row] for row in S._exact], dtype=np.int64)
    return ints, Fraction(1, den)


def _gauges(body: ConvexBody, vecs: np.ndarray, threads: int = 1) -> np.ndarray:
    """body.gauge of each row of vecs, in blocks sized by the gauge's buffer:
    rows x faces for a polygon, rows x d for the other bodies."""
    width = len(body.vertices) if isinstance(body, Polygon2D) else vecs.shape[1]
    return map_blocks(body.gauge, vecs, width, threads)


def distance_set(S: PointSet, body: ConvexBody, mode: str = "float_tol", *,
                 threads: int = 1, pair_cap: int = _PAIR_CAP) -> DistanceSet:
    """Distinct nonzero gauge distances of S with multiplicities.

    Lattice and rotated-lattice provenance route through the
    difference-set fast path (O(q^d) gauge evaluations instead of
    O(q^{2d}) pairs); everything else is a blocked all-pairs sweep
    capped at ``pair_cap`` pairs.  mode 'exact_rational' demands
    integer or rational points and an LpBall p in {1, 2, inf} or a
    rational-face Polygon2D; mode 'float_tol' dedups at relative
    tolerance 1e-9.
    """
    if mode not in ("exact_rational", "float_tol"):
        raise ValidationError(f"unknown mode {mode!r}; use exact_rational or float_tol")
    if S.n < 2:
        return DistanceSet(np.empty(0), np.empty(0, dtype=np.int64), math.inf, 0,
                           mode == "exact_rational")

    if S.provenance in ("lattice", "rotated_lattice") and S.q is not None:
        diffs, weights = _difference_grid(S.q, S.dim)
        if mode == "exact_rational":
            if S.provenance == "rotated_lattice":
                raise CapabilityError("exact mode needs rational points; rotated grids are not")
            return _exact_distance_set(S, body, diffs, weights, Fraction(1))
        vecs = diffs.astype(float)
        if S._rot is not None:
            c, s = S._rot
            vecs = vecs @ np.array([[c, s], [-s, c]])  # row-vector rotation
        vals = _gauges(body, vecs, threads)
        return _finish(vals, weights, exact=False)

    n_pairs = S.n * (S.n - 1) // 2
    if n_pairs > pair_cap:
        raise BudgetError(f"{n_pairs} pairs exceeds the cap of {pair_cap}; "
                          "use a lattice fast path or a smaller set")
    if mode == "exact_rational":
        ints, scale = _exact_coords(S)
        iu = np.triu_indices(S.n, k=1)
        diffs = ints[iu[0]] - ints[iu[1]]
        weights = np.ones(len(diffs), dtype=np.int64)
        return _exact_distance_set(S, body, diffs, weights, scale)

    def pieces(first):
        """Distinct gauge values, with counts, of the pairs (i, j > i), i in first."""
        a, b = first.start, first.stop
        rows = S.points[a:b, None, :] - S.points[None, a + 1:, :]  # j = a + 1 + jj
        ii, jj = np.indices(rows.shape[:2], sparse=True)
        u, cts = np.unique(_gauges(body, rows[jj >= ii]), return_counts=True)
        return np.column_stack([u, cts])

    # one block of first indices per piece, counted in pairs so that each
    # piece still dedupes many of them; counts stay exact in float64
    found = map_blocks(pieces, range(S.n - 1), S.n, threads)
    return _finish(found[:, 0], found[:, 1].astype(np.int64), exact=False)


def fit_window(q_values) -> np.ndarray:
    """Mask of the scan points the growth fit uses: the largest three octaves.

    Raises InsufficientDataError unless the sorted q values span at
    least three dyadic octaves with at least two points in the window.
    """
    qs = np.asarray(q_values)
    if len(qs) < 2 or math.log2(qs[-1] / qs[0]) < 3.0 - 1e-9:
        raise InsufficientDataError("q values must span at least 3 dyadic octaves")
    window = qs >= qs[-1] / 8 * (1 - 1e-9)
    if window.sum() < 2:
        raise InsufficientDataError("need at least 2 scan points in the largest 3 octaves")
    return window


def conversion_bound(d: int, alpha: float) -> float:
    """The growth exponent d/alpha that the conversion argument predicts."""
    if not 0 < alpha < math.inf:
        raise ValidationError(f"alpha must be positive and finite, got {alpha!r}")
    return d / alpha


def growth_fit(q_values: Sequence[int], counts: Sequence[int], d: int, *,
               alpha: Optional[float] = None, slack: float = 0.1) -> GrowthReport:
    """Power-law fit of distinct-distance counts already computed per q.

    q_values must be strictly increasing.  The exponent beta comes from
    a log-log least-squares fit over the largest three octaves of q
    (small q carries boundary bias).  With alpha supplied,
    verdict = (beta >= d/alpha - slack).
    """
    qs = np.asarray(q_values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(qs) != len(counts) or np.any(np.diff(qs) <= 0):
        raise ValidationError("need one count per q, with q strictly increasing")
    window = fit_window(qs)
    lg_q = np.log(qs[window].astype(float))
    lg_c = np.log(counts[window].astype(float))
    A = np.stack([np.ones_like(lg_q), lg_q], axis=1)
    coef, *_ = np.linalg.lstsq(A, lg_c, rcond=None)
    beta = float(coef[1])
    bound = verdict = None
    if alpha is not None:
        bound = conversion_bound(d, alpha)
        verdict = bool(beta >= bound - slack)
    return GrowthReport(qs, counts, beta, float(math.exp(coef[0])), bound, verdict,
                        int(window.sum()))


def growth_scan(family: Callable[[int], PointSet], body: ConvexBody,
                q_list: Sequence[int], *, alpha: Optional[float] = None,
                slack: float = 0.1, mode: str = "float_tol",
                threads: int = 1) -> GrowthReport:
    """Distinct-distance counts of family(q) for each distinct q, fitted by growth_fit."""
    qs = sorted(set(int(q) for q in q_list))
    fit_window(qs)  # fail before counting anything
    if alpha is not None:
        conversion_bound(1, alpha)
    counts = []
    for q in qs:
        S = family(q)
        counts.append(distance_set(S, body, mode, threads=threads).count)
    return growth_fit(qs, counts, S.dim, alpha=alpha, slack=slack)


def min_gap_trend(family: Callable[[int], PointSet], body: ConvexBody,
                  q_list: Sequence[int], *, mode: str = "float_tol",
                  threads: int = 1):
    """(q, min_gap) per scan point; nested families make it non-increasing."""
    out = []
    for q in sorted(set(int(q) for q in q_list)):
        ds = distance_set(family(q), body, mode, threads=threads)
        out.append((q, ds.min_gap))
    return out


def polygonality_probe(report: GrowthReport, d: int = 2) -> str:
    """Classify a growth report: near-linear counts look polygonal.

    Thresholds straddle the 3/2 dividing exponent with desk-scale
    slack: beta < 1.25 reads polygon_like, beta > 1.4 curved_like.
    """
    if d != 2:
        raise CapabilityError("the polygonality probe is calibrated for d = 2")
    fit_window(report.q_values)
    if report.beta < 1.25:
        return "polygon_like"
    if report.beta > 1.4:
        return "curved_like"
    return "inconclusive"
