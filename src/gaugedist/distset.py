"""Discrete point sets and distinct-distance statistics.

Point sets are (n, 2) float arrays in the plane; integer or Fraction input
also keeps integer numerators over one denominator.  Distance sets come
from one blocked pipeline in both modes: difference vectors, either all
pairs or, for (rotated) lattices, the translation-invariance shortcut (the
distances of the grid [0, q]^2 are the gauge values of the difference grid
[-q, q]^2, with pair multiplicities recovered from the grid geometry), are
mapped block by block to keys, each block keeps only its distinct keys with
their multiplicities, and these merge as the blocks come, so memory is
bounded by a block and the result (small exact lattice keys are counted in
one histogram instead).  Exact counting keys by integers (squared
Euclidean, l1, linf, or cleared rational polygon gauges), so the reported
counts are identities rather than float artifacts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._blocks import _line_fit, map_blocks
from .bodies import ConvexBody, LpBall, Polygon2D, _finite_rows, _numerators, _positive
from .errors import BudgetError, CapabilityError, InsufficientDataError, ValidationError

# Hard cap on brute-force pair enumeration; beyond it the caller gets
# an explicit error instead of silent subsampling.
_PAIR_CAP = 200_000_000

# Relative dedup tolerance in float mode.  Desk-scale lattice distances
# differ by far more than this unless genuinely equal.
_DEDUP_RTOL = 1e-9

# Hard caps on the lattice grid (q+1)^2 and on vectors x faces of exact
# polygon keys held in Python integers, checked before anything is
# allocated.  The lattice cap admits q <= 2047, which also bounds the half
# difference grid ((2q+1)^2 - 1)/2 of a lattice to 8 384 512 < 2^23 vectors.
_LATTICE_CAP = 1 << 22
_FRACTION_CAP = 1 << 20

# Exact int64 lattice keys in [0, top] are counted in one histogram of
# top + 1 int64 entries (8 MiB at most) rather than sorted, while top + 1
# stays within this many entries.
_HISTOGRAM_CAP = 1 << 20


def _grid_size(q: int) -> int:
    """(q+1)^2, the size of the grid [0, q]^2, once q and the cap are checked."""
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValidationError(f"lattice needs q >= 1, an integer, got {q!r}")
    if (q + 1) ** 2 > _LATTICE_CAP:
        raise BudgetError(f"(q+1)^2 = {(q + 1) ** 2} lattice points exceeds the cap of "
                          f"{_LATTICE_CAP}")
    return (q + 1) ** 2


def _grid(q: int, dtype) -> np.ndarray:
    """The integer grid [0, q]^2 in lexicographic order, as ``dtype``."""
    _grid_size(q)
    axis = np.arange(q + 1, dtype=dtype)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def _unique_rows(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of pts in lexicographic order, as np.unique(pts, axis=0)."""
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.empty(len(pts), dtype=bool)
    keep[0] = True
    np.any(pts[1:] != pts[:-1], axis=1, out=keep[1:])
    return pts[keep]


class PointSet:
    """A finite planar point set with provenance.

    Points are (n, 2) and finite, else a ValidationError; duplicate rows are
    removed.  Integer or Fraction input keeps an exact copy for exact mode:
    the distinct rows of integer numerators over one denominator.  Distinct
    exact points that round to one float point are a ValidationError, as
    both modes must count the same n points.  Only (rotated) lattices record the
    q (and angle) the fast path reads; they build their points on first read.
    """

    dim = 2

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
            raise ValidationError(f"points must be a nonempty (n, 2) array, got shape "
                                  f"{pts.shape}")
        _finite_rows(pts, "points")
        exact = _numerators(points)
        if exact is not None:
            exact = (_unique_rows(exact[0]), exact[1])
        # (float points, exact (numerators, denominator) or None); or a
        # function that returns the pair
        self._rows = (_unique_rows(pts), exact)
        self.n = len(self._rows[0])
        if exact is not None and len(exact[0]) != self.n:
            raise ValidationError(f"{len(exact[0])} distinct exact points round to "
                                  f"{self.n} distinct float points")
        self.provenance, self.q, self.angle = "explicit", None, None

    @classmethod
    def explicit(cls, points) -> "PointSet":
        """PointSet(points), under the name the documentation uses."""
        return cls(points)

    @classmethod
    def _lattice(cls, q: int, rows, provenance: str, angle=None) -> "PointSet":
        """The (q+1)^2 distinct points of a (rotated) lattice grid, whose
        (points, exact) pair rows() builds when either is first read."""
        S = cls(np.zeros((1, 2)))
        S.n, S._rows = _grid_size(q), rows
        S.provenance, S.q, S.angle = provenance, q, angle
        return S

    def _built(self):
        if callable(self._rows):
            self._rows = self._rows()
        return self._rows

    @property
    def points(self) -> np.ndarray:
        """The distinct points, (n, 2) floats in lexicographic order."""
        return self._built()[0]

    @property
    def _exact(self):
        return self._built()[1]

    def __repr__(self):
        return f"PointSet({self.provenance}, n={self.n})"

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    @classmethod
    def lattice(cls, q: int) -> "PointSet":
        """Integer grid Z^2 cap [0, q]^2, exactly (q+1)^2 points."""
        def rows():
            # distinct and in lexicographic order already: no sort
            grid = _grid(q, np.int64)
            return grid.astype(float), (grid, 1)

        return cls._lattice(q, rows, "lattice")

    @classmethod
    def rotated_lattice(cls, q: int, angle: float) -> "PointSet":
        """The plane lattice grid rotated about the origin by ``angle``.

        The difference-set fast path rotates by the same math.cos and
        math.sin of ``angle``, so brute force and fast path see the same
        floats.  The rotation keeps the (q+1)^2 points distinct.
        """
        if not math.isfinite(angle):
            raise ValidationError(f"angle must be finite, got {angle!r}")
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        return cls._lattice(q, lambda: (_unique_rows(_grid(q, float) @ R.T), None),
                            "rotated_lattice", angle)

    @classmethod
    def perturbed_lattice(cls, q: int, seed: int, max_jitter: float) -> "PointSet":
        """Plane lattice grid with iid uniform jitter in [-max_jitter, max_jitter]^2."""
        if not 0 <= max_jitter < 0.5:
            raise ValidationError("max_jitter must lie in [0, 0.5) to keep points distinct")
        grid = _grid(q, float)
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-max_jitter, max_jitter, size=grid.shape)
        S = cls(grid + noise)
        S.provenance = "perturbed_lattice"
        return S


@dataclass
class DistanceSet:
    """Distinct nonzero K-distances of a point set.

    values are sorted strictly increasing; multiplicities count
    unordered pairs per value and sum to n*(n-1)/2.  count and min_gap, the
    smallest difference of consecutive values (inf for < 2 values), are
    read from values.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    exact: bool = False

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def min_gap(self) -> float:
        return float(np.min(np.diff(self.values))) if len(self.values) > 1 else math.inf


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
    When alpha is supplied the verdict checks beta >= 2/alpha - slack.
    min_gaps holds each q's min_gap when growth_scan counted the family;
    growth_fit, given counts only, leaves it None.
    """

    q_values: np.ndarray
    counts: np.ndarray
    beta: float
    amplitude: float
    bound: Optional[float] = None
    verdict: Optional[bool] = None
    n_fit: int = 0
    min_gaps: Optional[np.ndarray] = None


def well_distributed_check(S: PointSet, C: float) -> WellDistributedReport:
    """Test whether every side-C cube in the bounding box holds a point.

    Candidate cubes have corners on the (C/2)-grid anchored at the
    bounding-box corner and lie fully inside the box.  Returns the
    origin of an empty cube as witness on failure.
    """
    _positive(C, "cube side C")
    lo, hi = S.bounding_box()
    half = C / 2.0
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
    # difference array: +-1 at the 4 corners of each point's index box,
    # then a running sum along both axes counts the points covering a cube
    marks = np.zeros(tuple(k + 1 for k in shape), dtype=np.int32)
    for corner in np.ndindex(2, 2):
        idx = tuple(his[:, j] if bit else los[:, j] for j, bit in enumerate(corner))
        np.add.at(marks, idx, (-1) ** sum(corner))
    for axis in (0, 1):
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
    _positive(c, "separation c")
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


def _distinct(keys: np.ndarray, weights: Optional[np.ndarray] = None, rtol: float = 0.0):
    """The sorted distinct keys with summed weights (unit weights when None).
    With rtol > 0, a key whose gap to the previous key is at most rtol times
    itself merges into that key; with rtol = 0 only equal keys merge, so
    Python-integer keys are never converted to float."""
    if weights is None:
        return np.unique(keys, return_counts=True)
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    keep[1:] = keys[1:] - keys[:-1] > rtol * keys[1:] if rtol else keys[1:] != keys[:-1]
    starts = np.flatnonzero(keep)
    return keys[starts], np.add.reduceat(weights, starts)


def _fold_distinct(parts) -> np.ndarray:
    """The rows of ``parts``, (key, weight) arrays with distinct keys each,
    with the weights of equal keys summed as the parts come.  Parts wait
    until they hold as many rows as those merged so far, so memory stays
    near the size of the result rather than of all parts, and each row is
    sorted a bounded number of times on average.  The last parts may still
    repeat keys of the merged rows."""
    parts = iter(parts)
    merged, pending, size = next(parts), [], 0
    for part in parts:
        pending.append(part)
        size += len(part)
        if size >= len(merged):
            rows = np.concatenate([merged] + pending)
            merged = np.column_stack(_distinct(rows[:, 0], rows[:, 1]))
            pending, size = [], 0
    return np.concatenate([merged] + pending)


def _histogram(size: int):
    """A reduce for ``map_blocks`` over (int64 keys in [0, size), int64 weights)
    parts: the (key, weight) rows of the distinct keys, the weights of equal
    keys summed, in key order.  Integer sums do not depend on their order,
    so neither does the result on the thread count."""
    def reduce(parts):
        counts = np.zeros(size, dtype=np.int64)
        for keys, weights in parts:
            np.add.at(counts, keys, weights)
        keys = np.flatnonzero(counts)
        return np.column_stack([keys, counts[keys]])

    return reduce


def _difference_rows(q: int, rows: range):
    """Rows ``rows`` of the half difference grid: the vectors (a, b) of
    [-q, q]^2 whose first nonzero coordinate is positive (one of each +-
    pair), in lexicographic order, with their unordered-pair multiplicities
    (q + 1 - |a|)(q + 1 - |b|) on [0, q]^2.

    Row i is entry ((2q+1)^2 + 1)/2 + i of the full grid [-q, q]^2 in
    lexicographic order, the entries after its centre, the zero vector.
    The rows cut a run of whole grid lines along the second axis; line k
    has first coordinate a = k - q.
    """
    base = 2 * q + 1
    n = len(rows)
    first, skip = divmod(rows.start + (base * base + 1) // 2, base)
    a = np.arange(first, first + -(-(skip + n) // base), dtype=np.int64) - q
    line = np.arange(-q, q + 1, dtype=np.int64)
    # whole lines, the second coordinate running along each, then cut to rows
    vecs = np.empty((len(a), base, 2), dtype=np.int64)
    vecs[:, :, 0] = a[:, None]
    vecs[:, :, 1] = line
    weights = (q + 1 - np.abs(a))[:, None] * (q + 1 - np.abs(line))
    take = slice(skip, skip + n)
    return vecs.reshape(-1, 2)[take], weights.reshape(-1)[take]


def _cleared_faces(body: Polygon2D):
    """Integer rows M_i and a denominator L with gauge(x) = max_i (M_i . x) / L:
    each face functional (N_i . x) / C_i cleared to integers, then all of them
    brought to the common denominator L = lcm C_i."""
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
    L = math.lcm(*(c for _, _, c in faces))
    return [(nx * (L // c), ny * (L // c)) for nx, ny, c in faces], L


def _fits_int64(bound: int, what: str) -> None:
    """CapabilityError unless integers up to ``bound`` in absolute value fit int64."""
    if bound >= 1 << 63:
        raise CapabilityError(f"exact {what} reach {bound}, past the int64 bound 2^63")


def _exact_keys(body: ConvexBody, den: int, reach: int, n_vecs: int):
    """(fn, render, unit, top) for exact mode.

    fn maps integer 2-vectors, with coordinates at most ``reach`` in
    absolute value, to integer keys in the order of their distances: the
    squared Euclidean (the disk), l1 or linf norm for round balls, in
    int64 (a CapabilityError where 2 reach^2, 2 reach or reach would pass
    it), and max_i M_i . x of ``_cleared_faces`` for a rational polygon,
    in int64 while that stays below 2^52 and in Python integers (at most
    ``_FRACTION_CAP`` vectors x faces) beyond.  render turns distinct keys
    into the float distances of the points ints / ``den``.  unit is the
    number of 8-byte entries one key costs: 1 for int64, and for a Python
    integer its pointer and its object.  top bounds the int64 keys, which
    lie in [0, top]; it is None for Python-integer keys.
    """
    _fits_int64(reach, "coordinate differences")
    if isinstance(body, LpBall) and np.ptp(body.semi_axes) == 0.0:
        p = body.p
        s = (1 / den) * (1.0 / float(body.semi_axes[0]))
        if p == 2:
            _fits_int64(2 * reach * reach, "squared l2 keys")
            return (lambda v: np.einsum("ij,ij->i", v, v)), \
                (lambda k: np.sqrt(k.astype(float)) * s), 1, 2 * reach * reach
        if p == 1:
            _fits_int64(2 * reach, "l1 keys")
            return (lambda v: np.abs(v).sum(axis=1)), (lambda k: k.astype(float) * s), 1, \
                2 * reach
        if math.isinf(p):
            return (lambda v: np.abs(v).max(axis=1)), (lambda k: k.astype(float) * s), 1, \
                reach
    if isinstance(body, Polygon2D) and body.exact_vertices is not None:
        M, L = _cleared_faces(body)
        bound = max(abs(a) + abs(b) for a, b in M) * reach
        if bound < 2**52:
            # keys stay exact through the float rendering
            def fn(v):
                # one face at a time, elementwise: 2-4x faster than v @ M.T
                # and its max over the faces, and exact all the same
                x, y = v.T
                keys = M[0][0] * x + M[0][1] * y
                for a, b in M[1:]:
                    np.maximum(keys, a * x + b * y, out=keys)
                return keys

            return fn, (lambda k: k.astype(float) * ((1 / den) / L)), 1, bound
        if n_vecs * len(M) > _FRACTION_CAP:
            raise BudgetError(f"{n_vecs} vectors x {len(M)} faces of Python-integer "
                              f"gauges exceeds the cap of {_FRACTION_CAP}")
        Mt = np.array(M, dtype=object).T
        den_l = den * L
        # int / int is correctly rounded, however large the integers
        return (lambda v: (v.astype(object) @ Mt).max(axis=1)), \
            (lambda k: np.array([x / den_l for x in k.tolist()])), \
            1 + -(-sys.getsizeof(bound) // 8), None
    raise CapabilityError(
        "exact mode supports LpBall p in {1, 2, inf} and rational Polygon2D gauges")


def distance_set(S: PointSet, body: ConvexBody, mode: str = "float_tol", *,
                 threads: int = 1) -> DistanceSet:
    """Distinct nonzero gauge distances of S with multiplicities.

    One pipeline for both modes.  A producer cuts the difference vectors
    into blocks: for lattice and rotated-lattice provenance the half
    difference grid with its pair weights (O(q^2) vectors instead of
    O(q^4) pairs), otherwise the pairs (i, j > i) by first index, capped
    at ``_PAIR_CAP`` pairs, with unit weights.  Each block maps its vectors
    to keys and returns the distinct keys with summed weights, merged with
    the earlier blocks' as they come, so memory is bounded by a block and
    the result; exact int64 lattice keys below ``_HISTOGRAM_CAP`` are
    counted in one histogram instead.  Mode 'float_tol' keys by the float gauge and merges
    keys within relative tolerance 1e-9; mode 'exact_rational' demands
    integer or rational points and an LpBall p in {1, 2, inf} or a
    rational-face Polygon2D, keys by integers and merges equal keys only.
    """
    if mode not in ("exact_rational", "float_tol"):
        raise ValidationError(f"unknown mode {mode!r}; use exact_rational or float_tol")
    exact = mode == "exact_rational"
    if S.n < 2:
        return DistanceSet(np.empty(0), np.empty(0, dtype=np.int64), exact)

    lattice = S.q is not None  # set by the lattice and rotated lattice constructors
    if lattice:
        n_vecs = ((2 * S.q + 1) ** 2 - 1) // 2  # below 2^23 under _LATTICE_CAP
    else:
        n_vecs = S.n * (S.n - 1) // 2
        if n_vecs > _PAIR_CAP:
            raise BudgetError(f"{n_vecs} pairs exceeds the cap of {_PAIR_CAP}; "
                              "use a lattice fast path or a smaller set")
    top = None
    if exact:
        if lattice and S.angle is None:
            P, den, reach = None, 1, S.q  # the integer grid [0, q]^2
        else:
            if S._exact is None:
                raise CapabilityError("exact mode requires integer or rational points")
            P, den = S._exact
            _fits_int64(max(-int(P.min()), int(P.max())),
                        "coordinates over their common denominator")
            # in Python integers: the int64 span of a column may wrap
            reach = max(int(c.max()) - int(c.min()) for c in P.T)
        fn, render, unit, top = _exact_keys(body, den, reach, n_vecs)
    else:
        # the lattice path reads no points, so a lattice never builds them
        P, fn, render, unit = None if lattice else S.points, body.gauge, (lambda k: k), 1
    # entries one vector costs in the key buffer: a polygon's faces, otherwise
    # its two coordinates, times the entries of one key
    width = (len(body.vertices) if isinstance(body, Polygon2D) else 2) * unit

    def keyed(vecs, weights=None):
        """(key, weight) rows of the distinct keys of vecs, the keys computed
        in blocks sized by their buffer."""
        return np.column_stack(_distinct(map_blocks(fn, vecs, width), weights))

    if lattice:
        turn = None
        if S.angle is not None:
            c, s = math.cos(S.angle), math.sin(S.angle)
            turn = np.array([[c, s], [-s, c]])  # row-vector rotation

        # small dense int64 keys are counted, the others sorted per block
        counted = top is not None and top < _HISTOGRAM_CAP

        def block(rows):
            v, weights = _difference_rows(S.q, rows)
            if counted:
                return fn(v), weights
            if not exact:
                v = v.astype(float)
                if turn is not None:
                    v = v @ turn
            return keyed(v, weights)

        # blocks sized by the key buffer, so that each is one key block
        found = map_blocks(block, range(n_vecs), width, threads,
                           _histogram(top + 1) if counted else _fold_distinct)
    else:
        def block(first):
            a, b = first.start, first.stop
            rows = P[a:b, None, :] - P[None, a + 1:, :]  # j = a + 1 + jj
            ii, jj = np.indices(rows.shape[:2], sparse=True)
            return keyed(rows[jj >= ii])

        # one block of first indices per piece, counted in pairs and their keys
        found = map_blocks(block, range(len(P) - 1), len(P) * unit, threads, _fold_distinct)

    # float keys carry their weights as float64, exact below 2^53; equal
    # keys merged early leave this pass as it would be on all parts
    keys, mult = _distinct(found[:, 0], found[:, 1], 0.0 if exact else _DEDUP_RTOL)
    return DistanceSet(render(keys), mult.astype(np.int64), exact)


def fit_window(q_values) -> np.ndarray:
    """Mask of the scan points the growth fit uses: the largest three octaves.

    Raises InsufficientDataError unless the sorted q values span at
    least three dyadic octaves with at least two points in the window.
    """
    qs = np.asarray(q_values)
    got = f", got {qs[0]}..{qs[-1]}" if len(qs) else ""
    if len(qs) < 2 or math.log2(qs[-1] / qs[0]) < 3.0 - 1e-9:
        raise InsufficientDataError(f"q values must span at least 3 dyadic octaves{got}")
    window = qs >= qs[-1] / 8 * (1 - 1e-9)
    if window.sum() < 2:
        raise InsufficientDataError(f"need at least 2 scan points in the largest 3 octaves{got}")
    return window


def conversion_bound(alpha: float) -> float:
    """The growth exponent 2/alpha that the conversion argument predicts."""
    if not 0 < alpha < math.inf:
        raise ValidationError(f"alpha must be positive and finite, got {alpha!r}")
    return 2 / alpha


def growth_fit(q_values: Sequence[int], counts: Sequence[int], *,
               alpha: Optional[float] = None, slack: float = 0.1) -> GrowthReport:
    """Power-law fit of distinct-distance counts already computed per q.

    q_values must be strictly increasing.  The exponent beta comes from
    a log-log least-squares fit over the largest three octaves of q
    (small q carries boundary bias).  With alpha supplied,
    verdict = (beta >= 2/alpha - slack).
    """
    qs = np.asarray(q_values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(qs) != len(counts) or np.any(np.diff(qs) <= 0):
        raise ValidationError("need one count per q, with q strictly increasing")
    window = fit_window(qs)
    empty = np.flatnonzero(window & (counts < 1))
    if empty.size:
        raise InsufficientDataError(f"the fit window needs positive counts; q = "
                                    f"{qs[empty[0]]} counts {counts[empty[0]]}")
    beta, intercept, _ = _line_fit(map(math.log, qs[window].tolist()),
                                   map(math.log, counts[window].tolist()))
    bound = verdict = None
    if alpha is not None:
        bound = conversion_bound(alpha)
        verdict = bool(beta >= bound - slack)
    return GrowthReport(qs, counts, beta, math.exp(intercept), bound, verdict,
                        int(window.sum()))


def growth_scan(family: Callable[[int], PointSet], body: ConvexBody,
                q_list: Sequence[int], *, alpha: Optional[float] = None,
                slack: float = 0.1, mode: str = "float_tol",
                threads: int = 1) -> GrowthReport:
    """Distinct-distance counts of family(q) for each distinct q, fitted by
    growth_fit, with each q's min_gap from the same distance set."""
    qs = sorted(set(int(q) for q in q_list))
    fit_window(qs)  # fail before counting anything
    if alpha is not None:
        conversion_bound(alpha)
    counts, gaps = [], []
    for q in qs:
        S = family(q)
        ds = distance_set(S, body, mode, threads=threads)
        counts.append(ds.count)
        gaps.append(ds.min_gap)
    report = growth_fit(qs, counts, alpha=alpha, slack=slack)
    report.min_gaps = np.array(gaps, dtype=np.float64)
    return report


def polygonality_probe(report: GrowthReport) -> str:
    """Classify a growth report: near-linear counts look polygonal.

    Thresholds straddle the 3/2 dividing exponent with desk-scale
    slack: beta < 1.25 reads polygon_like, beta > 1.4 curved_like.
    """
    fit_window(report.q_values)
    if report.beta < 1.25:
        return "polygon_like"
    if report.beta > 1.4:
        return "curved_like"
    return "inconclusive"
