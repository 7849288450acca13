"""Fourier transforms of convex bodies and decay-rate diagnostics.

Two transforms are computed with the convention
FT f (xi) = integral f(x) exp(-2 pi i x . xi) dx:

* ``surface_ft``: the transform of the boundary arc-length measure;
* ``body_ft``: the transform of the indicator function of the body.

The transforms are planar only.  Polygons have exact per-edge closed
forms, and l^2 balls (ellipses) Bessel forms: J1 for the body, J0 for the
surface of a round disk.  The other smooth boundaries (l^p balls with
p != 2, 1 < p < inf, and surfaces of stretched ellipses) take composite
Gauss-Legendre arc-length quadrature with a node count proportional to
|xi|, so the phase advances a bounded amount per panel.  Against a 16x
finer rule at |xi| in {8, 45, 300} the error, relative to the largest
|value| on the circle, is at most 4e-12 on ellipses and l^3/l^4 balls
(the l^4 body transform at |xi| = 8; 3e-13 from |xi| = 45 on) and
2.3e-6, 2.8e-7 and 4.3e-8 on the l^1.5 ball, whose boundary curvature is
infinite where it crosses the axes.  The indicator transform is
reduced to the boundary through the divergence identity

    body_ft(xi) = -1/(2 pi i |xi|^2) * surface-integral of (xi . n) e(-x.xi),

which avoids any area mesh.  Every planar body here is origin-symmetric,
so both transforms are real: the edges or nodes of half the boundary, each
with one cosine or sine, give the full sum.

On top of the transforms the module provides spherical L^1/L^2 averages on
frequency circles, power-law fits with an optional logarithmic correction,
per-window envelope extraction for oscillatory decay data, and two bound
reports: the chord bound |body_ft(t w)| <= (C/t) * (sum of the two chords at
depth 1/(2t)) and the dilated-annulus bound with its divergence diagnosis
for flat-sided bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bodies as _bodies
from ._blocks import _line_fit, distinct, map_blocks
from .bodies import ConvexBody, LpBall, Polygon2D
from .errors import BudgetError, CapabilityError, InsufficientDataError, ValidationError

# boundary rule: one 16-node panel per unit of |xi| * diam(K), i.e. a node
# budget of max(64, 16 |xi| diam).  The boundary sees at most |xi| * perimeter
# <= pi |xi| diam oscillations, so this keeps >= 16/pi ~ 5 nodes per
# oscillation and Gauss-Legendre stays in its spectral regime (doubling the
# panel count moves values by ~1e-12; asserted in the tests).
_PANELS_PER_UNIT = 1.0
_NODES_PER_PANEL = 16
# angular rule: half-circle nodes per unit of R * diam(K).  For a symmetric
# body the integrand has period pi, so N nodes on [0, pi) give the identical
# value to 2N uniform nodes on [0, 2 pi).  p = 1 averages take 16 per unit
# (the 32-per-unit full-circle budget): |transform| has kinks at the zeros,
# and the rule converges only algebraically.  p = 2 averages take a quarter
# of that: the angular modes of |transform|^2 end near z = 2 pi R diam, the
# N-node rule is exact below 2N, and 4 per unit puts 2N 27% past z (about
# 9 z^(1/3) modes where 4 per unit first passes the 128 floor, and J_n(z)
# falls superexponentially past z + c z^(1/3)).  It agrees with 64 per unit
# to 3e-14 for R <= 128; 3 per unit aliases (up to 6e-2 on the square).
_ANGULAR_PER_UNIT = 16.0
_MIN_ANGULAR = 128
# Hard caps, checked before anything is allocated: on the transform
# evaluations of the chord and annulus bound scans, on the angular nodes one
# spherical average evaluates and on the boundary nodes of one panel bucket
# of the quadrature transform (the last two 64 times the most any bundled run asks).
_SCAN_CAP = 1 << 20
_ANGULAR_CAP = 1 << 20
_PANEL_NODE_CAP = 1 << 19
_MIN_OCTAVES = 3.0  # the least span of decay_fit's samples, in octaves
_DIVERGENCE_SLOPE = 0.25  # log-log slope in |xi| past which the annulus bound diverges


def _planar_rows(xi) -> np.ndarray:
    """xi as finite planar frequency rows (k, 2); a vector is one row."""
    rows = np.atleast_2d(np.asarray(xi, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValidationError(f"xi must be planar (two columns), got {rows.shape[-1]}")
    if not np.all(np.isfinite(rows)):
        raise ValidationError("frequencies xi must be finite")
    return rows


def surface_ft(body: ConvexBody, xi):
    """Transform of the boundary arc-length measure at xi (rows or vector)."""
    out = _transform(body, xi, kind="surface")
    return out[0] if np.ndim(xi) == 1 else out


def body_ft(body: ConvexBody, xi):
    """Transform of the indicator of the body; body_ft(0) is the volume."""
    out = _transform(body, xi, kind="body")
    return out[0] if np.ndim(xi) == 1 else out


# ---------------------------------------------------------------------------
# transform dispatch

def _transform(body: ConvexBody, xi, kind: str, threads: int = 1) -> np.ndarray:
    if kind not in ("surface", "body"):
        raise ValidationError("kind must be 'surface' or 'body'")
    rows = _planar_rows(xi)
    poly = body.as_polygon()
    if poly is not None:
        return _polygon_ft(poly, rows, kind, threads)
    # l^1 and l^inf balls are polygons, so an LpBall here has 1 < p < inf
    if not isinstance(body, LpBall):
        raise CapabilityError("no planar transform for %s" % type(body).__name__)
    # arc length does not push forward under the linear map, so only round
    # disks have a closed surface form
    if body.p == 2.0 and (kind == "body" or np.ptp(body.semi_axes) == 0.0):
        return _ellipsoid_ft_closed(body, rows, kind)
    return _smooth_ft(body, rows, kind, threads)


def _polygon_ft(poly: Polygon2D, rows: np.ndarray, kind: str,
                threads: int = 1) -> np.ndarray:
    """Exact per-edge formula: an edge from A to B of length L contributes
    L * sinc((B-A).xi) * e(-(A+B)/2 . xi) to the arc-length transform.

    Edge k + n/2 is edge k negated, so their terms are conjugate and the
    first n/2 edges give the real half sum.  Polygon2D accepts antipodes
    within 1e-9 * scale; the half sum is the transform of the polygon whose
    second half is the exact negation of its first."""
    V = poly.vertices
    h = len(V) // 2
    D = (np.roll(V, -1, axis=0) - V)[:h]
    return _half_sum(V[:h] + 0.5 * D, np.hypot(D[:, 0], D[:, 1]),
                     poly._face_n[:h], rows, kind, poly.volume(), threads, edges=D)


def _smooth_ft(body: ConvexBody, rows: np.ndarray, kind: str,
               threads: int = 1) -> np.ndarray:
    """Quadrature transform, each |xi| on the panel bucket (``_panel_buckets``)
    of the count >= 4 that covers its phase.  A bucket is a multiple of 4,
    so node k + Q/2 of its rule is the antipode of node k, with its weight
    and the opposite normal, and the first half of the rule feeds the half
    sum."""
    diam = body.diameter()
    mags = np.hypot(rows[:, 0], rows[:, 1])
    buckets = _panel_buckets(np.maximum(4, np.ceil(_PANELS_PER_UNIT * mags * diam)))
    if buckets.size and buckets.max() * _NODES_PER_PANEL > _PANEL_NODE_CAP:
        raise BudgetError(f"|xi| = {mags.max():g} needs a panel bucket past the cap of "
                          f"{_PANEL_NODE_CAP} boundary nodes")
    out = np.empty(rows.shape[0], dtype=complex)
    for p in distinct(buckets):
        idx = np.nonzero(buckets == p)[0]
        x, w, n = _bodies.boundary_quadrature(body, int(p))
        h = x.shape[0] // 2
        out[idx] = _half_sum(x[:h], w[:h], n[:h], rows[idx], kind, body.volume(),
                             threads)
    return out


def _panel_buckets(need: np.ndarray) -> np.ndarray:
    """Panel counts need >= 4 rounded up to a multiple of 2^max(2, floor(log2
    need) - 2), as floats: at most four buckets per octave, each a multiple
    of 4 and, from need = 16 on, less than 1.25 need.  A bucket passes 2^15
    exactly when need does, so a cap of 2^15 panels reads the same either way."""
    step = np.ldexp(1.0, np.maximum(2, np.frexp(need)[1] - 3))
    return np.ceil(need / step) * step


def _half_sum(x, w, n, rows, kind, volume, threads=1, edges=None) -> np.ndarray:
    """Transform of a symmetric boundary from the nodes x, weights w and
    normals n of its first half, each node's term times sinc(D.xi) when
    ``edges`` gives its edge vector D.  The surface value is the sum of
    2 w cos(2 pi x.xi); the body value, by the divergence identity, is the
    sum of 2 w (n.xi) sin(2 pi x.xi) over 2 pi |xi|^2, the volume at 0.
    The imaginary parts are exactly 0."""
    x2pi, w2 = 2.0 * math.pi * x, 2.0 * w
    wn = w2[:, None] * n
    trig = np.cos if kind == "surface" else np.sin

    def block(xi):
        if edges is None:
            P = x2pi @ xi.T
            trig(P, out=P)
        else:
            # np.sinc(edges @ xi.T) times the trig term in two buffers: the
            # temporaries of np.sinc cost more in page faults than in flops
            S = edges @ xi.T
            S[S == 0] = 1.0e-20
            S *= math.pi
            P = np.sin(S)
            P /= S
            P *= trig(np.matmul(x2pi, xi.T, out=S), out=S)
        return w2 @ P if kind == "surface" else ((wn.T @ P) * xi.T).sum(axis=0)

    out = map_blocks(block, rows, len(x), threads).astype(complex)
    if kind == "body":
        r2 = np.einsum("ij,ij->i", rows, rows)
        zero = r2 < 1e-24
        out[~zero] /= 2.0 * math.pi * r2[~zero]
        out[zero] = volume
    return out


def _ellipsoid_ft_closed(body: LpBall, rows: np.ndarray, kind: str) -> np.ndarray:
    """a b J1(2 pi |(a, b) * xi|) / |(a, b) * xi|, or 2 pi r J0(2 pi r |xi|)."""
    from scipy.special import jv

    a = body.semi_axes
    out = np.empty(rows.shape[0], dtype=complex)
    if kind == "body":
        g = np.linalg.norm(rows * a, axis=1)
        zero = g < 1e-12
        out[~zero] = float(np.prod(a)) * jv(1.0, 2.0 * math.pi * g[~zero]) / g[~zero]
        out[zero] = body.volume()
        return out
    r = a[0]
    mags = np.linalg.norm(rows, axis=1)
    zero = mags < 1e-12
    out[~zero] = 2.0 * math.pi * r * jv(0.0, 2.0 * math.pi * r * mags[~zero])
    out[zero] = 2.0 * math.pi * r  # the circumference
    return out


# ---------------------------------------------------------------------------
# spherical averages

def spherical_average(body: ConvexBody, R: float, kind: str = "body",
                      p: int = 2, n_nodes: Optional[int] = None,
                      threads: int = 1) -> float:
    """L^p average of |transform| over the frequency circle of radius R.

    Rectangle rule over a half circle (the integrand has period pi for a
    symmetric body); the default node count N is at least 128 and grows
    linearly with R * diam(K), at 4 nodes per unit for p = 2 and 16 for
    p = 1.  For p = 2 the integrand |transform|^2 is smooth and
    band-limited: its angular modes end near z = 2 pi R diam(K) and the
    N-node rule is exact below 2N, so 4 per unit leaves 2N 27% past z, and
    the rule aliases only below about pi nodes per unit (3 per unit is off
    by up to 6e-2 on the square).  Against a rule of 64 nodes per unit the
    value agrees to 7.5e-15 relative on the l^4, l^1.5 and stretched l^4
    balls, the 1:0.5 ellipse and the disk, and to 2.8e-14 on the square,
    diamond, hexagons and 256-gon (R in 8..128).  At R 300..1000 polygons
    agree to 2e-12 (8 per unit: 6.6e-13); that difference does not fall
    from 4 to 6 per unit, so it is rounding in the phases, not aliasing.
    For p = 1 that claim does not hold: |transform| has kinks at the
    transform's zeros, so the rule loses its spectral accuracy, and it keeps
    four times the p = 2 density.  On the square the p = 1 average is off by a
    relative 1e-4 to 2e-3 at the default count, and the error falls only
    algebraically, and unevenly, as nodes are added.

    Only one symmetry cell of the N-node rule is evaluated.  For a body
    with ``symmetry()`` (k, mirror) the integrand has period 2 pi / k, hence
    period pi / g with g = gcd(k/2, N), a shift of M = N / g nodes: the mean
    over all N nodes is the mean over the first M.  With the mirror, node
    M - j repeats node j, so nodes 0 .. M/2 are evaluated and every node
    other than 0 and M/2 counts twice.  The value is the N-node value up to
    summation rounding; with g = 1 and no mirror it is the N-node value.
    The default N is rounded up to a multiple of k/2, so g = k/2 and one
    cell holds N / (k/2) nodes at the rule's nominal density; bodies with
    k = 2 keep the unrounded count.  An explicit ``n_nodes`` is used as
    given, with the gcd rule above: when g < k/2 the rotated copies of the
    nodes interleave and sample the cell (k/2)/g times as densely.  Against
    the rounded default that moves p = 2 values by about 1e-12 at most,
    but p = 1 values by up to 2e-3 relative (the square at R = 8).
    A non-finite R is a ValidationError, and a rule that would evaluate more
    than ``_ANGULAR_CAP`` nodes a BudgetError, raised before any is built.
    """
    if p not in (1, 2):
        raise ValidationError("p must be 1 or 2")
    if not 0 <= R < math.inf:
        raise ValidationError(f"R must be finite and nonnegative, got {R!r}")
    k, mirror = body.symmetry()
    if n_nodes is None:
        # half-circle count: at least the max(256, 32 R diam) full-circle
        # rule for p = 1, max(256, 8 R diam) for p = 2, rounded up to whole
        # symmetry cells
        per_unit = _ANGULAR_PER_UNIT if p == 1 else _ANGULAR_PER_UNIT / 4
        n_nodes = max(_MIN_ANGULAR, int(math.ceil(per_unit * R * body.diameter())))
        n_nodes = -(-n_nodes // (k // 2)) * (k // 2)
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    M = n_nodes // math.gcd(k // 2, n_nodes)
    evaluated = M // 2 + 1 if mirror else M
    if evaluated > _ANGULAR_CAP:
        raise BudgetError(f"R = {R:g} asks for {evaluated} angular nodes, past the cap "
                          f"of {_ANGULAR_CAP}")
    th = math.pi * np.arange(evaluated) / n_nodes
    xi = R * np.stack([np.cos(th), np.sin(th)], axis=1)
    vals = np.abs(_transform(body, xi, kind, threads))
    if p == 2:
        vals = vals * vals
    if mirror:
        w = np.full(th.size, 2.0)
        w[0] = 1.0
        if M % 2 == 0:
            w[-1] = 1.0
        mean = math.fsum((w * vals).tolist()) / M
    else:
        mean = float(vals.mean())
    return mean if p == 1 else math.sqrt(mean)


# ---------------------------------------------------------------------------
# decay fitting

@dataclass
class DecayProfile:
    """Least-squares power law v ~ C (log R)^k R^(-gamma) in log-log space."""

    gamma: float
    amplitude: float
    residual: float
    n_used: int
    n_dropped: int
    log_power: int
    R: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def predict(self, R) -> np.ndarray:
        R = np.asarray(R, dtype=float)
        corr = np.log(R) ** self.log_power if self.log_power else 1.0
        return self.amplitude * corr * R ** (-self.gamma)


def decay_fit(R_values, values, log_power: int = 0,
              min_samples: int = 8) -> DecayProfile:
    """Fit a decay exponent; nonpositive values are dropped, not fatal.

    With ``log_power`` = k the model is C (log R)^k R^(-gamma), the correction
    needed by flat-sided averages; the fit stays linear because k is fixed.
    The model drops lower terms of the same order: for data following
    v = (a log R + b) / R, as flat-sided L^1 averages do, the fitted slope is
    about 1 + (b/a) / (L (L + b/a)), where L is the mean of log R over the
    samples.  The bias is positive whenever b > 0 and vanishes only like
    1/L^2, so it is 0.11 on R in [8, 512] when b/a is 3.6.
    Raises InsufficientDataError when fewer than ``min_samples`` positive
    samples remain or they span fewer than ``_MIN_OCTAVES`` octaves.
    """
    R = np.asarray(R_values, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if R.shape != v.shape:
        raise ValidationError("R and value arrays must have matching shapes")
    keep = np.isfinite(v) & (v > 0) & np.isfinite(R) & (R > 0)
    if log_power:
        keep &= R > 1.0
    n_dropped = int((~keep).sum())
    R, v = R[keep], v[keep]
    order = np.argsort(R)
    R, v = R[order], v[order]
    if R.size < min_samples:
        raise InsufficientDataError(
            "decay fit needs >= %d positive samples, have %d"
            % (min_samples, R.size))
    if R.size and math.log2(R[-1] / R[0]) < _MIN_OCTAVES - 1e-9:
        raise InsufficientDataError(
            "decay fit needs samples spanning >= %g octaves, have %.3g"
            % (_MIN_OCTAVES, math.log2(R[-1] / R[0])))
    lg_R = [math.log(r) for r in R.tolist()]
    y = [math.log(a) for a in v.tolist()]
    if log_power:
        y = [a - log_power * math.log(b) for a, b in zip(y, lg_R)]
    slope, intercept, resid = _line_fit(lg_R, y)
    return DecayProfile(gamma=-slope, amplitude=math.exp(intercept),
                        residual=resid, n_used=int(R.size), n_dropped=n_dropped,
                        log_power=log_power, R=R, values=v)


def _windows(R_values, values, windows_per_octave: int):
    """R and value arrays with the index arrays of their geometric windows,
    ``windows_per_octave`` per factor of 2 above min R, in increasing order."""
    R = np.asarray(R_values, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if R.size != v.size or R.size == 0:
        raise ValidationError("need matching nonempty R and value arrays")
    if not np.all(np.isfinite(R) & (R > 0)):
        raise ValidationError("R values must be positive and finite")
    if windows_per_octave < 1:
        raise ValidationError("windows_per_octave must be >= 1")
    k = np.floor(windows_per_octave * np.log2(R / R.min()) * (1 - 1e-12)).astype(int)
    return R, v, [np.nonzero(k == kk)[0] for kk in distinct(k)]


def octave_envelope(R_values, values, windows_per_octave: int = 2):
    """Per-window maxima of an oscillatory decay curve.

    Splits the R range into geometric windows (``windows_per_octave`` per
    factor of 2) and keeps the sample of largest value in each, which tracks
    the upper envelope and is immune to zeros of the oscillation landing on
    the grid.  Returns (R_env, v_env).
    """
    R, v, windows = _windows(R_values, values, windows_per_octave)
    best = [idx[np.argmax(v[idx])] for idx in windows]
    return R[best], v[best]


def window_aggregate(R_values, values, windows_per_octave: int = 2,
                     agg: str = "rms"):
    """Geometric-window aggregation of scan samples before fitting.

    Collapses each window (``windows_per_octave`` per factor of 2) to a
    single point at the geometric-mean radius.  'rms' is the right
    reduction for oscillatory magnitudes: it tracks the local L^2 level
    instead of whichever phase the grid happened to sample.  Returns
    (R_agg, v_agg).
    """
    R, v, windows = _windows(R_values, values, windows_per_octave)
    reduce = {"rms": lambda a: np.sqrt(np.mean(a ** 2)), "mean": np.mean,
              "max": np.max}.get(agg)
    if reduce is None:
        raise ValidationError("agg must be rms, mean, or max")
    return (np.array([math.exp(math.fsum(map(math.log, R[idx].tolist())) / idx.size)
                      for idx in windows]),
            np.array([float(reduce(v[idx])) for idx in windows]))


# ---------------------------------------------------------------------------
# bound reports

@dataclass
class ChordBoundReport:
    """Ratios |body_ft(t w)| * t / (2 l(theta, 1/(2t))) over a (t, theta) grid.

    For a symmetric body the two opposite chords at equal depth coincide, so
    the comparison chord sum is 2 l.  ``octave_max`` holds the largest ratio
    per dyadic octave of t; a bounded constant makes these flat across
    octaves, while spread beyond a small factor flags scale drift.
    """

    t_values: np.ndarray
    thetas: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    octave_edges: np.ndarray
    octave_max: np.ndarray
    n_skipped: int

    @property
    def octave_spread(self) -> float:
        med = float(np.median(self.octave_max))
        return float(self.octave_max.max() / med) if med > 0 else math.inf


def chord_bound_report(body: ConvexBody, t_values, n_theta: int = 64) -> ChordBoundReport:
    t = np.sort(np.asarray(t_values, dtype=float).ravel())
    if not np.all((t > 0) & np.isfinite(t)):
        raise ValidationError("t values must be positive and finite")
    if n_theta < 1:
        raise ValidationError(f"n_theta must be >= 1, got {n_theta}")
    if t.size * n_theta > _SCAN_CAP:
        raise BudgetError(f"{t.size} t values x {n_theta} directions exceeds the cap "
                          f"of {_SCAN_CAP}")
    # chord depth 1/(2t), kept inside the body; one transform for every pair
    thetas, chords, scanned = _bodies._chord_grid(body, n_theta, 1.0 / (2.0 * t), 0.45)
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    i, j = np.nonzero(scanned)
    ratios = np.full(scanned.shape, np.nan)
    ratios[i, j] = (np.abs(_transform(body, t[i, None] * omegas[j], "body")) * t[i]
                    / (2.0 * chords[i, j]))
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        raise InsufficientDataError("no valid (t, theta) pair in the scan")
    # t is sorted, so each octave is a run of rows; fmax skips the NaNs
    octs = np.floor(np.log2(t)).astype(int)
    first = np.flatnonzero(np.diff(octs, prepend=octs[0] - 1))
    omax = np.fmax.reduceat(np.fmax.reduce(ratios, axis=1), first)
    kept = ~np.isnan(omax)
    return ChordBoundReport(t, thetas, ratios, float(finite.max()),
                            np.ldexp(1.0, octs[first][kept]), omax[kept],
                            int(scanned.size - i.size))


@dataclass
class AnnulusBoundReport:
    """Observed constants for |A(xi)| <= C sqrt(R/|xi|) min(1/|xi|, delta), where
    A(xi) = F(R + delta) - F(R), F(s) = s^2 body_ft(s xi), is the transform of
    the annulus (R + delta)K minus RK.

    ``c_hat`` is the largest observed ratio against the comparison quantity;
    ``c_by_xi`` tracks it per frequency magnitude, and ``growth_slope`` fits
    log c against log |xi|.  A slope near zero means the constant is genuine;
    sustained growth (a flat-sided body reaches slope 1/2 along its face
    normals) marks the bound as divergent.
    """

    rows: list
    c_hat: float
    xi_mags: np.ndarray
    c_by_xi: np.ndarray
    growth_slope: float
    divergent: bool


def annulus_bound_report(body: ConvexBody, R_values, xi_mags, deltas,
                         n_theta: int = 16) -> AnnulusBoundReport:
    R_values = np.asarray(R_values, dtype=float).ravel()
    xi_mags = np.sort(np.asarray(xi_mags, dtype=float).ravel())
    deltas = np.asarray(deltas, dtype=float).ravel()
    if not all(g.size and np.all((g > 0) & np.isfinite(g)) for g in (R_values, xi_mags, deltas)):
        raise ValidationError("grids must be nonempty, positive and finite")
    if np.any(np.diff(xi_mags) == 0):
        raise ValidationError(f"|xi| values must be distinct, got {xi_mags.tolist()}")
    if n_theta < 1:
        raise ValidationError(f"n_theta must be >= 1, got {n_theta}")
    n = R_values.size * deltas.size * xi_mags.size * n_theta
    if n > _SCAN_CAP:
        raise BudgetError(f"{n} annulus ratios exceeds the cap of {_SCAN_CAP}")
    bad = np.argwhere(deltas > R_values[:, None] / 10.0)
    if bad.size:
        R, delta = R_values[bad[0, 0]], deltas[bad[0, 1]]
        raise ValidationError(f"annulus delta must satisfy 0 < delta <= R/10, "
                              f"got R={R:g} delta={delta:g}")
    th = math.pi * np.arange(n_theta) / n_theta
    omegas = np.stack([np.cos(th), np.sin(th)], axis=1)
    # scales s1 = R and s2 = R + delta per (R, delta), and one transform per
    # distinct radius s |xi|; the transforms are real
    s = np.stack(np.broadcast_arrays(R_values[:, None], R_values[:, None] + deltas))
    radii = s[..., None] * xi_mags
    uniq = distinct(radii)
    ft = _transform(body, (uniq[:, None, None] * omegas).reshape(-1, 2), "body").real
    F = ft.reshape(uniq.size, n_theta)[np.searchsorted(uniq, radii)]
    # s ** 2 in Python floats (libm pow), the rounding the bundled outputs carry
    sq = np.array([a ** 2 for a in s.ravel().tolist()]).reshape(s.shape + (1, 1))
    vals = np.abs(sq[1] * F[1] - sq[0] * F[0])
    rhs = np.sqrt(R_values[:, None, None] / xi_mags) * np.minimum(1.0 / xi_mags,
                                                                  deltas[:, None])
    ratio = vals / rhs[..., None]
    j = np.argmax(ratio, axis=-1)
    peak = ratio.max(axis=-1)
    Rg, dg, qg = np.meshgrid(R_values, deltas, xi_mags, indexing="ij")
    cols = (Rg, qg, dg, th[j], np.take_along_axis(vals, j[..., None], -1)[..., 0], rhs, peak)
    rows = list(zip(*(c.ravel().tolist() for c in cols)))
    c_by_xi = peak.max(axis=(0, 1))
    if len(xi_mags) >= 2:
        slope = _line_fit(map(math.log, xi_mags.tolist()), map(math.log, c_by_xi.tolist()))[0]
    else:
        slope = 0.0
    return AnnulusBoundReport(rows, float(c_by_xi.max()), xi_mags, c_by_xi,
                              slope, slope > _DIVERGENCE_SLOPE)
