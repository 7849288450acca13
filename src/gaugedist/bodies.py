"""Origin-symmetric convex bodies and their basic geometric queries.

A body K is described by its gauge ||x||_K = inf {t > 0 : x in tK}, a norm
whose unit ball is K.  Two concrete families are provided:

* Polygon2D   -- convex symmetric polygon given by vertices, exact when they
                 are integers or Fractions (their numerators over one
                 denominator), gauge/support evaluated from face functionals;
* LpBall      -- axis-scaled l^p ball, p in [1, inf]; Ellipsoid names its
                 p = 2 member, the axis-aligned ellipse;

and ``radial_polygon`` builds the Polygon2D whose vertices are radial
samples at equally spaced angles.

Every body is planar: the constructors take two semi-axes or (n, 2)
vertices, gauge and support take points with a last axis of 2, and each
raises ValidationError otherwise.

On top of the gauge the module computes support values, chord lengths at a
prescribed depth below a support line, and a curvature-condition report that
classifies boundaries as uniformly curved versus flat-sided by the growth of
chord(eps)/sqrt(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BudgetError, CapabilityError, GeometryError, ValidationError

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Chord solves use golden-section descent to the line's gauge minimum followed
# by bisection to the two boundary crossings; iteration counts put the
# parameter error near 1e-15 * circumradius.
_GOLDEN_ITERS = 96
_BISECT_ITERS = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Polygons of at most this many faces take their gauge of an (n, 2) array
# faces x rows, so that the max runs along the long axis: 1.5-2.7x faster
# than rows x faces for 10 down to 4 faces in blocks of 2^18 entries, with
# the same bits for every row count.  From 12 faces the gain shrinks, to
# nothing at 128, and the product rounds a few entries of some row counts
# (from 196 rows on) by an ulp otherwise.
_FACES_MAJOR = 10


def _as_xy(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape[-1:] != (2,):
        raise ValidationError(f"points must be planar (a last axis of 2), got shape {a.shape}")
    return a


def _finite_rows(a: np.ndarray, what: str) -> None:
    """ValidationError naming the first row of the (n, 2) array a that is not finite."""
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        raise ValidationError(f"{what} must be finite; row {bad[0]} is {a[bad[0]].tolist()}")


def _numerators(values):
    """(nums, den), integer numerators over the lcm of the denominators, for
    integers or Fractions (nested lists or arrays of them; a list that numpy
    does not read as integers is read element by element, so no integer is
    rounded to float64); else None.  nums has the input's shape: int64 when
    every numerator fits, else Python integers in an object array."""
    a = np.asarray(values)
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64), 1
    if a.dtype.kind == "u" or not isinstance(values, np.ndarray):
        # uint64, or a list numpy may have read as float64: Python numbers
        a = np.array(values, dtype=object)
    if a.dtype != object or not all(isinstance(v, (int, np.integer, Fraction)) for v in a.flat):
        return None
    # integers, numpy integers and Fractions all carry the two attributes
    fracs = [(int(v.numerator), int(v.denominator)) for v in a.flat]
    den = math.lcm(*(d for _, d in fracs))
    nums = [n * (den // d) for n, d in fracs]
    fits = all(-(1 << 63) <= v < 1 << 63 for v in nums)
    return np.array(nums, dtype=np.int64 if fits else object).reshape(a.shape), den


def _positive(x, what: str):
    """x once it is checked to be positive and finite (a NaN is neither)."""
    if not (x > 0 and x < math.inf):
        raise ValidationError(f"{what} must be positive and finite, got {x!r}")
    return x


def _semi_axes(semi_axes) -> np.ndarray:
    a = np.asarray(semi_axes, dtype=float).ravel()
    if a.size != 2:
        raise ValidationError(f"bodies are planar: two semi-axes expected, got {a.size}")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValidationError("semi_axes must be positive finite numbers")
    return a


class ConvexBody:
    """Common interface; concrete bodies implement gauge/support/volume."""

    dim = 2

    def gauge(self, x) -> np.ndarray:
        raise NotImplementedError

    def support(self, omega) -> np.ndarray:
        """sup_{y in K} y . omega, vectorized over leading axes of omega."""
        raise NotImplementedError

    def circumradius(self) -> float:
        raise NotImplementedError

    def inradius(self) -> float:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def scaled(self, s: float) -> "ConvexBody":
        raise NotImplementedError

    def diameter(self) -> float:
        # symmetric body: farthest pair is a pair of antipodal extreme points
        return 2.0 * self.circumradius()

    def as_polygon(self) -> Optional["Polygon2D"]:
        """Exact polygon view when the boundary is genuinely polygonal."""
        return None

    def symmetry(self) -> tuple:
        """(k, mirror): the body is invariant under rotation by 2*pi/k and,
        when ``mirror``, under the reflection (x, y) -> (x, -y).  The
        default is the central symmetry every body here has."""
        return 2, False

    def kind(self) -> str:
        return type(self).__name__

    def summary(self) -> dict:
        return {
            "kind": self.kind(),
            "dim": self.dim,
            "volume": self.volume(),
            "circumradius": self.circumradius(),
            "inradius": self.inradius(),
            "perimeter": perimeter(self),
        }


class Polygon2D(ConvexBody):
    """Convex polygon symmetric about the origin, vertices CCW.

    Gauge and support are exact up to float rounding: gauge is the max of the
    face functionals x.n_i / c_i, support the max of vertex dot products.
    Integer or Fraction vertices also keep an exact copy, integer numerators
    over one denominator, for exact chords and distance keys.
    """

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 4:
            raise ValidationError(
                "polygon needs an (n,2) vertex array with n >= 4, got shape %s"
                % (V.shape,))
        if V.shape[0] % 2 != 0:
            raise ValidationError("symmetric polygon needs an even vertex count")
        _finite_rows(V, "vertices")
        exact = _numerators(vertices)
        W = np.roll(V, -1, axis=0)
        area2 = float((V[:, 0] * W[:, 1] - V[:, 1] * W[:, 0]).sum())
        if area2 < 0:
            V = V[::-1].copy()
            if exact is not None:
                exact = (exact[0][::-1], exact[1])
            area2 = -area2
        if area2 <= 0:
            raise ValidationError("polygon is degenerate (zero area)")
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * np.roll(E, -1, axis=0)[:, 1] - E[:, 1] * np.roll(E, -1, axis=0)[:, 0]
        scale = float(np.abs(V).max())
        if np.any(cross < -1e-9 * scale * scale):
            raise ValidationError("polygon vertices are not convex")
        # central symmetry: every vertex must have its antipode in the set
        n = V.shape[0]
        half = n // 2
        tol = 1e-9 * max(scale, 1.0)
        anti = np.roll(V, -half, axis=0)
        if not np.allclose(anti, -V, rtol=0.0, atol=tol):
            raise ValidationError("polygon is not symmetric about the origin")
        if exact is not None and not np.array_equal(exact[0][half:], -exact[0][:half]):
            raise ValidationError("exact vertices are not exactly symmetric about the origin")
        self.vertices = V
        self._exact = exact
        # outward normals and offsets; origin must be strictly inside
        nx = E[:, 1]
        ny = -E[:, 0]
        norms = np.hypot(nx, ny)
        if np.any(norms == 0):
            raise ValidationError("polygon has a repeated vertex")
        self._face_n = np.stack([nx / norms, ny / norms], axis=1)
        self._face_c = np.einsum("ij,ij->i", self._face_n, V)
        if np.any(self._face_c <= 1e-12 * max(scale, 1.0)):
            raise ValidationError("origin is not strictly inside the polygon")
        self._area = 0.5 * area2

    @property
    def exact_vertices(self):
        """The vertices as Fraction pairs, or None for float vertices."""
        if self._exact is None:
            return None
        nums, den = self._exact
        return [(Fraction(x, den), Fraction(y, den)) for x, y in nums.tolist()]

    def gauge(self, x) -> np.ndarray:
        x = _as_xy(x)
        if x.ndim == 2 and len(self._face_c) <= _FACES_MAJOR:
            return np.max(self._face_n @ x.T / self._face_c[:, None], axis=0)
        return np.max(x @ self._face_n.T / self._face_c, axis=-1)

    def support(self, omega) -> np.ndarray:
        omega = _as_xy(omega)
        return np.max(omega @ self.vertices.T, axis=-1)

    def circumradius(self) -> float:
        return float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def inradius(self) -> float:
        return float(self._face_c.min())

    def volume(self) -> float:
        return self._area

    def perimeter(self) -> float:
        E = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.hypot(E[:, 0], E[:, 1]).sum())

    def scaled(self, s: float) -> "Polygon2D":
        _positive(s, "scale factor")
        if self._exact is not None and isinstance(s, (int, Fraction)):
            return Polygon2D([(a * s, b * s) for a, b in self.exact_vertices])
        return Polygon2D(self.vertices * float(s))

    def rotated(self, angle: float) -> "Polygon2D":
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        return Polygon2D(self.vertices @ R.T)

    def as_polygon(self) -> "Polygon2D":
        return self

    def symmetry(self) -> tuple:
        """(k, mirror) read from the vertices within 1e-12 * scale: k is the
        largest even divisor of n whose rotation by 2*pi/k is the roll by n/k,
        and the mirror maps the reversed vertex list onto one roll of itself.
        A polygon symmetric only within the 1e-9 acceptance tolerance keeps
        the default (2, False)."""
        V = self.vertices
        n = len(V)
        tol = 1e-12 * max(float(np.abs(V).max()), 1.0)

        def rolled_to(W, shift):
            return np.allclose(W, np.roll(V, -shift, axis=0), rtol=0.0, atol=tol)

        k = 2
        for cand in (c for c in range(n, 2, -2) if n % c == 0):
            c, s = math.cos(2.0 * math.pi / cand), math.sin(2.0 * math.pi / cand)
            if rolled_to(V @ np.array([[c, s], [-s, c]]), n // cand):
                k = cand
                break
        W = (V * [1.0, -1.0])[::-1]
        shift = int(np.argmin(((V - W[0]) ** 2).sum(axis=1)))
        return k, rolled_to(W, shift)


class LpBall(ConvexBody):
    """Axis-scaled l^p ball {||x / a||_p <= 1}, p in [1, inf]."""

    def __init__(self, p: float, semi_axes=(1.0, 1.0)):
        if not (p >= 1.0):
            raise ValidationError("p must satisfy p >= 1, got %r" % (p,))
        self.p = float(p)
        self.semi_axes = _semi_axes(semi_axes)

    def gauge(self, x) -> np.ndarray:
        return _lp_norm(_as_xy(x) / self.semi_axes, self.p)

    def support(self, omega) -> np.ndarray:
        # dual norm of the scaled direction
        p = self.p
        q = math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)
        return _lp_norm(_as_xy(omega) * self.semi_axes, q)

    def circumradius(self) -> float:
        # for p > 2 the farthest boundary point is the critical direction
        # u_i ~ a_i^(2/(p-2)), giving R = (sum a_i^(2p/(p-2)))^((p-2)/(2p));
        # for p <= 2 it is the longest semi-axis endpoint
        if self.p <= 2.0:
            return float(self.semi_axes.max())
        if math.isinf(self.p):
            return float(np.sqrt(np.sum(self.semi_axes ** 2)))
        return self._critical_radius()

    def inradius(self) -> float:
        # mirrored: for p < 2 the nearest boundary point is the same critical
        # direction (p=1 recovers the origin-to-facet distance), for p >= 2
        # it is the shortest semi-axis endpoint
        if self.p >= 2.0:
            return float(self.semi_axes.min())
        return self._critical_radius()

    def _critical_radius(self) -> float:
        e = 2.0 * self.p / (self.p - 2.0)
        return float(np.sum(self.semi_axes ** e) ** (1.0 / e))

    def volume(self) -> float:
        prod = float(np.prod(self.semi_axes))
        if math.isinf(self.p):
            return 4.0 * prod
        if self.p == 2.0:
            return math.pi * prod  # the Gamma form is an ulp off pi
        return (2.0 * math.gamma(1.0 + 1.0 / self.p)) ** 2 / math.gamma(1.0 + 2.0 / self.p) * prod

    def scaled(self, s: float) -> "LpBall":
        _positive(s, "scale factor")
        return LpBall(self.p, self.semi_axes * s)

    def symmetry(self) -> tuple:
        # the quarter turn swaps the axes; the reflection flips one sign
        return (4 if np.all(self.semi_axes == self.semi_axes[0]) else 2), True

    def as_polygon(self) -> Optional[Polygon2D]:
        a1, a2 = (Fraction(float(a)) for a in self.semi_axes)
        if math.isinf(self.p):
            return Polygon2D([(a1, a2), (-a1, a2), (-a1, -a2), (a1, -a2)])
        if self.p == 1.0:
            return Polygon2D([(a1, 0), (0, a2), (-a1, 0), (0, -a2)])
        return None


def _lp_norm(x: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of x along its last axis."""
    if math.isinf(p):
        return np.max(np.abs(x), axis=-1)
    if p == 1.0:
        return np.sum(np.abs(x), axis=-1)
    if p == 2.0:
        return np.sqrt(np.sum(x * x, axis=-1))
    return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)


class Ellipsoid(LpBall):
    """Axis-aligned ellipse {(x/a)^2 + (y/b)^2 <= 1}: the l^2 ball."""

    def __init__(self, semi_axes):
        super().__init__(2.0, semi_axes)


# ---------------------------------------------------------------------------
# constructors

# Hard cap on the vertex count of generated polygons, checked before their
# vertices are allocated.
_VERTEX_CAP = 1 << 16


def check_vertex_count(n: int) -> None:
    if n > _VERTEX_CAP:
        raise BudgetError(f"{n} vertices exceeds the cap of {_VERTEX_CAP}")


def disk(radius: float = 1.0) -> Ellipsoid:
    return Ellipsoid((radius, radius))


def ellipse(a: float, b: float) -> Ellipsoid:
    return Ellipsoid((a, b))


def square(half: float = 1.0) -> Polygon2D:
    h = Fraction(_positive(half, "half"))
    return Polygon2D([(h, h), (-h, h), (-h, -h), (h, -h)])


def diamond(half: float = 1.0) -> Polygon2D:
    h = Fraction(_positive(half, "half"))
    return Polygon2D([(h, 0), (0, h), (-h, 0), (0, -h)])


def regular_polygon(n_vertices: int, circumradius: float = 1.0,
                    phase: float = 0.0) -> Polygon2D:
    if n_vertices < 4 or n_vertices % 2 != 0:
        raise ValidationError("symmetric regular polygon needs even n >= 4")
    check_vertex_count(n_vertices)
    _positive(circumradius, "circumradius")
    if not math.isfinite(phase):
        raise ValidationError(f"phase must be finite, got {phase!r}")
    th = 2.0 * math.pi * np.arange(n_vertices) / n_vertices + phase
    V = circumradius * np.stack([np.cos(th), np.sin(th)], axis=1)
    return Polygon2D(V)


def radial_polygon(radii) -> Polygon2D:
    """The polygon with vertices at radii r_k and angles 2*pi*k/N.

    N must be even and >= 4, the radii positive, finite and repeated under
    the antipodal map, and the vertex polygon convex; each is validated.
    """
    r = np.asarray(radii, dtype=float).ravel()
    n = r.size
    if n < 4 or n % 2 != 0:
        raise ValidationError("radial profile needs an even count >= 4")
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise ValidationError("radii must be positive finite numbers")
    if not np.allclose(r, np.roll(r, n // 2), rtol=0, atol=1e-12 * r.max()):
        raise ValidationError("radii must repeat under the antipodal map "
                              "(r[k] == r[k + N/2])")
    th = 2.0 * math.pi * np.arange(n) / n
    try:
        return Polygon2D(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    except ValidationError as e:
        raise ValidationError("radial profile is not convex: %s" % e) from None


def random_symmetric_hexagon(rng: np.random.Generator) -> Polygon2D:
    """Seeded random convex hexagon with v_{k+3} = -v_k.

    Draw three angles in (0, pi) with a minimum gap and three radii in
    [0.6, 1.4]; resample until the vertex hexagon is convex.  Deterministic
    for a fixed generator state.
    """
    for _ in range(1000):
        th = np.sort(rng.uniform(0.0, math.pi, size=3))
        if th[1] - th[0] < 0.2 or th[2] - th[1] < 0.2 or th[0] + math.pi - th[2] < 0.2:
            continue
        r = rng.uniform(0.6, 1.4, size=3)
        half = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        V = np.concatenate([half, -half], axis=0)
        try:
            return Polygon2D(V)
        except ValidationError:
            continue
    raise ValidationError("failed to sample a convex symmetric hexagon")


# ---------------------------------------------------------------------------
# directional queries

# Gauss-Legendre panels of boundary_quadrature for a smooth body's perimeter
_PERIMETER_PANELS = 512


def perimeter(body: ConvexBody) -> float:
    poly = body.as_polygon()
    if poly is not None:
        return poly.perimeter()
    _, w, _ = boundary_quadrature(body, _PERIMETER_PANELS)
    return float(w.sum())


def boundary_quadrature(body: ConvexBody, n_panels: int):
    """Arc-length quadrature (points, weights, outward unit normals).

    Composite 16-node Gauss-Legendre panels over a smooth parametrization of
    the boundary; weights include the speed factor so sum(weights) converges
    to the perimeter spectrally fast.  Supports LpBall with 1 < p < inf,
    ellipses included; polygonal boundaries have exact formulas and are
    rejected here.
    """
    n_panels = max(4, int(n_panels))
    t_edges = np.linspace(0.0, 2.0 * math.pi, n_panels + 1)
    half = 0.5 * (t_edges[1] - t_edges[0])
    mids = 0.5 * (t_edges[:-1] + t_edges[1:])
    t = (mids[:, None] + half * _GL16_NODES[None, :]).ravel()
    base_w = np.broadcast_to(half * _GL16_WEIGHTS[None, :], (n_panels, 16)).ravel()
    x, dx = _boundary_param(body, t)
    speed = np.hypot(dx[:, 0], dx[:, 1])
    normals = np.stack([dx[:, 1], -dx[:, 0]], axis=1) / speed[:, None]
    return x, base_w * speed, normals


def _boundary_param(body: ConvexBody, t: np.ndarray):
    c, s = np.cos(t), np.sin(t)
    if isinstance(body, LpBall) and 1.0 < body.p < math.inf:
        p = body.p
        a1, a2 = body.semi_axes
        if p == 2.0:
            rho, drho = 1.0, 0.0  # the ellipse is (a1 cos t, a2 sin t) exactly
        else:
            f = np.abs(c) ** p + np.abs(s) ** p
            rho = f ** (-1.0 / p)
            drho = -rho ** (1.0 + p) * (np.abs(s) ** (p - 1.0) * np.sign(s) * c
                                        - np.abs(c) ** (p - 1.0) * np.sign(c) * s)
        x = np.stack([a1 * rho * c, a2 * rho * s], axis=1)
        dx = np.stack([a1 * (drho * c - rho * s), a2 * (drho * s + rho * c)], axis=1)
        return x, dx
    raise CapabilityError(
        "no smooth boundary parametrization for %s" % type(body).__name__)


def _chord_lengths_vec(body: ConvexBody, omegas: np.ndarray,
                       depths: np.ndarray) -> np.ndarray:
    """Chords for many (direction, depth) pairs; NaN where the line misses K."""
    poly = body.as_polygon()
    if poly is not None:
        heights = body.support(omegas) - depths
        out = np.empty(len(omegas))
        for i in range(len(omegas)):
            out[i] = _polygon_chord_float(poly.vertices, omegas[i], heights[i])
        return out
    heights = body.support(omegas) - depths
    perp = np.stack([-omegas[:, 1], omegas[:, 0]], axis=1)
    base = heights[:, None] * omegas
    R = body.circumradius() + 1.0

    def g(tv):
        return body.gauge(base + tv[:, None] * perp)

    lo = np.full(len(omegas), -R)
    hi = np.full(len(omegas), R)
    for _ in range(_GOLDEN_ITERS):
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        take = g(c) < g(d)
        hi = np.where(take, d, hi)
        lo = np.where(take, lo, c)
    t_star = 0.5 * (lo + hi)
    g_star = g(t_star)
    miss = g_star > 1.0
    t_right = _bisect_boundary(g, t_star, np.full_like(t_star, R))
    t_left = _bisect_boundary(g, t_star, np.full_like(t_star, -R))
    chord = t_right - t_left
    chord[miss] = np.nan
    return chord


def _bisect_boundary(g, t_in: np.ndarray, t_out: np.ndarray) -> np.ndarray:
    a, b = t_in.copy(), t_out.copy()
    for _ in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        inside = g(m) <= 1.0
        a = np.where(inside, m, a)
        b = np.where(inside, b, m)
    return 0.5 * (a + b)


def _polygon_chord_float(V: np.ndarray, omega: np.ndarray, h: float) -> float:
    fa = V @ omega - h
    fb = np.roll(fa, -1)
    t = V @ np.array([-omega[1], omega[0]])
    tb = np.roll(t, -1)
    ts = []
    on_a = fa == 0.0
    if np.any(on_a):
        ts.extend(t[on_a].tolist())
    # vertices exactly on the line are collected above (each is the A-end of
    # some edge), so transversal crossings need both ends strictly off it
    crossing = (fa != 0.0) & (fb != 0.0) & ((fa > 0) != (fb > 0))
    if np.any(crossing):
        lam = fa[crossing] / (fa[crossing] - fb[crossing])
        ts.extend((t[crossing] + lam * (tb[crossing] - t[crossing])).tolist())
    if not ts:
        return math.nan
    return max(ts) - min(ts)


def chord_length(body: ConvexBody, direction, depth: float) -> float:
    """Length of K intersected with {x . omega = S(omega) - depth}.

    ``direction`` may be an angle in radians or a unit vector.
    Raises GeometryError when the depth is not inside (0, width(direction)).
    """
    omega = _direction_vector(direction)
    depth = float(depth)
    if not (depth > 0.0) or not math.isfinite(depth):
        raise GeometryError("chord depth must be positive and finite")
    width = float(body.support(omega) + body.support(-omega))
    if depth >= width:
        raise GeometryError(
            "chord depth %g is not below the body width %g" % (depth, width))
    val = _chord_lengths_vec(body, omega[None, :], np.array([depth]))[0]
    if math.isnan(val):
        raise GeometryError("chord line misses the body (depth %g)" % depth)
    return float(val)


def chord_length_exact(body: ConvexBody, omega, depth) -> Fraction:
    """Exact rational chord for polygonal bodies with exact vertices.

    ``omega`` is a pair of rationals (need not be unit length; depth is then
    measured in the same scale as x . omega), ``depth`` a positive rational.
    """
    poly = body.as_polygon()
    if poly is None or poly.exact_vertices is None:
        raise CapabilityError("exact chords need a polygon with exact vertices")
    w = (Fraction(omega[0]), Fraction(omega[1]))
    if w == (0, 0):
        raise ValidationError("direction must be nonzero")
    depth = Fraction(depth)
    if depth <= 0:
        raise GeometryError("chord depth must be positive")
    V = poly.exact_vertices
    sup = max(v[0] * w[0] + v[1] * w[1] for v in V)
    h = sup - depth
    ts = []
    n = len(V)
    for i in range(n):
        A, B = V[i], V[(i + 1) % n]
        fa = A[0] * w[0] + A[1] * w[1] - h
        fb = B[0] * w[0] + B[1] * w[1] - h
        ta = -A[0] * w[1] + A[1] * w[0]
        tb = -B[0] * w[1] + B[1] * w[0]
        if fa == 0 and fb == 0:
            ts.extend([ta, tb])
        elif fa == 0:
            ts.append(ta)
        elif (fa > 0) != (fb > 0):
            lam = fa / (fa - fb)
            ts.append(ta + (tb - ta) * lam)
    if not ts:
        raise GeometryError("chord line misses the body (depth %s)" % depth)
    # t is measured against omega-perp of the *unnormalized* direction; divide
    # by |omega| to convert to arc length
    span = max(ts) - min(ts)
    wnorm2 = w[0] * w[0] + w[1] * w[1]
    root = _fraction_sqrt(wnorm2)
    if root is not None:
        return span / root
    raise CapabilityError(
        "direction norm sqrt(%s) is irrational; pass a rational-norm direction"
        % wnorm2)


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _direction_vector(direction) -> np.ndarray:
    v = np.asarray(direction, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"direction must be finite, got {v.tolist()}")
    if isinstance(direction, (int, float)):
        return np.array([math.cos(direction), math.sin(direction)])
    if v.shape != (2,):
        raise ValidationError("direction must be an angle or a 2-vector")
    n = math.hypot(v[0], v[1])
    if n == 0:
        raise ValidationError("direction must be nonzero")
    return v / n


# ---------------------------------------------------------------------------
# curvature condition

@dataclass
class CurvatureReport:
    """Outcome of the chord-growth scan l(theta, eps) <= c sqrt(eps).

    ``ratios`` holds l/sqrt(eps) per (direction, depth); ``c_sup`` is its
    maximum over the scan, attained at ``theta_argmax``.  ``flat_directions``
    lists angles whose ratio keeps growing as eps shrinks dyadically, the
    signature of a flat boundary piece (there the chord stops shrinking, so
    l/sqrt(eps) grows like eps^(-1/2)).
    """

    satisfied: bool
    c_sup: float
    theta_argmax: float
    flat_directions: list
    thetas: np.ndarray
    eps_grid: np.ndarray
    ratios: np.ndarray
    n_skipped: int


# Hard cap on the (direction, depth) grid of curvature_condition, checked
# before it is allocated.
_CURVATURE_CAP = 1 << 20
# curvature_condition's bound on sup l / sqrt(eps) and its growth run
_C_THRESHOLD, _RUN_LENGTH, _GROWTH_FACTOR = 100.0, 5, 2.0


def curvature_condition(body: ConvexBody, eps_grid=None, n_theta: int = 360) -> CurvatureReport:
    """Scan chord lengths over directions and dyadic depths.

    The condition holds when sup l / sqrt(eps) stays below ``_C_THRESHOLD``
    and no direction shows a sustained growth run: ``_RUN_LENGTH`` consecutive
    strictly increasing ratios with total growth >= ``_GROWTH_FACTOR`` as eps
    halves.  A genuinely flat side grows by sqrt(2) per halving, so a run
    of 5 accumulates a factor 4 and trips the detector, while a uniformly
    curved boundary has ratios converging to a constant.
    """
    if eps_grid is None:
        eps_grid = 2.0 ** -np.arange(4, 21)
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    if not np.all((eps_grid > 0) & np.isfinite(eps_grid)):
        raise ValidationError("eps grid must be positive and finite")
    if n_theta < 4:
        raise ValidationError("n_theta must be at least 4")
    if n_theta * eps_grid.size > _CURVATURE_CAP:
        raise BudgetError(f"{n_theta} directions x {eps_grid.size} depths exceeds the "
                          f"cap of {_CURVATURE_CAP}")
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    widths = body.support(omegas) + body.support(-omegas)

    T, E = n_theta, eps_grid.size
    om_all = np.repeat(omegas, E, axis=0)
    ep_all = np.tile(eps_grid, T)
    valid = ep_all < 0.9 * np.repeat(widths, E)
    chords = np.full(T * E, np.nan)
    if np.any(valid):
        chords[valid] = _chord_lengths_vec(body, om_all[valid], ep_all[valid])
    ratios = (chords / np.sqrt(ep_all)).reshape(T, E)
    n_skipped = int(np.isnan(ratios).sum())

    flat = []
    for i in range(T):
        row = ratios[i]
        ok = ~np.isnan(row)
        if _has_growth_run(row[ok]):
            flat.append(float(thetas[i]))
    finite = ratios[~np.isnan(ratios)]
    if finite.size == 0:
        raise GeometryError("no valid (direction, depth) pair in the scan")
    c_sup = float(finite.max())
    flat_idx = np.unravel_index(np.nanargmax(ratios), ratios.shape)
    theta_argmax = float(thetas[flat_idx[0]])
    satisfied = (c_sup <= _C_THRESHOLD) and not flat
    return CurvatureReport(satisfied, c_sup, theta_argmax, flat,
                           thetas, eps_grid, ratios, n_skipped)


def _has_growth_run(row: np.ndarray) -> bool:
    for start in range(row.size - _RUN_LENGTH + 1):
        seg = row[start:start + _RUN_LENGTH]
        if np.all(np.diff(seg) > 0) and seg[-1] >= _GROWTH_FACTOR * seg[0]:
            return True
    return False
