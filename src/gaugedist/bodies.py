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

from ._blocks import map_blocks
from .errors import BudgetError, CapabilityError, GeometryError, ValidationError

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Smooth-body chords bisect from the line's gauge minimum to its two boundary
# crossings; 64 halvings put the parameter error near 1e-15 * circumradius.
_BISECT_ITERS = 64

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
    over one denominator, for exact distance keys.
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
        self._symmetry = None
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
        # divided in place: a second temporary of the block's size costs its
        # page faults on every call
        if x.ndim == 2 and len(self._face_c) <= _FACES_MAJOR:
            M = self._face_n @ x.T
            M /= self._face_c[:, None]
            return np.max(M, axis=0)
        M = x @ self._face_n.T
        M /= self._face_c
        return np.max(M, axis=-1)

    def support(self, omega) -> np.ndarray:
        # in blocks of rows: the directions x vertices product never exists whole
        omega = _as_xy(omega)
        V = self.vertices
        out = map_blocks(lambda w: np.max(w @ V.T, axis=1), omega.reshape(-1, 2), len(V))
        return out.reshape(omega.shape[:-1])[()]

    def circumradius(self) -> float:
        return float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def inradius(self) -> float:
        return float(self._face_c.min())

    def volume(self) -> float:
        return self._area

    def perimeter(self) -> float:
        E = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.hypot(E[:, 0], E[:, 1]).sum())

    def as_polygon(self) -> "Polygon2D":
        return self

    def symmetry(self) -> tuple:
        """(k, mirror), read on the first call and kept: the vertices never
        change after construction."""
        if self._symmetry is None:
            self._symmetry = self._read_symmetry()
        return self._symmetry

    def _read_symmetry(self) -> tuple:
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

    def _support_point(self, omega) -> np.ndarray:
        """The boundary point x* with x* . omega = support(omega), for
        1 < p < inf: the gradient of the dual norm,
        a sign(u) |u|^(q-1) / ||u||_q^(q-1) with u = a omega."""
        q = self.p / (self.p - 1.0)
        u = _as_xy(omega) * self.semi_axes
        v = np.sign(u) * np.abs(u) ** (q - 1.0)
        return self.semi_axes * v / _lp_norm(u, q)[..., None] ** (q - 1.0)

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
    """Chords for many (unit direction, depth) pairs; NaN where the line misses K."""
    S = body.support(omegas)
    heights = S - depths
    poly = body.as_polygon()
    if poly is not None:
        return map_blocks(lambda rows: _polygon_chords(poly.vertices, rows),
                          np.column_stack([omegas, heights]), len(poly.vertices))
    perp = np.stack([-omegas[:, 1], omegas[:, 0]], axis=1)
    base = heights[:, None] * omegas
    R = body.circumradius() + 1.0

    def g(tv):
        return body.gauge(base + tv[:, None] * perp)

    # the gauge on the line {x . omega = h} is smallest, |h| / S, at
    # (h / S) x*, so both crossings are bracketed from there
    x = body._support_point(omegas)
    t_star = heights / S * (x[:, 0] * perp[:, 0] + x[:, 1] * perp[:, 1])
    chord = (_bisect_boundary(g, t_star, np.full_like(t_star, R))
             - _bisect_boundary(g, t_star, np.full_like(t_star, -R)))
    chord[np.abs(heights) >= S] = np.nan
    return chord


def _chord_grid(body: ConvexBody, n_theta: int, depths: np.ndarray, frac: float):
    """(thetas, chords, scanned) for the directions 2 pi k / n_theta and the
    given depths: the chords of one ``_chord_lengths_vec`` call with a row per
    depth and a column per direction, NaN outside the ``scanned`` mask
    depth < frac * width(direction)."""
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    scanned = depths[:, None] < frac * (body.support(omegas) + body.support(-omegas))
    i, j = np.nonzero(scanned)
    chords = np.full(scanned.shape, np.nan)
    chords[i, j] = _chord_lengths_vec(body, omegas[j], depths[i])
    return thetas, chords, scanned


def _polygon_chords(V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Chords of the polygon with vertices V on the lines of rows (w0, w1, h)."""
    w0, w1, h = rows[:, 0:1], rows[:, 1:2], rows[:, 2:3]
    fa = w0 * V[:, 0] + w1 * V[:, 1] - h
    t = w0 * V[:, 1] - w1 * V[:, 0]
    fb = np.roll(fa, -1, axis=1)
    tb = np.roll(t, -1, axis=1)
    # a vertex on the line counts once, as the A-end of its edge, so a
    # transversal crossing needs both ends strictly off the line
    on = fa == 0.0
    crossing = ~on & (fb != 0.0) & ((fa > 0) != (fb > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.where(crossing, t + fa / (fa - fb) * (tb - t), t)
    hit = on | crossing
    hi = np.max(np.where(hit, ts, -np.inf), axis=1)
    lo = np.min(np.where(hit, ts, np.inf), axis=1)
    return np.where(hit.any(axis=1), hi - lo, np.nan)


def _bisect_boundary(g, t_in: np.ndarray, t_out: np.ndarray) -> np.ndarray:
    a, b = t_in.copy(), t_out.copy()
    for _ in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        inside = g(m) <= 1.0
        a = np.where(inside, m, a)
        b = np.where(inside, b, m)
    return 0.5 * (a + b)


def chord_length(body: ConvexBody, direction, depth: float) -> float:
    """Length of K intersected with {x . omega = S(omega) - depth}.

    ``direction`` may be an angle in radians (a number or any size-1 array)
    or a nonzero 2-vector.
    A NaN or infinite depth is a ValidationError, and a depth that is not
    inside (0, width(direction)) a GeometryError.
    """
    omega = _direction_vector(direction)
    depth = float(depth)
    if not math.isfinite(depth):
        raise ValidationError(f"chord depth must be finite, got {depth!r}")
    if not depth > 0.0:
        raise GeometryError("chord depth must be positive")
    width = float(body.support(omega) + body.support(-omega))
    if depth >= width:
        raise GeometryError(
            "chord depth %g is not below the body width %g" % (depth, width))
    val = _chord_lengths_vec(body, omega[None, :], np.array([depth]))[0]
    if math.isnan(val):
        raise GeometryError("chord line misses the body (depth %g)" % depth)
    return float(val)


def _direction_vector(direction) -> np.ndarray:
    v = np.asarray(direction, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"direction must be finite, got {v.tolist()}")
    if v.size == 1:
        return np.array([math.cos(v[0]), math.sin(v[0])])
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
    thetas, chords, _ = _chord_grid(body, n_theta, eps_grid, 0.9)
    ratios = (chords / np.sqrt(eps_grid)[:, None]).T
    n_skipped = int(np.isnan(ratios).sum())

    # eps falls along each row and a pair is scanned when eps < 0.9 width, so
    # a row's finite ratios form a suffix, whose windows are those of the row
    # with its NaNs dropped; a window that touches a NaN fails both tests
    flat = []
    if eps_grid.size >= _RUN_LENGTH:
        run = np.lib.stride_tricks.sliding_window_view(ratios, _RUN_LENGTH, axis=1)
        grows = (np.all(np.diff(run, axis=2) > 0, axis=2)
                 & (run[:, :, -1] >= _GROWTH_FACTOR * run[:, :, 0]))
        flat = thetas[grows.any(axis=1)].tolist()
    finite = ratios[~np.isnan(ratios)]
    if finite.size == 0:
        raise GeometryError("no valid (direction, depth) pair in the scan")
    c_sup = float(finite.max())
    flat_idx = np.unravel_index(np.nanargmax(ratios), ratios.shape)
    theta_argmax = float(thetas[flat_idx[0]])
    satisfied = (c_sup <= _C_THRESHOLD) and not flat
    return CurvatureReport(satisfied, c_sup, theta_argmax, flat,
                           thetas, eps_grid, ratios, n_skipped)
