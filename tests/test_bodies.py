"""Gauge axioms, chord queries, curvature scans, and config parsing."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugedist import (
    BudgetError,
    ConfigError,
    Ellipsoid,
    GeometryError,
    LpBall,
    Polygon2D,
    ValidationError,
    chord_length,
    curvature_condition,
    diamond,
    disk,
    ellipse,
    perimeter,
    radial_polygon,
    random_symmetric_hexagon,
    regular_polygon,
    square,
)
from gaugedist.bodies import (_CURVATURE_CAP, _GROWTH_FACTOR, _RUN_LENGTH, _VERTEX_CAP,
                              _chord_lengths_vec)
from gaugedist.cli import ScanConfig, _body_from


def _scaled(body, s):
    """sK, built from the defining data of K."""
    if isinstance(body, Polygon2D):
        return Polygon2D(body.vertices * s)
    return LpBall(body.p, body.semi_axes * s)


def _rotated(poly, angle):
    """The polygon turned by angle about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return Polygon2D(poly.vertices @ np.array([[c, -s], [s, c]]).T)


def _bodies(rng):
    return [
        disk(),
        disk(0.5),
        ellipse(2.0, 1.0),
        square(),
        diamond(),
        regular_polygon(6),
        LpBall(3.0, (1.0, 1.0)),
        random_symmetric_hexagon(rng),
    ]


finite_xy = st.tuples(
    st.floats(-50, 50, allow_nan=False),
    st.floats(-50, 50, allow_nan=False),
).filter(lambda p: abs(p[0]) + abs(p[1]) > 1e-6)


@given(finite_xy, st.floats(1e-3, 1e3))
def test_gauge_homogeneity(p, t):
    body = ellipse(2.0, 1.0)
    x = np.array(p)
    g1 = float(body.gauge(t * x))
    g0 = float(body.gauge(x))
    assert g1 == pytest.approx(t * g0, rel=1e-10)


@given(finite_xy, finite_xy)
def test_gauge_triangle_inequality(p, q):
    body = regular_polygon(6)
    x, y = np.array(p), np.array(q)
    gx = float(body.gauge(x))
    gy = float(body.gauge(y))
    gxy = float(body.gauge(x + y))
    assert gxy <= gx + gy + 1e-10 * (gx + gy)


@given(finite_xy)
def test_gauge_symmetry(p):
    for body in (square(), diamond(), disk(), ellipse(2.0, 1.0)):
        x = np.array(p)
        assert float(body.gauge(-x)) == float(body.gauge(x))


@given(finite_xy)
def test_normalized_point_hits_boundary(p):
    body = ellipse(1.5, 0.75)
    x = np.array(p)
    g = float(body.gauge(x))
    on = float(body.gauge(x / g))
    assert 1 - 1e-8 <= on <= 1 + 1e-8


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 64, 256])
def test_polygon_gauge_layout_keeps_bits(m):
    # polygons of few faces take the gauge of a 2-d array faces x rows; every
    # row must round as in the rows x faces product, for any row count up to
    # a few blocks of 2^18 entries.  From 12 faces the layouts round some
    # rows of 196 and more otherwise
    body = _rotated(regular_polygon(m), 0.3) if m != 6 else \
        random_symmetric_hexagon(np.random.default_rng(7))
    block = 2**18 // m
    rng = np.random.default_rng(m)
    x = np.concatenate([rng.integers(-2048, 2049, size=(2 * block, 2)),
                        rng.normal(scale=100.0, size=(2 * block, 2))])
    for n in list(range(1, 400)) + [1023, 1024, 1025, block, block + 3, len(x)]:
        want = np.max(x[:n] @ body._face_n.T / body._face_c, axis=-1)
        got = body.gauge(x[:n])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, n)
    # single and stacked points take the rows x faces product, which the gauge
    # divides in place: the bits of the quotient in a second array
    for shape in [(2,), (1, 2), (5, 61, 2), (2, 3, 4, 2)]:
        for part in (x[:math.prod(shape) // 2], x[-(math.prod(shape) // 2):]):
            pts = part.reshape(shape)
            want = np.max(pts @ body._face_n.T / body._face_c, axis=-1)
            got = body.gauge(pts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, shape)


def test_gauge_vectorizes(rng):
    pts = rng.normal(size=(40, 2))
    for body in _bodies(rng):
        vals = body.gauge(pts)
        assert vals.shape == (40,)
        assert np.all(vals >= 0)


@given(st.floats(0, 2 * math.pi))
def test_lp_support_is_dual_norm(theta):
    # support of the unit l^p ball is the l^{p'} norm, 1/p + 1/p' = 1
    w = np.array([math.cos(theta), math.sin(theta)])
    for p, pdual in [(1.0, np.inf), (2.0, 2.0), (np.inf, 1.0), (3.0, 1.5)]:
        body = LpBall(p, (1.0, 1.0))
        want = np.linalg.norm(w, ord=pdual)
        assert float(body.support(w)) == pytest.approx(want, rel=1e-10)


def test_closed_form_scalars():
    assert disk().volume() == pytest.approx(math.pi)
    assert square().volume() == pytest.approx(4.0)
    assert diamond().volume() == pytest.approx(2.0)
    assert ellipse(2.0, 1.0).volume() == pytest.approx(2.0 * math.pi)
    assert perimeter(square()) == pytest.approx(8.0)
    assert perimeter(disk()) == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert square().circumradius() == pytest.approx(math.sqrt(2.0))
    assert square().inradius() == pytest.approx(1.0)


def test_scaled_body_covariance(rng):
    pts = rng.normal(size=(20, 2))
    for body in _bodies(rng):
        big = _scaled(body, 3.0)
        assert big.volume() == pytest.approx(9.0 * body.volume(), rel=1e-9)
        np.testing.assert_allclose(big.gauge(pts), body.gauge(pts) / 3.0,
                                   rtol=1e-10)


def test_chord_monotone_in_depth(rng):
    eps = np.geomspace(1e-4, 0.4, 25)
    for body in _bodies(rng):
        for theta in (0.0, 0.7, 2.1):
            w = np.array([math.cos(theta), math.sin(theta)])
            ls = np.array([chord_length(body, w, e) for e in eps])
            assert np.all(np.diff(ls) >= -1e-10)


def test_chord_depth_validation():
    # an infinite or nan depth used to be refused with a GeometryError
    for chord, body, direction, depth, error in [
        (chord_length, disk(), (1.0, 0.0), 2.5, GeometryError),
        (chord_length, disk(), (1.0, 0.0), -0.1, GeometryError),
        (chord_length, disk(), (1.0, 0.0), 0.0, GeometryError),
        (chord_length, square(), (0.0, 1.0), 2.0, GeometryError),
        (chord_length, square(), (0.0, 1.0), math.inf, ValidationError),
        (chord_length, disk(), (1.0, 0.0), -math.inf, ValidationError),
        (chord_length, LpBall(4.0), (1.0, 0.0), math.nan, ValidationError),
    ]:
        with pytest.raises(error):
            chord(body, direction, depth)


@pytest.mark.parametrize("direction", [math.nan, math.inf, -math.inf, [math.nan, 1.0],
                                       [1.0, math.inf], [-math.inf, 0.0]],
                         ids=["nan", "inf", "-inf", "nan row", "inf row", "-inf row"])
def test_chord_direction_must_be_finite(direction):
    # a nan angle used to give the disk's chord 0.0 and the square's a
    # GeometryError, and an infinite one a bare math domain error
    for body in (disk(), square(), LpBall(4.0)):
        with pytest.raises(ValidationError, match="direction must be finite"):
            chord_length(body, direction, 0.1)


def _ellipse_chords(body, omegas, eps):
    # the map diag(a) takes the unit disk's chord at depth eps / S below the
    # support line of u = a omega, |u| = S, to 2 a1 a2 sqrt(eps (2 S - eps)) / S^2
    S = body.support(omegas)
    return 2.0 * np.prod(body.semi_axes) * np.sqrt(eps * (2.0 * S - eps)) / S ** 2


@pytest.mark.parametrize("body", [disk(), ellipse(2.0, 1.0), ellipse(1.0, 3.0)],
                         ids=["disk", "ellipse 2:1", "ellipse 1:3"])
def test_disk_chord_closed_form(body, rng):
    th = rng.uniform(0.0, 2.0 * math.pi, 2000)
    omegas = np.stack([np.cos(th), np.sin(th)], axis=1)
    eps = 2.0 ** -rng.uniform(0.0, 20.0, th.size)
    np.testing.assert_allclose(_chord_lengths_vec(body, omegas, eps),
                               _ellipse_chords(body, omegas, eps), rtol=1e-9)
    # numpy scalar angles used to be refused as neither angle nor 2-vector
    for direction in (0.5, np.float32(0.5), np.int64(1), np.array(0.5), np.array([1.0, 0.0])):
        w = np.asarray(direction, dtype=float)
        w = w if w.size == 2 else np.array([math.cos(w), math.sin(w)])
        want = _ellipse_chords(body, w[None, :], np.array([0.3]))[0]
        assert chord_length(body, direction, 0.3) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_support_point_attains_support(p, rng):
    body = LpBall(p, (2.0, 0.5))
    th = rng.uniform(0.0, 2.0 * math.pi, 500)
    omegas = np.stack([np.cos(th), np.sin(th)], axis=1)
    x = body._support_point(omegas)
    np.testing.assert_allclose(x[:, 0] * omegas[:, 0] + x[:, 1] * omegas[:, 1],
                               body.support(omegas), rtol=1e-12)
    np.testing.assert_allclose(body.gauge(x), 1.0, rtol=1e-12)


def _fraction_sqrt(q):
    """The rational square root of q, whose numerator and denominator are squares."""
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    assert rn * rn == q.numerator and rd * rd == q.denominator, q
    return Fraction(rn, rd)


def _chord_exact(poly, w, depth):
    """The exact chord of a polygon with exact vertices, in rationals: the
    span of the edges' crossings with {x . w = S(w) - depth}, for a rational
    direction w of rational norm and 0 < depth < width."""
    V = poly.exact_vertices
    h = max(x * w[0] + y * w[1] for x, y in V) - depth
    ts = []
    for A, B in zip(V, V[1:] + V[:1]):
        fa = A[0] * w[0] + A[1] * w[1] - h
        fb = B[0] * w[0] + B[1] * w[1] - h
        ta = -A[0] * w[1] + A[1] * w[0]
        tb = -B[0] * w[1] + B[1] * w[0]
        if fa == 0:  # no edge lies on the line: a vertex on it is counted once
            ts.append(ta)
        elif (fa > 0) != (fb > 0):
            ts.append(ta + (tb - ta) * fa / (fa - fb))
    # t runs along the perpendicular of the unnormalised w
    return (max(ts) - min(ts)) / _fraction_sqrt(Fraction(w[0] ** 2 + w[1] ** 2))


def _integer_hexagon():
    # edges (0, 10), (-8, 6), (-6, -8): face normals (1, 0), (3, 4)/5, (-4, 3)/5
    return Polygon2D([(7, -4), (7, 6), (-1, 12), (-7, 4), (-7, -6), (1, -12)])


def _rational_16gon(den=1000):
    half = [(Fraction(math.cos(math.pi * k / 8)).limit_denominator(den),
             Fraction(math.sin(math.pi * k / 8)).limit_denominator(den)) for k in range(8)]
    return Polygon2D(half + [(-x, -y) for x, y in half])


@pytest.mark.parametrize("body", [square(), diamond(), _integer_hexagon(), _rational_16gon()],
                         ids=["square", "diamond", "integer hexagon", "rational 16-gon"])
def test_polygon_chords_match_exact_chords(body):
    # lines through every vertex and, along the face normals (1, 0), (0, 1),
    # (3, 4) and (-4, 3), lines parallel to a face; all pairs in one array pass
    directions = [(1, 0), (0, 1), (3, 4), (-4, 3), (5, 12), (12, -5), (-8, 15)]
    omegas, depths, want = [], [], []
    for w in directions:
        norm = math.isqrt(w[0] ** 2 + w[1] ** 2)
        dots = [x * w[0] + y * w[1] for x, y in body.exact_vertices]
        sup = max(dots)
        through_vertices = [sup - d for d in dots if 0 < sup - d < 2 * sup]
        for depth in through_vertices + [2 * sup * Fraction(k, 7) for k in range(1, 7)] + [sup / 1000]:
            omegas.append((w[0] / norm, w[1] / norm))
            depths.append(float(depth / norm))
            want.append(float(_chord_exact(body, w, depth)))
    got = _chord_lengths_vec(body, np.array(omegas), np.array(depths))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_square_chord_flat_side():
    # the side normal to (1,0) has length 2 at every positive depth
    for eps in (1e-6, 1e-3, 0.5):
        got = chord_length(square(), np.array([1.0, 0.0]), eps)
        assert got == pytest.approx(2.0, rel=1e-9)


def test_polygon_chord_exact_rational():
    val = _chord_exact(diamond(), (1, 0), Fraction(1, 4))
    assert val == Fraction(1, 2)
    num = chord_length(diamond(), np.array([1.0, 0.0]), 0.25)
    assert abs(num - float(val)) < 1e-12
    val2 = _chord_exact(square(), (0, 1), Fraction(1, 8))
    assert val2 == Fraction(2, 1)


def test_curvature_condition_classifies():
    ok = curvature_condition(disk(), n_theta=90)
    assert ok.satisfied
    assert ok.c_sup <= 2.0 * math.sqrt(2.0) + 1e-6
    assert ok.flat_directions == []

    el = curvature_condition(ellipse(2.0, 1.0), n_theta=90)
    assert el.satisfied

    sq = curvature_condition(square(), n_theta=90)
    assert not sq.satisfied
    # flat sides show up along the face normals
    normals = np.array(sq.flat_directions)
    assert normals.size > 0
    assert any(abs(t) < 1e-9 or abs(t - math.pi / 2) < 1e-9 for t in normals)


def test_curvature_condition_hexagon_flat():
    # face normals of the phase-0 regular hexagon sit on the default
    # 360-direction grid, so the flat signature is guaranteed visible
    hexg = curvature_condition(regular_polygon(6))
    assert not hexg.satisfied
    assert len(hexg.flat_directions) > 0


def _flat_by_row_loop(report):
    """The per-row scan the package used before its one array pass."""
    flat = []
    for theta, row in zip(report.thetas, report.ratios):
        row = row[~np.isnan(row)]
        for start in range(row.size - _RUN_LENGTH + 1):
            seg = row[start:start + _RUN_LENGTH]
            if np.all(np.diff(seg) > 0) and seg[-1] >= _GROWTH_FACTOR * seg[0]:
                flat.append(float(theta))
                break
    return flat


@pytest.mark.parametrize("eps_grid", [None, 2.0 ** -np.arange(-2.0, 12.0), 2.0 ** -np.arange(4.0, 9.0),
                                      [0.5, 0.1, 0.01, 1e-3]],
                         ids=["default", "nan prefixes", "one run", "shorter than a run"])
def test_flat_directions_match_row_loop(eps_grid):
    bodies = [disk(), ellipse(3.0, 1.0), LpBall(4.0), LpBall(1.5, (1.0, 3.0)), square(),
              diamond(), regular_polygon(6), regular_polygon(16, phase=0.1)]
    for body in bodies:
        report = curvature_condition(body, eps_grid, n_theta=120)
        assert report.flat_directions == _flat_by_row_loop(report)
        if eps_grid is not None and eps_grid[0] > 2.0 * body.circumradius():
            assert np.isnan(report.ratios[:, 0]).all()
        if eps_grid is not None and len(eps_grid) >= _RUN_LENGTH and body.as_polygon() is not None:
            assert report.flat_directions


def _curvature_ratios_by_pairs(body, eps_grid, n_theta):
    """The (direction, depth) pair layout curvature_condition scanned before
    its one chord grid: the eps grid tiled once per direction."""
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    widths = body.support(omegas) + body.support(-omegas)
    T, E = n_theta, eps_grid.size
    om_all = np.repeat(omegas, E, axis=0)
    ep_all = np.tile(eps_grid, T)
    valid = ep_all < 0.9 * np.repeat(widths, E)
    chords = np.full(T * E, np.nan)
    chords[valid] = _chord_lengths_vec(body, om_all[valid], ep_all[valid])
    return (chords / np.sqrt(ep_all)).reshape(T, E)


@pytest.mark.parametrize("body", [disk(), ellipse(2.0, 1.0), LpBall(4.0), LpBall(1.5), square(),
                                  diamond(), LpBall(1.0), LpBall(math.inf), regular_polygon(4),
                                  regular_polygon(6, phase=0.3), regular_polygon(4096)],
                         ids=["disk", "ellipse 2:1", "l4", "l1.5", "square", "diamond", "l1",
                              "linf", "4-gon", "hexagon phase 0.3", "4096-gon"])
def test_curvature_ratios_match_pair_layout(body):
    eps_grid = 2.0 ** -np.arange(-1.0, 21.0)  # the default grid and two nan depths
    report = curvature_condition(body, eps_grid, n_theta=90)
    want = _curvature_ratios_by_pairs(body, eps_grid, 90)
    np.testing.assert_array_equal(report.ratios, want)
    assert report.n_skipped == np.isnan(want).sum() > 0
    assert report.theta_argmax == report.thetas[np.nanargmax(want) // want.shape[1]]


def test_polygon_support_is_blocked():
    # 6 120 directions, as many as the default curvature scan's pairs: the
    # directions x vertices product alone would be 200 MB
    body = regular_polygon(4096)
    th = np.linspace(0.0, 2.0 * math.pi, 6120)
    omegas = np.stack([np.cos(th), np.sin(th)], axis=1)
    tracemalloc.start()
    try:
        sup = body.support(omegas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    np.testing.assert_allclose(sup, 1.0, rtol=1e-6)
    np.testing.assert_array_equal(sup[:3], [body.support(w) for w in omegas[:3]])
    assert body.support(omegas[0]).shape == ()


def test_curvature_grid_capped_before_allocating():
    tracemalloc.start()
    try:
        # 10^6 directions x 17 default depths
        with pytest.raises(BudgetError, match=f"cap of {_CURVATURE_CAP}"):
            curvature_condition(disk(), n_theta=10**6)
        with pytest.raises(BudgetError, match=f"cap of {_CURVATURE_CAP}"):
            curvature_condition(disk(), eps_grid=[0.01, 0.02], n_theta=_CURVATURE_CAP // 2 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_radial_polygon_round_profile_constructs():
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    body = radial_polygon(np.full(64, 1.5))
    assert type(body) is Polygon2D
    w = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    np.testing.assert_allclose(body.support(w), 1.5, rtol=1e-3)
    np.testing.assert_allclose(body.vertices, 1.5 * w, rtol=0, atol=1e-15)


def test_radial_polygon_convexity_guard():
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    r = 1.0 + 0.8 * np.abs(np.sin(3 * thetas))  # star-shaped, not convex
    with pytest.raises(ValidationError, match="not convex"):
        radial_polygon(r)
    with pytest.raises(ValidationError, match="antipodal"):
        radial_polygon(np.array([1.0, 2.0, 1.0, 0.5]))
    for bad in ([1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0], np.ones(7)):
        with pytest.raises(ValidationError, match="even count"):
            radial_polygon(bad)
    for bad in ([1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 0.0],
                [1.0, np.nan, 1.0, np.nan], [1.0, np.inf, 1.0, np.inf]):
        with pytest.raises(ValidationError, match="positive finite"):
            radial_polygon(bad)


def test_polygon_requires_symmetry():
    with pytest.raises(ValidationError):
        Polygon2D(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]))


def test_polygon_exact_vertices_must_match():
    V = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    # symmetric within 1e-9 but not the exact negation of its first half
    near = [(1 + Fraction(1, 10**12), 0), (0, 1), (-1, 0), (0, -1)]
    with pytest.raises(ValidationError, match="exactly symmetric"):
        Polygon2D(near)
    assert Polygon2D(V).exact_vertices[2] == (-1, 0)
    # float antipodes agree within 1e-9 * scale, not numpy's default 1e-5 relative
    with pytest.raises(ValidationError, match="not symmetric"):
        Polygon2D([(1, 0), (0, 1), (-1 - 1e-7, 0), (0, -1)])


_BAD_POLYGONS = {
    "inf vertex": (lambda: Polygon2D([(math.inf, 0), (0, 1), (-math.inf, 0), (0, -1)]),
                   r"vertices must be finite; row 0 is \[inf, 0.0\]"),
    "nan vertex": (lambda: Polygon2D([(1, 0), (0, math.nan), (-1, 0), (0, -1)]),
                   r"vertices must be finite; row 1 is \[0.0, nan\]"),
    "inf circumradius": (lambda: regular_polygon(8, math.inf),
                         "circumradius must be positive and finite, got inf"),
    "nan phase": (lambda: regular_polygon(8, 1.0, math.nan), "phase must be finite, got nan"),
    "inf half": (lambda: square(math.inf), "half must be positive and finite, got inf"),
    "negative half": (lambda: square(-1), "half must be positive and finite, got -1"),
    "nan half": (lambda: diamond(math.nan), "half must be positive and finite, got nan"),
}


@pytest.mark.parametrize("name", list(_BAD_POLYGONS))
def test_invalid_polygon_input_refused(name):
    # these built bodies with infinite vertices, warned and reported "not
    # symmetric", ended in an OverflowError, or (half = -1) gave the unit square
    build, message = _BAD_POLYGONS[name]
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("width", [1, 3])
def test_points_must_be_planar(width):
    # one column used to broadcast against both semi-axes of an l^p ball:
    # disk().gauge([[3.0]]) read 4.243 and LpBall(4.0).gauge([[3.0]]) 3.568
    pts = np.full((2, width), 3.0)
    for body in (square(), Polygon2D(regular_polygon(6).vertices), LpBall(4.0),
                 LpBall(2.0, (2.0, 0.5)), Ellipsoid((1.0, 1.0)), disk()):
        for query in (body.gauge, body.support):
            for x in (pts, pts[0]):
                with pytest.raises(ValidationError, match=re.escape(f"got shape {x.shape}")):
                    query(x)


def test_symmetry_detection():
    assert square().symmetry() == (4, True)
    assert diamond().symmetry() == (4, True)
    assert _rotated(square(0.3), math.pi / 4).symmetry() == (4, True)
    assert regular_polygon(256).symmetry() == (256, True)
    assert regular_polygon(6).symmetry() == (6, True)
    assert regular_polygon(6, phase=0.3).symmetry() == (6, False)
    assert regular_polygon(12, phase=math.pi / 12).symmetry() == (12, True)
    assert LpBall(4.0).symmetry() == (4, True)
    assert LpBall(1.0, (2.0, 2.0)).symmetry() == (4, True)
    assert LpBall(4.0, (1.0, 0.6)).symmetry() == (2, True)
    assert LpBall(math.inf, (1.0, 2.0)).symmetry() == (2, True)
    # the disk is the round l^2 ball: the quarter turn and the mirror
    assert disk().symmetry() == (4, True)
    assert ellipse(2.0, 1.0).symmetry() == (2, True)
    assert ellipse(1.0, 3.0).symmetry() == (2, True)
    assert disk(2.0).symmetry() == (4, True)
    assert random_symmetric_hexagon(np.random.default_rng(7)).symmetry() == (2, False)
    # a rectangle: the half turn and the mirror, no quarter turn
    assert Polygon2D([(2, 1), (-2, 1), (-2, -1), (2, -1)]).symmetry() == (2, True)
    # the mirror is found at whatever roll offset it sits
    for shift in range(6):
        V = np.roll(regular_polygon(6).vertices, shift, axis=0)
        assert Polygon2D(V).symmetry() == (6, True)
    # symmetric only within the 1e-9 acceptance tolerance: the default
    V = regular_polygon(6).vertices.copy()
    V[0, 1] += 1e-10
    assert Polygon2D(V).symmetry() == (2, False)


def test_vertex_count_capped_before_allocating(tmp_path):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"cap of {_VERTEX_CAP}"):
            regular_polygon(10**9)
        with pytest.raises(BudgetError, match=r"body\.ini: \[body\] radii: .*cap of"):
            _body_from_ini(tmp_path, "kind = radial\nradii = random:1000000000")
        with pytest.raises(BudgetError, match=r"body\.ini: \[body\] n_vertices"):
            _body_from_ini(tmp_path, "kind = regular\nn_vertices = 1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(regular_polygon(_VERTEX_CAP).vertices) == _VERTEX_CAP


def _body_from_ini(tmp_path, text):
    path = tmp_path / "body.ini"
    path.write_text("[body]\n" + text, encoding="utf-8")
    return _body_from(ScanConfig.load(str(path)))


def test_body_from_config_all_kinds(tmp_path):
    cases = [
        "kind = disk\nradius = 2",
        "kind = ellipse\nsemi_axes = 2, 1",
        "kind = ellipse\nsemi_axes = 2 1",
        "kind = square\nhalf = 1",
        "kind = diamond\nhalf = 0.5",
        "kind = lp\np = 3\nsemi_axes = 1, 1",
        "kind = lp\np = inf",
        "kind = polygon\nvertices = 2,1; -1,2; -2,-1; 1,-2",
        "kind = polygon\nvertices = 2,1; -1,2; -2,-1; 1,-2\ndenominator = 2",
        "kind = regular\nn_vertices = 8",
        "kind = hexagon",
        "kind = radial\nradii = 1, 1.2, 1, 1.2",
        "kind = radial\nradii = 1 1.2 1 1.2",
        "kind = radial\nradii = random:8",
    ]
    for text in cases:
        body = _body_from_ini(tmp_path, text)
        assert body.dim == 2, text


def test_body_from_config_diagnostics(tmp_path):
    where = str(tmp_path / "body.ini") + ": "
    cases = [
        ("", "[body] kind: missing required key"),
        ("kind = disk\nradius = wide", "[body] radius: expected a number, got 'wide'"),
        ("kind = polygon", "[body] vertices: missing required key"),
        ("kind = pentagram", "[body] kind: unknown kind 'pentagram'"),
        ("kind = ellipse\nsemi_axes = 2; 1", "[body] semi_axes: expected a number"),
        ("kind = ellipse\nsemi_axes = 1 1 1",
         "[body] semi_axes: bodies are planar: two semi-axes expected, got 3"),
        ("kind = lp\np = 3\nsemi_axes = 2",
         "[body] p/semi_axes: bodies are planar: two semi-axes expected, got 1"),
        ("kind = disk\nradius = -1", "[body] radius: semi_axes must be positive"),
        ("kind = regular\nn_vertices = 6.5", "[body] n_vertices: expected an integer"),
        ("kind = regular\nn_vertices = 5", "[body] n_vertices/circumradius: symmetric"),
        ("kind = radial\nradii = random:eight", "[body] radii: expected random:<even"),
        ("kind = radial\nradii = random:7", "[body] radii: random count must be even"),
        ("kind = radial\nradii = 1 1.2 1", "[body] radii: radial profile needs an even"),
        ("kind = polygon\nvertices = 2,1,0; -2,-1,0", "[body] vertices: expected 'x, y'"),
        ("kind = polygon\nvertices = 1,0; 0,1; -1,0", "[body] vertices: polygon needs"),
    ]
    for text, message in cases:
        with pytest.raises(ConfigError) as info:
            _body_from_ini(tmp_path, text)
        assert str(info.value).startswith(where + message), text


def test_config_rational_vertices(tmp_path):
    body = _body_from_ini(tmp_path, "kind = polygon\nvertices = 3,1; -1,3; -3,-1; 1,-3\n"
                                    "denominator = 3")
    v = body.exact_vertices
    assert v is not None
    assert v[0][0] == Fraction(1)
    assert v[1][1] == Fraction(1)
