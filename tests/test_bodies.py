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
    chord_length_exact,
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
from gaugedist.bodies import _CURVATURE_CAP, _VERTEX_CAP
from gaugedist.cli import ScanConfig, _body_from


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
    body = regular_polygon(m).rotated(0.3) if m != 6 else \
        random_symmetric_hexagon(np.random.default_rng(7))
    block = 2**18 // m
    rng = np.random.default_rng(m)
    x = np.concatenate([rng.integers(-2048, 2049, size=(2 * block, 2)),
                        rng.normal(scale=100.0, size=(2 * block, 2))])
    for n in list(range(1, 400)) + [1023, 1024, 1025, block, block + 3, len(x)]:
        want = np.max(x[:n] @ body._face_n.T / body._face_c, axis=-1)
        got = body.gauge(x[:n])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, n)


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
        big = body.scaled(3.0)
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
    w = np.array([1.0, 0.0])
    with pytest.raises(GeometryError):
        chord_length(disk(), w, 2.5)
    with pytest.raises((GeometryError, ValidationError)):
        chord_length(disk(), w, -0.1)


@pytest.mark.parametrize("direction", [math.nan, math.inf, -math.inf, [math.nan, 1.0],
                                       [1.0, math.inf]],
                         ids=["nan", "inf", "-inf", "nan row", "inf row"])
def test_chord_direction_must_be_finite(direction):
    # a nan angle used to give the disk's chord 0.0 and the square's a
    # GeometryError, and an infinite one a bare math domain error
    for body in (disk(), square(), LpBall(4.0)):
        with pytest.raises(ValidationError, match="direction must be finite"):
            chord_length(body, direction, 0.1)


def test_disk_chord_closed_form():
    # depth eps below the support line: half-chord sqrt(1 - (1-eps)^2)
    for eps in (1e-4, 1e-2, 0.3, 0.9):
        want = 2.0 * math.sqrt(1.0 - (1.0 - eps) ** 2)
        got = chord_length(disk(), np.array([1.0, 0.0]), eps)
        assert got == pytest.approx(want, rel=1e-9)


def test_square_chord_flat_side():
    # the side normal to (1,0) has length 2 at every positive depth
    for eps in (1e-6, 1e-3, 0.5):
        got = chord_length(square(), np.array([1.0, 0.0]), eps)
        assert got == pytest.approx(2.0, rel=1e-9)


def test_polygon_chord_exact_rational():
    val = chord_length_exact(diamond(), (1, 0), Fraction(1, 4))
    assert val == Fraction(1, 2)
    num = chord_length(diamond(), np.array([1.0, 0.0]), 0.25)
    assert abs(num - float(val)) < 1e-12
    val2 = chord_length_exact(square(), (0, 1), Fraction(1, 8))
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
    "nan scale": (lambda: square().scaled(math.nan), "scale factor must be positive"),
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
    assert square(0.3).rotated(math.pi / 4).symmetry() == (4, True)
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
