"""Transform oracles, quadrature convergence, and decay-fit behavior."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import j0, j1

from gaugedist import (
    AnnulusSpec,
    BudgetError,
    CapabilityError,
    InsufficientDataError,
    LpBall,
    PointSet,
    ValidationError,
    annulus_bound_report,
    annulus_ft,
    body_ft,
    chord_bound_report,
    decay_fit,
    diamond,
    disk,
    distance_set,
    ellipse,
    octave_envelope,
    radial_polygon,
    random_symmetric_hexagon,
    regular_polygon,
    spherical_average,
    square,
    surface_ft,
    window_aggregate,
)
from gaugedist import fourier
from gaugedist.bodies import ConvexBody, Ellipsoid, boundary_quadrature
from gaugedist.fourier import (_ANGULAR_CAP, _ANGULAR_PER_UNIT, _MIN_ANGULAR, _NODES_PER_PANEL,
                               _PANEL_NODE_CAP, _PANELS_PER_UNIT, _SCAN_CAP, _half_sum,
                               _panel_buckets, _smooth_ft)


# leggauss(4000) costs seconds and the oracle needs the same rule each call
_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _edge_quadrature_ft(poly, xi, kind, nodes_per_edge=4000):
    """Brute-force per-edge Gauss-Legendre oracle, independent of the
    package's sinc closed form."""
    gl_x, gl_w = _leggauss(nodes_per_edge)
    V = poly.vertices
    W = np.roll(V, -1, axis=0)
    N = poly._face_n
    total = np.zeros(len(xi), dtype=complex)
    for v, w_, n in zip(V, W, N):
        mid = 0.5 * (v + w_)
        half = 0.5 * (w_ - v)
        pts = mid[None, :] + gl_x[:, None] * half[None, :]
        L = np.linalg.norm(w_ - v)
        phases = np.exp(-2j * math.pi * (pts @ xi.T))
        weights = gl_w * (L / 2.0)
        contrib = weights @ phases
        if kind == "surface":
            total += contrib
        else:
            total += contrib * (xi @ n)
    if kind == "surface":
        return total
    r2 = np.einsum("ij,ij->i", xi, xi)
    return 1j * total / (2.0 * math.pi * r2)


def test_zero_frequency_masses(rng):
    zero = np.zeros((1, 2))
    assert surface_ft(disk(), zero)[0] == pytest.approx(2 * math.pi, rel=1e-9)
    assert body_ft(square(), zero)[0] == pytest.approx(4.0)
    assert body_ft(disk(), zero)[0] == pytest.approx(math.pi)
    hexg = random_symmetric_hexagon(rng)
    assert surface_ft(hexg, zero)[0] == pytest.approx(hexg.perimeter())


@given(st.integers(1, 64))
def test_square_surface_along_axis_integer(R):
    # two side faces contribute 2cos(2 pi R) each, the sinc term vanishes
    val = surface_ft(square(), np.array([[float(R), 0.0]]))[0]
    assert val.real == pytest.approx(4.0, abs=1e-9)
    assert val.imag == pytest.approx(0.0, abs=1e-10)


def test_square_body_separable_value():
    val = body_ft(square(), np.array([[0.25, 0.0]]))[0]
    assert val.real == pytest.approx(8.0 / math.pi, rel=1e-12)
    R = 0.37
    want = 2.0 * math.sin(2 * math.pi * R) / (math.pi * R)
    got = body_ft(square(), np.array([[R, 0.0]]))[0]
    assert got.real == pytest.approx(want, rel=1e-12)


def test_box_plancherel_product_of_sincs(rng):
    xi = rng.normal(size=(64, 2)) * 20
    got = body_ft(LpBall(np.inf, (1.0, 0.5)), xi)
    want = (2.0 * np.sinc(2.0 * xi[:, 0])) * (1.0 * np.sinc(1.0 * xi[:, 1]))
    np.testing.assert_allclose(got.real, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.imag, 0, atol=1e-12)


def test_disk_bessel_oracles():
    R = np.geomspace(0.5, 64, 40)
    xi = np.stack([R, np.zeros_like(R)], axis=1)
    np.testing.assert_allclose(surface_ft(disk(), xi).real,
                               2 * math.pi * j0(2 * math.pi * R), atol=1e-8)
    np.testing.assert_allclose(body_ft(disk(), xi).real,
                               j1(2 * math.pi * R) / R, atol=1e-8)
    # the quadrature engine must agree with the Bessel oracle independently
    quad_vals = _smooth_ft(disk(), xi, "surface")
    np.testing.assert_allclose(quad_vals.real,
                               2 * math.pi * j0(2 * math.pi * R), atol=1e-8)


@pytest.mark.parametrize("axes", [(1.0, 1.0), (0.75, 0.75), (2.0, 0.5)],
                         ids=["unit disk", "disk 0.75", "ellipse 2:0.5"])
def test_ellipse_is_the_l2_ball(rng, axes):
    # one body, one path: Ellipsoid(axes) is LpBall(2.0, axes) bit for bit
    e, l2 = Ellipsoid(axes), LpBall(2.0, axes)
    pts = rng.normal(size=(50, 2))
    xi = np.concatenate([[[0.0, 0.0]], rng.normal(size=(40, 2)) * 30])
    for f in (lambda b: b.gauge(pts), lambda b: b.support(pts), lambda b: b.gauge(pts[0]),
              lambda b: b.support(pts[0]), lambda b: b.volume(), lambda b: b.symmetry(),
              lambda b: body_ft(b, xi), lambda b: surface_ft(b, xi)):
        assert np.array_equal(f(e), f(l2))
    assert e.volume() == math.pi * (axes[0] * axes[1])
    S = PointSet.lattice(12)
    for mode in ("float_tol", "exact_rational"):
        if mode == "exact_rational" and axes[0] != axes[1]:
            for body in (e, l2):
                with pytest.raises(CapabilityError):
                    distance_set(S, body, mode)
            continue
        de, dl = distance_set(S, e, mode), distance_set(S, l2, mode)
        assert np.array_equal(de.values, dl.values)
        assert np.array_equal(de.multiplicities, dl.multiplicities)
    if axes[0] == axes[1]:
        # the round l^2 ball's surface takes the J0 form; quadrature is its oracle
        quad_vals = _smooth_ft(l2, xi, "surface")
        got = surface_ft(l2, xi)
        assert np.max(np.abs(got - quad_vals)) <= 1e-12 * np.max(np.abs(quad_vals))


def test_polygon_closed_form_vs_edge_quadrature(rng):
    thetas = rng.uniform(0, 2 * math.pi, size=12)
    mags = rng.uniform(0.5, 128.0, size=12)
    xi = np.stack([mags * np.cos(thetas), mags * np.sin(thetas)], axis=1)
    for body in (square(), diamond(), random_symmetric_hexagon(rng)):
        for kind in ("surface", "body"):
            got = surface_ft(body, xi) if kind == "surface" else body_ft(body, xi)
            want = _edge_quadrature_ft(body.as_polygon(), xi, kind)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def _flux_to_body(flux, xi, volume):
    r2 = np.einsum("ij,ij->i", xi, xi)
    out = np.full(len(xi), volume, dtype=complex)
    nz = r2 >= 1e-24
    out[nz] = 1j * flux[nz] / (2.0 * math.pi * r2[nz])
    return out


def _full_polygon_ft(poly, xi, kind):
    """Complex per-edge closed form summed over every edge: the oracle for
    the package's real sum over half the edges."""
    V = poly.vertices
    D = np.roll(V, -1, axis=0) - V
    L = np.hypot(D[:, 0], D[:, 1])
    edge = (L[:, None] * np.sinc(D @ xi.T)) * np.exp(-2j * math.pi * ((V + 0.5 * D) @ xi.T))
    if kind == "surface":
        return edge.sum(axis=0)
    return _flux_to_body(((poly._face_n @ xi.T) * edge).sum(axis=0), xi, poly.volume())


def _full_quadrature_ft(body, xi, kind):
    """Complex exponential summed over every node of the full-boundary rule,
    with the package's panel bucket: the oracle for the real sum over half
    the nodes."""
    out = np.empty(len(xi), dtype=complex)
    for i, row in enumerate(xi):
        need = max(4, math.ceil(_PANELS_PER_UNIT * np.linalg.norm(row) * body.diameter()))
        x, w, n = boundary_quadrature(body, int(_panel_buckets(need)))
        terms = w * np.exp(-2j * math.pi * (x @ row))
        out[i] = terms.sum() if kind == "surface" else (terms * (n @ row)).sum()
    return out if kind == "surface" else _flux_to_body(out, xi, body.volume())


_SYMMETRIC_BODIES = [
    ("square", lambda rng: square()),
    ("diamond", lambda rng: diamond()),
    ("hexagon", random_symmetric_hexagon),
    ("6-gon, phase 0.3", lambda rng: regular_polygon(6, phase=0.3)),
    ("256-gon", lambda rng: regular_polygon(256)),
    ("l1.5 ball", lambda rng: LpBall(1.5, (1.0, 1.0))),
    ("l4 ball", lambda rng: LpBall(4.0, (1.0, 1.0))),
    ("2:1 ellipse", lambda rng: ellipse(2.0, 1.0)),
]


@pytest.mark.parametrize("name, make", _SYMMETRIC_BODIES, ids=[b[0] for b in _SYMMETRIC_BODIES])
def test_half_boundary_real_sum_vs_full_complex_sum(rng, name, make):
    body = make(rng)
    th = rng.uniform(0, 2 * math.pi, size=24)
    mags = np.concatenate([[0.0, 1.0, 8.0, 45.0, 300.0], rng.uniform(0, 300, size=19)])
    xi = np.stack([mags * np.cos(th), mags * np.sin(th)], axis=1)
    poly = body.as_polygon()
    for kind, f in (("surface", surface_ft), ("body", body_ft)):
        if poly is not None:
            got, want = f(body, xi), _full_polygon_ft(poly, xi, kind)
        else:
            # the ellipse's body transform is a Bessel closed form; its
            # quadrature path is reached through _smooth_ft
            got = f(body, xi) if kind == "surface" else _smooth_ft(body, xi, kind)
            want = _full_quadrature_ft(body, xi, kind)
        assert got.dtype == complex and np.all(got.imag == 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (name, kind)


@pytest.mark.parametrize("body", [disk(), ellipse(2.0, 1.0), LpBall(1.5, (1.0, 1.0)),
                                  LpBall(4.0, (2.0, 0.5))])
def test_quadrature_nodes_pair_with_antipodes(body):
    # the layout the half sum in _smooth_ft relies on
    for k in range(2, 13):
        x, w, n = boundary_quadrature(body, 2 ** k)
        h = len(x) // 2
        np.testing.assert_allclose(x[h:], -x[:h], rtol=0, atol=1e-13)
        np.testing.assert_allclose(w[h:], w[:h], rtol=1e-13, atol=0)
        np.testing.assert_allclose(n[h:], -n[:h], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["surface", "body"])
def test_regular_polygon_average_converges_to_disk(kind):
    # inscribed n-gons differ from the disk by O(1/n^2): 4x per doubling
    R = 8.0
    disk_avg = (2 * math.pi * abs(j0(2 * math.pi * R)) if kind == "surface"
                else abs(j1(2 * math.pi * R) / R))
    errs = [abs(spherical_average(regular_polygon(n), R, kind=kind, p=2) - disk_avg)
            for n in (64, 128, 256, 512)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_hermitian_symmetry(rng):
    xi = rng.normal(size=(50, 2)) * 30
    closed = [disk(), ellipse(2.0, 1.0), square(), diamond(),
              random_symmetric_hexagon(rng)]
    for body in closed:
        for f in (surface_ft, body_ft):
            a = f(body, xi)
            b = f(body, -xi)
            np.testing.assert_allclose(b, np.conj(a), rtol=0, atol=1e-12)
    # quadrature paths get the looser budget
    lp = LpBall(3.0, (1.0, 1.0))
    for f in (surface_ft, body_ft):
        a = f(lp, xi)
        b = f(lp, -xi)
        np.testing.assert_allclose(b, np.conj(a), rtol=0, atol=1e-8)
    a = surface_ft(ellipse(2.0, 1.0), xi)
    b = surface_ft(ellipse(2.0, 1.0), -xi)
    np.testing.assert_allclose(b, np.conj(a), rtol=0, atol=1e-8)


def test_quadrature_panel_doubling(rng):
    diam_rule = lambda body, mag: max(4, math.ceil(mag * body.diameter()))
    for body in (disk(), ellipse(2.0, 1.0), LpBall(4.0, (1.0, 1.0))):
        for mag in (16.0, 64.0):
            xi = np.array([[mag * math.cos(0.3), mag * math.sin(0.3)]])
            panels = 1 << math.ceil(math.log2(diam_rule(body, mag)))
            vals = []
            for p in (panels, 2 * panels):
                x, w, n = boundary_quadrature(body, p)
                h = len(x) // 2
                vals.append(_half_sum(x[:h], w[:h], n[:h], xi, "surface",
                                      body.volume())[0])
            assert abs(vals[1] - vals[0]) < 1e-7 * max(abs(vals[1]), 1e-30)


def test_scaling_identity(rng):
    xi = rng.normal(size=(30, 2)) * 10
    for body, tol in [(square(), 1e-12), (disk(), 1e-12),
                      (ellipse(2.0, 1.0), 1e-12),
                      (random_symmetric_hexagon(rng), 1e-12),
                      (regular_polygon(256), 1e-12),
                      (LpBall(3.0, (1.0, 1.0)), 1e-8),
                      (LpBall(4.0, (1.0, 1.0)), 1e-8)]:
        for s in (0.5, 2.0, 3.0, 3.7):
            lhs = body_ft(body.scaled(s), xi)
            rhs = s ** 2 * body_ft(body, s * xi)
            scale = np.maximum(np.abs(rhs), 1e-12)
            assert np.max(np.abs(lhs - rhs) / scale) < tol * 100
            # sK at xi and K at s xi get the same panel count, so the two
            # sides differ by rounding only (measured <= 6e-15)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_annulus_zero_frequency_area():
    spec = AnnulusSpec(1.0, 0.1)
    val = annulus_ft(disk(), np.zeros((1, 2)), spec)[0]
    assert val.real == pytest.approx(0.21 * math.pi, rel=1e-12)


def test_annulus_spec_rejects_fat_shell():
    with pytest.raises(ValidationError):
        AnnulusSpec(1.0, 0.2)
    with pytest.raises(ValidationError):
        AnnulusSpec(-1.0, 0.01)


def test_annulus_against_radial_oracle():
    # chi-hat of the round annulus = 2 pi int_R^{R+d} r J0(2 pi r q) dr
    spec = AnnulusSpec(1.0, 0.01)
    q = 8.0
    val = annulus_ft(disk(), np.array([[q, 0.0]]), spec)[0]
    want, _ = quad(lambda r: 2 * math.pi * r * j0(2 * math.pi * r * q),
                   1.0, 1.01, epsabs=1e-12)
    assert val.real == pytest.approx(want, abs=1e-6)
    assert val.imag == pytest.approx(0.0, abs=1e-9)


def _square_surface_l1_oracle(R, n=2 ** 20):
    """Midpoint rule for the L1 circle average of the square's surface
    transform in closed form: the faces x = +-1 give 4 cos(2 pi xi_1)
    sinc(2 xi_2), the faces y = +-1 the same with the axes swapped."""
    th = math.pi * (np.arange(n) + 0.5) / n
    x, y = R * np.cos(th), R * np.sin(th)
    vals = (4.0 * np.cos(2 * math.pi * x) * np.sinc(2 * y)
            + 4.0 * np.cos(2 * math.pi * y) * np.sinc(2 * x))
    return float(np.mean(np.abs(vals)))


def test_square_l1_surface_average_vs_closed_form():
    # the p = 1 rule converges slowly (kinks at the zeros); measured <= 1.1e-3
    for R in (8.0, 8.5, 45.25, 512.0):
        got = spherical_average(square(), R, kind="surface", p=1)
        assert got == pytest.approx(_square_surface_l1_oracle(R), rel=2e-3)


def test_spherical_average_rotation_invariance():
    for R in (2.0, 9.5):
        avg = spherical_average(disk(), R, kind="surface", p=2)
        pointwise = abs(surface_ft(disk(), np.array([[R, 0.0]]))[0])
        assert avg == pytest.approx(pointwise, rel=1e-10)


def _default_nodes(body, R, p=1):
    """The default N of a p-average before rounding to whole symmetry cells:
    16 nodes per unit of R * diam for p = 1, 8 for p = 2."""
    per_unit = _ANGULAR_PER_UNIT if p == 1 else _ANGULAR_PER_UNIT / 2
    return max(_MIN_ANGULAR, math.ceil(per_unit * R * body.diameter()))


def _rounded_nodes(body, R, p=1):
    """The default N: _default_nodes rounded up to a multiple of k/2."""
    g = body.symmetry()[0] // 2
    return -(-_default_nodes(body, R, p) // g) * g


def _full_rule_values(body, R, kind, n_nodes):
    """|transform| on every node pi j / N, j < N, of the half-circle rule."""
    th = math.pi * np.arange(n_nodes) / n_nodes
    xi = R * np.stack([np.cos(th), np.sin(th)], axis=1)
    return np.abs(body_ft(body, xi) if kind == "body" else surface_ft(body, xi))


def _full_rule(vals, p):
    # the N-node mean exactly as spherical_average computed it before the
    # symmetry cell
    return float(vals.mean()) if p == 1 else float(math.sqrt(np.mean(vals * vals)))


_POLYGON_RADII = (5.3, 8.0, 33.0, 100.7, 128.0, 300.2, 512.0, 1000.3, 1024.0)
_CELL_CASES = [
    ("square", square, _POLYGON_RADII),
    ("diamond", diamond, _POLYGON_RADII),
    ("256-gon", lambda: regular_polygon(256), _POLYGON_RADII),
    ("lp4", lambda: LpBall(4.0), (8.0, 33.3, 128.0)),
    ("lp4-unequal", lambda: LpBall(4.0, (1.0, 0.6)), (8.0, 33.3, 128.0)),
    ("hexagon-phase", lambda: regular_polygon(6, phase=0.3), _POLYGON_RADII),
    ("seeded-hexagon", lambda: random_symmetric_hexagon(np.random.default_rng(7)),
     _POLYGON_RADII),
    ("disk", disk, _POLYGON_RADII),
    ("ellipse", lambda: ellipse(2.0, 1.0), (8.0, 33.3, 64.0)),
]


def test_spherical_average_cell_rule_vs_full_rule():
    # one symmetry cell of the N-node rule against all N nodes, at the
    # default N and at explicit ones; the measured worst cases are 6.4e-14
    # (R <= 128) and 9.8e-13 (R <= 1024).  Bodies with only the half turn
    # run the N-node rule itself, bit for bit
    seen = set()
    for name, make, radii in _CELL_CASES:
        body = make()
        k, mirror = body.symmetry()
        runs = [(R, _default_nodes(body, R)) for R in radii]
        runs += [(8.3, n) for n in (1, 2, 3, 4, 6, 129, 256, 1000)]
        for R, n in runs:
            M = n // math.gcd(k // 2, n)
            seen.add((n % 2, M % 2, mirror, M < n))
            for kind in ("body", "surface"):
                vals = _full_rule_values(body, R, kind, n)
                for p in (1, 2):
                    got = spherical_average(body, R, kind=kind, p=p, n_nodes=n)
                    want = _full_rule(vals, p)
                    if k == 2 and not mirror:
                        assert got == want, (name, R, n, kind, p)
                    rtol = 1e-12 if R <= 128 else 1e-11
                    assert abs(got - want) <= rtol * want, (name, R, n, kind, p)
    # odd and even N, with and without the mirror; with it an odd and an
    # even cell shortened by the rotation; without it a shortened cell
    assert {(1, True), (0, True), (1, False), (0, False)} <= {c[::2] for c in seen}
    assert {(0, 1, True, True), (0, 0, True, True)} <= seen
    assert any(not mirror and shorter for _, _, mirror, shorter in seen)


def _record_rows(monkeypatch):
    """Replace fourier._transform by a stub that records the rows it gets."""
    calls = []

    def recording(body, xi, kind, threads=1):
        calls.append(xi)
        return np.ones(len(xi))

    monkeypatch.setattr(fourier, "_transform", recording)
    return calls


def test_spherical_average_default_rounds_to_whole_cells(monkeypatch):
    # the node spacing pi / N reads N off the evaluated rows
    calls = _record_rows(monkeypatch)
    bodies = [square(), diamond(), regular_polygon(256), LpBall(4.0),
              random_symmetric_hexagon(np.random.default_rng(7)), ellipse(2.0, 1.0), disk()]
    for body in bodies:
        k, mirror = body.symmetry()
        for R in _POLYGON_RADII:
            calls.clear()
            spherical_average(body, R, kind="body", p=1)
            (xi,) = calls
            n = round(math.pi / math.atan2(xi[1, 1], xi[1, 0]))
            old = _default_nodes(body, R)
            assert n % (k // 2) == 0 and old <= n < old + k // 2, (body.kind(), R)
            M = n // (k // 2)
            assert len(xi) == (M // 2 + 1 if mirror else M), (body.kind(), R)


def test_spherical_average_256gon_evaluates_one_half_cell(monkeypatch):
    # at R = 1000.3 the unrounded N = 32 010 has gcd 2 with k/2 = 128, so
    # the gcd rule alone would evaluate 8 003 rows
    calls = _record_rows(monkeypatch)
    for R in (1000.3, 1024.0):
        calls.clear()
        spherical_average(regular_polygon(256), R)
        M = _rounded_nodes(regular_polygon(256), R) // 128
        assert len(calls[0]) <= M // 2 + 1 <= 129


def test_spherical_average_default_vs_full_rule():
    # the default-count value against all N nodes at the rounded N
    for name, make, radii in _CELL_CASES:
        body = make()
        for R in radii:
            for p in (1, 2):
                n = _rounded_nodes(body, R, p)
                for kind in ("body", "surface"):
                    got = spherical_average(body, R, kind=kind, p=p)
                    want = _full_rule(_full_rule_values(body, R, kind, n), p)
                    rtol = 1e-12 if R <= 128 else 1e-11
                    assert abs(got - want) <= rtol * want, (name, R, kind, p)


@pytest.mark.parametrize("make", [lambda: LpBall(4.0), lambda: LpBall(1.5),
                                  lambda: LpBall(4.0, (2.0, 0.5)), lambda: ellipse(1.0, 0.5),
                                  disk, square, lambda: regular_polygon(256)],
                         ids=["l4", "l1.5", "l4 (2, 0.5)", "1:0.5 ellipse", "disk", "square",
                              "256-gon"])
def test_spherical_average_p2_default_vs_4x_rule(make):
    # the p = 2 default, 8 nodes per unit of R * diam, against 64 per unit;
    # the measured worst case is 1.7e-14 (square, 256-gon).  The rule aliases below
    # about pi nodes per unit (3 per unit: 3.9e-3 on the square), so the
    # default's count is checked on its own
    body = make()
    g = body.symmetry()[0] // 2
    for R in (8.0, 33.3, 128.0):
        n = -(-4 * _default_nodes(body, R, p=1) // g) * g
        for kind in ("body", "surface"):
            got = spherical_average(body, R, kind=kind, p=2)
            assert got == spherical_average(body, R, kind=kind, p=2,
                                             n_nodes=_rounded_nodes(body, R, p=2))
            want = spherical_average(body, R, kind=kind, p=2, n_nodes=n)
            assert abs(got - want) <= 1e-13 * want, (R, kind)


def test_spherical_average_default_unchanged_for_half_turn_bodies():
    for body in (disk(), ellipse(2.0, 1.0)):
        for R in (8.0, 33.3, 64.0):
            for kind in ("body", "surface"):
                for p in (1, 2):
                    assert (spherical_average(body, R, kind=kind, p=p)
                            == spherical_average(body, R, kind=kind, p=p,
                                                 n_nodes=_rounded_nodes(body, R, p)))


def test_spherical_average_thread_stability(monkeypatch):
    # the polygon and quadrature paths; the radial 256-gon (no symmetry
    # beyond the half turn) and LpBall(4) at R = 128 span several row blocks
    # of the half sum, the 256-gon's 65 cell rows fit in one; threads must
    # not move a bit
    h = np.random.default_rng(11).uniform(1 - 1e-4, 1 + 1e-4, 128)
    cases = [(square(), 33.0, "body", False), (ellipse(2.0, 1.0), 33.0, "body", False),
             (regular_polygon(256), 512.0, "body", False),
             (radial_polygon(np.concatenate([h, h])), 512.0, "body", True),
             (LpBall(4.0, (1.0, 1.0)), 128.0, "surface", True)]
    blocks = []
    map_blocks = fourier.map_blocks

    def counting(fn, rows, width, threads):
        def counted(block):
            blocks.append(len(block))
            return fn(block)
        return map_blocks(counted, rows, width, threads)

    monkeypatch.setattr(fourier, "map_blocks", counting)
    for body, R, kind, spans in cases:
        blocks.clear()
        a = spherical_average(body, R, kind=kind, p=2, threads=1)
        if spans:
            assert len(blocks) >= 3, (body.kind(), R)
        for threads in (2, 4):
            assert spherical_average(body, R, kind=kind, p=2, threads=threads) == a


def test_decay_fit_exact_power_law():
    R = 2.0 ** np.arange(3, 13)
    prof = decay_fit(R, R ** -0.5)
    assert prof.gamma == pytest.approx(0.5, abs=1e-12)
    assert prof.residual < 1e-12
    assert np.all(np.diff(prof.R) > 0)


def test_decay_fit_reproduces_lstsq():
    rng = np.random.default_rng(3)
    R = np.geomspace(8, 512, 24)
    v = 3.0 * R ** -1.2 * np.exp(rng.normal(0, 0.05, R.size))
    prof = decay_fit(R, v)
    X = np.stack([np.ones_like(R), -np.log(R)], axis=1)
    coef, *_ = np.linalg.lstsq(X, np.log(v), rcond=None)
    assert prof.gamma == pytest.approx(coef[1], abs=1e-12)
    assert prof.amplitude == pytest.approx(math.exp(coef[0]), rel=1e-12)
    pred_resid = float(np.sqrt(np.mean((X @ coef - np.log(v)) ** 2)))
    assert prof.residual == pytest.approx(pred_resid, abs=1e-12)


def test_decay_fit_drops_nonpositive():
    R = np.geomspace(4, 64, 12)
    v = R ** -1.0
    v[3] = 0.0
    v[7] = -2.0
    prof = decay_fit(R, v, min_samples=8)
    assert prof.n_dropped == 2
    assert prof.n_used == 10
    assert prof.gamma == pytest.approx(1.0, abs=1e-10)


def test_decay_fit_insufficient_data():
    R = np.geomspace(4, 64, 12)
    with pytest.raises(InsufficientDataError):
        decay_fit(R[:5], R[:5] ** -1.0)
    narrow = np.linspace(8, 9, 20)
    with pytest.raises(InsufficientDataError):
        decay_fit(narrow, narrow ** -1.0)


def test_log_correction_fit():
    R = np.geomspace(8, 4096, 40)
    v = 2.0 * np.log(R) * R ** -1.0
    prof = decay_fit(R, v, log_power=1)
    assert prof.gamma == pytest.approx(1.0, abs=1e-10)
    assert prof.amplitude == pytest.approx(2.0, rel=1e-10)
    # without the correction the same data reads a biased exponent
    biased = decay_fit(R, v)
    assert abs(biased.gamma - 1.0) > 0.05


def test_octave_envelope_picks_maxima():
    R = np.geomspace(1, 16, 33)
    v = np.ones_like(R)
    v[::3] = 2.0  # spikes; envelope must ride them
    Re, ve = octave_envelope(R, v, windows_per_octave=1)
    assert np.all(ve == 2.0)
    assert len(Re) == 4 or len(Re) == 5


def test_octave_envelope_rejects_non_finite_R():
    with pytest.raises(ValidationError, match="positive and finite"):
        octave_envelope([1, np.nan, 4, 8], [1, 2, 3, 4])


@pytest.mark.parametrize("body", [LpBall(4.0), square()], ids=["l4_ball", "square"])
@pytest.mark.parametrize("xi", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
def test_transforms_reject_non_finite_xi(body, xi):
    for ft in (surface_ft, body_ft):
        with pytest.raises(ValidationError, match="xi must be finite"):
            ft(body, xi)


def test_window_aggregate_modes():
    R = np.geomspace(1, 4, 9)
    v = np.array([1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0])
    Rr, vr = window_aggregate(R, v, windows_per_octave=1, agg="rms")
    Rm, vm = window_aggregate(R, v, windows_per_octave=1, agg="mean")
    Rx, vx = window_aggregate(R, v, windows_per_octave=1, agg="max")
    assert np.all(vx >= vr) and np.all(vr >= vm)
    with pytest.raises(ValidationError):
        window_aggregate(R, v, agg="median")


def test_envelope_gamma_disk_surface():
    grid = np.geomspace(8, 512, 49)
    vals = np.abs(surface_ft(disk(), np.stack([grid, 0 * grid], axis=1)))
    Re, ve = octave_envelope(grid, vals, 2)
    prof = decay_fit(Re, ve)
    assert abs(prof.gamma - 0.5) <= 0.05


def test_square_pointwise_no_decay():
    grid = np.geomspace(8, 512, 49)
    vals = np.abs(surface_ft(square(), np.stack([grid, 0 * grid], axis=1)))
    Re, ve = octave_envelope(grid, vals, 2)
    prof = decay_fit(Re, ve)
    assert prof.gamma <= 0.05


def test_chord_bound_report_shapes():
    t = np.geomspace(4, 64, 13)
    rep = chord_bound_report(disk(), t, n_theta=16)
    assert rep.ratios.shape == (13, 16)
    assert rep.octave_spread >= 1.0
    assert rep.max_ratio > 0


def test_bound_scans_capped_before_allocating():
    t = np.geomspace(4, 1024, 33)  # the lemma default: 4..1024 at 4 per octave
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"cap of {_SCAN_CAP}"):
            chord_bound_report(disk(), t, n_theta=10**6)
        # 4 R x 7 xi x 3 delta, the lemma defaults, at 10^5 directions
        with pytest.raises(BudgetError, match=f"cap of {_SCAN_CAP}"):
            annulus_bound_report(disk(), [1, 2, 4, 8], 4.0 * 2.0 ** np.arange(7),
                                 [1e-3, 1e-2, 1e-1], n_theta=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_annulus_bound_report_refuses_repeated_xi():
    # a repeated |xi| used to reach np.polyfit, which warned of a rank-deficient
    # fit and still returned a slope: xi = 8 8 passed as bounded on 0.128
    for xi in ([8.0, 8.0], [16.0, 8.0, 16.0]):
        with pytest.raises(ValidationError, match=r"\|xi\| values must be distinct"):
            annulus_bound_report(disk(), [1.0], xi, [0.05])
    assert annulus_bound_report(disk(), [1.0], [8.0], [0.05]).growth_slope == 0.0


def test_spherical_average_nodes_capped_before_allocating():
    for R in (math.inf, math.nan, -1.0):
        with pytest.raises(ValidationError, match="R must be finite and nonnegative"):
            spherical_average(disk(), R)
    tracemalloc.start()
    try:
        # R = 10^7 on the unit disk asks for a 3.2 * 10^8-node rule, 5 GiB of
        # frequencies; the largest R of a decay scan's default grid is 512
        with pytest.raises(BudgetError, match=f"cap of {_ANGULAR_CAP}"):
            spherical_average(disk(), 1e7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the disk evaluates every node of its rule: 32 R of them
    assert _ANGULAR_PER_UNIT * 512 * disk().diameter() * 64 <= _ANGULAR_CAP


def test_panel_buckets_quarter_octave():
    # every panel count up to the cap: a bucket covers need with less than
    # a quarter to spare, and is a multiple of 4, so the rule pairs each
    # node with its antipode
    need = np.arange(4, (1 << 15) + 1)
    buckets = _panel_buckets(need.astype(float))
    assert np.all(buckets == np.round(buckets))
    b = buckets.astype(np.int64)
    assert np.all(b >= need) and np.all(b % 4 == 0)
    assert np.all(b[need >= 16] < 1.25 * need[need >= 16])
    octave = np.frexp(b)[1]
    for e in np.unique(octave):
        assert np.unique(b[octave == e]).size <= 4, e
    for q in (12, 20, 28, 40, 320):
        x, w, n = boundary_quadrature(LpBall(4.0, (2.0, 0.5)), q)
        h = len(x) // 2
        np.testing.assert_allclose(x[h:], -x[:h], rtol=0, atol=1e-13)
        np.testing.assert_allclose(w[h:], w[:h], rtol=1e-13, atol=0)
        np.testing.assert_allclose(n[h:], -n[:h], rtol=0, atol=1e-12)


def test_panel_buckets_capped_before_allocating():
    l4 = LpBall(4.0, (1.0, 1.0))
    top = _PANEL_NODE_CAP // _NODES_PER_PANEL / (_PANELS_PER_UNIT * l4.diameter())
    tracemalloc.start()
    try:
        # |xi| = 10^6 needs 2.4 * 10^6 panels, 600 MiB of boundary nodes
        for xi in ([1e6, 0.0], [0.0, top * 1.001]):
            with pytest.raises(BudgetError, match=f"cap of {_PANEL_NODE_CAP}"):
                surface_ft(l4, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest bucket under the cap runs
    assert np.isfinite(surface_ft(l4, [0.0, top * 0.999]))


def test_capability_errors():
    # frequencies are caller input: three columns are refused, not truncated
    xi = np.array([[0.0, 0.0, 0.0], [0.5, -1.0, 2.0]])
    for body in (Ellipsoid((1.0, 1.0)), LpBall(2.0), LpBall(math.inf), square()):
        for ft in (body_ft, surface_ft):
            with pytest.raises(ValidationError, match="xi must be planar"):
                ft(body, xi)
    with pytest.raises(ValidationError, match="xi must be planar"):
        annulus_ft(disk(), xi, AnnulusSpec(10.0, 0.5))
    # a planar body outside the polygon, ellipse and 1 < p < inf families
    blob = type("Blob", (ConvexBody,), {"dim": 2})()
    for ft in (body_ft, surface_ft):
        with pytest.raises(CapabilityError, match="no planar transform for Blob"):
            ft(blob, [1.0, 2.0])
