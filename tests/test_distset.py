"""Distance-set counting: exact oracles, fast-path equivalence, scans."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaugedist import (
    AtomicMeasure,
    BudgetError,
    CantorSpec,
    CapabilityError,
    DioSpec,
    Ellipsoid,
    InsufficientDataError,
    LpBall,
    Polygon2D,
    PointSet,
    ValidationError,
    annulus_bound_report,
    box_dim,
    cantor_build,
    chord_bound_report,
    curvature_condition,
    diamond,
    disk,
    distance_set,
    growth_fit,
    growth_scan,
    polygonality_probe,
    radial_polygon,
    random_symmetric_hexagon,
    regular_polygon,
    separated_check,
    square,
    well_distributed_check,
)
from gaugedist import _blocks, distset
from gaugedist._blocks import _BLOCK_ENTRIES
from gaugedist.distset import (_FRACTION_CAP, _HISTOGRAM_CAP, _LATTICE_CAP, _cleared_faces,
                               _difference_rows)

linf = LpBall(np.inf, (1.0, 1.0))
l1 = LpBall(1.0, (1.0, 1.0))


def test_lattice_point_count():
    for q in (1, 4, 9):
        S = PointSet.lattice(q)
        assert S.n == (q + 1) ** 2
        assert S.dim == 2


def test_lattice_points_match_sorted_unique_grid():
    # the lattice skips the constructor's sort; np.unique of a shuffled grid
    # is the oracle for its order and its distinctness
    rng = np.random.default_rng(4)
    for q in (1, 2, 7, 64):
        grid = np.array(list(itertools.product(range(q + 1), repeat=2)), dtype=float)
        want = np.unique(grid[rng.permutation(len(grid))], axis=0)
        S = PointSet.lattice(q)
        assert S.points.dtype == want.dtype and S.points.shape == want.shape
        assert S.points.tobytes() == want.tobytes(), q
        assert S.n == len(want)
        assert np.array_equal(S._exact[0], want.astype(np.int64)) and S._exact[1] == 1


def test_explicit_dedup():
    S = PointSet(np.array([[0, 0], [1, 0], [0, 0], [1, 0]]))
    assert S.n == 2


def test_explicit_exact_points_deduped_like_float_points():
    assert distance_set(PointSet([[0, 0], [0, 0], [3, 0]]), linf,
                        "exact_rational").count == 1
    raw = np.random.default_rng(2).integers(-3, 4, size=(60, 2))
    third = [(Fraction(int(a), 3), Fraction(int(b), 2)) for a, b in raw]
    for pts in (raw, raw.tolist(), third, third[::-1]):
        S = PointSet(pts)
        assert S.n < len(pts)  # the input repeats points
        for body in (disk(), linf, l1, diamond()):
            exact = distance_set(S, body, "exact_rational")
            fl = distance_set(S, body, "float_tol")
            assert exact.count == fl.count
            np.testing.assert_array_equal(exact.multiplicities, fl.multiplicities)
            assert exact.multiplicities.sum() == S.n * (S.n - 1) // 2


def test_explicit_exact_points_that_round_together_rejected():
    # both modes count the same n points, or neither does
    with pytest.raises(ValidationError, match="3 distinct exact points round to 2"):
        PointSet([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                           (Fraction(10**16 + 1, 10**16), Fraction(0))])
    with pytest.raises(ValidationError, match="3 distinct exact points round to 2"):
        PointSet([[2**60, 0], [2**60 + 1, 0], [0, 0]])
    # numpy reads this list as float64, which used to leave one float point
    # and no exact copy
    with pytest.raises(ValidationError, match="2 distinct exact points round to 1"):
        PointSet([[2**63 + 1, 0], [2**63, 0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_points_rejected(bad):
    with pytest.raises(ValidationError, match=r"finite; row 0 is \[(nan|inf), 0.0\]"):
        PointSet([[bad, 0.0], [1.0, 0.0]])


def test_exact_mode_needs_exact_polygon_vertices():
    h = np.random.default_rng(4).uniform(0.9, 1.1, 4)
    for body in (regular_polygon(6), random_symmetric_hexagon(np.random.default_rng(1)),
                 radial_polygon(np.concatenate([h, h]))):
        for S in (PointSet.lattice(4), PointSet([[0, 0], [1, 2], [3, 1]])):
            with pytest.raises(CapabilityError, match="rational Polygon2D"):
                distance_set(S, body, "exact_rational")


def test_polygon_exactness_comes_from_its_vertices():
    # integer and Fraction vertices are diamond()'s exact polygon; integer
    # vertices used to refuse exact mode
    ints = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    fracs = [(Fraction(x), Fraction(y)) for x, y in ints]
    thirds = PointSet([(Fraction(a, 3), Fraction(b, 2))
                       for a, b in itertools.product(range(-3, 4), repeat=2)])
    for S in (PointSet.lattice(4), thirds):
        want = distance_set(S, diamond(), "exact_rational")
        for V in (ints, fracs, np.array(ints)):
            got = distance_set(S, Polygon2D(V), "exact_rational")
            assert got.values.tobytes() == want.values.tobytes()
            assert got.multiplicities.tobytes() == want.multiplicities.tobytes()
    assert distance_set(PointSet.lattice(4), Polygon2D(ints), "exact_rational").count == 8
    with pytest.raises(CapabilityError, match="rational Polygon2D"):
        distance_set(thirds, Polygon2D(np.array(ints, dtype=float)), "exact_rational")
    # Fraction vertices keep the copy; the floats are its rounding
    third = Polygon2D([(x / 3, y / 3) for x, y in diamond().exact_vertices])
    assert third.exact_vertices[0] == (Fraction(1, 3), 0)
    assert third.vertices.tolist() == [[float(x), float(y)] for x, y in third.exact_vertices]


def test_exact_round_ball_keys_past_int64_rejected():
    # squared l2 keys past 2^63 used to wrap: exact values [0, 92681.9]
    S = PointSet([[0, 0], [2**32, 0], [0, 2**32 + 1]])
    np.testing.assert_allclose(distance_set(S, LpBall(2.0)).values,
                               [2.0**32, math.hypot(2.0**32, 2.0**32 + 1)])
    with pytest.raises(CapabilityError, match=r"squared l2 keys reach .* bound 2\^63"):
        distance_set(S, LpBall(2.0), "exact_rational")
    # differences past 2^63 wrapped as well, and so did np.ptp over them
    S = PointSet([[0, 0], [2**62, 0], [-2**62, 0]])
    assert distance_set(S, linf).count == 2
    with pytest.raises(CapabilityError, match=f"coordinate differences reach {2**63},"):
        distance_set(S, linf, "exact_rational")
    with pytest.raises(CapabilityError, match="l1 keys reach"):
        distance_set(PointSet([[0, 0], [2**62, 0], [0, 2**62]]), l1, "exact_rational")
    # an unsigned coordinate past int64 used to wrap in the exact copy
    S = PointSet(np.array([[0, 0], [3 << 62, 0], [0, 1]], dtype=np.uint64))
    with pytest.raises(CapabilityError, match="coordinates over their common denominator"):
        distance_set(S, linf, "exact_rational")
    # just inside the bound the exact keys count
    S = PointSet([[0, 0], [2**31 - 1, 0], [0, 2**31 - 1]])
    exact = distance_set(S, LpBall(2.0), "exact_rational")
    assert exact.count == 2 and exact.values.tobytes() == distance_set(S, disk()).values.tobytes()


def test_exact_fraction_coordinates_past_int64_rejected():
    # cleared to their common denominator 3^40 7^30 these coordinates pass
    # int64; they used to end in a bare OverflowError
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 3**40), Fraction(0)),
           (Fraction(0), Fraction(1, 7**30))]
    S = PointSet(pts)
    assert distance_set(S, disk()).count == 2  # the hypotenuse merges within 1e-9
    with pytest.raises(CapabilityError, match="coordinates over their common denominator "
                                              r"reach \d+, past the int64 bound 2\^63"):
        distance_set(S, disk(), "exact_rational")


def test_unit_square_distances():
    corners = PointSet(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
    ds = distance_set(corners, disk(), "exact_rational")
    np.testing.assert_allclose(ds.values, [1.0, math.sqrt(2.0)])
    np.testing.assert_array_equal(ds.multiplicities, [4, 2])
    ds_inf = distance_set(corners, linf, "exact_rational")
    np.testing.assert_allclose(ds_inf.values, [1.0])
    np.testing.assert_array_equal(ds_inf.multiplicities, [6])


def test_lattice4_linf_exact():
    S = PointSet.lattice(4)
    fast = distance_set(S, linf, "exact_rational")
    brute = distance_set(PointSet(S.points.astype(np.int64)),
                         linf, "exact_rational")
    np.testing.assert_allclose(fast.values, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(fast.values, brute.values)
    np.testing.assert_array_equal(fast.multiplicities, brute.multiplicities)
    assert fast.multiplicities.sum() == 25 * 24 // 2


def test_multiplicities_sum_to_pair_count(rng):
    bodies = [disk(), square(), diamond(), random_symmetric_hexagon(rng)]
    for q in (3, 7, 12):
        S = PointSet.lattice(q)
        n_pairs = S.n * (S.n - 1) // 2
        for body in bodies:
            ds = distance_set(S, body, "float_tol")
            assert ds.multiplicities.sum() == n_pairs
            assert ds.count == len(ds.values)
            assert np.all(np.diff(ds.values) > 0)
            gaps = np.diff(ds.values)
            assert ds.min_gap == pytest.approx(gaps.min())


def test_fast_path_matches_brute_force(rng):
    bodies = [disk(), square(), diamond(), random_symmetric_hexagon(rng)]
    for q in (8, 16, 24):
        S = PointSet.lattice(q)
        B = PointSet(S.points + 0.0)  # strips provenance
        for body in bodies:
            fast = distance_set(S, body, "float_tol")
            brute = distance_set(B, body, "float_tol")
            assert fast.count == brute.count
            np.testing.assert_allclose(fast.values, brute.values, rtol=1e-9)
            np.testing.assert_array_equal(fast.multiplicities,
                                          brute.multiplicities)


def test_fast_path_matches_brute_exact():
    S = PointSet.lattice(16)
    B = PointSet(S.points.astype(np.int64))
    for body in (disk(), linf, l1, diamond(), square()):
        fast = distance_set(S, body, "exact_rational")
        brute = distance_set(B, body, "exact_rational")
        np.testing.assert_array_equal(fast.values, brute.values)
        np.testing.assert_array_equal(fast.multiplicities, brute.multiplicities)
        assert fast.exact is not None


def test_sums_of_two_squares_oracle():
    for q in (8, 16, 32):
        want = len({a * a + b * b for a in range(q + 1) for b in range(q + 1)} - {0})
        ds = distance_set(PointSet.lattice(q), disk(), "exact_rational")
        assert ds.count == want


def test_linf_lattice_count_equals_q():
    for q in (16, 64):
        ds = distance_set(PointSet.lattice(q), linf, "exact_rational")
        assert ds.count == q
    ds1 = distance_set(PointSet.lattice(32), l1, "exact_rational")
    assert ds1.count == 2 * 32  # l1 values are the integers 1..2q


def test_isometry_invariance():
    S = PointSet.lattice(12)
    base = distance_set(S, disk(), "float_tol")
    for angle in (0.3, math.pi / 6, 1.2):
        R = PointSet.rotated_lattice(12, angle)
        rot = distance_set(R, disk(), "float_tol")
        assert rot.count == base.count
        np.testing.assert_allclose(rot.values, base.values, rtol=1e-9)


def test_scaling_covariance_exact():
    pts = np.array([[0, 0], [1, 0], [0, 1], [2, 2], [3, 1]], dtype=np.int64)
    # linf values are integers: any integer scale is exact in floats
    a = distance_set(PointSet(pts), linf, "exact_rational")
    b = distance_set(PointSet(3 * pts), linf, "exact_rational")
    np.testing.assert_array_equal(b.values, 3.0 * a.values)
    # Euclidean values are sqrt(int): scale by 4 so sqrt(16 k) = 4 sqrt(k)
    # holds bit-exactly under correctly rounded sqrt
    a = distance_set(PointSet(pts), disk(), "exact_rational")
    b = distance_set(PointSet(4 * pts), disk(), "exact_rational")
    np.testing.assert_array_equal(b.values, 4.0 * a.values)
    c = distance_set(PointSet(3 * pts), disk(), "exact_rational")
    np.testing.assert_allclose(c.values, 3.0 * a.values, rtol=1e-15)


def test_count_monotone_in_q(rng):
    hexg = random_symmetric_hexagon(rng)
    for body in (disk(), hexg):
        counts = [distance_set(PointSet.lattice(q), body, "float_tol").count
                  for q in (2, 4, 8, 12, 16)]
        assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


def test_rotated_exact_mode_unsupported():
    with pytest.raises(CapabilityError):
        distance_set(PointSet.rotated_lattice(4, 0.5), disk(), "exact_rational")


def test_exact_mode_rejects_float_points():
    S = PointSet(np.array([[0.5, 0.25], [1.0, 0.75]]))
    with pytest.raises((CapabilityError, ValidationError)):
        distance_set(S, disk(), "exact_rational")


def test_exact_mode_fraction_points():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
           (Fraction(0), Fraction(3, 4))]
    S = PointSet(pts)
    ds = distance_set(S, diamond(), "exact_rational")
    assert ds.exact
    # l1 gauge of rational points: exact dyadic values
    assert ds.values.tolist() == [0.5, 0.75, 1.25]


def test_pair_cap_budget_error():
    # 20 001 points make 200 010 000 pairs, just past the cap of 2 * 10^8
    rng = np.random.default_rng(1)
    S = PointSet(rng.normal(size=(20_001, 2)))
    assert S.n * (S.n - 1) // 2 > distset._PAIR_CAP
    with pytest.raises(BudgetError, match=f"cap of {distset._PAIR_CAP}"):
        distance_set(S, disk(), "float_tol")


def test_point_set_structure_comes_from_its_constructor():
    # a caller cannot assert lattice structure the points lack
    with pytest.raises(TypeError):
        PointSet([[0, 0], [1, 0]], "lattice", q=2)
    ints = [[0, 0], [3, 1], [1, 2], [3, 1], [5, 5]]
    sets = [PointSet(ints),
            PointSet([(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(2, 7)),
                      (Fraction(1, 3), Fraction(2, 7))]),
            PointSet.lattice(6), PointSet.rotated_lattice(6, 0.3),
            PointSet.perturbed_lattice(6, 2, 0.2)]
    assert [(S.provenance, S.q, S.angle) for S in sets[-3:]] == [
        ("lattice", 6, None), ("rotated_lattice", 6, 0.3), ("perturbed_lattice", None, None)]
    assert all((S.provenance, S.q, S.angle) == ("explicit", None, None) for S in sets[:2])
    for S in sets:
        ds = distance_set(S, linf)
        assert ds.multiplicities.sum() == S.n * (S.n - 1) // 2
        assert ds.count == len(ds.values)
        assert ds.min_gap == float(np.min(np.diff(ds.values)))
    single = distance_set(PointSet([[1, 2]]), linf, "exact_rational")
    assert single.count == 0 and single.min_gap == math.inf


def test_jitter_validation():
    with pytest.raises(ValidationError):
        PointSet.perturbed_lattice(4, 0, 0.5)
    S = PointSet.perturbed_lattice(4, 0, 0.49)
    assert S.n == 25


def test_well_distributed_lattice():
    S = PointSet.lattice(16)
    rep = well_distributed_check(S, 1.5)
    assert rep.ok and rep.witness is None

    # delete a 3x3 block: a C=1.5 cube fits in the hole
    pts = S.points
    keep = ~((pts[:, 0] >= 3) & (pts[:, 0] <= 5)
             & (pts[:, 1] >= 3) & (pts[:, 1] <= 5))
    holed = PointSet(pts[keep])
    rep = well_distributed_check(holed, 1.5)
    assert not rep.ok
    # the witness certifies a genuinely empty cube
    w = np.asarray(rep.witness)
    inside = np.all((holed.points >= w - 1e-9)
                    & (holed.points <= w + 1.5 + 1e-9), axis=1)
    assert not inside.any()


def test_well_distributed_perturbed():
    S = PointSet.perturbed_lattice(16, 3, 0.25)
    assert well_distributed_check(S, 2.0).ok


def _covered_by_loop(S, C):
    """The cube-coverage grid of well_distributed_check, marked point by point."""
    lo, hi = S.bounding_box()
    half = C / 2.0
    kmax = np.floor((hi - lo - C) / half + 1e-12).astype(int)
    covered = np.zeros(tuple(int(k) + 1 for k in kmax), dtype=bool)
    t = (S.points - lo) / half
    los = np.maximum(np.ceil(t - 2.0 - 1e-12).astype(int), 0)
    his = np.minimum(np.floor(t + 1e-12).astype(int), kmax)
    for p_lo, p_hi in zip(los, his):
        if np.any(p_lo > p_hi):
            continue
        covered[tuple(slice(a, b + 1) for a, b in zip(p_lo, p_hi))] = True
    return lo, half, covered


def test_well_distributed_matches_point_loop():
    rng = np.random.default_rng(7)
    cases = [(PointSet.lattice(16), 1.5), (PointSet.perturbed_lattice(20, 4, 0.45), 1.2),
             (PointSet.rotated_lattice(12, 0.7), 1.1)]
    cases += [(PointSet(rng.uniform(0, 10, size=(n, 2))), C)
              for n in (30, 120, 400) for C in (0.7, 1.3, 2.5)]
    verdicts = set()
    for S, C in cases:
        lo, half, covered = _covered_by_loop(S, C)
        rep = well_distributed_check(S, C)
        assert rep.ok == bool(covered.all())
        verdicts.add(rep.ok)
        if not rep.ok:
            idx = np.unravel_index(np.argmin(covered), covered.shape)
            want = lo + half * np.array(idx, dtype=float)
            assert rep.witness.tobytes() == want.tobytes()
    assert verdicts == {True, False}


def test_separated_lattice():
    rep = separated_check(PointSet.lattice(8), 1.0)
    assert rep.ok
    assert rep.min_distance == pytest.approx(1.0)

    pts = np.concatenate([PointSet.lattice(8).points, [[0.5, 0.0]]])
    rep = separated_check(PointSet(pts), 1.0)
    assert not rep.ok
    assert rep.min_distance == pytest.approx(0.5)


@given(st.floats(0.01, 3.1))
@settings(max_examples=20)
def test_separated_rotation_invariant(angle):
    rep = separated_check(PointSet.rotated_lattice(6, angle), 1.0)
    assert rep.ok


def _brute_min_distance(pts):
    i, j = np.triu_indices(len(pts), k=1)
    return float(np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1)).min())


def test_separated_check_matches_brute_force():
    rng = np.random.default_rng(11)
    triples = np.array([[0, 0], [3, 4], [6, 8], [9, 12], [4, -3], [-3, 4]], dtype=float)
    cases = [(rng.uniform(0, 10, size=(n, 2)), c) for n in (2, 3, 17, 200) for c in (0.1, 0.5)]
    cases += [(rng.uniform(0, 1, size=(150, 2)), 0.05),
              # repeated rows collapse in PointSet
              (np.repeat(rng.integers(0, 6, size=(40, 2)), 3, axis=0).astype(float), 1.0),
              # points exactly c apart, at several scales
              (triples, 5.0), (0.1 * triples, 0.5), (7.0 * triples, 35.0),
              (PointSet.rotated_lattice(20, 0.7).points, 1.0),
              (np.array([[0.0, 0.0], [1e-3, 0.0]]), 1e-3)]
    for pts, c in cases:
        S = PointSet(pts)
        want = _brute_min_distance(S.points)
        rep = separated_check(S, c)
        assert rep.min_distance == pytest.approx(want, rel=1e-15, abs=0)
        assert rep.ok == (want >= c * (1.0 - 1e-12))
    assert separated_check(PointSet(triples), 5.0).ok
    assert not separated_check(PointSet(triples), 5.0 * (1 + 1e-9)).ok


def test_cli_import_leaves_scipy_spatial_out():
    code = "import sys, gaugedist.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_growth_scan_octave_guard():
    with pytest.raises(InsufficientDataError):
        growth_scan(PointSet.lattice, linf, [8, 16, 32])


def test_growth_scan_linf_beta_one():
    rep = growth_scan(PointSet.lattice, linf, [8, 16, 32, 64],
                      alpha=2.0, mode="exact_rational")
    assert rep.beta == pytest.approx(1.0, abs=0.02)
    assert rep.bound == pytest.approx(1.0)
    assert rep.verdict
    assert polygonality_probe(rep) == "polygon_like"


def test_growth_scan_disk_curved():
    rep = growth_scan(PointSet.lattice, disk(), [8, 16, 32, 64],
                      mode="exact_rational")
    assert rep.beta > 1.4
    assert rep.verdict is None and rep.bound is None
    assert polygonality_probe(rep) == "curved_like"


def test_min_gap_trend_nonincreasing():
    rep = growth_scan(PointSet.lattice, disk(), [4, 8, 16, 32])
    assert rep.q_values.tolist() == [4, 8, 16, 32]
    assert rep.min_gaps.dtype == np.float64 and len(rep.min_gaps) == 4
    assert all(a >= b for a, b in zip(rep.min_gaps, rep.min_gaps[1:]))


def test_threads_bit_identical(rng):
    hexg = random_symmetric_hexagon(rng)
    lattice = PointSet.lattice(512)  # gauge rows: the half difference grid
    assert ((2 * 512 + 1) ** 2 - 1) // 2 >= 3 * (_BLOCK_ENTRIES // len(hexg.vertices))
    scattered = PointSet(rng.uniform(0, 40, size=(1000, 2)))  # brute force
    assert scattered.n - 1 >= 3 * (_BLOCK_ENTRIES // scattered.n)
    for S in (lattice, scattered):
        a = distance_set(S, hexg, "float_tol", threads=1)
        for threads in (2, 4):
            b = distance_set(S, hexg, "float_tol", threads=threads)
            assert b.values.tobytes() == a.values.tobytes()
            assert b.multiplicities.tobytes() == a.multiplicities.tobytes()
            assert b.min_gap == a.min_gap


# ---------------------------------------------------------------------------
# fast paths against the code they replace


def test_row_dedupe_matches_np_unique():
    q = 64
    ij = np.stack(np.meshgrid(np.arange(q + 1), np.arange(q + 1), indexing="ij"),
                  axis=-1).reshape(-1, 2).astype(float)
    c, s = math.cos(0.7), math.sin(0.7)
    noise = np.random.default_rng(5).uniform(-0.3, 0.3, size=ij.shape)
    cases = [
        (PointSet.lattice(q), ij),
        (PointSet.rotated_lattice(q, 0.7), ij @ np.array([[c, -s], [s, c]]).T),
        (PointSet.perturbed_lattice(q, 5, 0.3), ij + noise),
    ]
    rng = np.random.default_rng(1)
    for raw in (rng.integers(-3, 4, size=(500, 2)), rng.integers(0, 2, size=(40, 2)),
                np.repeat(rng.normal(size=(30, 2)), 3, axis=0)[rng.permutation(90)]):
        cases.append((PointSet(raw), raw.astype(float)))
    for S, raw in cases:
        want = np.unique(raw, axis=0)
        assert S.points.shape == want.shape
        assert S.points.tobytes() == want.tobytes()


def test_distinct_values_match_np_unique():
    rng = np.random.default_rng(2)
    for a in (rng.integers(-5, 6, size=300), rng.integers(0, 9, size=(20, 7)),
              np.repeat(rng.normal(size=40), 3), np.array([7]), np.empty(0, dtype=np.int64)):
        got, want = _blocks.distinct(a), np.unique(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_lattice_families_match_deduped_lattice_construction():
    # the construction these families used before building their float grid
    # directly; the rotated lattice builds it on first read and counts its
    # points without it
    for q in (1, 7, 64):
        base = PointSet.lattice(q).points
        for angle in (0.0, 0.7, math.pi / 3):
            c, s = math.cos(angle), math.sin(angle)
            rotated = PointSet(base @ np.array([[c, -s], [s, c]]).T)
            lazy = PointSet.rotated_lattice(q, angle)
            assert lazy.n == (q + 1) ** 2
            assert lazy.points.tobytes() == rotated.points.tobytes()
            assert lazy.n == rotated.n
        noise = np.random.default_rng(5).uniform(-0.3, 0.3, size=base.shape)
        perturbed = PointSet(base + noise)
        assert PointSet.perturbed_lattice(q, 5, 0.3).points.tobytes() == perturbed.points.tobytes()


def _full_grid_half(q):
    axis = np.arange(-q, q + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[(grid[:, 0] > 0) | ((grid[:, 0] == 0) & (grid[:, 1] > 0))]
    return grid, np.prod(q + 1 - np.abs(grid), axis=1).astype(np.int64)


def _divmod_difference_rows(q, rows):
    """_difference_rows row by row: both coordinates of every row from a
    divmod of its index in the full grid."""
    base = 2 * q + 1
    idx = np.arange(rows.start, rows.stop, dtype=np.int64) + (base * base + 1) // 2
    a, b = np.divmod(idx, base)
    vecs = np.stack([a - q, b - q], axis=1)
    return vecs, np.prod(q + 1 - np.abs(vecs), axis=1)


@pytest.mark.parametrize("q", [1, 2, 5])
def test_half_difference_grid_matches_full_grid_filter(q):
    want_grid, want_weights = _full_grid_half(q)
    n_vecs = ((2 * q + 1) ** 2 - 1) // 2
    grid, weights = _difference_rows(q, range(n_vecs))
    assert grid.dtype == want_grid.dtype and weights.dtype == want_weights.dtype
    np.testing.assert_array_equal(grid, want_grid)
    np.testing.assert_array_equal(weights, want_weights)
    # every unordered pair of [0, q]^2 is counted once
    n = (q + 1) ** 2
    assert weights.sum() == n * (n - 1) // 2
    # any split of the rows concatenates to the whole half grid, each part
    # with the bits of the per-row divmod form; the parts start and stop
    # inside grid lines, on their ends, and across several
    for step in (1, 3, 7, 2 * q, 2 * q + 1, 2 * q + 2):
        ranges = [range(a, min(a + step, n_vecs)) for a in range(0, n_vecs, step)]
        parts = [_difference_rows(q, rows) for rows in ranges]
        np.testing.assert_array_equal(np.concatenate([v for v, _ in parts]), want_grid)
        np.testing.assert_array_equal(np.concatenate([w for _, w in parts]), want_weights)
        for rows, part in zip(ranges, parts):
            for got, old in zip(part, _divmod_difference_rows(q, rows)):
                assert got.dtype == old.dtype and got.shape == old.shape
                assert got.tobytes() == old.tobytes(), (q, rows)


def test_growth_fit_matches_growth_scan(rng):
    qs = [4, 8, 16, 32]
    for body, mode, alpha in ((linf, "exact_rational", 2.0), (disk(), "float_tol", None),
                              (random_symmetric_hexagon(rng), "float_tol", 4.0 / 3.0)):
        scan = growth_scan(PointSet.lattice, body, [32, 8, 16, 4, 8], alpha=alpha,
                           mode=mode)
        sets = [distance_set(PointSet.lattice(q), body, mode) for q in qs]
        fit = growth_fit(qs, [ds.count for ds in sets], alpha=alpha)
        for name in ("beta", "amplitude", "bound", "verdict", "n_fit"):
            assert getattr(fit, name) == getattr(scan, name), name
        np.testing.assert_array_equal(fit.q_values, scan.q_values)
        np.testing.assert_array_equal(fit.counts, scan.counts)
        assert fit.q_values.dtype == scan.q_values.dtype == np.int64
        assert fit.min_gaps is None
        assert scan.min_gaps.dtype == np.float64
        want = np.array([ds.min_gap for ds in sets], dtype=np.float64)
        assert scan.min_gaps.tobytes() == want.tobytes()


def test_growth_fit_input_checks():
    with pytest.raises(ValidationError):
        growth_fit([8, 4, 16, 64], [1, 2, 3, 4])
    with pytest.raises(ValidationError):
        growth_fit([4, 8, 16, 32], [1, 2, 3])
    with pytest.raises(InsufficientDataError):
        growth_fit([4, 8, 16], [1, 2, 3])
    with pytest.raises(InsufficientDataError):  # one point in the fit window
        growth_fit([1, 2, 1000], [1, 2, 3])
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="alpha must be positive and finite"):
            growth_fit([4, 8, 16, 32], [1, 2, 3, 4], alpha=alpha)
        with pytest.raises(ValidationError, match="alpha must be positive and finite"):
            growth_scan(PointSet.lattice, disk(), [4, 8, 16, 32], alpha=alpha)


def test_growth_fit_needs_positive_counts_in_its_window():
    # log(0) used to warn and give a non-finite beta
    with pytest.raises(InsufficientDataError, match="q = 8 counts 0"):
        growth_fit([8, 16, 32, 64], [0, 1, 2, 3])
    # a zero count below the window is never read
    assert math.isfinite(growth_fit([1, 8, 16, 32, 64], [0, 1, 2, 3, 4]).beta)


_BAD_LATTICES = {
    "lattice q 4.5": (lambda: PointSet.lattice(4.5), "lattice needs q >= 1, an integer, got 4.5"),
    "perturbed q 4.5": (lambda: PointSet.perturbed_lattice(4.5, 0, 0.1),
                        "lattice needs q >= 1, an integer, got 4.5"),
    "rotated inf": (lambda: PointSet.rotated_lattice(4, math.inf), "angle must be finite"),
    "rotated nan": (lambda: PointSet.rotated_lattice(4, math.nan), "angle must be finite"),
    "dio q 4.5": (lambda: DioSpec(PointSet.lattice(4), 4.5, 1.0),
                  "q must be an integer >= 1, got 4.5"),
}


@pytest.mark.parametrize("name", list(_BAD_LATTICES))
def test_lattice_parameters_checked(name):
    # a fractional q reported n = 30.25 for 36 points, an infinite angle
    # ended in a math domain error and a NaN angle counted 1 distance
    build, message = _BAD_LATTICES[name]
    with pytest.raises(ValidationError, match=message):
        build()


_NAN_PROBES = {
    "separated_check": lambda: separated_check(PointSet.lattice(2), math.nan),
    "well_distributed_check": lambda: well_distributed_check(PointSet.lattice(2), math.nan),
    "curvature_condition": lambda: curvature_condition(square(), [math.nan, 0.1, 0.01]),
    "chord_bound_report": lambda: chord_bound_report(square(), [math.nan, 4, 8]),
    "box_dim zero": lambda: box_dim(cantor_build(CantorSpec(2, 3)),
                                    [Fraction(1, 2), 0, Fraction(1, 8)]),
    "box_dim negative": lambda: box_dim(cantor_build(CantorSpec(2, 3)),
                                        [Fraction(1, 2), -0.25, Fraction(1, 8)]),
    "annulus n_theta": lambda: annulus_bound_report(disk(), [1.0], [4.0], [0.05], n_theta=0),
}


@pytest.mark.parametrize("name", list(_NAN_PROBES))
def test_nan_and_nonpositive_parameters_refused(name):
    # each passed a `x <= 0` check: it returned a report, warned, or ended in
    # a ZeroDivisionError or a bare numpy ValueError
    with pytest.raises(ValidationError):
        _NAN_PROBES[name]()


def test_lattice_grids_capped_before_allocating():
    tracemalloc.start()
    try:
        for build in (PointSet.lattice, lambda q: PointSet.rotated_lattice(q, 0.7)):
            with pytest.raises(BudgetError, match=f"cap of {_LATTICE_CAP}"):
                build(10**6)
            with pytest.raises(ValidationError, match="lattice needs q >= 1"):
                build(0)
            # the cap admits q = 2047 and refuses q = 2048; the lattice
            # builds no points until they are read
            assert build(2047).n == 2048 ** 2
            with pytest.raises(BudgetError, match=f"4198401 lattice points exceeds the cap "
                                                  f"of {_LATTICE_CAP}"):
                build(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # so no admitted lattice has a half difference grid of 2^23 vectors
    assert (2047 + 1) ** 2 <= _LATTICE_CAP < (2048 + 1) ** 2
    assert ((2 * 2047 + 1) ** 2 - 1) // 2 < 1 << 23


def _fine_rational_polygon(n=64, den=10**6):
    """A regular n-gon with rational vertices whose cleared face keys overflow int64."""
    half = [(Fraction(math.cos(2 * math.pi * k / n)).limit_denominator(den),
             Fraction(math.sin(2 * math.pi * k / n)).limit_denominator(den))
            for k in range(n // 2)]
    ev = half + [(-x, -y) for x, y in half]
    return Polygon2D(ev)


def test_exact_polygon_rational_fallback():
    body = _fine_rational_polygon()
    S = PointSet.lattice(3)
    exact = distance_set(S, body, "exact_rational")
    assert exact.exact
    assert exact.count == distance_set(S, body).count
    assert exact.multiplicities.sum() == S.n * (S.n - 1) // 2


def test_exact_polygon_rational_fallback_capped_before_allocating():
    body = _fine_rational_polygon()
    S = PointSet.lattice(91)  # 16 744 difference vectors x 64 faces
    assert ((2 * 91 + 1) ** 2 - 1) // 2 * 64 > _FRACTION_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"cap of {_FRACTION_CAP}"):
            distance_set(S, body, "exact_rational")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_polygon_gauge_blocked_by_face_count():
    # a 256-gon gauge holds rows x 256 entries: unblocked, the lattice sweep
    # below peaks near 33 MiB and the brute-force one near 1 GiB.  Exact keys
    # used to be unblocked as well: the rational 16-gon on lattice(256)
    # peaked at 26 MiB, on 1 681 explicit points at 304 MiB, and linf on
    # those points at 132 MiB.  Python-integer keys are blocked by their
    # size: the 64-gon with 10^6 denominators on lattice(64) peaked at 30 MiB
    # when they were blocked like int64 keys.  The lattice difference grid
    # was built whole: lattice(1024) under an integer hexagon peaked at
    # 80 MiB in either mode.  Each block's distinct keys were kept to the
    # end: 419 000 rows for the 12 274 distances of the last hexagon below,
    # a 23 MiB peak
    gon = regular_polygon(256)
    hexagon = Polygon2D(_INT_HEXAGON)
    rational = _fine_rational_polygon(16, 10)
    points = PointSet(PointSet.lattice(40).points.astype(np.int64))
    for S, body, mode, cap in (
            (PointSet.lattice(64), gon, "float_tol", 16 << 20),
            (PointSet(PointSet.lattice(40).points), gon, "float_tol", 32 << 20),
            (PointSet.lattice(256), rational, "exact_rational", 16 << 20),
            (points, rational, "exact_rational", 24 << 20),
            (points, linf, "exact_rational", 24 << 20),
            (PointSet.lattice(64), _fine_rational_polygon(), "exact_rational", 4 << 20),
            (PointSet.lattice(1024), hexagon, "exact_rational", 16 << 20),
            (PointSet.lattice(1024), hexagon, "float_tol", 16 << 20),
            (PointSet.lattice(1024), Polygon2D(_KEYED_HEXAGON), "float_tol", 8 << 20)):
        tracemalloc.start()
        try:
            distance_set(S, body, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cap, (S, mode)


@st.composite
def _rational_zonotopes(draw):
    """A random centrally symmetric convex polygon with rational vertices.

    The Minkowski sum of segments [-g, g] over 2..4 generators of distinct
    directions; its edges are 2g then -2g in order of angle.
    """
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    gens = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=4))
    gens = [(-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y) for x, y in gens]
    gens = [g for g in gens if g != (0, 0)]
    assume(len(gens) >= 2)
    assume(all(a[0] * b[1] != a[1] * b[0] for i, a in enumerate(gens) for b in gens[:i]))
    gens.sort(key=lambda g: math.atan2(g[1], g[0]))
    v = (-sum(g[0] for g in gens), -sum(g[1] for g in gens))
    verts = []
    for sign in (2, -2):
        for gx, gy in gens:
            verts.append(v)
            v = (v[0] + sign * gx, v[1] + sign * gy)
    return Polygon2D(verts)


@given(_rational_zonotopes(), st.integers(1, 24))
@settings(max_examples=40)
def test_exact_matches_float_on_rational_polygons(body, q):
    S = PointSet.lattice(q)
    exact = distance_set(S, body, "exact_rational")
    fl = distance_set(S, body, "float_tol")
    assert exact.count == fl.count
    np.testing.assert_allclose(fl.values, exact.values, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(fl.multiplicities, exact.multiplicities)


# ---------------------------------------------------------------------------
# the blocked pipeline against the unblocked computation it replaced


def _reference_distance_set(S, body, mode):
    """(values, multiplicities) as distance_set computed them before its
    blocked pipeline: every difference vector at once and one sort, with
    integer keys in exact mode, or one Fraction per vector where a rational
    polygon's cleared keys reach 2^52.  A polygon's float gauge is computed
    here rows x faces, not by Polygon2D.gauge, whose faces x rows layout
    must give the same bits."""
    if S.provenance in ("lattice", "rotated_lattice"):
        diffs, w = _full_grid_half(S.q)
        vecs, den = diffs.astype(float), 1
        if S.angle is not None:
            c, s = math.cos(S.angle), math.sin(S.angle)
            vecs = vecs @ np.array([[c, s], [-s, c]])
    else:
        i, j = np.triu_indices(S.n, k=1)
        w = np.ones(len(i), dtype=np.int64)
        vecs = S.points[i] - S.points[j]
        if mode == "exact_rational":
            ints, den = S._exact
            diffs = ints[i] - ints[j]
    if mode == "float_tol":
        if isinstance(body, Polygon2D):
            vals = np.max(vecs @ body._face_n.T / body._face_c, axis=-1)
        else:
            vals = body.gauge(vecs)
        order = np.argsort(vals, kind="stable")
        vals, w = vals[order], w[order]
        keep = np.concatenate([[True], np.diff(vals) > 1e-9 * vals[1:]])
        return vals[keep], np.add.reduceat(w, np.flatnonzero(keep))
    scale = Fraction(1, den)
    if isinstance(body, Polygon2D):
        faces = []
        V = body.exact_vertices
        for (x1, y1), (x2, y2) in zip(V, V[1:] + V[:1]):
            nx, ny = y2 - y1, x1 - x2
            c = nx * x1 + ny * y1
            d = math.lcm(nx.denominator, ny.denominator, c.denominator)
            faces.append((int(nx * d), int(ny * d), int(c * d)))
        L = math.lcm(*(c for _, _, c in faces))
        M = [(nx * (L // c), ny * (L // c)) for nx, ny, c in faces]
        if max(abs(a) + abs(b) for a, b in M) * int(np.abs(diffs).max()) >= 2**52:
            acc = {}
            for (dx, dy), wt in zip(diffs.tolist(), w.tolist()):
                val = max(Fraction(nx * dx + ny * dy, c) for nx, ny, c in faces)
                acc[val] = acc.get(val, 0) + wt
            keys = sorted(acc)
            return (np.array([float(k * scale) for k in keys]),
                    np.array([acc[k] for k in keys], dtype=np.int64))
        keys = (diffs @ np.array(M, dtype=np.int64).T).max(axis=1)
        render = lambda u: u.astype(float) * (float(scale) / L)  # noqa: E731
    else:
        s = float(scale) * (1.0 / float(body.semi_axes[0]))
        p = getattr(body, "p", 2.0)
        if p == 2:
            keys = np.einsum("ij,ij->i", diffs, diffs)
            render = lambda u: np.sqrt(u.astype(float)) * s  # noqa: E731
        else:
            keys = np.abs(diffs).sum(axis=1) if p == 1 else np.abs(diffs).max(axis=1)
            render = lambda u: u.astype(float) * s  # noqa: E731
    uniq, inv = np.unique(keys, return_inverse=True)
    mult = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(mult, inv, w)
    return render(uniq), mult


_INT_HEXAGON = [(3, -1), (2, 2), (-1, 3), (-3, 1), (-2, -2), (1, -3)]
_KEYED_HEXAGON = [(-1, -2), (4, -4), (4, -2), (1, 2), (-4, 4), (-4, 2)]
# the last three polygons take Python-integer keys: the 16-gon's keys on these
# sets would still fit int64 but pass 2^52, the 64-gon's pass 2^63 and the
# 256-gon's pass 2^1024, beyond any float
_EXACT_BODIES = [disk(), disk(3.0), disk(0.5), l1, linf, LpBall(np.inf, (2.0, 2.0)),
                 LpBall(1.0, (3.0, 3.0)), LpBall(2.0), square(), diamond(),
                 Polygon2D(_INT_HEXAGON),
                 _fine_rational_polygon(16, 10), _fine_rational_polygon(16, 10**4),
                 _fine_rational_polygon(), _fine_rational_polygon(256)]
# polygons of few faces take their gauge faces x rows, the 64- and 256-gon
# rows x faces, where the other layout would gain nothing; both keep the bits
_FLOAT_BODIES = _EXACT_BODIES[:-2] + [LpBall(3.0), LpBall(1.0, (1.0, 2.0)), regular_polygon(64),
                                      regular_polygon(256),
                                      random_symmetric_hexagon(np.random.default_rng(7))]
_RNG = np.random.default_rng(13)
_SETS = {
    "lattice": lambda: PointSet.lattice(12),
    "rotated": lambda: PointSet.rotated_lattice(9, 0.7),
    "perturbed": lambda: PointSet.perturbed_lattice(8, 3, 0.3),
    "integer": lambda: PointSet(_RNG.integers(-20, 21, size=(45, 2))),
    "fraction": lambda: PointSet([(Fraction(int(a), 3), Fraction(int(b), 7))
                                           for a, b in _RNG.integers(-9, 10, size=(30, 2))]),
}


@pytest.mark.parametrize("mode", ["float_tol", "exact_rational"])
def test_distance_set_rejects_mismatched_dimensions(mode):
    # bodies, point sets and measures are planar by construction, so a
    # non-planar body or point set is refused before distance_set runs
    planar = PointSet([[0, 0], [1, 2], [3, 1]])
    with pytest.raises(ValidationError, match="two semi-axes expected, got 3"):
        distance_set(planar, Ellipsoid((1, 1, 1)), mode)
    with pytest.raises(ValidationError, match="two semi-axes expected, got 3"):
        distance_set(planar, LpBall(2.0, (1.0,) * 3), mode)
    with pytest.raises(ValidationError, match="two semi-axes expected, got 1"):
        distance_set(planar, LpBall(math.inf, (1.0,)), mode)
    for pts in ([[0], [3], [7]], [[0, 0, 0], [1, 2, 3]], [(Fraction(1, 3),), (Fraction(0),)]):
        with pytest.raises(ValidationError, match=r"nonempty \(n, 2\) array"):
            distance_set(PointSet(pts), disk(), mode)
        with pytest.raises(ValidationError, match=r"nonempty \(n, 2\) array"):
            PointSet(pts)
    with pytest.raises(ValidationError, match=r"atoms must be an \(n, 2\) array"):
        AtomicMeasure([[0.3]], [1.0])
    with pytest.raises(ValidationError, match=r"atoms must be an \(n, 2\) array"):
        AtomicMeasure([0.3, 0.4], [1.0])


@pytest.mark.parametrize("mode, family", [("float_tol", f) for f in _SETS]
                         + [("exact_rational", f) for f in ("lattice", "integer", "fraction")])
def test_distance_set_matches_unblocked_reference(monkeypatch, mode, family):
    # bit for bit with the default blocks, which hold each set here whole,
    # and with blocks of 64 entries, which cut it into many pieces; two
    # threads give the bits of one
    S = _SETS[family]()
    for body in _EXACT_BODIES if mode == "exact_rational" else _FLOAT_BODIES:
        values, mult = _reference_distance_set(S, body, mode)
        mult = mult.astype(np.int64)
        for entries in (_BLOCK_ENTRIES, 64):
            monkeypatch.setattr(_blocks, "_BLOCK_ENTRIES", entries)
            ds = distance_set(S, body, mode)
            two = distance_set(S, body, mode, threads=2)
            for name in ("values", "multiplicities", "min_gap", "count", "exact"):
                assert np.array_equal(getattr(two, name), getattr(ds, name)), name
            assert ds.values.dtype == np.float64 and ds.multiplicities.dtype == np.int64
            assert ds.exact == (mode == "exact_rational")
            assert ds.multiplicities.tobytes() == mult.tobytes(), (body, entries)
            if mode == "float_tol" and entries != _BLOCK_ENTRIES:
                # a polygon's gauge, a matrix product, may round a row of a
                # block of a few rows by an ulp otherwise than in a long block
                np.testing.assert_allclose(ds.values, values, rtol=1e-15, atol=0)
                continue
            assert ds.values.tobytes() == values.tobytes(), (body, entries)
            assert ds.min_gap == (float(np.min(np.diff(values))) if len(values) > 1
                                  else math.inf)
            assert ds.count == len(values)


def test_lattices_build_points_on_first_read():
    # the float and int64 grids of lattice(1024) hold 32 MiB, the rotated
    # float grid 16 MiB; the lattice path of distance_set reads neither
    tracemalloc.start()
    try:
        S = PointSet.lattice(1024)
        R = PointSet.rotated_lattice(1024, 0.7)
        assert S.n == R.n == 1025 ** 2 and S.dim == R.dim == 2
        _, built = tracemalloc.get_traced_memory()
        ds = distance_set(S, linf, "exact_rational")
        fl = distance_set(R, linf, "float_tol")
        counted, _ = tracemalloc.get_traced_memory()
        assert S.points.shape == (S.n, 2)
        read, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.count == 1024 and fl.count > 1024
    assert built < 1 << 20
    # what the scans left allocated is their results
    held = sum(a.nbytes for a in (ds.values, ds.multiplicities, fl.values, fl.multiplicities))
    assert counted - held < 1 << 20
    assert read - counted >= 2 * S.n * 2 * 8


def test_exact_lattice_histogram_bounded():
    # the histogram holds top + 1 int64 counts, at most 8 MiB; a block adds
    # its vectors, weights and keys and their temporaries, about twice its
    # key buffer.  The second hexagon's keys reach just below the cap
    for verts, q in ((_KEYED_HEXAGON, 1024), (_CAP_HEXAGON, 560)):
        body = Polygon2D(verts)
        top = max(abs(a) + abs(b) for a, b in _cleared_faces(body)[0]) * q
        assert top < _HISTOGRAM_CAP
        S = PointSet.lattice(q)
        tracemalloc.start()
        try:
            distance_set(S, body, "exact_rational")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (top + 1) * 8 + 2 * _BLOCK_ENTRIES * 8, (verts, peak)


# max_i |M_i|_1 = 1872 over its cleared faces: lattice keys reach 1872 q,
# within the histogram cap at q = 560 and past it at q = 561
_CAP_HEXAGON = [(-3, -4), (3, -4), (4, -1), (3, 4), (-3, 4), (-4, 1)]


@pytest.mark.parametrize("q", [560, 561])
def test_exact_lattice_counted_or_sorted_matches_reference(monkeypatch, q):
    # either reducer, the histogram below the cap and the per-block sort past
    # it, gives the reference's bits; 64-entry blocks would make 63 000
    # blocks here, 2^14 entries still cut the grid into 231
    body = Polygon2D(_CAP_HEXAGON)
    top = max(abs(a) + abs(b) for a, b in _cleared_faces(body)[0]) * q
    assert (top < _HISTOGRAM_CAP) == (q == 560)
    sizes = []
    histogram = distset._histogram
    monkeypatch.setattr(distset, "_histogram", lambda size: sizes.append(size) or histogram(size))
    S = PointSet.lattice(q)
    values, mult = _reference_distance_set(S, body, "exact_rational")
    for entries in (_BLOCK_ENTRIES, 1 << 14):
        monkeypatch.setattr(_blocks, "_BLOCK_ENTRIES", entries)
        for threads in (1, 2):
            ds = distance_set(S, body, "exact_rational", threads=threads)
            assert ds.values.tobytes() == values.tobytes()
            assert ds.multiplicities.tobytes() == mult.astype(np.int64).tobytes()
            assert ds.min_gap == float(np.min(np.diff(values)))
            assert ds.count == len(values) and ds.exact
    assert sizes == ([top + 1] * 4 if q == 560 else [])


# a 16-gon whose cleared face keys pass 2^52 on every lattice below: its keys
# are Python integers, evaluated on object arrays
_PYINT_GON = _fine_rational_polygon(16, 10**4)
_LINE_BODIES = {"l1": l1, "l2": disk(), "linf": linf, "hexagon": Polygon2D(_INT_HEXAGON),
                "pyint": _PYINT_GON}


@pytest.mark.parametrize("name", list(_LINE_BODIES))
@pytest.mark.parametrize("counted", [True, False])
def test_exact_lattice_keys_on_grid_lines_match_brute_pairs(monkeypatch, name, counted):
    # the lattice path evaluates the keys on whole grid lines, a column of
    # first coordinates against the line -q..q, and cuts them to its rows; the
    # brute-force path keys every pair of the explicit integer grid.  Blocks
    # of 37 and 100 entries cut through grid lines (a line holds 2q + 1 <= 19
    # vectors); a histogram cap of 1 sends the int64 keys to the per-block sort
    body = _LINE_BODIES[name]
    top = distset._exact_keys(body, 1, 9, 1)[3]
    assert (top is None) == (name == "pyint")
    if not counted:
        monkeypatch.setattr(distset, "_HISTOGRAM_CAP", 1)
    for q in (1, 2, 5, 9):
        S = PointSet.lattice(q)
        grid = PointSet(S.points.astype(np.int64))
        assert grid.q is None and grid.n == S.n
        values, mult = _reference_distance_set(grid, body, "exact_rational")
        mult = mult.astype(np.int64)
        for entries in (_BLOCK_ENTRIES, 100, 37):
            monkeypatch.setattr(_blocks, "_BLOCK_ENTRIES", entries)
            for threads in (1, 2):
                fast = distance_set(S, body, "exact_rational", threads=threads)
                brute = distance_set(grid, body, "exact_rational", threads=threads)
                for ds in (fast, brute):
                    assert ds.values.tobytes() == values.tobytes(), (q, entries)
                    assert ds.multiplicities.tobytes() == mult.tobytes(), (q, entries)
                    assert ds.exact


def test_distinct_ignores_the_order_of_its_input():
    # any order of the same (key, weight) rows gives the same result, bit for
    # bit: shuffled, sorted, and in the two monotone runs a grid line brings;
    # int64 keys, float64 keys with and without a tolerance (clusters of keys
    # 1e-12 apart), and Python-integer keys past int64
    rng = np.random.default_rng(23)
    ints = rng.integers(0, 60, size=2000)
    floats = rng.integers(1, 40, size=2000) * (1.0 + rng.integers(0, 3, size=2000) * 1e-12)
    weights = rng.integers(1, 9, size=2000)
    cases = [(ints, weights, 0.0), (floats, weights.astype(float), 0.0),
             (floats, weights.astype(float), 1e-9),
             (np.array([int(k) << 70 for k in ints], dtype=object), weights, 0.0)]
    for keys, w, rtol in cases:
        want = distset._distinct(keys, w, rtol)
        assert len(want[0]) == len(set(np.rint(keys).tolist() if rtol else keys.tolist()))
        assert sum(want[1].tolist()) == sum(w.tolist())
        up = np.argsort(keys, kind="stable")
        orders = [rng.permutation(len(keys)) for _ in range(3)]
        orders += [up, up[::-1], np.concatenate([up[::2], up[1::2][::-1]])]
        for order in orders:
            got = distset._distinct(keys[order], w[order], rtol)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
                if a.dtype != object:
                    assert a.tobytes() == b.tobytes()
