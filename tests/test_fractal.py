"""Cantor iterates, difference covers, box counting, energy ladders."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugedist import (
    AtomicMeasure,
    BudgetError,
    CantorMeasure,
    CantorSpec,
    CapabilityError,
    DioSpec,
    InsufficientDataError,
    IntervalUnion,
    LpBall,
    PointSet,
    ValidationError,
    box_dim,
    cantor_build,
    delta_cover,
    difference_cover,
    dio_build,
    disk,
    distance_set,
    energy_ladders,
    natural_measure,
)
from gaugedist._blocks import _BLOCK_ENTRIES, _line_fit
from gaugedist.fractal import _energy_values, _grid_count_1d

linf = LpBall(np.inf, (1.0, 1.0))


def _point(x):
    """The one-point union {x}: containing it is containing x."""
    return IntervalUnion.build([(x, x)])


def _energy(mu, gamma, T):
    """One energy integral, the [gamma][T] entry of ``_energy_values``."""
    return _energy_values(mu, [gamma], [T])[0][0]


def _refine(intervals, m):
    # independent recursive constructor: split each cell into 2m parts,
    # keep the even-indexed ones
    base = 2 * m
    out = []
    for a, b in intervals:
        w = (b - a) / base
        for dgt in range(0, base, 2):
            out.append((a + dgt * w, a + dgt * w + w))
    return out


# ---------------------------------------------------------------------------
# interval unions


def test_interval_union_merges_touching():
    iu = IntervalUnion.build([(Fraction(1, 2), Fraction(3, 4)),
                              (Fraction(0), Fraction(1, 2))])
    assert iu.count == 1
    assert iu.intervals == ((Fraction(0), Fraction(3, 4)),)
    assert iu.total_length == Fraction(3, 4)


def test_interval_union_rejects_reversed():
    # an infinite endpoint used to end in a bare OverflowError from Fraction,
    # a nan one in a ValueError
    for pair, message in [((Fraction(1), Fraction(0)), "out of order"),
                          ((0, math.inf), "must be finite"),
                          ((math.nan, 1), "must be finite")]:
        with pytest.raises(ValidationError, match=message):
            IntervalUnion.build([pair])


# The Fraction-per-endpoint union, kept as the oracle of the integer one:
# each pair is normalised, sorted and merged in a Python loop.

def _oracle_merge(pairs):
    merged = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [tuple(p) for p in merged]


def _oracle_union(pairs):
    return _oracle_merge(sorted((Fraction(a), Fraction(b)) for a, b in pairs))


def _oracle_contains(ivs, other):
    i = 0
    for a, b in other:
        while i < len(ivs) and ivs[i][1] < a:
            i += 1
        if i == len(ivs) or not (ivs[i][0] <= a and b <= ivs[i][1]):
            return False
    return True


def _oracle_grid_count(ivs, eps):
    ranges = []
    for a, b in ivs:
        lo = math.floor(a / eps)
        hi_frac = b / eps
        hi = int(hi_frac) if hi_frac.denominator == 1 else math.floor(hi_frac)
        if hi_frac.denominator == 1 and b > a:
            hi -= 1
        ranges.append((lo, max(hi, lo)))
    return sum(hi - lo + 1 for lo, hi in _oracle_merge(sorted(ranges)))


# small denominators make touching and shared endpoints common; the large
# ones push the cleared denominator and numerators past 2^63
_endpoints = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6])),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.sampled_from([2 ** 63, 2 ** 64 + 13, 3 ** 41])))
_pairs = st.lists(st.tuples(_endpoints, _endpoints).map(sorted), max_size=10)
_SCALES = [Fraction(1, 2 ** k) for k in range(0, 9, 2)] + [Fraction(2, 7),
                                                          Fraction(1, 2 ** 64 + 13)]


def _fraction_fit(x, y):
    """The exact least-squares (slope, intercept, rms residual) of the float
    points (x, y): rational sums, one rounding at the end."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
    rss = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    return float(slope), float(my - slope * mx), math.sqrt(rss / len(x))


@given(_pairs, _pairs, _endpoints)
def test_interval_union_matches_fraction_oracle(pairs, other_pairs, x):
    iu, other = IntervalUnion.build(pairs), IntervalUnion.build(other_pairs)
    want, other_want = _oracle_union(pairs), _oracle_union(other_pairs)
    assert iu.intervals == tuple(want)
    assert iu.count == len(want)
    assert iu.total_length == sum((b - a for a, b in want), Fraction(0))
    assert iu.contains_union(_point(x)) == any(a <= x <= b for a, b in want)
    assert iu.contains_union(other) == _oracle_contains(want, other_want)
    assert iu.contains_union(IntervalUnion.build(want[::2]))
    counts = [_grid_count_1d(iu, eps) for eps in _SCALES]
    assert counts == [_oracle_grid_count(want, eps) for eps in _SCALES]
    if want:
        # box_dim is the least-squares slope of the log counts; a flat count
        # has slope 0, which the float fit meets to within 1e-32
        x = [math.log(1.0 / float(e)) for e in _SCALES[:5]]
        y = [math.log(c) for c in counts[:5]]
        slope = _fraction_fit(x, y)[0]
        assert box_dim(iu, _SCALES[:5]) == pytest.approx(slope, rel=1e-12, abs=1e-30)


def test_interval_union_empty():
    iu = IntervalUnion.build([])
    assert iu.intervals == () and iu.count == 0 and iu.total_length == 0
    assert not iu.contains_union(_point(0))
    assert iu.contains_union(iu)
    assert not iu.contains_union(IntervalUnion.build([(0, 1)]))
    assert _grid_count_1d(iu, Fraction(1, 4)) == 0


def test_contains_union_past_int64():
    # rescaling 4^17 numerators to the denominator 4^16 multiplies past 2^63
    assert cantor_build(CantorSpec(2, 16)).contains_union(cantor_build(CantorSpec(2, 17)))
    assert not cantor_build(CantorSpec(2, 17)).contains_union(cantor_build(CantorSpec(2, 16)))


def test_interval_union_membership():
    iu = IntervalUnion.build([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert iu.contains_union(_point(Fraction(1, 8)))
    assert iu.contains_union(_point(Fraction(1, 4)))
    assert not iu.contains_union(_point(Fraction(3, 8)))
    sub = IntervalUnion.build([(Fraction(1, 16), Fraction(1, 8)),
                               (Fraction(3, 4), Fraction(7, 8))])
    assert iu.contains_union(sub)
    straddle = IntervalUnion.build([(Fraction(1, 8), Fraction(3, 8))])
    assert not iu.contains_union(straddle)


# ---------------------------------------------------------------------------
# cantor iterates


def test_cantor_depth1_exact():
    iu = cantor_build(CantorSpec(m=2, depth=1))
    assert iu.intervals == ((Fraction(0), Fraction(1, 4)),
                            (Fraction(1, 2), Fraction(3, 4)))


def test_cantor_counting_identities():
    for m, n in [(2, 8), (3, 2), (2, 5), (4, 3)]:
        spec = CantorSpec(m=m, depth=n)
        iu = cantor_build(spec)
        assert iu.count == m ** n
        # every cell has the depth-n width, nothing merged
        assert all(b - a == Fraction(1, spec.base ** n) for a, b in iu.intervals)
        assert iu.total_length == Fraction(m, 2 * m) ** n


def test_cantor_depth8_total_length():
    iu = cantor_build(CantorSpec(m=2, depth=8))
    assert iu.count == 256
    assert iu.total_length == Fraction(1, 256)


def test_cantor_matches_recursive_refinement():
    for m, n in [(2, 6), (3, 3)]:
        ivs = [(Fraction(0), Fraction(1))]
        for _ in range(n):
            ivs = _refine(ivs, m)
        want = IntervalUnion.build(ivs)
        assert cantor_build(CantorSpec(m=m, depth=n)).intervals == want.intervals


def test_cantor_nesting():
    for m in (2, 3):
        prev = cantor_build(CantorSpec(m=m, depth=1))
        for n in range(2, 6):
            cur = cantor_build(CantorSpec(m=m, depth=n))
            assert prev.contains_union(cur)
            prev = cur


def test_cantor_spec_validation():
    with pytest.raises(ValidationError):
        CantorSpec(m=1, depth=3)
    with pytest.raises(ValidationError):
        CantorSpec(m=2, depth=0)
    # a float m used to give base 5.0, a float depth a TypeError in the digits
    with pytest.raises(ValidationError, match="m must be an integer >= 2, got 2.5"):
        CantorSpec(2.5, 2)
    with pytest.raises(ValidationError, match="depth must be an integer >= 1, got 2.0"):
        CantorSpec(2, 2.0)
    with pytest.raises(BudgetError, match="exceeds the cap of"):
        cantor_build(CantorSpec(m=2, depth=24))  # 2^24 cells over budget
    with pytest.raises(BudgetError, match="exceeds the cap of"):
        difference_cover(CantorSpec(m=2, depth=15))  # 3^15 differences


# ---------------------------------------------------------------------------
# difference covers


def test_difference_cover_depth1():
    rep = difference_cover(CantorSpec(m=2, depth=1))
    assert rep.pre_merge_count == 3
    assert rep.pre_merge_length == Fraction(3, 2)
    # centers {0, 1/2} widen to [0,1/4] and [1/4,3/4], merging to [0,3/4]
    assert rep.union.intervals == ((Fraction(0), Fraction(3, 4)),)
    assert rep.union.total_length == Fraction(3, 4)


def test_difference_cover_premerge_identities():
    for m, n in [(2, 1), (2, 7), (2, 12), (3, 4)]:
        rep = difference_cover(CantorSpec(m=m, depth=n))
        assert rep.pre_merge_count == (2 * m - 1) ** n
        assert rep.pre_merge_length == 2 * Fraction(2 * m - 1, 2 * m) ** n


def test_difference_cover_shrinks():
    rep = difference_cover(CantorSpec(m=2, depth=10))
    assert rep.union.total_length < Fraction(12, 100)
    # merged length can only shrink
    assert rep.union.total_length <= rep.pre_merge_length


def test_difference_cover_covers_actual_differences(rng):
    spec = CantorSpec(m=2, depth=5)
    iu = cantor_build(spec)
    cover = difference_cover(spec).union
    cells = iu.intervals
    w = Fraction(1, spec.base ** spec.depth)
    for _ in range(200):
        i, j = rng.integers(0, len(cells), size=2)
        # rational offsets keep |x - y| exact
        x = cells[i][0] + Fraction(int(rng.integers(0, 65)), 64) * w
        y = cells[j][0] + Fraction(int(rng.integers(0, 65)), 64) * w
        assert cover.contains_union(_point(abs(x - y)))


# ---------------------------------------------------------------------------
# box counting


def test_box_dim_full_interval():
    iu = IntervalUnion.build([(0, 1)])
    scales = [Fraction(1, 2 ** k) for k in range(1, 9)]
    assert abs(box_dim(iu, scales) - 1.0) < 0.01


def test_box_dim_single_interval_lower_bound():
    # spans misaligned with the dyadic grid still fit within 0.01 of 1
    for pair in [(Fraction(0), Fraction(1, 3)), (Fraction(1, 5), Fraction(9, 10))]:
        iu = IntervalUnion.build([pair])
        scales = [Fraction(1, 2 ** k) for k in range(6, 17)]
        assert box_dim(iu, scales) >= 1.0 - 0.01


def test_box_dim_cantor_half():
    iu = cantor_build(CantorSpec(m=2, depth=10))
    scales = [Fraction(1, 4 ** j) for j in range(1, 11)]
    assert abs(box_dim(iu, scales) - 0.5) < 0.05


def test_box_dim_product():
    iu = cantor_build(CantorSpec(m=2, depth=8))
    scales = [Fraction(1, 4 ** j) for j in range(1, 9)]
    assert abs(box_dim((iu, iu), scales) - 1.0) < 0.1


def test_box_dim_guards():
    iu = IntervalUnion.build([(0, 1)])
    with pytest.raises(InsufficientDataError):
        box_dim(iu, [Fraction(1, 2), Fraction(1, 4)])
    scales = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    # a point set is not box-counted: no run counts boxes of points
    for obj in ("not countable", PointSet.lattice(8)):
        with pytest.raises(CapabilityError, match="cannot box-count"):
            box_dim(obj, scales)
    empty = IntervalUnion.build([])
    for obj in (empty, (iu, empty)):
        with pytest.raises(InsufficientDataError, match="empty interval union"):
            box_dim(obj, scales)


def test_box_dim_needs_three_distinct_scales():
    # repeated scales used to reach a rank-deficient lstsq, which returned
    # its minimum-norm slope: 0.329 for three copies of 1/4
    iu = cantor_build(CantorSpec(2, 4))
    for scales in ([Fraction(1, 4)] * 3, [0.25, Fraction(1, 4), 0.5, 0.5]):
        with pytest.raises(InsufficientDataError, match="3 distinct scales"):
            box_dim(iu, scales)
    assert box_dim(iu, [0.25, 0.25, 1 / 16, 1 / 64]) == pytest.approx(0.5, rel=1e-12)


def test_line_fit_matches_fraction_oracle():
    # 120 fits of 3-300 points against the exact fit of the same floats; over
    # 5 000 such fits without the offset the worst slope error was 8.2e-16
    # relative, lstsq's 3.8e-13.  The x offset of 1000 leaves 7 digits to a
    # fit that skips the centring
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(3, 301))
        x = np.log(rng.uniform(1, 1000, n)) + (1000.0 if trial % 4 == 0 else 0.0)
        y = rng.normal(0, 2) * x + rng.normal(0, 3) + rng.normal(0, 0.1, n)
        want = _fraction_fit(x.tolist(), y.tolist())
        got = _line_fit(x, y)
        assert got[0] == pytest.approx(want[0], rel=1e-12), trial
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12), trial
        assert got[2] == pytest.approx(want[2], rel=1e-9), trial
    assert _line_fit([0, 1, 2, 3], [1, 3, 5, 7]) == (2.0, 1.0, 0.0)


def test_line_fit_needs_two_distinct_x():
    for x in ([2.0], [2.0, 2.0, 2.0]):
        with pytest.raises(InsufficientDataError, match="2 distinct x"):
            _line_fit(x, range(len(x)))


def test_box_dim_rejects_counts_and_scales_past_the_float_range():
    iu = cantor_build(CantorSpec(2, 8))
    # at 2^-2000 the count has 1 992 bits; at 2^-1030 the count fits a float
    # but the reciprocal scale does not
    for top in (2000, 1030):
        with pytest.raises(ValidationError, match="past the float range"):
            box_dim(iu, [Fraction(1, 2**e) for e in (2, 4, top)])
    assert box_dim(iu, [Fraction(1, 2**e) for e in (2, 4, 1000)]) > 0.0


# ---------------------------------------------------------------------------
# diophantine cube families


def test_dio_lattice_q4():
    spec = DioSpec(PointSet.lattice(4), q=4, s=1.0)
    ds = dio_build(spec)
    assert ds.count == 25
    assert ds.half_side == 4.0 ** -2
    assert ds.disjoint


def test_dio_overlapping_shadow_covers_unit_interval():
    spec = DioSpec(PointSet.lattice(4), q=4, s=2.0)
    ds = dio_build(spec)
    assert ds.half_side == 0.25
    assert not ds.disjoint
    assert ds.axis_union() == [(0.0, 1.0)]


def test_dio_rotated_generator_count():
    S = PointSet.rotated_lattice(9, math.pi / 6)
    ds = dio_build(DioSpec(S, q=9, s=1.0))
    inside = np.all((S.points >= -1e-12) & (S.points <= 9 + 1e-12), axis=1)
    assert ds.count == int(inside.sum())


def test_dio_spec_validation():
    S = PointSet.lattice(4)
    with pytest.raises(ValidationError):
        DioSpec(S, q=0, s=1.0)
    with pytest.raises(ValidationError):
        DioSpec(S, q=4, s=0.0)
    with pytest.raises(ValidationError):
        DioSpec(S, q=4, s=2.5)
    with pytest.raises(ValidationError):
        dio_build(DioSpec(PointSet([[20.0, 20.0]]), q=4, s=1.0))


# ---------------------------------------------------------------------------
# delta covers


def test_delta_cover_linf_lattice():
    spec = DioSpec(PointSet.lattice(16), q=16, s=1.0)
    rep = delta_cover(spec, linf)
    assert rep.count == 16
    assert rep.half_width == 2.0 * 16.0 ** -2
    assert 0.0 < rep.total_length <= 0.25 + 1e-12


def test_delta_cover_count_matches_distance_set():
    S = PointSet.lattice(16)
    for body in (linf, disk()):
        rep = delta_cover(DioSpec(S, q=16, s=1.0), body)
        assert rep.count == distance_set(S, body).count
        assert rep.total_length <= rep.count * 2.0 * rep.half_width + 1e-12


def test_delta_cover_one_point_is_empty():
    rep = delta_cover(DioSpec(PointSet([[0.0, 0.0]]), q=1, s=1.0), disk())
    assert (rep.intervals, rep.count, rep.total_length) == ((), 0, 0.0)


def test_delta_cover_covers_cube_distances(rng):
    spec = DioSpec(PointSet.lattice(8), q=8, s=1.0)
    ds = dio_build(spec)
    body = disk()
    rep = delta_cover(spec, body)
    lo = np.array([a for a, _ in rep.intervals])
    hi = np.array([b for _, b in rep.intervals])
    idx = rng.integers(0, ds.count, size=(300, 2))
    # one window per distinct center distance: same-cube pairs are out of scope
    idx = idx[idx[:, 0] != idx[:, 1]]
    off = rng.uniform(-ds.half_side, ds.half_side, size=(len(idx), 2, 2))
    x = ds.centers[idx[:, 0]] + off[:, 0]
    y = ds.centers[idx[:, 1]] + off[:, 1]
    vals = body.gauge(x - y)
    for v in vals:
        assert np.any((lo <= v + 1e-12) & (v - 1e-12 <= hi))


# ---------------------------------------------------------------------------
# atomic measures


def test_natural_measure_counts():
    mu = natural_measure(CantorSpec(m=2, depth=2))
    assert mu.points.shape == (16, 2)
    assert np.allclose(mu.weights, 1 / 16)
    # the product keeps its Cantor structure, so ft takes the Riesz product
    assert isinstance(mu, CantorMeasure)
    assert mu.spec == CantorSpec(m=2, depth=2)


def test_natural_measure_atom_budget():
    with pytest.raises(BudgetError, match="atom count 1048576 exceeds the cap of 1000000"):
        natural_measure(CantorSpec(m=2, depth=10))


def test_atomic_measure_validation():
    pts = np.array([[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        AtomicMeasure(pts, [0.5, 0.6])
    with pytest.raises(ValidationError):
        AtomicMeasure(pts, [1.5, -0.5])
    with pytest.raises(ValidationError):
        AtomicMeasure(pts, [0.5])


@pytest.mark.parametrize("points, weights, match", [
    ([[0.1, 0.2], [0.3, 0.4]], [math.nan, 1.0], "weights must be positive and finite"),
    ([[0.1, 0.2], [0.3, 0.4]], [math.inf, 1.0], "weights must be positive and finite"),
    ([[0.1, 0.2], [0.3, 0.4]], [0.0, 1.0], "weights must be positive and finite"),
    ([[math.inf, 0.2], [0.3, 0.4]], [0.5, 0.5], r"atoms must be finite; row 0 is \[inf, 0.2\]"),
    ([[0.1, 0.2], [0.3, math.nan]], [0.5, 0.5], r"atoms must be finite; row 1 is \[0.3, nan\]"),
], ids=["nan weight", "inf weight", "zero weight", "inf atom", "nan atom"])
def test_atomic_measure_refuses_non_finite_input(points, weights, match):
    # a nan weight used to construct and transform to nan+nanj, an infinite
    # atom to end in numpy's RuntimeWarning from cos
    with pytest.raises(ValidationError, match=match):
        AtomicMeasure(points, weights)


def test_ft_frequencies_must_be_planar_and_finite():
    # the Riesz product used to take any column count: three columns
    # returned 2.6e-33 - 1.1e-33j, and the atom sum ended in numpy's matmul error
    mu = natural_measure(CantorSpec(2, 2))
    for measure in (mu, AtomicMeasure(mu.points, mu.weights)):
        for xi, n in (([[1.0, 2.0, 3.0]], 3), ([[1.0], [2.0]], 1), ([1.0, 2.0, 3.0], 3)):
            with pytest.raises(ValidationError, match=f"xi must be planar \\(two columns\\), got {n}"):
                measure.ft(xi)
        with pytest.raises(ValidationError, match="frequencies xi must be finite"):
            measure.ft([[1.0, math.inf]])
        assert measure.ft([1.0, 2.0]).shape == (1,)


def test_ft_single_atom_modulus_one():
    mu = AtomicMeasure([[0.3, 0.7]], [1.0])
    xi = np.array([[1.0, 0.0], [2.5, -3.0], [0.0, 0.0]])
    vals = mu.ft(xi)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)
    want = np.exp(-2j * np.pi * (xi @ np.array([0.3, 0.7])))
    assert np.allclose(vals, want, atol=1e-12)


def test_ft_two_atoms_closed_form(rng):
    mu = AtomicMeasure([[0.0, 0.0], [0.5, 0.0]], [0.5, 0.5])
    xi = rng.uniform(-8, 8, size=(50, 2))
    want = 0.5 * (1.0 + np.exp(-1j * np.pi * xi[:, 0]))
    assert np.allclose(mu.ft(xi), want, atol=1e-12)
    assert abs(mu.ft(np.array([[1.0, 0.0]]))[0]) < 1e-12


def test_ft_atom_sum_blocks_match_direct_sum(rng):
    mu = AtomicMeasure(rng.uniform(size=(1000, 2)), np.full(1000, 1e-3))
    xi = rng.uniform(-30, 30, size=(1000, 2))
    assert len(xi) >= 3 * (_BLOCK_ENTRIES // len(mu.points))  # at least 3 blocks
    np.testing.assert_allclose(mu.ft(xi), np.exp(-2j * np.pi * (xi @ mu.points.T)) @ mu.weights,
                               rtol=0, atol=1e-12)


def test_ft_factored_matches_direct(rng):
    mu = natural_measure(CantorSpec(m=2, depth=3))
    xi = rng.uniform(-20, 20, size=(40, 2))
    direct = np.exp(-2j * np.pi * (xi @ mu.points.T)) @ mu.weights
    assert np.allclose(mu.ft(xi), direct, atol=1e-10)


def test_natural_measure_atoms_are_cell_midpoints():
    for m, n in [(2, 3), (3, 2)]:
        spec = CantorSpec(m=m, depth=n)
        mids = [float((a + b) / 2) for a, b in cantor_build(spec).intervals]
        mu = natural_measure(spec)
        assert sorted(map(tuple, mu.points)) == [(x, y) for x in mids for y in mids]


@pytest.mark.parametrize("m, depth", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 4)])
@pytest.mark.parametrize("axes", [1, 2])
def test_riesz_product_matches_atom_sum(m, depth, axes):
    mu = natural_measure(CantorSpec(m=m, depth=depth))
    rng = np.random.default_rng(1000 * m + 10 * depth + axes)
    # directions uniform in the first ``axes`` coordinates (with axes = 1 the
    # second axis's product is 1), radii up to |xi| = 64, plus the origin
    xi = np.zeros((65, 2))
    xi[1:, :axes] = rng.normal(size=(64, axes))
    xi[1:] *= (64.0 * rng.uniform(size=(64, 1))) / np.linalg.norm(xi[1:], axis=1, keepdims=True)
    riesz = mu.ft(xi)
    oracle = AtomicMeasure(mu.points, mu.weights).ft(xi)
    assert riesz[0] == 1.0
    assert np.max(np.abs(riesz - oracle)) <= 1e-12


@pytest.mark.parametrize("m, depth", [(2, 8), (3, 5), (4, 4), (5, 3)])
@pytest.mark.parametrize("T", [16.0, 64.0, 256.0])
def test_ring_power_quadrant_fold_matches_full_half_circle(m, depth, T):
    # the Cantor override folds the half circle onto its first quadrant and
    # squares the per-axis amplitudes; the base method takes |ft|^2 on every
    # direction.  Odd m has the unpaired centre cosine.  The ladder's nt for
    # this T, on 128 radii up to T (the fold acts on directions alone)
    mu = natural_measure(CantorSpec(m=m, depth=depth))
    r = np.linspace(1.0, T, 128)
    nt = max(64, 2 * int(2 * T))
    folded = mu._ring_power(r, nt)
    full = AtomicMeasure._ring_power(mu, r, nt)
    assert folded.shape == (128,)
    np.testing.assert_allclose(folded, full, rtol=0, atol=1e-15)


def test_cantor_energy_builds_no_atoms():
    # the 65 536 atoms of depth 8 take 1 MiB of points and 0.5 MiB of weights;
    # the Riesz product needs neither, so they are built on first read
    tracemalloc.start()
    try:
        mu = natural_measure(CantorSpec(m=2, depth=8))
        _energy(mu, 1.0, 16.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
    assert mu.points.shape == (65536, 2) and mu.weights.shape == (65536,)


@pytest.mark.parametrize("m, depth, gamma", [(2, 5, 0.8), (3, 3, 1.2)])
def test_energy_integral_riesz_matches_atom_sum(m, depth, gamma):
    # depth 8 would cost the atom sum 65 536 atoms x 8192 nodes, ~30 s
    mu = natural_measure(CantorSpec(m=m, depth=depth))
    want = _energy(AtomicMeasure(mu.points, mu.weights), gamma, 16.0)
    assert abs(_energy(mu, gamma, 16.0) - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# energy integrals


def test_energy_point_mass_closed_form():
    mu = AtomicMeasure([[0.3, 0.4]], [1.0])
    # gamma = 1 makes the radial integrand constant: 2 pi (T - 1) exactly
    for T in (32.0, 64.0):
        val = _energy(mu, 1.0, T)
        assert abs(val - 2.0 * np.pi * (T - 1.0)) < 1e-8 * T
    ratio = _energy(mu, 1.0, 64.0) / _energy(mu, 1.0, 32.0)
    assert abs(ratio - 2.0) < 0.2
    val = _energy(mu, 0.5, 32.0)
    want = 2.0 * np.pi * (32.0 ** 1.5 - 1.0) / 1.5
    assert abs(val - want) / want < 1e-3


def test_energy_validation():
    mu = AtomicMeasure([[0.3, 0.4]], [1.0])
    with pytest.raises(ValidationError):
        _energy(mu, 2.0, 16.0)
    with pytest.raises(ValidationError):
        _energy(mu, 0.0, 16.0)
    with pytest.raises(ValidationError):
        _energy(mu, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_energy_refuses_non_finite_T(bad):
    # refused as a ValidationError before any grid is built, not an
    # OverflowError or ValueError from sizing the grid of an infinite T
    mu = AtomicMeasure([[0.3, 0.4]], [1.0])
    with pytest.raises(ValidationError, match="finite and exceed 1"):
        energy_ladders(mu, [1.0], [16.0, 32.0, bad])
    with pytest.raises(ValidationError, match="finite and exceed 1"):
        _energy(mu, 1.0, bad)


def test_measures_compare_by_identity_and_print_short():
    # the generated dataclass __eq__ compared the arrays, whose elementwise
    # result has no truth value past one atom, and the generated __repr__ of a
    # Cantor measure built and printed its 65 536 lazy atoms
    pts, w = [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]], [0.25, 0.25, 0.5]
    a, b = AtomicMeasure(pts, w), AtomicMeasure(pts, w)
    assert a == a and a != b and len({a, b}) == 2
    assert repr(a) == "AtomicMeasure(n=3)"
    mu = natural_measure(CantorSpec(m=2, depth=8))
    assert repr(mu) == "CantorMeasure(CantorSpec(m=2, depth=8), n=65536)"
    assert "points" not in vars(mu) and "weights" not in vars(mu)
    assert mu == mu and mu != natural_measure(CantorSpec(m=2, depth=8))


def test_energy_ladder_point_mass_growth():
    mu = AtomicMeasure([[0.25, 0.6]], [1.0])
    lad = energy_ladders(mu, [1.0], [16.0, 32.0, 64.0])[0]
    assert lad.trend == "growth"
    assert len(lad.increments) == 2
    assert lad.integrals == tuple(sorted(lad.integrals))


def test_energy_ladder_needs_three_points():
    mu = AtomicMeasure([[0.25, 0.6]], [1.0])
    with pytest.raises(InsufficientDataError):
        energy_ladders(mu, [1.0], [16.0, 32.0])
    with pytest.raises(ValidationError, match="distinct"):
        energy_ladders(mu, [1.0], [16.0, 32.0, 16.0])


def test_energy_grid_budget_raises_before_allocating():
    mu = natural_measure(CantorSpec(m=2, depth=8))
    tracemalloc.start()
    try:
        # T = 5000 asks for 32 T^2 = 8e8 polar nodes, ~12 GiB of frequencies
        with pytest.raises(BudgetError, match="cap of 2097152"):
            energy_ladders(mu, [0.8], [16.0, 32.0, 5000.0])
        with pytest.raises(BudgetError, match="cap of 2097152"):
            _energy(mu, 1.0, 5000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # T = 256 is the largest default ladder point the cap admits
    with pytest.raises(BudgetError):
        _energy(mu, 1.0, 257.0)


class _CountingMeasure(AtomicMeasure):
    def ft(self, xi):
        self.grids.append(len(xi))
        return super().ft(xi)


def test_energy_ladders_share_one_grid_per_T():
    mu = _CountingMeasure([[0.25, 0.6], [0.5, 0.1]], [0.5, 0.5])
    mu.grids = []
    # floor(4 T) = 65 is odd at T = 16.3: the angular count rounds down to 64
    Ts = [16.0, 16.3, 32.0, 64.0]
    both = energy_ladders(mu, [0.8, 1.2], Ts)
    assert mu.grids == [8192, 130 * 64, 32768, 131072]
    for gamma, lad in zip((0.8, 1.2), both):
        single = energy_ladders(mu, [gamma], Ts)[0]
        assert lad == single
        assert lad.integrals == tuple(_energy(mu, gamma, T) for T in Ts)


def test_energy_ladder_cantor_trends():
    # product measure has dimension 1; gamma brackets the critical index
    mu = natural_measure(CantorSpec(m=2, depth=8))
    low = energy_ladders(mu, [0.8], [16.0, 32.0, 64.0])[0]
    assert low.trend == "growth"
    high = energy_ladders(mu, [1.2], [16.0, 32.0, 64.0])[0]
    assert high.trend in ("plateau", "decay")
