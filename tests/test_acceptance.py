"""Acceptance gate: eleven desk-scale numerical checks at fixed tolerances.

One test per criterion; each prints a single pass/fail line carrying the
measured values.  Tolerances are asserted exactly as declared, never
widened to fit a measurement.  Criterion 03 changed its estimator and band
once, because its old upper edge was provably out of reach of its old
estimator (see its docstring); a diagnostic test next to it pins that
proof and shows that the new check still rejects a curved body.
"""

import math
import textwrap
import time
from fractions import Fraction

import numpy as np

from gaugedist import (
    AtomicMeasure,
    CantorSpec,
    Ellipsoid,
    LpBall,
    PointSet,
    annulus_bound_report,
    box_dim,
    cantor_build,
    chord_bound_report,
    decay_fit,
    difference_cover,
    disk,
    distance_set,
    energy_integral,
    energy_ladders,
    growth_scan,
    natural_measure,
    octave_envelope,
    random_symmetric_hexagon,
    spherical_average,
    square,
    surface_ft,
    window_aggregate,
)
from gaugedist.cli import main

_R_GRID = np.geomspace(8.0, 512.0, 49)  # dyadic [8, 512], 8 samples per octave


def _crit(n: int, passed: bool, detail: str):
    line = f"criterion {n:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_01_curved_pointwise_decay():
    t0 = time.monotonic()
    thetas = np.arange(16) * (math.pi / 16)  # half circle; transforms are even
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    gammas = {}
    for label, body in (("disk", disk()), ("ellipse21", Ellipsoid((2.0, 1.0)))):
        xi = (_R_GRID[:, None, None] * omegas[None, :, :]).reshape(-1, 2)
        vals = np.abs(surface_ft(body, xi)).reshape(len(_R_GRID), -1).max(axis=1)
        Rf, vf = octave_envelope(_R_GRID, vals, 2)
        gammas[label] = decay_fit(Rf, vf).gamma
    elapsed = time.monotonic() - t0
    ok = all(abs(g - 0.5) <= 0.05 for g in gammas.values()) and elapsed < 60.0
    _crit(1, ok, "surface-transform envelope gamma "
          + " ".join(f"{k}={v:.4f}" for k, v in gammas.items())
          + f" (want 0.5 +/- 0.05), elapsed {elapsed:.1f}s (budget 60s)")


def test_criterion_02_l2_average_decay():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    cases = [("disk", disk()), ("square", square()),
             ("ellipse21", Ellipsoid((2.0, 1.0))),
             ("hexagon", random_symmetric_hexagon(rng))]
    slopes = {}
    for label, body in cases:
        vals = np.array([spherical_average(body, R, kind="body", p=2)
                         for R in _R_GRID])
        Rf, vf = window_aggregate(_R_GRID, vals, 2, agg="rms")
        slopes[label] = -decay_fit(Rf, vf).gamma
    elapsed = time.monotonic() - t0
    ok = all(abs(s + 1.5) <= 0.1 for s in slopes.values()) and elapsed < 300.0
    _crit(2, ok, "L2 spherical-average slopes "
          + " ".join(f"{k}={v:.3f}" for k, v in slopes.items())
          + f" (want -1.5 +/- 0.1), elapsed {elapsed:.1f}s (budget 300s)")


# log coefficient of the square's period-averaged L1 surface average,
# (a log R + b) / R; derived in criterion 03's docstring
_SQUARE_L1_LOG_COEFF = 32.0 / math.pi ** 4
_TWO_TERM_GAMMAS = np.linspace(0.0, 2.0, 2001)


def _period_mean_l1(body, R: float) -> float:
    """L1 surface average averaged over R + j/16, j < 8.

    The face-normal spikes of a polygon carry a factor |cos 2 pi R| of
    period 1/2 in R; eight equispaced shifts cover one period, so the grid
    no longer samples whichever phase a radius happens to land on.
    """
    return float(np.mean([spherical_average(body, R + j / 16, kind="surface",
                                            p=1) for j in range(8)]))


def _two_term_fit(R, v, gammas=_TWO_TERM_GAMMAS):
    """Profile fit of v ~ R^-gamma (a log R + b) with a >= 0.

    At each gamma, (a, b) minimise the relative residual
    sqrt(mean((model / v - 1)^2)), a linear least-squares problem; when its
    solution has a < 0 the constrained optimum lies on a = 0.  Returns
    (gamma, a, b, relative residual) at the gamma of smallest residual.
    """
    L = np.log(R)
    ones = np.ones_like(v)
    best = None
    for g in gammas:
        basis = np.stack([L, ones], axis=1) * (R ** -g / v)[:, None]
        (a, b), *_ = np.linalg.lstsq(basis, ones, rcond=None)
        if a < 0:
            col = basis[:, 1]
            a, b = 0.0, float(col.sum() / (col @ col))
        res = float(np.sqrt(np.mean((basis @ (a, b) - 1.0) ** 2)))
        if best is None or res < best[3]:
            best = (float(g), float(a), float(b), res)
    return best


def test_criterion_03_polyhedral_l1_average():
    """Square: L1 surface average ~ R^-1 log R, no decay along a face normal.

    The law.  sigma_hat(xi) = 4 cos(2 pi xi_1) sinc(2 xi_2)
    + 4 cos(2 pi xi_2) sinc(2 xi_1).  Near a face normal (angle theta from
    it, one side) the first term is 4 |cos(2 pi R cos theta)|
    |sin(2 pi R theta)| / (2 pi R theta), a 1/(R theta) spike.  On
    theta in [1/R, 1/sqrt R] the cosine is frozen at |cos 2 pi R| and |sin|
    averages 2/pi; beyond 1/sqrt R both oscillate and |cos sin| averages
    4/pi^2.  Each range spans (1/2) log R in log theta, and averaging
    |cos 2 pi R| over its period gives 2/pi, so each one-sided neighbourhood
    adds (1/pi) * 4 * (4/pi^2) / (2 pi R) * log R = (8/pi^4) log R / R to
    the half-circle mean.  Two normals on the half circle, two sides each:
    v(R) = (a log R + b) / R + o(1/R) with a = 32/pi^4 ~ 0.3285; the
    constant b (about 1.2 here) is positive.

    Why the old band could not be met.  The old check fitted
    C log R R^-gamma to window means of the raw grid and asked for gamma in
    [0.85, 1.0].  Against the law above that fit's slope is about
    1 + k / (L (L + k)) with k = b/a and L the window's mean log R: above 1
    on every finite window, reaching 1 only as 1/L^2 -> 0, while the band's
    upper edge sat exactly on the true exponent.  On the exact law it gives
    1.12, 1.06 and 1.04 on [8, 512], [64, 4096] and [512, 32768] (pinned
    in test_criterion_03_estimator_diagnostics); the program's values gave
    1.112, 1.063 and 1.045 on the same windows.  The raw grid also sampled
    |cos 2 pi R| at arbitrary phases, scattering the window means by ~9%.

    The check.  Period-average each radius, fit the two-term law by
    profiling gamma, and require |gamma - 1| <= 0.05 (criterion 01's
    tolerance, around the exponent the law fixes); at gamma = 1 the fitted
    a must be within 10% of 32/pi^4.  The pointwise half is unchanged.
    """
    body = square()
    vals = np.array([_period_mean_l1(body, R) for R in _R_GRID])
    avg_gamma, _, _, _ = _two_term_fit(_R_GRID, vals)
    _, a, _, _ = _two_term_fit(_R_GRID, vals, gammas=(1.0,))
    a_ratio = a / _SQUARE_L1_LOG_COEFF
    xi = np.stack([_R_GRID, np.zeros_like(_R_GRID)], axis=1)  # side normal
    point = np.abs(surface_ft(body, xi))
    Rp, vp = octave_envelope(_R_GRID, point, 2)
    point_gamma = decay_fit(Rp, vp).gamma
    ok = (abs(avg_gamma - 1.0) <= 0.05 and abs(a_ratio - 1.0) <= 0.1
          and point_gamma <= 0.05)
    _crit(3, ok, f"square period-averaged L1 surface average "
                 f"gamma={avg_gamma:.4f} from R^-gamma (a log R + b) "
                 f"(want 1 +/- 0.05); a at gamma=1 is {a_ratio:.4f} x 32/pi^4 "
                 f"(want 1 +/- 0.1); flat-normal pointwise "
                 f"gamma={point_gamma:.4f} (want <= 0.05)")


def test_criterion_03_estimator_diagnostics():
    # the old log-corrected fit on the exact law reads gamma > 1 on every
    # window, falling toward 1 only as log R grows
    b = 1.18
    k = b / _SQUARE_L1_LOG_COEFF
    old = []
    for lo in (8.0, 64.0, 512.0):
        R = np.geomspace(lo, 64.0 * lo, 49)
        v = (_SQUARE_L1_LOG_COEFF * np.log(R) + b) / R
        Rf, vf = window_aggregate(R, v, 2, agg="mean")
        old.append(decay_fit(Rf, vf, log_power=1).gamma)
        L = float(np.mean(np.log(R)))
        assert abs(old[-1] - (1.0 + k / (L * (L + k)))) <= 0.015
    assert old[0] > old[1] > old[2] > 1.0, old
    # the corrected check rejects a curved body, whose L1 average is R^-1/2
    vals = np.array([_period_mean_l1(disk(), R) for R in _R_GRID])
    gamma, _, _, _ = _two_term_fit(_R_GRID, vals)
    _, _, _, res_at_1 = _two_term_fit(_R_GRID, vals, gammas=(1.0,))
    assert abs(gamma - 1.0) > 0.05, gamma
    assert abs(gamma - 0.5) <= 0.1, gamma
    assert res_at_1 > 0.1, res_at_1


def test_criterion_04_chord_ratio_bounded():
    t_grid = np.geomspace(4.0, 1024.0, 33)
    spreads = {}
    for label, body in (("disk", disk()), ("square", square()),
                        ("ellipse21", Ellipsoid((2.0, 1.0)))):
        spreads[label] = chord_bound_report(body, t_grid, n_theta=64).octave_spread
    ok = all(s <= 2.0 for s in spreads.values())
    _crit(4, ok, "chord-ratio octave spread "
          + " ".join(f"{k}={v:.3f}" for k, v in spreads.items())
          + " (want <= 2 of the median octave)")


def test_criterion_05_annulus_bound():
    R_list = [1.0, 2.0, 4.0]
    xi_list = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    d_list = [1e-3, 1e-2, 1e-1]
    rep = annulus_bound_report(disk(), R_list, xi_list, d_list, n_theta=16)
    rep2 = annulus_bound_report(disk(), R_list, xi_list, d_list, n_theta=32)
    ratio = rep2.c_hat / rep.c_hat
    sq = annulus_bound_report(square(), R_list, xi_list, d_list, n_theta=16)
    ok = ((not rep.divergent) and math.isfinite(rep.c_hat)
          and max(ratio, 1.0 / ratio) < 2.0 and sq.divergent)
    _crit(5, ok, f"disk c_hat={rep.c_hat:.3f} slope={rep.growth_slope:.3f} "
                 f"refinement ratio={ratio:.4f} (want < 2); square "
                 f"slope={sq.growth_slope:.3f} divergent={sq.divergent} "
                 f"(want divergent along a face normal)")


def test_criterion_06_distance_count_exactness():
    linf = LpBall(np.inf, (1.0, 1.0))
    counts = {q: distance_set(PointSet.lattice(q), linf).count
              for q in (16, 64, 256, 1024)}
    fast_ok = all(counts[q] == q for q in counts)
    brute_ok = all(
        distance_set(PointSet.explicit(PointSet.lattice(q).points), linf).count
        == counts[q] for q in (16, 64))
    eu = disk()
    euclid_ok = True
    for q in (16, 32, 64):
        got = distance_set(PointSet.lattice(q), eu).count
        i = np.arange(q + 1)
        sums = (i[:, None] ** 2 + i[None, :] ** 2).ravel()
        euclid_ok &= got == len(np.unique(sums[sums > 0]))
    ok = fast_ok and brute_ok and euclid_ok
    _crit(6, ok, f"linf counts {counts} equal q exactly: {fast_ok}; brute-force "
                 f"agreement q<=64: {brute_ok}; two-squares oracle match "
                 f"q<=64: {euclid_ok}")


def test_criterion_07_growth_exponents():
    qs = [32, 64, 128, 256, 512]
    grow = growth_scan(PointSet.lattice, disk(), qs, alpha=4.0 / 3.0)
    poly = {label: growth_scan(PointSet.lattice, body, qs).beta
            for label, body in (("linf", LpBall(np.inf, (1.0, 1.0))),
                                ("l1", LpBall(1.0, (1.0, 1.0))))}
    ok = (1.8 <= grow.beta <= 2.0 and grow.beta >= grow.bound
          and all(abs(b - 1.0) <= 0.02 for b in poly.values()))
    _crit(7, ok, f"euclid beta={grow.beta:.4f} (want [1.8, 2.0], above bound "
                 f"{grow.bound:.2f}); linf beta={poly['linf']:.4f} "
                 f"l1 beta={poly['l1']:.4f} (want 1.00 +/- 0.02)")


def test_criterion_08_rotated_lattice_gap_collapse():
    linf = LpBall(np.inf, (1.0, 1.0))
    qs = (64, 256, 512)
    rot = [distance_set(PointSet.rotated_lattice(q, math.pi / 6), linf).min_gap
           for q in qs]
    straight = [distance_set(PointSet.lattice(q), linf).min_gap for q in qs]
    unrotated_ok = all(g == 1.0 for g in straight)
    ok = rot[0] > rot[1] > rot[2] and rot[2] < 1e-2 and unrotated_ok
    _crit(8, ok, "rotated linf min_gap "
          + " > ".join(f"{g:.4g}" for g in rot)
          + f", final < 1e-2: {rot[2] < 1e-2}; unrotated min_gap == 1 "
          + f"everywhere: {unrotated_ok}")


def test_criterion_09_cantor_identities():
    pre_ok = all(difference_cover(CantorSpec(2, n)).pre_merge_length
                 == 2 * Fraction(3, 4) ** n for n in range(1, 13))
    iu = cantor_build(CantorSpec(2, 8))
    dim = box_dim((iu, iu), [Fraction(1, 4 ** j) for j in range(1, 9)])
    merged = difference_cover(CantorSpec(2, 10)).union.total_length
    ok = pre_ok and abs(dim - 1.0) <= 0.1 and merged < Fraction(12, 100)
    _crit(9, ok, f"pre-merge length identity 2*(3/4)^n exact for n<=12: "
                 f"{pre_ok}; box_dim of the depth-8 product = {dim:.4f} "
                 f"(want 1.0 +/- 0.1); depth-10 cover length "
                 f"{float(merged):.4f} < 0.12")


def test_criterion_10_energy_trends():
    point = AtomicMeasure([[0.3, 0.4]], [1.0])
    ratio = energy_integral(point, 1.0, 64.0) / energy_integral(point, 1.0, 32.0)
    mu = natural_measure(CantorSpec(2, 8))
    low, high = energy_ladders(mu, [0.8, 1.2], [16.0, 32.0, 64.0])
    ok = (abs(ratio - 2.0) <= 0.2 and low.trend == "growth"
          and high.trend == "plateau")
    _crit(10, ok, f"point-mass T-doubling ratio={ratio:.4f} (want 2 within "
                  f"10%); gamma=0.8 trend={low.trend} (want growth); "
                  f"gamma=1.2 trend={high.trend} (want plateau)")


def test_criterion_11_byte_determinism(tmp_path):
    configs = {
        "distset.ini": """
            [run]
            experiment = distset
            seed = 3
            [body]
            kind = lp
            p = inf
            [distset]
            q_list = 4 8 16 32
            family = perturbed_lattice
            [out]
            svg = scan.svg
        """,
        "fractal.ini": """
            [run]
            experiment = fractal
            [fractal]
            m = 2
            depth = 5
            energy_gammas = 1.0
            energy_T = 4 8 16
        """,
    }
    commands = {"distset.ini": ["distset", "scan"], "fractal.ini": ["fractal", "build"]}
    identical = True
    for name, text in configs.items():
        path = tmp_path / name
        path.write_text(textwrap.dedent(text), encoding="utf-8")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / name.split(".")[0] / sub
            rc = main(commands[name] + ["--config", str(path), "--out", str(out)])
            assert rc == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for f in files:
            identical &= (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    _crit(11, identical, "repeated runs with a fixed seed emit byte-identical "
                         "CSV/JSON/SVG across two experiment families")
