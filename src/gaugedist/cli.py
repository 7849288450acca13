"""Command-line surface: config-driven experiments with CSV/JSON/SVG reports.

One structured config file describes one run; the CLI dispatches to the
owning module, writes the result tables and fit summaries, and judges
any thresholds declared in the config.  Exit codes: 0 all verdicts
pass, 2 a threshold verdict failed, 1 error.  Outputs are byte-stable
for a fixed config and seed; the optional timestamp field is off by
default precisely to keep them so.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import bodies as B
from . import fourier as F
from . import distset as D
from . import fractal as X
from .errors import (BudgetError, ConfigError, GaugedistError, InsufficientDataError,
                     ValidationError)
from .svgplot import svg_decay_plot

_REQUIRED = object()
_MODES = ("float_tol", "exact_rational")


def _number(text: str) -> float:
    """A decimal or a fraction such as 1/3, correctly rounded."""
    return float(Fraction(text))


class ScanConfig:
    """Typed view over a parsed INI config with field-naming diagnostics."""

    def __init__(self, parser: configparser.ConfigParser, path: str,
                 seed: Optional[int] = None, threads: Optional[int] = None,
                 out_dir: Optional[str] = None):
        self._p = parser
        self.path = path
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed}")
        self.seed = seed if seed is not None else self.get_int("run", "seed", 0, minimum=0)
        if threads is not None and threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {threads}")
        self.threads = (threads if threads is not None
                        else self.get_int("run", "threads", 1, minimum=1))
        self.out_dir = Path(out_dir if out_dir is not None
                            else self.get("run", "out_dir", "."))
        self.timestamp = self.get_bool("run", "timestamp", False)

    @classmethod
    def load(cls, path: str, **overrides) -> "ScanConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError:
            raise ConfigError(f"{path}: config file not found") from None
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return cls(parser, path, **overrides)

    def get(self, section: str, key: str, default=_REQUIRED) -> str:
        if self._p.has_option(section, key):
            return self._p.get(section, key).strip()
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}: [{section}] {key}: missing required key")
        return default

    def _cast(self, section, key, raw, caster, what):
        try:
            return caster(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{self.path}: [{section}] {key}: expected {what}, got {raw!r}") from None

    def get_int(self, section, key, default=_REQUIRED, minimum=None) -> int:
        raw = self.get(section, key, default)
        val = raw if not isinstance(raw, str) else self._cast(
            section, key, raw, int, "an integer")
        if minimum is not None and val < minimum:
            raise ConfigError(
                f"{self.path}: [{section}] {key}: must be >= {minimum}, got {val}")
        return val

    def get_float(self, section, key, default=_REQUIRED) -> float:
        raw = self.get(section, key, default)
        if not isinstance(raw, str):
            return raw
        return self._cast(section, key, raw, _number, "a number")

    def get_bool(self, section, key, default=_REQUIRED) -> bool:
        raw = self.get(section, key, default)
        if not isinstance(raw, str):
            return raw
        low = raw.lower()
        if low in ("on", "true", "yes", "1"):
            return True
        if low in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"{self.path}: [{section}] {key}: expected on/off, got {raw!r}")

    def get_list(self, section, key, default=_REQUIRED, cast=float):
        raw = self.get(section, key, default)
        if not isinstance(raw, str):
            return raw
        items = [t for t in raw.replace(",", " ").split() if t]
        if not items:
            raise ConfigError(f"{self.path}: [{section}] {key}: list is empty")
        caster, what = (_number, "a number") if cast is float else (cast, cast.__name__)
        return [self._cast(section, key, t, caster, what) for t in items]

    def get_choice(self, section, key, choices, default=_REQUIRED):
        """The value of [section] key, one of ``choices`` (or a None default)."""
        raw = self.get(section, key, default)
        if raw is None or raw in choices:
            return raw
        listed = ", ".join(choices[:-1]) + " or " + choices[-1]
        raise ConfigError(f"{self.path}: [{section}] {key}: expected {listed}, got {raw!r}")

    def build(self, section, keys, fn, *args, **kwargs):
        """fn(*args, **kwargs), its ValidationError, InsufficientDataError or
        BudgetError reported against [section] keys."""
        try:
            return fn(*args, **kwargs)
        except (ValidationError, InsufficientDataError) as exc:
            raise ConfigError(f"{self.path}: [{section}] {keys}: {exc}") from None
        except BudgetError as exc:
            raise BudgetError(f"{self.path}: [{section}] {keys}: {exc}") from None

    def echo(self) -> dict:
        return {s: dict(self._p.items(s)) for s in self._p.sections()}


@dataclass
class Report:
    """Everything one run produced, JSON-serializable with stable keys."""

    experiment: str
    config_echo: dict
    tables: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_verdict(self, name: str, value, threshold: str, passed: bool):
        self.verdicts.append({"name": name, "value": value,
                              "threshold": threshold, "passed": bool(passed)})

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "metadata": {"version": __version__, **self.metadata},
            "config": self.config_echo,
            "tables": self.tables,
            "fits": self.fits,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }


def _num(x) -> str:
    """Fixed CSV number rendering: '.' decimal, shortest stable form."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".12g")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_default(x):
    """The JSON form of what json cannot encode itself: numpy scalars and
    arrays as Python numbers and lists, a Fraction as its string."""
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n",
                    encoding="utf-8", newline="\n")


def _fit_summary(profile: F.DecayProfile) -> dict:
    return {"gamma": profile.gamma, "C": profile.amplitude,
            "residual": profile.residual, "n_samples": int(profile.n_used),
            "n_dropped": int(profile.n_dropped), "log_power": int(profile.log_power)}


def _band_verdict(report: Report, cfg: ScanConfig, section: str, name: str, value: float):
    lo = cfg.get_float(section, f"{name}_min", None)
    hi = cfg.get_float(section, f"{name}_max", None)
    if lo is None and hi is None:
        return
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    report.add_verdict(name, value, f"[{_num(lo)}, {_num(hi)}]", lo <= value <= hi)


def _body_from(cfg: ScanConfig) -> B.ConvexBody:
    """The body that [body] describes.  Polygon vertices stay exact rationals,
    so exact chord queries and counts stay available; random kinds draw from
    the run seed."""
    sec = "body"
    rng = np.random.default_rng(cfg.seed)
    kind = cfg.get(sec, "kind").lower()
    if kind == "disk":
        return cfg.build(sec, "radius", B.disk, cfg.get_float(sec, "radius", 1.0))
    if kind in ("square", "diamond"):
        return cfg.build(sec, "half", getattr(B, kind), cfg.get_float(sec, "half", 1.0))
    if kind in ("ellipse", "lp"):
        axes = cfg.get_list(sec, "semi_axes", [1.0, 1.0] if kind == "lp" else _REQUIRED)
        if kind == "ellipse":
            return cfg.build(sec, "semi_axes", B.Ellipsoid, axes)
        p = (math.inf if cfg.get(sec, "p").lower() in ("inf", "infinity", "oo")
             else cfg.get_float(sec, "p"))
        return cfg.build(sec, "p/semi_axes", B.LpBall, p, axes)
    if kind == "polygon":
        den = cfg.get_int(sec, "denominator", 1, minimum=1)
        pairs = []
        for chunk in filter(str.strip, cfg.get(sec, "vertices").split(";")):
            xy = [cfg._cast(sec, "vertices", t, Fraction, "a number")
                  for t in chunk.replace(",", " ").split()]
            if len(xy) != 2:
                raise ConfigError(f"{cfg.path}: [body] vertices: expected 'x, y' pairs "
                                  f"separated by ';', got {chunk.strip()!r}")
            pairs.append((xy[0] / den, xy[1] / den))
        return cfg.build(sec, "vertices", B.Polygon2D, pairs)
    if kind == "radial":
        raw = cfg.get(sec, "radii")
        if not raw.startswith("random:"):
            return cfg.build(sec, "radii", B.radial_polygon, cfg.get_list(sec, "radii"))
        n = cfg._cast(sec, "radii", raw[len("random:"):], int, "random:<even count>")
        if n < 4 or n % 2:
            raise ConfigError(f"{cfg.path}: [body] radii: random count must be even >= 4, "
                              f"got {n}")
        cfg.build(sec, "radii", B.check_vertex_count, n)
        for _ in range(1000):
            half = rng.uniform(0.7, 1.3, size=n // 2)
            try:
                return B.radial_polygon(np.concatenate([half, half]))
            except ValidationError:
                continue
        raise ConfigError(f"{cfg.path}: [body] radii: failed to sample a convex profile")
    if kind == "hexagon":
        return B.random_symmetric_hexagon(rng)
    if kind == "regular":
        return cfg.build(sec, "n_vertices/circumradius", B.regular_polygon,
                         cfg.get_int(sec, "n_vertices"),
                         cfg.get_float(sec, "circumradius", 1.0),
                         cfg.get_float(sec, "phase", 0.0))
    raise ConfigError(f"{cfg.path}: [body] kind: unknown kind {kind!r}")


def _geometric_grid(cfg: ScanConfig, sec: str, name: str, lo: float, hi: float,
                    per_key: str, per: int) -> np.ndarray:
    """<name>_min .. <name>_max, geometric, with per_key points per octave."""
    lo = cfg.get_float(sec, f"{name}_min", lo)
    hi = cfg.get_float(sec, f"{name}_max", hi)
    spo = cfg.get_int(sec, per_key, per, minimum=1)
    if not 0 < lo < hi:
        raise ConfigError(f"{cfg.path}: [{sec}] {name}_min/{name}_max: "
                          f"need 0 < {name}_min < {name}_max")
    n = int(round(spo * math.log2(hi / lo))) + 1
    if n > F._SCAN_CAP:
        raise BudgetError(f"{cfg.path}: [{sec}] {per_key}: {n} grid points exceeds "
                          f"the cap of {F._SCAN_CAP}")
    # math.pow, not np.geomspace: numpy's exp and log take other bits under
    # other CPU dispatch
    inner = [lo * math.pow(hi / lo, k / (n - 1)) for k in range(1, n - 1)]
    return np.array([lo, *inner, hi] if n > 1 else [lo])


# ---------------------------------------------------------------------------
# experiment handlers


def _run_body_inspect(cfg: ScanConfig, report: Report):
    body = _body_from(cfg)
    n_theta = cfg.get_int("inspect", "n_theta", 16, minimum=1)
    if n_theta > F._SCAN_CAP:
        raise BudgetError(f"{cfg.path}: [inspect] n_theta: {n_theta} directions exceeds "
                          f"the cap of {F._SCAN_CAP}")
    thetas = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    omegas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    sup = np.asarray(body.support(omegas), dtype=float)
    rad = 1.0 / np.asarray(body.gauge(omegas), dtype=float)
    rows = list(zip(thetas.tolist(), sup.tolist(), rad.tolist()))
    report.tables["boundary"] = [
        {"theta": t, "support": s, "radial": r} for t, s, r in rows]
    report.fits["summary"] = body.summary()
    do_curv = cfg.get_bool("inspect", "curvature", True)
    if do_curv:
        curv = B.curvature_condition(body)
        report.fits["curvature"] = {"satisfied": bool(curv.satisfied),
                                    "c_sup": float(curv.c_sup),
                                    "flat_directions": curv.flat_directions}
        expect = cfg.get("inspect", "expect_curvature", None)
        if expect is not None:
            want = cfg.get_bool("inspect", "expect_curvature")
            report.add_verdict("curvature_satisfied", bool(curv.satisfied),
                               f"expected {want}", curv.satisfied == want)
    return [("theta", "support", "radial")] + [tuple(r) for r in rows]


def _run_decay_scan(cfg: ScanConfig, report: Report):
    body = _body_from(cfg)
    sec = "decay"
    kind = cfg.get_choice(sec, "kind", ("body", "surface"), "body")
    average = cfg.get_choice(sec, "average", ("l1", "l2", "pointwise"), "l2")
    aggregation = cfg.get_choice(sec, "aggregation", ("none", "envelope", "rms", "mean", "max"),
                                 "envelope" if average == "pointwise" else "rms")
    if cfg.get(sec, "r_list", None) is None:
        grid_keys = "r_min/r_max"
        grid = _geometric_grid(cfg, sec, "r", 8.0, 512.0, "samples_per_octave", 8)
    else:
        grid_keys = "r_list"
        grid = np.array(cfg.get_list(sec, "r_list"), dtype=float)
        if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
            raise ConfigError(f"{cfg.path}: [decay] r_list: R grid must be positive and sorted")
    theta = cfg.get_float(sec, "theta", 0.0)
    wpo = cfg.get_int(sec, "windows_per_octave", 2, minimum=1)
    if average == "pointwise":
        xi = np.stack([grid * math.cos(theta), grid * math.sin(theta)], axis=1)
        cplx = cfg.build(sec, grid_keys, F.surface_ft if kind == "surface" else F.body_ft,
                         body, xi)
        vals = np.abs(cplx)
        header = ("R", "theta", "value_re", "value_im", "abs")
        rows = [(R, theta, z.real, z.imag, abs(z)) for R, z in zip(grid, cplx)]
    else:
        p = 1 if average == "l1" else 2
        vals = np.array([cfg.build(sec, grid_keys, F.spherical_average, body, R, kind=kind,
                                   p=p, threads=cfg.threads) for R in grid])
        header = ("R", "average")
        rows = list(zip(grid.tolist(), vals.tolist()))

    if aggregation == "none":
        R_fit, v_fit = grid, vals
    elif aggregation == "envelope":
        R_fit, v_fit = F.octave_envelope(grid, vals, wpo)
    else:
        R_fit, v_fit = F.window_aggregate(grid, vals, wpo, agg=aggregation)

    log_power = 1 if cfg.get_bool(sec, "log_correction", False) else 0
    min_samples = min(8, len(R_fit))
    profile = cfg.build(sec, grid_keys, F.decay_fit, R_fit, v_fit,
                        log_power=log_power, min_samples=min_samples)
    report.fits["decay"] = _fit_summary(profile)
    report.tables["aggregated"] = [
        {"R": float(a), "value": float(b)} for a, b in zip(R_fit, v_fit)]
    _band_verdict(report, cfg, sec, "gamma", profile.gamma)

    svg_name = cfg.get("out", "svg", None)
    if svg_name:
        text = svg_decay_plot(R_fit, v_fit, profile,
                              title=f"{body.kind()} {kind} {average} decay",
                              xlabel="R", ylabel=f"|{kind} transform| {average}")
        (cfg.out_dir / svg_name).write_text(text, encoding="utf-8", newline="\n")
    return [header] + rows


def _distset_family(cfg: ScanConfig, sec: str):
    family = cfg.get(sec, "family", "lattice")
    angle = cfg.get_float(sec, "angle", 0.0)
    jitter = cfg.get_float(sec, "jitter", 0.25)
    seed = cfg.seed
    if family == "lattice":
        return D.PointSet.lattice, "lattice"
    if family == "rotated_lattice":
        return (lambda q: D.PointSet.rotated_lattice(q, angle)), f"rotated_lattice(angle={angle})"
    if family == "perturbed_lattice":
        return (lambda q: cfg.build(sec, "jitter", D.PointSet.perturbed_lattice,
                                    q, seed, jitter)), \
            f"perturbed_lattice(seed={seed}, jitter={jitter})"
    raise ConfigError(f"{cfg.path}: [{sec}] family: unknown family {family!r}")


def _q_list(cfg: ScanConfig, sec: str) -> list:
    """q_list, sorted and checked before any point set is built."""
    qs = sorted(cfg.get_list(sec, "q_list", cast=int))
    where = f"{cfg.path}: [{sec}] q_list"
    if qs[0] < 1:
        raise ConfigError(f"{where}: every q must be >= 1, got {qs[0]}")
    for a, b in zip(qs, qs[1:]):
        if a == b:
            raise ConfigError(f"{where}: q = {a} is repeated")
    cfg.build(sec, "q_list", D.fit_window, qs)
    return qs


def _run_distset_scan(cfg: ScanConfig, report: Report):
    body = _body_from(cfg)
    sec = "distset"
    q_list = _q_list(cfg, sec)
    mode = cfg.get_choice(sec, "mode", _MODES, "float_tol")
    expect_cls = cfg.get_choice(sec, "expect_classification",
                                ("polygon_like", "curved_like", "inconclusive"), None)
    alpha = cfg.get_float(sec, "alpha", None)
    if alpha is not None:
        cfg.build(sec, "alpha", D.conversion_bound, alpha)
    slack = cfg.get_float(sec, "slack", 0.1)
    family, fam_label = _distset_family(cfg, sec)

    grow = D.growth_scan(family, body, q_list, alpha=alpha, slack=slack, mode=mode,
                         threads=cfg.threads)
    rows = list(zip(q_list, grow.counts, grow.min_gaps))
    probe = D.polygonality_probe(grow)
    report.tables["scan"] = [
        {"q": int(q), "count": int(c), "min_gap": float(g)} for q, c, g in rows]
    report.fits["growth"] = {"beta": grow.beta, "amplitude": grow.amplitude,
                             "bound": grow.bound, "verdict": grow.verdict,
                             "n_fit": grow.n_fit, "family": fam_label,
                             "classification": probe}
    if alpha is not None:
        report.add_verdict("beta_bound", grow.beta,
                           f">= {_num(grow.bound)} - {_num(slack)}", bool(grow.verdict))
    _band_verdict(report, cfg, sec, "beta", grow.beta)
    if expect_cls is not None:
        report.add_verdict("classification", probe, f"expected {expect_cls}",
                           probe == expect_cls)

    svg_name = cfg.get("out", "svg", None)
    if svg_name:
        R, counts = grow.q_values.astype(float), grow.counts.astype(float)
        profile = F.DecayProfile(gamma=-grow.beta, amplitude=grow.amplitude,
                                 residual=0.0, n_used=len(q_list), n_dropped=0,
                                 log_power=0, R=R, values=counts)
        text = svg_decay_plot(R.tolist(), counts.tolist(), profile,
                              title=f"distinct distances, {fam_label}",
                              xlabel="q", ylabel="count")
        (cfg.out_dir / svg_name).write_text(text, encoding="utf-8", newline="\n")
    return [("q", "count", "min_gap")] + rows


def _energy_keys(cfg: ScanConfig, sec: str):
    """energy_gammas and energy_T, checked before any work is done."""
    gammas = cfg.get_list(sec, "energy_gammas", [])
    T_list = cfg.get_list(sec, "energy_T", [16.0, 32.0, 64.0])
    where = f"{cfg.path}: [{sec}]"
    for g in gammas:
        if not 0 < g < 2:
            raise ConfigError(f"{where} energy_gammas: each gamma must lie in (0, 2), "
                              f"got {_num(g)}")
    for T in T_list:
        if T <= 1:
            raise ConfigError(f"{where} energy_T: every T must exceed 1, got {_num(T)}")
    if len(set(T_list)) < 3:
        raise ConfigError(f"{where} energy_T: a trend needs at least 3 distinct "
                          f"values, got {len(set(T_list))}")
    return gammas, T_list


def _run_fractal_build(cfg: ScanConfig, report: Report):
    sec = "fractal"
    construction = cfg.get_choice(sec, "construction", ("cantor", "dio"), "cantor")
    rows = [("a", "b")]
    if construction == "cantor":
        gammas, T_list = _energy_keys(cfg, sec)
        expects = [cfg.get_choice(sec, f"expect_trend_{_num(g)}",
                                  ("growth", "plateau", "decay", "mixed"), None) for g in gammas]
        m = cfg.get_int(sec, "m", 2)
        depth = cfg.get_int(sec, "depth", 8, minimum=1)
        spec = cfg.build(sec, "m", X.CantorSpec, m, depth)
        iterate = cfg.build(sec, "m/depth", X.cantor_build, spec)
        rows += [(str(a), str(b)) for a, b in iterate.intervals]
        length = iterate.total_length
        report.fits["cantor"] = {"m": m, "depth": depth, "intervals": iterate.count,
                                 "total_length": str(length), "total_length_float": float(length)}
        if cfg.get_bool(sec, "difference_cover", True):
            dc = cfg.build(sec, "m/depth", X.difference_cover, spec)
            merged = dc.union.total_length
            report.fits["difference_cover"] = {
                "pre_merge_count": dc.pre_merge_count,
                "pre_merge_length": str(dc.pre_merge_length),
                "pre_merge_length_float": float(dc.pre_merge_length),
                "merged_intervals": dc.union.count,
                "merged_length": str(merged), "merged_length_float": float(merged)}
            hi = cfg.get_float(sec, "cover_length_max", None)
            if hi is not None:
                val = float(merged)
                report.add_verdict("cover_length", val, f"< {_num(hi)}", val < hi)
        exps = cfg.get_list(sec, "box_exponents", None, cast=int)
        # 2^-e is a positive float scale up to e = 1023
        bad = [e for e in exps or () if not 0 <= e <= 1023]
        if bad:
            raise ConfigError(f"{cfg.path}: [{sec}] box_exponents: each exponent must lie "
                              f"in 0..1023, got {bad[0]}")
        if exps is None:
            bits = max(1, int(round(math.log2(2 * m))))
            exps = [bits * j for j in range(1, depth + 1)]
        # dims identical axes have N(eps)^dims boxes: dims times the axis slope
        dims = cfg.get_int(sec, "dims", 1, minimum=1)
        scales = [Fraction(1, 2 ** e) for e in exps]
        dim_val = dims * cfg.build(sec, "box_exponents", X.box_dim, iterate, scales)
        report.fits["box_dim"] = {"value": dim_val, "dims": dims,
                                  "scales": [str(s) for s in scales]}
        _band_verdict(report, cfg, sec, "box_dim", dim_val)
        ladders = (cfg.build(sec, "energy_T", X.energy_ladders,
                             cfg.build(sec, "m/depth", X.natural_measure, spec),
                             gammas, T_list) if gammas else ())
        for gamma, ladder, expect in zip(gammas, ladders, expects):
            key = f"energy_gamma_{_num(gamma)}"
            report.fits[key] = {"T": ladder.T_values, "integrals": ladder.integrals,
                                "increments": ladder.increments,
                                "trend": ladder.trend}
            if expect is not None:
                report.add_verdict(key, ladder.trend, f"expected {expect}",
                                   ladder.trend == expect)
    else:
        q = cfg.get_int(sec, "q", 4, minimum=1)
        s = cfg.get_float(sec, "s", 1.0)
        family, fam_label = _distset_family(cfg, sec)
        S = family(q)
        dio = X.dio_build(cfg.build(sec, "s", X.DioSpec, S, q, s))
        rows += list(dio.axis_union())
        report.fits["dio"] = {"q": q, "s": s, "family": fam_label,
                              "cubes": dio.count, "half_side": dio.half_side,
                              "disjoint": bool(dio.disjoint)}
    return rows


def _run_convert_demo(cfg: ScanConfig, report: Report):
    """Discrete-to-continuous conversion ledger along a q ladder.

    Counts distinct distances of S_q, covers the distance set of the
    matching diophantine stage, and compares the fitted growth exponent
    against the conversion bound 2/alpha.
    """
    body = _body_from(cfg)
    sec = "convert"
    q_list = _q_list(cfg, sec)
    s = cfg.get_float(sec, "s", 1.0)
    alpha = cfg.get_float(sec, "alpha", 4.0 / 3.0)
    cfg.build(sec, "alpha", D.conversion_bound, alpha)
    slack = cfg.get_float(sec, "slack", 0.1)
    mode = cfg.get_choice(sec, "mode", _MODES, "float_tol")
    family, fam_label = _distset_family(cfg, sec)

    rows = []
    for q in q_list:
        S = family(q)
        cover = X.delta_cover(cfg.build(sec, "s", X.DioSpec, S, q, s), body, mode=mode)
        rows.append((q, cover.count, cover.total_length, cover.half_width))
    grow = D.growth_fit(q_list, [r[1] for r in rows], alpha=alpha, slack=slack)
    dim_bound = s * grow.beta / 2
    report.tables["ladder"] = [
        {"q": int(q), "count": int(c), "cover_length": float(L),
         "half_width": float(h)} for q, c, L, h in rows]
    report.fits["conversion"] = {
        "family": fam_label, "s": s, "beta": grow.beta,
        "conversion_bound": grow.bound, "dim_bound_s_beta_over_d": dim_bound,
        "verdict": grow.verdict}
    report.add_verdict("beta_bound", grow.beta,
                       f">= {_num(grow.bound)} - {_num(slack)}", bool(grow.verdict))
    return [("q", "count", "cover_length", "half_width")] + rows


def _run_lemma_check(cfg: ScanConfig, report: Report):
    body = _body_from(cfg)
    sec = "lemma"
    which = cfg.get_choice(sec, "which", ("chord", "annulus", "both"), "both")
    expect = cfg.get_choice(sec, "expect_annulus", ("bounded", "divergent"), None)
    rows = [("check", "t_or_R", "xi", "delta", "theta", "value", "bound", "ratio")]
    n_theta = cfg.get_int(sec, "n_theta", 64, minimum=1)
    annulus_theta = cfg.get_int(sec, "annulus_theta", 16, minimum=1)

    if which in ("chord", "both"):
        t_grid = _geometric_grid(cfg, sec, "t", 4.0, 1024.0, "t_per_octave", 4)
        rep = cfg.build(sec, "t_min/t_max/n_theta", F.chord_bound_report, body, t_grid, n_theta)
        for i, t in enumerate(rep.t_values):
            row = rep.ratios[i]
            if not np.any(np.isfinite(row)):
                continue
            j = int(np.nanargmax(row))
            rows.append(("chord", float(t), "", "", float(rep.thetas[j]),
                         "", "", float(row[j])))
        spread_max = cfg.get_float(sec, "spread_max", 2.0)
        report.fits["chord_bound"] = {
            "octave_max": rep.octave_max,
            "octave_spread": rep.octave_spread,
            "n_skipped": int(rep.n_skipped)}
        report.add_verdict("chord_octave_spread", rep.octave_spread,
                           f"<= {_num(spread_max)}", rep.octave_spread <= spread_max)

    if which in ("annulus", "both"):
        R_list = cfg.get_list(sec, "r_list", [1.0, 2.0, 4.0, 8.0])
        xi_list = cfg.get_list(sec, "xi_list", [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
        d_list = cfg.get_list(sec, "delta_list", [1e-3, 1e-2, 1e-1])
        rep = cfg.build(sec, "r_list/xi_list/delta_list", F.annulus_bound_report,
                        body, R_list, xi_list, d_list, annulus_theta)
        for r in rep.rows:
            rows.append(("annulus", r[0], r[1], r[2], r[3], r[4], r[5], r[6]))
        report.fits["annulus_bound"] = {
            "c_hat": rep.c_hat, "growth_slope": rep.growth_slope,
            "divergent": bool(rep.divergent),
            "c_by_xi": rep.c_by_xi}
        if expect is not None:
            got = "divergent" if rep.divergent else "bounded"
            report.add_verdict("annulus_behavior", got, f"expected {expect}",
                               got == expect)
        refine = cfg.get_bool(sec, "refine", False)
        if refine:
            rep2 = cfg.build(sec, "r_list/xi_list/delta_list", F.annulus_bound_report,
                             body, R_list, xi_list, d_list, 2 * annulus_theta)
            ratio = rep2.c_hat / rep.c_hat if rep.c_hat > 0 else math.inf
            report.fits["annulus_refinement"] = {"c_hat_refined": rep2.c_hat,
                                                 "ratio": ratio}
            report.add_verdict("annulus_refinement", ratio, "< 2.0",
                               max(ratio, 1.0 / ratio) < 2.0)
    return rows


_HANDLERS = {
    "body inspect": _run_body_inspect,
    "decay scan": _run_decay_scan,
    "distset scan": _run_distset_scan,
    "fractal build": _run_fractal_build,
    "convert demo": _run_convert_demo,
    "lemma check": _run_lemma_check,
}


def run(experiment: str, cfg: ScanConfig) -> Report:
    """Dispatch one experiment and write its CSV/JSON outputs."""
    declared = cfg.get("run", "experiment", None)
    if declared is not None and declared != experiment.split()[0] \
            and declared.replace("-", " ") != experiment:
        raise ConfigError(f"{cfg.path}: [run] experiment: config declares "
                          f"{declared!r} but the command line asked for {experiment!r}")
    report = Report(experiment, cfg.echo())
    report.metadata["seed"] = cfg.seed
    if cfg.timestamp:
        report.metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)  # handlers may emit SVGs
    table = _HANDLERS[experiment](cfg, report)

    base = experiment.replace(" ", "_")
    csv_name = cfg.get("out", "csv", f"{base}.csv")
    json_name = cfg.get("out", "json", f"{base}.json")
    _write_csv(cfg.out_dir / csv_name, table[0], table[1:])
    _write_json(cfg.out_dir / json_name, report.to_json())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugedist",
        description="Convex-body gauge geometry, Fourier decay, and distance-set scans")
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {"body": "inspect", "decay": "scan", "distset": "scan",
               "fractal": "build", "convert": "demo", "lemma": "check"}
    for group, action in actions.items():
        g = sub.add_parser(group)
        gs = g.add_subparsers(dest="action", required=True)
        a = gs.add_parser(action)
        a.add_argument("--config", required=True, help="path to the INI config")
        a.add_argument("--out", default=None, help="output directory")
        a.add_argument("--seed", type=int, default=None, help="RNG seed override")
        a.add_argument("--threads", type=int, default=None, help="worker threads")
    args = parser.parse_args(argv)
    experiment = f"{args.group} {actions[args.group]}"
    try:
        cfg = ScanConfig.load(args.config, seed=args.seed, threads=args.threads,
                              out_dir=args.out)
        report = run(experiment, cfg)
    except GaugedistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        mark = "pass" if v["passed"] else "FAIL"
        print(f"[{mark}] {v['name']} = {v['value']} (threshold {v['threshold']})")
    if not report.verdicts:
        print(f"{experiment}: done (no thresholds declared)")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
