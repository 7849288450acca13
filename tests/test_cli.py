"""Config parsing, report emission, SVG plots, exit codes, determinism."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaugedist import PlotDataError, decay_fit, svg_decay_plot
from gaugedist import distset as D
from gaugedist.cli import ScanConfig, main
from gaugedist.errors import ConfigError
from gaugedist.fourier import _ANGULAR_CAP, _PANEL_NODE_CAP, _SCAN_CAP


def _cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# svg emitter


def test_svg_two_dots():
    text = svg_decay_plot([1.0, 10.0], [1.0, 0.1])
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count('class="dot"') == 2


def test_svg_identical_bytes():
    a = svg_decay_plot([1.0, 10.0, 100.0], [5.0, 0.5, 0.05])
    b = svg_decay_plot([1.0, 10.0, 100.0], [5.0, 0.5, 0.05])
    assert a == b


def test_svg_slope_label_half():
    R = np.geomspace(8.0, 512.0, 25)
    vals = 2.0 * R ** -0.5
    profile = decay_fit(R, vals)
    text = svg_decay_plot(R, vals, profile)
    assert "slope=-0.50" in text
    assert "gamma=0.5000" in text


def test_svg_drops_nonpositive_with_annotation():
    text = svg_decay_plot([1.0, 10.0, 100.0], [1.0, -0.5, 0.01])
    assert text.count('class="dot"') == 2
    assert "dropped=1" in text


def test_svg_empty_after_filter():
    with pytest.raises(PlotDataError):
        svg_decay_plot([1.0, 10.0], [-1.0, 0.0])
    with pytest.raises(PlotDataError):
        svg_decay_plot([1.0], [1.0])
    with pytest.raises(PlotDataError):
        svg_decay_plot([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# config parsing


def test_config_typed_getters(tmp_path):
    path = _cfg(tmp_path, """
        [run]
        seed = 7
        [grid]
        spacing = 1/3
        ratio = 0.25
        flag = on
        other = no
        qs = 4, 8 16
    """)
    cfg = ScanConfig.load(path)
    assert cfg.seed == 7
    assert cfg.get_float("grid", "spacing") == pytest.approx(1.0 / 3.0)
    assert cfg.get_float("grid", "ratio") == 0.25
    assert cfg.get_bool("grid", "flag") is True
    assert cfg.get_bool("grid", "other") is False
    assert cfg.get_list("grid", "qs", cast=int) == [4, 8, 16]
    assert cfg.get("grid", "absent", "dflt") == "dflt"


def test_config_diagnostics_name_the_field(tmp_path):
    path = _cfg(tmp_path, """
        [grid]
        spacing = oops
    """)
    cfg = ScanConfig.load(path)
    with pytest.raises(ConfigError, match=r"\[grid\] spacing: expected a number"):
        cfg.get_float("grid", "spacing")
    with pytest.raises(ConfigError, match=r"\[grid\] missing_key: missing required"):
        cfg.get("grid", "missing_key")


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        ScanConfig.load("/nonexistent/path.ini")


def test_config_overrides(tmp_path):
    path = _cfg(tmp_path, """
        [run]
        seed = 1
        threads = 1
    """)
    cfg = ScanConfig.load(path, seed=99, threads=3, out_dir=str(tmp_path / "o"))
    assert cfg.seed == 99
    assert cfg.threads == 3
    assert cfg.out_dir.name == "o"


# ---------------------------------------------------------------------------
# end-to-end runs

_DISTSET_INI = """
    [run]
    experiment = distset
    seed = 0
    [body]
    kind = lp
    p = inf
    [distset]
    q_list = 4 8 16 32
    beta_min = 0.9
    beta_max = 1.1
    expect_classification = polygon_like
    [out]
    csv = scan.csv
    json = scan.json
    svg = scan.svg
"""


def test_distset_run_passes_and_writes(tmp_path, capsys):
    path = _cfg(tmp_path, _DISTSET_INI)
    rc = main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] beta =" in out
    assert "[pass] classification = polygon_like" in out
    for name in ("scan.csv", "scan.json", "scan.svg"):
        assert (tmp_path / "a" / name).exists()


def test_distset_scan_counts_through_one_growth_scan(tmp_path, monkeypatch):
    calls = []
    scan = D.growth_scan

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(D, "growth_scan", counted)
    path = _cfg(tmp_path, _DISTSET_INI)
    assert main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1


def test_exact_mode_on_a_float_polygon_is_one_error_line(tmp_path, capsys):
    path = _cfg(tmp_path, "[run]\nexperiment = distset\n[body]\nkind = hexagon\n"
                          "[distset]\nq_list = 2 4 8 16\nmode = exact_rational\n")
    rc = main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: exact mode supports"), err


def test_csv_format(tmp_path):
    path = _cfg(tmp_path, _DISTSET_INI)
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    raw = (tmp_path / "a" / "scan.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "q,count,min_gap"
    assert lines[1].startswith("4,4,")
    # every data cell is '.'-decimal parseable; no locale separators
    for ln in lines[1:]:
        for cell in ln.split(","):
            float(cell)


def test_json_stable_and_passed(tmp_path):
    path = _cfg(tmp_path, _DISTSET_INI)
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    raw = (tmp_path / "a" / "scan.json").read_text()
    doc = json.loads(raw)
    assert doc["passed"] is True
    assert doc["experiment"] == "distset scan"
    assert doc["metadata"]["seed"] == 0
    assert "timestamp" not in doc["metadata"]
    # stable ordering: serialization is sorted at every level
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_byte_determinism_across_runs(tmp_path):
    path = _cfg(tmp_path, _DISTSET_INI)
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "b")])
    for name in ("scan.csv", "scan.json", "scan.svg"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_threshold_failure_exits_2(tmp_path, capsys):
    path = _cfg(tmp_path, _DISTSET_INI.replace("beta_min = 0.9", "beta_min = 5"))
    rc = main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 2
    assert "[FAIL] beta =" in capsys.readouterr().out


def test_malformed_body_exits_1(tmp_path, capsys):
    path = _cfg(tmp_path, _DISTSET_INI.replace("p = inf", "p = wat"))
    rc = main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "[body] p" in err


def test_unknown_body_kind_exits_1(tmp_path, capsys):
    path = _cfg(tmp_path, _DISTSET_INI.replace("kind = lp", "kind = blob"))
    rc = main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    assert "[body] kind" in capsys.readouterr().err


def test_declared_experiment_mismatch(tmp_path, capsys):
    path = _cfg(tmp_path, _DISTSET_INI)
    rc = main(["decay", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "declares 'distset'" in err and "'decay scan'" in err


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["lemma", "check", "--config", str(tmp_path / "no.ini")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


_FRACTAL_INI = """
    [run]
    experiment = fractal
    [fractal]
    m = 2
    depth = 3
    energy_gammas = 0.8 1.2
    energy_T = 4 8 16
"""


@pytest.mark.parametrize("key, value, message", [
    ("energy_gammas", "0.8 2", "each gamma must lie in (0, 2), got 2"),
    ("energy_gammas", "0", "each gamma must lie in (0, 2), got 0"),
    ("energy_gammas", "-0.5 1", "each gamma must lie in (0, 2), got -0.5"),
    ("energy_T", "1 8 16", "every T must exceed 1, got 1"),
    ("energy_T", "8 16", "a trend needs at least 3 distinct values, got 2"),
    ("energy_T", "8 16 8", "a trend needs at least 3 distinct values, got 2"),
])
def test_fractal_energy_keys_checked_at_parse_time(tmp_path, capsys, key, value, message):
    text = _FRACTAL_INI.replace(f"{key} = ", f"{key} = {value} ;")
    path = _cfg(tmp_path, text)
    rc = main(["fractal", "build", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}: [fractal] {key}: {message}" in err
    assert not (tmp_path / "a" / "fractal_build.json").exists()


def test_fractal_energy_grid_over_budget_exits_1(tmp_path, capsys):
    path = _cfg(tmp_path, _FRACTAL_INI.replace("energy_T = 4 8 16", "energy_T = 16 32 5000"))
    rc = main(["fractal", "build", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    assert "exceeds the cap of 2097152" in capsys.readouterr().err


def test_list_keys_accept_fractions(tmp_path):
    fits = []
    for gammas in ("0.8 1.2", "4/5 6/5"):
        path = _cfg(tmp_path, _FRACTAL_INI.replace("0.8 1.2", gammas), name=f"{len(fits)}.ini")
        out = tmp_path / str(len(fits))
        assert main(["fractal", "build", "--config", path, "--out", str(out)]) == 0
        fits.append(json.loads((out / "fractal_build.json").read_text())["fits"])
    assert "energy_gamma_0.8" in fits[1]
    assert fits[0] == fits[1]


_KEY_MINIMUM_CASES = [
    ("body", "inspect", "[run]\nexperiment = body\n[body]\nkind = square\n", "inspect", "n_theta"),
    ("body", "inspect", "[run]\nexperiment = body\n[body]\nkind = square\n", "run", "threads"),
    ("decay", "scan", "[run]\nexperiment = decay\n[body]\nkind = square\n"
     "[decay]\naverage = pointwise\nr_min = 4\nr_max = 64\n", "decay", "windows_per_octave"),
    ("fractal", "build", "[run]\nexperiment = fractal\n[fractal]\nm = 2\n", "fractal", "depth"),
    ("lemma", "check", "[run]\nexperiment = lemma\n[body]\nkind = disk\n", "lemma", "n_theta"),
    ("lemma", "check", "[run]\nexperiment = lemma\n[body]\nkind = disk\n", "lemma", "annulus_theta"),
    ("lemma", "check", "[run]\nexperiment = lemma\n[body]\nkind = disk\n", "lemma", "t_per_octave"),
    ("decay", "scan", "[run]\nexperiment = decay\n[body]\nkind = square\n", "decay",
     "samples_per_octave"),
    ("fractal", "build", "[run]\nexperiment = fractal\n[fractal]\nm = 2\n", "fractal", "dims"),
    ("fractal", "build", "[run]\nexperiment = fractal\n[fractal]\nconstruction = dio\n",
     "fractal", "q"),
    ("body", "inspect", "[run]\nexperiment = body\n[body]\nkind = polygon\n"
     "vertices = 2,1; -1,2; -2,-1; 1,-2\n", "body", "denominator"),
]


@pytest.mark.parametrize("group, action, text, section, key", _KEY_MINIMUM_CASES,
                         ids=[f"{c[3]}.{c[4]}" for c in _KEY_MINIMUM_CASES])
def test_count_keys_must_be_positive(tmp_path, capsys, group, action, text, section, key):
    # the section may already exist; configparser rejects a duplicate header
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 0\n")
    else:
        text += f"[{section}]\n{key} = 0\n"
    path = _cfg(tmp_path, text)
    rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    assert f"{path}: [{section}] {key}: must be >= 1, got 0" in capsys.readouterr().err
    assert not any((tmp_path / "a").glob("*.json"))


_PROBES = [
    ("body", "inspect", "[body]\nkind = disk\nradius = wide\n", "[body] radius"),
    ("body", "inspect", "[body]\nkind = radial\nradii = random:eight\n", "[body] radii"),
    ("body", "inspect", "[body]\nkind = regular\nn_vertices = 6.5\n", "[body] n_vertices"),
    ("lemma", "check", "[body]\nkind = disk\n[lemma]\nwhich = chord\nt_min = 0\n",
     "[lemma] t_min/t_max"),
    ("lemma", "check", "[body]\nkind = disk\n[lemma]\nwhich = chord\nt_min = 64\n"
     "t_max = 8\n", "[lemma] t_min/t_max"),
    ("lemma", "check", "[body]\nkind = disk\n[lemma]\nwhich = annulus\nr_list = 1 2\n"
     "delta_list = 0.01 0.15\n", "[lemma] r_list/xi_list/delta_list"),
    ("fractal", "build", "[fractal]\nm = 1\n", "[fractal] m"),
    ("fractal", "build", "[fractal]\nconstruction = dio\ns = 5\n", "[fractal] s"),
    ("distset", "scan", "[body]\nkind = disk\n[distset]\nq_list = 2 4 8 16\n"
     "family = perturbed_lattice\njitter = 0.7\n", "[distset] jitter"),
    ("convert", "demo", "[body]\nkind = disk\n[convert]\nq_list = 2 4 8 16\ns = 0\n",
     "[convert] s"),
    ("distset", "scan", "[body]\nkind = disk\n[distset]\nq_list = 2 4 8 16\nalpha = 0\n",
     "[distset] alpha"),
    ("convert", "demo", "[body]\nkind = disk\n[convert]\nq_list = 2 4 8 16\nalpha = -1\n",
     "[convert] alpha"),
    ("decay", "scan", "[body]\nkind = square\n[decay]\nr_min = 8\nr_max = 20\n",
     "[decay] r_min/r_max"),
    ("decay", "scan", "[body]\nkind = square\n[decay]\nr_list = 8 9 10 12 14 16 18 20\n",
     "[decay] r_list"),
    ("distset", "scan", "[body]\nkind = disk\n[distset]\nq_list = 2 4 8 16\nmode = exacto\n",
     "[distset] mode"),
    ("distset", "scan", "[body]\nkind = disk\n[distset]\nq_list = 2 4 8 16\n"
     "expect_classification = polygonish\n", "[distset] expect_classification"),
    ("fractal", "build", "[fractal]\nm = 10\ndepth = 8\n", "[fractal] m/depth"),
    ("fractal", "build", "[fractal]\nenergy_gammas = 0.8\nenergy_T = 16 32 5000\n",
     "[fractal] energy_T"),
    ("fractal", "build", "[fractal]\nbox_exponents = 2 4 2000\n", "[fractal] box_exponents"),
    ("body", "inspect", "[run]\nseed = -1\n[body]\nkind = disk\n", "[run] seed"),
    ("body", "inspect", "[body]\nkind = square\nhalf = -1\n", "[body] half"),
]


def _config_error(tmp_path, capsys, group, action, text, where) -> str:
    """The error text of a run that must fail at [section] key, no output written."""
    path = _cfg(tmp_path, text)
    rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {path}: {where}: " in err
    assert "Traceback" not in err
    assert not any((tmp_path / "a").glob("*.json"))
    return err


@pytest.mark.parametrize("group, action, text, where", _PROBES, ids=[c[3] for c in _PROBES])
def test_config_errors_name_file_section_and_key(tmp_path, capsys, group, action, text, where):
    _config_error(tmp_path, capsys, group, action, text, where)


@pytest.mark.parametrize("exponents, bad", [("2 -4 6", -4), ("2 4 1024", 1024)], ids=["-4", "1024"])
def test_box_exponents_checked_before_any_scale(tmp_path, capsys, exponents, bad):
    # more [fractal] box_exponents probes: -4 used to end in a TypeError from
    # Fraction(1, 2 ** -4); past 1023, 2^-e is no positive float scale
    err = _config_error(tmp_path, capsys, "fractal", "build",
                        f"[fractal]\nbox_exponents = {exponents}\n", "[fractal] box_exponents")
    assert f"each exponent must lie in 0..1023, got {bad}" in err


def test_threads_flag_must_be_positive(tmp_path, capsys):
    path = _cfg(tmp_path, "[run]\nexperiment = body\n[body]\nkind = square\n")
    rc = main(["body", "inspect", "--config", path, "--out", str(tmp_path / "a"),
               "--threads", "0"])
    assert rc == 1
    assert "--threads: must be >= 1, got 0" in capsys.readouterr().err


def test_seed_flag_must_be_nonnegative(tmp_path, capsys):
    # a negative seed used to reach np.random.default_rng and end in a traceback
    path = _cfg(tmp_path, "[run]\nexperiment = body\n[body]\nkind = disk\n")
    rc = main(["body", "inspect", "--config", path, "--out", str(tmp_path / "a"),
               "--seed", "-1"])
    assert rc == 1
    assert "error: --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not any((tmp_path / "a").glob("*.json"))


def test_fractal_box_dim_of_many_axes(tmp_path):
    # dims identical axes have dims times the slope of one; dims = 200 used
    # to overflow the float box counts of the product, 256^200 at depth 8
    fits = []
    for dims in (1, 200):
        path = _cfg(tmp_path, f"[run]\nexperiment = fractal\n[fractal]\nm = 2\ndepth = 8\n"
                              f"dims = {dims}\n", name=f"{dims}.ini")
        out = tmp_path / str(dims)
        assert main(["fractal", "build", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "fractal_build.json").read_text())
        fits.append(doc["fits"]["box_dim"])
    assert fits[1]["dims"] == 200
    assert fits[1]["value"] == 200 * fits[0]["value"]


_Q_LIST_CASES = [
    ("4 4 8 16 32", "q = 4 is repeated"),
    ("4 8", "q values must span at least 3 dyadic octaves, got 4..8"),
    ("0 8 16 32", "every q must be >= 1, got 0"),
    ("1 2 1000", "need at least 2 scan points in the largest 3 octaves, got 1..1000"),
    ("4 8.5 16 32", "expected int, got '8.5'"),
]


@pytest.mark.parametrize("group, action, section", [("distset", "scan", "distset"),
                                                    ("convert", "demo", "convert")])
@pytest.mark.parametrize("value, message", _Q_LIST_CASES)
def test_q_list_checked_before_any_point_set(tmp_path, capsys, monkeypatch,
                                             group, action, section, value, message):
    def no_point_sets(*args, **kwargs):
        raise AssertionError("a point set was built")

    monkeypatch.setattr(D.PointSet, "__init__", no_point_sets)
    path = _cfg(tmp_path, f"[run]\nexperiment = {group}\n[body]\nkind = disk\n"
                          f"[{section}]\nq_list = {value}\n")
    rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    assert f"{path}: [{section}] q_list: {message}" in capsys.readouterr().err
    assert not any((tmp_path / "a").glob("*.json"))


@pytest.mark.parametrize("group, action, section", [("distset", "scan", "distset"),
                                                    ("convert", "demo", "convert")])
def test_alpha_checked_before_any_point_set(tmp_path, capsys, monkeypatch,
                                            group, action, section):
    def no_point_sets(*args, **kwargs):
        raise AssertionError("a point set was built")

    monkeypatch.setattr(D.PointSet, "__init__", no_point_sets)
    path = _cfg(tmp_path, f"[run]\nexperiment = {group}\n[body]\nkind = disk\n"
                          f"[{section}]\nq_list = 2 4 8 16\nalpha = 0\n")
    rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 1
    assert (f"{path}: [{section}] alpha: alpha must be positive and finite, got 0.0"
            in capsys.readouterr().err)


# 10^9 points per octave over the default ranges, 4..1024 and 8..512
@pytest.mark.parametrize("group, action, text, key, n", [
    ("lemma", "check", "[body]\nkind = disk\n[lemma]\nwhich = chord\n", "t_per_octave",
     8 * 10**9 + 1),
    ("decay", "scan", "[body]\nkind = disk\n[decay]\n", "samples_per_octave",
     6 * 10**9 + 1),
])
def test_geometric_grids_capped_before_allocating(tmp_path, capsys, group, action, text,
                                                  key, n):
    path = _cfg(tmp_path, f"[run]\nexperiment = {group}\n{text}{key} = 1000000000\n")
    tracemalloc.start()
    try:
        rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert (f"{path}: [{group}] {key}: {n} grid points exceeds the cap of {_SCAN_CAP}"
            in capsys.readouterr().err)
    assert peak < 1 << 20


def test_inspect_n_theta_capped_before_allocating(tmp_path, capsys):
    n = _SCAN_CAP + 1
    path = _cfg(tmp_path, f"[run]\nexperiment = body\n[body]\nkind = disk\n"
                          f"[inspect]\nn_theta = {n}\ncurvature = off\n")
    tracemalloc.start()
    try:
        rc = main(["body", "inspect", "--config", path, "--out", str(tmp_path / "a")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert (f"{path}: [inspect] n_theta: {n} directions exceeds the cap of {_SCAN_CAP}"
            in capsys.readouterr().err)
    assert peak < 1 << 20


# transforms past the angular and panel caps, named by the keys that set them
@pytest.mark.parametrize("group, action, text, keys, cap", [
    ("decay", "scan", "[body]\nkind = disk\n[decay]\nr_list = 1e7 2e7\n", "decay] r_list",
     _ANGULAR_CAP),
    ("decay", "scan", "[body]\nkind = lp\np = 4\n[decay]\naverage = pointwise\n"
     "r_min = 1e6\nr_max = 2e6\nsamples_per_octave = 1\n", "decay] r_min/r_max",
     _PANEL_NODE_CAP),
    ("lemma", "check", "[body]\nkind = lp\np = 4\n[lemma]\nwhich = chord\n"
     "t_min = 1e5\nt_max = 1e6\nt_per_octave = 1\n", "lemma] t_min/t_max/n_theta",
     _PANEL_NODE_CAP),
])
def test_transform_caps_reported_against_their_keys(tmp_path, capsys, group, action, text,
                                                     keys, cap):
    path = _cfg(tmp_path, f"[run]\nexperiment = {group}\n{text}")
    tracemalloc.start()
    try:
        rc = main([group, action, "--config", path, "--out", str(tmp_path / "a")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}: [{keys}: " in err and f"cap of {cap}" in err, err
    assert peak < 1 << 20


_ROOT = Path(__file__).resolve().parent.parent
_BUNDLED = [
    (["body", "inspect"], "body_square"),
    (["decay", "scan"], "decay_disk_l2"),
    (["distset", "scan"], "distset_linf"),
    (["fractal", "build"], "fractal_cantor"),
    (["convert", "demo"], "convert_euclid"),
    (["lemma", "check"], "lemma_disk"),
]


@pytest.mark.parametrize("cmd, stem", _BUNDLED)
def test_bundled_config_reproduces_committed_outputs(tmp_path, cmd, stem):
    out = tmp_path / stem
    rc = main(cmd + ["--config", str(_ROOT / "configs" / f"{stem}.ini"), "--out", str(out)])
    assert rc == 0
    want = _ROOT / "out" / stem
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def _perfbench_invocations(name, run_dir):
    spec = importlib.util.spec_from_file_location("perfbench_run", _ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [inv["argv"] for inv in run.prepare(name, 1, run_dir)]


# np.unique without return_counts imports numpy.ma (25-40 ms) on first use.  The
# disk's Bessel closed form imports scipy.special, whose own import brings in
# numpy.ma, so a run may load it only inside an import of scipy.
_WATCH_NUMPY_MA = """
import json, sys
import gaugedist.cli as cli

class Watch:
    outside_scipy = False

    def find_spec(self, name, path, target=None):
        if name == "numpy.ma":
            frame, modules = sys._getframe(), set()
            while frame is not None:
                modules.add(frame.f_globals.get("__name__", "").split(".")[0])
                frame = frame.f_back
            Watch.outside_scipy = "scipy" not in modules

sys.meta_path.insert(0, Watch())
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "numpy.ma" in sys.modules, Watch.outside_scipy]))
"""


@pytest.mark.parametrize("stem", [stem for _, stem in _BUNDLED]
                         + ["smooth_decay", "polygon_decay", "lattice_distances"])
def test_runs_import_numpy_ma_only_through_scipy(tmp_path, stem):
    bundled = {s: cmd for cmd, s in _BUNDLED}
    if stem in bundled:
        argvs = [bundled[stem] + ["--config", str(_ROOT / "configs" / f"{stem}.ini"),
                                  "--out", str(tmp_path / "out")]]
    else:
        argvs = _perfbench_invocations(stem, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _WATCH_NUMPY_MA, json.dumps(argvs)],
                         capture_output=True, text=True, check=True, env=env, cwd=tmp_path)
    codes, imported, outside_scipy = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert not outside_scipy
    # no benchmark workload imports scipy, so none may import numpy.ma at all
    if stem not in ("decay_disk_l2", "lemma_disk"):
        assert not imported


def test_seed_override_changes_perturbed_scan(tmp_path):
    ini = _DISTSET_INI.replace("q_list = 4 8 16 32",
                               "q_list = 4 8 16 32\n    family = perturbed_lattice")
    path = _cfg(tmp_path, ini)
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a"), "--seed", "7"])
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "b"), "--seed", "8"])
    a = (tmp_path / "a" / "scan.csv").read_bytes()
    b = (tmp_path / "b" / "scan.csv").read_bytes()
    assert a != b
    doc = json.loads((tmp_path / "a" / "scan.json").read_text())
    assert doc["metadata"]["seed"] == 7


def test_timestamp_opt_in(tmp_path):
    ini = _DISTSET_INI.replace("seed = 0", "seed = 0\n    timestamp = on")
    path = _cfg(tmp_path, ini)
    main(["distset", "scan", "--config", path, "--out", str(tmp_path / "a")])
    doc = json.loads((tmp_path / "a" / "scan.json").read_text())
    assert "timestamp" in doc["metadata"]


def test_body_inspect_curvature_verdict(tmp_path, capsys):
    path = _cfg(tmp_path, """
        [run]
        experiment = body
        [body]
        kind = square
        half = 1
        [inspect]
        n_theta = 8
        expect_curvature = off
        [out]
        csv = b.csv
        json = b.json
    """)
    rc = main(["body", "inspect", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    assert "[pass] curvature_satisfied = False" in capsys.readouterr().out
    lines = (tmp_path / "a" / "b.csv").read_text().splitlines()
    assert lines[0] == "theta,support,radial"
    assert len(lines) == 9
    doc = json.loads((tmp_path / "a" / "b.json").read_text())
    assert doc["fits"]["curvature"]["satisfied"] is False


@pytest.mark.parametrize("radii", ["1, 1.2, 1, 1.2", "random:8"])
def test_body_inspect_radial_profile(tmp_path, radii):
    # no [inspect] section: the curvature scan runs by default
    path = _cfg(tmp_path, f"""
        [run]
        experiment = body
        seed = 3
        [body]
        kind = radial
        radii = {radii}
    """)
    rc = main(["body", "inspect", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    doc = json.loads((tmp_path / "a" / "body_inspect.json").read_text())
    summary = doc["fits"]["summary"]
    assert summary["kind"] == "Polygon2D"
    assert "satisfied" in doc["fits"]["curvature"]
    if radii.startswith("random"):
        assert 0 < summary["inradius"] < summary["circumradius"] <= 1.3
    else:
        assert summary["volume"] == pytest.approx(2.4, rel=1e-15)
        assert summary["circumradius"] == pytest.approx(1.2, rel=1e-15)


def test_fractal_build_exact_strings(tmp_path):
    path = _cfg(tmp_path, """
        [run]
        experiment = fractal
        [fractal]
        construction = cantor
        m = 2
        depth = 3
        cover_length_max = 0.5
        [out]
        csv = f.csv
        json = f.json
    """)
    rc = main(["fractal", "build", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    lines = (tmp_path / "a" / "f.csv").read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0,1/64"
    assert len(lines) == 9
    doc = json.loads((tmp_path / "a" / "f.json").read_text())
    assert doc["fits"]["cantor"]["total_length"] == "1/8"
    assert doc["fits"]["difference_cover"]["pre_merge_length"] == "27/32"


def test_decay_scan_pointwise_run(tmp_path, capsys):
    path = _cfg(tmp_path, """
        [run]
        experiment = decay
        [body]
        kind = square
        half = 1
        [decay]
        kind = surface
        average = pointwise
        theta = 0
        r_min = 4
        r_max = 64
        samples_per_octave = 4
        aggregation = envelope
        gamma_max = 0.05
        [out]
        csv = d.csv
        json = d.json
    """)
    rc = main(["decay", "scan", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    assert "[pass] gamma" in capsys.readouterr().out
    lines = (tmp_path / "a" / "d.csv").read_text().splitlines()
    assert lines[0] == "R,theta,value_re,value_im,abs"
