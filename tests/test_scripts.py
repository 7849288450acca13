"""The scripts run against the package: the examples print one row per case,
the config timer prints one row per config, and the benchmark summary judges
synthetic paired runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, rows", [("gap_collapse.py", 6), ("decay_sweep.py", 5)])
def test_script_runs(script, rows):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, str(_ROOT / "scripts" / script)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 + rows, out.stdout  # a header, then one row per case


def test_config_pairs_times_one_pair():
    src = str(_ROOT / "src")
    out = subprocess.run([sys.executable, str(_ROOT / "scripts" / "config_pairs.py"), src, src,
                          "body_square", "--pairs", "1"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.splitlines()
    assert header.split("\t") == ["config", "parent_median_s", "change_median_s",
                                   "parent_iqr_s", "change_wins"]
    name, parent, change, spread, wins = row.split("\t")
    assert name == "body_square" and float(parent) > 0 and float(change) > 0
    assert float(spread) == 0.0 and wins in ("0/1", "1/1")


def test_perfbench_wrapped_names_exist():
    # the benchmark's tracer replaces each (owner, attribute) of WRAPPED when
    # installed, so a deleted or renamed function breaks only traced runs
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  _ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in layers.WRAPPED
               if not hasattr(owner, attr)]
    assert len(layers.WRAPPED) > 0 and missing == []


def _bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary",
                                                  _ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_runs(directory, workload, metrics, side):
    """One untraced result file per seed 1..10, metric values taken per seed."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(10):
        record = {"metrics": {k: v[i] for k, v in metrics.items()},
                  "attempted": 1, "failed": 0,
                  "environment": {"cli_threads": 1, "source_sha256": side, "python": "3"}}
        (directory / f"{workload}-seed{i + 1}-trace0.json").write_text(json.dumps(record))


def test_bench_summary_copies_work_counts(tmp_path):
    flat = {k: [1.0] * 10 for k in ("run_s", "setup_s", "cpu_s", "peak_rss_mb")}
    for side in ("parent", "change"):
        _write_runs(tmp_path / side, "smooth", flat, side)
    work = {"smooth": {"counter": "terms", "parent": 4, "change": 2}}
    (tmp_path / "work.json").write_text(json.dumps(work))
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "0",
            "--out", str(tmp_path / "BENCH.json"), "--work", str(tmp_path / "work.json")]
    assert _bench_summary().main(args) == 0
    summary = json.loads((tmp_path / "BENCH.json").read_text())
    assert summary["workloads"]["smooth"]["work"] == work["smooth"]
    (tmp_path / "work.json").write_text(json.dumps({"other": work["smooth"]}))
    with pytest.raises(SystemExit, match="other"):
        _bench_summary().main(args)


def test_bench_summary_pairs_ties_iqr_bounds_and_claims(tmp_path):
    ramp = [float(x) for x in range(1, 11)]  # inclusive quartiles 3.25 and 7.75
    flat = [10.0] * 10
    parent = {
        "ramp": {"run_s": ramp, "setup_s": ramp, "cpu_s": ramp, "peak_rss_mb": flat},
        "nine": {"run_s": flat, "setup_s": flat, "cpu_s": flat, "peak_rss_mb": flat},
        "eight": {"run_s": flat, "setup_s": flat, "cpu_s": flat, "peak_rss_mb": flat},
    }
    change = {
        # every pair won by far more than the parent IQR of 4.5
        "ramp": {"run_s": [x / 10 for x in ramp],
                 # ties in every pair count for neither side
                 "setup_s": ramp,
                 # nine wins, but the median gap of 1 is inside the parent IQR
                 "cpu_s": [x - 1 for x in ramp[:9]] + [11.0],
                 # 20% worse against a bound of 10%
                 "peak_rss_mb": [12.0] * 10},
        "nine": {"run_s": [5.0] * 9 + [20.0], "setup_s": flat, "cpu_s": flat,
                 "peak_rss_mb": [10.9] * 10},
        "eight": {"run_s": [5.0] * 8 + [20.0] * 2, "setup_s": flat, "cpu_s": flat,
                  "peak_rss_mb": flat},
    }
    for side, runs in (("parent", parent), ("change", change)):
        for workload, metrics in runs.items():
            _write_runs(tmp_path / side, workload, metrics, side)
    out = tmp_path / "BENCH.json"
    assert _bench_summary().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                  "--pr", "0", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["environment"]["source_sha256"] == {"parent": ["parent"],
                                                       "change": ["change"]}
    w = summary["workloads"]
    assert {name: w[name]["pairs"] for name in w} == {"ramp": 10, "nine": 10, "eight": 10}

    run = w["ramp"]["metrics"]["run_s"]
    assert run["parent_iqr"] == 4.5 and run["change_better_pairs"] == 10
    assert run["gain_claimable"] and run["within_bound"]
    tie = w["ramp"]["metrics"]["setup_s"]
    assert tie["change_better_pairs"] == 0 and tie["relative_worsening"] == 0.0
    assert tie["within_bound"] and not tie["gain_claimable"]
    inside = w["ramp"]["metrics"]["cpu_s"]
    assert inside["change_better_pairs"] == 9 and inside["change_median"] == 4.5
    assert not inside["gain_claimable"]
    rss = w["ramp"]["metrics"]["peak_rss_mb"]
    assert rss["relative_worsening"] == pytest.approx(0.2) and not rss["within_bound"]
    assert w["nine"]["metrics"]["peak_rss_mb"]["within_bound"]  # 9% against 10%

    # a gap past a zero parent IQR claims with 9 of 10 wins, not with 8
    assert w["nine"]["metrics"]["run_s"]["change_better_pairs"] == 9
    assert w["nine"]["metrics"]["run_s"]["gain_claimable"]
    assert w["eight"]["metrics"]["run_s"]["change_better_pairs"] == 8
    assert not w["eight"]["metrics"]["run_s"]["gain_claimable"]
