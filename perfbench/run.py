#!/usr/bin/env python3
"""gaugedist benchmark: named workloads through the real CLI, one fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

Run it from the root of a gaugedist checkout; it measures the package under
``src/`` there.  Each run spawns ``child.py`` again and again until
``--seconds`` have passed, checks every child's outputs, and prints as its
last line one JSON object with the medians of the metrics that
``BENCHMARK.json`` declares: the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A traced run alternates untraced and
traced children, so it also reports the tracing overhead.  ``all`` runs every
workload untraced and prints a table.  The self-test checks that counts
repeat exactly and that the seed moves only the lattice workload's inputs.
``predictions.json`` maps each per-layer metric to the end-to-end metric and
workload it should move, and records the first baseline.

Children run with BLAS limited to one thread, so the CLI ``threads`` setting
is the only parallelism.  Outputs go to a temporary directory under
``.perfbench/``, next to a JSON record of every run (environment, samples,
spans) in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# per-layer metrics with these units are counts and must repeat exactly
COUNT_UNITS = ("count", "bytes", "ratio")

WORKLOADS = ("cantor_energy", "smooth_decay", "polygon_decay", "lattice_distances")
LATTICE_Q = [128, 256, 512, 1024]
LATTICE_MODES = ("exact_rational", "float_tol")
# fourier.py documents quadrature errors near 1e-10; the CSV keeps 12 digits
DECAY_RTOL = 1e-9
# import-only spawns per run; every workload child adds one set-up sample too
SETUP_SPAWNS = 10
CHILD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REQUIRED = ("src/gaugedist/cli.py", "configs/fractal_cantor.ini",
            "out/fractal_cantor/fractal_build.csv", "out/fractal_cantor/fractal_build.json")


# -- workload inputs ------------------------------------------------------


def hexagon(seed: int) -> list:
    """Integer vertices in [-4, 4]^2 of a strictly convex hexagon symmetric
    about the origin, in counter-clockwise order, drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        half = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
        verts = sorted(half + [(-x, -y) for x, y in half],
                       key=lambda v: math.atan2(v[1], v[0]))
        edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:] + verts[:1])]
        if all(e[0] * f[1] - e[1] * f[0] > 0 for e, f in zip(edges, edges[1:] + edges[:1])):
            return verts


def prepare(name: str, seed: int, run_dir: Path) -> list:
    """Write the workload's configs under ``run_dir``; return its CLI invocations."""
    run_dir.mkdir(parents=True, exist_ok=True)
    def invocation(argv, config, out):
        return {"argv": argv + ["--config", str(config), "--out", str(out)], "out": str(out)}

    if name == "cantor_energy":
        return [invocation(["fractal", "build"], ROOT / "configs/fractal_cantor.ini",
                           run_dir / "out")]
    if name in ("smooth_decay", "polygon_decay"):
        return [invocation(["decay", "scan"], BENCH / "workloads" / f"{name}.ini",
                           run_dir / "out")]
    if name == "lattice_distances":
        template = (BENCH / "workloads/lattice_distances.ini").read_text()
        vertices = "; ".join(f"{x}, {y}" for x, y in hexagon(seed))
        out = []
        for mode in LATTICE_MODES:
            config = run_dir / f"{mode}.ini"
            config.write_text(template.format(vertices=vertices, mode=mode))
            out.append(invocation(["distset", "scan"], config, run_dir / mode))
        return out
    raise ValueError(f"unknown workload {name!r}")


def cli_threads(invocations: list) -> list:
    out = []
    for inv in invocations:
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read(inv["argv"][inv["argv"].index("--config") + 1])
        out.append(cfg.getint("run", "threads", fallback=1))
    return out


# -- correctness ----------------------------------------------------------


def _report(inv: dict) -> dict:
    return json.loads((Path(inv["out"]) / f"{inv['argv'][0]}_{inv['argv'][1]}.json").read_text())


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def check(name: str, invocations: list, exit_codes: list) -> list:
    """Problems with one child's outputs; an empty list means the run is correct."""
    problems = []
    for inv, rc in zip(invocations, exit_codes):
        report = _report(inv)
        failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
        if rc != 0 or failed or not report["passed"]:
            problems.append(f"{' '.join(inv['argv'][:2])}: exit {rc}, failed verdicts {failed}")
    if name == "cantor_energy":
        for fname in ("fractal_build.csv", "fractal_build.json"):
            got = (Path(invocations[0]["out"]) / fname).read_bytes()
            if got != (ROOT / "out/fractal_cantor" / fname).read_bytes():
                problems.append(f"{fname} differs from out/fractal_cantor/{fname}")
    elif name in ("smooth_decay", "polygon_decay"):
        got = _csv_rows(Path(invocations[0]["out"]) / "decay_scan.csv")
        want = _csv_rows(BENCH / "reference" / f"{name}.csv")
        if len(got) != len(want):
            problems.append(f"{len(got)} radii, reference has {len(want)}")
        for (r, v), (r0, v0) in zip(got, want):
            if not (math.isclose(r, r0, rel_tol=DECAY_RTOL)
                    and math.isclose(v, v0, rel_tol=DECAY_RTOL)):
                problems.append(f"R={r}: average {v!r}, reference {v0!r} (rtol {DECAY_RTOL})")
    elif name == "lattice_distances":
        scans = [{row["q"]: row["count"] for row in _report(inv)["tables"]["scan"]}
                 for inv in invocations]
        if any(sorted(s) != LATTICE_Q for s in scans):
            problems.append(f"q lists {[sorted(s) for s in scans]}, want {LATTICE_Q}")
        for q in LATTICE_Q:
            if scans[0].get(q) != scans[1].get(q):
                problems.append(f"q={q}: exact count {scans[0].get(q)} != float count "
                                f"{scans[1].get(q)}")
    return problems


def same_outputs(a: list, b: list) -> list:
    """Problems if two runs' output directories differ in any file or byte."""
    problems = []
    for inv_a, inv_b in zip(a, b):
        da, db = Path(inv_a["out"]), Path(inv_b["out"])
        files_a = sorted(p.relative_to(da) for p in da.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(db) for p in db.rglob("*") if p.is_file())
        if files_a != files_b:
            problems.append(f"traced run wrote {files_b}, untraced {files_a}")
        problems += [f"traced {f} differs from untraced" for f in files_a
                     if f in files_b and (da / f).read_bytes() != (db / f).read_bytes()]
    return problems


# -- child processes ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class ChildError(RuntimeError):
    pass


def spawn(run_dir: Path, invocations: list, trace: bool, run_id: str) -> dict:
    """Run one child to completion; return its result record."""
    run_dir.mkdir(parents=True, exist_ok=True)
    spec, result = run_dir / "spec.json", run_dir / "result.json"
    spec.write_text(json.dumps({"trace": trace, "run_id": run_id, "invocations": invocations}))
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec), str(result),
                           repr(launched)], cwd=run_dir, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(result.read_text())
    if Path(record["cli_file"]).resolve() != (ROOT / "src/gaugedist/cli.py").resolve():
        raise ChildError(f"child imported {record['cli_file']}, not this checkout's src/")
    return record


# -- environment ----------------------------------------------------------


def last_level_cache() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            kind = (index / "type").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and (best is None or level > best[0]):
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(name: str, seed: int, versions: dict, invocations: list) -> dict:
    return {"workload": name, "seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "cli_threads": cli_threads(invocations), **versions,
            "last_level_cache": last_level_cache(), "git_commit": git_commit(),
            "source_sha256": source_sha256()}


# -- one workload ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    samples, layers, overhead, problems, spans = [], [], [], [], []
    attempted = failed = 0
    computed = None
    try:
        # untimed: fills the bytecode and page caches, reports versions
        versions = spawn(tmp / "warm", [], False, "warm")["versions"]
        start = time.monotonic()
        setup = [spawn(tmp / f"setup-{k}", [], False, "setup")["setup_s"]
                 for k in range(0 if trace else SETUP_SPAWNS)]
        durations = []
        for i in itertools.count():
            began = time.monotonic()
            kinds = [False, True] if trace else [False]
            if i % 2:
                kinds.reverse()  # alternate which side of a traced pair runs first
            runs = {}
            for traced in kinds:
                run_dir = tmp / f"{i}-{'traced' if traced else 'plain'}"
                invocations = prepare(name, seed, run_dir)
                attempted += 1
                try:
                    record = spawn(run_dir, invocations, traced, f"{name}-{seed}-{i}")
                    found = check(name, invocations, record["exit_codes"])
                except (ChildError, OSError, ValueError, KeyError,
                        subprocess.TimeoutExpired) as exc:
                    record, found = None, [f"{type(exc).__name__}: {exc}"]
                runs[traced] = (record, invocations, found)
            complete = all(record is not None for record, _, _ in runs.values())
            if trace and complete:
                runs[True][2].extend(same_outputs(runs[False][1], runs[True][1]))
            for traced, (_, _, found) in runs.items():
                failed += bool(found)
                problems += [f"run {i}{' traced' if traced else ''}: {p}" for p in found]
            if complete:
                plain = runs[False][0]
                samples.append(plain)
                setup.append(plain["setup_s"])
                if trace:
                    layers.append(runs[True][0]["layers"])
                    overhead.append(runs[True][0]["run_s"] - plain["run_s"])
                    spans.append(runs[True][0]["spans"])
                    computed = runs[True][0]["computed"]
            elif not samples and attempted >= 3:
                break  # nothing completes; do not spin until the deadline
            for run_dir in tmp.glob(f"{i}-*"):
                shutil.rmtree(run_dir, ignore_errors=True)
            durations.append(time.monotonic() - began)
            # start another sample only if at least half of it falls before
            # the deadline, so a run lasts about --seconds on average
            if samples and time.monotonic() + statistics.median(durations) / 2 > start + seconds:
                break
        env = environment(name, seed, versions, prepare(name, seed, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not samples:
        raise ChildError("no run completed: " + "; ".join(problems[-3:]))

    metrics = {}
    if trace:
        unrepeated = []
        for key in layers[0]:
            values = [lay[key] for lay in layers]
            if UNITS[key] in COUNT_UNITS:
                if len(set(values)) > 1:
                    unrepeated.append(f"count {key} did not repeat: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        if unrepeated:
            failed = min(attempted, failed + 1)
            problems += unrepeated
        metrics["trace.overhead_s"] = statistics.median(overhead)
        declared = [m["name"] for m in SPEC["per_layer"]]
    else:
        for key in ("run_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(s[key] for s in samples)
        metrics["setup_s"] = statistics.median(setup)
        declared = [m["name"] for m in SPEC["end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {declared}")

    record = {"environment": env, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics,
              "samples": samples if not trace else {"plain": samples, "layers": layers,
                                                     "overhead_s": overhead},
              "setup_s": setup}
    if trace:
        record["computed_counts"] = computed
        record["spans"] = spans
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": UNITS[k.split("/")[-1]]}
                                   for k, v in metrics.items()}})


def print_record(name: str, record: dict) -> None:
    share = record["failed"] / record["attempted"]
    print(f"{name}: {record['attempted']} runs, {record['failed']} failed ({share:.1%})")
    for p in record["problems"]:
        print(f"  FAILED {p}")
    for key, value in record["metrics"].items():
        print(f"  {key:45s} {value:14.6g} {UNITS[key]}")
    print("  environment " + json.dumps(record["environment"], sort_keys=True))


# -- self-test ------------------------------------------------------------


def self_test() -> int:
    problems = []
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="self-test-", dir=WORK))
    try:
        for name in WORKLOADS:
            inputs = []
            for seed in (1, 2):
                invs = prepare(name, seed, tmp / f"{name}-inputs-{seed}")
                inputs.append([Path(inv["argv"][inv["argv"].index("--config") + 1]).read_text()
                               for inv in invs])
            moved = inputs[0] != inputs[1]
            if moved != (name == "lattice_distances"):
                problems.append(f"{name}: seed {'changes' if moved else 'keeps'} the inputs")
            counts = []
            for rep in range(2):
                run_dir = tmp / f"{name}-{rep}"
                invs = prepare(name, 1, run_dir)
                rec = spawn(run_dir, invs, True, f"self-test-{name}-{rep}")
                problems += [f"{name}: {p}" for p in check(name, invs, rec["exit_codes"])]
                counts.append({k: v for k, v in rec["layers"].items()
                               if UNITS[k] in COUNT_UNITS})
            declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
            if set(rec["layers"]) != declared:
                problems.append(f"{name}: layer metrics differ from BENCHMARK.json: "
                                f"{sorted(set(rec['layers']) ^ declared)}")
            for key in counts[0]:
                if counts[0][key] != counts[1][key]:
                    problems.append(f"{name}: {key} = {counts[0][key]} then {counts[1][key]}")
            print(f"{name}: counts " + json.dumps(counts[0], sort_keys=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


# -- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gaugedist checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(name, record)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in record["metrics"].items()})
    if len(names) > 1:
        print(f"all workloads: {attempted} runs, {failed} failed ({failed / attempted:.1%})")
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
