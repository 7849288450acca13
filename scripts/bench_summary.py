#!/usr/bin/env python3
"""Summarise paired benchmark runs of a parent and a changed checkout.

    python3 scripts/bench_summary.py PARENT_RESULTS CHANGE_RESULTS --pr 8 \
        --out BENCH_8.json [--seeds 81-90] [--work WORK.json]

PARENT_RESULTS and CHANGE_RESULTS are the ``.perfbench/results`` directories
that ``perfbench/run.py --trace 0`` filled in the two checkouts.  A pair is
one workload and seed run on both sides (``<workload>-seed<N>-trace0.json``
in each directory), run for the ``run_seconds`` of ``BENCHMARK.json``;
the runs of a pair should alternate which side goes first.  For every
workload and end-to-end metric of ``BENCHMARK.json`` the summary records
the medians over the pairs of each side's per-run median,
the number of pairs the change won (ties count for neither side), the
parent's interquartile range, the relative change against the metric's
bound, and whether a gain could be claimed: wins in at least 9/10 of the
pairs and a median difference larger than the parent's IQR.  It also
records failed runs per side and the environment the runs reported.
``--work`` names a JSON object {workload: {"counter": what is counted,
"parent": count, "change": count}}, the work each side does in one run of
the workload; it is copied into that workload's entry as ``work``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace0\.json$")
# environment fields that differ per run or per side, reported elsewhere
PER_RUN = ("workload", "seed", "cli_threads", "git_commit", "source_sha256")


def seed_range(text: str) -> set:
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(directory: Path, seeds) -> dict:
    """{(workload, seed): record} for the untraced result files in directory."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        m = NAME.match(path.name)
        if m and (seeds is None or int(m["seed"]) in seeds):
            runs[(m["workload"], int(m["seed"]))] = json.loads(path.read_text())
    return runs


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(parent: dict, change: dict, spec: dict) -> dict:
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise SystemExit("no workload and seed was run on both sides")
    workloads = {}
    for name in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == name]
        p_runs = [parent[(name, s)] for s in seeds]
        c_runs = [change[(name, s)] for s in seeds]
        metrics = {}
        for m in spec["end_to_end"]:
            key, lower = m["name"], m["better"] == "lower"
            p = [r["metrics"][key] for r in p_runs]
            c = [r["metrics"][key] for r in c_runs]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            p_med, c_med = statistics.median(p), statistics.median(c)
            worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med
            metrics[key] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent_median": p_med, "change_median": c_med,
                "parent_iqr": iqr(p), "change_iqr": iqr(c),
                "change_better_pairs": wins,
                "relative_worsening": worse_by,
                "within_bound": worse_by <= m["bound"],
                "gain_claimable": (wins >= 0.9 * len(seeds)
                                   and -worse_by * p_med > iqr(p)),
                "parent_runs": p, "change_runs": c,
            }
        workloads[name] = {
            "pairs": len(seeds), "seeds": seeds,
            "attempted": {"parent": sum(r["attempted"] for r in p_runs),
                          "change": sum(r["attempted"] for r in c_runs)},
            "failed": {"parent": sum(r["failed"] for r in p_runs),
                       "change": sum(r["failed"] for r in c_runs)},
            "cli_threads": c_runs[0]["environment"].get("cli_threads"),
            "metrics": metrics,
        }
    env = {k: v for k, v in change[pairs[0]]["environment"].items() if k not in PER_RUN}
    env["source_sha256"] = {
        "parent": sorted({r["environment"]["source_sha256"] for r in parent.values()}),
        "change": sorted({r["environment"]["source_sha256"] for r in change.values()})}
    return {"environment": env, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent checkout's .perfbench/results")
    ap.add_argument("change", type=Path, help="the change's .perfbench/results")
    ap.add_argument("--pr", type=int, required=True, help="number of the change")
    ap.add_argument("--seeds", type=seed_range, default=None,
                    help="only these seeds, e.g. 81-90 or 1,3,5")
    ap.add_argument("--work", type=Path, default=None,
                    help="JSON of per-workload work counts of each side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent, args.seeds), load_runs(args.change, args.seeds)
    summary = {"pr": args.pr,
               "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                          f"--seconds {spec['run_seconds']} --trace 0",
               **summarise(parent, change, spec)}
    if args.work is not None:
        for name, work in json.loads(args.work.read_text()).items():
            if name not in summary["workloads"]:
                raise SystemExit(f"work counts for {name!r}, which no pair ran")
            summary["workloads"][name]["work"] = work
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for name, w in summary["workloads"].items():
        print(f"{name}: {w['pairs']} pairs, failed {w['failed']['parent']}"
              f"/{w['failed']['change']} (parent/change)")
        for key, m in w["metrics"].items():
            print(f"  {key}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                  f"(change better {m['change_better_pairs']}/{w['pairs']}, "
                  f"parent IQR {m['parent_iqr']:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
