#!/usr/bin/env python3
"""Time bundled configs in alternating fresh-process pairs of two source trees.

    python3 scripts/config_pairs.py PARENT_SRC CHANGE_SRC CONFIG [CONFIG ...] \
        [--pairs 10]

PARENT_SRC and CHANGE_SRC are ``src`` directories of two checkouts, and each
CONFIG names a file of this repository's ``configs/`` (``lemma_disk`` or
``lemma_disk.ini``).  Pair i runs ``python -m gaugedist.cli`` on the config
once with each tree on PYTHONPATH, the parent first in even pairs and the
change first in odd ones, with BLAS and OpenMP at 1 thread and the outputs
in a temporary directory.  The wall time of a run covers the whole process,
imports included.  One row per config gives each side's median, the parent's
interquartile range and the number of pairs the change ran faster.
"""

from __future__ import annotations

import argparse
import configparser
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_summary import iqr

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the CLI action of each [run] experiment
ACTIONS = {"body": "inspect", "decay": "scan", "distset": "scan",
           "fractal": "build", "convert": "demo", "lemma": "check"}
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def command(config: Path) -> list:
    parser = configparser.ConfigParser()
    parser.read(config)
    group = parser.get("run", "experiment")
    return [sys.executable, "-m", "gaugedist.cli", group, ACTIONS[group], "--config",
            str(config)]


def wall_time(cmd: list, src: Path) -> float:
    """Seconds one fresh process takes; a run that errors (exit 1) stops the script."""
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        done = subprocess.run(cmd + ["--out", out], env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode not in (0, 2):  # 2: a verdict failed, which still times
        raise SystemExit(f"{' '.join(cmd)} with {src} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    sides = (args.parent_src.resolve(), args.change_src.resolve())
    print("config\tparent_median_s\tchange_median_s\tparent_iqr_s\tchange_wins")
    for name in args.configs:
        cmd = command(CONFIGS / (name if name.endswith(".ini") else name + ".ini"))
        times = ([], [])
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(wall_time(cmd, sides[side]))
        wins = sum(c < p for p, c in zip(*times))
        print(f"{Path(name).stem}\t{statistics.median(times[0]):.4f}\t"
              f"{statistics.median(times[1]):.4f}\t{iqr(times[0]):.4f}\t{wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
