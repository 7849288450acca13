#!/usr/bin/env python3
"""Separation collapse of rotated-lattice distance sets under sup norm.

The axis-aligned lattice has sup-norm distance set {1, ..., q}/1 with
unit gaps at every q; rotating by pi/6 destroys the arithmetic and the
minimum gap collapses polynomially.  Prints both trends side by side.
"""

import math

import numpy as np

from gaugedist import LpBall, PointSet, growth_scan

QS = [16, 32, 64, 128, 256, 512]
ANGLE = math.pi / 6


def scan():
    body = LpBall(np.inf, (1.0, 1.0))
    straight = growth_scan(PointSet.lattice, body, QS)
    rot = growth_scan(lambda q: PointSet.rotated_lattice(q, ANGLE), body, QS)
    print(f"{'q':>5} {'straight gap':>14} {'rotated gap':>14} {'rot count':>10}")
    for q, gap, rot_gap, count in zip(QS, straight.min_gaps, rot.min_gaps, rot.counts):
        print(f"{q:>5} {gap:>14.6g} {rot_gap:>14.6g} {count:>10d}")


if __name__ == "__main__":
    scan()
