"""Spans and counters around gaugedist's public functions, installed from outside.

``Tracer.install`` replaces the functions and methods named in ``WRAPPED``
with wrappers that record one span per call (name, start, end, parent span,
run id, thread) and update work counters.  A function is replaced in every
gaugedist module that holds it, so calls made through another module's
attribute (``cli.svg_decay_plot``, ``fractal.distance_set``) are traced too.
Nothing under ``src/`` changes; spans stay in memory until the child
process writes them out.

Work counts that are not observed directly are computed from the call's
arguments and say so in ``COMPUTED``.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from gaugedist import bodies, cli, distset, fourier, fractal, svgplot

MODULES = (cli, bodies, fourier, distset, fractal, svgplot)

COMPUTED = {
    "fourier.spherical_average.node_pairs":
        "angular nodes x boundary nodes (smooth bodies) or x edges (polygons), "
        "from the node rule in fourier.py",
    "distset.distance_set.vectors":
        "difference vectors per call: half the difference grid on the lattice "
        "fast path, n(n-1)/2 pairs otherwise",
    "fractal.AtomicMeasure.ft.terms":
        "atoms of the measure x frequencies, whatever way ft evaluates the sum",
}


def _digest(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).digest()


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and counters for one traced CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, parent id, start, end, thread id)
        self.counts = Counter()
        self.errors = Counter()
        self.distinct = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # worker threads started inside a traced call take the innermost
        # span open on the thread that installed the tracer as their parent
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        return self._main_stack[-1][0] if self._main_stack else None

    def wrap(self, fn, name: str, count=None):
        module = name.split(".")[0]

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                # a call delegating to the same layer, e.g. one body's gauge
                # to another's, is part of the outer span
                return fn(*args, **kwargs)
            sid, parent = next(self._ids), self._parent(stack)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, start, end, threading.get_ident()))
            if count is not None:
                # counting (hashing inputs) runs in a span of its own, so its
                # cost is not charged to the caller's self time
                cstart = time.perf_counter()
                count(self, fn, args, kwargs, result)
                self.spans.append((next(self._ids), "perfbench.count", parent, cstart,
                                   time.perf_counter(), threading.get_ident()))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, count in WRAPPED:
            if isinstance(owner, type):
                for cls in [owner, *_subclasses(owner)]:
                    if attr in vars(cls):
                        setattr(cls, attr, self.wrap(vars(cls)[attr], name, count))
                continue
            fn = getattr(owner, attr)
            traced = self.wrap(fn, name, count)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)

    # -- per-layer metrics ----------------------------------------------

    def layer_metrics(self, output_bytes: int) -> dict:
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[2] is not None:
                children[s[2]].append(s)

        def group(names):
            return [s for s in self.spans if s[1] in names]

        def busy(names):
            # outermost spans of the group only, so nesting is not counted twice
            return sum(s[4] - s[3] for s in group(names)
                       if s[2] is None or by_id[s[2]][1] not in names)

        def self_time(name):
            return sum(s[4] - s[3] - _covered(s, children[s[0]]) for s in group({name}))

        def calls(name):
            return len(group({name}))

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def ratio(key, n):
            return len(self.distinct[key]) / n if n else 0.0

        c = self.counts
        sa_s = busy({"fourier.spherical_average"})
        ds_s = busy({"distset.distance_set"})
        ft_s = busy({"fractal.AtomicMeasure.ft"})
        ds_calls = calls("distset.distance_set")
        ft_calls = calls("fractal.AtomicMeasure.ft")
        out = {
            "cli.self_s": self_time("cli.main"),
            "cli.output_bytes": output_bytes,
            "bodies.boundary_quadrature.calls": calls("bodies.boundary_quadrature"),
            "bodies.boundary_quadrature.s": busy({"bodies.boundary_quadrature"}),
            "bodies.boundary_quadrature.nodes": c["bodies.boundary_quadrature.nodes"],
            "bodies.gauge.s": busy({"bodies.gauge"}),
            "bodies.gauge.points": c["bodies.gauge.points"],
            "fourier.spherical_average.calls": calls("fourier.spherical_average"),
            "fourier.spherical_average.s": sa_s,
            "fourier.spherical_average.self_s": self_time("fourier.spherical_average"),
            "fourier.spherical_average.node_pairs": c["fourier.spherical_average.node_pairs"],
            "fourier.spherical_average.node_pairs_per_s":
                rate(c["fourier.spherical_average.node_pairs"], sa_s),
            "fourier.fit.s": busy({"fourier.decay_fit", "fourier.window_aggregate",
                                   "fourier.octave_envelope"}),
            "distset.distance_set.calls": ds_calls,
            "distset.distance_set.s": ds_s,
            "distset.distance_set.vectors": c["distset.distance_set.vectors"],
            "distset.distance_set.vectors_per_s": rate(c["distset.distance_set.vectors"], ds_s),
            "distset.PointSet.s": busy({"distset.PointSet"}),
            "distset.growth_scan.s": busy({"distset.growth_scan"}),
            "distset.reuse_ratio": ratio("distset.distance_set", ds_calls),
            "fractal.AtomicMeasure.ft.calls": ft_calls,
            "fractal.AtomicMeasure.ft.s": ft_s,
            "fractal.AtomicMeasure.ft.terms": c["fractal.AtomicMeasure.ft.terms"],
            "fractal.AtomicMeasure.ft.terms_per_s": rate(c["fractal.AtomicMeasure.ft.terms"], ft_s),
            "fractal.ft.grid_reuse": ratio("fractal.AtomicMeasure.ft", ft_calls),
            "fractal.natural_measure.s": busy({"fractal.natural_measure"}),
            "fractal.exact.s": busy({"fractal.cantor_build", "fractal.difference_cover",
                                     "fractal.box_dim"}),
            "svgplot.svg_decay_plot.calls": calls("svgplot.svg_decay_plot"),
            "svgplot.svg_decay_plot.s": busy({"svgplot.svg_decay_plot"}),
        }
        for module in MODULES:
            short = module.__name__.split(".")[-1]
            out[f"{short}.errors"] = self.errors[short]
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _covered(span, kids) -> float:
    """Length of the part of ``span`` that the union of ``kids`` covers."""
    lo, hi = span[3], span[4]
    total, reach = 0.0, lo
    for k in sorted(kids, key=lambda k: k[3]):
        a, b = max(k[3], reach), min(k[4], hi)
        if b > a:
            total += b - a
            reach = b
    return total


# -- counters -----------------------------------------------------------


def _count_nodes(tr, fn, args, kwargs, result):
    tr.counts["bodies.boundary_quadrature.nodes"] += len(result[0])


def _count_points(tr, fn, args, kwargs, result):
    body, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    tr.counts["bodies.gauge.points"] += np.asarray(x).size // body.dim


def _count_node_pairs(tr, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    body, R = a["body"], float(a["R"])
    diam = body.diameter()
    angular = a["n_nodes"] or max(fourier._MIN_ANGULAR,
                                  int(math.ceil(fourier._ANGULAR_PER_UNIT * R * diam)))
    poly = body.as_polygon()
    if poly is not None:
        per_node = len(poly.vertices)
    elif isinstance(body, bodies.Ellipsoid) and (
            a["kind"] == "body" or np.ptp(body.semi_axes) == 0.0):
        per_node = 1  # closed Bessel form
    else:
        need = max(4, math.ceil(fourier._PANELS_PER_UNIT * R * diam))
        per_node = fourier._NODES_PER_PANEL * (1 << math.ceil(math.log2(need)))
    tr.counts["fourier.spherical_average.node_pairs"] += angular * per_node


def _count_vectors(tr, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    S, body = a["S"], a["body"]
    if S.provenance in ("lattice", "rotated_lattice") and S.q is not None:
        vectors = ((2 * S.q + 1) ** S.dim - 1) // 2
    else:
        vectors = S.n * (S.n - 1) // 2
    tr.counts["distset.distance_set.vectors"] += vectors
    body_key = (type(body).__name__,) + tuple(
        _digest(v) if isinstance(v, np.ndarray) else repr(v)
        for _, v in sorted(vars(body).items()))
    tr.distinct["distset.distance_set"].add((body_key, _digest(S.points), a["mode"]))


def _count_terms(tr, fn, args, kwargs, result):
    mu, xi = args[0], np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["xi"],
                                               dtype=float))
    tr.counts["fractal.AtomicMeasure.ft.terms"] += len(mu.points) * len(xi)
    tr.distinct["fractal.AtomicMeasure.ft"].add(_digest(xi))


# (owner, attribute, span name, counter); a class owner wraps the attribute
# on the class and on every subclass that defines its own
WRAPPED = (
    (cli, "main", "cli.main", None),
    (bodies, "boundary_quadrature", "bodies.boundary_quadrature", _count_nodes),
    (bodies.ConvexBody, "gauge", "bodies.gauge", _count_points),
    (fourier, "spherical_average", "fourier.spherical_average", _count_node_pairs),
    (fourier, "decay_fit", "fourier.decay_fit", None),
    (fourier, "window_aggregate", "fourier.window_aggregate", None),
    (fourier, "octave_envelope", "fourier.octave_envelope", None),
    (distset, "distance_set", "distset.distance_set", _count_vectors),
    (distset, "growth_scan", "distset.growth_scan", None),
    (distset.PointSet, "__init__", "distset.PointSet", None),
    (fractal.AtomicMeasure, "ft", "fractal.AtomicMeasure.ft", _count_terms),
    (fractal, "natural_measure", "fractal.natural_measure", None),
    (fractal, "cantor_build", "fractal.cantor_build", None),
    (fractal, "difference_cover", "fractal.difference_cover", None),
    (fractal, "box_dim", "fractal.box_dim", None),
    (svgplot, "svg_decay_plot", "svgplot.svg_decay_plot", None),
)
