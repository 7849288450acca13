"""Gauge geometry of symmetric convex bodies, Fourier decay, and distance sets.

The package is organised around one pipeline: build a body (``bodies``),
measure the decay of its Fourier transforms (``fourier``), count the
distances it induces on point configurations (``distset``), and compare
against fractal counterexample constructions (``fractal``).  ``cli``
exposes the config-driven experiment runner.
"""

from .errors import (
    GaugedistError,
    ValidationError,
    GeometryError,
    CapabilityError,
    BudgetError,
    InsufficientDataError,
    ConfigError,
    PlotDataError,
)
from .bodies import (
    ConvexBody,
    Polygon2D,
    Ellipsoid,
    LpBall,
    disk,
    ellipse,
    square,
    diamond,
    regular_polygon,
    radial_polygon,
    random_symmetric_hexagon,
    perimeter,
    chord_length,
    chord_length_exact,
    curvature_condition,
    CurvatureReport,
)
from .fourier import (
    surface_ft,
    body_ft,
    annulus_ft,
    AnnulusSpec,
    spherical_average,
    DecayProfile,
    decay_fit,
    octave_envelope,
    window_aggregate,
    chord_bound_report,
    ChordBoundReport,
    annulus_bound_report,
    AnnulusBoundReport,
)
from .distset import (
    PointSet,
    DistanceSet,
    distance_set,
    well_distributed_check,
    WellDistributedReport,
    separated_check,
    SeparatedReport,
    growth_fit,
    growth_scan,
    GrowthReport,
    polygonality_probe,
)
from .fractal import (
    IntervalUnion,
    CantorSpec,
    cantor_build,
    DifferenceCover,
    difference_cover,
    box_dim,
    DioSpec,
    DioSet,
    dio_build,
    DeltaCover,
    delta_cover,
    AtomicMeasure,
    CantorMeasure,
    natural_measure,
    energy_integral,
    EnergyLadder,
    energy_ladders,
)
from .svgplot import svg_decay_plot

__version__ = "0.1.0"

__all__ = [
    "GaugedistError", "ValidationError", "GeometryError", "CapabilityError",
    "BudgetError", "InsufficientDataError", "ConfigError", "PlotDataError",
    "ConvexBody", "Polygon2D", "Ellipsoid", "LpBall",
    "disk", "ellipse", "square", "diamond", "regular_polygon", "radial_polygon",
    "random_symmetric_hexagon", "perimeter",
    "chord_length", "chord_length_exact", "curvature_condition",
    "CurvatureReport",
    "surface_ft", "body_ft", "annulus_ft", "AnnulusSpec",
    "spherical_average", "DecayProfile", "decay_fit",
    "octave_envelope", "window_aggregate", "chord_bound_report",
    "ChordBoundReport", "annulus_bound_report", "AnnulusBoundReport",
    "PointSet", "DistanceSet", "distance_set", "well_distributed_check",
    "WellDistributedReport", "separated_check", "SeparatedReport",
    "growth_fit", "growth_scan", "GrowthReport", "polygonality_probe",
    "IntervalUnion", "CantorSpec", "cantor_build", "DifferenceCover",
    "difference_cover", "box_dim", "DioSpec", "DioSet", "dio_build",
    "DeltaCover", "delta_cover", "AtomicMeasure", "CantorMeasure",
    "natural_measure", "energy_integral", "EnergyLadder", "energy_ladders",
    "svg_decay_plot",
]
