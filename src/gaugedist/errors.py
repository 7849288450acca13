"""Exception taxonomy shared across the package.

Every error raised by the library derives from GaugedistError so callers can
catch package failures without swallowing unrelated bugs.  Validation errors
also subclass ValueError to stay friendly to generic callers.
"""


class GaugedistError(Exception):
    pass


class ValidationError(GaugedistError, ValueError):
    """Bad constructor input: non-convex data, wrong shapes, bad parameters."""


class ConfigError(GaugedistError, ValueError):
    """Malformed config file; message names the offending section/field."""


class CapabilityError(GaugedistError):
    """Requested combination (body kind, mode, exact data) is not supported;
    never a dimension, as non-planar input is a ValidationError at construction."""


class GeometryError(GaugedistError):
    """Geometric query outside its domain, e.g. chord depth beyond the body."""


class InsufficientDataError(GaugedistError):
    """Too few samples or too little scale separation for a requested fit."""


class BudgetError(GaugedistError):
    """Work estimate exceeds an explicit resource cap; message says the cap."""


class PlotDataError(GaugedistError):
    """Not enough positive samples to draw a log-log plot."""
