"""Verification laboratory for the local geometry of conifold transitions.

The package checks, numerically and in exact arithmetic, the classical
facts that make a conifold transition work: Hodge diamonds of projective
hypersurfaces, the Candelas-de la Ossa Ricci-flat metrics on the cone,
its smoothing and its small resolution, the special-Lagrangian vanishing
cycle and its period, the first-order deformation form behind Friedman's
smoothability criterion, and the exact topology-change bookkeeping of
the standard worked examples.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    """Each module of the package as an attribute, imported where it is first read (PEP 562)."""
    if name not in {"acceptance", "checks", "cli", "conifold", "exterior", "hodge", "metrics", "slag", "transitions"}:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{name}")  # as an import statement imports it, so -X importtime lists it
    return globals()[name]
