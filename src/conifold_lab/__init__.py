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
