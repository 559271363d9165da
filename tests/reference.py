"""Independent reference implementations that the tests compare the package
against.  None of them runs on the package's own code paths.

* metrics: a root-finder route to the resolved cubic's positive root.
* hodge: chi(O(m)) in Fraction arithmetic and a dispatcher over the twisted
  Euler-characteristic functions.
* slag: the flat Lagrangian residual of a frame, the fiber residual of a
  cycle grid, and a grid node as a checked fiber point.
* conifold: complex conjugation of fiber points, the inverse of the real
  splitting, and the quadric {xy = zw} with its change of variables to the
  singular fiber.
* transitions: Gauss-Jordan elimination over Fractions and the kernel basis
  built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from conifold_lab.conifold import FiberPoint, RealSplitting, on_fiber
from conifold_lab.hodge import (
    HypersurfaceSpec,
    chi_hypersurface_omega_p,
    chi_omega_p_twist,
    chi_restricted_omega_p,
)
from conifold_lab.slag import CycleGrid

# ---------------------------------------------------------------------------
# metrics


def gamma_resolved_root(tau: float, a: float = 1.0) -> float:
    """Safeguarded root-finder oracle for the same cubic (bisection bracket
    plus Newton polish), independent of the radical formula."""
    if not a > 0:
        raise ValueError("a must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return 0.0

    def cubic(g: float) -> float:
        return g**3 + 6.0 * a**2 * g**2 - tau**2

    hi = max(tau ** (2.0 / 3.0), tau / (math.sqrt(6.0) * a))
    while cubic(hi) <= 0.0:
        hi *= 2.0
    g = brentq(cubic, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    for _ in range(2):
        slope = 3.0 * g**2 + 12.0 * a**2 * g
        if slope == 0.0:
            break
        g -= cubic(g) / slope
    return g


# ---------------------------------------------------------------------------
# hodge


def chi_line_bundle_fraction(n: int, m: int) -> Fraction:
    """Same polynomial as chi_line_bundle but evaluated in Fraction arithmetic.

    Used by tests as an independent route to the integer value.
    """
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(m + i, i)
    return out


@dataclass(frozen=True)
class EulerCharQuery:
    """One twisted Euler-characteristic request, dispatched by target:
    'projective_space' for chi(Omega_P^p(-r)), 'restricted_to_X' for the
    ambient forms restricted to the hypersurface, 'hypersurface' for
    chi(Omega_X^p(-r))."""

    n: int
    p: int
    r: int
    d: int = 0
    target: str = "projective_space"

    def __post_init__(self) -> None:
        if not 0 <= self.p <= self.n:
            raise ValueError("need 0 <= p <= n")
        if self.r < 0:
            raise ValueError("need r >= 0")
        if self.target not in ("projective_space", "restricted_to_X", "hypersurface"):
            raise ValueError(f"unknown target {self.target!r}")

    def evaluate(self) -> int:
        if self.target == "projective_space":
            return chi_omega_p_twist(self.n, self.p, self.r)
        spec = HypersurfaceSpec(self.n, self.d)
        if self.target == "restricted_to_X":
            return chi_restricted_omega_p(spec, self.p, self.r)
        return chi_hypersurface_omega_p(spec, self.p, self.r)


# ---------------------------------------------------------------------------
# slag


def lagrangian_residual(node: np.ndarray, frame: np.ndarray) -> float:
    """Largest value of the flat Kaehler form on frame pairs; vanishes when
    the frame spans a Lagrangian subspace."""
    frame = np.asarray(frame, dtype=complex)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            pairing = np.sum(np.conj(frame[i]) * frame[j])
            worst = max(worst, abs(pairing.imag))
    return worst


def grid_on_fiber_residual(grid: CycleGrid) -> float:
    """Max fiber-equation and radius residual over all grid nodes."""
    fiber = np.abs(np.sum(grid.nodes**2, axis=1) - grid.t)
    radius = np.abs(np.sum(np.abs(grid.nodes) ** 2, axis=1) - abs(grid.t))
    return float(max(fiber.max(), radius.max()))


def node_as_fiber_point(grid: CycleGrid, index: int) -> FiberPoint:
    p = FiberPoint(grid.nodes[index], grid.t)
    assert on_fiber(p, 1e-12)
    return p


# ---------------------------------------------------------------------------
# conifold


def conjugate_point(p: FiberPoint) -> FiberPoint:
    return FiberPoint(np.conj(p.z), np.conj(p.t))


def splitting_to_point(split: RealSplitting, t: float) -> FiberPoint:
    """Inverse of real_coordinates: x = sqrt(|v| + t) u, y = v / sqrt(|v|)."""
    nv = float(np.linalg.norm(split.v))
    x = np.sqrt(nv + t) * split.u
    y = split.v / np.sqrt(nv) if nv > 0 else np.zeros(4)
    return FiberPoint(x + 1j * y, t)


def quadric_residual(xyzw: np.ndarray) -> float:
    x, y, z, w = xyzw
    return abs(x * y - z * w)


def quadric_to_fiber(xyzw: np.ndarray) -> FiberPoint:
    """Linear change of variables from {xy - zw = 0} to {sum z_i^2 = 0}."""
    x, y, z, w = np.asarray(xyzw, dtype=complex)
    coords = np.array(
        [(x + y) / 2, (x - y) / 2j, (z - w) / 2, (z + w) / 2j],
        dtype=complex,
    )
    return FiberPoint(coords, 0.0)


# ---------------------------------------------------------------------------
# transitions


def fraction_rref(mat: list[list], n: int) -> list[int]:
    """Gauss-Jordan elimination in place over Fractions; returns the pivot
    columns.  Pivot rows end up normalized to pivot 1."""
    m = len(mat)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        mat[row] = [x / inv for x in mat[row]]
        for r in range(m):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def fraction_kernel_basis(columns: list[list]) -> list[list]:
    """Kernel basis of lambda -> sum_i lambda_i columns[i] by elimination over
    Fractions: one vector per free column f, with vec[f] = 1 and the pivots
    solved.  The package's fraction-free integer elimination must return
    exactly this basis."""
    n = len(columns)
    m = len(columns[0]) if columns else 0
    mat = [[Fraction(columns[i][j]) for i in range(n)] for j in range(m)]
    pivots = fraction_rref(mat, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][f]
        basis.append(vec)
    return basis
