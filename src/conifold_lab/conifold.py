"""Points, charts and holomorphic volume forms on the quadric family.

The family is V_t = {z in C^4 : z_1^2 + ... + z_4^2 = t}.  This module
provides the fiber membership test, the weighted rescaling between fibers,
the nearest-point identification phi_map of the singular fiber with a
smooth one, tangent frames, the chart-4 coefficients of the volume form and
of its pullback by phi_map, the first-order term of that pullback's
expansion in t, and its finite-difference exterior derivative.

A FiberPoint holds one point (4,) or a stack (..., 4) with one t, and the
functions below take either and answer per point.  Each check runs over the
whole stack in the order written and raises at the first failing point,
with the message that point gives alone.

Chart conventions.  Charts are labelled 1..4 by the coordinate of maximal
modulus; a chart is usable when |z_j| >= ||z||/4 (ties broken by lowest
index).  In chart j the canonical basis 3-form is dz_a ^ dz_b ^ dz_c with
{a,b,c} the complement of j in increasing order, and the residue-normalized
volume form has coefficient (-1)^j / (2 z_j) in that basis.  The vanishing
cycle module uses the cycle normalization, which is twice the residue one
(coefficient 1/z_4 in chart 4).

Forms on the fiber are dense coefficient arrays over the chart-4 basis of
``exterior`` (dz_1..dz_3 and their conjugates) along the last axis: 3-forms
have 20 coefficients, 4-forms 15.  An ambient one-form is an 8-vector over
dz_1..dz_4, conj(dz_1)..conj(dz_4); it restricts to the fiber by the 8 x 6
matrix ``_restriction``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from conifold_lab import exterior
from conifold_lab.exterior import evaluate
from conifold_lab.transitions import _product

CHART_MARGIN_FACTOR = 0.25  # chart j usable iff |z_j| >= CHART_MARGIN_FACTOR * ||z||

# row j - 1: the columns of chart j's basis 3-form, the complement of j in increasing order
CHART_COMPLEMENT = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


# ---------------------------------------------------------------------------
# domain type and stacked per-point checks


@dataclass
class FiberPoint:
    """A point of C^4, or a stack of them along the last axis, together with
    its intended fiber parameter t."""

    z: np.ndarray
    t: complex = 0.0

    def __init__(self, z, t: complex = 0.0):
        self.z = np.asarray(z, dtype=complex)
        if self.z.shape[-1:] != (4,):
            raise ValueError("z must be a 4-vector or a stack of them along the last axis")
        self.t = complex(t)

    @property
    def norm_sq(self):
        return np.sum(np.abs(self.z) ** 2, axis=-1)

    def fiber_residual(self):
        return np.abs(np.sum(self.z**2, axis=-1) - self.t)


def _require(bad, message) -> None:
    """Raise ValueError(message(i)) at the first flat index i where bad is set."""
    failing = np.flatnonzero(bad)
    if failing.size:
        raise ValueError(message(int(failing[0])))


# ---------------------------------------------------------------------------
# fiber membership, rescaling, nearest-point identification


def on_fiber(p: FiberPoint, tol: float = 1e-12):
    """True iff |sum z_i^2 - t| <= tol * (1 + ||z||^2), per point."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return p.fiber_residual() <= tol * (1.0 + p.norm_sq)


def rescale_fiber(p: FiberPoint, lam: complex) -> FiberPoint:
    """Map (z, t) to (lam^{3/2} z, lam^3 t); sends V_t to V_{lam^3 t}.

    lam^{3/2} is the cube of the principal square root of lam.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("rescaling parameter must be nonzero")
    factor = cmath.sqrt(lam) ** 3
    return FiberPoint(factor * p.z, lam**3 * p.t)


def phi_map(p: FiberPoint, t: complex) -> FiberPoint:
    """Nearest-point identification z -> z + t conj(z) / (2 ||z||^2).

    Maps the singular fiber (minus a ball) into V_t; injective on
    ||z||^2 > |t|/2, which is enforced.
    """
    if p.t != 0:
        raise ValueError("phi_map expects a point on the singular fiber (t = 0)")
    _require(~on_fiber(p, 1e-9), lambda i: "point does not satisfy the singular-fiber equation")
    s = p.norm_sq
    _require(s == 0.0, lambda i: "phi_map is undefined at the cone point")
    _require(s <= abs(t) / 2, lambda i: f"||z||^2 = {np.ravel(s)[i]} is not inside the injectivity domain (> |t|/2)")
    w = p.z + t * np.conj(p.z) / (2 * s[..., None])
    return FiberPoint(w, t)


# ---------------------------------------------------------------------------
# charts and the holomorphic volume form


def chart_margin(p: FiberPoint):
    return CHART_MARGIN_FACTOR * np.sqrt(p.norm_sq)


def _require_chart(p: FiberPoint, chart: int) -> None:
    if chart not in (1, 2, 3, 4):
        raise ValueError("chart must be one of 1..4")
    _require(p.norm_sq == 0.0, lambda i: "all coordinates vanish: no chart is usable")
    modulus, margin = np.abs(p.z[..., chart - 1]), chart_margin(p)
    _require(
        modulus < margin,
        lambda i: f"chart {chart} degenerate: |z_{chart}| = {np.ravel(modulus)[i]:.3e} "
        f"below margin {np.ravel(margin)[i]:.3e}",
    )


def tangent_frame(p: FiberPoint, seeds) -> list[np.ndarray]:
    """Project ambient 4-vectors onto the fiber tangent space at p.

    Tangency means sum_i z_i v_i = 0 (the differential of the defining
    function); the projection subtracts the conj(z) component in that
    bilinear pairing.
    """
    z = p.z
    zz = complex(np.sum(z * np.conj(z)))
    out = []
    for s in seeds:
        s = np.asarray(s, dtype=complex)
        out.append(s - (np.sum(z * s) / zz) * np.conj(z))
    return out


def random_tangent_frame(p: FiberPoint, rng: np.random.Generator) -> list[np.ndarray]:
    seeds = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    return tangent_frame(p, seeds)


# ---------------------------------------------------------------------------
# fiber-chart coefficient arrays
#
# On the fiber, dz_4 = -(z_1 dz_1 + z_2 dz_2 + z_3 dz_3)/z_4 and conjugately
# for conj(dz_4).


def _restriction(p: FiberPoint) -> np.ndarray:
    """The (..., 8, 6) matrices taking ambient one-forms to chart-4 fiber one-forms."""
    _require_chart(p, 4)
    z = p.z
    r = np.zeros(z.shape[:-1] + (8, 6), dtype=complex)
    r[..., [0, 1, 2, 4, 5, 6], [0, 1, 2, 3, 4, 5]] = 1.0
    r[..., 3, :3] = -z[..., :3] / z[..., 3:]
    r[..., 7, 3:] = -np.conj(z[..., :3]) / np.conj(z[..., 3:])
    return r


def _d_conj_over_norm(p: FiberPoint) -> np.ndarray:
    """Ambient differentials of conj(z_i) / (2 ||z||^2), i = 1..3, as the
    rows of (..., 3, 8) matrices.  ||z||^4 is rounded as the scalar s**2 (libm's
    pow) rounds it; the array square s * s can differ in the last bit."""
    z, zb = p.z[..., None, :], np.conj(p.z)[..., :3, None]
    s = p.norm_sq[..., None]
    d = np.concatenate([zb * np.conj(z), zb * z], axis=-1) / (-2 * np.float_power(s, 2))[..., None]
    d[..., [0, 1, 2], [4, 5, 6]] += 1.0 / (2 * s)
    return d


def volume_form_chart_coefficients(p: FiberPoint) -> np.ndarray:
    """Chart-4 coefficients of the cycle-normalized volume form dz1^dz2^dz3 / z_4."""
    _require_chart(p, 4)
    form = np.zeros(p.z.shape[:-1] + (len(exterior.BASIS[3]),), dtype=complex)
    form[..., 0] = 1.0 / p.z[..., 3]
    return form


def pullback_volume_form(p: FiberPoint, t: complex) -> np.ndarray:
    """Chart-4 coefficients of the pullback by phi_map(., t) of the
    smooth-fiber volume form, evaluated at a point of the singular fiber:
    dw_1 ^ dw_2 ^ dw_3 / w_4 with w = phi_map(p, t).z (cycle normalization).
    """
    w4 = phi_map(p, t).z[..., 3:]
    dw = np.eye(3, 8) + t * _d_conj_over_norm(p)
    return exterior.wedge(dw @ _restriction(p)) / w4


def omega_tilde_1_coefficients(p: FiberPoint) -> np.ndarray:
    """Chart-4 coefficients of the first-order term of the volume-form
    expansion under the nearest-point identification.

    The result has pure (3,0) and (2,1) parts only:

        -(conj(z_4) / (2 z_4^2 ||z||^2)) dz1^dz2^dz3
        + (1/z_4) sum_i dz1 ^ .. ^ d(conj(z_i)/(2||z||^2)) ^ .. ^ dz3.

    The sign of the first term is fixed by the finite-parameter expansion
    test rather than trusted from any display.  On the cone the (3,0) part
    of the sum cancels the first term, so the dz1^dz2^dz3 coefficient is
    zero up to rounding.  z_4^2 is rounded as numpy's scalar complex product
    (_product), as the one-point scalar expression rounds it; the array
    square can differ in the last bit.
    """
    if abs(p.t) != 0.0:
        raise ValueError("the deformation form lives on the singular fiber")
    _require(p.norm_sq == 0.0, lambda i: "the deformation form is singular at the cone point")
    restriction = _restriction(p)
    dconj = _d_conj_over_norm(p) @ restriction
    z4 = p.z[..., 3:]
    form = np.zeros(p.z.shape[:-1] + (len(exterior.BASIS[3]),), dtype=complex)
    form[..., :1] = -np.conj(z4) / (2 * _product(z4, z4) * p.norm_sq[..., None])
    for i in range(3):
        rows = restriction[..., :3, :].copy()
        rows[..., i, :] = dconj[..., i, :]
        form += exterior.wedge(rows) * (1.0 / z4)
    return form


def omega_tilde_1(p: FiberPoint, frame) -> complex:
    """Value of the first-order deformation form on a tangent 3-frame."""
    return evaluate(omega_tilde_1_coefficients(p), frame)


# ---------------------------------------------------------------------------
# numerical exterior derivative on the fiber chart


def fd_exterior_derivative(p: FiberPoint) -> np.ndarray:
    """Finite-difference exterior derivative of the first-order deformation
    form in chart 4 at p: its 15 four-form coefficients.

    Uses 4th-order central stencils with step h = 1e-4 * ||z||,
    differentiating each coefficient in the Wirtinger sense (partials[a] is
    d/dz_a for a < 3 and d/dconj(z_{a-3}) after) and wedging with the
    corresponding basis covector through exterior.D_SIGNS.  The 24 stencil
    points (offsets -2..2 along the real and imaginary step of each chart
    coordinate, z_4 the root closest to p's) are evaluated in one call,
    once p is on the singular fiber and in a usable chart 4.
    """
    _require(~on_fiber(p, 1e-9), lambda i: "point does not satisfy the singular-fiber equation")
    _require_chart(p, 4)
    h = 1e-4 * np.sqrt(p.norm_sq)[..., None, None]
    steps = h * np.concatenate([np.eye(3), 1j * np.eye(3)])
    coords = p.z[..., None, None, :3] + np.array([-2, -1, 1, 2])[:, None] * steps[..., None, :]
    root, ref = np.sqrt(p.t - np.sum(coords**2, axis=-1)), p.z[..., None, None, 3]
    z4 = np.where(np.abs(root - ref) > np.abs(root + ref), -root, root)
    stencil = FiberPoint(np.concatenate([coords, z4[..., None]], axis=-1), p.t)
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h[..., None])
    dx, dy = np.split((weights @ omega_tilde_1_coefficients(stencil))[..., 0, :], 2, axis=-2)
    partials = np.concatenate([(dx - 1j * dy) / 2, (dx + 1j * dy) / 2], axis=-2)
    return partials.reshape(partials.shape[:-2] + (-1,)) @ exterior.D_SIGNS
