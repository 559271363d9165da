"""Vanishing-cycle quadrature and pointwise calibration checks.

The cycle L_t = {||z||^2 = |t|} inside V_t is the image of the real unit
3-sphere under z = t^{1/2} u.  Its period against the holomorphic volume
form (cycle normalization dz1^dz2^dz3 / z_4) equals 2 pi^2 t, and the form
restricted to the cycle has constant phase arg(t): the cycle is special
Lagrangian.  Both facts are checked by explicit quadrature over a product
grid in hyperspherical angles.

Grid design.  Angles (theta1, theta2, phi) parametrize S^3 with measure
sin^2(theta1) sin(theta2); the polar angles use a composite two-point
Gauss-Legendre rule and the periodic angle a midpoint rule, giving
resolution^3 nodes, none of which hits a coordinate seam (in particular no
node of the t = 1 cycle has x_4 = 0).  The composite rule has a genuine
fourth-order error in the theta2 direction, so halving the spacing shrinks
the quadrature error about sixteenfold; this keeps the convergence-order
audit measurable instead of sitting at the roundoff floor, while the
resolution-32 error is still far below 1e-4 relative.

Block accumulation.  A grid stores only the three 1-D axis rules with their
sine and cosine tables; CycleGrid.at forms chosen nodes, legs and weights as
broadcast products of those tables.  The quadrature forms by the same
products what chart 4 reads, per block of whole theta1 rows (about
BLOCK_NODES nodes).  _det3 skips the products of the minor's three scalar
zeros, so e_theta1's third entry, read by none else, stays two factors, and a
block forms u_4, the weights and one product for the minor in the call's
workspace.  It sums each row pairwise and adds the row sums in theta1 order:
a fixed order, and a working set of one block (one 65,536-node row at 256).

Orientation.  The cycle is oriented so that the t = 1 period is +2 pi^2:
with outward-normal-first conventions this is the frame order
(e_theta2, e_theta1, e_phi), fixed in ORIENTED_FRAME_ORDER.  The form on
every oriented frame is then e^{i arg t} times a positive number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from conifold_lab.checks import InputError, abbreviated, require_within
from conifold_lab.conifold import CHART_COMPLEMENT, _require

SPHERE_VOLUME = 2.0 * math.pi**2

# axis order making the period of the t = 1 cycle positive
ORIENTED_FRAME_ORDER = (1, 0, 2)

MIN_RESOLUTION = 8
# the quadrature holds one block of theta1 rows at a time (one row of
# 65,536 nodes at 256), where building the whole grid took 1.6 GB at 128
MAX_RESOLUTION = 256
# nodes per quadrature block (one resolution-128 row): temporaries stay in cache
BLOCK_NODES = 16384

# |t| window where the period's scale |t|^{3/2} and 2 pi^2 |t| stay normal
# floats (|t|^{3/2} leaves the normal range below ~7.9e-206 and above ~3.2e205)
MIN_ABS_T = 1e-200
MAX_ABS_T = 1e200


class AxisRule(NamedTuple):
    """A 1-D quadrature rule with the sine and cosine of its nodes."""

    nodes: np.ndarray
    weights: np.ndarray
    sin: np.ndarray
    cos: np.ndarray


def _axis_rule(nodes: np.ndarray, weights: np.ndarray) -> AxisRule:
    return AxisRule(nodes, weights, np.sin(nodes), np.cos(nodes))


@dataclass
class CycleGrid:
    """Product quadrature grid on the vanishing cycle of V_t.

    Only the three 1-D axis rules are stored; at(indices) builds chosen
    nodes.  Nodes are the complex cycle points t^{1/2} u; weights carry the
    unit 3-sphere surface measure (they sum to 2 pi^2 up to the rule's
    error).  Multiplication by t^{1/2} is conformal, so a cycle frame is an
    oriented sphere triad times t^{1/2} / |t^{1/2}|.  The whole-grid arrays
    (nodes, ..., sphere_frames) are at() over every node, cached; the
    package itself never reads them.
    """

    t: complex
    resolution: int
    theta1: AxisRule
    theta2: AxisRule
    phi: AxisRule

    @property
    def sqrt_t(self) -> complex:
        return cmath.sqrt(self.t)

    def at(self, indices=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nodes (n, 4), weights (n,), sphere points (n, 4) and oriented sphere
        triads (n, 3, 4) at the given flat node indices (theta1, theta2, phi
        row-major), or at every node, as products of the axis tables."""
        r = self.resolution
        i1, i2, i3 = np.ogrid[:r, :r, :r] if indices is None else np.unravel_index(indices, (r, r, r))
        s1, c1 = self.theta1.sin[i1], self.theta1.cos[i1]
        s2, c2 = self.theta2.sin[i2], self.theta2.cos[i2]
        sp, cp = self.phi.sin[i3], self.phi.cos[i3]
        s1s2, c1s2 = s1 * s2, c1 * s2
        u = (c1, s1 * c2, s1s2 * cp, s1s2 * sp)
        e_th1 = (-s1, c1 * c2, c1s2 * cp, c1s2 * sp)
        e_th2 = (0.0, -s2, c2 * cp, c2 * sp)
        e_phi = (0.0, 0.0, -sp, cp)
        legs = (e_th1, e_th2, e_phi)
        w1 = (self.theta1.weights * self.theta1.sin**2)[i1]
        w2 = (self.theta2.weights * self.theta2.sin)[i2]
        weights = w1 * w2 * self.phi.weights[i3]

        def stack(entries):
            return np.stack([np.broadcast_to(x, weights.shape) for x in entries], axis=-1).reshape(-1, 4)

        points = stack(u)
        frames = np.stack([stack(legs[k]) for k in ORIENTED_FRAME_ORDER], axis=1)
        return self.sqrt_t * points.astype(complex), weights.ravel(), points, frames

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        return self.at()

    nodes = property(lambda self: self._stacked[0])
    weights = property(lambda self: self._stacked[1])
    sphere_points = property(lambda self: self._stacked[2])
    sphere_frames = property(lambda self: self._stacked[3])


def _composite_gauss2(a: float, b: float, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    h = (b - a) / ncells
    offsets = (h / 2.0) * np.array([-1.0, 1.0]) / math.sqrt(3.0)
    mids = a + h * (np.arange(ncells) + 0.5)
    nodes = (mids[:, None] + offsets[None, :]).ravel()
    weights = np.full(nodes.size, h / 2.0)
    return nodes, weights


def check_resolution(resolution: int) -> None:
    """Refuse a grid resolution outside [MIN_RESOLUTION, MAX_RESOLUTION] or
    odd."""
    require_within("resolution", resolution, MIN_RESOLUTION, MAX_RESOLUTION, "resolution")
    if resolution % 2:
        raise InputError(f"resolution must be even, got {abbreviated(str(resolution))}", "resolution")


def sample_vanishing_cycle(t: complex, resolution: int) -> CycleGrid:
    """Build the product quadrature grid on L_t with resolution^3 nodes.

    resolution must be even and lie in [MIN_RESOLUTION, MAX_RESOLUTION]:
    even keeps the periodic midpoint nodes off the x_4 = 0 seam of the
    t = 1 normal form.  |t| must lie in [MIN_ABS_T, MAX_ABS_T].
    """
    check_resolution(resolution)
    t = complex(t)
    if not cmath.isfinite(t):
        raise InputError(f"the vanishing cycle needs a finite t, got {t}", "t")
    require_within("|t|", abs(t), MIN_ABS_T, MAX_ABS_T, "t")

    polar = _axis_rule(*_composite_gauss2(0.0, math.pi, resolution // 2))  # the rule of theta1 and theta2
    phi = 2.0 * math.pi * (np.arange(resolution) + 0.5) / resolution
    return CycleGrid(t, resolution, polar, polar, _axis_rule(phi, np.full(resolution, 2.0 * math.pi / resolution)))


def exact_cycle_integral(t: complex) -> complex:
    return SPHERE_VOLUME * complex(t)


def cycle_period(t: complex, resolution: int) -> tuple[complex, float]:
    """The period of L_t by quadrature at a resolution, and its error
    relative to the exact 2 pi^2 t."""
    value = integrate_volume_form(sample_vanishing_cycle(t, resolution))
    exact = exact_cycle_integral(t)
    return value, abs(value - exact) / abs(exact)


def _det3(rows, out=None):
    """3x3 determinant a (e k - f h) - b (d k - f g) + c (d h - e g) of rows
    ((a, b, c), (d, e, f), (g, h, k)) in that order, skipping each product with
    an exact scalar-zero factor and each term that leaves empty.  An entry is an
    array, a scalar or two factors (a tuple) multiplied out only if read.  The
    first term left takes its sign on its minor; out, if given, gets the result."""
    def times(x, y, out=None):  # None stands for an exact zero
        if x is not None and y is not None:
            return np.multiply(*(np.multiply(*v) if isinstance(v, tuple) else v for v in (x, y)), out=out)

    (a, b, c), (d, e, f), (g, h, k) = ([None if isinstance(v, (int, float, complex)) and v == 0 else v for v in row]
                                       for row in rows)
    det = None
    for sign, x, p, q, r, s in ((1, a, e, k, f, h), (-1, b, d, k, f, g), (1, c, d, h, e, g)):
        pq, rs = (None, None) if x is None else (times(p, q), times(r, s))
        minor = pq if rs is None else -rs if pq is None else pq - rs
        if det is None:
            det = times(x, -minor if sign < 0 and minor is not None else minor, out)
        elif (term := times(x, minor)) is not None:
            det = (np.add if sign > 0 else np.subtract)(det, term, out=out)
    return 0.0 if det is None else det


def _chart_form_values(nodes: np.ndarray, frames: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Contract the cycle-normalized volume form, expressed in the chart of
    each node (0-based charts), against the given complex tangent frames."""
    submatrices = np.take_along_axis(frames, CHART_COMPLEMENT[charts][:, None, :], axis=2)
    sign = np.where(charts % 2, 1.0, -1.0)  # (-1)^chart, chart labels 1-based
    return sign * _det3(submatrices.transpose(1, 2, 0)) / nodes[np.arange(charts.size), charts]


def _chart4_blocks(grid: CycleGrid):
    """Per block of whole theta1 rows: u_4, the oriented legs' first three entries
    (e_theta1's third as two factors) and the weights as CycleGrid.at forms them."""
    r = grid.resolution
    rows = max(1, BLOCK_NODES // r**2)
    workspace = np.empty((3, rows, r, r))
    s2, c2 = grid.theta2.sin[:, None], grid.theta2.cos[:, None]
    sp, cp = grid.phi.sin, grid.phi.cos
    e_th2, e_phi = (0.0, -s2, c2 * cp), (0.0, 0.0, -sp)  # theta1 enters neither
    w1 = grid.theta1.weights * grid.theta1.sin**2
    w2 = (grid.theta2.weights * grid.theta2.sin)[:, None]
    for start in range(0, r, rows):
        block = np.s_[start : start + rows, None, None]
        s1, c1 = grid.theta1.sin[block], grid.theta1.cos[block]
        u4, weights, det = workspace[:, : s1.shape[0]]  # det: what _det3 writes
        np.multiply(s1 * s2, sp, out=u4)
        np.multiply(w1[block] * w2, grid.phi.weights, out=weights)
        legs = ((-s1, c1 * c2, (c1 * s2, cp)), e_th2, e_phi)
        yield u4, [legs[k] for k in ORIENTED_FRAME_ORDER], weights, det


def integrate_volume_form(grid: CycleGrid) -> complex:
    """Quadrature of the volume form over the cycle; exact answer is 2 pi^2 t.

    Evaluates in the chart of the last coordinate, where the transported
    real-slice formula dx1^dx2^dx3 / x_4 applies.  The cycle frame is the
    sphere frame times st / |st| and the node is st u (st = t^{1/2}), so by
    trilinearity the value is (st / |st|)^3 / st times the real minor over
    u_4: that constant and the volume factor |t|^{3/2} multiply the real sum
    once, added in the fixed order the module docstring gives.
    """
    total = 0.0
    for u4, frame, weights, det in _chart4_blocks(grid):
        if not u4.all():  # some u_4 is zero
            raise ValueError("a node hit the x4 = 0 seam; use an even resolution")
        values = _det3(frame, out=det)
        np.multiply(np.divide(values, u4, out=values), weights, out=values)
        for row_sum in values.reshape(values.shape[0], -1).sum(axis=1).tolist():
            total += row_sum
    st = grid.sqrt_t
    return (st / abs(st)) ** 3 / st * abs(grid.t) ** 1.5 * total


def frame_tangency_residual(nodes: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per node (..., 4), the largest directional derivative along its frame
    legs (..., 3, 4) of the two cycle constraints: the fiber equation
    sum z_i^2 = t and the radius ||z||^2 = |t|.  (At the cycle the radius is
    critical along the whole fiber tangent space, so this checks tangency.)"""
    nodes = np.asarray(nodes, dtype=complex)[..., None, :]
    fiber = np.abs(np.sum(nodes * frames, axis=-1))
    radius = np.abs(np.sum(np.conj(nodes) * frames, axis=-1).real)
    return np.maximum(fiber, radius).max(axis=-1)


def calibration_residual(t: complex, nodes: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, |Im(w)| / |w| and the orientation Re(w) / |w| of
    w = e^{-i arg t} Omega_t(frame), for nodes (n, 4) and frames (n, 3, 4).

    On oriented tangent frames of the cycle the residual must vanish (below
    1e-10) and the orientation must be 1: the form's phase on the cycle is
    constant equal to arg t.  The residual sees that phase only mod pi; a
    reversed frame or a negated form shows in the orientation alone.  Frames
    that are not tangent to the fiber are rejected.
    """
    nodes = np.asarray(nodes, dtype=complex)
    frames = np.asarray(frames, dtype=complex)
    _require(frame_tangency_residual(nodes, frames) > 1e-8 * np.linalg.norm(nodes, axis=-1),
             lambda i: "frame is not tangent to the fiber at the node")
    value = _chart_form_values(nodes, frames, np.argmax(np.abs(nodes), axis=-1))
    # the rotation in real arithmetic: numpy's complex array product may fuse
    # multiply-adds, which would make the residual's last bits platform-bound
    theta = cmath.phase(complex(t))
    c, s = math.cos(theta), math.sin(theta)
    re, im = c * value.real + s * value.imag, c * value.imag - s * value.real
    size = np.hypot(re, im)
    return np.abs(im) / size, re / size


def perturbed_frame(frames: np.ndarray, angle: float = 0.2) -> np.ndarray:
    """Negative control: rotate the last leg of each frame (..., 3, 4) toward
    its complex-structure image (the normal direction inside the fiber).
    Fiber tangency survives, and so does the flat Lagrangian condition (the
    leg turns inside its own complex line), but the plane is no longer
    phase-calibrated: the residual grows like tan(angle)."""
    frames = np.asarray(frames, dtype=complex).copy()
    leg = frames[..., 2, :]
    frames[..., 2, :] = math.cos(angle) * leg + math.sin(angle) * 1j * leg
    return frames


def convergence_order(t: complex, res_low: int = 16, res_high: int = 32) -> tuple[float, float, float]:
    """Relative errors at two resolutions and the observed order
    log2(err_low / err_high) (resolutions differ by a factor of two)."""
    errs = [cycle_period(t, res)[1] for res in (res_low, res_high)]
    order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else math.inf
    return errs[0], errs[1], order
