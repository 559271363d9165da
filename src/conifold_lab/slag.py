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
sine and cosine tables; one builder forms the coordinates, legs and weights
of a run of theta1 rows as broadcast products of those tables.  slab(i)
fills one row (resolution^2 nodes) from it.  The quadrature contracts blocks
of about BLOCK_NODES nodes in real arithmetic, sums each row pairwise and
adds the row sums in theta1 order: a fixed summation order, and a working
set of one block (one 65,536-node row at 256, of a 16.8 million grid).

Orientation.  The cycle is oriented so that the t = 1 period is +2 pi^2:
with outward-normal-first conventions this is the frame order
(e_theta2, e_theta1, e_phi), fixed in ORIENTED_FRAME_ORDER.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

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


class Slab(NamedTuple):
    """The resolution^2 grid nodes of one theta1 index, in (theta2, phi)
    row-major order."""

    nodes: np.ndarray  # (n, 4) complex cycle points t^{1/2} u
    weights: np.ndarray  # (n,)
    sphere_points: np.ndarray  # (n, 4) real
    sphere_frames: np.ndarray  # (n, 3, 4) real, rows orthonormal


@dataclass
class CycleGrid:
    """Product quadrature grid on the vanishing cycle of V_t.

    Only the three 1-D axis rules are stored; slab(i) builds the nodes of
    one theta1 index.  nodes are the complex cycle points t^{1/2} u; weights
    carry the unit 3-sphere surface measure (they sum to 2 pi^2 up to the
    rule's error); sphere_frames holds the oriented orthonormal tangent
    triads of the unit sphere at each node, from which the cycle frames are
    transported.  The full node arrays are the slabs stacked in theta1
    order, built on first access and cached.
    """

    t: complex
    resolution: int
    theta1: AxisRule
    theta2: AxisRule
    phi: AxisRule

    @property
    def sqrt_t(self) -> complex:
        return cmath.sqrt(self.t)

    def _block(self, rows: slice) -> tuple[tuple, tuple, np.ndarray]:
        """u components, oriented tangent legs (3 rows of 4 entries) and
        weights of the nodes with theta1 index in rows, as broadcast
        products of the axis tables over (theta1, theta2, phi)."""
        s1, c1 = self.theta1.sin[rows, None, None], self.theta1.cos[rows, None, None]
        s2, c2 = self.theta2.sin[:, None], self.theta2.cos[:, None]
        sp, cp = self.phi.sin, self.phi.cos
        s1s2, c1s2 = s1 * s2, c1 * s2
        u = (c1, s1 * c2, s1s2 * cp, s1s2 * sp)
        e_th1 = (-s1, c1 * c2, c1s2 * cp, c1s2 * sp)
        e_th2 = (0.0, -s2, c2 * cp, c2 * sp)
        e_phi = (0.0, 0.0, -sp, cp)
        legs = (e_th1, e_th2, e_phi)
        w1 = (self.theta1.weights * self.theta1.sin**2)[rows, None, None]
        w2 = (self.theta2.weights * self.theta2.sin)[:, None]
        weights = w1 * w2 * self.phi.weights
        return u, tuple(legs[k] for k in ORIENTED_FRAME_ORDER), weights

    def slab(self, i: int) -> Slab:
        """Nodes, weights, sphere points and oriented sphere triads of the
        nodes with theta1 index i."""
        u, frame, weights = self._block(slice(i, i + 1))

        def stack(entries):
            return np.stack([np.broadcast_to(x, weights.shape) for x in entries], axis=-1)

        points = stack(u).reshape(-1, 4)
        frames = np.stack([stack(leg) for leg in frame], axis=-2).reshape(-1, 3, 4)
        return Slab(self.sqrt_t * points.astype(complex), weights.ravel(), points, frames)

    @cached_property
    def _stacked(self) -> Slab:
        slabs = [self.slab(i) for i in range(self.resolution)]
        return Slab(*(np.concatenate(parts) for parts in zip(*slabs)))

    @property
    def nodes(self) -> np.ndarray:
        return self._stacked.nodes

    @property
    def weights(self) -> np.ndarray:
        return self._stacked.weights

    @property
    def sphere_points(self) -> np.ndarray:
        return self._stacked.sphere_points

    @property
    def sphere_frames(self) -> np.ndarray:
        return self._stacked.sphere_frames

    def cycle_frame(self, index: int) -> np.ndarray:
        """Oriented orthonormal tangent 3-frame of L_t at node index: the
        sphere frame pushed to L_t and renormalized (multiplication by
        t^{1/2} is conformal with factor |t|^{1/2})."""
        return self.sphere_frames[index] * (self.sqrt_t / abs(self.sqrt_t))


def _composite_gauss2(a: float, b: float, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    h = (b - a) / ncells
    offsets = (h / 2.0) * np.array([-1.0, 1.0]) / math.sqrt(3.0)
    mids = a + h * (np.arange(ncells) + 0.5)
    nodes = (mids[:, None] + offsets[None, :]).ravel()
    weights = np.full(nodes.size, h / 2.0)
    return nodes, weights


def sample_vanishing_cycle(t: complex, resolution: int) -> CycleGrid:
    """Build the product quadrature grid on L_t with resolution^3 nodes.

    resolution must be even and lie in [MIN_RESOLUTION, MAX_RESOLUTION]:
    even keeps the periodic midpoint nodes off the x_4 = 0 seam of the
    t = 1 normal form.  |t| must lie in [MIN_ABS_T, MAX_ABS_T].
    """
    t = complex(t)
    if not cmath.isfinite(t):
        raise ValueError(f"the vanishing cycle needs a finite t, got {t}")
    if not MIN_ABS_T <= abs(t) <= MAX_ABS_T:
        raise ValueError(f"|t| must lie in [{MIN_ABS_T:g}, {MAX_ABS_T:g}], got {abs(t):g}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    if resolution % 2:
        raise ValueError("resolution must be even")

    phi = 2.0 * math.pi * (np.arange(resolution) + 0.5) / resolution
    return CycleGrid(
        t=t,
        resolution=resolution,
        theta1=_axis_rule(*_composite_gauss2(0.0, math.pi, resolution // 2)),
        theta2=_axis_rule(*_composite_gauss2(0.0, math.pi, resolution // 2)),
        phi=_axis_rule(phi, np.full(resolution, 2.0 * math.pi / resolution)),
    )


def exact_cycle_integral(t: complex) -> complex:
    return 2.0 * math.pi**2 * complex(t)


def _chart_form_values(nodes: np.ndarray, frames: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Contract the cycle-normalized volume form, expressed in the chart of
    each node, against the given complex tangent frames."""
    n = nodes.shape[0]
    values = np.empty(n, dtype=complex)
    for j in range(4):
        mask = charts == j
        if not np.any(mask):
            continue
        cols = [i for i in range(4) if i != j]
        mats = frames[mask][:, :, cols]
        dets = (
            mats[:, 0, 0] * (mats[:, 1, 1] * mats[:, 2, 2] - mats[:, 1, 2] * mats[:, 2, 1])
            - mats[:, 0, 1] * (mats[:, 1, 0] * mats[:, 2, 2] - mats[:, 1, 2] * mats[:, 2, 0])
            + mats[:, 0, 2] * (mats[:, 1, 0] * mats[:, 2, 1] - mats[:, 1, 1] * mats[:, 2, 0])
        )
        sign = (-1.0) ** (j + 1)  # chart labels are 1-based
        values[mask] = sign * dets / nodes[mask, j]
    return values


def integrate_volume_form(grid: CycleGrid) -> complex:
    """Quadrature of the volume form over the cycle; exact answer is 2 pi^2 t.

    Evaluates in the chart of the last coordinate, where the transported
    real-slice formula dx1^dx2^dx3 / x_4 applies.  The cycle frame is the
    sphere frame times st / |st| and the node is st u (st = t^{1/2}), so by
    trilinearity the value is (st / |st|)^3 / st times the real minor over
    u_4: that constant and the volume factor |t|^{3/2} multiply the real sum
    once.  Each theta1 row is summed pairwise (numpy) over its fixed node
    order and the row sums are added in theta1 order, so results reproduce.
    """
    rows_per_block = max(1, BLOCK_NODES // grid.resolution**2)
    total = 0.0
    for start in range(0, grid.resolution, rows_per_block):
        u, frame, weights = grid._block(slice(start, start + rows_per_block))
        (a, b, c, _), (d, e, f, _), (g, h, k, _) = frame
        dets = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        if np.any(u[3] == 0.0):
            raise ValueError("a node hit the x4 = 0 seam; use an even resolution")
        values = dets / u[3] * weights
        for row_sum in values.reshape(values.shape[0], -1).sum(axis=1).tolist():
            total += row_sum
    st = grid.sqrt_t
    return (st / abs(st)) ** 3 / st * abs(grid.t) ** 1.5 * total


def frame_tangency_residual(node: np.ndarray, frame: np.ndarray, t: complex) -> float:
    """Largest directional derivative of the two cycle constraints along the
    frame legs: the fiber equation sum z_i^2 = t and the radius ||z||^2 = |t|.
    (At the cycle the radius is critical along the whole fiber tangent space,
    so this check constrains fiber tangency.)"""
    node = np.asarray(node, dtype=complex)
    frame = np.asarray(frame, dtype=complex)
    worst = 0.0
    for leg in frame:
        fiber_dir = abs(np.sum(node * leg))
        radius_dir = abs(np.sum(np.conj(node) * leg).real)
        worst = max(worst, fiber_dir, radius_dir)
    return worst


def calibration_residual(t: complex, node: np.ndarray, frame: np.ndarray) -> float:
    """|Im(e^{-i arg t} Omega_t(frame))| / |Omega_t(frame)| at a cycle node.

    Must vanish (below 1e-10) for tangent frames of the cycle: the form's
    phase on the cycle is constant equal to arg t.  Frames that are not
    tangent to the fiber are rejected.
    """
    t = complex(t)
    node = np.asarray(node, dtype=complex)
    frame = np.asarray(frame, dtype=complex)
    if frame_tangency_residual(node, frame, t) > 1e-8 * np.linalg.norm(node):
        raise ValueError("frame is not tangent to the fiber at the node")
    chart = int(np.argmax(np.abs(node)))
    value = _chart_form_values(node[None, :], frame[None, :, :], np.array([chart]))[0]
    theta = cmath.phase(t)
    rotated = cmath.exp(-1j * theta) * value
    return abs(rotated.imag) / abs(rotated)


def perturbed_frame(frame: np.ndarray, angle: float = 0.2) -> np.ndarray:
    """Negative control: rotate the last leg toward its complex-structure
    image (the normal direction inside the fiber).  Fiber tangency survives,
    and so does the flat Lagrangian condition (the leg turns inside its own
    complex line), but the plane is no longer phase-calibrated: the residual
    grows like tan(angle)."""
    frame = np.asarray(frame, dtype=complex).copy()
    leg = frame[2]
    frame[2] = (math.cos(angle) * leg + math.sin(angle) * 1j * leg)
    return frame


def convergence_order(t: complex, res_low: int = 16, res_high: int = 32) -> tuple[float, float, float]:
    """Relative errors at two resolutions and the observed order
    log2(err_low / err_high) (resolutions differ by a factor of two)."""
    exact = exact_cycle_integral(t)
    errs = []
    for res in (res_low, res_high):
        grid = sample_vanishing_cycle(t, res)
        val = integrate_volume_form(grid)
        errs.append(abs(val - exact) / abs(exact))
    order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else math.inf
    return errs[0], errs[1], order
