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

Orientation.  The cycle is oriented so that the t = 1 period is +2 pi^2:
with outward-normal-first conventions this is the frame order
(e_theta2, e_theta1, e_phi), fixed in ORIENTED_FRAME_ORDER.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

SPHERE_VOLUME = 2.0 * math.pi**2

# axis order making the period of the t = 1 cycle positive
ORIENTED_FRAME_ORDER = (1, 0, 2)

MIN_RESOLUTION = 8
# resolution^3 nodes in several float arrays: 128 already needs about 1.6 GB
MAX_RESOLUTION = 128

# |t| window where the period's scale |t|^{3/2} and 2 pi^2 |t| stay normal
# floats (|t|^{3/2} leaves the normal range below ~7.9e-206 and above ~3.2e205)
MIN_ABS_T = 1e-200
MAX_ABS_T = 1e200


@dataclass
class CycleGrid:
    """Quadrature grid on the vanishing cycle of V_t.

    nodes are the complex cycle points t^{1/2} u; weights carry the unit
    3-sphere surface measure (they sum to 2 pi^2 up to the rule's error);
    sphere_frames holds the oriented orthonormal tangent triads of the unit
    sphere at each node, from which the cycle frames are transported.
    """

    t: complex
    resolution: int
    nodes: np.ndarray  # (N, 4) complex
    weights: np.ndarray  # (N,)
    sphere_points: np.ndarray  # (N, 4) real
    sphere_frames: np.ndarray  # (N, 3, 4) real, rows orthonormal

    @property
    def sqrt_t(self) -> complex:
        return cmath.sqrt(self.t)

    def cycle_frame(self, index: int) -> np.ndarray:
        """Oriented orthonormal tangent 3-frame of L_t at node index."""
        return transport_frame(self.sphere_frames[index], self.t)


def transport_frame(sphere_frame: np.ndarray, t: complex) -> np.ndarray:
    """Push a unit-sphere tangent frame to L_t and renormalize: multiplication
    by t^{1/2} is conformal with factor |t|^{1/2}."""
    st = cmath.sqrt(t)
    return sphere_frame * (st / abs(st))


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

    th1, w1 = _composite_gauss2(0.0, math.pi, resolution // 2)
    th2, w2 = _composite_gauss2(0.0, math.pi, resolution // 2)
    phi = 2.0 * math.pi * (np.arange(resolution) + 0.5) / resolution
    wphi = np.full(resolution, 2.0 * math.pi / resolution)

    T1, T2, PH = np.meshgrid(th1, th2, phi, indexing="ij")
    W = (
        (w1 * np.sin(th1) ** 2)[:, None, None]
        * (w2 * np.sin(th2))[None, :, None]
        * wphi[None, None, :]
    )
    T1, T2, PH, W = (arr.ravel() for arr in (T1, T2, PH, W))

    s1, c1 = np.sin(T1), np.cos(T1)
    s2, c2 = np.sin(T2), np.cos(T2)
    sp, cp = np.sin(PH), np.cos(PH)

    u = np.stack([c1, s1 * c2, s1 * s2 * cp, s1 * s2 * sp], axis=-1)
    e_th1 = np.stack([-s1, c1 * c2, c1 * s2 * cp, c1 * s2 * sp], axis=-1)
    e_th2 = np.stack([np.zeros_like(s1), -s2, c2 * cp, c2 * sp], axis=-1)
    e_phi = np.stack([np.zeros_like(s1), np.zeros_like(s1), -sp, cp], axis=-1)
    triads = np.stack([e_th1, e_th2, e_phi], axis=1)[:, list(ORIENTED_FRAME_ORDER), :]

    nodes = cmath.sqrt(t) * u.astype(complex)
    return CycleGrid(
        t=t,
        resolution=resolution,
        nodes=nodes,
        weights=W,
        sphere_points=u,
        sphere_frames=triads,
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


def integrate_volume_form(grid: CycleGrid, method: str = "real_slice") -> complex:
    """Quadrature of the volume form over the cycle; exact answer is 2 pi^2 t.

    'real_slice' evaluates in the chart of the last coordinate, where the
    transported real-slice formula dx1^dx2^dx3 / x_4 applies; the
    'chart_stitched' cross-check selects the chart of dominant modulus per
    node.  Both contract the same global form, so they agree up to rounding.
    Summation is pairwise (numpy) over a fixed node order, so results are
    reproducible.
    """
    st = grid.sqrt_t
    frames = grid.sphere_frames.astype(complex) * (st / abs(st))
    if method == "real_slice":
        charts = np.full(grid.nodes.shape[0], 3)  # chart 4, zero-based index 3
        mags = np.abs(grid.nodes[:, 3])
        if np.any(mags == 0.0):
            raise ValueError("a node hit the x4 = 0 seam; use an even resolution")
    elif method == "chart_stitched":
        charts = np.argmax(np.abs(grid.nodes), axis=1)
    else:
        raise ValueError(f"unknown method {method!r}")
    values = _chart_form_values(grid.nodes, frames, charts)
    scale = abs(grid.t) ** 1.5  # conformal volume factor of z = t^{1/2} u
    return scale * complex(np.sum(grid.weights * values))


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
