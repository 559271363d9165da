"""Independent reference implementations that the tests compare the package
against.  None of them runs on the package's own code paths.

* metrics: a root-finder route to the resolved cubic's positive root, and
  the unit-parameter profiles f_1 by adaptive scipy quadrature of scalar
  integrands (the resolved one through the complex radical formula of the
  cubic), the oracle for the batched lattice quadrature; the chart Hessian,
  the ODE and Monge-Ampere residuals and the asymptotic deviation of one
  point at a time in scalar arithmetic, the oracle for the stacked kernels.
  Also the one-point builders of the tests (cone_point,
  smoothed_normal_form_point, resolved_point_with_tau, point_tau), which are
  not oracles: they call the package's stacked point builders.
* hodge: twisted Euler characteristics chi(Omega^p(-r)) of P^n and of the
  hypersurface by the recursion over the Euler, conormal and restriction
  sequences (chi_hypersurface_omega_p_recursion, the oracle for the Jacobian
  ring closed form), chi(O(m)) in Fraction arithmetic, and a dispatcher over
  the twisted Euler-characteristic functions.
* slag: the flat Lagrangian residual of a frame, the fiber residual of a
  cycle grid, a grid node as a checked fiber point, and the dense cycle
  quadrature (every node, weight and frame of the product grid built at
  once, contracted in complex arithmetic in chart 4 or in the chart of
  dominant modulus, and summed in one pairwise sum), the oracle for the
  slabs and for the real block quadrature.
* exterior: a sparse exterior algebra, one dict from sorted index tuples to
  coefficients per form, with products by sorting and counting inversions
  and contraction by one determinant per term; with it, the chart-4
  restriction, the nearest-point pullback of the volume form and the
  deformation form built term by term, the oracle for the dense minors
  kernel.
* conifold: complex conjugation of fiber points; the chart expressions of
  the holomorphic volume form contracted against tangent frames
  (volume_form_value, the oracle for the cycle module's chart values); the
  deformation form's coefficient vector; the finite-difference exterior
  derivative rebuilding and evaluating its 24 stencil points one at a time
  (fd_exterior_derivative_per_point, the oracle for the stacked stencil);
  the real splitting of a positive real fiber into the tangent bundle of
  the 3-sphere and its inverse; the points of the small resolution
  (ResolvedPoint, a direction [U1:U2] and a fiber pair), its blow-down to
  the quadric {xy = zw}, its fiber rescaling, and the change of variables
  from that quadric to the singular fiber.
* transitions: Gauss-Jordan elimination over Fractions, the kernel basis
  built from it and the smoothability witness searched over that basis and
  checked in Fractions (kernel_basis_witness); fraction-free (Bareiss)
  Gauss-Jordan elimination on Python lists, one matrix at a time, and the
  witness built from it in integers (integer_rref_witness, the oracle for
  the stacked kernel's elimination and weights); a sparse polynomial in four
  variables with derivatives rebuilt term by term (Polynomial4), which
  gives the Dwork quintic and the non-Dwork polynomials of the double-point
  tests; the double-point certificate one point at a time
  (verify_odp_per_point, the oracle for the stacked certificate); the
  quintic's 125 nodes enumerated from the 625 raw exponent tuples modulo
  the diagonal shift (dwork_exponents, dwork_nodes, the oracle for the
  package's exponent array and its coordinates); and the
  smooth-point sampler with np.roots per draw (dwork_smooth_points_per_draw,
  the oracle for the batched companion roots).
* acceptance: exact ranks of stacked integer matrices by fraction-free
  (Bareiss) elimination (batched_integer_rank), where the package
  enumerates minors; the exhaustive solver-versus-oracle count on
  materialised matrix stacks, one int64 class key per matrix and np.unique
  over the keys (stacked_friedman_agreement, the oracle for the broadcast
  rows and the class table), and the class sizes it sees
  (stacked_class_counts).  The stacks and their classes are built once per
  process.  Also the per-class verdicts spread over the P^N matrices by a
  table over sorted tuples and a broadcast gather (class_table_gather, the
  oracle for the reflected class index), and C03's resolved sampler one
  point at a time (sample_resolved_points_per_point).

Not an oracle: bench_workloads loads perfbench/workloads.py, whose class-matrix
generators make the benchmark's friedman requests.

scipy is imported inside the quadrature and root-finder oracles, so that
importing this module does not load it.
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from conifold_lab import metrics, transitions
from conifold_lab import exterior
from conifold_lab.conifold import (
    FiberPoint,
    _require_chart,
    omega_tilde_1_coefficients,
    on_fiber,
)
from conifold_lab.exterior import BASIS
from conifold_lab.hodge import HypersurfaceSpec
from conifold_lab.slag import ORIENTED_FRAME_ORDER, CycleGrid, _chart_form_values, _composite_gauss2
from conifold_lab.transitions import (
    ODP_DET_RTOL,
    ODP_GRADIENT_TOL,
    ODP_VALUE_TOL,
    DworkQuintic,
    NotOnVarietyError,
)

# ---------------------------------------------------------------------------
# metrics


def gamma_resolved_root(tau: float, a: float = 1.0) -> float:
    """Safeguarded root-finder oracle for the same cubic (bisection bracket
    plus Newton polish), independent of the radical formula."""
    from scipy.optimize import brentq

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


def gamma_unit_radical(tau: float) -> float:
    """Positive root of g^3 + 6 g^2 = tau^2 by the explicit radical formula.

    The cube-root argument crosses into the complex plane for tau^2 < 32;
    the combination -2 + z + 4/z stays real across the seam.  Two Newton
    steps absorb roundoff from the branch gymnastics; below 1e-4 the series
    g/tau = 1/sqrt(6) - tau/72 + 5 sqrt(6) tau^2/10368 is used.
    """
    if tau < 1e-4:
        return tau * (1.0 / math.sqrt(6.0) - tau / 72.0 + 5.0 * math.sqrt(6.0) * tau**2 / 10368.0)
    disc = cmath.sqrt(complex(tau**4 - 32.0 * tau**2, 0.0))
    z = 2 ** (-1.0 / 3.0) * (complex(-16.0 + tau**2, 0.0) + disc) ** (1.0 / 3.0)
    g = (-2.0 + z + 4.0 / z).real
    for _ in range(2):
        g -= (g**3 + 6.0 * g**2 - tau**2) / (3.0 * g**2 + 12.0 * g)
    return g


def f1_resolved_quad(sigma: float) -> tuple[float, float]:
    """Unit-parameter resolved profile f_1(sigma) = int_0^sigma gamma(s)/s ds
    and scipy's error estimate: a series head up to min(1e-8, sigma/2), the
    rest adaptively in the log variable."""
    from scipy.integrate import quad

    if sigma == 0.0:
        return 0.0, 0.0
    eps = min(1e-8, sigma / 2.0)
    head = eps / math.sqrt(6.0) - eps**2 / 144.0
    val, err = quad(
        lambda x: gamma_unit_radical(math.exp(x)),
        math.log(eps),
        math.log(sigma),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return head + val, err


def _sinh_excess(x: float) -> float:
    """sinh x - x; by its Taylor series below x = 0.5, where the difference
    cancels."""
    if x >= 0.5:
        return math.sinh(x) - x
    return sum(x ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 10))


def f1_smoothed_quad(sigma: float) -> tuple[float, float]:
    """f_1(sigma) = 2^{-1/3} int_0^{arccosh sigma} (sinh 2l - 2l)^{1/3} dl and
    scipy's error estimate."""
    from scipy.integrate import quad

    if sigma == 1.0:
        return 0.0, 0.0
    val, err = quad(
        lambda lam: _sinh_excess(2.0 * lam) ** (1.0 / 3.0),
        0.0,
        math.acosh(sigma),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return 2 ** (-1.0 / 3.0) * val, 2 ** (-1.0 / 3.0) * err


def _check_sample_at(sample, tau: float) -> None:
    if not abs(sample.tau - tau) <= 1e-13 * tau:
        raise ValueError(f"the profile sample at tau = {sample.tau!r} is not at the point's tau = {tau!r}")


def hessian_per_point(family, point, sample) -> tuple[np.ndarray, float, int]:
    """(H, density, chart) of one point, assembled entry by entry: the
    dominant-chart Hessian f' M + f'' T T* on a fiber, and
    4 a^2 L + f' tau_ab + f'' grad grad* on the resolution."""
    if family.kind in ("cone", "smoothed"):
        p = point
        if not on_fiber(p, 1e-9) or p.t != family.t:
            raise ValueError("point does not lie on the family's fiber")
        chart = dominant_chart(p)
        v = p.z[list(chart_complement(chart))]
        zc = p.z[chart - 1]
        _check_sample_at(sample, p.norm_sq)
        M = np.eye(3, dtype=complex) + np.outer(v, np.conj(v)) / abs(zc) ** 2
        T = np.conj(v) - (np.conj(zc) / zc) * v
        H = sample.fp * M + sample.fpp * np.outer(T, np.conj(T))
        return H, 1.0 / abs(2 * zc) ** 2, chart
    q = point
    chart = 1 if abs(q.u[0]) >= abs(q.u[1]) else 2  # the larger homogeneous coordinate
    if chart == 1:
        u, W = q.u[1] / q.u[0], q.w * q.u[0]
    else:
        u, W = q.u[0] / q.u[1], q.w[::-1] * q.u[1]
    rho = float(np.sum(np.abs(W) ** 2))
    one_u = 1.0 + abs(u) ** 2
    _check_sample_at(sample, one_u * rho)
    grad = np.array([np.conj(u) * rho, one_u * np.conj(W[0]), one_u * np.conj(W[1])])
    tau_ab = np.array(
        [
            [rho, np.conj(u) * W[0], np.conj(u) * W[1]],
            [u * np.conj(W[0]), one_u, 0.0],
            [u * np.conj(W[1]), 0.0, one_u],
        ],
        dtype=complex,
    )
    L_ab = np.zeros((3, 3), dtype=complex)
    L_ab[0, 0] = 1.0 / one_u**2
    H = 4.0 * family.a**2 * L_ab + sample.fp * tau_ab + sample.fpp * np.outer(grad, np.conj(grad))
    return H, 1.0, chart


def ode_residual_per_point(family, sample) -> float:
    """|LHS - 2/3| / (2/3) of the radial ODE at one sample, in Python floats."""
    tau, fp, fpp = sample.tau, sample.fp, sample.fpp
    if family.kind == "resolved":
        lhs = (4.0 * family.a**2 + tau * fp) * (fp**2 + tau * fp * fpp)
    else:
        at = abs(family.t)
        lhs = fp**3 * tau + fp**2 * fpp * (tau**2 - at**2)
    return abs(lhs - 2.0 / 3.0) / (2.0 / 3.0)


def _reference_point(family):
    """The calibration point: the normal form at tau = 2 |t| (1 on the
    cone), and [1:0] over tau = 2 a^3 on the resolution."""
    if family.kind == "resolved":
        return ResolvedPoint((1.0, 0.0), (math.sqrt(2.0 * family.a**3), 0.0))
    t = complex(family.t)
    at = abs(t)
    tau = 2.0 * at if family.kind == "smoothed" else 1.0
    phase = cmath.exp(1j * cmath.phase(t) / 2) if t != 0 else 1.0
    return FiberPoint(phase * np.array([1j * math.sqrt((tau - at) / 2.0), 0.0, 0.0, math.sqrt((tau + at) / 2.0)]), t)


def monge_ampere_residual_per_point(family, point, sample) -> float:
    """|det(H)/density / calibration - 1| at one point, the calibration taken
    from this module's Hessian at the family's reference point."""
    ref = _reference_point(family)
    ref_tau = ref.norm_sq if isinstance(ref, FiberPoint) else float(np.sum(np.abs(ref.w) ** 2))
    H0, density0, _ = hessian_per_point(family, ref, metrics.potential_value(family, ref_tau))
    H, density, _ = hessian_per_point(family, point, sample)
    if not np.all(np.linalg.eigvalsh(H) > 0):
        raise ValueError("Hessian not positive definite; not a metric at this point")
    calibration = float(np.linalg.det(H0).real) / density0
    return abs(float(np.linalg.det(H).real) / density / calibration - 1.0)


def asymptotic_deviation_per_point(family, sample, subtract_gauge: bool = False) -> float:
    """f minus its leading large-tau terms at one sample, in Python floats."""
    tau = sample.tau
    if family.kind == "cone":
        return 0.0
    if family.kind == "smoothed":
        dev = sample.f - 1.5 * tau ** (2.0 / 3.0)
        if subtract_gauge:
            dev -= abs(family.t) ** (2.0 / 3.0) * metrics.SMOOTHED_GAUGE
        return dev
    a = family.a
    dev = sample.f - (1.5 * tau ** (2.0 / 3.0) - 2.0 * a**2 * math.log(tau / a**3))
    if subtract_gauge:
        dev -= a**2 * metrics.RESOLVED_GAUGE
    return dev


def smoothed_normal_form_point(t: complex, tau: float) -> FiberPoint:
    return FiberPoint(metrics.smoothed_normal_form_points(t, [tau]).z[0], t)


def sample_fiber_points_per_point(t: complex, taus, rng: np.random.Generator) -> FiberPoint:
    """acceptance.sample_fiber_points one point at a time: a 4 x 4 Gaussian
    draw, its QR, the sign fix and the determinant flip per point."""
    points = []
    for z in metrics.smoothed_normal_form_points(t, taus).z:
        q, r = np.linalg.qr(rng.normal(size=(4, 4)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        points.append(q @ z)
    return FiberPoint(np.array(points), t)


def sample_resolved_points_per_point(radii, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """acceptance.sample_resolved_points one point at a time: four phases, a
    ratio and a Gaussian direction drawn, scaled to the radius and
    normalized by ResolvedPoint, per point."""
    points = []
    for idx, radius in enumerate(radii):
        phases = np.exp(2j * math.pi * rng.uniform(0, 1, 4))
        ratio = rng.uniform(0.0, 0.95)
        u = np.array([1.0, ratio]) * phases[:2] if idx % 2 == 0 else np.array([ratio, 1.0]) * phases[:2]
        w_dir = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = radius * w_dir / np.linalg.norm(w_dir)
        points.append(ResolvedPoint(u, w))
    return np.array([q.u for q in points]), np.array([q.w for q in points])


def cone_point(tau: float) -> FiberPoint:
    return smoothed_normal_form_point(0.0, tau)


def resolved_point_with_tau(tau: float, u=None) -> ResolvedPoint:
    """The point of the resolution with invariant tau over the direction u
    (default [1:0]): the fiber pair (w, 0) with (|u_1|^2 + |u_2|^2) |w|^2 = tau
    once max |u_i| = 1."""
    u = np.asarray((1.0, 0.0) if u is None else u, dtype=complex)
    u = u / np.max(np.abs(u))
    return ResolvedPoint(u, (np.sqrt(tau / np.sum(np.abs(u) ** 2)), 0.0))


def point_tau(point) -> float:
    return float(metrics.point_taus(metrics._stacked(point))[0])


# ---------------------------------------------------------------------------
# hodge


def ext_binomial(m: int, n: int) -> int:
    """Binomial coefficient extended to all integer m as a degree-n polynomial.

    Defined by ``prod_{i=0..n-1}(m - i) / n!``.  Agrees with math.comb for
    m >= n >= 0, vanishes for 0 <= m < n, and takes signed values for m < 0.
    """
    if n < 0:
        raise ValueError("lower index must be >= 0")
    num = 1
    for i in range(n):
        num *= m - i
    q, rem = divmod(num, math.factorial(n))
    assert rem == 0, "product of consecutive integers must divide n!"
    return q


def chi_line_bundle(n: int, m: int) -> int:
    """chi(O_{P^n}(m)) as an exact integer, for any integer twist m.

    This is the polynomial ``prod_{i=1..n}(m + i) / n!``, the unique
    polynomial extension of dim H^0(P^n, O(m)) = C(n+m, n); for m = -r < 0
    it equals (-1)^n * C(r-1, n).
    """
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    return ext_binomial(m + n, n)


def chi_omega_p_twist(n: int, p: int, r: int) -> int:
    """chi(Omega_{P^n}^p(-r)) by the wedge-power recursion on the Euler sequence.

    chi(Omega^p(-r)) = C(n+1, p) * chi(O(-p-r)) - chi(Omega^{p-1}(-r)),
    with base case p = 0 given by chi_line_bundle.
    """
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    if p < 0 or p > n:
        raise ValueError(f"form degree p={p} out of range [0, {n}]")
    if r < 0:
        raise ValueError("twist r must be >= 0")
    chi = chi_line_bundle(n, -r)  # p = 0
    for q in range(1, p + 1):
        chi = math.comb(n + 1, q) * chi_line_bundle(n, -q - r) - chi
    return chi


def chi_restricted_omega_p(spec: HypersurfaceSpec, p: int, r: int = 0) -> int:
    """chi of the ambient p-forms restricted to X, twisted by O(-r):
    the restriction sequence gives chi(Omega_P^p(-r)) - chi(Omega_P^p(-r-d))."""
    n, d = spec.n, spec.d
    return chi_omega_p_twist(n, p, r) - chi_omega_p_twist(n, p, r + d)


def chi_hypersurface_omega_p_recursion(spec: HypersurfaceSpec, p: int, r: int = 0) -> int:
    """chi(Omega_X^p(-r)) for the hypersurface X, exact.

    Conormal sequence plus restriction sequence give
    chi(Omega_X^p(-r)) = [chi(Omega_P^p(-r)) - chi(Omega_P^p(-r-d))]
                          - chi(Omega_X^{p-1}(-r-d)),
    with the p = 0 base case chi(O_X(-r)) = chi(O_P(-r)) - chi(O_P(-r-d)).
    """
    n, d = spec.n, spec.d
    if p < 0 or p > n - 1:
        raise ValueError(f"form degree p={p} out of range [0, {n - 1}]")
    if r < 0:
        raise ValueError("twist r must be >= 0")
    chi = chi_line_bundle(n, -(r + p * d)) - chi_line_bundle(n, -(r + (p + 1) * d))
    for q in range(1, p + 1):
        chi = chi_restricted_omega_p(spec, q, r + (p - q) * d) - chi
    return chi


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
        return chi_hypersurface_omega_p_recursion(spec, self.p, self.r)


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


def dense_cycle_arrays(t: complex, resolution: int) -> tuple[np.ndarray, ...]:
    """nodes, weights, sphere_points and sphere_frames of the whole product
    grid on L_t, built at once from resolution^3 angle arrays."""
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
    return cmath.sqrt(t) * u.astype(complex), W, u, triads


def dense_integrate_volume_form(t: complex, resolution: int, method: str = "real_slice") -> complex:
    """The period quadrature over the dense grid: one complex chart
    evaluation and one pairwise sum over all resolution^3 nodes.  'real_slice'
    evaluates every node in chart 4; the 'chart_stitched' cross-check takes
    the chart of dominant modulus per node.  Both contract the same global
    form, so they agree with the package's kernel up to rounding."""
    t = complex(t)
    nodes, weights, _, sphere_frames = dense_cycle_arrays(t, resolution)
    st = cmath.sqrt(t)
    frames = sphere_frames.astype(complex) * (st / abs(st))
    if method == "real_slice":
        charts = np.full(nodes.shape[0], 3)
    else:
        charts = np.argmax(np.abs(nodes), axis=1)
    values = _chart_form_values(nodes, frames, charts)
    return abs(t) ** 1.5 * complex(np.sum(weights * values))


# ---------------------------------------------------------------------------
# exterior: sparse dict algebra
#
# A k-form is a dict mapping strictly increasing index tuples to complex
# coefficients.  Ambient forms live over dz_1..dz_4, conj(dz_1..dz_4)
# (indices 0..7), fiber forms over the chart-4 basis of the package.

Form = dict[tuple[int, ...], complex]


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort basis indices; the sign is the parity of the inversions, and a
    repeated index kills the term (sign 0)."""
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return key, 0
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return key, -1 if inversions % 2 else 1


def form_scale(a: Form, c: complex) -> Form:
    return {k: c * v for k, v in a.items()}


def form_add(*forms: Form) -> Form:
    out: Form = {}
    for f in forms:
        for k, v in f.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0}


def form_wedge(a: Form, b: Form) -> Form:
    out: Form = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, sign = _sort_with_sign(ka + kb)
            if sign:
                out[key] = out.get(key, 0.0) + sign * va * vb
    return {k: v for k, v in out.items() if v != 0}


def wedge_all(forms) -> Form:
    out: Form = {(): 1.0}
    for f in forms:
        out = form_wedge(out, f)
    return out


def form_evaluate(form: Form, vectors, component) -> complex:
    """sum_S c_S det[component(v_r, S_c)]: a k-form contracted with k vectors."""
    total = 0.0 + 0.0j
    for key, coeff in form.items():
        mat = np.array([[component(v, idx) for idx in key] for v in vectors], dtype=complex)
        total += coeff * np.linalg.det(mat)
    return total


def as_dense(form: Form, k: int) -> np.ndarray:
    """The package's coefficient array of a fiber k-form."""
    return np.array([form.get(key, 0.0) for key in BASIS[k]], dtype=complex)


def fiber_component(v: np.ndarray, idx: int) -> complex:
    return v[idx] if idx < 3 else np.conj(v[idx - 3])


def restrict_to_chart4(ambient: Form, p: FiberPoint) -> Form:
    """Substitute dz_4 = -(z_1 dz_1 + z_2 dz_2 + z_3 dz_3)/z_4 (and its
    conjugate) into every term of an ambient form."""
    _require_chart(p, 4)
    z = p.z
    sub: list[Form] = [{(i,): 1.0} for i in range(3)]
    sub.append({(i,): -z[i] / z[3] for i in range(3)})
    sub.extend({(3 + i,): 1.0} for i in range(3))
    sub.append({(3 + i,): -np.conj(z[i]) / np.conj(z[3]) for i in range(3)})
    return form_add(*(form_scale(wedge_all(sub[k] for k in key), c) for key, c in ambient.items()))


def d_conj_over_norm_form(p: FiberPoint, i: int) -> Form:
    """Ambient differential of conj(z_i) / (2 ||z||^2)."""
    z, zb, s = p.z, np.conj(p.z), p.norm_sq
    form: Form = {(k,): -zb[i] * zb[k] / (2 * s**2) for k in range(4)}
    for k in range(4):
        form[(4 + k,)] = -zb[i] * z[k] / (2 * s**2) + (1.0 / (2 * s) if k == i else 0.0)
    return form


def dict_pullback_volume_form(p: FiberPoint, t: complex) -> Form:
    """dw_1 ^ dw_2 ^ dw_3 / w_4 for w = z + t conj(z) / (2 ||z||^2), restricted."""
    w4 = p.z[3] + t * np.conj(p.z[3]) / (2 * p.norm_sq)
    ones = [form_add({(i,): 1.0}, form_scale(d_conj_over_norm_form(p, i), t)) for i in range(3)]
    return restrict_to_chart4(form_scale(wedge_all(ones), 1.0 / w4), p)


def dict_omega_tilde_1_coefficients(p: FiberPoint) -> Form:
    """The deformation form term by term: the (3,0) top piece plus one
    wedge per replaced factor dz_i -> d(conj(z_i) / (2 ||z||^2))."""
    z4 = p.z[3]
    pieces: list[Form] = [{(0, 1, 2): -np.conj(z4) / (2 * z4**2 * p.norm_sq)}]
    for i in range(3):
        factors = [d_conj_over_norm_form(p, j) if j == i else {(j,): 1.0} for j in range(3)]
        pieces.append(form_scale(wedge_all(factors), 1.0 / z4))
    return restrict_to_chart4(form_add(*pieces), p)


# ---------------------------------------------------------------------------
# conifold


@dataclass
class ResolvedPoint:
    """A point of the small resolution: a direction [U1:U2] and a fiber pair.

    The homogeneous pair is normalized so max |U_i| = 1; the fiber pair is
    expressed in the trivialization belonging to that normalization.
    """

    u: np.ndarray
    w: np.ndarray

    def __init__(self, u, w):
        u = np.asarray(u, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if u.shape != (2,) or w.shape != (2,):
            raise ValueError("u and w must be pairs")
        scale = np.max(np.abs(u))
        if scale == 0.0:
            raise ValueError("homogeneous pair (U1, U2) must be nonzero")
        self.u = u / scale
        self.w = w * scale


def _chart4_point(coords: np.ndarray, z4_ref: complex, t: complex) -> FiberPoint:
    """Rebuild the fiber point over chart coordinates, keeping the z_4 branch
    closest to a reference value."""
    s = complex(np.sum(coords**2))
    z4 = cmath.sqrt(t - s)
    if abs(z4 - z4_ref) > abs(z4 + z4_ref):
        z4 = -z4
    return FiberPoint(np.array([coords[0], coords[1], coords[2], z4]), t)


def fd_exterior_derivative_per_point(p: FiberPoint) -> np.ndarray:
    """Finite-difference exterior derivative of the first-order deformation
    form in chart 4 at p: its 15 four-form coefficients.

    Uses 4th-order central stencils with step h = 1e-4 * ||z||,
    differentiating each coefficient in the Wirtinger sense (partials[a] is
    d/dz_a for a < 3 and d/dconj(z_{a-3}) after) and wedging with the
    corresponding basis covector through exterior.D_SIGNS.
    """
    base = np.array(p.z[:3], dtype=complex)
    h = 1e-4 * np.sqrt(p.norm_sq)
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)

    def directional(step: np.ndarray) -> np.ndarray:
        points = [_chart4_point(base + off * step, p.z[3], p.t) for off in (-2, -1, 1, 2)]
        return weights @ [omega_tilde_1_coefficients(q) for q in points]

    partials = np.zeros((6, len(exterior.BASIS[3])), dtype=complex)
    for a, step in enumerate(h * np.eye(3)):
        dx, dy = directional(step), directional(1j * step)
        partials[a] = (dx - 1j * dy) / 2
        partials[3 + a] = (dx + 1j * dy) / 2
    return partials.ravel() @ exterior.D_SIGNS


def conjugate_point(p: FiberPoint) -> FiberPoint:
    return FiberPoint(np.conj(p.z), np.conj(p.t))


def dominant_chart(p: FiberPoint) -> int:
    """1-based index of the coordinate of maximal modulus (lowest index on ties)."""
    return int(np.argmax(np.abs(p.z))) + 1


def chart_complement(chart: int) -> tuple[int, int, int]:
    """0-based indices of the three coordinates other than the chart one."""
    return tuple(i for i in range(4) if i != chart - 1)


@dataclass
class ThreeFormValue:
    """Coefficient of the canonical basis 3-form of a coordinate chart."""

    chart: int
    coeff: complex


def holomorphic_volume_form(p: FiberPoint, chart: int | None = None) -> ThreeFormValue:
    """Chart coefficient of the residue-normalized holomorphic volume form.

    In chart j the form is (-1)^j / (2 z_j) times dz_a ^ dz_b ^ dz_c, where
    (a, b, c) is the increasing complement of j.  The signs make the four
    chart expressions restrict to one global form on the fiber.
    """
    if chart is None:
        chart = dominant_chart(p)
    _require_chart(p, chart)
    return ThreeFormValue(chart=chart, coeff=(-1) ** chart / (2 * p.z[chart - 1]))


def _ambient_component(v: np.ndarray, idx: int) -> complex:
    # ambient covector basis: 0..3 are dz_1..dz_4, 4..7 are conj(dz_1..dz_4)
    return v[idx] if idx < 4 else np.conj(v[idx - 4])


def volume_form_value(p: FiberPoint, frame, chart: int | None = None, convention: str = "residue") -> complex:
    """Contract the chart expression of the volume form against a tangent 3-frame.

    The value is independent of the chart whenever the frame is tangent to
    the fiber; 'cycle' normalization is twice the 'residue' one.
    """
    tf = holomorphic_volume_form(p, chart)
    scale = {"residue": 1.0, "cycle": 2.0}[convention]
    form: Form = {chart_complement(tf.chart): scale * tf.coeff}
    return form_evaluate(form, frame, _ambient_component)


# canonical ordering of the 10 basis elements carrying the first-order form:
# the holomorphic top piece, then conj(dz_i) ^ dz_j ^ dz_k lexicographic in
# (i, (j, k)) for i in 1..3 and j < k in 1..3.
OMEGA_TILDE_BASIS: tuple[tuple[int, ...], ...] = ((0, 1, 2),) + tuple(
    (3 + i, j, k) for i in range(3) for (j, k) in ((0, 1), (0, 2), (1, 2))
)


def omega_tilde_1_vector(p: FiberPoint) -> np.ndarray:
    """The 10 coefficients of the deformation form in the canonical ordering."""
    form = omega_tilde_1_coefficients(p)
    out = []
    for key in OMEGA_TILDE_BASIS:
        sorted_key, sign = _sort_with_sign(key)
        out.append(sign * form[BASIS[3].index(sorted_key)])
    return np.array(out, dtype=complex)


@dataclass
class RealSplitting:
    """Unit vector on the 3-sphere and an orthogonal tangent vector."""

    u: np.ndarray
    v: np.ndarray


def real_coordinates(p: FiberPoint, tol: float = 1e-9) -> RealSplitting:
    """Split a point of V_t (t real > 0) into a unit sphere vector and an
    orthogonal tangent vector: u = x/|x|, v = y |y| for z = x + i y."""
    t = p.t
    if abs(t.imag) > tol * max(1.0, abs(t)) or t.real <= 0:
        raise ValueError("real coordinates need a real positive fiber parameter; rotate first")
    if not on_fiber(p, max(tol, 1e-12)):
        raise ValueError("point does not lie on the declared fiber")
    x = p.z.real.astype(float)
    y = p.z.imag.astype(float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ValueError("|x| vanishes; not a point of a positive real fiber")
    return RealSplitting(u=x / nx, v=y * float(np.linalg.norm(y)))


def splitting_to_point(split: RealSplitting, t: float) -> FiberPoint:
    """Inverse of real_coordinates: x = sqrt(|v| + t) u, y = v / sqrt(|v|)."""
    nv = float(np.linalg.norm(split.v))
    x = np.sqrt(nv + t) * split.u
    y = split.v / np.sqrt(nv) if nv > 0 else np.zeros(4)
    return FiberPoint(x + 1j * y, t)


def resolve_project(q: ResolvedPoint) -> np.ndarray:
    """Blow-down map to the quadric {xy = zw}:
    (x, y, z, w) = (U1 W1, U2 W2, U1 W2, U2 W1).
    The zero section collapses to the origin."""
    u1, u2 = q.u
    w1, w2 = q.w
    return np.array([u1 * w1, u2 * w2, u1 * w2, u2 * w1], dtype=complex)


def resolved_rescale(q: ResolvedPoint, a: float) -> ResolvedPoint:
    """Scale the bundle fibers by a^{3/2}; commutes with resolve_project as
    coordinatewise multiplication by a^{3/2} on the quadric."""
    if a <= 0:
        raise ValueError("rescaling parameter must be positive")
    return ResolvedPoint(q.u.copy(), a**1.5 * q.w)


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


def integer_rref(mat: list[list], n: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place over the integers
    (Bareiss 1968), on lists: with pivot p and the previous pivot q (1 at
    the start), every other row r becomes (p * r - f * r_pivot) // q, f its
    entry in the pivot column, the pivot row being the first nonzero one at
    or below the current row, swapped up.  Every entry is then a minor of
    the input, so the division is exact, and each pivot row ends with the
    last pivot in its pivot column and zeros in every other pivot column.
    Returns the pivot columns."""
    m = len(mat)
    pivots: list[int] = []
    row, q = 0, 1
    for col in range(n):
        for pivot in range(row, m):
            if mat[pivot][col]:
                break
        else:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        prow = mat[row]
        p = prow[col]
        for r in range(m):
            if r != row:
                f = mat[r][col]
                mat[r] = [(p * a - f * b) // q for a, b in zip(mat[r], prow)]
        q = p
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def integer_rref_witness(rows):
    """The smoothability witness of integer class vectors by integer_rref,
    one matrix at a time: the kernel basis vector of free column f_j is 1
    at f_j and -R[r][f_j] / p_r at pivot column r, and the witness
    sum_j s^j (basis vector j) takes the first s = 1, 2, ... with every
    P_r(s) = sum_j R[r][f_j] s^j nonzero.  Built as integer weights over the
    lcm of the pivots, checked on those integers and returned as Fractions,
    or None when some class vanishes in every relation."""
    n = len(rows)
    mat = [list(col) for col in zip(*rows)]
    pivots = integer_rref(mat, n)
    free = [c for c in range(n) if c not in pivots]
    coeffs = [[row[f] for f in free] for row in mat[: len(pivots)]]
    if not free or not all(map(any, coeffs)):
        return None
    for s in range(1, n * len(free) + 2):
        powers = [s**j for j in range(len(free))]
        values = [sum(map(operator.mul, row, powers)) for row in coeffs]
        if all(values):
            heads = [row[pcol] for row, pcol in zip(mat, pivots)]
            denominator = math.lcm(*heads)
            weights = [0] * n
            for f, w in zip(free, powers):
                weights[f] = denominator * w
            for pcol, value, p in zip(pivots, values, heads):
                weights[pcol] = -value * (denominator // p)
            for column in zip(*rows):
                if sum(map(operator.mul, weights, column)):
                    raise AssertionError("witness fails the annihilation identity")
            if not all(weights):
                raise AssertionError("witness has a zero coordinate")
            return [Fraction(w, denominator) for w in weights]
    raise AssertionError("witness search exceeded its deterministic bound")


def fraction_kernel_basis(columns: list[list]) -> list[list]:
    """Kernel basis of lambda -> sum_i lambda_i columns[i] by elimination over
    Fractions: one vector per free column f, with vec[f] = 1 and the pivots
    solved.  kernel_basis_witness searches for the witness over it."""
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


def kernel_basis_witness(rows):
    """The smoothability witness by the kernel-basis route: the same search as
    transitions.friedman_witness, run over the Fraction kernel basis of the
    class vectors rows, given as unparsed entries (ints, Fractions, rational
    strings, integral floats).  The witness is checked against those
    entries as Fractions.

    Feasibility holds iff for every index i some kernel vector is nonzero in
    coordinate i (a vector space over an infinite field is never a finite
    union of proper subspaces).  The witness is sum_j s^j k_j over the kernel
    basis with s = 1, 2, 3, ... the first value making every coordinate
    nonzero; each coordinate is a nonzero polynomial of degree < dim(kernel)
    in s, so at most n_classes * dim(kernel) values can fail.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    basis = fraction_kernel_basis(rows)
    if not basis:
        return None
    for i in range(n):
        if not any(vec[i] for vec in basis):
            return None
    bound = n * len(basis) + 1
    for s in range(1, bound + 1):
        lam = [Fraction(0)] * n
        power = Fraction(1)
        for vec in basis:
            lam = [acc + power * x for acc, x in zip(lam, vec)]
            power = power * s
        if all(lam):
            for column in zip(*rows):
                if sum((x * c for x, c in zip(lam, column)), Fraction(0)):
                    raise AssertionError("witness fails the annihilation identity")
            return lam
    raise AssertionError("witness search exceeded its deterministic bound")


def _per_point(method):
    """A one-point method of Polynomial4 that also takes a stack (N, 4) of
    points, by calling it at each point in turn (transitions.verify_odps
    evaluates its polynomial on the whole stack)."""

    @functools.wraps(method)
    def stacked(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            return method(self, z)
        return np.array([method(self, point) for point in z], dtype=complex)

    return stacked


@dataclass
class Polynomial4:
    """Sparse polynomial in four variables: exponent tuple -> complex
    coefficient.  Its value, gradient and Hessian take one point (4,) or a
    stack (N, 4), the stack one point at a time."""

    terms: dict

    def __post_init__(self) -> None:
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 4 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            if coeff != 0:
                clean[exps] = complex(coeff)
        self.terms = clean

    @_per_point
    def __call__(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        return sum(
            coeff * np.prod([z[i] ** e for i, e in enumerate(exps) if e])
            for exps, coeff in self.terms.items()
        )

    def derivative(self, i: int) -> "Polynomial4":
        out: dict = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + coeff * exps[i]
        return Polynomial4(out)

    @_per_point
    def gradient(self, z) -> np.ndarray:
        return np.array([self.derivative(i)(z) for i in range(4)], dtype=complex)

    @_per_point
    def hessian(self, z) -> np.ndarray:
        H = np.empty((4, 4), dtype=complex)
        for i in range(4):
            di = self.derivative(i)
            for j in range(i, 4):
                H[i, j] = H[j, i] = di.derivative(j)(z)
        return H

    @classmethod
    def sum_of_squares(cls) -> "Polynomial4":
        return cls({tuple(2 if j == i else 0 for j in range(4)): 1.0 for i in range(4)})


def dwork_polynomial() -> Polynomial4:
    """The nodal quintic pencil member in the chart Z_0 = 1:
    1 + z_1^5 + z_2^5 + z_3^5 + z_4^5 - 5 z_1 z_2 z_3 z_4."""
    terms = {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): -5.0}
    for i in range(4):
        terms[tuple(5 if j == i else 0 for j in range(4))] = 1.0
    return Polynomial4(terms)


# the field order of transitions.OdpRecord
ODP_FIELDS = ("status", "value", "gradient_norm", "hessian_det", "hessian_scale", "det_threshold")


def verify_odp_per_point(poly, point) -> tuple:
    """The double-point certificate one point at a time, as a tuple in the
    order of ODP_FIELDS: its own spectral norm and determinant per Hessian
    (transitions.verify_odps stacks them)."""
    z = np.asarray(point, dtype=complex)
    scale_ref = float(1.0 + np.max(np.abs(z))) ** 2
    value = abs(poly(z))
    if value > ODP_VALUE_TOL * scale_ref:
        raise NotOnVarietyError(f"polynomial value {value:.3e} exceeds tolerance at the point")
    grad_norm = float(np.linalg.norm(poly.gradient(z)))
    H = poly.hessian(z)
    hess_scale = float(np.linalg.norm(H, 2))
    det = abs(np.linalg.det(H))
    threshold = ODP_DET_RTOL * hess_scale**4
    if grad_norm > ODP_GRADIENT_TOL * scale_ref:
        status = "not_singular"
    elif det > threshold:
        status = "odp"
    else:
        status = "degenerate_singularity"
    return status, value, grad_norm, det, hess_scale, threshold


def dwork_exponents() -> list[tuple[int, ...]]:
    """The nodes' canonical exponent tuples: the 625 solutions of
    sum a_i = 0 mod 5 in (Z/5)^5, each reduced by the diagonal shift (a_0
    subtracted from every entry), as a sorted set."""
    raw = [a for a in itertools.product(range(5), repeat=5) if sum(a) % 5 == 0]
    return sorted({tuple((ai - a[0]) % 5 for ai in a) for a in raw})


def dwork_nodes() -> np.ndarray:
    """The nodes' coordinates xi^{a_1}, ..., xi^{a_4} in the chart Z_0 = 1,
    with xi = exp(2 pi i / 5) from cmath, in the order of dwork_exponents."""
    xi = cmath.exp(2j * math.pi / 5)
    return np.array([[xi**a for a in exps[1:]] for exps in dwork_exponents()])


def dwork_smooth_points_per_draw(count: int, seed: int = 0) -> np.ndarray:
    """The smooth-point sampler one draw at a time, with np.roots per draw
    (transitions.random_dwork_smooth_points batches the companion roots)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    poly = DworkQuintic()
    singular = dwork_nodes()
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z123 = rng.uniform(0.5, 1.5, 3) * np.exp(2j * math.pi * rng.uniform(0, 1, 3))
        const = 1.0 + np.sum(z123**5)
        roots = np.roots([1.0, 0.0, 0.0, 0.0, -5.0 * np.prod(z123), const])
        z = np.append(z123, roots[int(rng.integers(len(roots)))])
        if np.min(np.linalg.norm(singular - z, axis=1)) < 1e-2:
            continue
        if abs(poly(z)) > 1e-9 * (1.0 + np.max(np.abs(z))) ** 2:
            continue
        out.append(z)
    return np.array(out, dtype=complex).reshape(count, 4)


# ---------------------------------------------------------------------------
# acceptance


_RANK_CHUNK = 2**16  # matrices per elimination pass: a few MB per working array


def batched_integer_rank(mats: np.ndarray) -> np.ndarray:
    """Exact rank of stacked integer matrices (..., N, m) by fraction-free
    (Bareiss) elimination, run on the whole stack in chunks.  Column by
    column, the pivot is the first row with a nonzero entry, and every row
    becomes (p a_r - a_r[c] a_pivot) / p_prev on the columns to the right:
    an exact division, which keeps each entry a minor of the input and
    leaves the pivot row zero.  A column with no pivot changes nothing.  The
    rank is the number of pivots.  The largest intermediate is twice a
    product of two k x k minors, k < min(N, m), which must fit in int64."""
    mats = np.asarray(mats)
    n, m = mats.shape[-2:]
    flat = mats.reshape(math.prod(mats.shape[:-2]), n, m)
    k = max(min(n, m) - 1, 0)
    bound = max(-int(flat.min(initial=0)), int(flat.max(initial=0)))  # int8's -128 has no negation
    if 2 * (math.sqrt(k) * bound) ** (2 * k) >= 2**63:
        raise ValueError("entries too large for int64 elimination")
    ranks = np.zeros(len(flat), dtype=np.int64)
    if n == 0:  # rank 0, and argmax needs a row
        return ranks.reshape(mats.shape[:-2])
    for start in range(0, len(flat), _RANK_CHUNK):
        a = flat[start : start + _RANK_CHUNK].astype(np.int64)
        rows = np.arange(len(a))
        p_prev = np.ones(len(a), dtype=np.int64)
        for _ in range(m):
            col, rest = a[:, :, 0], a[:, :, 1:]
            nonzero = col != 0
            found, pivot = nonzero.any(axis=1), nonzero.argmax(axis=1)
            # without a pivot the column is zero, and p = p_prev leaves every row as it is
            p = np.where(found, col[rows, pivot], p_prev)
            prow = rest[rows, pivot]
            a = (p[:, None, None] * rest - col[:, :, None] * prow[:, None, :]) // p_prev[:, None, None]
            ranks[start : start + len(a)] += found
            p_prev = p
    return ranks.reshape(mats.shape[:-2])


@functools.cache
def stacked_sign_matrices(n: int, m: int) -> np.ndarray:
    """Every {-1, 0, 1} matrix with n rows of length m, stacked as
    (3^(n m), n, m), first row most significant.  Built once per process
    and read-only."""
    pool = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
    mats = pool[np.indices((len(pool),) * n).reshape(n, -1).T]
    mats.flags.writeable = False
    return mats


def canonical_class_keys(mats: np.ndarray) -> np.ndarray:
    """One int64 key per matrix naming its class under row permutation and
    row negation: a row reads as the base-3 number k < 3^m with digits
    entry + 1, its negation as 3^m - 1 - k, and the row's key is the smaller
    of the two.  The sorted row keys are packed into one integer below
    3^(m N), first row most significant."""
    n, m = mats.shape[-2], mats.shape[-1]
    assert 3 ** (m * n) <= 2**63, "class keys must fit in int64"
    row_keys = np.zeros(mats.shape[:-1], dtype=np.int64)
    for j in range(m):
        row_keys = row_keys * 3 + (mats[..., j] + 1)
    row_keys = np.minimum(row_keys, 3**m - 1 - row_keys)
    row_keys.sort(axis=-1)
    keys = np.zeros(mats.shape[:-2], dtype=np.int64)
    for i in range(n):
        keys = keys * 3**m + row_keys[..., i]
    return keys


def decode_class_key(key: int, n: int, m: int) -> list[tuple[int, ...]]:
    digits = []
    for _ in range(n * m):
        digits.append(key % 3 - 1)
        key //= 3
    digits.reverse()
    return [tuple(digits[i * m : (i + 1) * m]) for i in range(n)]


@functools.cache
def stacked_classes(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique over the class keys of stacked_sign_matrices(n, m): the
    sorted keys and each matrix's index into them.  Built once per process
    and read-only."""
    keys, inverse = np.unique(canonical_class_keys(stacked_sign_matrices(n, m)), return_inverse=True)
    keys.flags.writeable = inverse.flags.writeable = False
    return keys, inverse


def stacked_class_counts(n: int, m: int) -> dict[int, int]:
    """Class key -> number of n x m sign matrices in the class."""
    keys, inverse = stacked_classes(n, m)
    return dict(zip(keys.tolist(), np.bincount(inverse).tolist()))


def class_table_gather(values: np.ndarray, names: int, n: int) -> np.ndarray:
    """Per-class values (one per sorted n-tuple of the names, in
    combinations_with_replacement order) spread over the P^n matrices of n
    pool rows, P = 2 names - 1, first row most significant: a table over the
    sorted tuples, read at every tuple's sorted form, then gathered at
    min(k, P - 1 - k), the name of pool row k, along every axis."""
    size = 2 * names - 1
    classes = np.array(list(itertools.combinations_with_replacement(range(names), n)))
    sorted_table = np.empty((names,) * n, dtype=values.dtype)
    sorted_table[tuple(classes.T)] = values
    tuples = np.sort(np.indices((names,) * n).reshape(n, -1), axis=0)
    table = sorted_table[tuple(tuples)].reshape((names,) * n)
    canon = np.minimum(np.arange(size), size - 1 - np.arange(size))
    axes = [(1,) * i + (size,) + (1,) * (n - 1 - i) for i in range(n)]
    return table[tuple(canon.reshape(shape) for shape in axes)]


def stacked_friedman_agreement(max_rows: int) -> tuple[int, int]:
    """(matrices checked, mismatches) of the exact witness solver against
    the rank test over every {-1, 0, 1} matrix with N <= max_rows, m <= 3:
    each (N, m) block materialised as one stack, ranks by elimination
    (an all-nonzero annihilating combination exists iff no single row
    deletion lowers the rank), the solver run once per np.unique class key."""
    checked = mismatches = 0
    for n in range(1, max_rows + 1):
        for m in range(1, 4):
            mats = stacked_sign_matrices(n, m)
            rank = batched_integer_rank(mats)
            oracle = np.ones(len(mats), dtype=bool)
            for i in range(n):
                oracle &= batched_integer_rank(np.delete(mats, i, axis=-2)) == rank
            keys, inverse = stacked_classes(n, m)
            solver = np.array([
                transitions.friedman_witness(transitions.ClassMatrix(decode_class_key(int(key), n, m)))
                is not None
                for key in keys
            ])
            checked += len(mats)
            mismatches += int(np.count_nonzero(solver[inverse] != oracle))
    return checked, mismatches


@functools.cache
def bench_workloads():
    """perfbench/workloads.py, loaded once from its file: its class-matrix
    generators make the benchmark's friedman requests."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
