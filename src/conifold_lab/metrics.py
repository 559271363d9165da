"""Radial Ricci-flat potentials on the cone, its smoothing and its small resolution.

Each family is cohomogeneity one: the Kaehler potential is a function f of
the invariant tau (the ambient squared norm; on the resolved side, the
product of the direction norm and the fiber norm).  The volume-form
equation reduces to a radial ODE in tau with constant right-hand side
c = 2/3 in the normalization used here:

  cone / smoothing:  (f')^3 tau + (f')^2 f'' (tau^2 - |t|^2) = c
  small resolution:  (4 a^2 + tau f') ((f')^2 + tau f' f'') = c

Closed forms: the cone has f = (3/2) tau^{2/3}.  The smoothing reduces by
tau = |t| cosh(lambda) to an explicit antiderivative; the resolution
reduces to a cubic first integral gamma^3 + 6 a^2 gamma^2 = tau^2 for
gamma = tau f'.  Profiles at general parameters come from the unit-parameter
profile by the weighted rescaling: f_t(tau) = |t|^{2/3} f_1(tau/|t|) and
f_a(tau) = a^2 f_1(a^{-3} tau).  (The +2/3 exponent is the one that leaves
the ODE constant invariant; the opposite sign fails it, which is how the
convention is pinned down here.)

Potentials are normalized to vanish at the domain minimum, so their large-tau
expansions approach the cone profile only up to a family-specific additive
constant (the potential gauge).  Deviation and convergence utilities can
quotient that constant out; see asymptotic_deviation and
potential_convergence_sup.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from conifold_lab.conifold import FiberPoint, ResolvedPoint, dominant_chart, on_fiber

ODE_CONSTANT = 2.0 / 3.0

QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-13
QUAD_ERROR_BOUND = 1e-10  # potential evaluations must report better than this
_QUAD_RELATIVE_FLOOR = 1e-12  # attainable accuracy floor for values far above 1


def _check_quad_error(err: float, value: float) -> None:
    bound = max(QUAD_ERROR_BOUND, _QUAD_RELATIVE_FLOOR * abs(value))
    if err > bound:
        raise ArithmeticError(f"quadrature error {err:.2e} exceeds {bound:.2e}")

# series gamma(tau)/tau = 1/sqrt(6) - tau/72 + 5 sqrt(6) tau^2 / 10368 - ...
_SERIES_CUTOFF = 1e-4

_SMOOTHED_GAUGE_ANCHOR = 1e8
_RESOLVED_GAUGE_ANCHOR = 1e10

# Window for |t| and a, a few decades inside the tightest end that the
# largest powers allow on the default sweeps (tau up to 1e6 * max(scale, 1)):
# the resolved closed form's sigma^4, sigma = tau / a^3, needs a > 4e-24;
# the smoothed f'' takes sigma^3, sigma = tau / |t| (|t| > 2e-97); the chart
# Hessian tau^2 ~ a^6 (a < 1e49) and the smoothed ODE tau^2 (|t| < 1e148).
PARAMETER_MIN = 1e-20
PARAMETER_MAX = 1e20

# Window for tau in units of the family scale (tau itself for the cone,
# sigma = tau / |t| for the smoothing, sigma = tau / a^3 for the resolution),
# a few decades inside where the powers taken stay normal floats:
#   cone: the ODE's f'^2 f'' = -tau^-2 / 3 overflows below tau = 4.3e-155
#     and its tau^2 above 1.3e154;
#   smoothing: f'' takes mu^3 ~ sigma^3, which overflows above 5.6e102, and
#     sigma >= 1 is the domain (then tau <= 1e120, inside the cone's bounds);
#   resolution: the closed form takes sigma^4, which overflows above
#     1.2e77; tau = a^3 sigma leaves the normal floats below sigma = 2.2e-248
#     at a = PARAMETER_MIN.
TAU_WINDOW = {"cone": (1e-150, 1e150), "smoothed": (1.0, 1e100), "resolved": (1e-240, 1e75)}


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class PotentialFamily:
    """One of the three radial potential families.

    kind is 'cone', 'smoothed' or 'resolved'; t is the smoothing parameter
    (complex, PARAMETER_MIN <= |t| <= PARAMETER_MAX), a the resolution
    parameter (real, in the same window).  Every family solves its ODE with
    the constant ODE_CONSTANT = 2/3 (the cone value is the smoothed one
    continued to t = 0).
    """

    kind: str
    t: complex = 0.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("cone", "smoothed", "resolved"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not cmath.isfinite(self.t):
            raise ValueError(f"the smoothing parameter t must be finite, got {self.t}")
        if not math.isfinite(self.a):
            raise ValueError(f"the resolution parameter a must be finite, got {self.a}")
        window = f"[{PARAMETER_MIN:g}, {PARAMETER_MAX:g}]"
        if self.kind == "smoothed" and not PARAMETER_MIN <= abs(self.t) <= PARAMETER_MAX:
            raise ValueError(f"the smoothing parameter |t| must lie in {window}, got {abs(self.t):g}")
        if self.kind == "resolved" and not PARAMETER_MIN <= self.a <= PARAMETER_MAX:
            raise ValueError(f"the resolution parameter a must lie in {window}, got {self.a:g}")

    @classmethod
    def cone(cls) -> "PotentialFamily":
        return cls(kind="cone")

    @classmethod
    def smoothed(cls, t: complex) -> "PotentialFamily":
        return cls(kind="smoothed", t=complex(t))

    @classmethod
    def resolved(cls, a: float) -> "PotentialFamily":
        return cls(kind="resolved", a=float(a))

    @property
    def scale(self) -> float:
        """Parameter scale in tau units: |t| for smoothed, a^3 for resolved."""
        if self.kind == "smoothed":
            return abs(self.t)
        if self.kind == "resolved":
            return self.a**3
        return 0.0

    def domain_min(self) -> float:
        return abs(self.t) if self.kind == "smoothed" else 0.0

    def tau_window(self) -> tuple[float, float]:
        """The taus at which the family can be evaluated: TAU_WINDOW in
        units of the family scale."""
        unit = 1.0 if self.kind == "cone" else self.scale
        lo, hi = TAU_WINDOW[self.kind]
        return lo * unit, hi * unit


@dataclass
class PotentialSample:
    """Radial profile value and derivatives at one tau."""

    tau: float
    f: float
    fp: float
    fpp: float
    quad_error: float = 0.0


@dataclass
class HermitianHessian:
    """Complex Hessian of the potential in a chart, with the reference density."""

    point: object
    H: np.ndarray
    density: float
    chart: int

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.H)

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.eigenvalues() > 0))


# ---------------------------------------------------------------------------
# resolved family: the cubic first integral


def _gamma_unit_closed_form(tau: float) -> float:
    """Positive root of g^3 + 6 g^2 = tau^2 by the explicit radical formula.

    The cube-root argument crosses into the complex plane for tau^2 < 32;
    the combination -2 + z + 4/z stays real across the seam.  A couple of
    Newton steps absorb roundoff from the branch gymnastics.
    """
    tau = float(tau)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return 0.0
    if tau < _SERIES_CUTOFF:
        return tau * _gamma_over_tau_series(tau)
    disc = cmath.sqrt(complex(tau**4 - 32.0 * tau**2, 0.0))
    z = 2 ** (-1.0 / 3.0) * (complex(-16.0 + tau**2, 0.0) + disc) ** (1.0 / 3.0)
    g = (-2.0 + z + 4.0 / z).real
    for _ in range(2):
        slope = 3.0 * g**2 + 12.0 * g
        if slope == 0.0:
            break
        g -= (g**3 + 6.0 * g**2 - tau**2) / slope
    return g


def _gamma_over_tau_series(tau: float) -> float:
    return 1.0 / math.sqrt(6.0) - tau / 72.0 + 5.0 * math.sqrt(6.0) * tau**2 / 10368.0


def _gamma_unit_prime(tau: float) -> float:
    """d gamma / d tau from implicit differentiation; series limit at 0."""
    if tau < _SERIES_CUTOFF:
        # gamma' = 1/sqrt(6) - tau/36 + 5 sqrt(6) tau^2/3456 + ...
        return 1.0 / math.sqrt(6.0) - tau / 36.0 + 5.0 * math.sqrt(6.0) * tau**2 / 3456.0
    g = _gamma_unit_closed_form(tau)
    return 2.0 * tau / (3.0 * g**2 + 12.0 * g)


def gamma_resolved(tau: float, a: float = 1.0) -> float:
    """tau f'(tau) for the resolved family: gamma^3 + 6 a^2 gamma^2 = tau^2,
    gamma >= 0.  Evaluated by rescaling to the unit-parameter cubic."""
    if not a > 0:
        raise ValueError("a must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return a**2 * _gamma_unit_closed_form(tau / a**3)


def _f1_resolved(sigma: float, epsabs: float = QUAD_EPSABS) -> tuple[float, float]:
    """Unit-parameter resolved profile f_1(sigma) = int_0^sigma gamma(s)/s ds.

    The integrand tends to 1/sqrt(6) at 0; the head is done by series, the
    tail in the log variable so huge upper limits stay cheap."""
    if sigma < 0:
        raise ValueError("tau must be >= 0")
    if sigma == 0.0:
        return 0.0, 0.0
    eps = min(1e-8, sigma / 2.0)
    head = eps / math.sqrt(6.0) - eps**2 / 144.0
    val, err = quad(
        lambda x: _gamma_unit_closed_form(math.exp(x)),
        math.log(eps),
        math.log(sigma),
        epsabs=epsabs,
        epsrel=QUAD_EPSREL,
        limit=400,
    )
    return head + val, err


# ---------------------------------------------------------------------------
# smoothed family: closed-form derivatives and quadrature profile


def _smoothed_g(sigma: float) -> float:
    """g(sigma) = sigma sqrt(sigma^2-1) - arccosh sigma, the first integral."""
    mu = math.sqrt((sigma - 1.0) * (sigma + 1.0))
    return sigma * mu - math.log1p(sigma - 1.0 + mu)


def _f1p_smoothed(sigma: float) -> float:
    if sigma <= 1.0:
        if sigma == 1.0:
            return (2.0 / 3.0) ** (1.0 / 3.0)
        raise ValueError("smoothed profile needs tau >= |t|")
    mu = math.sqrt((sigma - 1.0) * (sigma + 1.0))
    return _smoothed_g(sigma) ** (1.0 / 3.0) / mu


def _f1pp_smoothed(sigma: float) -> float:
    if sigma <= 1.0:
        raise ValueError("the second derivative formula needs tau > |t|")
    mu2 = (sigma - 1.0) * (sigma + 1.0)
    g = _smoothed_g(sigma)
    return (2.0 / 3.0) * g ** (-2.0 / 3.0) - sigma * g ** (1.0 / 3.0) / mu2**1.5


def _f1_smoothed(sigma: float, epsabs: float = QUAD_EPSABS) -> tuple[float, float]:
    """f_1(sigma) = 2^{-1/3} int_0^{arccosh sigma} (sinh 2l - 2l)^{1/3} dl."""
    if sigma < 1.0:
        raise ValueError("smoothed profile needs tau >= |t|")
    if sigma == 1.0:
        return 0.0, 0.0
    L = math.acosh(sigma)

    def integrand(lam: float) -> float:
        if lam < 1e-4:
            # sinh 2l - 2l = (4/3) l^3 (1 + l^2/5 + ...)
            return (4.0 / 3.0 * lam**3 * (1.0 + 0.2 * lam**2)) ** (1.0 / 3.0)
        return (math.sinh(2.0 * lam) - 2.0 * lam) ** (1.0 / 3.0)

    val, err = quad(integrand, 0.0, L, epsabs=epsabs, epsrel=QUAD_EPSREL, limit=400)
    return 2 ** (-1.0 / 3.0) * val, err


# ---------------------------------------------------------------------------
# unified profile evaluation


def potential_value(
    family: PotentialFamily, tau: float, quad_epsabs: float = QUAD_EPSABS
) -> PotentialSample:
    """Evaluate (f, f', f'') of the family's radial potential at tau.

    f comes from adaptive quadrature (reported absolute error must beat
    1e-10); f' and f'' come from the closed forms, so residual tests do not
    inherit quadrature error.  Raises on domain violations.
    """
    tau = float(tau)
    if family.kind == "cone":
        if tau <= 0:
            raise ValueError("cone profile derivatives need tau > 0")
        return PotentialSample(
            tau=tau,
            f=1.5 * tau ** (2.0 / 3.0),
            fp=tau ** (-1.0 / 3.0),
            fpp=-(tau ** (-4.0 / 3.0)) / 3.0,
        )
    if family.kind == "smoothed":
        at = abs(family.t)
        if tau < at:
            raise ValueError(f"tau = {tau} below the smoothed domain minimum |t| = {at}")
        sigma = tau / at
        val, err = _f1_smoothed(sigma, quad_epsabs)
        scale = at ** (2.0 / 3.0)
        _check_quad_error(scale * err, scale * val)
        fp = at ** (-1.0 / 3.0) * _f1p_smoothed(sigma)
        fpp = at ** (-4.0 / 3.0) * _f1pp_smoothed(sigma) if sigma > 1.0 else float("nan")
        return PotentialSample(tau=tau, f=scale * val, fp=fp, fpp=fpp, quad_error=scale * err)
    # resolved
    a = family.a
    if tau < 0:
        raise ValueError("resolved profile needs tau >= 0")
    sigma = tau / a**3
    val, err = _f1_resolved(sigma, quad_epsabs)
    _check_quad_error(a**2 * err, a**2 * val)
    if sigma < _SERIES_CUTOFF:
        fp = _gamma_over_tau_series(sigma) / a
        fpp = (-1.0 / 72.0 + 5.0 * math.sqrt(6.0) * sigma / 5184.0) / a**4
    else:
        g = _gamma_unit_closed_form(sigma)
        fp = g / (a * sigma)
        fpp = (_gamma_unit_prime(sigma) - g / sigma) / (a**4 * sigma)
    return PotentialSample(tau=tau, f=a**2 * val, fp=fp, fpp=fpp, quad_error=a**2 * err)


def positivity_margins(family: PotentialFamily, sample: PotentialSample) -> tuple[float, float]:
    """The two positivity combinations whose strict positivity makes the
    radial ansatz an actual metric; both must be > 0.

    For cone/smoothing the second margin is the normal-form Hessian
    eigenvalue 2 (tau - |t|) f'' + 2 tau/(|t| + tau) f' (the remaining two
    eigenvalues are f').  For the resolution it is f' + tau f'', the slope
    of tau f'."""
    tau, fp, fpp = sample.tau, sample.fp, sample.fpp
    if family.kind in ("cone", "smoothed"):
        at = abs(family.t) if family.kind == "smoothed" else 0.0
        return fp, 2.0 * (tau - at) * fpp + 2.0 * tau / (at + tau) * fp
    return sample.fp, sample.fp + sample.tau * sample.fpp


def ode_residual(family: PotentialFamily, tau: float) -> float:
    """Relative residual |LHS - c| / c of the family's radial ODE at tau,
    built from the closed-form derivatives.  Raises if the positivity
    conditions fail (the profile would not define a metric there)."""
    s = potential_value(family, tau)
    m1, m2 = positivity_margins(family, s)
    if not (m1 > 0 and m2 > 0):
        raise ValueError(f"positivity violated at tau={tau}: margins {m1:.3e}, {m2:.3e}")
    if family.kind in ("cone", "smoothed"):
        at = abs(family.t) if family.kind == "smoothed" else 0.0
        lhs = s.fp**3 * tau + s.fp**2 * s.fpp * (tau**2 - at**2)
    else:
        lhs = (4.0 * family.a**2 + tau * s.fp) * (s.fp**2 + tau * s.fp * s.fpp)
    return abs(lhs - ODE_CONSTANT) / ODE_CONSTANT


# ---------------------------------------------------------------------------
# Hessians and the volume-form constancy audit


def smoothed_normal_form_point(t: complex, tau: float) -> FiberPoint:
    """The rotation normal form on V_t at radius tau: all mass in z_1 (imaginary
    direction) and z_4 (real direction), rotated by half the phase of t."""
    t = complex(t)
    at = abs(t)
    if tau < at:
        raise ValueError("tau below the fiber's minimal radius")
    phase = cmath.exp(1j * cmath.phase(t) / 2) if t != 0 else 1.0
    z1 = 1j * math.sqrt((tau - at) / 2.0)
    z4 = math.sqrt((tau + at) / 2.0)
    return FiberPoint(phase * np.array([z1, 0.0, 0.0, z4]), t)


def cone_point(tau: float) -> FiberPoint:
    return smoothed_normal_form_point(0.0, tau)


def resolved_point_with_tau(a: float, tau: float, u=None) -> ResolvedPoint:
    """A point of the resolution with invariant tau over direction u
    (defaults to [1:0])."""
    if u is None:
        u = (1.0, 0.0)
    u = np.asarray(u, dtype=complex)
    u = u / np.max(np.abs(u))
    norm2 = float(np.sum(np.abs(u) ** 2))
    w1 = math.sqrt(tau / norm2)
    return ResolvedPoint(u, (w1, 0.0))


def hermitian_hessian(family: PotentialFamily, point) -> HermitianHessian:
    """Analytic complex Hessian of the Kaehler potential in the dominant chart.

    Smoothing / cone: the chart drops the coordinate of maximal modulus; the
    Hessian over the remaining three is f' M + f'' T T* with
    M = I + v v*/|z_c|^2 and T = conj(v) - (conj(z_c)/z_c) v.  The reference
    density is |2 z_c|^{-2}.

    Resolution: chart coordinates (affine direction u, fiber pair W); the
    potential is 4 a^2 log(1+|u|^2) + f(tau) with tau = (1+|u|^2) |W|^2.
    The chart volume form has constant coefficient, so the density is 1.
    """
    if family.kind in ("cone", "smoothed"):
        p: FiberPoint = point
        if not on_fiber(p, 1e-9) or p.t != family.t:
            raise ValueError("point does not lie on the family's fiber")
        chart = dominant_chart(p)
        order = [i for i in range(4) if i != chart - 1]
        v = p.z[order]
        zc = p.z[chart - 1]
        tau = p.norm_sq
        s = potential_value(family, tau)
        M = np.eye(3, dtype=complex) + np.outer(v, np.conj(v)) / abs(zc) ** 2
        T = np.conj(v) - (np.conj(zc) / zc) * v
        H = s.fp * M + s.fpp * np.outer(T, np.conj(T))
        return HermitianHessian(point=p, H=H, density=1.0 / abs(2 * zc) ** 2, chart=chart)

    q: ResolvedPoint = point
    chart = q.chart
    if chart == 1:
        scale = q.u[0]
        u = q.u[1] / q.u[0]
        W = q.w * scale
    else:
        scale = q.u[1]
        u = q.u[0] / q.u[1]
        W = q.w[::-1] * scale
    a = family.a
    rho = float(np.sum(np.abs(W) ** 2))
    one_u = 1.0 + abs(u) ** 2
    tau = one_u * rho
    s = potential_value(family, tau)
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
    H = 4.0 * a**2 * L_ab + s.fp * tau_ab + s.fpp * np.outer(grad, np.conj(grad))
    return HermitianHessian(point=q, H=H, density=1.0, chart=chart)


def _reference_point(family: PotentialFamily):
    if family.kind == "cone":
        return cone_point(1.0)
    if family.kind == "smoothed":
        return smoothed_normal_form_point(family.t, 2.0 * abs(family.t))
    return resolved_point_with_tau(family.a, 2.0 * family.a**3)


_MA_CALIBRATION: dict[tuple, float] = {}


def monge_ampere_calibration(family: PotentialFamily) -> float:
    """det(H)/density at the family's fixed reference point; cached.  The
    volume-form equation says this ratio is the same at every point."""
    key = (family.kind, family.t, family.a)
    if key not in _MA_CALIBRATION:
        hess = hermitian_hessian(family, _reference_point(family))
        _MA_CALIBRATION[key] = float(np.linalg.det(hess.H).real) / hess.density
    return _MA_CALIBRATION[key]


def monge_ampere_residual(family: PotentialFamily, point) -> float:
    """|det(H)/density / calibration - 1| at the point: the constancy of the
    volume-density ratio, which is the radial ODE certified through an
    independent code path (chart Hessians instead of the profile identity)."""
    hess = hermitian_hessian(family, point)
    if not hess.is_positive:
        raise ValueError("Hessian not positive definite; not a metric at this point")
    det = float(np.linalg.det(hess.H).real)
    return abs(det / hess.density / monge_ampere_calibration(family) - 1.0)


# ---------------------------------------------------------------------------
# asymptotics and potential-level continuity


@lru_cache(maxsize=None)
def smoothed_gauge_constant() -> float:
    """Additive constant of the unit-parameter smoothed profile relative to the
    cone profile: lim f_1(sigma) - (3/2) sigma^{2/3}.  The minimum-normalized
    potential does not approach the cone potential without this shift."""
    val, _ = _f1_smoothed(_SMOOTHED_GAUGE_ANCHOR)
    return val - 1.5 * _SMOOTHED_GAUGE_ANCHOR ** (2.0 / 3.0)


@lru_cache(maxsize=None)
def resolved_gauge_constant() -> float:
    """Additive constant of the unit-parameter resolved profile relative to
    (3/2) sigma^{2/3} - 2 log sigma."""
    val, _ = _f1_resolved(_RESOLVED_GAUGE_ANCHOR)
    return val - (
        1.5 * _RESOLVED_GAUGE_ANCHOR ** (2.0 / 3.0) - 2.0 * math.log(_RESOLVED_GAUGE_ANCHOR)
    )


def asymptotic_threshold(family: PotentialFamily) -> float:
    """Smallest tau where the large-tau expansion applies: ten parameter scales."""
    return 10.0 * family.scale


def asymptotic_deviation(
    family: PotentialFamily, tau: float, subtract_gauge: bool = False
) -> float:
    """f(tau) minus the family's leading large-tau terms.

    Leading terms: (3/2) tau^{2/3} for cone and smoothing;
    (3/2) tau^{2/3} - 2 a^2 log(a^{-3} tau) for the resolution.  With
    subtract_gauge the additive potential gauge is removed as well, so the
    result decays to zero at the rate the expansions predict.
    """
    tau = float(tau)
    threshold = asymptotic_threshold(family)
    if family.kind != "cone" and tau < threshold:
        raise ValueError(f"tau = {tau} below the asymptotic threshold {threshold}")
    if family.kind == "cone":
        return 0.0
    s = potential_value(family, tau)
    if family.kind == "smoothed":
        dev = s.f - 1.5 * tau ** (2.0 / 3.0)
        if subtract_gauge:
            dev -= abs(family.t) ** (2.0 / 3.0) * smoothed_gauge_constant()
        return dev
    a = family.a
    dev = s.f - (1.5 * tau ** (2.0 / 3.0) - 2.0 * a**2 * math.log(tau / a**3))
    if subtract_gauge:
        dev -= a**2 * resolved_gauge_constant()
    return dev


def potential_convergence_sup(
    kind: str,
    params,
    tau0: float = 1.0,
    tau1: float = 10.0,
    n_grid: int = 200,
) -> list[float]:
    """Sup over a log grid on [tau0, tau1] of |f_param - cone profile|, with the
    additive constant quotiented out by matching at tau0.  As the parameter
    tends to zero the sups must decrease to zero: the potential-level
    statement of metric continuity through the transition."""
    if kind not in ("smoothed", "resolved"):
        raise ValueError("convergence sweep needs kind 'smoothed' or 'resolved'")
    if not 0 < tau0 < tau1:
        raise ValueError("need 0 < tau0 < tau1")
    taus = np.logspace(math.log10(tau0), math.log10(tau1), n_grid)
    sups = []
    for param in params:
        family = (
            PotentialFamily.smoothed(param) if kind == "smoothed" else PotentialFamily.resolved(param)
        )
        devs = np.array(
            [potential_value(family, t).f - 1.5 * t ** (2.0 / 3.0) for t in taus]
        )
        devs -= devs[0]
        sups.append(float(np.max(np.abs(devs))))
    return sups
