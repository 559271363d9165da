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

A profile is evaluated on a whole tau grid at once (profile): f' and f''
from vectorised closed forms; f in closed form for the cone and the
resolution, f_1 = (3/2) gamma - 3 log(1 + gamma/6) at the cubic's root
gamma, and for the smoothing by composite Gauss-Legendre quadrature on
panels of unit width whose edges sit on a fixed lattice, so a sample's
value does not depend on the rest of the grid.  The residuals, chart
Hessians and deviations run on whole grids as well, as stacked arrays.  The
Monge-Ampere residual compares det(H)/density with its exact value
MONGE_AMPERE_CONSTANT, which the ODE fixes; nothing is measured at a
reference point.  The one-point functions (potential_value,
ode_residual, hermitian_hessian, monge_ampere_residual, asymptotic_deviation)
are one-element calls of those kernels that the package itself does not use.

Potentials are normalized to vanish at the domain minimum, so their large-tau
expansions approach the cone profile only up to a family-specific additive
constant (the potential gauge): SMOOTHED_GAUGE and RESOLVED_GAUGE at unit
parameter.  The deviation and convergence utilities quotient that constant
out; see asymptotic_deviations and potential_convergence_sup.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from conifold_lab.checks import InputError, require_within
from conifold_lab.conifold import CHART_COMPLEMENT, FiberPoint, _require, on_fiber

ODE_CONSTANT = 2.0 / 3.0

# det(H)/density of the chart Hessians for a profile that solves the ODE.
# With L(f) the ODE's left-hand side, det(H)/density = 4 L(f) in a fiber
# chart (density |2 z_c|^-2) and det(H)/density = L(f) on the resolution
# (density 1), identically in f' and f''.
MONGE_AMPERE_CONSTANT = {"cone": 4.0 * ODE_CONSTANT, "smoothed": 4.0 * ODE_CONSTANT, "resolved": ODE_CONSTANT}

QUAD_ERROR_BOUND = 1e-10  # potential evaluations must report better than this
_QUAD_RELATIVE_FLOOR = 1e-12  # attainable accuracy floor for values far above 1

# series gamma(tau)/tau = 1/sqrt(6) - tau/72 + 5 sqrt(6) tau^2 / 10368 - ...
_SERIES_CUTOFF = 1e-4

# Potential gauges at unit parameter: lim f_1(sigma) minus the leading terms.
# Smoothing: f_1 - (3/2) sigma^{2/3} = -3/2 + int_0^{arccosh sigma}
# (g(l)^{1/3} - sinh l cosh^{-1/3} l) dl, whose integrand decays like
# l e^{-4l/3}; the limit is that integral to infinity, by mpmath (100 digits,
# tanh-sinh and Gauss-Legendre agree), rounded to 17 significant digits.
# Resolution: gamma = sigma^{2/3} - 2 + 4 sigma^{-2/3} + ..., so
# f_1 - ((3/2) sigma^{2/3} - 2 log sigma) tends to 3 log 6 - 3 exactly.
SMOOTHED_GAUGE = -1.7097494676923459
RESOLVED_GAUGE = 3.0 * math.log(6.0) - 3.0

# Window for |t| and a, a few decades inside the tightest end that the
# largest powers allow on the default sweeps (tau up to 1e6 * max(scale, 1)):
# the resolved profile's sigma^2, sigma = tau / a^3, and its rescaling by
# a^-4 need a > 4e-24; the smoothed f'' takes sigma^3, sigma = tau / |t|
# (|t| > 2e-97); the chart Hessian tau^2 ~ a^6 (a < 1e49) and the smoothed
# ODE tau^2 (|t| < 1e148).
PARAMETER_MIN = 1e-20
PARAMETER_MAX = 1e20

# Window for tau in units of the family scale (tau itself for the cone,
# sigma = tau / |t| for the smoothing, sigma = tau / a^3 for the resolution),
# a few decades inside where the powers taken stay normal floats:
#   cone: the ODE's f'^2 f'' = -tau^-2 / 3 overflows below tau = 4.3e-155
#     and its tau^2 above 1.3e154;
#   smoothing: f'' takes mu^3 ~ sigma^3, which overflows above 5.6e102, and
#     sigma >= 1 is the domain (then tau <= 1e120, inside the cone's bounds);
#   resolution: the ODE at a = PARAMETER_MAX takes tau^2 f'^2 f'' ~
#     a^6 sigma^{4/3}, and tau = a^3 sigma leaves the normal floats below
#     sigma = 2.2e-248 at a = PARAMETER_MIN.
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
            raise InputError(f"the smoothing parameter t must be finite, got {self.t}", "t")
        if not math.isfinite(self.a):
            raise InputError(f"the resolution parameter a must be finite, got {self.a}", "a")
        if self.kind == "smoothed":
            require_within("the smoothing parameter |t|", abs(self.t), PARAMETER_MIN, PARAMETER_MAX, "t")
        if self.kind == "resolved":
            require_within("the resolution parameter a", self.a, PARAMETER_MIN, PARAMETER_MAX, "a")

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


@dataclass(frozen=True)
class PotentialProfile:
    """Radial profile on a tau grid: one array per PotentialSample field.
    Indexing gives the sample at one grid point."""

    tau: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    quad_error: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i: int) -> PotentialSample:
        return PotentialSample(
            tau=float(self.tau[i]),
            f=float(self.f[i]),
            fp=float(self.fp[i]),
            fpp=float(self.fpp[i]),
            quad_error=float(self.quad_error[i]),
        )

    def take(self, rows) -> "PotentialProfile":
        """The profile at some of its grid points (an index array or a mask)."""
        return PotentialProfile(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def of(cls, sample: PotentialSample) -> "PotentialProfile":
        """The one-point profile holding a sample."""
        return cls(*(np.array([getattr(sample, f.name)], dtype=float) for f in fields(sample)))


@dataclass
class HermitianHessian:
    """Complex Hessian of the potential in a chart, with the reference density."""

    point: object
    H: np.ndarray
    density: float
    chart: int


# ---------------------------------------------------------------------------
# resolved family: the cubic first integral


def _gamma_over_tau_series(tau: np.ndarray) -> np.ndarray:
    return 1.0 / math.sqrt(6.0) - tau / 72.0 + 5.0 * math.sqrt(6.0) * tau**2 / 10368.0


def _gamma_unit(tau: np.ndarray) -> np.ndarray:
    """Positive root of g^3 + 6 g^2 = tau^2, elementwise (tau >= 0).

    With g = y - 2 the cubic is y^3 - 12 y + 16 - tau^2 = 0, whose largest
    root is 4 cos(arccos(c) / 3) for c = tau^2/16 - 1 <= 1 (three real
    roots, tau^2 <= 32) and 4 cosh(arccosh(c) / 3) beyond the seam.  Two
    Newton steps absorb the cancellation in y - 2 at small tau; below the
    series cutoff the series is used instead.
    """
    tau = np.asarray(tau, dtype=float)
    g = tau * _gamma_over_tau_series(tau)
    big = tau >= _SERIES_CUTOFF
    tau2 = tau[big] ** 2
    c = tau2 / 16.0 - 1.0
    y = np.where(
        c <= 1.0,
        np.cos(np.arccos(np.minimum(c, 1.0)) / 3.0),
        np.cosh(np.arccosh(np.maximum(c, 1.0)) / 3.0),
    )
    root = 4.0 * y - 2.0
    for _ in range(2):
        root = root - (root * root * (root + 6.0) - tau2) / (root * (3.0 * root + 12.0))
    g[big] = root
    return g


def _resolved_derivatives(sigma: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_1' = gamma / sigma and f_1'' = -gamma^2 / ((3 gamma + 12) sigma^2),
    given gamma = _gamma_unit(sigma).

    The second form is (gamma' sigma - gamma) / sigma^2 rewritten with the
    cubic, which removes the cancellation between gamma' and gamma / sigma.
    """
    ratio = _gamma_over_tau_series(sigma)
    big = sigma >= _SERIES_CUTOFF
    ratio[big] = gamma[big] / sigma[big]
    return ratio, -(ratio * ratio) / (3.0 * gamma + 12.0)


# ---------------------------------------------------------------------------
# smoothed family: sigma = cosh(lambda), first integral
#   g = sigma mu - lambda = (sinh 2 lambda - 2 lambda) / 2,  mu = sinh(lambda),
# f_1' = g^{1/3} / mu and f_1'' = (2/3) g^{-2/3} - sigma g^{1/3} / mu^3.
# Below lambda = 1 both cancel; there g = lambda^3 G(lambda^2) and
#   (2/3) mu^3 - sigma g = -sinh(3 lambda)/12 - (3/4) sinh(lambda)
#                          + lambda cosh(lambda) = lambda^5 E(lambda^2)
# by their Taylor series (the first two odd coefficients of the latter
# vanish), so f_1'' = E (lambda/mu)^3 / G^{2/3} -> -(2/3)^{1/3}/5 at sigma = 1.

_SERIES_LAMBDA = 1.0
_G_SERIES = tuple(4.0**k / math.factorial(2 * k + 1) for k in range(1, 13))
_E_SERIES = tuple(
    (2.0 * k + 0.25 - 9.0**k / 4.0) / math.factorial(2 * k + 1) for k in range(2, 16)
)


def _power_series(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    total = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        total = total * x + c
    return total


def _smoothed_lambda(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, mu) = (arccosh sigma, sinh lambda), accurate near sigma = 1."""
    mu = np.sqrt((sigma - 1.0) * (sigma + 1.0))
    return np.log1p(sigma - 1.0 + mu), mu


def _smoothed_integrand(lam: np.ndarray) -> np.ndarray:
    """g(lambda)^{1/3}, so that f_1(sigma) = int_0^{arccosh sigma} g^{1/3}."""
    near = lam * np.cbrt(_power_series(_G_SERIES, np.minimum(lam, _SERIES_LAMBDA) ** 2))
    far = np.cbrt(0.5 * np.sinh(2.0 * lam) - lam)
    return np.where(lam < _SERIES_LAMBDA, near, far)


def _smoothed_derivatives(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_1', f_1'') of the unit smoothing, finite at sigma = 1."""
    lam, mu = _smoothed_lambda(sigma)
    fp = np.empty_like(sigma)
    fpp = np.empty_like(sigma)
    near = lam < _SERIES_LAMBDA
    l2 = lam[near] ** 2
    ratio = np.divide(lam[near], mu[near], out=np.ones_like(l2), where=mu[near] > 0.0)
    root = np.cbrt(_power_series(_G_SERIES, l2))
    fp[near] = root * ratio
    fpp[near] = _power_series(_E_SERIES, l2) * ratio**3 / root**2
    far = ~near
    s, m = sigma[far], mu[far]
    root = np.cbrt(s * m - lam[far])
    fp[far] = root / m
    fpp[far] = (2.0 / 3.0) / root**2 - s * root / m**3
    return fp, fpp


# ---------------------------------------------------------------------------
# composite Gauss-Legendre over a fixed panel lattice
#
# The smoothing's f_1(sigma) = int_0^{arccosh sigma} g(l)^{1/3} dl has no
# closed form.  Panel edges are the integers; the cumulative integrals over
# whole panels are tabulated once, and each sample adds its last, partial
# panel.  Every panel also gets a lower-order rule: |main - check| plus a
# rounding allowance of 50 eps |main| (QUADPACK's) is the panel's error
# estimate.

_RULE = np.polynomial.legendre.leggauss(20)
_CHECK_RULE = np.polynomial.legendre.leggauss(10)
_ROUNDING = 50.0 * np.finfo(float).eps


def _panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Main-rule integrals over [lo, hi] and their error estimates.  The
    weighted sums run node by node, so each panel's bits depend on its own
    ends only."""
    mid = (0.5 * (lo + hi))[:, None]
    half = 0.5 * (hi - lo)

    def rule(nodes, weights):
        values = _smoothed_integrand(mid + half[:, None] * nodes)
        total = weights[0] * values[:, 0]
        for j in range(1, len(weights)):
            total = total + weights[j] * values[:, j]
        return half * total

    main = rule(*_RULE)
    return main, np.abs(main - rule(*_CHECK_RULE)) + _ROUNDING * np.abs(main)


@lru_cache(maxsize=None)
def _lattice() -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integrals and error estimates over the unit panels from
    0 to the top of the smoothing's tau window."""
    top = float(_smoothed_lambda(np.array([TAU_WINDOW["smoothed"][1]]))[0][0])
    edges = np.arange(math.ceil(top) + 1, dtype=float)
    main, err = _panels(edges[:-1], edges[1:])
    return np.concatenate(([0.0], np.cumsum(main))), np.concatenate(([0.0], np.cumsum(err)))


def _lattice_integral(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_1(sigma) of the smoothing and its error estimate: whole lattice
    panels from the table, then one partial panel."""
    cum, cum_err = _lattice()
    x = _smoothed_lambda(sigma)[0]
    k = np.clip(np.floor(x).astype(int), 0, len(cum) - 2)
    part, part_err = _panels(k, x)
    return cum[k] + part, cum_err[k] + part_err


# ---------------------------------------------------------------------------
# unified profile evaluation


def profile(family: PotentialFamily, taus) -> PotentialProfile:
    """(f, f', f'', quad_error) of the family's radial potential on a tau grid.

    f comes from closed forms, except on the smoothing, where it comes from
    the lattice quadrature (each sample's reported error must beat
    max(1e-10, 1e-12 |f|)); quad_error is zero elsewhere.  f' and f'' come
    from the closed forms, so residual tests do not inherit quadrature
    error.  Sample i does not depend on the other taus.  Raises on domain
    violations.
    """
    tau = np.array(taus, dtype=float).reshape(-1)
    _require(~np.isfinite(tau), lambda i: "taus must be finite")
    if family.kind == "cone":
        _require(tau <= 0, lambda i: "cone profile derivatives need tau > 0")
        return PotentialProfile(
            tau=tau,
            f=1.5 * tau ** (2.0 / 3.0),
            fp=tau ** (-1.0 / 3.0),
            fpp=-(tau ** (-4.0 / 3.0)) / 3.0,
            quad_error=np.zeros_like(tau),
        )
    if family.kind == "smoothed":
        at = abs(family.t)
        _require(tau < at, lambda i: f"tau = {float(tau[i])} below the smoothed domain minimum |t| = {at}")
        sigma = tau / at
        val, err = _lattice_integral(sigma)
        scale = at ** (2.0 / 3.0)
        f, err = scale * val, scale * err
        bound = np.maximum(QUAD_ERROR_BOUND, _QUAD_RELATIVE_FLOOR * np.abs(f))
        _require(~(err <= bound), lambda i: f"quadrature error {err[i]:.2e} exceeds {bound[i]:.2e}")
        fp, fpp = _smoothed_derivatives(sigma)
        return PotentialProfile(
            tau=tau, f=f, fp=at ** (-1.0 / 3.0) * fp, fpp=at ** (-4.0 / 3.0) * fpp, quad_error=err
        )
    # resolved
    a = family.a
    _require(tau < 0, lambda i: "resolved profile needs tau >= 0")
    sigma = tau / a**3
    gamma = _gamma_unit(sigma)
    f = a**2 * (1.5 * gamma - 3.0 * np.log1p(gamma / 6.0))
    fp, fpp = _resolved_derivatives(sigma, gamma)
    return PotentialProfile(tau=tau, f=f, fp=fp / a, fpp=fpp / a**4, quad_error=np.zeros_like(tau))


def potential_value(family: PotentialFamily, tau: float) -> PotentialSample:
    """(f, f', f'') of the family's radial potential at one tau: a
    one-element profile."""
    return profile(family, [tau])[0]


# ---------------------------------------------------------------------------
# stacked per-row checks
#
# The kernels below evaluate every row of a grid at once and validate where
# they compute: each check, taken in the order it is written, raises at the
# first row that fails it (conifold._require).


def positivity_margins(family: PotentialFamily, prof: PotentialProfile) -> tuple[np.ndarray, np.ndarray]:
    """The two positivity combinations, per grid point, whose strict
    positivity makes the radial ansatz an actual metric; both must be > 0.

    For cone/smoothing the second margin is the normal-form Hessian
    eigenvalue 2 (tau - |t|) f'' + 2 tau/(|t| + tau) f' (the remaining two
    eigenvalues are f').  For the resolution it is f' + tau f'', the slope
    of tau f'."""
    tau, fp, fpp = prof.tau, prof.fp, prof.fpp
    if family.kind == "resolved":
        return fp, fp + tau * fpp
    at = abs(family.t)
    return fp, 2.0 * (tau - at) * fpp + 2.0 * tau / (at + tau) * fp


def ode_residuals(family: PotentialFamily, prof: PotentialProfile) -> np.ndarray:
    """Relative residual |LHS - c| / c of the family's radial ODE at each
    grid point, built from the closed-form derivatives.  Raises if the
    positivity conditions fail (the profile would not define a metric
    there)."""
    tau, fp, fpp = prof.tau, prof.fp, prof.fpp
    m1, m2 = positivity_margins(family, prof)
    bad = ~((m1 > 0) & (m2 > 0))
    _require(bad, lambda i: f"positivity violated at tau={float(tau[i])}: margins {m1[i]:.3e}, {m2[i]:.3e}")
    if family.kind == "resolved":
        lhs = (4.0 * family.a**2 + tau * fp) * (fp**2 + tau * fp * fpp)
    else:
        at = abs(family.t)
        lhs = fp**3 * tau + fp**2 * fpp * (tau**2 - at**2)
    return np.abs(lhs - ODE_CONSTANT) / ODE_CONSTANT


def ode_residual(family: PotentialFamily, sample: PotentialSample) -> float:
    """ode_residuals at one sample."""
    return float(ode_residuals(family, PotentialProfile.of(sample))[0])


# ---------------------------------------------------------------------------
# Hessians and the volume-form constancy audit
#
# Points are stacks: on a fiber, a conifold.FiberPoint whose z has shape
# (N, 4), with the one t of its fiber; on the resolution, a pair (u, w) of
# arrays of shape (N, 2) holding the direction [U1:U2] and the fiber pair.


def smoothed_normal_form_points(t: complex, taus) -> FiberPoint:
    """The rotation normal form on V_t at each radius tau: all mass in z_1
    (imaginary direction) and z_4 (real direction), rotated by half the
    phase of t."""
    t = complex(t)
    at = abs(t)
    tau = np.array(taus, dtype=float).reshape(-1)
    _require(tau < at, lambda i: "tau below the fiber's minimal radius")
    phase = cmath.exp(1j * cmath.phase(t) / 2) if t != 0 else 1.0
    z = np.zeros((len(tau), 4), dtype=complex)
    z[:, 0] = 1j * np.sqrt((tau - at) / 2.0)
    z[:, 3] = np.sqrt((tau + at) / 2.0)
    return FiberPoint(phase * z, t)


def resolved_points_with_tau(taus) -> tuple[np.ndarray, np.ndarray]:
    """Points of the resolution with invariants tau over the direction [1:0]."""
    tau = np.array(taus, dtype=float).reshape(-1)
    w = np.zeros((len(tau), 2), dtype=complex)
    w[:, 0] = np.sqrt(tau)
    return np.tile(np.array([1.0, 0.0], dtype=complex), (len(tau), 1)), w


def _stacked(point):
    """One FiberPoint, or one point of the resolution (its u and w pairs), as
    a one-point stack."""
    if isinstance(point, FiberPoint):
        return FiberPoint(point.z[None], point.t)
    return point.u[None], point.w[None]


def _resolved_chart(u: np.ndarray, w: np.ndarray):
    """Per row: the dominant direction chart (1 or 2), the affine direction
    in it, the fiber pair W, |W|^2 and 1 + |u|^2."""
    if np.ndim(u) != 2:
        raise ValueError(f"expected a stack, a (u, w) pair of arrays of shape (N, 2), got u of shape {np.shape(u)}; "
                         "hermitian_hessian and monge_ampere_residual take one point")
    first = np.abs(u[:, 0]) >= np.abs(u[:, 1])
    lead = np.where(first, u[:, 0], u[:, 1])
    ua = np.where(first, u[:, 1], u[:, 0]) / lead
    W = np.where(first[:, None], w, w[:, ::-1]) * lead[:, None]
    rho = np.sum(np.abs(W) ** 2, axis=1)
    return np.where(first, 1, 2), ua, W, rho, 1.0 + np.abs(ua) ** 2


def point_taus(points) -> np.ndarray:
    """The radial invariant tau of stacked points: FiberPoint.norm_sq on a
    fiber, (1 + |u|^2) |W|^2 in the dominant chart of the resolution."""
    if isinstance(points, FiberPoint):
        return points.norm_sq
    _, _, _, rho, one_u = _resolved_chart(*points)
    return one_u * rho


def _check_tau(prof: PotentialProfile, tau: np.ndarray) -> None:
    if len(prof) != len(tau):
        raise ValueError(f"{len(prof)} profile samples for {len(tau)} points")
    # a grid point and the point built from it agree to a few ulps
    _require(
        ~(np.abs(prof.tau - tau) <= 1e-13 * tau),
        lambda i: f"the profile sample at tau = {float(prof.tau[i])!r} is not at the point's tau = {float(tau[i])!r}",
    )


def _outer(x: np.ndarray) -> np.ndarray:
    return x[:, :, None] * np.conj(x)[:, None, :]


def _fiber_hessians(family: PotentialFamily, p: FiberPoint, prof: PotentialProfile):
    if p.z.ndim != 2:
        raise ValueError(f"expected a stack, a FiberPoint whose z has shape (N, 4), got z of shape {p.z.shape}; "
                         "hermitian_hessian and monge_ampere_residual take one point")
    _require(~(on_fiber(p, 1e-9) & (p.t == family.t)), lambda i: "point does not lie on the family's fiber")
    _check_tau(prof, p.norm_sq)
    z = p.z
    rows = np.arange(len(z))
    chart = np.argmax(np.abs(z), axis=1)
    v = z[rows[:, None], CHART_COMPLEMENT[chart]]
    zc = z[rows, chart]
    zc = np.where(zc == 0, 1.0, zc)  # z = 0 passes the checks only at a tau = 0 sample; keep it finite
    M = np.eye(3, dtype=complex) + _outer(v) / (np.abs(zc) ** 2)[:, None, None]
    T = np.conj(v) - (np.conj(zc) / zc)[:, None] * v
    H = prof.fp[:, None, None] * M + prof.fpp[:, None, None] * _outer(T)
    return H, 1.0 / np.abs(2 * zc) ** 2, chart + 1


def _resolved_hessians(family: PotentialFamily, u: np.ndarray, w: np.ndarray, prof: PotentialProfile):
    chart, ua, W, rho, one_u = _resolved_chart(u, w)
    _check_tau(prof, one_u * rho)
    cu = np.conj(ua)
    grad = np.stack([cu * rho, one_u * np.conj(W[:, 0]), one_u * np.conj(W[:, 1])], axis=1)
    tau_ab = np.zeros((len(u), 3, 3), dtype=complex)
    tau_ab[:, 0] = np.stack([rho, cu * W[:, 0], cu * W[:, 1]], axis=1)
    tau_ab[:, 1:, 0] = ua[:, None] * np.conj(W)
    tau_ab[:, 1, 1] = tau_ab[:, 2, 2] = one_u
    L_ab = np.zeros_like(tau_ab)
    L_ab[:, 0, 0] = 1.0 / one_u**2
    H = 4.0 * family.a**2 * L_ab + prof.fp[:, None, None] * tau_ab + prof.fpp[:, None, None] * _outer(grad)
    return H, np.ones(len(u)), chart


def chart_hessians(family: PotentialFamily, points, prof: PotentialProfile):
    """Analytic complex Hessians of the Kaehler potential in the dominant
    chart of each point, from the profile sampled at the points' taus:
    (H of shape (N, 3, 3), reference densities, charts).

    Smoothing / cone: a FiberPoint stack (N, 4) with the family's t, every
    point on that fiber (conifold.on_fiber at 1e-9).  The chart drops the
    coordinate of maximal modulus (lowest index on ties); the Hessian over
    the remaining three is f' M + f'' T T* with M = I + v v*/|z_c|^2 and
    T = conj(v) - (conj(z_c)/z_c) v.  The reference density is |2 z_c|^{-2}.

    Resolution: a (u, w) pair of (N, 2) arrays, read in the chart (affine
    direction u, fiber pair W) of the larger homogeneous coordinate; the
    potential is 4 a^2 log(1+|u|^2) + f(tau) with tau = (1+|u|^2) |W|^2.
    The chart volume form has constant coefficient, so the density is 1.

    There must be one sample per point, at its point's tau to 1e-13 relative.
    """
    if family.kind == "resolved":
        return _resolved_hessians(family, *points, prof)
    return _fiber_hessians(family, points, prof)


def hermitian_hessian(family: PotentialFamily, point, sample: PotentialSample) -> HermitianHessian:
    """chart_hessians at one point."""
    H, density, chart = chart_hessians(family, _stacked(point), PotentialProfile.of(sample))
    return HermitianHessian(point=point, H=H[0], density=float(density[0]), chart=int(chart[0]))


def monge_ampere_residuals(family: PotentialFamily, points, prof: PotentialProfile) -> np.ndarray:
    """|det(H)/density / MONGE_AMPERE_CONSTANT - 1| at each point, given the
    profile sampled at the points' taus: the volume-form equation
    det(g) = const |Omega|^2 against its exact constant, which is the radial
    ODE certified through an independent code path (chart Hessians instead
    of the profile identity).  Every Hessian must be positive definite."""
    H, density, _ = chart_hessians(family, points, prof)
    bad = ~np.all(np.linalg.eigvalsh(H) > 0, axis=1)
    _require(bad, lambda i: "Hessian not positive definite; not a metric at this point")
    det = np.linalg.det(H).real
    return np.abs(det / density / MONGE_AMPERE_CONSTANT[family.kind] - 1.0)


def monge_ampere_residual(family: PotentialFamily, point, sample: PotentialSample) -> float:
    """monge_ampere_residuals at one point."""
    return float(monge_ampere_residuals(family, _stacked(point), PotentialProfile.of(sample))[0])


# ---------------------------------------------------------------------------
# asymptotics and potential-level continuity


def asymptotic_threshold(family: PotentialFamily) -> float:
    """Smallest tau where the large-tau expansion applies: ten parameter scales."""
    return 10.0 * family.scale


def asymptotic_deviations(family: PotentialFamily, prof: PotentialProfile) -> np.ndarray:
    """f(tau) minus the family's leading large-tau terms and its potential
    gauge, at each grid point: the result decays to zero at the rate the
    expansions predict.

    Leading terms: (3/2) tau^{2/3} for cone and smoothing;
    (3/2) tau^{2/3} - 2 a^2 log(a^{-3} tau) for the resolution.  Every tau
    must reach the asymptotic threshold.
    """
    tau, f = prof.tau, prof.f
    if family.kind == "cone":
        return np.zeros_like(tau)
    threshold = asymptotic_threshold(family)
    _require(tau < threshold, lambda i: f"tau = {float(tau[i])} below the asymptotic threshold {threshold}")
    if family.kind == "smoothed":
        return f - 1.5 * tau ** (2.0 / 3.0) - abs(family.t) ** (2.0 / 3.0) * SMOOTHED_GAUGE
    a = family.a
    return f - (1.5 * tau ** (2.0 / 3.0) - 2.0 * a**2 * np.log(tau / a**3)) - a**2 * RESOLVED_GAUGE


def asymptotic_deviation(family: PotentialFamily, sample: PotentialSample) -> float:
    """asymptotic_deviations at one sample."""
    return float(asymptotic_deviations(family, PotentialProfile.of(sample))[0])


def potential_convergence_sup(families, tau0: float, tau1: float, n_grid: int) -> list[float]:
    """Sup over a log grid on [tau0, tau1] of |f - cone profile| for each
    family, with the additive constant quotiented out by matching at tau0.
    As the parameter tends to zero the sups must decrease to zero: the
    potential-level statement of metric continuity through the transition."""
    if not 0 < tau0 < tau1:
        raise ValueError("need 0 < tau0 < tau1")
    taus = np.logspace(math.log10(tau0), math.log10(tau1), n_grid)
    cone = 1.5 * taus ** (2.0 / 3.0)
    sups = []
    for family in families:
        devs = profile(family, taus).f - cone
        devs -= devs[0]
        sups.append(float(np.max(np.abs(devs))))
    return sups
