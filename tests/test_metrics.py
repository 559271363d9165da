import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conifold_lab import metrics
from conifold_lab.acceptance import sample_fiber_points, sample_resolved_points
from conifold_lab.conifold import FiberPoint
from conifold_lab.metrics import (
    MONGE_AMPERE_CONSTANT,
    ODE_CONSTANT,
    PARAMETER_MAX,
    PARAMETER_MIN,
    RESOLVED_GAUGE,
    SMOOTHED_GAUGE,
    TAU_WINDOW,
    PotentialFamily,
    asymptotic_deviation,
    asymptotic_deviations,
    chart_hessians,
    hermitian_hessian,
    monge_ampere_residual,
    monge_ampere_residuals,
    ode_residual,
    ode_residuals,
    positivity_margins,
    point_taus,
    profile,
    potential_convergence_sup,
    potential_value,
    resolved_points_with_tau,
    smoothed_normal_form_points,
    _smoothed_derivatives,
)
from reference import (
    ResolvedPoint,
    asymptotic_deviation_per_point,
    cone_point,
    f1_resolved_quad,
    f1_smoothed_quad,
    gamma_resolved_root,
    hessian_per_point,
    monge_ampere_residual_per_point,
    ode_residual_per_point,
    point_tau,
    resolved_point_with_tau,
    sample_fiber_points_per_point,
    sample_resolved_points_per_point,
    smoothed_normal_form_point,
)

CONE = PotentialFamily.cone()
SMOOTHED = PotentialFamily.smoothed(1.0)
RESOLVED = PotentialFamily.resolved(1.0)


def _ode(family, tau):
    return ode_residual(family, potential_value(family, tau))


def _hessian(family, point):
    return hermitian_hessian(family, point, potential_value(family, point_tau(point)))


def _ma(family, point):
    return monge_ampere_residual(family, point, potential_value(family, point_tau(point)))


def _deviation(family, tau):
    return asymptotic_deviation(family, potential_value(family, tau))


def gamma_resolved(tau: float, a: float = 1.0) -> float:
    """tau f'(tau) for the resolved family, gamma^3 + 6 a^2 gamma^2 = tau^2:
    the package's unit cubic root, rescaled by gamma_a(tau) = a^2 gamma_1(tau/a^3)."""
    if not a > 0:
        raise ValueError("a must be positive")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return a**2 * float(metrics._gamma_unit(np.array([tau / a**3]))[0])


class TestGammaResolved:
    def test_vanishes_at_zero(self):
        assert gamma_resolved(0.0) == 0.0

    def test_cubic_residual_sweep(self):
        taus = np.logspace(-3, 6, 200)
        for tau in taus:
            g = gamma_resolved(float(tau))
            assert abs(g**3 + 6 * g**2 - tau**2) < 1e-10 * (1 + tau**2)
            assert g >= 0.0

    def test_branch_seam(self):
        # both branch regimes near tau^2 = 32 agree with the root-finder to
        # machine level, so the two formulas glue continuously
        seam = math.sqrt(32.0)
        for tau in (math.sqrt(32.0 - 1e-6), math.sqrt(32.0 + 1e-6)):
            assert abs(gamma_resolved(tau) - gamma_resolved_root(tau)) < 1e-12
        left = gamma_resolved(math.sqrt(32.0 - 1e-6))
        right = gamma_resolved(math.sqrt(32.0 + 1e-6))
        slope = 2 * seam / (3 * 4 + 12 * 2)
        gap = (math.sqrt(32.0 + 1e-6) - math.sqrt(32.0 - 1e-6)) * slope
        assert abs(right - left - gap) < 1e-9
        assert abs(gamma_resolved(seam) - 2.0) < 1e-12

    def test_large_tau_dominant_balance(self):
        tau = 1e6
        g = gamma_resolved(tau)
        assert 0.99 < g / tau ** (2.0 / 3.0) < 1.01
        assert abs(g - gamma_resolved_root(tau)) < 1e-8 * g

    def test_root_oracle_agreement(self):
        rng = np.random.default_rng(0)
        for tau in 10.0 ** rng.uniform(-6, 6, 100):
            a = gamma_resolved(float(tau))
            b = gamma_resolved_root(float(tau))
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1e6, 1000)
        vals = [gamma_resolved(float(t)) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_general_parameter_rescaling(self):
        # gamma_a solves gamma^3 + 6 a^2 gamma^2 = tau^2
        for a in (0.5, 2.0):
            for tau in (0.1, 3.0, 50.0):
                g = gamma_resolved(tau, a)
                assert abs(g**3 + 6 * a**2 * g**2 - tau**2) < 1e-9 * (1 + tau**2)
                assert abs(g - gamma_resolved_root(tau, a)) < 1e-10 * max(1.0, g)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_resolved(-1.0)
        with pytest.raises(ValueError):
            gamma_resolved(1.0, a=0.0)


class TestPotentialValue:
    def test_cone_profile(self):
        s = potential_value(CONE, 1.0)
        assert s.f == pytest.approx(1.5)
        assert s.fp == pytest.approx(1.0)
        assert s.fpp == pytest.approx(-1.0 / 3.0)

    def test_smoothed_vanishes_at_domain_minimum(self):
        s = potential_value(SMOOTHED, 1.0)
        assert s.f == 0.0

    def test_resolved_slope_limit(self):
        s = potential_value(RESOLVED, 1e-8)
        assert abs(s.fp - 1 / math.sqrt(6)) < 1e-6

    def test_smoothed_domain_error(self):
        with pytest.raises(ValueError):
            potential_value(SMOOTHED, 0.5)

    def test_resolved_domain_error(self):
        with pytest.raises(ValueError):
            potential_value(RESOLVED, -0.1)

    def test_quadrature_tolerance_refinement(self):
        # the same rule on panels of half the width moves the smoothed f by
        # less than the reported error bound
        for tau in (1.5, 7.0, 300.0, 1e9):
            sample = potential_value(SMOOTHED, tau)
            x = float(metrics._smoothed_lambda(np.array([tau]))[0][0])
            edges = np.append(np.arange(0.0, x, 0.5), x)
            halved, _ = metrics._panels(edges[:-1], edges[1:])
            assert np.max(np.diff(edges)) <= 0.5
            assert abs(math.fsum(halved) - sample.f) <= sample.quad_error

    def test_smoothed_rescaling_identity(self):
        # profile at parameter t is the unit profile scaled by |t|^{2/3} in
        # value and |t| in radius; checked at 20 radii for |t| in {1/2, 2}
        for at in (0.5, 2.0):
            family = PotentialFamily.smoothed(at)
            for sigma in np.linspace(1.2, 40.0, 20):
                tau = at * sigma
                s = potential_value(family, tau)
                f1, _ = f1_smoothed_quad(float(sigma))
                assert abs(s.f - at ** (2.0 / 3.0) * f1) < 1e-9 * max(1.0, abs(s.f))

    @pytest.mark.parametrize(
        "family,taus",
        [(SMOOTHED, (1.5, 3.0, 40.0)), (RESOLVED, (0.2, 2.0, 60.0)), (CONE, (0.5, 7.0))],
        ids=("smoothed", "resolved", "cone"),
    )
    def test_quadrature_matches_closed_form_derivative(self, family, taus):
        # ties the integral profile to the closed-form slope: a wrong
        # integrand, limit or prefactor would break this immediately
        for tau in taus:
            h = 1e-4 * tau
            stencil = (
                -potential_value(family, tau + 2 * h).f
                + 8 * potential_value(family, tau + h).f
                - 8 * potential_value(family, tau - h).f
                + potential_value(family, tau - 2 * h).f
            ) / (12 * h)
            fp = potential_value(family, tau).fp
            assert abs(stencil - fp) < 1e-7 * max(1.0, abs(fp))

    def test_positivity_margins_along_families(self):
        for family, taus in (
            (CONE, np.logspace(-2, 4, 40)),
            (SMOOTHED, np.logspace(math.log10(1.01), 4, 40)),
            (RESOLVED, np.logspace(-3, 4, 40)),
        ):
            m1, m2 = positivity_margins(family, profile(family, taus))
            assert np.all(m1 > 0) and np.all(m2 > 0)


@functools.lru_cache(maxsize=None)
def _unit_oracle(kind: str, sigma: float) -> tuple[float, float]:
    return f1_smoothed_quad(sigma) if kind == "smoothed" else f1_resolved_quad(sigma)


def _mp_unit_derivatives(kind: str, sigma: float):
    """(f_1', f_1'') at 80 digits: the smoothed closed forms (their limit at
    sigma = 1), the resolved root by mpmath's root-finder and
    f_1'' = (gamma' sigma - gamma) / sigma^2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        s = mp.mpf(sigma)
        if kind == "smoothed":
            if s == 1:
                limit = mp.cbrt(mp.mpf(2) / 3)
                return limit, -limit / 5
            mu = mp.sqrt(s * s - 1)
            g = s * mu - mp.acosh(s)
            return mp.cbrt(g) / mu, mp.mpf(2) / 3 / mp.cbrt(g) ** 2 - s * mp.cbrt(g) / mu**3
        start = s ** (mp.mpf(2) / 3) if s > 1 else s / mp.sqrt(6)
        g = mp.findroot(lambda x: x**3 + 6 * x**2 - s * s, start)
        slope = 2 * s / (3 * g * g + 12 * g)
        return g / s, (slope * s - g) / s**2


def _mp_resolved_f1(sigma: float):
    """f_1(sigma) = (3/2) gamma - 3 log(1 + gamma/6) at 40 digits, the root of
    gamma^3 + 6 gamma^2 = sigma^2 by Newton's method on its logarithm."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = mp.mpf(sigma)
        g = s ** (mp.mpf(2) / 3) if s > 1 else s / mp.sqrt(6)
        for _ in range(100):
            step = (2 * mp.log(g) + mp.log(g + 6) - 2 * mp.log(s)) / (2 / g + 1 / (g + 6))
            g -= step
            if abs(step) < g * mp.mpf(10) ** -35:
                return mp.mpf(3) / 2 * g - 3 * mp.log1p(g / 6)
    raise AssertionError(f"no root at sigma = {sigma}")


def _family(kind: str, param: float) -> PotentialFamily:
    return PotentialFamily.smoothed(param) if kind == "smoothed" else PotentialFamily.resolved(param)


class TestBatchedProfile:
    @pytest.mark.parametrize("param", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("kind", ["smoothed", "resolved"])
    def test_f_matches_scipy_oracle(self, kind, param):
        """Batch f against adaptive scipy quadrature of the scalar integrands,
        within the oracle's reported error + 1e-13 |f|, for tau / scale in
        [1e-8, 1e10] (the smoothing from its domain minimum 1)."""
        family = _family(kind, param)
        if kind == "smoothed":
            sigmas = np.concatenate(([1.0, 1 + 1e-12, 1 + 1e-8, 1 + 1e-6, 1.001], np.logspace(0.01, 10, 30)))
            weight = param ** (2.0 / 3.0)
        else:
            sigmas = np.concatenate(([0.0, 1e-9], np.logspace(-8, 10, 37)))
            weight = param**2
        scale = family.scale
        for sample in profile(family, sigmas * scale):
            ref, err = _unit_oracle(kind, sample.tau / scale)
            assert abs(sample.f - weight * ref) <= weight * err + 1e-13 * abs(weight * ref)

    @pytest.mark.parametrize(
        "kind,sigmas",
        [
            ("smoothed", np.concatenate(([1.0, 1 + 2**-52, 1 + 1e-12, 1 + 1e-10, 1 + 1e-8], np.linspace(1, 1.01, 40)))),
            ("resolved", np.concatenate((np.logspace(-6, 6, 97), [1e-4 * (1 - 1e-15), 1e-4, math.sqrt(32.0)]))),
        ],
        ids=["smoothed", "resolved"],
    )
    def test_derivatives_match_mpmath(self, kind, sigmas):
        prof = profile(_family(kind, 1.0), sigmas)
        for sample in prof:
            fp, fpp = _mp_unit_derivatives(kind, sample.tau)
            assert abs(sample.fp - fp) <= 1e-13 * abs(fp)
            assert abs(sample.fpp - fpp) <= 1e-13 * abs(fpp)

    def test_resolved_f_matches_mpmath_across_the_window(self):
        """The closed form f_1 = (3/2) gamma - 3 log1p(gamma/6) is within
        4 eps of the 40-digit value on the whole resolved window."""
        lo, hi = TAU_WINDOW["resolved"]
        sigmas = np.logspace(math.log10(lo), math.log10(hi), 316)
        for sigma, f in zip(sigmas, profile(RESOLVED, sigmas).f):
            exact = _mp_resolved_f1(float(sigma))
            assert abs(f - float(exact)) <= 4 * np.finfo(float).eps * float(exact)

    @given(st.floats(-20.0, 20.0), st.floats(-240.0, 75.0))
    @settings(deadline=None)
    def test_resolved_f_matches_scipy_oracle_at_every_scale(self, log_a, log_sigma):
        """Closed-form f against the adaptive scipy quadrature of f_1, for a
        in [1e-20, 1e20] and tau / a^3 across the resolved window."""
        a = 10.0**log_a
        sigma = min(max(10.0**log_sigma, TAU_WINDOW["resolved"][0]), TAU_WINDOW["resolved"][1])
        family = PotentialFamily.resolved(a)
        sample = profile(family, [sigma * family.scale])[0]
        assert sample.quad_error == 0.0
        ref, err = f1_resolved_quad(sample.tau / family.scale)
        assert abs(sample.f - a**2 * ref) <= a**2 * err + 1e-13 * abs(a**2 * ref)

    def test_smoothed_second_derivative_limit(self):
        # f'' is finite at the domain minimum, f_1''(1) = -(2/3)^{1/3}/5
        at = 2.5
        sample = potential_value(PotentialFamily.smoothed(at), at)
        limit = -((2.0 / 3.0) ** (1.0 / 3.0)) / 5.0
        assert abs(sample.fpp * at ** (4.0 / 3.0) - limit) <= 1e-15 * abs(limit)
        assert sample.f == 0.0

    @pytest.mark.parametrize(
        "family",
        [CONE, PotentialFamily.smoothed(0.37 - 2j), PotentialFamily.resolved(2.3)],
        ids=["cone", "smoothed", "resolved"],
    )
    def test_sample_does_not_depend_on_the_batch(self, family):
        rng = np.random.default_rng(6)
        lo, hi = family.tau_window()
        lo, hi = math.log10(lo), min(math.log10(hi), math.log10(max(family.scale, 1.0)) + 30)
        for n in (1, 2, 7, 8, 9, 17, 64, 129):
            taus = np.sort(10.0 ** rng.uniform(lo, hi, n))
            if family.kind == "smoothed":
                taus[0] = family.scale
            batch = profile(family, taus)
            shuffled = rng.permutation(n)
            other = profile(family, taus[shuffled])
            for i in range(n):
                assert batch[i] == profile(family, [taus[i]])[0]
                assert other[i] == batch[shuffled[i]]

    def test_window_ends_are_finite_and_certified(self):
        for family in (CONE, SMOOTHED, RESOLVED, PotentialFamily.smoothed(1e-20j), PotentialFamily.resolved(1e20)):
            prof = profile(family, family.tau_window())
            for sample in prof:
                assert all(math.isfinite(x) for x in (sample.f, sample.fp, sample.fpp, sample.quad_error))
                assert ode_residual(family, sample) < 1e-8

    def test_rejects_non_finite_taus(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="taus must be finite"):
                profile(RESOLVED, [1.0, bad])

    @given(
        st.sampled_from(["smoothed", "resolved"]),
        st.floats(-8.0, 8.0),
        st.floats(-6.0, 6.0),
    )
    @settings(deadline=None)
    def test_weighted_rescaling(self, kind, log_param, log_sigma):
        """f_t(tau) = |t|^{2/3} f_1(tau/|t|) and f_a(tau) = a^2 f_1(a^-3 tau),
        and the derivatives that follow, for |t|, a in 1e-8..1e8."""
        param = 10.0**log_param
        sigma = 10.0**log_sigma
        if kind == "smoothed":
            sigma = 1.0 + sigma
            weights = (param ** (2.0 / 3.0), param ** (-1.0 / 3.0), param ** (-4.0 / 3.0))
        else:
            weights = (param**2, 1.0 / param, param**-4)
        family = _family(kind, param)
        sample = potential_value(family, sigma * family.scale)
        unit = potential_value(_family(kind, 1.0), sigma)
        pairs = zip((sample.f, sample.fp, sample.fpp), weights, (unit.f, unit.fp, unit.fpp))
        for (value, weight, unit_value), slack in zip(pairs, (sample.quad_error, 0.0, 0.0)):
            expected = weight * unit_value
            assert abs(value - expected) <= 1e-13 * abs(expected) + slack + weight * unit.quad_error

    def test_cli_sweeps_run_without_scipy(self):
        code = (
            "import io, sys, contextlib\n"
            "from conifold_lab import cli\n"
            "for family in ('cone', 'smoothed', 'resolved'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['metric', '--family', family, '--points', '5']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(metrics.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


class TestOdeResidual:
    def test_cone_exact(self):
        for tau in (0.2, 1.0, 17.0, 4e3):
            assert _ode(CONE, tau) < 1e-12

    def test_smoothed_spec_points(self):
        for tau in (1.5, 3.0, 10.0, 100.0):
            assert _ode(SMOOTHED, tau) < 1e-8

    def test_resolved_spec_points(self):
        for tau in (0.1, 1.0, 10.0, 1e3):
            assert _ode(RESOLVED, tau) < 1e-8

    def test_scaling_exponent_sign(self):
        # the +2/3 exponent keeps the equation's constant; the -2/3 variant
        # violates it badly away from |t| = 1
        for at in (0.5, 2.0):
            family = PotentialFamily.smoothed(at)
            for tau in np.linspace(1.3 * at, 20 * at, 20):
                assert _ode(family, float(tau)) < 1e-9
                fp1, fpp1 = _smoothed_derivatives(np.array([tau / at]))
                fp_bad = at ** (-5.0 / 3.0) * fp1[0]
                fpp_bad = at ** (-8.0 / 3.0) * fpp1[0]
                lhs = fp_bad**3 * tau + fp_bad**2 * fpp_bad * (tau**2 - at**2)
                assert abs(lhs - ODE_CONSTANT) / ODE_CONSTANT > 0.1


class TestHermitianHessian:
    def test_smoothed_normal_form_eigenvalues(self):
        tau = 5.0
        hess = _hessian(SMOOTHED, smoothed_normal_form_point(1.0, tau))
        s = potential_value(SMOOTHED, tau)
        expected = sorted(
            [2 * (tau - 1) * s.fpp + 2 * tau / (1 + tau) * s.fp, s.fp, s.fp]
        )
        assert np.allclose(sorted(np.linalg.eigvalsh(hess.H)), expected, rtol=1e-12)

    def test_hermitian_and_positive(self):
        rng = np.random.default_rng(1)
        for tau in (1.5, 4.0, 50.0):
            hess = _hessian(SMOOTHED, smoothed_normal_form_point(1.0, tau))
            assert np.allclose(hess.H, hess.H.conj().T)
            assert np.all(np.linalg.eigvalsh(hess.H) > 0)
        for radius in (0.05, 1.0, 30.0):
            q = resolved_point_with_tau(radius**2, u=(1.0, 0.4 + 0.1j))
            hess = _hessian(RESOLVED, q)
            assert np.allclose(hess.H, hess.H.conj().T)
            assert np.all(np.linalg.eigvalsh(hess.H) > 0)

    def test_cone_density_matches_calibration(self):
        hess = _hessian(CONE, cone_point(1.0))
        det = float(np.linalg.det(hess.H).real)
        assert abs(det / hess.density / MONGE_AMPERE_CONSTANT["cone"] - 1.0) < 1e-15

    def test_resolved_calibration_equals_ode_constant(self):
        # at the zero section H = diag(4 a^2, f'(0), f'(0)), so
        # det H = 4 a^2 f'(0)^2 = 2/3 with unit density
        hess = _hessian(RESOLVED, resolved_point_with_tau(0.0))
        det = float(np.linalg.det(hess.H).real)
        assert MONGE_AMPERE_CONSTANT["resolved"] == ODE_CONSTANT
        assert abs(det / hess.density / MONGE_AMPERE_CONSTANT["resolved"] - 1.0) < 1e-15

    def test_rejects_sample_at_another_tau(self):
        for family, point in (
            (SMOOTHED, smoothed_normal_form_point(1.0, 3.0)),
            (RESOLVED, resolved_point_with_tau(3.0, u=(0.3j, 1.0))),
        ):
            near = potential_value(family, 3.0 * (1 + 1e-15))
            assert _hessian(family, point).H == pytest.approx(hermitian_hessian(family, point, near).H)
            with pytest.raises(ValueError, match="is not at the point's tau"):
                hermitian_hessian(family, point, potential_value(family, 3.0 * (1 + 1e-12)))

    def test_rejects_off_fiber_point(self):
        with pytest.raises(ValueError):
            hermitian_hessian(SMOOTHED, FiberPoint([1.0, 0, 0, 0], 0.5), potential_value(SMOOTHED, 1.0))


def _fd_complex_hessian(scalar, coords, h):
    """4th-order nested finite differences of a real scalar of n complex
    coordinates; returns the matrix of mixed holomorphic/antiholomorphic
    second derivatives.  Test-local oracle, independent of the package's
    analytic Hessian assembly."""
    n = len(coords)
    stencil = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))

    def d1(fn, axis, real_axis):
        def deriv(position):
            total = 0.0
            for off, weight in stencil:
                shifted = np.array(position, dtype=complex)
                shifted[axis] += off * h if real_axis else 1j * off * h
                total += weight * fn(shifted)
            return total / (12 * h)

        return deriv

    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            fxx = d1(d1(scalar, j, True), i, True)(coords)
            fyy = d1(d1(scalar, j, False), i, False)(coords)
            fxy = d1(d1(scalar, j, False), i, True)(coords)
            fyx = d1(d1(scalar, j, True), i, False)(coords)
            H[i, j] = 0.25 * ((fxx + fyy) + 1j * (fxy - fyx))
    return H


def _fd_profile_hessian(family, tau_of, coords, h, offset=lambda coords: 0.0):
    """_fd_complex_hessian of offset(coords) + f(tau_of(coords)), with f from
    one profile call: a first pass collects every stencil tau in call order,
    a second pass feeds the values back in that order."""
    taus = []
    _fd_complex_hessian(lambda position: taus.append(tau_of(position)) or 0.0, coords, h)
    values = iter(profile(family, taus).f.tolist())
    return _fd_complex_hessian(lambda position: offset(position) + next(values), coords, h)


class TestHessianFiniteDifferenceCrossCheck:
    def test_smoothed(self):
        rng = np.random.default_rng(2)
        family = SMOOTHED
        for _ in range(10):
            tau = float(rng.uniform(2.0, 12.0))
            base = smoothed_normal_form_point(1.0, tau)
            delta = 0.15 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            z123 = base.z[:3] + delta
            z4 = np.sqrt(1.0 - np.sum(z123**2))
            point = FiberPoint(np.append(z123, z4), 1.0)
            if int(np.argmax(np.abs(point.z))) != 3:
                continue
            hess = _hessian(family, point)

            def tau_of(coords, _z4ref=z4):
                w4 = np.sqrt(1.0 - np.sum(coords**2))
                if abs(w4 - _z4ref) > abs(w4 + _z4ref):
                    w4 = -w4
                return float(np.sum(np.abs(coords) ** 2) + abs(w4) ** 2)

            fd = _fd_profile_hessian(family, tau_of, point.z[:3], 1e-3)
            scale = np.linalg.norm(hess.H)
            assert np.linalg.norm(fd - hess.H) < 1e-6 * scale

    def test_resolved(self):
        rng = np.random.default_rng(3)
        family = RESOLVED
        for _ in range(10):
            u = 0.6 * (rng.normal() + 1j * rng.normal()) / 2
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            point = ResolvedPoint([1.0, u], w)
            hess = _hessian(family, point)

            def tau_of(coords):
                uu, w1, w2 = coords
                return float((1 + abs(uu) ** 2) * (abs(w1) ** 2 + abs(w2) ** 2))

            def offset(coords):
                return 4.0 * math.log(1 + abs(coords[0]) ** 2)

            fd = _fd_profile_hessian(family, tau_of, np.array([u, w[0], w[1]]), 1e-3, offset)
            scale = np.linalg.norm(hess.H)
            assert np.linalg.norm(fd - hess.H) < 1e-6 * scale


class TestMongeAmpere:
    def test_cone_points(self):
        rng = np.random.default_rng(4)
        for tau in np.logspace(-2, 2, 25):
            p = cone_point(float(tau))
            assert _ma(CONE, p) < 1e-10

    def test_smoothed_constancy(self):
        # one hundred radii across the domain
        for tau in np.logspace(math.log10(1.01), 3, 100):
            p = smoothed_normal_form_point(1.0, float(tau))
            assert _ma(SMOOTHED, p) < 1e-7

    def test_resolved_both_charts(self):
        rng = np.random.default_rng(5)
        for radius in np.logspace(-2, 2, 50):
            for u in ((1.0, 0.35 - 0.2j), (0.15 + 0.4j, 1.0)):
                q = resolved_point_with_tau(float(radius) ** 2, u=u)
                assert _ma(RESOLVED, q) < 1e-7

    def test_ode_and_ma_agree_at_shared_points(self):
        # the same identity certified through two independent code paths
        taus = np.logspace(math.log10(1.05), 2.5, 50)
        for tau in taus:
            assert _ode(SMOOTHED, float(tau)) < 1e-7
            p = smoothed_normal_form_point(1.0, float(tau))
            assert _ma(SMOOTHED, p) < 1e-7
        taus = np.logspace(-1, 2.5, 50)
        for tau in taus:
            assert _ode(RESOLVED, float(tau)) < 1e-7
            q = resolved_point_with_tau(float(tau))
            assert _ma(RESOLVED, q) < 1e-7

    @given(
        st.sampled_from(["cone", "smoothed", "resolved"]),
        st.floats(-20.0, 20.0),
        st.floats(0.0, 2 * math.pi),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None)
    def test_residuals_at_every_scale(self, kind, log_param, phase, where, seed):
        """Against the exact constant, the Monge-Ampere residual stays below
        1e-12 for a and |t| in [1e-20, 1e20], every phase of t and taus
        across the tau window, on the sweep points and on rotated points."""
        param = 10.0**log_param
        t = param * np.exp(1j * phase)
        # at the window's ends, |param e^{i phase}| can round to just outside it
        assume(metrics.PARAMETER_MIN <= abs(t) <= metrics.PARAMETER_MAX)
        family = {"cone": CONE, "smoothed": PotentialFamily.smoothed(t),
                  "resolved": PotentialFamily.resolved(param)}[kind]
        lo, hi = family.tau_window()
        if kind == "resolved":
            lo *= 2.0  # rotated points sit down to tau / 2
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        taus = np.clip(10.0 ** (log_lo + np.array(where) * (log_hi - log_lo)), lo, hi)
        prof = profile(family, taus)
        assert np.max(monge_ampere_residuals(family, _sweep_points(family, taus), prof)) <= 1e-12
        coords, prof = _rotated_points(family, taus, np.random.default_rng(seed))
        assert np.max(monge_ampere_residuals(family, coords, prof)) <= 1e-12


def _sweep_points(family, taus):
    """The points the metric sweep puts at each tau."""
    if family.kind == "resolved":
        return resolved_points_with_tau(taus)
    return smoothed_normal_form_points(family.t, taus)


def _rotated_points(family, taus, rng):
    """Generic points and the profile at their taus: real rotations of the
    normal form on a fiber, at the taus; on the resolution, both direction
    charts at (1 + |u|^2) tau / 2 for |u| < 1."""
    if family.kind == "resolved":
        coords = sample_resolved_points(np.sqrt(taus / 2.0), rng)
        return coords, profile(family, point_taus(coords))
    return sample_fiber_points(family.t, taus, rng), profile(family, taus)


def _frobenius_gap(family, coords, prof, points):
    """max over rows of |H - oracle H| / |H| (Frobenius), with the charts and
    densities compared as well."""
    H, density, chart = chart_hessians(family, coords, prof)
    worst = 0.0
    for i, point in enumerate(points):
        ref_H, ref_density, ref_chart = hessian_per_point(family, point, prof[i])
        assert chart[i] == ref_chart
        assert abs(density[i] - ref_density) <= 1e-15 * ref_density
        worst = max(worst, np.linalg.norm(H[i] - ref_H) / np.linalg.norm(ref_H))
    return worst


STACKED_FAMILIES = [CONE, PotentialFamily.smoothed(0.37 - 2j), PotentialFamily.resolved(2.3)]
WINDOW_FAMILIES = STACKED_FAMILIES + [PotentialFamily.smoothed(1e-20j), PotentialFamily.resolved(1e20)]
WINDOW_IDS = ["cone", "smoothed", "resolved", "smoothed-min", "resolved-max"]


def _window_grid(family):
    """97 taus over twelve decades from the low end of the family's window."""
    lo, hi = family.tau_window()
    lo = 1.01 * family.scale if family.kind == "smoothed" else max(lo, 1e-6 * family.scale, 1e-6)
    return np.logspace(math.log10(lo), min(math.log10(hi), math.log10(lo) + 12), 97)


class TestStackedResiduals:
    """The stacked kernels against the per-point oracle in tests/reference.py,
    and their row independence and first-failure semantics."""

    @pytest.mark.parametrize("t", [0.0, 1.0, 0.3 * np.exp(0.2j * np.pi), -5e3j])
    def test_hessians_of_rotated_fiber_points(self, t):
        family = CONE if t == 0 else PotentialFamily.smoothed(t)
        rng = np.random.default_rng(7)
        taus = np.logspace(math.log10(1.01 * max(abs(t), 1e-2)), math.log10(max(abs(t), 1.0)) + 4, 100)
        coords = sample_fiber_points(t, taus, rng)
        points = [FiberPoint(z, t) for z in coords.z]
        assert _frobenius_gap(family, coords, profile(family, taus), points) <= 1e-15

    @given(st.floats(-8.0, 8.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, 6.0))
    @settings(deadline=None)
    def test_hessians_of_normal_forms(self, log_t, phase, log_sigma):
        """The normal form of V_t for every phase of t and |t| in 1e-8..1e8."""
        t = 10.0**log_t * np.exp(1j * phase)
        family = PotentialFamily.smoothed(t)
        taus = abs(t) * (1.0 + 10.0 ** np.array([log_sigma - 6.0, log_sigma - 2.0, log_sigma]))
        coords = smoothed_normal_form_points(t, taus)
        points = [FiberPoint(z, t) for z in coords.z]
        assert _frobenius_gap(family, coords, profile(family, taus), points) <= 1e-15

    @pytest.mark.parametrize("a", [1e-3, 1.0, 37.0])
    def test_hessians_of_resolved_points_in_both_charts(self, a):
        family = PotentialFamily.resolved(a)
        coords = sample_resolved_points(a**1.5 * np.logspace(-2, 2, 100), np.random.default_rng(8))
        prof = profile(family, point_taus(coords))
        assert set(chart_hessians(family, coords, prof)[2].tolist()) == {1, 2}
        points = [ResolvedPoint(u, w) for u, w in zip(*coords)]
        assert _frobenius_gap(family, coords, prof, points) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("t", [0.0, 1.0, 0.3 - 2j])
    def test_rotated_fiber_points_match_the_per_point_draws(self, t, seed):
        """The stacked rotations are the per-point ones bit for bit, and
        leave the generator where the per-point draws leave it."""
        taus = np.logspace(math.log10(1.01 * max(abs(t), 1e-2)), 3, 100)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # C03 draws twice from one generator
            points, ref = sample_fiber_points(t, taus, rng), sample_fiber_points_per_point(t, taus, ref_rng)
            assert points.z.shape == ref.z.shape == (100, 4)
            assert points.z.tobytes() == ref.z.tobytes() and points.t == ref.t == t
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 5, 17])
    @pytest.mark.parametrize("radii", [np.logspace(-2, 2, 100), 3.7e5 * np.logspace(-6, 0, 7), [0.25]],
                             ids=["c03", "odd-count", "one"])
    def test_resolved_points_match_the_per_point_draws(self, radii, seed):
        """The stacked chart magnitudes, phases, directions and ResolvedPoint
        normalization are the per-point ones bit for bit, and leave the
        generator where the per-point draws leave it."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            (u, w), (ref_u, ref_w) = sample_resolved_points(radii, rng), sample_resolved_points_per_point(
                radii, ref_rng)
            assert u.shape == w.shape == ref_u.shape == (len(radii), 2)
            assert u.tobytes() == ref_u.tobytes() and w.tobytes() == ref_w.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("family", WINDOW_FAMILIES, ids=WINDOW_IDS)
    def test_residuals_and_deviations_match_the_oracle(self, family):
        """Within the bounds the report columns may move by: 1e-14 absolute
        for the ODE and Monge-Ampere residuals, 4 eps |f| for the deviation."""
        taus = _window_grid(family)
        prof = profile(family, taus)
        points = _sweep_points(family, taus)
        ode, ma = ode_residuals(family, prof), monge_ampere_residuals(family, points, prof)
        above = taus >= metrics.asymptotic_threshold(family)
        dev = asymptotic_deviations(family, prof.take(above))
        for i, sample in enumerate(prof):
            point = ResolvedPoint(points[0][i], points[1][i]) if family.kind == "resolved" else (
                FiberPoint(points.z[i], points.t))
            assert abs(ode[i] - ode_residual_per_point(family, sample)) <= 1e-14
            assert abs(ma[i] - monge_ampere_residual_per_point(family, point, sample)) <= 1e-14
        for d, sample in zip(dev, prof.take(above)):
            ref = asymptotic_deviation_per_point(family, sample, subtract_gauge=True)
            assert abs(d - ref) <= 4 * np.finfo(float).eps * abs(sample.f)

    @pytest.mark.parametrize("family", WINDOW_FAMILIES, ids=WINDOW_IDS)
    def test_density_ratio_is_the_ode_left_side(self, family):
        """det(H)/density = (MONGE_AMPERE_CONSTANT / c) L(f), with L the
        ODE's left-hand side, for profiles that do not solve the ODE (f' and
        f'' each off by up to 10 %), on the sweep points and rotated points.
        The identity carries the exact constant in place of a calibration;
        the bound is 256 eps."""
        rng = np.random.default_rng(10)
        taus = _window_grid(family)
        for coords, prof in ((_sweep_points(family, taus), profile(family, taus)), _rotated_points(family, taus, rng)):
            wobble = 1.0 + rng.uniform(-0.1, 0.1, (2, len(prof)))
            off = metrics.PotentialProfile(prof.tau, prof.f, prof.fp * wobble[0], prof.fpp * wobble[1], prof.quad_error)
            H, density, _ = chart_hessians(family, coords, off)
            tau, fp, fpp = off.tau, off.fp, off.fpp
            if family.kind == "resolved":
                lhs = (4.0 * family.a**2 + tau * fp) * (fp**2 + tau * fp * fpp)
            else:
                lhs = fp**3 * tau + fp**2 * fpp * (tau**2 - abs(family.t) ** 2)
            assert np.max(np.abs(lhs / ODE_CONSTANT - 1.0)) > 0.05
            expected = MONGE_AMPERE_CONSTANT[family.kind] / ODE_CONSTANT * lhs
            ratio = np.linalg.det(H).real / density
            assert np.max(np.abs(ratio / expected - 1.0)) <= 256 * np.finfo(float).eps

    @pytest.mark.parametrize("family", STACKED_FAMILIES, ids=["cone", "smoothed", "resolved"])
    def test_rows_do_not_depend_on_the_batch(self, family):
        """Row i of a grid is bit-identical to a one-row batch of tau_i, and
        a shuffled grid gives the shuffled rows."""
        rng = np.random.default_rng(9)
        scale = max(family.scale, 1.0)

        def rows(taus):
            prof = profile(family, taus)
            points = _sweep_points(family, taus)
            H = chart_hessians(family, points, prof)[0]
            ode, ma = ode_residuals(family, prof), monge_ampere_residuals(family, points, prof)
            above = prof.tau >= metrics.asymptotic_threshold(family)
            dev = np.full(len(taus), np.nan)
            dev[above] = asymptotic_deviations(family, prof.take(above))
            return H, ode, ma, dev

        for n in (1, 2, 7, 8, 9, 17, 64, 129):
            taus = scale * 10.0 ** rng.uniform(0.005, 6.0, n)
            batch = rows(taus)
            shuffled = rng.permutation(n)
            other = rows(taus[shuffled])
            for i in range(n):
                single = rows(taus[i : i + 1])
                for whole, alone, moved in zip(batch, single, other):
                    assert whole[i].tobytes() == alone[0].tobytes()
                    assert moved[i].tobytes() == whole[shuffled[i]].tobytes()

    def test_one_point_functions_are_one_row_batches(self):
        for family in STACKED_FAMILIES:
            tau = 3.0 * max(family.scale, 1.0)
            taus = [tau]
            prof = profile(family, taus)
            points = _sweep_points(family, taus)
            point = resolved_point_with_tau(tau) if family.kind == "resolved" else (
                smoothed_normal_form_point(family.t, tau))
            assert ode_residual(family, prof[0]) == ode_residuals(family, prof)[0]
            assert monge_ampere_residual(family, point, prof[0]) == monge_ampere_residuals(family, points, prof)[0]
            assert np.array_equal(hermitian_hessian(family, point, prof[0]).H, chart_hessians(family, points, prof)[0][0])
            big = profile(family, [20.0 * tau])
            assert asymptotic_deviation(family, big[0]) == asymptotic_deviations(family, big)[0]

    def test_first_failing_row_raises(self):
        """Each check raises its message at its first failing row; every input
        below fails one check only, except the last, which fails two."""
        family = PotentialFamily.smoothed(1.0)
        taus = np.logspace(0.1, 2, 10)
        points = smoothed_normal_form_points(1.0, taus)
        prof = profile(family, taus)
        shifted = taus.copy()
        shifted[3] *= 1 + 1e-12  # sample at another tau
        point_tau_3 = float(point_taus(points)[3])
        message = f"the profile sample at tau = {float(shifted[3])!r} is not at the point's tau = {point_tau_3!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            chart_hessians(family, points, profile(family, shifted))
        off = FiberPoint(points.z.copy(), points.t)
        off.z[6] *= 1.1  # off the fiber, with its sample at its own tau
        off_prof = profile(family, point_taus(off))
        with pytest.raises(ValueError, match="point does not lie on the family's fiber"):
            monge_ampere_residuals(family, off, off_prof)

        def negative_fpp(p):
            # f'' far negative at row 5 breaks the ODE's positivity and the Hessian
            return metrics.PotentialProfile(p.tau, p.f, p.fp, np.where(np.arange(len(p)) == 5, -1e3, p.fpp),
                                            p.quad_error)

        bad = negative_fpp(prof)
        margins = positivity_margins(family, bad)
        ode_message = f"positivity violated at tau={float(taus[5])}: margins {margins[0][5]:.3e}, {margins[1][5]:.3e}"
        with pytest.raises(ValueError, match=re.escape(ode_message)):
            ode_residuals(family, bad)
        with pytest.raises(ValueError, match="Hessian not positive definite"):
            monge_ampere_residuals(family, points, bad)
        with pytest.raises(ValueError, match=r"tau = 5\.0 below the asymptotic threshold 10\.0"):
            asymptotic_deviations(family, profile(family, [20.0, 5.0, 2.0]))
        with pytest.raises(ValueError, match="2 profile samples for 10 points"):
            chart_hessians(family, points, profile(family, taus[:2]))
        # the domain refusals of the profile and the normal form, each at the
        # first offending tau of its stack
        with pytest.raises(ValueError, match=r"^tau = 0\.5 below the smoothed domain minimum \|t\| = 1\.0$"):
            profile(family, [2.0, 0.5, 0.25])
        with pytest.raises(ValueError, match=r"^cone profile derivatives need tau > 0$"):
            profile(CONE, [1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match=r"^resolved profile needs tau >= 0$"):
            profile(RESOLVED, [1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match=r"^tau below the fiber's minimal radius$"):
            smoothed_normal_form_points(1.0, [2.0, 0.5])
        # the checks are taken in the order they are written: row 6 off the
        # fiber raises before row 5's Hessian
        with pytest.raises(ValueError, match="point does not lie on the family's fiber"):
            monge_ampere_residuals(family, off, negative_fpp(off_prof))

    @pytest.mark.parametrize("family", [CONE, SMOOTHED, RESOLVED], ids=lambda f: f.kind)
    def test_lone_point_is_refused_with_the_stack_shape(self, family):
        """A single point where a stack is expected is a usage message naming
        the stack's shape and the one-point entries, not a numpy traceback."""
        prof = profile(family, [2.0])
        if family.kind == "resolved":
            u, w = resolved_points_with_tau([2.0])
            lone, point = (u[0], w[0]), ResolvedPoint(u[0], w[0])
            shape = "a (u, w) pair of arrays of shape (N, 2), got u of shape (2,)"
            calls = [chart_hessians, monge_ampere_residuals, lambda family, points, prof: point_taus(points)]
        else:
            points = smoothed_normal_form_points(family.t, [2.0])
            lone = point = FiberPoint(points.z[0], points.t)
            shape = "a FiberPoint whose z has shape (N, 4), got z of shape (4,)"
            calls = [chart_hessians, monge_ampere_residuals]
        message = f"expected a stack, {shape}; hermitian_hessian and monge_ampere_residual take one point"
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(family, lone, prof)
        # the one-point entries take the same point
        assert monge_ampere_residual(family, point, prof[0]) < 1e-12


class TestAsymptotics:
    def test_cone_deviation_identically_zero(self):
        assert _deviation(CONE, 123.0) == 0.0

    def test_resolved_weighted_bound_and_decay(self):
        taus = np.logspace(2, 6, 50)
        weighted = [
            abs(_deviation(RESOLVED, float(t))) * t**0.25
            for t in taus
        ]
        assert max(weighted) < 2.0
        assert all(b < a for a, b in zip(weighted, weighted[1:]))

    def test_smoothed_decay(self):
        taus = np.logspace(2, 6, 50)
        devs = [_deviation(SMOOTHED, float(t)) for t in taus]
        assert all(abs(b) < abs(a) for a, b in zip(devs, devs[1:]))
        assert abs(devs[-1]) < 1e-6

    def test_gauge_constants_are_stable(self):
        assert SMOOTHED_GAUGE == pytest.approx(-1.7097494677, abs=1e-7)
        assert RESOLVED_GAUGE == pytest.approx(2.3752771, abs=1e-5)

    def test_smoothed_gauge_matches_mpmath(self):
        """-3/2 + int_0^inf (g^{1/3} - sinh l cosh^{-1/3} l) dl; the integrand
        is below 1e-20 beyond l = 40."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            def excess(l):
                return mp.cbrt((mp.sinh(2 * l) - 2 * l) / 2) - mp.sinh(l) * mp.cosh(l) ** (-mp.mpf(1) / 3)

            limit = -mp.mpf(3) / 2 + mp.quad(excess, [0, 0.5, 1, 2, 4, 8, 16, 24, 32, 40])
        assert abs(SMOOTHED_GAUGE - float(limit)) <= math.ulp(SMOOTHED_GAUGE)

    def test_resolved_gauge_matches_mpmath(self):
        """f_1 - ((3/2) sigma^{2/3} - 2 log sigma) + 6 sigma^{-2/3} at
        sigma = 1e12 is the gauge up to 4 sigma^{-4/3} = 4e-16."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            s = mp.mpf(10) ** 12
            value = _mp_resolved_f1(1e12) - (mp.mpf(3) / 2 * s ** (mp.mpf(2) / 3) - 2 * mp.log(s))
            value += 6 * s ** (-mp.mpf(2) / 3)
        assert abs(RESOLVED_GAUGE - float(value)) <= 2e-15

    def test_threshold_enforced(self):
        with pytest.raises(ValueError):
            _deviation(SMOOTHED, 5.0)


class TestConvergenceSup:
    def test_resolved_sequence(self):
        families = [PotentialFamily.resolved(a) for a in (1.0, 0.5, 0.25, 0.125)]
        sups = potential_convergence_sup(families, 1.0, 10.0, 100)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_smoothed_sequence(self):
        families = [PotentialFamily.smoothed(t) for t in (0.5, 0.25, 0.125)]
        sups = potential_convergence_sup(families, 1.0, 10.0, 100)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_limit_value_small(self):
        sups = potential_convergence_sup([PotentialFamily.resolved(1e-3)], 1.0, 10.0, 100)
        assert sups[0] < 1e-3

    def test_rejects_bad_annulus(self):
        with pytest.raises(ValueError):
            potential_convergence_sup([PotentialFamily.resolved(1.0)], 10.0, 1.0, 100)


class TestFamilyValidation:
    def test_smoothed_needs_nonzero_parameter(self):
        with pytest.raises(ValueError):
            PotentialFamily.smoothed(0.0)

    def test_resolved_needs_positive_parameter(self):
        with pytest.raises(ValueError):
            PotentialFamily.resolved(-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, value):
        with pytest.raises(ValueError, match="resolution parameter a must be finite"):
            PotentialFamily.resolved(value)
        for t in (value, complex(1.0, value)):
            with pytest.raises(ValueError, match="smoothing parameter t must be finite"):
                PotentialFamily.smoothed(t)

    def test_parameter_window(self):
        assert PARAMETER_MIN <= 1e-8 and PARAMETER_MAX >= 1e8
        for end in (PARAMETER_MIN, PARAMETER_MAX):
            PotentialFamily.resolved(end)
            PotentialFamily.smoothed(end * 1j)
        for outside in (PARAMETER_MIN / 10, PARAMETER_MAX * 10, 1e-300, 1e300):
            with pytest.raises(ValueError, match="resolution parameter a must lie in"):
                PotentialFamily.resolved(outside)
            with pytest.raises(ValueError, match=r"smoothing parameter \|t\| must lie in"):
                PotentialFamily.smoothed(-outside)

    def test_scales(self):
        assert PotentialFamily.smoothed(2j).scale == 2.0
        assert PotentialFamily.resolved(2.0).scale == 8.0
        assert CONE.scale == 0.0

    @pytest.mark.parametrize(
        "family",
        [CONE]
        + [PotentialFamily.smoothed(end * 1j) for end in (PARAMETER_MIN, PARAMETER_MAX)]
        + [PotentialFamily.resolved(end) for end in (PARAMETER_MIN, PARAMETER_MAX)],
        ids=["cone", "smoothed-min", "smoothed-max", "resolved-min", "resolved-max"],
    )
    def test_tau_window_ends_are_certified(self, family):
        """At both ends of the tau window, at both ends of the parameter
        window, the profile, the ODE and the chart Hessian stay finite and
        pass their residual gates."""
        lo, hi = family.tau_window()
        if family.kind == "smoothed":
            lo *= 1.01  # f'' is singular at the domain minimum tau = |t|
        for tau in (lo, hi):
            sample = potential_value(family, tau)
            assert all(math.isfinite(x) and x != 0.0 for x in (sample.f, sample.fp, sample.fpp))
            assert ode_residual(family, sample) < 1e-8
            if family.kind == "resolved":
                point = resolved_point_with_tau(tau)
            else:
                point = smoothed_normal_form_point(family.t, tau)
            assert monge_ampere_residual(family, point, sample) < 1e-7
