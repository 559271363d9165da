import math

import numpy as np
import pytest

from conifold_lab.conifold import FiberPoint, ResolvedPoint
from conifold_lab.metrics import (
    PotentialFamily,
    asymptotic_deviation,
    cone_point,
    gamma_resolved,
    hermitian_hessian,
    monge_ampere_calibration,
    monge_ampere_residual,
    ode_residual,
    positivity_margins,
    potential_convergence_sup,
    potential_value,
    resolved_gauge_constant,
    resolved_point_with_tau,
    smoothed_gauge_constant,
    smoothed_normal_form_point,
    _f1_smoothed,
    _f1p_smoothed,
    _f1pp_smoothed,
)
from reference import gamma_resolved_root

CONE = PotentialFamily.cone()
SMOOTHED = PotentialFamily.smoothed(1.0)
RESOLVED = PotentialFamily.resolved(1.0)


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
        # halving the tolerance moves f by less than the reported error bound
        for family, taus in ((SMOOTHED, (1.5, 7.0, 300.0)), (RESOLVED, (0.3, 4.0, 800.0))):
            for tau in taus:
                coarse = potential_value(family, tau, quad_epsabs=1e-11)
                fine = potential_value(family, tau, quad_epsabs=5e-12)
                assert abs(coarse.f - fine.f) <= max(coarse.quad_error, 1e-13)

    def test_smoothed_rescaling_identity(self):
        # profile at parameter t is the unit profile scaled by |t|^{2/3} in
        # value and |t| in radius; checked at 20 radii for |t| in {1/2, 2}
        for at in (0.5, 2.0):
            family = PotentialFamily.smoothed(at)
            for sigma in np.linspace(1.2, 40.0, 20):
                tau = at * sigma
                s = potential_value(family, tau)
                f1, _ = _f1_smoothed(float(sigma))
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
            for tau in taus:
                m1, m2 = positivity_margins(family, potential_value(family, float(tau)))
                assert m1 > 0 and m2 > 0


class TestOdeResidual:
    def test_cone_exact(self):
        for tau in (0.2, 1.0, 17.0, 4e3):
            assert ode_residual(CONE, tau) < 1e-12

    def test_smoothed_spec_points(self):
        for tau in (1.5, 3.0, 10.0, 100.0):
            assert ode_residual(SMOOTHED, tau) < 1e-8

    def test_resolved_spec_points(self):
        for tau in (0.1, 1.0, 10.0, 1e3):
            assert ode_residual(RESOLVED, tau) < 1e-8

    def test_scaling_exponent_sign(self):
        # the +2/3 exponent keeps the equation's constant; the -2/3 variant
        # violates it badly away from |t| = 1
        for at in (0.5, 2.0):
            family = PotentialFamily.smoothed(at)
            for tau in np.linspace(1.3 * at, 20 * at, 20):
                assert ode_residual(family, float(tau)) < 1e-9
                sigma = tau / at
                fp_bad = at ** (-5.0 / 3.0) * _f1p_smoothed(sigma)
                fpp_bad = at ** (-8.0 / 3.0) * _f1pp_smoothed(sigma)
                lhs = fp_bad**3 * tau + fp_bad**2 * fpp_bad * (tau**2 - at**2)
                assert abs(lhs - family.c) / family.c > 0.1


class TestHermitianHessian:
    def test_smoothed_normal_form_eigenvalues(self):
        tau = 5.0
        hess = hermitian_hessian(SMOOTHED, smoothed_normal_form_point(1.0, tau))
        s = potential_value(SMOOTHED, tau)
        expected = sorted(
            [2 * (tau - 1) * s.fpp + 2 * tau / (1 + tau) * s.fp, s.fp, s.fp]
        )
        assert np.allclose(sorted(hess.eigenvalues()), expected, rtol=1e-12)

    def test_hermitian_and_positive(self):
        rng = np.random.default_rng(1)
        for tau in (1.5, 4.0, 50.0):
            hess = hermitian_hessian(SMOOTHED, smoothed_normal_form_point(1.0, tau))
            assert np.allclose(hess.H, hess.H.conj().T)
            assert hess.is_positive
        for radius in (0.05, 1.0, 30.0):
            q = resolved_point_with_tau(1.0, radius**2, u=(1.0, 0.4 + 0.1j))
            hess = hermitian_hessian(RESOLVED, q)
            assert np.allclose(hess.H, hess.H.conj().T)
            assert hess.is_positive

    def test_cone_density_matches_calibration(self):
        hess = hermitian_hessian(CONE, cone_point(1.0))
        det = float(np.linalg.det(hess.H).real)
        assert abs(det / hess.density / monge_ampere_calibration(CONE) - 1.0) < 1e-10

    def test_resolved_calibration_equals_ode_constant(self):
        # at the zero section det H = 4 a^2 f'(0)^2 = 2/3 with unit density
        assert monge_ampere_calibration(RESOLVED) == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_rejects_off_fiber_point(self):
        with pytest.raises(ValueError):
            hermitian_hessian(SMOOTHED, FiberPoint([1.0, 0, 0, 0], 0.5))


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
            hess = hermitian_hessian(family, point)

            def potential(coords, _z4ref=z4):
                w4 = np.sqrt(1.0 - np.sum(coords**2))
                if abs(w4 - _z4ref) > abs(w4 + _z4ref):
                    w4 = -w4
                tau_here = float(np.sum(np.abs(coords) ** 2) + abs(w4) ** 2)
                return potential_value(family, tau_here).f

            fd = _fd_complex_hessian(potential, point.z[:3], 1e-3)
            scale = np.linalg.norm(hess.H)
            assert np.linalg.norm(fd - hess.H) < 1e-6 * scale

    def test_resolved(self):
        rng = np.random.default_rng(3)
        family = RESOLVED
        for _ in range(10):
            u = 0.6 * (rng.normal() + 1j * rng.normal()) / 2
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            point = ResolvedPoint([1.0, u], w)
            hess = hermitian_hessian(family, point)

            def potential(coords):
                uu, w1, w2 = coords
                tau_here = float((1 + abs(uu) ** 2) * (abs(w1) ** 2 + abs(w2) ** 2))
                return 4.0 * math.log(1 + abs(uu) ** 2) + potential_value(family, tau_here).f

            fd = _fd_complex_hessian(potential, np.array([u, w[0], w[1]]), 1e-3)
            scale = np.linalg.norm(hess.H)
            assert np.linalg.norm(fd - hess.H) < 1e-6 * scale


class TestMongeAmpere:
    def test_cone_points(self):
        rng = np.random.default_rng(4)
        for tau in np.logspace(-2, 2, 25):
            p = cone_point(float(tau))
            assert monge_ampere_residual(CONE, p) < 1e-10

    def test_smoothed_constancy(self):
        # calibration happens at tau = 2; one hundred radii across the domain
        for tau in np.logspace(math.log10(1.01), 3, 100):
            p = smoothed_normal_form_point(1.0, float(tau))
            assert monge_ampere_residual(SMOOTHED, p) < 1e-7

    def test_resolved_both_charts(self):
        rng = np.random.default_rng(5)
        for radius in np.logspace(-2, 2, 50):
            for u in ((1.0, 0.35 - 0.2j), (0.15 + 0.4j, 1.0)):
                q = resolved_point_with_tau(1.0, float(radius) ** 2, u=u)
                assert q.chart == (1 if abs(u[0]) >= abs(u[1]) else 2)
                assert monge_ampere_residual(RESOLVED, q) < 1e-7

    def test_ode_and_ma_agree_at_shared_points(self):
        # the same identity certified through two independent code paths
        taus = np.logspace(math.log10(1.05), 2.5, 50)
        for tau in taus:
            assert ode_residual(SMOOTHED, float(tau)) < 1e-7
            p = smoothed_normal_form_point(1.0, float(tau))
            assert monge_ampere_residual(SMOOTHED, p) < 1e-7
        taus = np.logspace(-1, 2.5, 50)
        for tau in taus:
            assert ode_residual(RESOLVED, float(tau)) < 1e-7
            q = resolved_point_with_tau(1.0, float(tau))
            assert monge_ampere_residual(RESOLVED, q) < 1e-7


class TestAsymptotics:
    def test_cone_deviation_identically_zero(self):
        assert asymptotic_deviation(CONE, 123.0) == 0.0

    def test_resolved_weighted_bound_and_decay(self):
        taus = np.logspace(2, 6, 50)
        weighted = [
            abs(asymptotic_deviation(RESOLVED, float(t), subtract_gauge=True)) * t**0.25
            for t in taus
        ]
        assert max(weighted) < 2.0
        assert all(b < a for a, b in zip(weighted, weighted[1:]))

    def test_smoothed_decay(self):
        taus = np.logspace(2, 6, 50)
        devs = [asymptotic_deviation(SMOOTHED, float(t), subtract_gauge=True) for t in taus]
        assert all(abs(b) < abs(a) for a, b in zip(devs, devs[1:]))
        assert abs(devs[-1]) < 1e-6

    def test_gauge_constants_are_stable(self):
        assert smoothed_gauge_constant() == pytest.approx(-1.7097494677, abs=1e-7)
        assert resolved_gauge_constant() == pytest.approx(2.3752771, abs=1e-5)

    def test_threshold_enforced(self):
        with pytest.raises(ValueError):
            asymptotic_deviation(SMOOTHED, 5.0)

    def test_raw_deviation_tends_to_gauge(self):
        raw = asymptotic_deviation(SMOOTHED, 1e6)
        assert raw == pytest.approx(smoothed_gauge_constant(), abs=1e-6)


class TestConvergenceSup:
    def test_resolved_sequence(self):
        sups = potential_convergence_sup("resolved", [1.0, 0.5, 0.25, 0.125], 1.0, 10.0, 100)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_smoothed_sequence(self):
        sups = potential_convergence_sup("smoothed", [0.5, 0.25, 0.125], 1.0, 10.0, 100)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_limit_value_small(self):
        sups = potential_convergence_sup("resolved", [1e-3], 1.0, 10.0, 100)
        assert sups[0] < 1e-3

    def test_rejects_bad_annulus(self):
        with pytest.raises(ValueError):
            potential_convergence_sup("resolved", [1.0], 10.0, 1.0)


class TestFamilyValidation:
    def test_smoothed_needs_nonzero_parameter(self):
        with pytest.raises(ValueError):
            PotentialFamily.smoothed(0.0)

    def test_resolved_needs_positive_parameter(self):
        with pytest.raises(ValueError):
            PotentialFamily.resolved(-1.0)

    def test_scales(self):
        assert PotentialFamily.smoothed(2j).scale == 2.0
        assert PotentialFamily.resolved(2.0).scale == 8.0
        assert CONE.scale == 0.0
