"""Defects that an acceptance criterion must catch.

Each test applies one named defect by monkeypatch, runs only the criterion
it targets at the full profile, and asserts that the criterion fails.
"""

import dataclasses
import math

import numpy as np

from conifold_lab import conifold, exterior, hodge, metrics, slag, transitions
from conifold_lab.acceptance import (
    Profile,
    criterion_01,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
)

FULL = Profile.full(seed=0)


def _failures(criterion) -> list[str]:
    _, _, checks = criterion(FULL)
    return checks.failures


class TestC01:
    def test_socle_euler_characteristic_off_by_one(self, monkeypatch):
        """chi(Omega^0) + 1: p = 0 reads the Jacobian ring at its socle
        degree (n + 1)(d - 2).  h^{0,3} becomes 0 while h^{3,0} stays 1, so
        the middle row and conjugation symmetry both fail."""
        chi = hodge.chi_hypersurface_omega_p

        def off_by_one(spec, p):
            return chi(spec, p) + (p == 0)

        monkeypatch.setattr(hodge, "chi_hypersurface_omega_p", off_by_one)
        failures = [f.partition(":")[0] for f in _failures(criterion_01)]
        assert failures == ["middle_row", "diamond_invariants", "full_diamond"]


class TestC03:
    def test_scaled_chart_hessians(self, monkeypatch):
        """Every chart Hessian x (1 + 1e-6) scales det(H) by about 1 + 3e-6.
        A ratio calibrated on the same Hessians is blind to a uniform scale;
        the exact constant is not, so every family's residual fails its
        1e-7 gate."""
        hessians = metrics._chart_hessians

        def scaled(family, coords, prof):
            H, density, chart, checks = hessians(family, coords, prof)
            return H * (1.0 + 1e-6), density, chart, checks

        monkeypatch.setattr(metrics, "_chart_hessians", scaled)
        assert [f.partition(":")[0] for f in _failures(criterion_03)] == [
            "cone_ma_residual", "smoothed_ma_residual", "resolved_ma_residual"
        ]


class TestC04:
    def test_scaled_resolved_slope(self, monkeypatch):
        """f' x (1 + 1e-5) on the resolution moves the zero-section slope by
        about 4e-6, above the 1e-6 gate."""
        derivatives = metrics._resolved_derivatives

        def scaled(sigma, gamma):
            fp, fpp = derivatives(sigma, gamma)
            return fp * (1.0 + 1e-5), fpp

        monkeypatch.setattr(metrics, "_resolved_derivatives", scaled)
        assert [f.partition(":")[0] for f in _failures(criterion_04)] == ["fprime_limit_error"]


class TestC05:
    def test_resolved_gauge_read_at_a_finite_anchor(self, monkeypatch):
        """The gauge read off f_1 at sigma = 1e10 keeps the -6 sigma^{-2/3}
        term there, 1.3e-6 below the limit: the weighted deviations still
        decrease, but the deviation's next order is off by 1.3e-2 against
        a bound of 8e-4."""
        monkeypatch.setattr(metrics, "RESOLVED_GAUGE", 2.3752771196886897)
        assert [f.partition(":")[0] for f in _failures(criterion_05)] == ["resolved_deviation_next_order"]

    def test_shifted_smoothed_gauge(self, monkeypatch):
        """A smoothed gauge 1e-7 too large pushes the deviations through
        zero, so their magnitudes stop decreasing."""
        monkeypatch.setattr(metrics, "SMOOTHED_GAUGE", metrics.SMOOTHED_GAUGE + 1e-7)
        assert "smoothed_deviation_decreasing: expected true" in _failures(criterion_05)

    def test_scaled_smoothed_potential(self, monkeypatch):
        """f x (1 + 1e-9) on the smoothing leaves 1.5e-5 at tau = 1e6."""
        integral = metrics._lattice_integral

        def scaled(sigma):
            value, err = integral(sigma)
            return value * (1.0 + 1e-9), err

        monkeypatch.setattr(metrics, "_lattice_integral", scaled)
        assert any(f.startswith("smoothed_deviation_final:") for f in _failures(criterion_05))


class TestC07:
    def test_midpoint_rule(self, monkeypatch):
        """Second-order polar axes: the resolution-32 period error is about
        4e-4, above the 1e-4 gate."""

        def midpoint(a, b, ncells):
            h = (b - a) / (2 * ncells)
            return a + h * (np.arange(2 * ncells) + 0.5), np.full(2 * ncells, h)

        monkeypatch.setattr(slag, "_composite_gauss2", midpoint)
        failures = _failures(criterion_07)
        assert any(f.startswith("period_rel_error_t1:") for f in failures)

    def test_biased_polar_weights(self, monkeypatch):
        """Weights x (1 + 2e-5) keep every period error near 4e-5, inside the
        gate; the bias does not shrink with the spacing, so the observed
        order collapses (about -0.2)."""
        rule = slag._composite_gauss2

        def biased(a, b, ncells):
            nodes, weights = rule(a, b, ncells)
            return nodes, weights * (1.0 + 2e-5)

        monkeypatch.setattr(slag, "_composite_gauss2", biased)
        assert _failures(criterion_07) == ["order_at_least_2: expected true"]

    def test_swapped_frame_rows(self, monkeypatch):
        """Swapping the two leading frame rows reverses the orientation: the
        kernel's minor and so the period change sign."""
        monkeypatch.setattr(slag, "ORIENTED_FRAME_ORDER", (0, 1, 2))
        value = slag.integrate_volume_form(slag.sample_vanishing_cycle(1.0, 16))
        assert value.real < 0 and math.isclose(-value.real, slag.SPHERE_VOLUME, rel_tol=1e-4)
        failures = _failures(criterion_07)
        assert {f.partition(":")[0] for f in failures} >= {
            "period_rel_error_t1", "period_rel_error_ti", "period_rel_error_tgen",
        }


class TestC08:
    """The residual |Im(e^{-i arg t} Omega)| / |Omega| sees the phase only mod
    pi; each of these defects turns Omega into -Omega on the sampled frames
    and is caught by the orientation alone."""

    def test_negated_form(self, monkeypatch):
        values = slag._chart_form_values
        monkeypatch.setattr(slag, "_chart_form_values", lambda nodes, frames, charts: -values(nodes, frames, charts))
        assert [f.partition(":")[0] for f in _failures(criterion_08)] == ["calibration_orientation_min"]

    def test_form_negated_in_even_charts(self, monkeypatch):
        values = slag._chart_form_values

        def negated_even(nodes, frames, charts):
            out = values(nodes, frames, charts)
            return np.where(charts % 2 == 0, -out, out)

        monkeypatch.setattr(slag, "_chart_form_values", negated_even)
        assert [f.partition(":")[0] for f in _failures(criterion_08)] == ["calibration_orientation_min"]

    def test_swapped_frame_legs(self, monkeypatch):
        monkeypatch.setattr(slag, "ORIENTED_FRAME_ORDER", (0, 1, 2))
        assert [f.partition(":")[0] for f in _failures(criterion_08)] == ["calibration_orientation_min"]


class TestC09:
    def test_scaled_deformation_form(self, monkeypatch):
        """omega_tilde_1 x 1.05 leaves a first-order residual in the
        expansion, so both error ratios fall to about 1."""
        original = conifold.omega_tilde_1_coefficients
        monkeypatch.setattr(conifold, "omega_tilde_1_coefficients", lambda p: 1.05 * original(p))
        failures = _failures(criterion_09)
        assert {f.partition(":")[0] for f in failures} >= {
            "expansion_ratio_first", "expansion_ratio_second",
        }

    def test_doubled_nearest_point_correction(self, monkeypatch):
        """phi_map with the correction t conj(z) / ||z||^2, twice the true
        one: the pullback's w_4 is off at first order in t."""

        def doubled(p, t):
            return conifold.FiberPoint(p.z + t * np.conj(p.z) / p.norm_sq, t)

        monkeypatch.setattr(conifold, "phi_map", doubled)
        failures = _failures(criterion_09)
        assert {f.partition(":")[0] for f in failures} >= {
            "expansion_ratio_first", "expansion_ratio_second",
        }

    def test_flipped_derivative_sign(self, monkeypatch):
        """One flipped entry of the 1-form ^ 3-form table, the one for
        dz_1 ^ (dz_2 ^ dz_3 ^ conj(dz_1)), breaks the cancellation that
        makes the deformation form closed."""
        row = exterior.BASIS[3].index((1, 2, 3))
        column = exterior.BASIS[4].index((0, 1, 2, 3))
        signs = exterior.D_SIGNS.copy()
        assert signs[row, column] == 1.0
        signs[row, column] = -1.0
        monkeypatch.setattr(exterior, "D_SIGNS", signs)
        assert [f.partition(":")[0] for f in _failures(criterion_09)] == ["closedness_fd_norm"]


class TestC10:
    def test_third_betti_number_grows_by_c(self, monkeypatch):
        """b3 + c instead of b3 + 2c after the transition: the records still
        round-trip, but the Euler characteristic no longer drops by 2N."""
        apply = transitions.apply_topology_change

        def short_b3(*args, **kwargs):
            rec = apply(*args, **kwargs)
            b1, b2, b3 = rec.betti_after
            return dataclasses.replace(rec, betti_after=(b1, b2, b3 - rec.c))

        monkeypatch.setattr(transitions, "apply_topology_change", short_b3)
        failures = {f.partition(":")[0] for f in _failures(criterion_10)}
        assert failures == {f"{rec.name}_euler_drop" for rec in transitions.example_catalog()} | {"tian_yau_b3"}
