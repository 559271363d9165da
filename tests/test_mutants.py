"""Defects that an acceptance criterion must catch.

Each test applies one named defect by monkeypatch, runs only the criterion
it targets at the full profile, and asserts that the criterion fails.
"""

import math

import numpy as np

from conifold_lab import conifold, exterior, slag
from conifold_lab.acceptance import Profile, criterion_07, criterion_09

FULL = Profile.full(seed=0)


def _failures(criterion) -> list[str]:
    _, _, checks = criterion(FULL)
    return checks.failures


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
