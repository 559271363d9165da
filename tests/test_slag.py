import cmath
import math

import numpy as np
import pytest

from conifold_lab.slag import (
    SPHERE_VOLUME,
    CycleGrid,
    calibration_residual,
    convergence_order,
    exact_cycle_integral,
    frame_tangency_residual,
    integrate_volume_form,
    perturbed_frame,
    sample_vanishing_cycle,
)
from reference import grid_on_fiber_residual, lagrangian_residual, node_as_fiber_point

GENERIC_T = 0.3 * cmath.exp(1j * math.pi / 5)


class TestGridConstruction:
    def test_node_count_is_resolution_cubed(self):
        grid = sample_vanishing_cycle(1.0, 8)
        assert grid.nodes.shape == (512, 4)

    def test_weights_sum_to_sphere_volume(self):
        for res, bound in ((8, 1e-4), (16, 6e-6), (32, 5e-7)):
            grid = sample_vanishing_cycle(1.0, res)
            assert abs(grid.weights.sum() - SPHERE_VOLUME) / SPHERE_VOLUME < bound

    def test_nodes_on_fiber(self):
        for t in (1.0, GENERIC_T):
            grid = sample_vanishing_cycle(t, 8)
            assert grid_on_fiber_residual(grid) < 1e-12

    def test_real_slice_at_unit_parameter(self):
        grid = sample_vanishing_cycle(1.0, 8)
        assert np.abs(grid.nodes.imag).max() == 0.0

    def test_no_node_hits_the_seam(self):
        grid = sample_vanishing_cycle(1.0, 8)
        assert np.abs(grid.nodes[:, 3]).min() > 1e-4

    def test_rejects_small_or_odd_resolution(self):
        with pytest.raises(ValueError):
            sample_vanishing_cycle(1.0, 6)
        with pytest.raises(ValueError):
            sample_vanishing_cycle(1.0, 9)
        with pytest.raises(ValueError):
            sample_vanishing_cycle(0.0, 8)

    def test_node_as_fiber_point(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        p = node_as_fiber_point(grid, 17)
        assert p.t == GENERIC_T


class TestPeriodIntegral:
    def test_unit_parameter_value(self):
        grid = sample_vanishing_cycle(1.0, 32)
        value = integrate_volume_form(grid)
        assert abs(value - 2 * math.pi**2) / (2 * math.pi**2) < 1e-4

    def test_generic_parameter_linearity(self):
        grid = sample_vanishing_cycle(GENERIC_T, 32)
        value = integrate_volume_form(grid)
        exact = exact_cycle_integral(GENERIC_T)
        assert abs(value - exact) / abs(exact) < 1e-4

    def test_phase_covariance(self):
        ratios = []
        for t in (1.0, 1j, -1.0, GENERIC_T):
            grid = sample_vanishing_cycle(t, 16)
            ratios.append(integrate_volume_form(grid) / t)
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread < 1e-4 * abs(ratios[0])
        assert abs(ratios[0] - 2 * math.pi**2) < 1e-4 * 2 * math.pi**2

    def test_convergence_order_at_least_two(self):
        err_lo, err_hi, order = convergence_order(1.0, 16, 32)
        assert err_hi < err_lo
        assert err_lo / err_hi >= 4.0
        assert order >= 2.0
        # errors sit well above the roundoff floor, so the order is measured
        assert err_hi > 1e-12

    def test_orientation_flip_negates(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        plus = integrate_volume_form(grid, orientation=1)
        minus = integrate_volume_form(grid, orientation=-1)
        assert plus == -minus

    def test_chart_stitched_cross_check(self):
        for t in (1.0, GENERIC_T):
            grid = sample_vanishing_cycle(t, 8)
            a = integrate_volume_form(grid, method="real_slice")
            b = integrate_volume_form(grid, method="chart_stitched")
            assert abs(a - b) < 1e-10 * abs(a)

    def test_matches_conifold_volume_form_values(self):
        # the internal chart evaluation agrees with the conifold module's
        # cycle-normalized contraction, node by node
        from conifold_lab.conifold import FiberPoint, volume_form_value
        from conifold_lab.slag import _chart_form_values

        grid = sample_vanishing_cycle(GENERIC_T, 8)
        for i in (0, 99, 363):
            frame = grid.cycle_frame(i)
            chart = int(np.argmax(np.abs(grid.nodes[i])))
            ours = _chart_form_values(
                grid.nodes[i][None, :], frame[None, :, :], np.array([chart])
            )[0]
            theirs = volume_form_value(
                FiberPoint(grid.nodes[i], GENERIC_T), frame, chart + 1, convention="cycle"
            )
            assert abs(ours - theirs) < 1e-13 * abs(theirs)

    def test_rejects_unknown_method(self):
        grid = sample_vanishing_cycle(1.0, 8)
        with pytest.raises(ValueError):
            integrate_volume_form(grid, method="monte_carlo")
        with pytest.raises(ValueError):
            integrate_volume_form(grid, orientation=2)


class TestCalibration:
    def test_real_slice_is_calibrated(self):
        grid = sample_vanishing_cycle(1.0, 8)
        for i in range(0, 512, 37):
            assert calibration_residual(1.0, grid.nodes[i], grid.cycle_frame(i)) < 1e-10

    def test_generic_phase_nodes(self):
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        rng = np.random.default_rng(0)
        for i in rng.choice(grid.nodes.shape[0], 100, replace=False):
            assert calibration_residual(t, grid.nodes[i], grid.cycle_frame(i)) < 1e-10

    def test_negative_control(self):
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        for i in (3, 77, 1042):
            bad = perturbed_frame(grid.cycle_frame(i))
            assert calibration_residual(t, grid.nodes[i], bad) > 1e-2

    def test_perturbed_frame_stays_fiber_tangent(self):
        # the negative control breaks the Lagrangian condition, not tangency
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 8)
        bad = perturbed_frame(grid.cycle_frame(5))
        assert frame_tangency_residual(grid.nodes[5], bad, t) < 1e-8

    def test_non_tangent_frame_rejected(self):
        grid = sample_vanishing_cycle(1.0, 8)
        frame = grid.cycle_frame(0).astype(complex).copy()
        frame[0] = np.array([1.0, 0, 0, 0]) + frame[0]  # push off the fiber
        if frame_tangency_residual(grid.nodes[0], frame, 1.0) > 1e-8:
            with pytest.raises(ValueError):
                calibration_residual(1.0, grid.nodes[0], frame)

    def test_lagrangian_condition_on_cycle(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        for i in range(0, 512, 41):
            assert lagrangian_residual(grid.nodes[i], grid.cycle_frame(i)) < 1e-10

    def test_phase_rotation_control_stays_lagrangian(self):
        # rotating a leg inside its own complex line keeps the plane
        # Lagrangian; only the calibration phase detects it
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        bad = perturbed_frame(grid.cycle_frame(11))
        assert lagrangian_residual(grid.nodes[11], bad) < 1e-10
        assert calibration_residual(GENERIC_T, grid.nodes[11], bad) > 1e-2

    def test_lagrangian_condition_broken_by_cross_leg_mix(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        frame = grid.cycle_frame(11).astype(complex).copy()
        frame[2] = math.cos(0.2) * frame[2] + math.sin(0.2) * 1j * frame[0]
        assert lagrangian_residual(grid.nodes[11], frame) > 1e-2
