import cmath
import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conifold_lab
from conifold_lab import cli, slag
from conifold_lab.acceptance import Profile, criterion_08
from conifold_lab.slag import (
    MAX_ABS_T,
    MAX_RESOLUTION,
    MIN_ABS_T,
    MIN_RESOLUTION,
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
from reference import (
    dense_cycle_arrays,
    dense_integrate_volume_form,
    grid_on_fiber_residual,
    lagrangian_residual,
    node_as_fiber_point,
)

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

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, complex(1.0, math.nan)])
    def test_rejects_non_finite_parameter(self, t):
        with pytest.raises(ValueError, match="needs a finite t"):
            sample_vanishing_cycle(t, 8)

    def test_rejects_resolution_above_the_bound_before_allocating(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a rejected resolution")

        monkeypatch.setattr("conifold_lab.slag._composite_gauss2", no_grid)
        message = rf"resolution must lie in \[{MIN_RESOLUTION}, {MAX_RESOLUTION}\], got 100000"
        with pytest.raises(ValueError, match=message):
            sample_vanishing_cycle(1.0, 100000)

    @pytest.mark.parametrize("t", [MIN_ABS_T / 10, -MIN_ABS_T / 10, 10 * MAX_ABS_T, 1e-300j])
    def test_rejects_modulus_outside_the_window(self, t):
        with pytest.raises(ValueError, match=r"\|t\| must lie in \[1e-200, 1e\+200\]"):
            sample_vanishing_cycle(t, 8)

    @pytest.mark.parametrize("modulus", [MIN_ABS_T, MAX_ABS_T])
    def test_period_at_the_window_ends(self, modulus):
        """Computed at the actual t: the quadrature error at both ends is
        the unit-modulus error, and the period keeps the 2 pi^2 t law."""
        unit_error = None
        for phase in (1.0, cmath.exp(0.7j)):
            for scale in (1.0, modulus):
                t = scale * phase
                value = integrate_volume_form(sample_vanishing_cycle(t, 16))
                error = abs(value - exact_cycle_integral(t)) / abs(exact_cycle_integral(t))
                unit_error = error if unit_error is None else unit_error
                assert error == pytest.approx(unit_error, rel=1e-6)
                assert value != 0 and math.isfinite(abs(value))

    def test_resolution_128_runs_in_bounded_memory(self, tmp_path):
        """The quadrature keeps one slab in memory: resolution 128 (2.1
        million nodes) stays far below what its full grid would take.  The
        CLI runs under a small launcher, since a child's ru_maxrss also
        counts the peak RSS of the process that started it (pytest's can
        pass 300 MB by the time this test runs)."""
        src = str(Path(conifold_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "conifold_lab.cli", "slag", "--t", "1", "--resolution", "128",
                "--output", str(tmp_path / "report.json")]
        launcher = ("import json, os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
                    "_, status, usage = os.wait4(child.pid, 0); "
                    "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))")
        run = subprocess.run([sys.executable, "-c", launcher, *argv], env=env, capture_output=True, text=True,
                             check=True)
        returncode, maxrss = json.loads(run.stdout)
        assert returncode == 0
        assert json.loads((tmp_path / "report.json").read_text())["results"]["resolution"] == 128
        assert maxrss < 300 * 1024  # kilobytes

    def test_node_as_fiber_point(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        p = node_as_fiber_point(grid, 17)
        assert p.t == GENERIC_T


ORACLE_TS = [m * cmath.exp(1j * a) for m in (1e-3, 1.0, 1e3) for a in (0.0, 2.0, -2.9)]
# the real block kernel and the complex dense oracle differ only in rounding
# and summation order
ORACLE_RTOL = 1e-14


class TestSlabsAgainstDenseGrid:
    @pytest.mark.parametrize("resolution", [8, 16])
    @pytest.mark.parametrize("t", [1.0, GENERIC_T, -1e3j])
    def test_stacked_slabs_are_the_dense_arrays(self, t, resolution):
        grid = sample_vanishing_cycle(t, resolution)
        stacked = (grid.nodes, grid.weights, grid.sphere_points, grid.sphere_frames)
        for ours, dense in zip(stacked, dense_cycle_arrays(t, resolution)):
            assert ours.shape == dense.shape
            assert np.array_equal(ours.view(float), dense.view(float))
            assert np.array_equal(np.signbit(ours.view(float)), np.signbit(dense.view(float)))

    @pytest.mark.parametrize("method", ["real_slice", "chart_stitched"])
    @pytest.mark.parametrize("resolution", [8, 16, 32, 48])
    def test_integral_matches_the_dense_quadrature(self, resolution, method):
        """The real chart-4 block kernel against the complex dense oracle,
        evaluated in chart 4 and in the chart of dominant modulus."""
        for t in ORACLE_TS:
            ours = integrate_volume_form(sample_vanishing_cycle(t, resolution))
            dense = dense_integrate_volume_form(t, resolution, method)
            assert abs(ours - dense) <= ORACLE_RTOL * abs(exact_cycle_integral(t))

    @given(st.floats(-8.0, 8.0), st.floats(-math.pi, math.pi), st.sampled_from([8, 16]))
    @settings(deadline=None)
    def test_kernel_matches_the_dense_oracle_at_every_scale(self, log_modulus, phase, resolution):
        t = 10.0**log_modulus * cmath.exp(1j * phase)
        ours = integrate_volume_form(sample_vanishing_cycle(t, resolution))
        dense = dense_integrate_volume_form(t, resolution)
        assert abs(ours - dense) <= ORACLE_RTOL * abs(exact_cycle_integral(t))

    def test_repeated_calls_return_the_same_bits(self):
        grid = sample_vanishing_cycle(GENERIC_T, 16)
        first = integrate_volume_form(grid)
        assert integrate_volume_form(grid) == first
        assert integrate_volume_form(sample_vanishing_cycle(GENERIC_T, 16)) == first

    @pytest.mark.parametrize("t", [1.0, GENERIC_T, -1e3j])
    def test_indexed_reads_are_the_stacked_rows(self, t):
        grid = sample_vanishing_cycle(t, 16)
        idx = np.random.default_rng(3).choice(16**3, 50, replace=False)
        for ours, stacked in zip(grid.at(idx), (grid.nodes, grid.weights, grid.sphere_points, grid.sphere_frames)):
            assert np.array_equal(ours.view(float), stacked[idx].view(float))

    @pytest.mark.parametrize("resolution", [8, 16, 48])
    def test_quadrature_blocks_are_the_grids_entries(self, resolution):
        """The quadrature's own chart-4 blocks against CycleGrid.at, bit for
        bit and sign bit for sign bit: u_4, the first three entries of each
        oriented leg and the weights, block after block over every theta1
        row (48 ends on a partial block).  An entry handed over as its two
        factors is their product in the kernel's order, and it is read by no
        product _det3 forms: its cofactor partners, the other lower row's
        entries beside its column, are exact scalar zeros."""
        grid = sample_vanishing_cycle(GENERIC_T, resolution)
        start = 0
        for u4, frame, weights, det in slag._chart4_blocks(grid):
            assert det.shape == u4.shape
            rows = u4.shape[0]
            _, at_weights, points, frames = grid.at(np.arange(start * resolution**2, (start + rows) * resolution**2))
            entries = []
            for j, leg in enumerate(frame):
                for i, x in enumerate(leg):
                    if isinstance(x, tuple):
                        partners = [frame[3 - j][m] for m in range(3) if m != i]
                        assert j > 0 and all(type(v) is float and v == 0.0 for v in partners)
                        x = np.multiply(*x)
                    entries.append(np.broadcast_to(x, u4.shape))
            assert sum(isinstance(x, tuple) for leg in frame for x in leg) == 1
            ours = [u4, weights] + entries
            theirs = [points[:, 3], at_weights] + [frames[:, j, i] for j in range(3) for i in range(3)]
            for a, b in zip(ours, theirs, strict=True):
                assert np.array_equal(np.ravel(a).view(np.uint64), b.view(np.uint64))
            start += rows
        assert start == resolution

    def test_quadrature_never_stacks_the_grid(self):
        grid = sample_vanishing_cycle(GENERIC_T, 16)
        integrate_volume_form(grid)
        assert "_stacked" not in vars(grid)

    def test_cli_report_matches_a_dense_report(self, tmp_path, monkeypatch):
        argv = ["slag", "--t", "0.3@36", "--resolution", "16", "--output"]
        assert cli.main(argv + [str(tmp_path / "streamed.json")]) == 0
        monkeypatch.setattr(
            "conifold_lab.slag.integrate_volume_form",
            lambda grid: dense_integrate_volume_form(grid.t, grid.resolution),
        )
        assert cli.main(argv + [str(tmp_path / "dense.json")]) == 0
        ours, dense = (json.loads((tmp_path / name).read_text()) for name in ("streamed.json", "dense.json"))
        scale = abs(complex(dense["results"]["exact_re"], dense["results"]["exact_im"]))
        may_differ = {("results", "integral_re"): scale, ("results", "integral_im"): scale,
                      ("results", "rel_error"): 1.0, ("assertions", 0, "measured"): 1.0}
        flat_ours, flat_dense = _flatten(ours), _flatten(dense)
        assert flat_ours.keys() == flat_dense.keys()
        for path, value in flat_ours.items():
            if path in may_differ:
                assert abs(value - flat_dense[path]) <= ORACLE_RTOL * may_differ[path]
            else:
                assert value == flat_dense[path], path


def _flatten(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, child in items:
        out.update(_flatten(child, path + (key,)))
    return out


# the nine entries of a 3x3 matrix as arrays of shapes that broadcast to (3, 4, 5)
DET_SHAPES = [(3, 1, 1), (1, 4, 1), (1, 1, 5), (3, 4, 1), (1, 4, 5), (3, 1, 5), (5,), (4, 1), (3, 4, 5)]
# cofactor expansion and LU each err by a few roundings of the product of the
# rows' 1-norms (which bounds every product of the expansion)
DET_RTOL = 16 * np.finfo(float).eps


def _rows(entries):
    return [entries[0:3], entries[3:6], entries[6:9]]


class TestDeterminant:
    """_det3 skips the products with an exact scalar-zero factor, and stays
    one expansion over any pattern of such zeros."""

    def test_every_pattern_of_scalar_zeros(self):
        """For each of the 512 patterns of scalar zeros among random entries:
        the value of the full expansion over the same entries as zero arrays
        (a zero result may flip its sign), the same bits with each entry
        given as two factors, and np.linalg.det within DET_RTOL of the product
        of the rows' 1-norms."""
        rng = np.random.default_rng(34)
        arrays = [rng.uniform(-1.0, 1.0, shape) for shape in DET_SHAPES]
        halves = [(2.0, x / 2.0) for x in arrays]  # exact factors of each entry
        for pattern in range(512):
            zero = [pattern >> i & 1 for i in range(9)]
            as_arrays = [np.zeros(x.shape) if z else x for z, x in zip(zero, arrays)]
            ours = slag._det3(_rows([0.0 if z else x for z, x in zip(zero, arrays)]))
            full = slag._det3(_rows(as_arrays))
            assert full.shape == (3, 4, 5)
            assert np.array_equal(np.broadcast_to(ours, full.shape), full), pattern
            factored = slag._det3(_rows([0.0 if z else x for z, x in zip(zero, halves)]))
            assert np.array_equal(np.ravel(factored).view(np.uint64), np.ravel(ours).view(np.uint64)), pattern
            matrix = np.stack(np.broadcast_arrays(*as_arrays), axis=-1).reshape(3, 4, 5, 3, 3)
            scale = np.prod(np.abs(matrix).sum(axis=-1), axis=-1)
            assert np.all(np.abs(ours - np.linalg.det(matrix)) <= DET_RTOL * scale), pattern

    def test_an_unread_factored_entry_is_never_multiplied(self):
        """The oriented frame's pattern: with a, g and h scalar zeros, c, e
        and f are read by skipped products only (e k's term has the factor
        a), so factors that do not even broadcast together are never
        multiplied."""
        b, d, k = np.array([2.0, 3.0]), np.array([5.0, 7.0]), np.array([11.0, 13.0])
        unread = (np.ones(2), np.ones(3))
        rows = [(0.0, b, unread), (d, unread, unread), (0.0, 0.0, k)]
        assert slag._det3(rows).tolist() == (-(b * (d * k))).tolist()
        out = np.empty(2)
        assert slag._det3(rows, out=out) is out and out.tolist() == [-110.0, -273.0]

    @pytest.mark.parametrize("seed,digest", [
        (0, "d527cd02581104898649923f0c8f8c6dac2684d7d266fa9095e4f346e7a4228a"),
        (1, "fd840352f86fee898b6ea62b2da5a8e86f7879255ece48dd16318529f0fb1048"),
    ])
    def test_c08_frames_take_the_full_expansion(self, seed, digest):
        """C08's frames are all arrays: the chart values keep the bits of the
        expansion before zeros were skipped (sha256 of the values)."""
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        rng = np.random.default_rng(seed)
        idx = rng.choice(16**3, Profile.full(seed=seed).calibration_nodes, replace=False)
        nodes, _, _, sphere_frames = grid.at(idx)
        frames = sphere_frames * (grid.sqrt_t / abs(grid.sqrt_t))
        values = slag._chart_form_values(nodes, frames, np.argmax(np.abs(nodes), axis=-1))
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_every_leg_order_gives_the_signed_period(self, order, monkeypatch):
        """Each leg order reaches other zero entries, and the quadrature still
        gives the period times the order's sign against the oriented one."""
        grid = sample_vanishing_cycle(GENERIC_T, 16)
        oriented = integrate_volume_form(grid)
        monkeypatch.setattr(slag, "ORIENTED_FRAME_ORDER", order)
        inversions = sum(a > b for a, b in itertools.combinations(order, 2))
        sign = -(-1) ** inversions  # the oriented order (1, 0, 2) is odd
        assert abs(integrate_volume_form(grid) - sign * oriented) <= 1e-14 * abs(oriented)


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

    @given(st.floats(-8.0, 8.0), st.floats(-math.pi, math.pi))
    @settings(deadline=None)
    def test_period_is_linear_in_t(self, log_modulus, phase):
        """I(t) / t is one constant over |t| in 1e-8..1e8 and every phase:
        the 2 pi^2 t law up to the rule's error, which does not depend on t."""
        t = 10.0**log_modulus * cmath.exp(1j * phase)
        unit = integrate_volume_form(sample_vanishing_cycle(1.0, 16))
        ratio = integrate_volume_form(sample_vanishing_cycle(t, 16)) / t
        assert abs(ratio - unit) <= 1e-12 * abs(unit)
        assert abs(unit - SPHERE_VOLUME) < 1e-4 * SPHERE_VOLUME

    def test_chart_stitched_cross_check(self):
        for t in (1.0, GENERIC_T):
            a = integrate_volume_form(sample_vanishing_cycle(t, 8))
            b = dense_integrate_volume_form(t, 8, method="chart_stitched")
            assert abs(a - b) < 1e-10 * abs(a)

    def test_seam_node_is_rejected(self):
        grid = sample_vanishing_cycle(1.0, 8)
        on_seam = dataclasses.replace(grid, phi=grid.phi._replace(sin=np.zeros(8)))
        with pytest.raises(ValueError, match="x4 = 0 seam"):
            integrate_volume_form(on_seam)

    def test_matches_conifold_volume_form_values(self):
        # the internal chart evaluation agrees with the conifold module's
        # cycle-normalized contraction, node by node
        from conifold_lab.conifold import FiberPoint
        from reference import volume_form_value
        from conifold_lab.slag import _chart_form_values

        grid = sample_vanishing_cycle(GENERIC_T, 8)
        nodes, frames = cycle_frames(grid, [0, 99, 363])
        charts = np.argmax(np.abs(nodes), axis=1)
        for node, frame, chart, ours in zip(nodes, frames, charts, _chart_form_values(nodes, frames, charts)):
            theirs = volume_form_value(FiberPoint(node, GENERIC_T), frame, chart + 1, convention="cycle")
            assert abs(ours - theirs) < 1e-13 * abs(theirs)


def cycle_frames(grid, indices):
    """Nodes and oriented cycle frames at the given flat indices: the sphere
    triads transported by t^{1/2} / |t^{1/2}|."""
    nodes, _, _, sphere_frames = grid.at(indices)
    return nodes, sphere_frames * (grid.sqrt_t / abs(grid.sqrt_t))


class TestCalibration:
    def test_real_slice_is_calibrated(self):
        grid = sample_vanishing_cycle(1.0, 8)
        residual, orientation = calibration_residual(1.0, *cycle_frames(grid, range(0, 512, 37)))
        assert residual.max() < 1e-10 and orientation.min() > 1.0 - 1e-10

    def test_generic_phase_nodes(self):
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        rng = np.random.default_rng(0)
        residual, _ = calibration_residual(t, *cycle_frames(grid, rng.choice(grid.resolution**3, 100, replace=False)))
        assert residual.max() < 1e-10

    @pytest.mark.parametrize("t", [1.0, cmath.exp(1j * math.pi / 3), -1.0, GENERIC_T])
    def test_oriented_in_every_chart(self, t):
        """Re(e^{-i arg t} Omega(frame)) / |Omega(frame)| is 1 at every node,
        whichever chart the node is evaluated in: the oriented frame carries
        the form's phase arg t, not arg t + pi."""
        grid = sample_vanishing_cycle(t, 16)
        nodes, frames = cycle_frames(grid, None)
        charts = np.argmax(np.abs(nodes), axis=1)
        assert set(charts.tolist()) == {0, 1, 2, 3}
        residual, orientation = calibration_residual(t, nodes, frames)
        assert residual.max() < 1e-10
        assert np.abs(orientation - 1.0).max() < 1e-14

    def test_reversed_frame_is_caught_by_the_orientation_only(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        nodes, frames = cycle_frames(grid, [3, 200, 411])
        residual, orientation = calibration_residual(GENERIC_T, nodes, frames[:, [1, 0, 2]])
        assert residual.max() < 1e-10
        assert np.abs(orientation + 1.0).max() < 1e-14

    def test_stacked_call_matches_one_node_calls(self):
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        nodes, frames = cycle_frames(grid, [5, 1042, 77, 3000])
        stacked = calibration_residual(t, nodes, frames)
        for i in range(4):
            single = calibration_residual(t, nodes[i : i + 1], frames[i : i + 1])
            assert (single[0][0], single[1][0]) == (stacked[0][i], stacked[1][i])

    def test_negative_control(self):
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 16)
        nodes, frames = cycle_frames(grid, [3, 77, 1042])
        residual, _ = calibration_residual(t, nodes, perturbed_frame(frames))
        assert residual.min() > 1e-2

    def test_perturbed_frame_stays_fiber_tangent(self):
        # the negative control breaks the Lagrangian condition, not tangency
        t = cmath.exp(1j * math.pi / 3)
        grid = sample_vanishing_cycle(t, 8)
        nodes, frames = cycle_frames(grid, [5])
        assert frame_tangency_residual(nodes, perturbed_frame(frames)).max() < 1e-8

    def test_non_tangent_frame_rejected(self):
        grid = sample_vanishing_cycle(1.0, 8)
        nodes, frames = cycle_frames(grid, [0, 1])
        frames[1, 0] += np.array([1.0, 0, 0, 0])  # push one node's frame off the fiber
        assert frame_tangency_residual(nodes, frames)[1] > 1e-8
        with pytest.raises(ValueError, match="^frame is not tangent to the fiber at the node$"):
            calibration_residual(1.0, nodes, frames)

    def test_lagrangian_condition_on_cycle(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        nodes, frames = cycle_frames(grid, range(0, 512, 41))
        for node, frame in zip(nodes, frames):
            assert lagrangian_residual(node, frame) < 1e-10

    def test_phase_rotation_control_stays_lagrangian(self):
        # rotating a leg inside its own complex line keeps the plane
        # Lagrangian; only the calibration phase detects it
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        nodes, frames = cycle_frames(grid, [11])
        bad = perturbed_frame(frames)
        assert lagrangian_residual(nodes[0], bad[0]) < 1e-10
        assert calibration_residual(GENERIC_T, nodes, bad)[0][0] > 1e-2

    def test_lagrangian_condition_broken_by_cross_leg_mix(self):
        grid = sample_vanishing_cycle(GENERIC_T, 8)
        nodes, frames = cycle_frames(grid, [11])
        frame = frames[0]
        frame[2] = math.cos(0.2) * frame[2] + math.sin(0.2) * 1j * frame[0]
        assert lagrangian_residual(nodes[0], frame) > 1e-2

    def test_c08_reads_only_its_sample(self, monkeypatch):
        """C08 builds its 100 nodes by index and never stacks the grid."""
        grids = []

        def recorded(t, resolution):
            grids.append(sample_vanishing_cycle(t, resolution))
            return grids[-1]

        monkeypatch.setattr(slag, "sample_vanishing_cycle", recorded)
        _, _, checks = criterion_08(Profile.full())
        assert checks.failures == [] and len(grids) == 1
        assert "_stacked" not in vars(grids[0])
