"""Defects that an acceptance criterion must catch.

Each test applies one named defect by monkeypatch, runs only the criterion
it targets at the full profile, and asserts that the criterion fails.
"""

import dataclasses
import inspect
import json
import math
import textwrap

import numpy as np
import pytest

import reference
from conifold_lab import acceptance, cli, conifold, exterior, hodge, metrics, slag, transitions
from conifold_lab.acceptance import (
    Profile,
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
)

FULL = Profile.full(seed=0)


def _failures(criterion) -> list[str]:
    _, _, checks = criterion(FULL)
    return checks.failures


def _rewritten(module, name: str, old: str, new: str):
    """The module's function `name` compiled from its source with the one
    occurrence of `old` replaced by `new`, resolving names in the module."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
    return namespace[name]


class TestC01:
    def test_socle_euler_characteristic_off_by_one(self, monkeypatch):
        """chi(Omega^0) + 1: p = 0 reads the Jacobian ring at its socle
        degree (n + 1)(d - 2).  h^{0,3} becomes 0 while h^{3,0} stays 1, so
        the middle row and conjugation symmetry both fail."""
        chis = hodge.chi_hypersurface_omega

        def off_by_one(spec):
            return [chi + (p == 0) for p, chi in enumerate(chis(spec))]

        monkeypatch.setattr(hodge, "chi_hypersurface_omega", off_by_one)
        failures = [f.partition(":")[0] for f in _failures(criterion_01)]
        assert failures == ["middle_row", "diamond_invariants", "full_diamond"]


class TestC02:
    def test_moduli_dimension_off_by_one(self, monkeypatch):
        """moduli_dimension + 1: both moduli counts miss, while the K3
        diamond, which does not read them, still passes."""
        moduli = hodge.moduli_dimension
        monkeypatch.setattr(hodge, "moduli_dimension", lambda n, d: moduli(n, d) + 1)
        failures = [f.partition(":")[0] for f in _failures(criterion_02)]
        assert failures == ["quintic_moduli", "quartic_moduli"]


class TestC03:
    def test_scaled_chart_hessians(self, monkeypatch):
        """Every chart Hessian x (1 + 1e-6) scales det(H) by about 1 + 3e-6.
        A ratio calibrated on the same Hessians is blind to a uniform scale;
        the exact constant is not, so every family's residual fails its
        1e-7 gate."""
        hessians = metrics.chart_hessians

        def scaled(family, coords, prof):
            H, density, chart = hessians(family, coords, prof)
            return H * (1.0 + 1e-6), density, chart

        monkeypatch.setattr(metrics, "chart_hessians", scaled)
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


class TestC06:
    def test_swapped_smoothed_parameters(self):
        """|t| = 0.25 before 0.5: the smoothing's sups rise once, and only its
        strict-decrease check fails; its last sup still passes."""
        swapped = _rewritten(acceptance, "criterion_06", "(0.5, 0.25, 0.125, 1e-3)", "(0.25, 0.5, 0.125, 1e-3)")
        assert [f.partition(":")[0] for f in _failures(swapped)] == ["smoothed_sups_strictly_decreasing"]

    def test_repeated_resolved_parameter(self):
        """a = 0.5 twice: two equal sups are not a strict decrease."""
        repeated = _rewritten(acceptance, "criterion_06", "(1.0, 0.5, 0.25, 0.125, 1e-3)", "(1.0, 0.5, 0.5, 0.125, 1e-3)")
        assert [f.partition(":")[0] for f in _failures(repeated)] == ["resolved_sups_strictly_decreasing"]


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
        assert _failures(criterion_07) == ["order_at_least_2: expected true", "order_in_window: expected true"]

    def test_stretched_gauss_offsets(self, monkeypatch):
        """Gauss offsets x (1 + 1e-3): the rule loses its fourth order, but
        the resolution-32 period error is 3.6e-6, under the 1e-4 gate, and
        the observed order 2.37 is above 2.  Only the order window sees it;
        C08's calibration holds on any node of the cycle."""
        stretched = _rewritten(slag, "_composite_gauss2", "/ math.sqrt(3.0)", "/ math.sqrt(3.0) * (1.0 + 1e-3)")
        monkeypatch.setattr(slag, "_composite_gauss2", stretched)
        results = acceptance.run_criteria(FULL)
        assert [r.cid for r in results if not r.passed] == ["C07"]
        c07 = next(r for r in results if r.cid == "C07")
        assert c07.failures == ["order_in_window: expected true"]
        assert c07.details["convergence_errors"]["measured"][1] < 1e-4
        assert 2.0 < c07.details["order_in_window"]["measured"] < 3.5

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

    def test_hard_coded_surviving_term(self, monkeypatch):
        """A kernel that forms only -b (d k), the one term left in the
        oriented frame, keeps every period's bits, so C07 passes; with the
        legs in order (0, 1, 2) it multiplies d = 0.0, the period reads 0 and
        test_swapped_frame_rows fails."""
        grid = slag.sample_vanishing_cycle(0.3 + 0.2j, 32)
        period = slag.integrate_volume_form(grid)

        def surviving_term(rows, out=None):
            (_, b, _), (d, _, _), (_, _, k) = rows
            return np.multiply(b, -(d * k), out=out)

        monkeypatch.setattr(slag, "_det3", surviving_term)
        assert slag.integrate_volume_form(grid) == period and _failures(criterion_07) == []
        with pytest.raises(AssertionError):
            self.test_swapped_frame_rows(monkeypatch)
        assert slag.ORIENTED_FRAME_ORDER == (0, 1, 2) and slag.integrate_volume_form(grid) == 0.0


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

    def test_flipped_30_term(self, monkeypatch):
        """+conj(z_4) / (2 z_4^2 ||z||^2) for the (3,0) term of omega_tilde_1:
        the expansion no longer matches at first order, and the stencil,
        which evaluates the same function, finds the form far from closed."""
        flipped = _rewritten(conifold, "omega_tilde_1_coefficients", "= -np.conj(z4) /", "= np.conj(z4) /")
        monkeypatch.setattr(conifold, "omega_tilde_1_coefficients", flipped)
        assert [f.partition(":")[0] for f in _failures(criterion_09)] == [
            "expansion_ratio_first", "expansion_ratio_second", "closedness_fd_norm",
        ]

    def test_stencil_without_its_far_right_point(self, monkeypatch):
        """Finite-difference weights (1, -8, 8, 0) / 12h: the stencil's +2h
        points are dropped, the weights no longer sum to zero, and the
        'derivative' is about |omega_tilde_1| / 12h."""
        original = conifold.omega_tilde_1_coefficients

        def without_plus_2h(p):
            form = original(p)
            if p.z.ndim > 1:  # the stencil: offsets -2h, -h, +h, +2h along axis -2
                form[..., 3, :] = 0.0
            return form

        monkeypatch.setattr(conifold, "omega_tilde_1_coefficients", without_plus_2h)
        assert [f.partition(":")[0] for f in _failures(criterion_09)] == ["closedness_fd_norm"]


class TestC10:
    def test_third_betti_number_grows_by_c(self, monkeypatch):
        """b3 + c instead of b3 + 2c after the transition: the records still
        round-trip, but the Euler characteristic no longer drops by 2N."""
        apply = hodge.apply_topology_change

        def short_b3(*args, **kwargs):
            rec = apply(*args, **kwargs)
            b1, b2, b3 = rec.betti_after
            return dataclasses.replace(rec, betti_after=(b1, b2, b3 - rec.c))

        monkeypatch.setattr(hodge, "apply_topology_change", short_b3)
        failures = {f.partition(":")[0] for f in _failures(criterion_10)}
        assert failures == {f"{rec.name}_euler_drop" for rec in hodge.example_catalog()} | {"tian_yau_b3"}


class TestC11:
    def test_unsigned_pivot_entries(self, monkeypatch, tmp_path, capsys):
        """The stacked solver with the sign dropped from its pivot weights
        (the integer weights -P_r(s) at the pivot columns) no longer
        annihilates the classes, and the solver's own check raises inside
        C11.  The raise is C11's failure: verify-all exits 1 with a full
        report, and C12 still runs."""
        unsigned = _rewritten(transitions, "friedman_witnesses", "powers - values[", "powers + values[")
        monkeypatch.setattr(transitions, "friedman_witnesses", unsigned)
        out = tmp_path / "report.json"
        assert cli.main(["verify-all", "--criteria", "C11,C12", "--output", str(out)]) == 1
        c11, c12 = json.loads(out.read_text())["results"]["criteria"]
        assert (c11["cid"], c11["passed"]) == ("C11", False)
        assert c11["failures"] == ["AssertionError: witness fails the annihilation identity"]
        assert (c12["cid"], c12["passed"]) == ("C12", True)
        assert capsys.readouterr().err.endswith("FAILING CRITERIA: C11\n")

    def test_one_feasible_class_reported_infeasible(self, monkeypatch):
        """A stacked solver that answers infeasible for the one class of the
        2 x 1 matrices with both entries nonzero, a feasible class
        (lambda = (1, -1) up to signs), inside the stack it solves: every
        other answer is right, so only the exhaustive oracle sees it, and it
        counts each of the class's four matrices."""
        solve = transitions.friedman_witnesses
        missed = []

        def misses_one(mats):
            feasible, weights, denominators = solve(mats)
            if mats.shape[1:] == (2, 1):
                hits = np.flatnonzero((mats == -1).all(axis=(1, 2)))
                assert feasible[hits].all()
                missed.extend(hits)
                feasible = feasible.copy()
                feasible[hits] = False
            return feasible, weights, denominators

        monkeypatch.setattr(transitions, "friedman_witnesses", misses_one)
        _, _, checks = criterion_11(FULL)
        assert len(missed) == 1
        assert [f.partition(":")[0] for f in checks.failures] == ["oracle_mismatches"]
        assert checks.details["oracle_mismatches"]["measured"] == 4

    def test_oracle_blind_to_independent_rows(self, monkeypatch):
        """The rank oracle without its `not independent` term: linearly
        independent rows lose one rank to every deletion, so their deleted
        ranks all agree and the oracle calls them smoothable.  Only C11 runs
        the oracle, and it counts every sign matrix with independent rows,
        which needs N <= m."""
        blind = _rewritten(acceptance, "feasibility_oracle", "np.logical_not(independent)", "True")
        monkeypatch.setattr(acceptance, "feasibility_oracle", blind)
        results = acceptance.run_criteria(FULL)
        assert [r.cid for r in results if not r.passed] == ["C11"]
        c11 = next(r for r in results if r.cid == "C11")
        assert [f.partition(":")[0] for f in c11.failures] == ["oracle_mismatches"]
        independent = sum(
            int(np.count_nonzero(reference.batched_integer_rank(reference.stacked_sign_matrices(n, m)) == n))
            for m in range(1, 4) for n in range(1, m + 1)
        )
        assert c11.details["oracle_mismatches"]["measured"] == independent


class TestModularElimination:
    """Defects of the elimination modulo word-size primes, which only
    matrices past the int64 bound reach (C11's sign matrices never do): each
    is applied to the solver and caught on the matrix built to expose it."""

    def test_one_prime_fewer_than_the_bound_needs(self, monkeypatch):
        """Two primes where the minor bound needs three: the last pivot E^4
        of the diagonal classes exceeds their product, its residue rebuilds
        another integer while the entries E^3 below it come back right, and
        the solver's own annihilation check fails."""
        E = 200000
        rows = [[E, 0, 0, 0], [0, E, 0, 0], [0, 0, E, 0], [0, 0, 0, E], [1, 1, 1, 1]]
        assert E**4 > math.prod(transitions._primes(2))
        assert transitions.friedman_witness(transitions.ClassMatrix(rows)) == reference.kernel_basis_witness(rows)
        fewer = _rewritten(transitions, "_eliminate_modular", "k = max(2, ", "k = -1 + max(2, ")
        monkeypatch.setattr(transitions, "_eliminate_modular", fewer)
        with pytest.raises(AssertionError, match="annihilation identity"):
            transitions.friedman_witness(transitions.ClassMatrix(rows))

    @pytest.mark.parametrize("unlucky", ["pivot_minor", "last_exact_pivot"])
    def test_pivot_agreement_skipped(self, unlucky, monkeypatch):
        """Without the check that a matrix's primes agree on its pivots, the
        first prime's residues, which lost a pivot, enter the Chinese
        remainder sum: the rebuilt integers fail the annihilation check."""
        p = transitions._primes(1)[0]
        rows = [[1, 1], [1, 1 + p], [-2, -2 - p]] if unlucky == "pivot_minor" else [[p, 1], [1 - p, 1], [p - 2, -3]]
        assert transitions.friedman_witness(transitions.ClassMatrix(rows)) == reference.kernel_basis_witness(rows)
        blind = _rewritten(transitions, "_eliminate_modular", "(keys != keys[:, :1]).any(axis=(1, 2))",
                           "np.zeros(count, dtype=bool)")
        monkeypatch.setattr(transitions, "_eliminate_modular", blind)
        with pytest.raises(AssertionError, match="annihilation identity"):
            transitions.friedman_witness(transitions.ClassMatrix(rows))


class TestC12:
    def test_scaled_dwork_hessians(self, monkeypatch):
        """Every Dwork Hessian x 1.5 scales each node's |det H| by 1.5^4 and
        its threshold with it, so every node still certifies as an ordinary
        double point; only the closed form |det H| = 5^7 sees the defect."""
        hessian = transitions.DworkQuintic.hessian
        monkeypatch.setattr(transitions.DworkQuintic, "hessian", lambda self, z: 1.5 * hessian(self, z))
        _, _, checks = criterion_12(FULL)
        assert [f.partition(":")[0] for f in checks.failures] == ["node_det_closed_form"]
        assert checks.details["node_det_closed_form"]["measured"] == pytest.approx(1.5**4 - 1.0)

    def test_exact_check_without_the_product_term(self, monkeypatch, tmp_path):
        """The exact check with the -5 prod Z_i term dropped from F leaves
        F = sum Z_i^5, which is 5 at every node: no row passes, so only the
        exact proof fails, and `dwork --exact` reports it with exit 1."""
        mutant = _rewritten(transitions, "dwork_exact_check", " - 5 * x[total % 5]", "")
        monkeypatch.setattr(transitions, "dwork_exact_check", mutant)
        assert not mutant(transitions.dwork_exponents()).any()
        assert _failures(criterion_12) == ["exact_cyclotomic_all: expected true"]
        out = tmp_path / "report.json"
        assert cli.main(["dwork", "--exact", "--output", str(out)]) == 1
        assert json.loads(out.read_text())["results"]["exact_cyclotomic"] is False

    def test_a_node_in_the_smooth_sample(self, monkeypatch, tmp_path):
        """A sampler whose first point is a node: its gradient vanishes, so
        its Hessian is formed and it certifies as a double point, not as
        smooth.  C12 fails on the smooth sample alone, and `dwork
        --smooth-points 200` exits 1: forming Hessians only where the
        gradient vanishes leaves the sample's certificate able to fail."""
        sampler = transitions.random_dwork_smooth_points

        def with_a_node(count, seed=0):
            points = sampler(count, seed).copy()
            points[0] = transitions.dwork_nodes()[0]
            return points

        monkeypatch.setattr(transitions, "random_dwork_smooth_points", with_a_node)
        record = transitions.verify_odps(transitions.DworkQuintic(), with_a_node(200))
        assert record.status.tolist() == ["odp"] + ["not_singular"] * 199
        assert not np.isnan(record.hessian_det[0]) and np.isnan(record.hessian_det[1:]).all()
        assert _failures(criterion_12) == ["smooth_points_not_singular: expected true"]
        out = tmp_path / "report.json"
        assert cli.main(["dwork", "--smooth-points", "200", "--output", str(out)]) == 1
        failed = [a["name"] for a in json.loads(out.read_text())["assertions"] if not a["passed"]]
        assert failed == ["smooth_sample_not_singular"]
