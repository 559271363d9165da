import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_lab.acceptance import Profile, criterion_09
from conifold_lab.conifold import (
    FiberPoint,
    chart_margin,
    fd_exterior_derivative,
    omega_tilde_1,
    omega_tilde_1_coefficients,
    on_fiber,
    phi_map,
    pullback_volume_form,
    random_tangent_frame,
    rescale_fiber,
    tangent_frame,
    volume_form_chart_coefficients,
)
from conifold_lab.exterior import BASIS, evaluate
from reference import (
    OMEGA_TILDE_BASIS,
    ResolvedPoint,
    conjugate_point,
    dominant_chart,
    holomorphic_volume_form,
    omega_tilde_1_vector,
    quadric_residual,
    quadric_to_fiber,
    real_coordinates,
    resolve_project,
    resolved_rescale,
    splitting_to_point,
    volume_form_value,
)


def cone_point_with_dominant_z4() -> FiberPoint:
    z123 = np.array([0.31 + 0.22j, -0.25 + 0.14j, 0.18 - 0.29j])
    z4 = 1j * np.sqrt(np.sum(z123**2))
    return FiberPoint(np.append(z123, z4), 0.0)


def random_cone_points(rng, count, radius_range=(1.0, 1.0)):
    """Points of the singular fiber: z4 solves the quadric, then a real scale
    sets the radius (real scalings preserve the fiber)."""
    points = []
    while len(points) < count:
        z123 = rng.normal(size=3) + 1j * rng.normal(size=3)
        z4 = np.sqrt(-np.sum(z123**2) + 0j)
        z = np.append(z123, z4)
        norm = np.linalg.norm(z)
        if norm < 1e-3:
            continue
        target = rng.uniform(*radius_range)
        points.append(FiberPoint(z * (target / norm), 0.0))
    return points


def refusal(fn, z, t: complex = 0.0) -> str:
    """The ValueError message of fn at the point z alone, after checking that
    a stack holding z among three good cone points raises the same one."""
    with pytest.raises(ValueError) as alone:
        fn(FiberPoint(z, t))
    good = 3.0 * cone_point_with_dominant_z4().z * np.array([[1.0], [1j], [-2.0]])
    with pytest.raises(ValueError) as stacked:
        fn(FiberPoint(np.insert(good, 2, z, axis=0), t))
    assert str(stacked.value) == str(alone.value)
    return str(alone.value)


class TestFiberPoint:
    def test_a_stack_along_the_last_axis(self):
        p = FiberPoint(np.ones((2, 3, 4)), 0.5)
        assert p.norm_sq.shape == p.fiber_residual().shape == on_fiber(p).shape == (2, 3)
        assert np.all(p.norm_sq == 4.0) and np.all(p.fiber_residual() == 3.5)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (2, 5)])
    def test_rejects_a_last_axis_other_than_4(self, shape):
        with pytest.raises(ValueError, match="4-vector"):
            FiberPoint(np.zeros(shape))


class TestOnFiber:
    def test_origin_on_cone(self):
        assert on_fiber(FiberPoint([0, 0, 0, 0], 0.0))

    def test_unit_vector_on_unit_fiber(self):
        assert on_fiber(FiberPoint([1, 0, 0, 0], 1.0))

    def test_unit_vector_not_on_cone(self):
        assert not on_fiber(FiberPoint([1, 0, 0, 0], 0.0))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            on_fiber(FiberPoint([1, 0, 0, 0], 1.0), tol=0.0)


class TestRescaleFiber:
    def test_identity(self):
        p = FiberPoint([1, 1j, 0, 0], 0.0)
        q = rescale_fiber(p, 1.0)
        assert np.allclose(q.z, p.z) and q.t == p.t

    def test_maps_unit_fiber_to_fiber_t(self):
        rng = np.random.default_rng(0)
        z123 = rng.normal(size=3) + 1j * rng.normal(size=3)
        z4 = np.sqrt(1.0 - np.sum(z123**2) + 0j)
        p = FiberPoint(np.append(z123, z4), 1.0)
        t = 0.2 - 0.7j
        q = rescale_fiber(p, t ** (1.0 / 3.0))
        assert on_fiber(q, 1e-12)
        assert abs(q.t - t) < 1e-12

    @given(st.floats(0.05, 20.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_norm_homogeneity(self, mag, arg):
        lam = mag * cmath.exp(1j * arg)
        p = FiberPoint([1.0, 1j, 0.5, 0.5j], 0.0)
        q = rescale_fiber(p, lam)
        assert np.isclose(
            np.linalg.norm(q.z), abs(lam) ** 1.5 * np.linalg.norm(p.z), rtol=1e-12
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rescale_fiber(FiberPoint([1, 1j, 0, 0], 0.0), 0.0)


class TestPhiMap:
    def test_zero_parameter_is_identity(self):
        p = cone_point_with_dominant_z4()
        q = phi_map(p, 0.0)
        assert np.allclose(q.z, p.z)

    def test_norm_identity(self):
        rng = np.random.default_rng(1)
        t = 0.3 + 0.4j
        worst = 0.0
        for p in random_cone_points(rng, 10_000, radius_range=(abs(t) ** 0.5, 10.0)):
            q = phi_map(p, t)
            s = p.norm_sq
            worst = max(worst, abs(q.norm_sq - s - abs(t) ** 2 / (4 * s)) / s)
        assert worst < 1e-12

    def test_lands_on_target_fiber(self):
        rng = np.random.default_rng(2)
        t = -0.8 + 0.1j
        for p in random_cone_points(rng, 200, radius_range=(1.0, 5.0)):
            q = phi_map(p, t)
            assert abs(complex(np.sum(q.z**2)) - t) < 1e-12 * (1 + q.norm_sq)

    def test_injectivity_audit(self):
        rng = np.random.default_rng(3)
        t = 0.5
        pts = random_cone_points(rng, 2000, radius_range=(abs(t) ** 0.5, 10.0))
        images = np.array([phi_map(p, t).z for p in pts])
        for i in range(0, 2000, 2):
            a, b = pts[i], pts[i + 1]
            if np.max(np.abs(a.z - b.z)) < 1e-9:
                continue
            assert np.max(np.abs(images[i] - images[i + 1])) > 1e-12

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(4)
        for t in (0.3, 1.0, 2.5):
            for p in random_cone_points(rng, 20, radius_range=(1.3, 3.0)):
                lhs = phi_map(conjugate_point(p), t).z
                rhs = np.conj(phi_map(p, t).z)
                assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_rejects_cone_point(self):
        message = refusal(lambda p: phi_map(p, 1.0), [0, 0, 0, 0])
        assert message == "phi_map is undefined at the cone point"

    def test_rejects_outside_injectivity_domain(self):
        message = refusal(lambda p: phi_map(p, 1.0), 0.1 * np.array([1, 1j, 0, 0]))
        assert message.startswith("||z||^2 = 0.02") and message.endswith("is not inside the injectivity domain (> |t|/2)")
        with pytest.raises(ValueError, match=r"^\|\|z\|\|\^2 = 0\.08"):
            phi_map(FiberPoint([[0.2, 0.2j, 0, 0], [0.1, 0.1j, 0, 0]], 0.0), 1.0)

    def test_rejects_a_point_off_the_singular_fiber(self):
        message = refusal(lambda p: phi_map(p, 0.5), [1, 0, 0, 0])
        assert message == "point does not satisfy the singular-fiber equation"

    def test_rejects_smooth_fiber_input(self):
        with pytest.raises(ValueError):
            phi_map(FiberPoint([1, 0, 0, 0], 1.0), 0.5)


class TestVolumeForm:
    def test_chart4_coefficient_at_pole(self):
        p = FiberPoint([0, 0, 0, 1], 1.0)
        tf = holomorphic_volume_form(p, chart=4)
        assert tf.coeff == pytest.approx(1 / 2)

    def test_degenerate_chart_rejected(self):
        p = FiberPoint([0, 0, 0, 1], 1.0)
        with pytest.raises(ValueError):
            holomorphic_volume_form(p, chart=3)

    @pytest.mark.parametrize("form", [volume_form_chart_coefficients, omega_tilde_1_coefficients])
    def test_degenerate_chart_4_rejected_in_a_stack(self, form):
        message = refusal(form, [1, 1j, 0, 0])
        assert message == "chart 4 degenerate: |z_4| = 0.000e+00 below margin 3.536e-01"

    def test_dominant_chart_margin(self):
        p = cone_point_with_dominant_z4()
        assert abs(p.z[dominant_chart(p) - 1]) >= chart_margin(p)

    def test_cross_chart_consistency(self):
        rng = np.random.default_rng(5)
        checked = 0
        worst = 0.0
        while checked < 1000:
            z123 = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = rng.normal() + 1j * rng.normal()
            z4 = np.sqrt(t - np.sum(z123**2))
            p = FiberPoint(np.append(z123, z4), t)
            norm = math.sqrt(p.norm_sq)
            if np.min(np.abs(p.z)) < 0.26 * norm:
                continue
            frame = random_tangent_frame(p, rng)
            values = [volume_form_value(p, frame, chart=j) for j in (1, 2, 3, 4)]
            scale = max(abs(v) for v in values)
            worst = max(worst, max(abs(v - values[0]) for v in values) / scale)
            checked += 1
        assert worst < 1e-10

    def test_cross_chart_single_generic_point(self):
        # tighter single-point version: all four charts agree to 1e-12
        rng = np.random.default_rng(21)
        z123 = np.array([0.9 + 0.1j, -0.8 + 0.3j, 0.7 - 0.5j])
        z4 = np.sqrt(1.0 - np.sum(z123**2))
        p = FiberPoint(np.append(z123, z4), 1.0)
        assert np.min(np.abs(p.z)) > 0.25 * math.sqrt(p.norm_sq)
        frame = random_tangent_frame(p, rng)
        values = [volume_form_value(p, frame, chart=j) for j in (1, 2, 3, 4)]
        scale = max(abs(v) for v in values)
        assert max(abs(v - values[0]) for v in values) < 1e-12 * scale

    def test_cycle_convention_is_twice_residue(self):
        p = cone_point_with_dominant_z4()
        frame = random_tangent_frame(p, np.random.default_rng(6))
        res = volume_form_value(p, frame, convention="residue")
        cyc = volume_form_value(p, frame, convention="cycle")
        assert cyc == pytest.approx(2 * res)


def fd_pullback_value(p: FiberPoint, t: complex, frame, h: float = 1e-6) -> complex:
    """Oracle for the finite-parameter pullback: differentiate the map
    z -> z + t conj(z)/(2||z||^2) numerically and contract the chart-4 value
    dz1^dz2^dz3 / w4 with the pushed-forward frame.  Uses nothing from the
    package's form machinery."""

    def phi(z: np.ndarray) -> np.ndarray:
        return z + t * np.conj(z) / (2 * np.sum(np.abs(z) ** 2))

    base = p.z
    pushed = []
    for leg in frame:
        plus = phi(base + h * leg)
        minus = phi(base - h * leg)
        plus2 = phi(base + 2 * h * leg)
        minus2 = phi(base - 2 * h * leg)
        pushed.append((8 * (plus - minus) - (plus2 - minus2)) / (12 * h))
    w4 = phi(base)[3]
    det = np.linalg.det(np.array([leg[:3] for leg in pushed]))
    return det / w4


class TestOmegaTilde1:
    def test_type_is_30_plus_21(self):
        form = omega_tilde_1_coefficients(cone_point_with_dominant_z4())
        for key, coeff in zip(BASIS[3], form):
            if coeff != 0:
                assert sum(1 for idx in key if idx >= 3) in (0, 1)

    def test_coefficient_vector_layout(self):
        p = cone_point_with_dominant_z4()
        vec = omega_tilde_1_vector(p)
        form = omega_tilde_1_coefficients(p)
        assert vec.shape == (10,)
        assert vec[0] == form[BASIS[3].index((0, 1, 2))]
        assert OMEGA_TILDE_BASIS[1] == (3, 0, 1)

    def test_scale_invariance(self):
        p = cone_point_with_dominant_z4()
        frame = random_tangent_frame(p, np.random.default_rng(7))
        v_ref = omega_tilde_1(p, frame)
        for lam in (0.5, 2.0, 10.0):
            q = rescale_fiber(p, lam)
            scaled = [complex(lam) ** 1.5 * leg for leg in frame]
            assert abs(omega_tilde_1(q, scaled) - v_ref) < 1e-10 * abs(v_ref)

    def test_volume_form_degree_two(self):
        # under z -> mu z the chart volume form scales by mu^2; the weighted
        # rescaling by lam uses mu = lam^{3/2}
        p = cone_point_with_dominant_z4()
        frame = random_tangent_frame(p, np.random.default_rng(8))
        v0 = evaluate(volume_form_chart_coefficients(p), frame)
        lam = 2.0
        q = rescale_fiber(p, lam)
        scaled = [lam**1.5 * leg for leg in frame]
        v1 = evaluate(volume_form_chart_coefficients(q), scaled)
        assert v1 == pytest.approx((lam**1.5) ** 2 * v0, rel=1e-12)

    def test_expansion_against_coefficients(self):
        p = cone_point_with_dominant_z4()
        base = volume_form_chart_coefficients(p)
        first = omega_tilde_1_coefficients(p)
        errors = []
        for t in (1e-2, 1e-3, 1e-4):
            pulled = pullback_volume_form(p, t)
            errors.append(np.max(np.abs((pulled - base) / t - first)))
        assert 8.0 < errors[0] / errors[1] < 12.0
        assert 8.0 < errors[1] / errors[2] < 12.0

    def test_expansion_against_fd_oracle(self):
        # fully independent route: numerical differential of the identification
        p = cone_point_with_dominant_z4()
        rng = np.random.default_rng(9)
        frame = random_tangent_frame(p, rng)
        v_first = omega_tilde_1(p, frame)
        v_base = evaluate(volume_form_chart_coefficients(p), frame)
        errors = []
        for t in (1e-2, 1e-3):
            v_t = fd_pullback_value(p, t, frame)
            errors.append(abs((v_t - v_base) / t - v_first))
        # first-order term correct: residual is dominated by the t^2 term
        assert errors[0] < 0.1 * abs(v_first)
        assert errors[1] < 0.02 * abs(v_first)
        assert errors[1] < 0.3 * errors[0]

    def test_c09_keys_are_those_of_the_per_point_code(self):
        """C09's four measured values at GENERIC_CONE_POINT (seed 0), recorded
        with the stencil evaluated one point at a time: the stacked stencil
        and forms give them bit for bit."""
        _, _, chk = criterion_09(Profile.full(seed=0))
        assert {name: item["measured"] for name, item in chk.details.items()} == {
            "expansion_ratio_first": 10.000000000000002,
            "expansion_ratio_second": 9.999999999999998,
            "closedness_fd_norm": 5.684208817798986e-11,
            "scale_invariance_residual": 1.1258133953552213e-15,
        }

    def test_stacked_forms_keep_the_per_point_bits(self):
        """The deformation form and its stencil derivative of 128 seeded cone
        points as one stack: the sha256 of their bytes was recorded with one
        call per point and the stencil rebuilt one point at a time.  It pins
        the rounding of z_4^2 (numpy's scalar product) and of ||z||^4 (libm's
        pow), which the array operations would change in the last bit."""
        rng = np.random.default_rng(28)
        points = [p for p in random_cone_points(rng, 512, radius_range=(0.1, 10.0))
                  if abs(p.z[3]) >= 0.3 * math.sqrt(p.norm_sq)][:128]
        stack = FiberPoint(np.array([p.z for p in points]), 0.0)
        data = np.concatenate([omega_tilde_1_coefficients(stack), fd_exterior_derivative(stack)], axis=-1)
        assert data.shape == (128, 35)
        assert hashlib.sha256(data.tobytes()).hexdigest() == (
            "10cfd25cd5ba587fcde9307cb2f31c82d356f0c0ed5c378cae29b0350cfaae2f"
        )

    def test_closedness_by_finite_differences(self):
        p = cone_point_with_dominant_z4()
        first = omega_tilde_1_coefficients(p)
        derivative = fd_exterior_derivative(p)
        scale = np.max(np.abs(first)) / math.sqrt(p.norm_sq)
        d_norm = np.max(np.abs(derivative))
        assert d_norm < 1e-6 * scale

    def test_derivative_refuses_its_own_point(self):
        """The stencil derivative checks the point it is asked at before it
        builds the stencil around it: off the singular fiber, in a degenerate
        chart 4 and at the cone point, alone and as one row of a stack."""
        assert refusal(fd_exterior_derivative, [1, 0, 0, 0]) == "point does not satisfy the singular-fiber equation"
        assert refusal(fd_exterior_derivative, [1, 1j, 0, 0]) == (
            "chart 4 degenerate: |z_4| = 0.000e+00 below margin 3.536e-01")
        assert refusal(fd_exterior_derivative, [0, 0, 0, 0]) == "all coordinates vanish: no chart is usable"

    def test_rejects_origin_and_smooth_fiber(self):
        message = refusal(omega_tilde_1_coefficients, [0, 0, 0, 0])
        assert message == "the deformation form is singular at the cone point"
        with pytest.raises(ValueError):
            omega_tilde_1_coefficients(FiberPoint([0, 0, 0, 1], 1.0))


class TestRealCoordinates:
    def test_zero_section_point(self):
        t = 0.49
        split = real_coordinates(FiberPoint([math.sqrt(t), 0, 0, 0], t))
        assert np.allclose(split.u, [1, 0, 0, 0])
        assert np.allclose(split.v, 0.0)

    def test_vanishing_cycle_has_zero_tangent(self):
        t = 2.0
        u = np.array([0.5, 0.5, 0.5, 0.5])
        split = real_coordinates(FiberPoint(math.sqrt(t) * u, t))
        assert np.allclose(split.v, 0.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(split.u), 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        t = 0.7
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            y -= (x @ y) / (x @ x) * x
            x *= math.sqrt((y @ y + t) / (x @ x))
            p = FiberPoint(x + 1j * y, t)
            split = real_coordinates(p)
            assert abs(np.linalg.norm(split.u) - 1) < 1e-12
            assert abs(split.u @ split.v) < 1e-12
            back = splitting_to_point(split, t)
            assert np.max(np.abs(back.z - p.z)) < 1e-12
            assert back.fiber_residual() < 1e-12

    def test_rejects_complex_parameter(self):
        with pytest.raises(ValueError):
            real_coordinates(FiberPoint([1, 0, 0, 0], 1.0j))

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            real_coordinates(FiberPoint([1j, 0, 0, 0], -1.0))


class TestSmallResolution:
    def test_zero_section_collapses(self):
        q = ResolvedPoint([1.0, 0.5], [0.0, 0.0])
        assert np.allclose(resolve_project(q), 0.0)

    def test_substitution_example(self):
        q = ResolvedPoint([1.0, 0.0], [1.0, 1.0])
        image = resolve_project(q)
        assert np.allclose(image, [1, 0, 1, 0])
        assert quadric_residual(image) == 0.0

    def test_image_on_quadric_and_cone(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = ResolvedPoint(rng.normal(size=2) + 1j * rng.normal(size=2),
                              rng.normal(size=2) + 1j * rng.normal(size=2))
            image = resolve_project(q)
            assert quadric_residual(image) < 1e-14 * (1 + np.max(np.abs(image)) ** 2)
            assert on_fiber(quadric_to_fiber(image), 1e-12)

    def test_injective_away_from_zero_section(self):
        rng = np.random.default_rng(12)
        points = []
        images = []
        for _ in range(1000):
            q = ResolvedPoint(rng.normal(size=2) + 1j * rng.normal(size=2),
                              rng.normal(size=2) + 1j * rng.normal(size=2))
            if np.linalg.norm(q.w) < 1e-3:
                continue
            points.append(q)
            images.append(resolve_project(q))
        images = np.array(images)
        for i in range(0, len(images) - 1, 2):
            qa, qb = points[i], points[i + 1]
            distinct = (
                np.max(np.abs(qa.u - qb.u)) > 1e-9 or np.max(np.abs(qa.w - qb.w)) > 1e-9
            )
            if distinct:
                assert np.max(np.abs(images[i] - images[i + 1])) > 1e-10

    def test_rescale_identity(self):
        q = ResolvedPoint([1.0, 0.3j], [0.4, -0.2])
        r = resolved_rescale(q, 1.0)
        assert np.allclose(r.u, q.u) and np.allclose(r.w, q.w)

    def test_rescale_fiber_norm(self):
        q = ResolvedPoint([1.0, 0.3j], [0.4, -0.2])
        a = 3.0
        r = resolved_rescale(q, a)
        assert np.isclose(np.linalg.norm(r.w), a**1.5 * np.linalg.norm(q.w))

    def test_rescale_commutes_with_projection(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            q = ResolvedPoint(rng.normal(size=2) + 1j * rng.normal(size=2),
                              rng.normal(size=2) + 1j * rng.normal(size=2))
            a = float(rng.uniform(0.1, 4.0))
            lhs = resolve_project(resolved_rescale(q, a))
            rhs = a**1.5 * resolve_project(q)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            resolved_rescale(ResolvedPoint([1, 0], [0, 0]), 0.0)

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            ResolvedPoint([0.0, 0.0], [1.0, 0.0])


class TestTangentFrames:
    def test_projection_is_tangent(self):
        p = cone_point_with_dominant_z4()
        rng = np.random.default_rng(14)
        for leg in random_tangent_frame(p, rng):
            assert abs(np.sum(p.z * leg)) < 1e-12

    def test_explicit_seed_frame(self):
        p = cone_point_with_dominant_z4()
        seeds = np.eye(4, dtype=complex)[:3]
        for leg in tangent_frame(p, seeds):
            assert abs(np.sum(p.z * leg)) < 1e-12
