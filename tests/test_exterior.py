import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conifold_lab import conifold
from conifold_lab.conifold import (
    FiberPoint,
    fd_exterior_derivative,
    omega_tilde_1_coefficients,
    pullback_volume_form,
    random_tangent_frame,
    volume_form_chart_coefficients,
)
from conifold_lab.exterior import BASIS, D_SIGNS, evaluate, wedge
from reference import (
    _sort_with_sign,
    as_dense,
    dict_omega_tilde_1_coefficients,
    dict_pullback_volume_form,
    fd_exterior_derivative_per_point,
    fiber_component,
    form_evaluate,
    wedge_all,
)

EPS = np.finfo(float).eps
ULPS = 4


def _within_ulps(stacked: np.ndarray, rows: list, scale=None) -> bool:
    """Every row of a stacked result equals its one-call result to ULPS ulps
    of scale, by default that row's largest coefficient."""
    rows = np.array(rows).reshape(stacked.shape)
    scale = np.max(np.abs(rows), axis=-1, keepdims=True) if scale is None else scale
    return bool(np.all(np.abs(stacked - rows) <= ULPS * EPS * scale))


def test_sort_with_sign_against_permutation_determinants():
    """Every index tuple of length <= 5 over five covectors: the key is the
    sorted tuple, a repeated index gives sign 0, and otherwise the sign is
    the determinant of the sorting permutation's matrix."""
    for length in range(6):
        for indices in itertools.product(range(5), repeat=length):
            key, sign = _sort_with_sign(indices)
            assert key == tuple(sorted(indices))
            if len(set(indices)) < length:
                assert sign == 0
                continue
            perm = np.zeros((length, length))
            for position, index in enumerate(indices):
                perm[position, key.index(index)] = 1.0
            assert sign == (round(np.linalg.det(perm)) if length else 1)


def test_derivative_sign_table_against_sorting():
    """Row 20 a + K of D_SIGNS is e_a ^ e_K: the sorted key's sign from the
    oracle, and zero when a is already in K."""
    for a in range(6):
        for k, key in enumerate(BASIS[3]):
            expected = np.zeros(len(BASIS[4]))
            sorted_key, sign = _sort_with_sign((a,) + key)
            if sign:
                expected[BASIS[4].index(sorted_key)] = sign
            assert np.array_equal(D_SIGNS.reshape(6, 20, 15)[a, k], expected)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_wedge_matches_the_dict_algebra(k, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, 6)) + 1j * rng.normal(size=(k, 6))
    oracle = as_dense(wedge_all({(j,): c for j, c in enumerate(row)} for row in rows), k)
    assert np.max(np.abs(wedge(rows) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stacked_wedge_is_the_wedge_of_each_stack_entry(k, seed):
    """A (2, 3, k, 6) stack gives each entry's one-call minors to a few ulps
    of their Hadamard bound, the product of the row norms: a minor that
    cancels (k = 6) may be summed in another order."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(2, 3, k, 6)) + 1j * rng.normal(size=(2, 3, k, 6))
    stacked = wedge(rows)
    assert stacked.shape == (2, 3, len(BASIS[k]))
    hadamard = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)[..., None]
    assert _within_ulps(stacked, [wedge(entry) for block in rows for entry in block], hadamard)


@st.composite
def cone_point_and_parameter(draw):
    """A chart-4 point of the singular fiber with ||z||^2 in 1e-6..1e6 and a
    global phase, and a parameter t of any phase with |t| <= 0.1 ||z||^2."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    z123 = np.array(parts[:3]) + 1j * np.array(parts[3:])
    z = np.append(z123, np.sqrt(-np.sum(z123**2) + 0j))
    norm_sq = float(np.sum(np.abs(z) ** 2))
    assume(norm_sq > 1e-3 and abs(z[3]) >= 0.3 * math.sqrt(norm_sq))
    target = 10.0 ** draw(st.floats(-6.0, 6.0))
    phase = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    p = FiberPoint(z * (phase * math.sqrt(target / norm_sq)), 0.0)
    t = draw(st.floats(0.0, 0.1)) * p.norm_sq * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    return p, t


@st.composite
def cone_point_stack(draw):
    """One to six points drawn as cone_point_and_parameter draws them, as a
    stack (P, 4), (1, P, 4) or (P, 1, 4), and one parameter t with
    |t| <= 0.1 ||z||^2 at every point."""
    draws = draw(st.lists(cone_point_and_parameter(), min_size=1, max_size=6))
    z = np.array([p.z for p, _ in draws])
    norm_sq = np.array([p.norm_sq for p, _ in draws])
    t = draws[0][1] * np.min(norm_sq) / norm_sq[0]
    return FiberPoint(z.reshape(draw(st.sampled_from([(-1, 4), (1, -1, 4), (-1, 1, 4)]))), 0.0), t


@given(cone_point_stack())
@settings(max_examples=60, deadline=None)
def test_stacked_forms_are_the_one_point_forms(stack_and_t):
    """The volume form, the pullback, the deformation form and its
    finite-difference exterior derivative of a stack agree with one call per
    point, and the exterior derivative with the stencil rebuilt and evaluated
    one point at a time.  The derivative cancels terms of size
    |omega_tilde_1| / h, so its ulps are those of that size."""
    stack, t = stack_and_t
    points = [FiberPoint(z, 0.0) for z in stack.z.reshape(-1, 4)]
    assert _within_ulps(volume_form_chart_coefficients(stack), [volume_form_chart_coefficients(p) for p in points])
    assert _within_ulps(pullback_volume_form(stack, t), [pullback_volume_form(p, t) for p in points])
    first = omega_tilde_1_coefficients(stack)
    assert _within_ulps(first, [omega_tilde_1_coefficients(p) for p in points])
    h = 1e-4 * np.sqrt(stack.norm_sq)[..., None]
    scale = 8 * np.max(np.abs(first), axis=-1, keepdims=True) / h
    derivative = fd_exterior_derivative(stack)
    assert derivative.shape == stack.z.shape[:-1] + (len(BASIS[4]),)
    assert _within_ulps(derivative, [fd_exterior_derivative(p) for p in points], scale)
    assert _within_ulps(derivative, [fd_exterior_derivative_per_point(p) for p in points], scale)


@given(cone_point_stack())
@settings(max_examples=30, deadline=None)
def test_stacked_stencil_differentiates_as_the_per_point_stencil(stack_and_t):
    """The same comparison for conj(z_1) omega_tilde_1, which is not closed:
    its derivative has the size of omega_tilde_1 instead of the stencil's
    rounding, so a wrong z_4 branch, offset or weight in either stencil
    shows far outside the ulps."""
    stack, _ = stack_and_t
    points = [FiberPoint(z, 0.0) for z in stack.z.reshape(-1, 4)]
    form = conifold.omega_tilde_1_coefficients

    def not_closed(p):
        return form(p) * np.conj(p.z[..., :1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conifold, "omega_tilde_1_coefficients", not_closed)
        patch.setattr(reference, "omega_tilde_1_coefficients", not_closed)
        derivative = fd_exterior_derivative(stack)
        per_point = [fd_exterior_derivative_per_point(p) for p in points]
    h = 1e-4 * np.sqrt(stack.norm_sq)[..., None]
    scale = 8 * np.max(np.abs(not_closed(stack)), axis=-1, keepdims=True) / h
    assert np.all(np.max(np.abs(derivative), axis=-1) > 1e-3 * np.max(np.abs(form(stack)), axis=-1))
    assert _within_ulps(derivative, per_point, scale)


def _relative_gap(dense: np.ndarray, form: dict, k: int = 3) -> float:
    oracle = as_dense(form, k)
    return float(np.max(np.abs(dense - oracle)) / np.max(np.abs(oracle)))


@given(cone_point_and_parameter(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_dense_forms_match_the_dict_oracle(point_and_t, seed):
    """The pullback, the deformation form and its contraction with a tangent
    frame agree with the term-by-term dict algebra to 1e-14 relative."""
    p, t = point_and_t
    assert _relative_gap(pullback_volume_form(p, t), dict_pullback_volume_form(p, t)) <= 1e-14
    dense = omega_tilde_1_coefficients(p)
    form = dict_omega_tilde_1_coefficients(p)
    assert _relative_gap(dense, form) <= 1e-14
    frame = random_tangent_frame(p, np.random.default_rng(seed))
    terms = [
        coeff * np.linalg.det([[fiber_component(v, i) for i in key] for v in frame])
        for key, coeff in form.items()
    ]
    gap = abs(evaluate(dense, frame) - form_evaluate(form, frame, fiber_component))
    assert gap <= 1e-14 * max(abs(term) for term in terms)
