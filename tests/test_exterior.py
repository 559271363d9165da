import cmath
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conifold_lab.conifold import (
    FiberPoint,
    omega_tilde_1_coefficients,
    pullback_volume_form,
    random_tangent_frame,
)
from conifold_lab.exterior import BASIS, D_SIGNS, evaluate, wedge
from reference import (
    _sort_with_sign,
    as_dense,
    dict_omega_tilde_1_coefficients,
    dict_pullback_volume_form,
    fiber_component,
    form_evaluate,
    wedge_all,
)


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
