import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_lab.hodge import (
    HypersurfaceSpec,
    chi_hypersurface_omega_p,
    chi_line_bundle,
    chi_omega_p_twist,
    ext_binomial,
    hodge_diamond,
    moduli_dimension,
    quartic_k3_moduli_dimension,
    quintic_moduli_dimension,
)
from reference import EulerCharQuery, chi_line_bundle_fraction


def product_oracle(n: int, m: int) -> Fraction:
    """Independent evaluation of chi(O(m)): plain rational product, no shared code."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(m + i)
    return out / math.factorial(n)


class TestChiLineBundle:
    def test_structure_sheaf(self):
        assert chi_line_bundle(4, 0) == 1

    def test_negative_twist_small(self):
        # (-1)^3 * C(3, 3) and the independent product oracle agree
        assert chi_line_bundle(3, -4) == -1
        assert product_oracle(3, -4) == -1
        assert (-1) ** 3 * ext_binomial(4 - 1, 3) == -1

    def test_negative_twist_p4(self):
        assert chi_line_bundle(4, -5) == 1
        assert product_oracle(4, -5) == 1
        assert (-1) ** 4 * ext_binomial(5 - 1, 4) == 1

    @given(st.integers(1, 8), st.integers(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_matches_product_oracle(self, n, m):
        value = chi_line_bundle(n, m)
        assert isinstance(value, int)
        assert value == product_oracle(n, m)
        assert value == chi_line_bundle_fraction(n, m)

    @given(st.integers(1, 8), st.integers(0, 25))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_twists_are_binomials(self, n, m):
        assert chi_line_bundle(n, m) == math.comb(n + m, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_n_polynomial_in_twist(self, n):
        # finite differences of order n+1 vanish identically, in exact integers
        values = [chi_line_bundle(n, m) for m in range(-12, 13)]
        for _ in range(n + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert all(v == 0 for v in values)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            chi_line_bundle(0, 3)


class TestChiTwistedForms:
    def test_cotangent_untwisted(self):
        assert chi_omega_p_twist(4, 1, 0) == -1

    def test_hand_unrolled_recursion(self):
        # C(4,1) chi(O(-5)) - chi(O(-4)) = 4 (-4) - (-1)
        assert chi_omega_p_twist(3, 1, 4) == -15
        assert 4 * chi_line_bundle(3, -5) - chi_line_bundle(3, -4) == -15

    def test_p_zero_reduces_to_line_bundle(self):
        assert chi_omega_p_twist(5, 0, 0) == 1

    def test_top_form_is_canonical_bundle(self):
        # Omega^n = O(-n-1), so chi(Omega^n) = chi(O(-n-1)) = (-1)^n
        for n in range(1, 7):
            assert chi_omega_p_twist(n, n, 0) == chi_line_bundle(n, -n - 1)

    @pytest.mark.parametrize("p", [-1, 5])
    def test_rejects_out_of_range_degree(self, p):
        with pytest.raises(ValueError):
            chi_omega_p_twist(4, p, 0)


class TestEulerCharQuery:
    def test_dispatch_targets(self):
        assert EulerCharQuery(4, 1, 0).evaluate() == -1
        assert EulerCharQuery(4, 1, 0, d=5, target="restricted_to_X").evaluate() == -25
        assert EulerCharQuery(4, 1, 0, d=5, target="hypersurface").evaluate() == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            EulerCharQuery(4, 5, 0)
        with pytest.raises(ValueError):
            EulerCharQuery(4, 1, -1)
        with pytest.raises(ValueError):
            EulerCharQuery(4, 1, 0, target="mystery")


class TestChiHypersurface:
    def test_quintic_cotangent(self):
        assert chi_hypersurface_omega_p(HypersurfaceSpec(4, 5), 1, 0) == 100

    def test_quartic_cotangent(self):
        # chi(restricted 1-forms) - chi(O_X(-4)) = 14 - 34, each via line bundles
        spec = HypersurfaceSpec(3, 4)
        restricted = (
            chi_omega_p_twist(3, 1, 0)
            - chi_omega_p_twist(3, 1, 4)
        )
        twisted_structure = chi_line_bundle(3, -4) - chi_line_bundle(3, -8)
        assert restricted == 14
        assert twisted_structure == 34
        assert chi_hypersurface_omega_p(spec, 1, 0) == restricted - twisted_structure == -20

    def test_quintic_structure_sheaf(self):
        spec = HypersurfaceSpec(4, 5)
        expected = chi_line_bundle(4, 0) - chi_line_bundle(4, -5)
        assert chi_hypersurface_omega_p(spec, 0, 0) == expected == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chi_hypersurface_omega_p(HypersurfaceSpec(4, 5), 4, 0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_calabi_yau_closed_form(self, n):
        spec = HypersurfaceSpec(n, n + 1)
        closed = -1 - (-1) ** n * (n + 1) ** 2 + (-1) ** n * math.comb(2 * n + 1, n)
        assert chi_hypersurface_omega_p(spec, 1, 0) == closed
        # the middle Hodge number h^{n-2,1} follows from the same chi
        diamond = hodge_diamond(spec)
        if n == 3:  # middle diagonal: the delta term is part of the entry
            assert diamond.h(1, 1) == -closed
        else:
            assert diamond.h(n - 2, 1) == (-1) ** (n - 2) * (closed + 1)

    def test_general_degree_closed_form(self):
        # chi(Omega_X) = -1 - (-1)^n (n+1) C(d,n) + (-1)^n C(2d-1, n)
        for n in range(3, 8):
            for d in range(1, n + 4):
                closed = (
                    -1
                    - (-1) ** n * (n + 1) * ext_binomial(d, n)
                    + (-1) ** n * ext_binomial(2 * d - 1, n)
                )
                assert chi_hypersurface_omega_p(HypersurfaceSpec(n, d), 1, 0) == closed


class TestHodgeDiamond:
    def test_quintic(self):
        diamond = hodge_diamond(HypersurfaceSpec(4, 5))
        assert diamond.middle_row() == (1, 101, 101, 1)
        assert diamond.h(1, 1) == 1
        assert diamond.h(2, 1) == 101
        assert diamond.euler_characteristic() == -200
        diamond.check_invariants()

    def test_quartic_k3(self):
        diamond = hodge_diamond(HypersurfaceSpec(3, 4))
        assert diamond.h(1, 1) == 20
        assert diamond.h(0, 0) == diamond.h(2, 2) == 1
        assert diamond.h(2, 0) == diamond.h(0, 2) == 1
        assert diamond.h(1, 0) == diamond.h(0, 1) == 0
        assert diamond.euler_characteristic() == 24

    def test_hyperplane_is_projective_space(self):
        diamond = hodge_diamond(HypersurfaceSpec(4, 1))
        for p in range(4):
            for q in range(4):
                assert diamond.h(p, q) == (1 if p == q else 0)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            hodge_diamond(HypersurfaceSpec(2, 3))

    def test_invariant_sweep(self):
        # all four structural invariants, exactly, across the contract range
        for n in range(3, 9):
            for d in range(1, n + 4):
                hodge_diamond(HypersurfaceSpec(n, d)).check_invariants()

    def test_entries_are_exact_integers(self):
        diamond = hodge_diamond(HypersurfaceSpec(6, 7))
        assert all(isinstance(h, int) for row in diamond.entries for h in row)

    def test_cubic_surface(self):
        # classical check: the cubic surface has h11 = 7
        diamond = hodge_diamond(HypersurfaceSpec(3, 3))
        assert diamond.h(1, 1) == 7
        assert diamond.h(2, 0) == 0

    def test_json_shape(self):
        data = hodge_diamond(HypersurfaceSpec(4, 5)).to_json_dict()
        assert data["dim"] == 3
        assert len(data["h"]) == 4 and all(len(row) == 4 for row in data["h"])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_euler_characteristic_against_chern_class_oracle(self, n):
        # independent route: chi_top = d * [H^{n-1}-coefficient of
        # (1+H)^{n+1} / (1+dH)], which never touches the chi recursion
        for d in range(1, n + 4):
            coefficient = sum(
                math.comb(n + 1, n - 1 - j) * (-d) ** j for j in range(n)
            )
            diamond = hodge_diamond(HypersurfaceSpec(n, d))
            assert diamond.euler_characteristic() == d * coefficient


class TestModuliCounts:
    def test_quintic(self):
        assert quintic_moduli_dimension() == 101

    def test_quartic(self):
        assert quartic_k3_moduli_dimension() == 19

    def test_cubic_curve(self):
        assert moduli_dimension(2, 3) == 1

    def test_matches_hodge_number_for_quintic(self):
        diamond = hodge_diamond(HypersurfaceSpec(4, 5))
        assert quintic_moduli_dimension() == diamond.h(2, 1)
