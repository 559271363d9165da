import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conifold_lab
import reference
from conifold_lab import acceptance, cli, hodge
from conifold_lab.hodge import (
    MAX_DEGREE,
    MAX_DIMENSION,
    HypersurfaceSpec,
    chi_hypersurface_omega_p,
    hodge_diamond,
    jacobian_ring_dimension,
    moduli_dimension,
)
from reference import (
    EulerCharQuery,
    chi_line_bundle,
    chi_line_bundle_fraction,
    chi_omega_p_twist,
    ext_binomial,
)


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
        assert chi_hypersurface_omega_p(HypersurfaceSpec(4, 5), 1) == 100

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
        assert chi_hypersurface_omega_p(spec, 1) == restricted - twisted_structure == -20

    def test_quintic_structure_sheaf(self):
        spec = HypersurfaceSpec(4, 5)
        expected = chi_line_bundle(4, 0) - chi_line_bundle(4, -5)
        assert chi_hypersurface_omega_p(spec, 0) == expected == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chi_hypersurface_omega_p(HypersurfaceSpec(4, 5), 4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_calabi_yau_closed_form(self, n):
        spec = HypersurfaceSpec(n, n + 1)
        closed = -1 - (-1) ** n * (n + 1) ** 2 + (-1) ** n * math.comb(2 * n + 1, n)
        assert chi_hypersurface_omega_p(spec, 1) == closed
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
                assert chi_hypersurface_omega_p(HypersurfaceSpec(n, d), 1) == closed


class TestHodgeDiamond:
    def test_quintic(self):
        diamond = hodge_diamond(HypersurfaceSpec(4, 5))
        assert diamond.middle_row() == (1, 101, 101, 1)
        assert diamond.h(1, 1) == 1
        assert diamond.h(2, 1) == 101
        assert diamond.euler_characteristic() == -200
        assert diamond.check_invariants() is None

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
                assert hodge_diamond(HypersurfaceSpec(n, d)).check_invariants() is None

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


def _tampered_diamond(spec):
    """The true diamond with h^{1,1} set to 7: h^{2,2} stays 1, so Serre
    duality fails."""
    diamond = hodge_diamond(spec)
    diamond.entries[1][1] = 7
    return diamond


# the same tampering, reported by C01 in a child interpreter
TAMPERED_C01 = """
from conifold_lab import acceptance, hodge
build = hodge.hodge_diamond
def tampered(spec):
    diamond = build(spec)
    diamond.entries[1][1] = 7
    return diamond
hodge.hodge_diamond = tampered
_, _, checks = acceptance.criterion_01(acceptance.Profile.full())
print(checks.details["diamond_invariants"]["measured"])
"""


class TestTamperedDiamond:
    """The invariant check returns its violation instead of asserting, so it
    holds under python -O too."""

    def test_check_names_the_first_violation(self):
        assert _tampered_diamond(HypersurfaceSpec(4, 5)).check_invariants() == "Serre duality violated"

    def test_c01_and_the_hodge_report_fail(self, monkeypatch, tmp_path):
        monkeypatch.setattr(hodge, "hodge_diamond", _tampered_diamond)
        _, _, checks = acceptance.criterion_01(acceptance.Profile.full())
        assert "diamond_invariants: expected true" in checks.failures
        assert checks.details["diamond_invariants"]["measured"] == "Serre duality violated"
        out = tmp_path / "hodge.json"
        assert cli.main(["hodge", "--n", "4", "--d", "5", "--output", str(out)]) == 1
        items = {item["name"]: item for item in json.loads(out.read_text())["assertions"]}
        assert items["diamond_invariants"] == {
            "name": "diamond_invariants", "passed": False, "tolerance": None, "measured": "Serre duality violated",
        }

    def test_c01_fails_under_python_O(self):
        src = str(Path(conifold_lab.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-O", "-c", TAMPERED_C01], env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, check=True)
        assert child.stdout == "Serre duality violated\n"


class TestJacobianRing:
    def test_quintic_deformations(self):
        # 126 quintic monomials minus the 25-dimensional span of x_i dF/dx_j
        assert jacobian_ring_dimension(HypersurfaceSpec(4, 5), 5) == 101

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 5), (5, 3), (6, 2), (7, 9)])
    def test_gorenstein_symmetry(self, n, d):
        # the ring is Gorenstein with a one-dimensional socle in degree (n+1)(d-2)
        spec = HypersurfaceSpec(n, d)
        socle = (n + 1) * (d - 2)
        assert jacobian_ring_dimension(spec, socle) == 1
        assert jacobian_ring_dimension(spec, -1) == 0
        # zero above the socle, also where every term of the sum is present
        for k in range(socle + 1, (n + 1) * (d - 1) + 4):
            assert jacobian_ring_dimension(spec, k) == 0
        for k in range(socle + 1):
            assert jacobian_ring_dimension(spec, k) == jacobian_ring_dimension(spec, socle - k)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_recursion_oracle(self, n, monkeypatch):
        """Every p and every degree d = 1..n+6 against the exact-sequence
        recursion.  The oracle's pure helpers are memoized for speed only."""
        for name in ("chi_line_bundle", "chi_omega_p_twist"):
            cached = functools.lru_cache(maxsize=None)(getattr(reference, name))
            monkeypatch.setattr(reference, name, cached)
        for d in range(1, n + 7):
            spec = HypersurfaceSpec(n, d)
            for p in range(n):
                expected = reference.chi_hypersurface_omega_p_recursion(spec, p, 0)
                assert chi_hypersurface_omega_p(spec, p) == expected, (n, d, p)

    def test_largest_calabi_yau_diamond(self):
        n, d = MAX_DIMENSION, MAX_DIMENSION + 1
        diamond = hodge_diamond(HypersurfaceSpec(n, d))
        assert diamond.check_invariants() is None
        assert diamond.euler_characteristic() == ((1 - d) ** (n + 1) - 1) // d + n + 1

    def test_rejects_sizes_above_the_bounds(self):
        HypersurfaceSpec(MAX_DIMENSION, MAX_DEGREE)
        with pytest.raises(ValueError, match=rf"n must lie in \[3, {MAX_DIMENSION}\]"):
            HypersurfaceSpec(MAX_DIMENSION + 1, 3)
        with pytest.raises(ValueError, match=rf"n must lie in \[3, {MAX_DIMENSION}\], got 2$"):
            HypersurfaceSpec(2, 3)
        with pytest.raises(ValueError, match=rf"d must lie in \[1, {MAX_DEGREE}\]"):
            HypersurfaceSpec(4, MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            HypersurfaceSpec(1, 3)
        with pytest.raises(ValueError):
            HypersurfaceSpec(4, 0)

class TestModuliCounts:
    def test_quintic(self):
        assert moduli_dimension(4, 5) == 101

    def test_quartic(self):
        assert moduli_dimension(3, 4) == 19

    def test_cubic_curve(self):
        assert moduli_dimension(2, 3) == 1

    def test_matches_hodge_number_for_quintic(self):
        diamond = hodge_diamond(HypersurfaceSpec(4, 5))
        assert moduli_dimension(4, 5) == diamond.h(2, 1)
