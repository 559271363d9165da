import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conifold_lab import transitions
from conifold_lab.acceptance import (
    batched_integer_rank,
    exhaustive_friedman_agreement,
    feasibility_oracle,
    shared_minor_ranks,
)
from conifold_lab.transitions import (
    ClassMatrix,
    NotOnVarietyError,
    Polynomial4,
    ProjectivePoint5,
    TransitionRecord,
    apply_topology_change,
    dwork_polynomial,
    dwork_singular_points,
    euler_characteristic_from_betti,
    example_catalog,
    friedman_witness,
    infer_counts,
    random_dwork_smooth_points,
    verify_dwork_point_exact,
    verify_odp,
)


class TestTopologyChange:
    def test_schoen(self):
        rec = apply_topology_change(25, 0, (0, 25, 2), N=125, k=24, c=101)
        assert rec.hodge_after == (1, 101)
        assert rec.betti_after == (0, 1, 204)

    def test_mirror_quintic(self):
        rec = apply_topology_change(101, 0, (0, 101, 2), N=1, k=0, c=1)
        assert rec.hodge_after == (101, 1)

    def test_tian_yau(self):
        rec = apply_topology_change(14, 23, (0, 14, 48), N=15, k=14, c=1)
        assert rec.hodge_after == (0, 24)
        assert rec.betti_after == (0, 0, 50)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            apply_topology_change(10, 10, (0, 10, 20), N=5, k=1, c=1)

    def test_rejects_negative_hodge(self):
        with pytest.raises(ValueError):
            apply_topology_change(3, 0, (0, 3, 2), N=5, k=5, c=0)

    def test_infer_counts_examples(self):
        assert infer_counts((25, 0), (1, 101), 125) == (24, 101)
        assert infer_counts((14, 23), (0, 24), 15) == (14, 1)
        assert infer_counts((7, 7), (7, 7), 0) == (0, 0)

    def test_infer_counts_errors_name_the_equation(self):
        with pytest.raises(ValueError, match="h11_before"):
            infer_counts((1, 0), (2, 0), 1)
        with pytest.raises(ValueError, match="h21_after"):
            infer_counts((2, 5), (1, 4), 1)
        with pytest.raises(ValueError, match="N = k"):
            infer_counts((2, 0), (1, 1), 5)

    def test_round_trip_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(0, 10))
            c = int(rng.integers(0, 10))
            h11 = k + int(rng.integers(0, 20))
            h21 = int(rng.integers(0, 20))
            betti = (0, h11, 2 * h21 + 2)
            rec = apply_topology_change(h11, h21, betti, N=k + c, k=k, c=c)
            assert infer_counts(rec.hodge_before, rec.hodge_after, rec.N) == (k, c)

    def test_euler_characteristic_helper(self):
        assert euler_characteristic_from_betti((0, 1, 204)) == -200
        assert euler_characteristic_from_betti((0, 25, 2)) == 50


class TestCatalog:
    def test_has_four_entries(self):
        assert len(example_catalog()) == 4

    def test_names(self):
        names = {rec.name for rec in example_catalog()}
        assert names == {
            "generic_nodal_quintic",
            "schoen_quintic_resolution",
            "mirror_quintic",
            "tian_yau",
        }

    def test_round_trips_and_splits(self):
        for rec in example_catalog():
            rec.validate()
            assert rec.N == rec.k + rec.c
            assert infer_counts(rec.hodge_before, rec.hodge_after, rec.N) == (rec.k, rec.c)
            rebuilt = apply_topology_change(
                rec.hodge_before[0], rec.hodge_before[1], rec.betti_before,
                N=rec.N, k=rec.k, c=rec.c,
            )
            assert rebuilt.hodge_after == rec.hodge_after
            assert rebuilt.betti_after == rec.betti_after

    def test_euler_characteristic_drops_by_twice_the_nodes(self):
        for rec in example_catalog():
            assert rec.euler_drop() == 2 * rec.N

    def test_tian_yau_smoothing_is_connected_sum(self):
        rec = {r.name: r for r in example_catalog()}["tian_yau"]
        assert rec.hodge_after == (0, 24)
        assert rec.betti_after[2] == 50  # b3 of the 25-fold connected sum

    def test_quintic_sides_match_hodge_module(self):
        from conifold_lab.hodge import HypersurfaceSpec, hodge_diamond

        quintic = hodge_diamond(HypersurfaceSpec(4, 5))
        for name in ("generic_nodal_quintic", "schoen_quintic_resolution"):
            rec = {r.name: r for r in example_catalog()}[name]
            assert rec.hodge_after == (quintic.h(1, 1), quintic.h(2, 1))
            assert rec.betti_after[2] == quintic.betti(3)


class TestFriedmanWitness:
    def test_trivial_class_is_feasible(self):
        witness = friedman_witness(ClassMatrix([[0, 0, 0]]))
        assert witness == [Fraction(1)]

    def test_single_nonzero_class_infeasible(self):
        assert friedman_witness(ClassMatrix([[2, 0]])) is None

    def test_tian_yau_configuration(self):
        rows = [[1 if j == i else 0 for j in range(14)] for i in range(14)]
        rows.append([-1] * 14)
        witness = friedman_witness(ClassMatrix(rows))
        assert witness == [Fraction(1)] * 15

    def test_standard_basis_infeasible(self):
        assert friedman_witness(ClassMatrix([[1, 0], [0, 1]])) is None

    def test_witness_soundness_is_exact(self):
        rows = [[2, 4], [1, 2], [-3, -6]]
        witness = friedman_witness(ClassMatrix(rows))
        assert witness is not None
        for j in range(2):
            assert sum(w * r[j] for w, r in zip(witness, rows)) == 0
        assert all(witness)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.integers(1, 4).flatmap(
                lambda m: st.lists(
                    st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rank_oracle(self, rows):
        witness = friedman_witness(ClassMatrix(rows))
        expected = bool(feasibility_oracle(np.array([rows], dtype=np.int64))[0])
        assert (witness is not None) == expected
        if witness is not None:
            for j in range(len(rows[0])):
                assert sum(w * r[j] for w, r in zip(witness, rows)) == 0

    def test_exhaustive_small_matrices(self):
        checked, mismatches = exhaustive_friedman_agreement(3, 3)
        assert mismatches == 0
        assert checked == sum(3 ** (n * m) for n in range(1, 4) for m in range(1, 4))

    def test_rejects_inexact_entries(self):
        with pytest.raises(TypeError):
            ClassMatrix([[0.5]])
        ClassMatrix([[2.0]])  # integral floats are accepted
        for entry in (1j, 1 + 1j, 2 + 0j):
            with pytest.raises(TypeError):
                ClassMatrix([[1, entry]])

    def test_exhaustive_gate_at_the_full_profile(self):
        assert exhaustive_friedman_agreement(4) == (559380, 0)

    def test_exhaustive_gate_catches_a_wrong_solver(self, monkeypatch):
        # flip the answer of the first equivalence class the solver sees
        real = transitions.friedman_witness
        calls = []

        def flipped(classes):
            witness = real(classes)
            calls.append(classes)
            if len(calls) > 1:
                return witness
            return [Fraction(1)] * classes.n_classes if witness is None else None

        monkeypatch.setattr(transitions, "friedman_witness", flipped)
        checked, mismatches = exhaustive_friedman_agreement(2, 2)
        assert calls and mismatches > 0


def _integer_classes(seed: int, n: int, m: int, kind: str) -> list[list[int]]:
    """n class vectors of length m with entries in [-10^6, 10^6]: dense,
    mostly zero, or of low rank (integer combinations of a few rows)."""
    rng = np.random.default_rng(seed)
    bound = 10**6
    if kind == "dense":
        mat = rng.integers(-bound, bound + 1, size=(n, m))
    elif kind == "sparse":
        mat = rng.integers(-bound, bound + 1, size=(n, m)) * (rng.random((n, m)) < 0.15)
    else:
        r = int(rng.integers(1, min(n, m) + 1))
        base = rng.integers(-(bound // (3 * r)), bound // (3 * r) + 1, size=(r, m))
        mat = rng.integers(-3, 4, size=(n, r)) @ base
    return [[int(x) for x in row] for row in mat]


class TestIntegerKernel:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 125),
        st.integers(1, 24),
        st.sampled_from(["dense", "sparse", "low_rank"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_path_exactly(self, seed, n, m, kind):
        columns = [[Fraction(x) for x in row] for row in _integer_classes(seed, n, m, kind)]
        _assert_kernel_matches_oracle(columns)

    @pytest.mark.parametrize("n,m", [(125, 24), (15, 14)])
    def test_extreme_shapes(self, n, m):
        for kind in ("dense", "sparse", "low_rank"):
            columns = [[Fraction(x) for x in row] for row in _integer_classes(n * m, n, m, kind)]
            assert transitions._kernel_basis(columns) == reference.fraction_kernel_basis(columns)

    def test_non_integer_input_keeps_the_fraction_path(self):
        """Rational entries are scaled to integers by the lcm of their
        denominators; the basis is still the one elimination over Fractions
        gives."""
        for rows in (
            [[Fraction(1, 2), Fraction(1)]],
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(2, 3)],
             [Fraction(0), Fraction(-1)], [Fraction(3), Fraction(7, 5)]],
            [[Fraction(1, 6)], [Fraction(-1, 4)], [Fraction(5, 9)]],
        ):
            _assert_kernel_matches_oracle(rows)

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.integers(1, 10).flatmap(
                lambda m: st.lists(
                    st.lists(
                        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_input_matches_the_fraction_oracle(self, rows):
        _assert_kernel_matches_oracle(rows)


def _assert_kernel_matches_oracle(columns):
    got = transitions._kernel_basis(columns)
    want = reference.fraction_kernel_basis(columns)
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert all(type(x) is Fraction for x in vec)
        assert vec == ref


class TestBatchedRank:
    def test_against_numpy(self):
        rng = np.random.default_rng(1)
        mats = rng.integers(-1, 2, size=(500, 4, 3))
        ours = batched_integer_rank(mats)
        theirs = np.array([np.linalg.matrix_rank(m) for m in mats])
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shared_minor_ranks_on_every_sign_matrix(self, m):
        """Full ranks against minor enumeration and numpy on every {-1,0,1}
        matrix with N <= 4.  A row deletion of an N-row matrix is an
        (N-1)-row matrix whose full rank was checked one step earlier, so the
        deleted ranks are compared with the full ranks of the deletions."""
        pool = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
        for n in range(1, 5):
            mats = pool[np.indices((len(pool),) * n).reshape(n, -1).T]
            full, deleted = shared_minor_ranks(mats)
            assert np.array_equal(full, batched_integer_rank(mats))
            assert np.array_equal(full, np.linalg.matrix_rank(mats.astype(float)))
            for i in range(n):
                reduced = np.delete(mats, i, axis=-2)
                expected = shared_minor_ranks(reduced)[0] if n > 1 else np.zeros_like(full)
                assert np.array_equal(deleted[i], expected)

    @pytest.mark.parametrize("bound", [2, 50, 1000])
    def test_shared_minor_ranks_on_larger_entries(self, bound):
        rng = np.random.default_rng(bound)
        for n, m in itertools.product(range(1, 6), range(1, 4)):
            mats = rng.integers(-bound, bound + 1, size=(400, n, m))
            mats[::3, 0] = 0  # force rank drops
            mats[1::3, -1] = 2 * mats[1::3, 0]
            full, deleted = shared_minor_ranks(mats)
            assert np.array_equal(full, batched_integer_rank(mats))
            for i in range(n):
                assert np.array_equal(deleted[i], batched_integer_rank(np.delete(mats, i, axis=-2)))

    def test_shared_minor_ranks_reject_overflowing_entries(self):
        with pytest.raises(ValueError):
            shared_minor_ranks(np.full((1, 3, 3), 2**21))
        with pytest.raises(ValueError):
            shared_minor_ranks(np.zeros((1, 2, 4), dtype=np.int64))


class TestDworkPoints:
    def test_count(self):
        assert len(dwork_singular_points()) == 125

    def test_contains_unit_point(self):
        assert any(p.exponents == (0, 0, 0, 0, 0) for p in dwork_singular_points())

    def test_canonical_form(self):
        for p in dwork_singular_points():
            assert p.exponents[0] == 0
            assert sum(p.exponents) % 5 == 0

    def test_shift_quotient(self):
        # the raw solution set has 625 tuples; the 5-fold shift identifies them
        raw = [
            exps
            for exps in itertools.product(range(5), repeat=5)
            if sum(exps) % 5 == 0
        ]
        assert len(raw) == 625
        canonical = {ProjectivePoint5(exps).exponents for exps in raw}
        assert len(canonical) == 125

    def test_exact_cyclotomic_verification(self):
        assert all(verify_dwork_point_exact(p) for p in dwork_singular_points())

    def test_unit_point_by_direct_substitution(self):
        poly = dwork_polynomial()
        z = np.ones(4, dtype=complex)
        assert abs(poly(z)) < 1e-14
        assert np.max(np.abs(poly.gradient(z))) < 1e-14

    def test_float_verification(self):
        poly = dwork_polynomial()
        for p in dwork_singular_points():
            z = p.to_affine()
            assert abs(poly(z)) < 1e-10
            assert np.max(np.abs(poly.gradient(z))) < 1e-10

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            ProjectivePoint5((1, 0, 0, 0, 0))


class TestVerifyOdp:
    def test_model_double_point(self):
        cert = verify_odp(Polynomial4.sum_of_squares(), [0, 0, 0, 0])
        assert cert.is_odp
        assert cert.hessian_det == pytest.approx(16.0)

    def test_cubic_direction_is_degenerate(self):
        poly = Polynomial4({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 3): 1})
        cert = verify_odp(poly, [0, 0, 0, 0])
        assert cert.status == "degenerate_singularity"
        assert not cert.is_odp

    def test_all_pencil_nodes_certified(self):
        poly = dwork_polynomial()
        for p in dwork_singular_points():
            cert = verify_odp(poly, p.to_affine())
            assert cert.is_odp
            assert cert.hessian_det > cert.det_threshold

    def test_off_variety_raises(self):
        with pytest.raises(NotOnVarietyError):
            verify_odp(dwork_polynomial(), [10.0, 0, 0, 0])

    def test_smooth_points_not_singular(self):
        poly = dwork_polynomial()
        assert len(random_dwork_smooth_points(0)) == 0
        with pytest.raises(ValueError):
            random_dwork_smooth_points(-1)
        for z in random_dwork_smooth_points(200, seed=0):
            cert = verify_odp(poly, z)
            assert cert.status == "not_singular"
            assert cert.gradient_norm > 1e-3

    def test_polynomial_calculus(self):
        poly = Polynomial4({(2, 1, 0, 0): 3.0, (0, 0, 0, 1): -1.0})
        z = np.array([1.0, 2.0, 0.0, 5.0], dtype=complex)
        assert poly(z) == pytest.approx(6.0 - 5.0)
        assert poly.derivative(0)(z) == pytest.approx(12.0)
        assert poly.hessian(z)[0, 1] == pytest.approx(6.0)


class TestRecordValidation:
    def test_validate_catches_bad_split(self):
        rec = TransitionRecord(
            name="bad", N=3, k=1, c=1,
            hodge_before=(2, 2), hodge_after=(1, 3),
            betti_before=(0, 2, 6), betti_after=(0, 1, 8),
        )
        with pytest.raises(ValueError):
            rec.validate()

    def test_json_dict(self):
        rec = example_catalog()[0]
        data = rec.to_json_dict()
        assert data["name"] == "generic_nodal_quintic"
        assert data["N"] == data["k"] + data["c"]
