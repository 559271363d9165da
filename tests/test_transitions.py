import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conifold_lab import transitions
from conifold_lab.acceptance import (
    _minor_ranks,
    exhaustive_friedman_agreement,
    feasibility_oracle,
)
from conifold_lab.transitions import (
    ClassMatrix,
    DworkQuintic,
    NotOnVarietyError,
    apply_topology_change,
    dwork_exact_check,
    dwork_exponents,
    dwork_nodes,
    euler_characteristic_from_betti,
    example_catalog,
    friedman_witness,
    friedman_witnesses,
    infer_counts,
    random_dwork_smooth_points,
    verify_odp,
    verify_odps,
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

    @pytest.mark.parametrize(
        "h11,h21,betti,k,c,named",
        [
            (1, 1, (0, -3, 0), 0, 1, "b2=-3"),
            (-1, 1, (0, 1, 0), 0, 1, "h11=-1"),
            (1, -2, (0, 1, 0), 0, 1, "h21=-2"),
            (1, 1, (-1, 1, 0), 0, 1, "b1=-1"),
            (1, 1, (0, 1, -4), 0, 1, "b3=-4"),
            (1, 1, (0, 1, 0), -1, 2, "k=-1"),
            (2, 1, (0, 2, 0), 2, -1, "c=-1"),
        ],
    )
    def test_negative_input_is_named_before_the_contraction_checks(
        self, h11, h21, betti, k, c, named
    ):
        with pytest.raises(ValueError, match=f"^inputs must be nonnegative, got {named}$"):
            apply_topology_change(h11, h21, betti, N=k + c, k=k, c=c)

    def test_underflow_messages_are_unchanged(self):
        with pytest.raises(ValueError) as err:
            apply_topology_change(3, 0, (0, 3, 2), N=5, k=5, c=0)
        assert str(err.value) == "h11=3 < k=5: contraction would leave a negative Hodge number"
        with pytest.raises(ValueError) as err:
            apply_topology_change(5, 0, (0, 3, 2), N=5, k=5, c=0)
        assert str(err.value) == "b2=3 < k=5: contraction would leave a negative Betti number"

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
        mats = np.array([rows], dtype=np.int64)
        if mats.shape[-1] <= 3:
            expected = bool(feasibility_oracle(np.moveaxis(mats, -2, 0))[0])
        else:  # m = 4: ranks by elimination
            rank = reference.batched_integer_rank
            expected = all(rank(np.delete(mats, i, axis=-2)) == rank(mats) for i in range(len(rows)))
        assert (witness is not None) == expected
        if witness is not None:
            for j in range(len(rows[0])):
                assert sum(w * r[j] for w, r in zip(witness, rows)) == 0

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.integers(1, 4).flatmap(
                    lambda m: st.lists(
                        st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=n, max_size=n
                    )
                ),
                st.lists(
                    st.tuples(st.integers(1, 10**8), st.integers(1, 10**8), st.booleans()),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    @settings(deadline=None)
    def test_witness_soundness_across_magnitudes(self, case):
        """Scaling each class vector by a nonzero rational of magnitude
        1e-8..1e8 keeps feasibility, and a witness for the scaled classes
        annihilates them exactly with every entry nonzero."""
        rows, factors = case
        scales = [Fraction(p, q) * (-1 if negative else 1) for p, q, negative in factors]
        scaled = [[c * x for x in row] for c, row in zip(scales, rows)]
        witness = friedman_witness(ClassMatrix(scaled))
        assert (witness is None) == (friedman_witness(ClassMatrix(rows)) is None)
        if witness is not None:
            assert all(isinstance(w, Fraction) and w != 0 for w in witness)
            for j in range(len(rows[0])):
                assert sum((w * row[j] for w, row in zip(witness, scaled)), Fraction(0)) == 0

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.integers(1, 4).flatmap(
                lambda m: st.lists(
                    st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=n, max_size=n
                )
            )
        ),
        # small denominators leave some scaled entries integral
        st.builds(Fraction, st.integers(1, 10**6), st.sampled_from([1, 2, 3, 4, 6, 999983])),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_entry_forms_give_one_answer(self, rows, scale, negative):
        """The integer rows given as ints, integral floats, Fractions with
        denominator 1 and integer strings are the same integer rows; the
        rows times one nonzero rational, as Fractions, as "p/q" strings and
        as ints where integral and strings elsewhere, are integer rows too.
        All give the same verdict and the same witness Fractions, with the
        same text."""
        scale = -scale if negative else scale
        same = [
            [[float(x) for x in row] for row in rows],
            [[Fraction(x) for x in row] for row in rows],
            [[str(x) for x in row] for row in rows],
        ]
        scaled = [
            [[scale * x for x in row] for row in rows],
            [[str(scale * x) for x in row] for row in rows],
            [[int(v) if v.denominator == 1 else str(v) for v in (scale * x for x in row)] for row in rows],
        ]
        classes = ClassMatrix(rows)
        want = friedman_witness(classes)
        for form in same:
            assert ClassMatrix(form).rows == classes.rows
        for form in same + scaled:
            other = ClassMatrix(form)
            assert all(type(x) is int for row in other.rows for x in row)
            got = friedman_witness(other)
            assert (got is None) == (want is None)
            if want is not None:
                assert all(type(x) is Fraction for x in got)
                assert [str(x) for x in got] == [str(x) for x in want]

    def test_exhaustive_small_matrices(self):
        checked, mismatches = exhaustive_friedman_agreement(3)
        assert mismatches == 0
        assert checked == sum(3 ** (n * m) for n in range(1, 4) for m in range(1, 4))

    def test_rejects_inexact_entries(self):
        with pytest.raises(TypeError):
            ClassMatrix([[0.5]])
        ClassMatrix([[2.0]])  # integral floats are accepted
        for entry in (1j, 1 + 1j, 2 + 0j):
            with pytest.raises(TypeError):
                ClassMatrix([[1, entry]])

    def test_rejects_booleans(self):
        """bool is an int subclass; True and False used to pass as 1 and 0.
        They are refused whether the other entries are ints or not."""
        for entry in (True, False):
            for rows in ([[1, entry]], [[entry]], [["1/2"], [entry]]):
                with pytest.raises(TypeError, match=f"entry {entry} is a boolean"):
                    ClassMatrix(rows)

    def test_exhaustive_gate_at_the_full_profile(self):
        assert exhaustive_friedman_agreement(4) == (559380, 0)

    def test_exhaustive_gate_catches_a_wrong_solver(self, monkeypatch):
        # flip the verdict of the first class in the first stack the solver sees
        real = transitions.friedman_witnesses
        calls = []

        def flipped(mats):
            feasible, weights, denominators = real(mats)
            calls.append(mats)
            if len(calls) == 1:
                feasible = feasible.copy()
                feasible[0] = not feasible[0]
            return feasible, weights, denominators

        monkeypatch.setattr(transitions, "friedman_witnesses", flipped)
        checked, mismatches = exhaustive_friedman_agreement(2)
        assert calls and mismatches > 0

    def test_exhaustive_gate_at_five_rows(self):
        assert exhaustive_friedman_agreement(5) == (14967579, 0)

    @pytest.mark.parametrize("max_rows", [1, 2, 3])
    def test_exhaustive_matches_the_stacked_reference(self, max_rows):
        assert exhaustive_friedman_agreement(max_rows) == reference.stacked_friedman_agreement(max_rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [0, 0]],
            [[1], [0]],
            [[1, 0, -1], [-1, 0, 1]],
            [[0, 1, 1], [1, -1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 1], [-1, -1], [0, 1]],
            [[1, -1, 0], [1, -1, 0], [-1, 1, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 1, 0], [0, 0, 0]],
        ],
        ids=["zero-2x2", "2x1", "repeated-2x3", "2x3", "zero-3x3", "repeated-3x2",
             "thrice-repeated-3x3", "identity-3x3", "with-zero-row-3x3"],
    )
    def test_class_table_maps_every_matrix_to_its_class(self, rows, monkeypatch):
        """Flipping the solver's verdict on one class turns exactly the
        matrices of that class into mismatches: as many as the stacked
        reference's np.unique counts for the class key."""
        n, m = len(rows), len(rows[0])
        key = int(reference.canonical_class_keys(np.array([rows]))[0])
        target = np.array(reference.decode_class_key(key, n, m))
        real = transitions.friedman_witnesses
        flips = []

        def flipped(mats):
            feasible, weights, denominators = real(mats)
            if mats.shape[1:] == target.shape:
                hits = np.flatnonzero((mats == target).all(axis=(1, 2)))
                flips.extend(hits)
                feasible = feasible.copy()
                feasible[hits] ^= True
            return feasible, weights, denominators

        monkeypatch.setattr(transitions, "friedman_witnesses", flipped)
        _, mismatches = exhaustive_friedman_agreement(n)
        assert len(flips) == 1
        assert mismatches == reference.stacked_class_counts(n, m)[key]


def _sign_classes(n: int, m: int) -> np.ndarray:
    """One {-1, 0, 1} matrix per class under row order and row signs: the
    sorted n-tuples of the first (3^m + 1) / 2 sign rows, stacked."""
    pool = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
    names = range((len(pool) + 1) // 2)
    return pool[np.array(list(itertools.combinations_with_replacement(names, n)))]


def _as_fractions(feasible, weights, denominators) -> list:
    """The stacked solver's answers as each matrix's witness Fractions or None."""
    return [
        [Fraction(w, d) for w in row] if ok else None
        for ok, row, d in zip(feasible.tolist(), weights.tolist(), denominators.tolist())
    ]


class TestStackedSolver:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_class_matches_the_list_oracle(self, m):
        """Every class of sign matrices with N <= 4 rows of length m, solved
        in one stack per shape as C11 solves them, has the witness of the
        list Bareiss oracle, as Fractions."""
        for n in range(1, 5):
            mats = _sign_classes(n, m)
            got = _as_fractions(*friedman_witnesses(mats))
            assert got == [reference.integer_rref_witness(mat) for mat in mats.tolist()]

    def test_answer_does_not_depend_on_the_batch(self):
        """A 4 x 3 matrix gets the same answer alone and in any stack: among
        every class, reversed, and between an infeasible neighbour and one
        whose witness needs s = 2 (P_r(1) = 1 - 1 = 0)."""
        mats = _sign_classes(4, 3)
        infeasible = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
        second = np.array([[1, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 0, 0]])
        assert friedman_witness(ClassMatrix(infeasible.tolist())) is None
        assert friedman_witness(ClassMatrix(second.tolist())) == [1, 1, 2, 4]
        together = _as_fractions(*friedman_witnesses(mats))
        assert _as_fractions(*friedman_witnesses(mats[::-1])) == together[::-1]
        assert None in together
        for i in range(0, len(mats), 17):
            alone = _as_fractions(*friedman_witnesses(mats[i : i + 1]))
            flanked = _as_fractions(*friedman_witnesses(np.stack([infeasible, mats[i], second])))
            assert alone == [together[i]] and flanked[1] == together[i]

    @pytest.mark.parametrize("past", [0, 1], ids=["under", "over"])
    def test_int64_and_object_agree_at_the_overflow_bound(self, past, monkeypatch):
        """Entries at the largest magnitude for which the bound keeps every
        integer of a 4 x 3 stack in int64, and one past it, where the
        elimination turns to Python integers at its third column: the
        witnesses equal those computed in Python integers throughout."""
        n, m = 4, 3
        top = max(e for e in range(1, 2000) if transitions._int64_steps(n, m, [e] * n) == (n, True))
        assert transitions._int64_steps(n, m, [top + 1] * n) == (2, False)
        entry = top + past
        rng = np.random.default_rng(entry)
        generic = rng.integers(-entry, entry + 1, size=(40, n, m))
        generic[0] = entry  # every class reaches the bound
        paired = generic.copy()
        paired[:, 1], paired[:, 3] = -paired[:, 0], -paired[:, 2]
        pinned = generic.copy()
        pinned[:, 1:, 2] = 0
        pinned[:, 0, 2] = -entry
        mats = np.concatenate([generic, paired, pinned])
        found = friedman_witnesses(mats)
        assert found[1].dtype == (object if past else np.int64)
        monkeypatch.setattr(transitions, "_int64_steps", lambda n, m, peaks: (0, False))
        python_ints = friedman_witnesses(mats)
        assert python_ints[1].dtype == object
        assert _as_fractions(*found) == _as_fractions(*python_ints)
        assert found[0].tolist() == [True] * 80 + [False] * 40


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
        _assert_witness_matches_oracle(columns)

    @pytest.mark.parametrize("n,m", [(125, 24), (15, 14)])
    def test_extreme_shapes(self, n, m):
        for kind in ("dense", "sparse", "low_rank"):
            columns = [[Fraction(x) for x in row] for row in _integer_classes(n * m, n, m, kind)]
            _assert_witness_matches_oracle(columns)

    def test_non_integer_input_keeps_the_fraction_path(self):
        """Rational entries are scaled to integers by the lcm of their
        denominators; the witness is still the one the Fraction kernel basis
        gives."""
        for rows in (
            [[Fraction(1, 2), Fraction(1)]],
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(2, 3)],
             [Fraction(0), Fraction(-1)], [Fraction(3), Fraction(7, 5)]],
            [[Fraction(1, 6)], [Fraction(-1, 4)], [Fraction(5, 9)]],
        ):
            _assert_witness_matches_oracle(rows)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_small_sign_matrix(self, m):
        """Every {-1,0,1} class matrix with N <= 3 rows of length m, solved in
        one stack per shape, has the witness of the Fraction kernel basis."""
        for n in range(1, 4):
            mats = reference.stacked_sign_matrices(n, m)
            got = _as_fractions(*friedman_witnesses(mats))
            assert got == [reference.kernel_basis_witness(rows) for rows in mats.tolist()]

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
        _assert_witness_matches_oracle(rows)


def _assert_witness_matches_oracle(rows):
    """The integer-row witness equals the Fraction kernel-basis witness of
    the unparsed rows: the same feasibility, and the same Fractions with the
    same text."""
    got = friedman_witness(ClassMatrix(rows))
    want = reference.kernel_basis_witness(rows)
    if want is None:
        assert got is None
        return
    assert all(type(x) is Fraction for x in got)
    assert got == want
    assert [str(x) for x in got] == [str(x) for x in want]


def _shared_minor_ranks(rows):
    """_minor_ranks with the deleted ranks stacked on the full rank's shape."""
    full, deleted = _minor_ranks(rows)
    return full, np.stack(np.broadcast_arrays(full, *deleted)[1:])


class TestBatchedRank:
    def test_against_numpy(self):
        rng = np.random.default_rng(1)
        mats = rng.integers(-1, 2, size=(500, 4, 3))
        ours = reference.batched_integer_rank(mats)
        theirs = np.array([np.linalg.matrix_rank(m) for m in mats])
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shared_minor_ranks_on_every_sign_matrix(self, m):
        """Full ranks against minor enumeration and numpy on every {-1,0,1}
        matrix with N <= 4.  A row deletion of an N-row matrix is an
        (N-1)-row matrix whose full rank was checked one step earlier, so the
        deleted ranks are compared with the full ranks of the deletions."""
        for n in range(1, 5):
            mats = reference.stacked_sign_matrices(n, m)
            full, deleted = _shared_minor_ranks(np.moveaxis(mats, -2, 0))
            assert np.array_equal(full, reference.batched_integer_rank(mats))
            assert np.array_equal(full, np.linalg.matrix_rank(mats.astype(float)))
            for i in range(n):
                reduced = np.moveaxis(np.delete(mats, i, axis=-2), -2, 0)
                expected = _shared_minor_ranks(reduced)[0] if n > 1 else np.zeros_like(full)
                assert np.array_equal(deleted[i], expected)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_broadcast_rows_match_the_stack(self, m):
        """N rows, each the pool of every sign row along its own axis, give
        the oracle verdicts and ranks of the materialised (3^(N m), N, m)
        stack, in enumeration order once flattened."""
        pool = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
        size = len(pool)
        for n in range(1, 5):
            rows = [pool.reshape((1,) * i + (size,) + (1,) * (n - 1 - i) + (m,)) for i in range(n)]
            mats = reference.stacked_sign_matrices(n, m)
            broadcast = feasibility_oracle(rows)
            assert broadcast.shape == (size,) * n
            assert np.array_equal(broadcast.ravel(), feasibility_oracle(np.moveaxis(mats, -2, 0)))
            full, deleted = _shared_minor_ranks(rows)
            stacked_full, stacked_deleted = _shared_minor_ranks(np.moveaxis(mats, -2, 0))
            assert np.array_equal(full.ravel(), stacked_full)
            assert np.array_equal(deleted.reshape(n, -1), stacked_deleted)

    @pytest.mark.parametrize("bound", [2, 50, 1000])
    def test_shared_minor_ranks_on_larger_entries(self, bound):
        rng = np.random.default_rng(bound)
        for n, m in itertools.product(range(1, 6), range(1, 4)):
            mats = rng.integers(-bound, bound + 1, size=(400, n, m))
            mats[::3, 0] = 0  # force rank drops
            mats[1::3, -1] = 2 * mats[1::3, 0]
            full, deleted = _shared_minor_ranks(np.moveaxis(mats, -2, 0))
            assert np.array_equal(full, reference.batched_integer_rank(mats))
            for i in range(n):
                reduced = np.delete(mats, i, axis=-2)
                assert np.array_equal(deleted[i], reference.batched_integer_rank(reduced))

    def test_shared_minor_ranks_at_the_int8_minimum(self):
        """-128 has no int8 negation: the minors must still be widened."""
        mats = np.array([np.diag([-128] * 3), [[-128, 0, 0], [-128, 0, 0], [0, 0, -128]]], dtype=np.int8)
        full, deleted = _shared_minor_ranks(np.moveaxis(mats, -2, 0))
        assert np.array_equal(full, reference.batched_integer_rank(mats))
        for i in range(3):
            assert np.array_equal(deleted[i], reference.batched_integer_rank(np.delete(mats, i, axis=-2)))

    def test_feasibility_oracle_rejects_four_columns(self):
        feasibility_oracle(np.moveaxis(np.zeros((2, 3, 3), dtype=np.int8), -2, 0))
        with pytest.raises(ValueError, match="m <= 3"):
            feasibility_oracle(np.moveaxis(np.zeros((2, 3, 4), dtype=np.int8), -2, 0))

    def test_shared_minor_ranks_reject_overflowing_entries(self):
        with pytest.raises(ValueError):
            _shared_minor_ranks(np.moveaxis(np.full((1, 3, 3), 2**21), -2, 0))
        with pytest.raises(ValueError):
            _shared_minor_ranks(np.moveaxis(np.zeros((1, 2, 4), dtype=np.int64), -2, 0))


# every exponent tuple in (Z/5)^5, in lexicographic order
ALL_EXPONENTS = np.array(list(itertools.product(range(5), repeat=5)))


class TestDworkPoints:
    def test_count(self):
        assert dwork_exponents().shape == (125, 5)

    def test_contains_unit_point(self):
        assert [0, 0, 0, 0, 0] in dwork_exponents().tolist()

    def test_canonical_form(self):
        exps = dwork_exponents()
        assert np.all(exps[:, 0] == 0)
        assert np.all(exps.sum(axis=1) % 5 == 0)

    def test_built_once_and_read_only(self):
        assert dwork_exponents() is dwork_exponents() and dwork_nodes() is dwork_nodes()
        for array in (dwork_exponents(), dwork_nodes()):
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_matches_the_independent_enumeration(self):
        """The exponent rows equal the oracle's tuples, in its order, and
        the node coordinates equal its cmath coordinates bit for bit."""
        assert dwork_exponents().tolist() == [list(exps) for exps in reference.dwork_exponents()]
        assert dwork_nodes().dtype == complex and dwork_nodes().shape == (125, 4)
        assert np.array_equal(_bits(dwork_nodes()), _bits(reference.dwork_nodes()))

    def test_shift_quotient(self):
        # the raw solution set has 625 tuples; the 5-fold shift identifies them
        raw = ALL_EXPONENTS[ALL_EXPONENTS.sum(axis=1) % 5 == 0]
        assert len(raw) == 625
        assert np.array_equal(np.unique((raw - raw[:, :1]) % 5, axis=0), dwork_exponents())

    def test_exact_cyclotomic_verification(self):
        verdicts = dwork_exact_check(dwork_exponents())
        assert verdicts.shape == (125,) and verdicts.all()

    def test_exact_check_refuses_points_off_the_singular_locus(self):
        """Negative control: over every exponent tuple, the check holds
        exactly for the 625 whose sum vanishes mod 5."""
        verdicts = dwork_exact_check(ALL_EXPONENTS)
        assert np.array_equal(verdicts, ALL_EXPONENTS.sum(axis=1) % 5 == 0)
        assert verdicts.sum() == 625

    def test_unit_point_by_direct_substitution(self):
        poly = DworkQuintic()
        z = np.ones(4, dtype=complex)
        assert abs(poly(z)) < 1e-14
        assert np.max(np.abs(poly.gradient(z))) < 1e-14

    def test_float_verification(self):
        poly = DworkQuintic()
        for z in reference.dwork_nodes():
            assert abs(poly(z)) < 1e-10
            assert np.max(np.abs(poly.gradient(z))) < 1e-10


def _assert_matches_term_by_term(z) -> None:
    """DworkQuintic against the sparse polynomial built from the quintic's
    terms: the same value, gradient and Hessian, compared with ==."""
    z = np.asarray(z, dtype=complex)
    quintic, ref = DworkQuintic(), reference.dwork_polynomial()
    assert quintic(z) == ref(z)
    assert np.array_equal(quintic.gradient(z), ref.gradient(z))
    assert np.array_equal(quintic.hessian(z), ref.hessian(z))


class TestDworkQuintic:
    """The closed form reproduces the term-by-term evaluation exactly, so
    the double-point certificates (and the C12 and dwork reports) keep their
    bits."""

    def test_nodes(self):
        nodes = reference.dwork_nodes()
        for z in nodes:
            _assert_matches_term_by_term(z)
        _assert_same_record(verify_odps(DworkQuintic(), nodes), verify_odps(reference.dwork_polynomial(), nodes))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smooth_points(self, seed):
        sample = random_dwork_smooth_points(200, seed)
        for z in sample:
            _assert_matches_term_by_term(z)
        _assert_same_record(verify_odps(DworkQuintic(), sample), verify_odps(reference.dwork_polynomial(), sample))

    @given(
        st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)), min_size=4, max_size=4
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_points_across_magnitudes(self, coords):
        """|z_i| from 1e-3 to 1e3 with arbitrary phases."""
        _assert_matches_term_by_term(
            [10.0**exponent * np.exp(2j * np.pi * phase) for exponent, phase in coords]
        )


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_record(record, expected) -> None:
    """The double-point record equals the expected six columns (another
    record, or the oracle's rows transposed) field by field, bit for bit,
    each pair compared in their common dtype, so that no status is cut."""
    assert record._fields == reference.ODP_FIELDS
    assert len(expected) == len(record)
    for field, column in zip(record, expected):
        column = np.asarray(column)
        dtype = np.promote_types(field.dtype, column.dtype)
        assert np.array_equal(_bits(field.astype(dtype)), _bits(column.astype(dtype)))


def _oracle_columns(poly, points) -> list:
    """reference.verify_odp_per_point at each point, transposed to columns."""
    return list(zip(*(reference.verify_odp_per_point(poly, z) for z in points)))


class TestStackedQuintic:
    """DworkQuintic on a stack (N, 4) gives, row by row, the bits of the
    term-by-term reference at that one point: values, gradients and
    Hessians, signs of zero included."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_the_per_point_reference(self, seed):
        rng = np.random.default_rng(seed)
        stack = 10.0 ** rng.uniform(-3, 3, (150, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, (150, 4)))
        quintic, ref = DworkQuintic(), reference.dwork_polynomial()
        for method in ("__call__", "gradient", "hessian"):
            rows = getattr(quintic, method)(stack)
            assert np.array_equal(_bits(rows), _bits(getattr(ref, method)(stack)))
            assert np.array_equal(_bits(rows), _bits([getattr(quintic, method)(z) for z in stack]))

    def test_nodes_and_samples(self):
        quintic = DworkQuintic()
        for stack in (transitions.dwork_nodes(), random_dwork_smooth_points(100, 4)):
            for method in ("__call__", "gradient", "hessian"):
                rows = getattr(quintic, method)(stack)
                assert np.array_equal(_bits(rows), _bits([getattr(quintic, method)(z) for z in stack]))
                assert np.array_equal(rows, getattr(reference.dwork_polynomial(), method)(stack))


class TestVerifyOdp:
    def test_model_double_point(self):
        cert = verify_odp(reference.Polynomial4.sum_of_squares(), [0, 0, 0, 0])
        assert cert.status.tolist() == ["odp"]
        assert cert.hessian_det[0] == pytest.approx(16.0)

    def test_cubic_direction_is_degenerate(self):
        poly = reference.Polynomial4(
            {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 3): 1}
        )
        cert = verify_odp(poly, [0, 0, 0, 0])
        assert cert.status.tolist() == ["degenerate_singularity"]

    def test_all_pencil_nodes_certified(self):
        record = verify_odps(DworkQuintic(), reference.dwork_nodes())
        assert record.status.tolist() == ["odp"] * 125
        assert np.all(record.hessian_det > record.det_threshold)

    def test_one_row_of_read_only_arrays(self):
        """verify_odp is verify_odps on a stack of one point, and no field of
        the record can be written."""
        z = reference.dwork_nodes()[7]
        cert = verify_odp(DworkQuintic(), z)
        _assert_same_record(cert, verify_odps(DworkQuintic(), z[None, :]))
        for field in cert:
            assert field.shape == (1,) and not field.flags.writeable
        with pytest.raises(ValueError):
            cert.hessian_det[0] = 0.0

    def test_off_variety_raises(self):
        with pytest.raises(NotOnVarietyError):
            verify_odp(DworkQuintic(), [10.0, 0, 0, 0])

    def test_smooth_points_not_singular(self):
        poly = DworkQuintic()
        empty = random_dwork_smooth_points(0)
        assert empty.shape == (0, 4) and empty.dtype == complex
        with pytest.raises(ValueError):
            random_dwork_smooth_points(-1)
        record = verify_odps(poly, random_dwork_smooth_points(200, seed=0))
        assert record.status.tolist() == ["not_singular"] * 200
        assert np.all(record.gradient_norm > 1e-3)

    def test_polynomial_calculus(self):
        poly = reference.Polynomial4({(2, 1, 0, 0): 3.0, (0, 0, 0, 1): -1.0})
        z = np.array([1.0, 2.0, 0.0, 5.0], dtype=complex)
        assert poly(z) == pytest.approx(6.0 - 5.0)
        assert poly.derivative(0)(z) == pytest.approx(12.0)
        assert poly.hessian(z)[0, 1] == pytest.approx(6.0)


def _mixed_singularities() -> reference.Polynomial4:
    """z1^2 + z2^2 + z3^2 + z4^2 (z4 - 1)^3: an ordinary double point at the
    origin, a degenerate singularity at (0, 0, 0, 1), smooth elsewhere."""
    return reference.Polynomial4(
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
         (0, 0, 0, 5): 1, (0, 0, 0, 4): -3, (0, 0, 0, 3): 3, (0, 0, 0, 2): -1}
    )


def _mixed_points(rng: np.random.Generator, size: int) -> np.ndarray:
    """Points on the mixed polynomial's zero set: its double point, its
    degenerate singularity and smooth points (a, ia, 0, 0), (a, 0, ia, 1)
    with |a| from 1e-3 to 1e3, shuffled."""
    points = []
    for kind in rng.integers(4, size=size):
        a = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
        points.append(
            [(0, 0, 0, 0), (0, 0, 0, 1), (a, 1j * a, 0, 0), (a, 0, 1j * a, 1)][kind]
        )
    return np.array(points, dtype=complex)


class TestStackedCertificate:
    """verify_odps stacks the Hessians for one spectral norm and one det
    call; every row of its record keeps the per-point oracle's bits."""

    def test_nodes_match_the_per_point_oracle(self):
        poly = DworkQuintic()
        nodes = reference.dwork_nodes()
        _assert_same_record(verify_odps(poly, nodes), _oracle_columns(poly, nodes))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smooth_samples_match_the_per_point_oracle(self, seed):
        poly = DworkQuintic()
        sample = random_dwork_smooth_points(200, seed)
        _assert_same_record(verify_odps(poly, sample), _oracle_columns(poly, sample))

    def test_a_row_does_not_depend_on_its_batch(self):
        poly = _mixed_singularities()
        rng = np.random.default_rng(5)
        statuses = set()
        for _ in range(12):
            batch = _mixed_points(rng, int(rng.integers(1, 65)))
            record = verify_odps(poly, batch)
            _assert_same_record(record, _oracle_columns(poly, batch))
            for i, z in enumerate(batch):
                _assert_same_record(verify_odps(poly, z[None, :]), [field[i : i + 1] for field in record])
            statuses.update(record.status.tolist())
        assert statuses == {"odp", "degenerate_singularity", "not_singular"}

    def test_first_point_off_the_variety_raises_its_own_message(self):
        poly = DworkQuintic()
        nodes = list(reference.dwork_nodes()[:5])
        first, second = np.array([10.0, 0, 0, 0]), np.array([0, 3.0, 0, 0])
        message = str(pytest.raises(NotOnVarietyError, reference.verify_odp_per_point, poly, first).value)
        assert message != str(pytest.raises(NotOnVarietyError, reference.verify_odp_per_point, poly, second).value)
        with pytest.raises(NotOnVarietyError, match=f"^{re.escape(message)}$"):
            verify_odps(poly, nodes[:2] + [first] + nodes[2:] + [second])

    def test_empty_batch(self):
        record = verify_odps(DworkQuintic(), np.empty((0, 4), dtype=complex))
        assert [field.shape for field in record] == [(0,)] * 6


class TestBatchedSampler:
    """random_dwork_smooth_points takes its companion roots in one eigvals
    per chunk of draws and returns exactly the per-draw sampler's points."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_per_draw_oracle(self, seed):
        for count in (0, 1, 7, 200, 1000):
            batched = random_dwork_smooth_points(count, seed)
            expected = reference.dwork_smooth_points_per_draw(count, seed)
            assert batched.dtype == expected.dtype and batched.shape == expected.shape
            assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_matches_across_chunk_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(transitions, "_SAMPLER_CHUNK", chunk)
        for seed in (0, 7):
            assert np.array_equal(
                random_dwork_smooth_points(150, seed), reference.dwork_smooth_points_per_draw(150, seed)
            )

    def test_near_a_node_keeps_the_all_nodes_verdict(self):
        """Only points with every |z_i| near 1 are measured against the
        nodes; the verdict is that of measuring every point against all 125:
        points 1e-3 to 3e-2 from a node, points on the unit torus and draws."""
        nodes = transitions.dwork_nodes()
        rng = np.random.default_rng(11)
        offsets = 10.0 ** rng.uniform(-3, -1.5, (400, 1)) / 2 * np.exp(2j * np.pi * rng.uniform(0, 1, (400, 4)))
        zs = np.concatenate([
            nodes[rng.integers(125, size=400)] + offsets,
            np.exp(2j * np.pi * rng.uniform(0, 1, (400, 4))),
            random_dwork_smooth_points(100, 1),
        ])
        expected = [np.min(np.linalg.norm(nodes - z, axis=1)) < 1e-2 for z in zs]
        assert transitions._near_a_node(zs).tolist() == expected
        assert 100 < sum(expected) < 400

    def test_rejected_draws_are_refilled_in_draw_order(self, monkeypatch):
        """Reject about a tenth of the draws (as if off the variety): both
        samplers must skip the same draws and draw the same replacements."""
        value = DworkQuintic.__call__

        def off_when_z1_is_far_right(self, z):
            return value(self, z) + np.where(np.asarray(z)[..., 0].real > 1.0, 1.0, 0.0)

        monkeypatch.setattr(DworkQuintic, "__call__", off_when_z1_is_far_right)
        monkeypatch.setattr(transitions, "_SAMPLER_CHUNK", 16)
        for seed in (0, 3):
            sample = random_dwork_smooth_points(100, seed)
            assert len(sample) == 100 and np.all(sample[:, 0].real <= 1.0)
            assert np.array_equal(sample, reference.dwork_smooth_points_per_draw(100, seed))


class TestRecordValidation:
    def test_apply_refuses_a_bad_split(self):
        """A record is only made by apply_topology_change, which refuses a
        node count that does not split before building one."""
        with pytest.raises(ValueError, match=r"^node count must split: N=3, k\+c=2$"):
            apply_topology_change(2, 2, (0, 2, 6), N=3, k=1, c=1)

    def test_json_dict(self):
        rec = example_catalog()[0]
        data = json.loads(json.dumps(vars(rec)))
        assert data["name"] == "generic_nodal_quintic"
        assert data["N"] == data["k"] + data["c"]
        assert data["hodge_after"] == list(rec.hodge_after) and data["betti_after"] == list(rec.betti_after)
