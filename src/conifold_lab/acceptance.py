"""Acceptance criteria for the whole laboratory, runnable as one suite.

Each criterion function returns a CriterionResult with pass/fail, the
measured quantities and its wall time.  The pytest acceptance module and
the command line's verify-all subcommand both drive run_criteria; the
'fast' profile shrinks sample counts for smoke runs and is not the gate.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from conifold_lab import conifold, hodge, metrics, slag, transitions
from conifold_lab.exterior import form_norm


@dataclass
class Profile:
    name: str = "full"
    ma_points: int = 100
    asymptotic_points: int = 50
    convergence_grid: int = 200
    slag_resolution: int = 32
    calibration_nodes: int = 100
    friedman_max_rows: int = 4
    smooth_points: int = 200
    seed: int = 0

    @classmethod
    def fast(cls, seed: int = 0) -> "Profile":
        return cls(
            name="fast",
            ma_points=20,
            asymptotic_points=15,
            convergence_grid=40,
            slag_resolution=16,
            calibration_nodes=20,
            friedman_max_rows=3,
            smooth_points=40,
            seed=seed,
        )

    @classmethod
    def full(cls, seed: int = 0) -> "Profile":
        return cls(seed=seed)


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = dataclass_field(default_factory=dict)
    failures: list = dataclass_field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {status} [{self.elapsed:6.2f}s] {self.title}"


class Checks:
    """Named checks, kept in the order they were made.  Criteria read the
    `details` and `failures` views; command-line reports read `items`."""

    def __init__(self) -> None:
        self._checks: list[tuple[str, bool, str, dict]] = []  # name, passed, failure, detail

    def _add(self, name: str, passed, failure: str, **detail) -> None:
        self._checks.append((name, bool(passed), failure, detail))

    def le(self, name: str, measured, bound) -> None:
        """Passes when measured <= bound; a NaN measurement fails."""
        failure = f"{name}: {measured!r} > {bound!r}"
        self._add(name, measured <= bound, failure, measured=measured, tolerance=bound)

    def true(self, name: str, condition, measured=None) -> None:
        measured = bool(condition) if measured is None else measured
        self._add(name, condition, f"{name}: expected true", measured=measured)

    def equal(self, name: str, measured, expected) -> None:
        failure = f"{name}: {measured!r} != {expected!r}"
        self._add(name, measured == expected, failure, measured=measured, expected=expected)

    def note(self, name: str, measured) -> None:
        """Record a measurement that has no pass condition."""
        self._add(name, True, "", measured=measured)

    @property
    def details(self) -> dict:
        return {name: detail for name, _, _, detail in self._checks}

    @property
    def failures(self) -> list[str]:
        return [failure for _, passed, failure, _ in self._checks if not passed]

    @property
    def items(self) -> list[dict]:
        return [{"name": name, "passed": passed, "tolerance": detail.get("tolerance"),
                 "measured": detail["measured"]} for name, passed, _, detail in self._checks]

    @property
    def all_passed(self) -> bool:
        return all(passed for _, passed, _, _ in self._checks)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sample_fiber_points(t: complex, taus, rng: np.random.Generator) -> list[conifold.FiberPoint]:
    """Generic points of V_t at prescribed radii: real rotations of the normal
    form preserve both the fiber equation and the radius."""
    points = []
    for tau in taus:
        base = metrics.smoothed_normal_form_point(t, float(tau))
        points.append(conifold.FiberPoint(_random_rotation(rng) @ base.z, t))
    return points


def sample_resolved_points(a: float, radii, rng: np.random.Generator) -> list[conifold.ResolvedPoint]:
    """Points of the resolution across both direction charts with the given
    fiber radii |w|."""
    points = []
    for idx, radius in enumerate(radii):
        phases = np.exp(2j * math.pi * rng.uniform(0, 1, 4))
        ratio = rng.uniform(0.0, 0.95)
        u = np.array([1.0, ratio]) * phases[:2] if idx % 2 == 0 else np.array([ratio, 1.0]) * phases[:2]
        w_dir = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = radius * w_dir / np.linalg.norm(w_dir)
        points.append(conifold.ResolvedPoint(u, w))
    return points


# ---------------------------------------------------------------------------
# criteria


def criterion_01(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    spec = hodge.HypersurfaceSpec(4, 5)
    diamond = hodge.hodge_diamond(spec)
    chk.equal("h11", diamond.h(1, 1), 1)
    chk.equal("h21", diamond.h(2, 1), 101)
    chk.equal("chi_omega1", hodge.chi_hypersurface_omega_p(spec, 1, 0), 100)
    chk.equal("middle_row", list(diamond.middle_row()), [1, 101, 101, 1])
    try:
        diamond.check_invariants()
        chk.true("diamond_invariants", True)
    except AssertionError as exc:
        chk.true("diamond_invariants", False, str(exc))
    expected = [[1 if p == q else 0 for q in range(4)] for p in range(4)]
    for p in range(4):
        expected[p][3 - p] = [1, 101, 101, 1][p]
    chk.equal("full_diamond", diamond.entries, expected)
    return "quintic Hodge diamond exact", 1.0, chk


def criterion_02(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    k3 = hodge.hodge_diamond(hodge.HypersurfaceSpec(3, 4))
    chk.equal("k3_h11", k3.h(1, 1), 20)
    chk.equal("quintic_moduli", hodge.quintic_moduli_dimension(), 101)
    chk.equal("quartic_moduli", hodge.quartic_k3_moduli_dimension(), 19)
    return "K3 diamond and moduli counts", 1.0, chk


def criterion_03(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    rng = np.random.default_rng(profile.seed)
    n = profile.ma_points

    fam = metrics.PotentialFamily.cone()
    taus = np.logspace(-2, 2, n)
    ode = max(metrics.ode_residual(fam, t) for t in taus)
    ma = max(metrics.monge_ampere_residual(fam, p) for p in sample_fiber_points(0.0, taus, rng))
    chk.le("cone_ode_residual", ode, 1e-8)
    chk.le("cone_ma_residual", ma, 1e-7)

    fam = metrics.PotentialFamily.smoothed(1.0)
    taus = np.logspace(math.log10(1.01), 3, n)
    ode = max(metrics.ode_residual(fam, t) for t in taus)
    ma = max(metrics.monge_ampere_residual(fam, p) for p in sample_fiber_points(1.0, taus, rng))
    chk.le("smoothed_ode_residual", ode, 1e-8)
    chk.le("smoothed_ma_residual", ma, 1e-7)

    fam = metrics.PotentialFamily.resolved(1.0)
    taus = np.logspace(-1, 3, n)
    ode = max(metrics.ode_residual(fam, t) for t in taus)
    pts = sample_resolved_points(1.0, np.logspace(-2, 2, n), rng)
    chk.true("resolved_both_charts", {p.chart for p in pts} == {1, 2})
    ma = max(metrics.monge_ampere_residual(fam, p) for p in pts)
    chk.le("resolved_ode_residual", ode, 1e-8)
    chk.le("resolved_ma_residual", ma, 1e-7)
    return "volume-form equation certified along all three families", 30.0, chk


def criterion_04(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    sample = metrics.potential_value(metrics.PotentialFamily.resolved(1.0), 1e-8)
    chk.le("fprime_limit_error", abs(sample.fp - 1.0 / math.sqrt(6.0)), 1e-6)
    return "resolved profile slope limit 1/sqrt(6) at the zero section", 1.0, chk


def criterion_05(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    taus = np.logspace(2, 6, profile.asymptotic_points)
    rs = metrics.PotentialFamily.resolved(1.0)
    weighted = [
        abs(metrics.asymptotic_deviation(rs, t, subtract_gauge=True)) * t**0.25 for t in taus
    ]
    chk.le("resolved_weighted_deviation_max", max(weighted), 2.0)
    chk.true(
        "resolved_weighted_deviation_decreasing",
        all(weighted[i + 1] < weighted[i] for i in range(len(weighted) - 1)),
        measured=[weighted[0], weighted[-1]],
    )
    sm = metrics.PotentialFamily.smoothed(1.0)
    devs = [metrics.asymptotic_deviation(sm, t, subtract_gauge=True) for t in taus]
    chk.true(
        "smoothed_deviation_decreasing",
        all(abs(devs[i + 1]) < abs(devs[i]) for i in range(len(devs) - 1)),
        measured=[devs[0], devs[-1]],
    )
    chk.le("smoothed_deviation_final", abs(devs[-1]), 1e-6)
    return "asymptotically conical decay of both potentials", 30.0, chk


def criterion_06(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    a_params = [1.0, 0.5, 0.25, 0.125, 1e-3]
    t_params = [0.5, 0.25, 0.125, 1e-3]
    sups_a = metrics.potential_convergence_sup("resolved", a_params, 1.0, 10.0, profile.convergence_grid)
    sups_t = metrics.potential_convergence_sup("smoothed", t_params, 1.0, 10.0, profile.convergence_grid)
    chk.true(
        "resolved_sups_strictly_decreasing",
        all(sups_a[i + 1] < sups_a[i] for i in range(len(sups_a) - 1)),
        measured=sups_a,
    )
    chk.true(
        "smoothed_sups_strictly_decreasing",
        all(sups_t[i + 1] < sups_t[i] for i in range(len(sups_t) - 1)),
        measured=sups_t,
    )
    chk.le("resolved_sup_final", sups_a[-1], 1e-3)
    chk.le("smoothed_sup_final", sups_t[-1], 1e-3)
    return "potential-level continuity through the transition", 60.0, chk


def criterion_07(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    res = profile.slag_resolution
    for label, t in (("t1", 1.0), ("ti", 1j), ("tgen", 0.3 * cmath.exp(1j * math.pi / 5))):
        grid = slag.sample_vanishing_cycle(t, res)
        value = slag.integrate_volume_form(grid)
        exact = slag.exact_cycle_integral(t)
        chk.le(f"period_rel_error_{label}", abs(value - exact) / abs(exact), 1e-4)
    err_lo, err_hi, order = slag.convergence_order(1.0, res // 2, res)
    chk.true("order_at_least_2", order >= 2.0, measured=order)
    chk.note("convergence_errors", [err_lo, err_hi])
    return "vanishing-cycle period 2 pi^2 t with measured convergence", 60.0, chk


def criterion_08(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    t = cmath.exp(1j * math.pi / 3)
    grid = slag.sample_vanishing_cycle(t, 16)
    rng = np.random.default_rng(profile.seed)
    idx = rng.choice(grid.nodes.shape[0], profile.calibration_nodes, replace=False)
    residuals = [slag.calibration_residual(t, grid.nodes[i], grid.cycle_frame(i)) for i in idx]
    chk.le("calibration_residual_max", max(residuals), 1e-10)
    controls = [
        slag.calibration_residual(t, grid.nodes[i], slag.perturbed_frame(grid.cycle_frame(i)))
        for i in idx[: max(10, profile.calibration_nodes // 10)]
    ]
    chk.true("negative_control_detected", min(controls) > 1e-2, measured=min(controls))
    return "special-Lagrangian phase calibration on the cycle", 30.0, chk


GENERIC_CONE_POINT = np.array([0.31 + 0.22j, -0.25 + 0.14j, 0.18 - 0.29j], dtype=complex)


def _generic_v0_point() -> conifold.FiberPoint:
    z123 = GENERIC_CONE_POINT
    z4 = 1j * np.sqrt(np.sum(z123**2))
    return conifold.FiberPoint(np.append(z123, z4), 0.0)


def criterion_09(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    p = _generic_v0_point()
    base = conifold.volume_form_chart_coefficients(p)
    first = conifold.omega_tilde_1_coefficients(p)
    errors = []
    for t in (1e-2, 1e-3, 1e-4):
        pulled = conifold.pullback_volume_form(p, t)
        keys = set(pulled) | set(base) | set(first)
        diff = max(
            abs((pulled.get(k, 0.0) - base.get(k, 0.0)) / t - first.get(k, 0.0)) for k in keys
        )
        errors.append(diff)
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    chk.true("expansion_ratio_first", 8.0 <= ratio1 <= 12.0, measured=ratio1)
    chk.true("expansion_ratio_second", 8.0 <= ratio2 <= 12.0, measured=ratio2)

    derivative = conifold.fd_exterior_derivative(p)
    scale = form_norm(first) / math.sqrt(p.norm_sq)
    chk.le("closedness_fd_norm", form_norm(derivative), 1e-6 * scale)

    rng = np.random.default_rng(profile.seed)
    frame = conifold.random_tangent_frame(p, rng)
    v_ref = conifold.omega_tilde_1(p, frame)
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        scaled_point = conifold.rescale_fiber(p, lam)
        scaled_frame = [complex(lam) ** 1.5 * leg for leg in frame]
        v_scaled = conifold.omega_tilde_1(scaled_point, scaled_frame)
        worst = max(worst, abs(v_scaled - v_ref) / abs(v_ref))
    chk.le("scale_invariance_residual", worst, 1e-10)
    return "first-order deformation form: expansion, closedness, invariance", 30.0, chk


def criterion_10(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    catalog = transitions.example_catalog()
    chk.equal("catalog_size", len(catalog), 4)
    for rec in catalog:
        rebuilt = transitions.apply_topology_change(
            rec.hodge_before[0],
            rec.hodge_before[1],
            rec.betti_before,
            N=rec.N,
            k=rec.k,
            c=rec.c,
        )
        chk.equal(f"{rec.name}_forward", (rebuilt.hodge_after, rebuilt.betti_after),
                  (rec.hodge_after, rec.betti_after))
        chk.equal(
            f"{rec.name}_counts",
            transitions.infer_counts(rec.hodge_before, rec.hodge_after, rec.N),
            (rec.k, rec.c),
        )
        chk.equal(f"{rec.name}_split", rec.N, rec.k + rec.c)
        chk.equal(f"{rec.name}_euler_drop", rec.euler_drop(), 2 * rec.N)
    by_name = {r.name: r for r in catalog}
    chk.equal("schoen_kc", (by_name["schoen_quintic_resolution"].k, by_name["schoen_quintic_resolution"].c), (24, 101))
    chk.equal("tian_yau_kc", (by_name["tian_yau"].k, by_name["tian_yau"].c), (14, 1))
    chk.equal("tian_yau_after", by_name["tian_yau"].hodge_after, (0, 24))
    chk.equal("tian_yau_b3", by_name["tian_yau"].betti_after[2], 50)
    return "catalog transitions round-trip exactly", 1.0, chk


def _batched_det(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of stacked k x k integer matrices, k <= 4, by
    cofactor expansion (no floating point)."""
    k = mats.shape[-1]
    if k == 1:
        return mats[..., 0, 0]
    if k == 2:
        return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    total = np.zeros(mats.shape[:-2], dtype=np.int64)
    cols = list(range(k))
    for j in range(k):
        minor = mats[..., 1:, :][..., :, cols[:j] + cols[j + 1 :]]
        total += (-1) ** j * mats[..., 0, j] * _batched_det(minor)
    return total


def batched_integer_rank(mats: np.ndarray) -> np.ndarray:
    """Exact rank of stacked small integer matrices via minor enumeration.
    Supports shapes (..., N, m) with min(N, m) <= 4."""
    mats = np.asarray(mats, dtype=np.int64)
    n, m = mats.shape[-2], mats.shape[-1]
    if min(n, m) > 4:
        raise ValueError("minor enumeration implemented up to 4x4")
    rank = (np.abs(mats).sum(axis=(-2, -1)) > 0).astype(np.int64)
    for size in range(2, min(n, m) + 1):
        has = np.zeros(mats.shape[:-2], dtype=bool)
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(m), size):
                sub = mats[..., rows, :][..., :, cols]
                has |= _batched_det(sub) != 0
        rank = np.where(has, size, rank)
    return rank


def shared_minor_ranks(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact rank of stacked integer matrices (..., N, m) with m <= 3, and
    the rank with each single row deleted, as (full, deleted[i]).

    The rank is the largest k such that some k rows have a nonzero k x k
    minor: a nonzero row, a row pair with a nonzero 2 x 2 minor (the cross
    product when m = 3), a row triple with a nonzero triple product.  Each
    row subset's flag is computed once and shared by the full matrix and by
    every deletion that keeps the subset's rows."""
    mats = np.asarray(mats)
    n, m = mats.shape[-2], mats.shape[-1]
    if m > 3:
        raise ValueError("shared-minor ranks implemented for m <= 3")
    # the largest intermediate is a triple product, |.| <= 6 max|entry|^3
    bound = 6 * int(np.abs(mats).max(initial=0)) ** 3
    if bound >= 2**63:
        raise ValueError("entries too large for exact int64 minors")
    mats = mats.astype(np.min_scalar_type(-max(bound, 1)), copy=False)
    rows = [mats[..., i, :] for i in range(n)]
    flags = {(i,): rows[i].any(axis=-1) for i in range(n)}
    minors = {}
    if m >= 2:
        col_pairs = list(itertools.combinations(range(m), 2))
        for i, j in itertools.combinations(range(n), 2):
            a, b = rows[i], rows[j]
            minors[i, j] = [a[..., p] * b[..., q] - a[..., q] * b[..., p] for p, q in col_pairs]
            flags[i, j] = np.logical_or.reduce([d != 0 for d in minors[i, j]])
    if m == 3:
        for i, j, k in itertools.combinations(range(n), 3):
            d01, d02, d12 = minors[i, j]
            c = rows[k]
            flags[i, j, k] = c[..., 0] * d12 - c[..., 1] * d02 + c[..., 2] * d01 != 0

    def rank_without(deleted) -> np.ndarray:
        # a nonzero k-minor implies a nonzero (k-1)-minor, so the levels nest
        rank = np.zeros(mats.shape[:-2], dtype=np.int8)
        for size in range(1, min(n, m) + 1):
            kept = [f for s, f in flags.items() if len(s) == size and deleted not in s]
            if kept:
                rank += np.logical_or.reduce(kept)
        return rank

    return rank_without(None), np.stack([rank_without(i) for i in range(n)])


def feasibility_oracle(mats: np.ndarray) -> np.ndarray:
    """Rank-based smoothability oracle, independent of the kernel solver:
    an all-nonzero annihilating combination exists iff deleting any single
    class vector leaves the rank unchanged.  Ranks come from shared row
    minors when m <= 3 and from minor enumeration otherwise."""
    mats = np.asarray(mats)
    n, m = mats.shape[-2], mats.shape[-1]
    if m <= 3:
        full, deleted = shared_minor_ranks(mats)
        return np.all(deleted == full, axis=0)
    full = batched_integer_rank(mats)
    ok = np.ones(mats.shape[:-2], dtype=bool)
    for i in range(n):
        reduced = np.delete(mats, i, axis=-2)
        ok &= batched_integer_rank(reduced) == full
    return ok


def _canonical_class_keys(mats: np.ndarray) -> np.ndarray:
    """One int64 key per matrix naming its equivalence class.  Feasibility
    is invariant under row permutation and row negation: a row reads as the
    base-3 number k < 3^m with digits entry + 1, its negation as
    3^m - 1 - k, and the row's key is the smaller of the two.  The sorted
    row keys are packed into one integer below 3^(m N), first row most
    significant."""
    n, m = mats.shape[-2], mats.shape[-1]
    assert 3 ** (m * n) <= 2**63, "class keys must fit in int64"
    row_keys = np.zeros(mats.shape[:-1], dtype=np.int64)
    for j in range(m):
        row_keys = row_keys * 3 + (mats[..., j] + 1)
    row_keys = np.minimum(row_keys, 3**m - 1 - row_keys)
    row_keys.sort(axis=-1)
    keys = np.zeros(mats.shape[:-2], dtype=np.int64)
    for i in range(n):
        keys = keys * 3**m + row_keys[..., i]
    return keys


def _decode_class_key(key: int, n: int, m: int) -> list[tuple[int, ...]]:
    digits = []
    for _ in range(n * m):
        digits.append(key % 3 - 1)
        key //= 3
    digits.reverse()
    return [tuple(digits[i * m : (i + 1) * m]) for i in range(n)]


def exhaustive_friedman_agreement(max_rows: int, max_cols: int = 3) -> tuple[int, int]:
    """Compare the exact witness solver against the rank oracle over every
    class matrix with entries in {-1, 0, 1}, N <= max_rows, m <= max_cols.

    The oracle runs on every matrix.  For m <= 3 it takes ranks from row
    minors computed once per row subset and shared by the full matrix and
    its single-row deletions: nonzero rows, 2 x 2 minors of row pairs,
    triple products of row triples.  The exact solver runs once per
    equivalence class (row order and row signs do not matter); a class is
    keyed by its sorted sign-normalized rows packed into one int64 below
    3^(m N), so N m <= 39.  Returns (matrices checked, mismatches)."""
    checked = 0
    mismatches = 0
    values = (-1, 0, 1)
    for n in range(1, max_rows + 1):
        for m in range(1, max_cols + 1):
            rows_pool = np.array(list(itertools.product(values, repeat=m)), dtype=np.int8)
            index_grid = np.indices((len(rows_pool),) * n, dtype=np.int8).reshape(n, -1).T
            all_matrices = rows_pool[index_grid]  # (3^(n*m), n, m)
            oracle = feasibility_oracle(all_matrices)
            keys = _canonical_class_keys(all_matrices)
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            solver = np.empty(len(unique_keys), dtype=bool)
            for idx, key in enumerate(unique_keys):
                rows = _decode_class_key(int(key), n, m)
                witness = transitions.friedman_witness(transitions.ClassMatrix(rows))
                solver[idx] = witness is not None
            checked += all_matrices.shape[0]
            mismatches += int(np.sum(solver[inverse] != oracle))
    return checked, mismatches


def criterion_11(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    rows = [[1 if j == i else 0 for j in range(14)] for i in range(14)] + [[-1] * 14]
    witness = transitions.friedman_witness(transitions.ClassMatrix(rows))
    chk.true("tian_yau_witness_found", witness is not None)
    if witness is not None:
        chk.true("tian_yau_witness_nonzero", all(witness))
        chk.equal("tian_yau_witness_length", len(witness), 15)
    chk.true(
        "single_nonzero_infeasible",
        transitions.friedman_witness(transitions.ClassMatrix([[1, 0, 0]])) is None,
    )
    checked, mismatches = exhaustive_friedman_agreement(profile.friedman_max_rows)
    chk.equal("oracle_mismatches", mismatches, 0)
    chk.note("oracle_matrices_checked", checked)
    return "first-order smoothability solver vs exhaustive oracle", 30.0, chk


def criterion_12(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    points = transitions.dwork_singular_points()
    chk.equal("singular_count", len(points), 125)
    chk.true(
        "contains_unit_point",
        any(p.exponents == (0, 0, 0, 0, 0) for p in points),
    )
    chk.true("exact_cyclotomic_all", all(transitions.verify_dwork_point_exact(p) for p in points))
    poly = transitions.dwork_polynomial()
    certs = [transitions.verify_odp(poly, p.to_affine()) for p in points]
    chk.true("all_odp", all(c.is_odp for c in certs))
    chk.note("min_det_margin", min(c.hessian_det / c.det_threshold for c in certs))
    smooth = transitions.random_dwork_smooth_points(profile.smooth_points, seed=profile.seed)
    smooth_certs = [transitions.verify_odp(poly, z) for z in smooth]
    chk.true("smooth_points_not_singular", all(c.status == "not_singular" for c in smooth_certs))
    chk.note("smooth_min_gradient", min(c.gradient_norm for c in smooth_certs))
    return "nodal pencil member: 125 double points certified", 60.0, chk


CRITERIA = {
    "C01": criterion_01,
    "C02": criterion_02,
    "C03": criterion_03,
    "C04": criterion_04,
    "C05": criterion_05,
    "C06": criterion_06,
    "C07": criterion_07,
    "C08": criterion_08,
    "C09": criterion_09,
    "C10": criterion_10,
    "C11": criterion_11,
    "C12": criterion_12,
}


def run_criterion(cid: str, profile: Profile) -> CriterionResult:
    fn = CRITERIA[cid]
    start = time.perf_counter()
    title, budget, chk = fn(profile)
    elapsed = time.perf_counter() - start
    failures = chk.failures
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget:.0f}s")
    return CriterionResult(
        cid=cid,
        title=title,
        passed=not failures,
        elapsed=elapsed,
        budget=budget,
        details=chk.details,
        failures=failures,
    )


def run_criteria(profile: Profile, only=None) -> list[CriterionResult]:
    cids = sorted(CRITERIA) if only is None else sorted(only)
    unknown = [cid for cid in cids if cid not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; known: {sorted(CRITERIA)}")
    return [run_criterion(cid, profile) for cid in cids]
