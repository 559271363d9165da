"""Acceptance criteria for the whole laboratory, runnable as one suite.

Each criterion function returns a CriterionResult with pass/fail, the
measured quantities and its wall time.  The pytest acceptance module and
the command line's verify-all subcommand both drive run_criteria; the
'fast' profile shrinks sample counts for smoke runs and is not the gate.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from conifold_lab import conifold, hodge, metrics, slag, transitions
from conifold_lab.checks import CONVERGENCE_ANNULUS, MA_RESIDUAL_GATE, ODE_RESIDUAL_GATE, PERIOD_ERROR_GATE, Checks


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


def sample_fiber_points(t: complex, taus, rng: np.random.Generator) -> conifold.FiberPoint:
    """Generic points of V_t at prescribed radii, one FiberPoint stack: real
    rotations of the normal form preserve the fiber equation and the radius
    (per point, the Q of a Gaussian QR with R's diagonal positive, det Q = 1)."""
    base = metrics.smoothed_normal_form_points(t, taus).z
    q, r = np.linalg.qr(rng.normal(size=(len(base), 4, 4)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1
    return conifold.FiberPoint((q @ base[:, :, None])[:, :, 0], t)


def sample_resolved_points(radii, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Points (u, w) of the resolution across both direction charts with the
    given fiber radii |w|: drawn point by point, then computed and normalized
    as ResolvedPoint does (max |u_i| = 1, w scaled by it) in one stack."""
    radii = np.asarray(radii, dtype=float)
    draws = np.empty((len(radii), 9))
    for row in draws:
        row[:4], row[4], row[5:] = rng.uniform(0, 1, 4), rng.uniform(0.0, 0.95), rng.normal(size=4)
    phases = np.exp(2j * math.pi * draws[:, :2])
    # the even points lie in the U1 chart (|U1| = 1), the odd in the U2 chart
    u = np.where(np.arange(len(radii))[:, None] % 2 == [0, 1], 1.0, draws[:, 4:5]) * phases
    w_dir = draws[:, 5:7] + 1j * draws[:, 7:9]
    norm = np.sqrt(np.vecdot(w_dir.real, w_dir.real) + np.vecdot(w_dir.imag, w_dir.imag))
    w = radii[:, None] * w_dir / norm[:, None]
    scale = np.abs(u).max(axis=1, keepdims=True)
    return u / scale, w * scale


# ---------------------------------------------------------------------------
# criteria


def criterion_01(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    spec = hodge.HypersurfaceSpec(4, 5)
    diamond = hodge.hodge_diamond(spec)
    chk.equal("h11", diamond.h(1, 1), 1)
    chk.equal("h21", diamond.h(2, 1), 101)
    chk.equal("chi_omega1", hodge.chi_hypersurface_omega_p(spec, 1), 100)
    chk.equal("middle_row", list(diamond.middle_row()), [1, 101, 101, 1])
    chk.true("diamond_invariants", (violation := diamond.check_invariants()) is None, violation)
    expected = [[1 if p == q else 0 for q in range(4)] for p in range(4)]
    for p in range(4):
        expected[p][3 - p] = [1, 101, 101, 1][p]
    chk.equal("full_diamond", diamond.entries, expected)
    return "quintic Hodge diamond exact", 1.0, chk


def criterion_02(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    k3 = hodge.hodge_diamond(hodge.HypersurfaceSpec(3, 4))
    chk.equal("k3_h11", k3.h(1, 1), 20)
    chk.equal("quintic_moduli", hodge.moduli_dimension(4, 5), 101)
    chk.equal("quartic_moduli", hodge.moduli_dimension(3, 4), 19)
    return "K3 diamond and moduli counts", 1.0, chk


def criterion_03(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    rng = np.random.default_rng(profile.seed)
    n = profile.ma_points

    for fam, taus in ((metrics.PotentialFamily.cone(), np.logspace(-2, 2, n)),
                      (metrics.PotentialFamily.smoothed(1.0), np.logspace(math.log10(1.01), 3, n))):
        prof = metrics.profile(fam, taus)
        ode = float(np.max(metrics.ode_residuals(fam, prof)))
        ma = float(np.max(metrics.monge_ampere_residuals(fam, sample_fiber_points(fam.t, taus, rng), prof)))
        chk.le(f"{fam.kind}_ode_residual", ode, ODE_RESIDUAL_GATE)
        chk.le(f"{fam.kind}_ma_residual", ma, MA_RESIDUAL_GATE)

    fam = metrics.PotentialFamily.resolved(1.0)
    taus = np.logspace(-1, 3, n)
    ode = float(np.max(metrics.ode_residuals(fam, metrics.profile(fam, taus))))
    pts = sample_resolved_points(np.logspace(-2, 2, n), rng)
    prof = metrics.profile(fam, metrics.point_taus(pts))
    _, _, charts = metrics.chart_hessians(fam, pts, prof)
    chk.true("resolved_both_charts", set(charts.tolist()) == {1, 2})
    ma = float(np.max(metrics.monge_ampere_residuals(fam, pts, prof)))
    chk.le("resolved_ode_residual", ode, ODE_RESIDUAL_GATE)
    chk.le("resolved_ma_residual", ma, MA_RESIDUAL_GATE)
    return "volume-form equation certified along all three families", 30.0, chk


def criterion_04(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    fp = float(metrics.profile(metrics.PotentialFamily.resolved(1.0), [1e-8]).fp[0])
    chk.le("fprime_limit_error", abs(fp - 1.0 / math.sqrt(6.0)), 1e-6)
    return "resolved profile slope limit 1/sqrt(6) at the zero section", 1.0, chk


def criterion_05(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    taus = np.logspace(2, 6, profile.asymptotic_points)
    rs = metrics.PotentialFamily.resolved(1.0)
    prof = metrics.profile(rs, taus)
    dev = metrics.asymptotic_deviations(rs, prof)
    weighted = (np.abs(dev) * prof.tau**0.25).tolist()
    chk.le("resolved_weighted_deviation_max", max(weighted), 2.0)
    chk.decreasing("resolved_weighted_deviation_decreasing", weighted, measured=[weighted[0], weighted[-1]])
    # error model: at a = 1 the deviation is -6 s + 4 s^2 + ... in s = tau^{-2/3},
    # so dev / s + 6 at the largest tau is the next term, bounded by twice it
    s = float(taus[-1]) ** (-2.0 / 3.0)
    chk.le("resolved_deviation_next_order", abs(float(dev[-1]) / s + 6.0), 8.0 * s)
    sm = metrics.PotentialFamily.smoothed(1.0)
    devs = metrics.asymptotic_deviations(sm, metrics.profile(sm, taus)).tolist()
    chk.decreasing("smoothed_deviation_decreasing", map(abs, devs), measured=[devs[0], devs[-1]])
    chk.le("smoothed_deviation_final", abs(devs[-1]), 1e-6)
    return "asymptotically conical decay of both potentials", 30.0, chk


def criterion_06(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    for kind, params in (("resolved", (1.0, 0.5, 0.25, 0.125, 1e-3)), ("smoothed", (0.5, 0.25, 0.125, 1e-3))):
        families = [getattr(metrics.PotentialFamily, kind)(param) for param in params]
        sups = metrics.potential_convergence_sup(families, *CONVERGENCE_ANNULUS, profile.convergence_grid)
        chk.decreasing(f"{kind}_sups_strictly_decreasing", sups)
        chk.le(f"{kind}_sup_final", sups[-1], 1e-3)
    return "potential-level continuity through the transition", 60.0, chk


def criterion_07(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    res = profile.slag_resolution
    # the order audit's high-resolution error is the t = 1 period error
    err_lo, err_hi, order = slag.convergence_order(1.0, res // 2, res)
    chk.le("period_rel_error_t1", err_hi, PERIOD_ERROR_GATE)
    for label, t in (("ti", 1j), ("tgen", 0.3 * cmath.exp(1j * math.pi / 5))):
        chk.le(f"period_rel_error_{label}", slag.cycle_period(t, res)[1], PERIOD_ERROR_GATE)
    chk.true("order_at_least_2", order >= 2.0, measured=order)
    chk.true("order_in_window", 3.5 <= order <= 4.5, measured=order)  # the composite Gauss rule has order 4
    chk.note("convergence_errors", [err_lo, err_hi])
    return "vanishing-cycle period 2 pi^2 t with measured convergence", 60.0, chk


def criterion_08(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    t = cmath.exp(1j * math.pi / 3)
    grid = slag.sample_vanishing_cycle(t, 16)
    rng = np.random.default_rng(profile.seed)
    idx = rng.choice(grid.resolution**3, profile.calibration_nodes, replace=False)
    nodes, _, _, sphere_frames = grid.at(idx)
    frames = sphere_frames * (grid.sqrt_t / abs(grid.sqrt_t))
    residual, orientation = slag.calibration_residual(t, nodes, frames)
    chk.le("calibration_residual_max", float(residual.max()), 1e-10)
    chk.true("calibration_orientation_min", orientation.min() >= 1.0 - 1e-10, measured=float(orientation.min()))
    n_controls = max(10, profile.calibration_nodes // 10)
    control, _ = slag.calibration_residual(t, nodes[:n_controls], slag.perturbed_frame(frames[:n_controls]))
    chk.true("negative_control_detected", control.min() > 1e-2, measured=float(control.min()))
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
    errors = [
        float(np.max(np.abs((conifold.pullback_volume_form(p, t) - base) / t - first)))
        for t in (1e-2, 1e-3, 1e-4)
    ]
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    chk.true("expansion_ratio_first", 8.0 <= ratio1 <= 12.0, measured=ratio1)
    chk.true("expansion_ratio_second", 8.0 <= ratio2 <= 12.0, measured=ratio2)

    derivative = conifold.fd_exterior_derivative(p)
    scale = float(np.max(np.abs(first))) / math.sqrt(p.norm_sq)
    chk.le("closedness_fd_norm", float(np.max(np.abs(derivative))), 1e-6 * scale)

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
    catalog = hodge.example_catalog()
    chk.equal("catalog_size", len(catalog), 4)
    for rec in catalog:
        rebuilt = hodge.apply_topology_change(
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
            hodge.infer_counts(rec.hodge_before, rec.hodge_after, rec.N),
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


def _minor_ranks(rows) -> tuple[np.ndarray, list]:
    """Whether the rows of integer matrices with m <= 3 columns are linearly
    independent, and the exact rank with each single row deleted, as
    (independent, [rank without row i]).

    The N rows run along the first axis: N arrays (..., m) that broadcast
    against each other, or one array with the rows on axis 0 (a stack
    (k, N, m) goes in as np.moveaxis(mats, -2, 0)).  Each rank takes the
    broadcast shape of the rows it keeps.  The rank is the largest k such
    that some k rows have a nonzero k x k minor: a nonzero row, a row pair
    with a nonzero 2 x 2 minor (the cross product when m = 3), a row triple
    with a nonzero triple product.  Each row subset's flag is computed once,
    on the broadcast shape of its own rows, and shared by every deletion
    that keeps the subset's rows, so no rank reaches the shape of the whole
    matrix set.  The rows are independent iff the N-row minor flag is set,
    which needs N <= m; the full rank is N then, and otherwise the largest
    deleted rank (a rank r < N is reached by r rows, which leave one out)."""
    rows = [np.asarray(r) for r in rows]
    n, m = len(rows), rows[0].shape[-1]
    if m > 3:
        raise ValueError("shared-minor ranks implemented for m <= 3")
    # the largest intermediate is a triple product, |.| <= 6 max|entry|^3;
    # magnitudes from min and max, since np.abs keeps int8's -128 negative
    bound = 6 * max(max(-int(r.min(initial=0)), int(r.max(initial=0))) for r in rows) ** 3
    if bound >= 2**63:
        raise ValueError("entries too large for exact int64 minors")
    dtype = np.min_scalar_type(-max(bound, 1))
    rows = [r.astype(dtype, copy=False) for r in rows]
    flags = {(i,): rows[i].any(axis=-1) for i in range(n)}
    minors = {}
    if m >= 2:
        col_pairs = list(itertools.combinations(range(m), 2))
        for i, j in itertools.combinations(range(n), 2):
            a, b = rows[i], rows[j]
            minors[i, j] = [a[..., p] * b[..., q] - a[..., q] * b[..., p] for p, q in col_pairs]
            flags[i, j] = functools.reduce(np.logical_or, [d != 0 for d in minors[i, j]])
    if m == 3:
        for i, j, k in itertools.combinations(range(n), 3):
            d01, d02, d12 = minors[i, j]
            c = rows[k]
            flags[i, j, k] = c[..., 0] * d12 - c[..., 1] * d02 + c[..., 2] * d01 != 0

    def rank_without(deleted: int) -> np.ndarray:
        # a nonzero k-minor implies a nonzero (k-1)-minor, so the levels nest
        rank = np.int8(0)
        for size in range(1, min(n, m) + 1):
            kept = [f for s, f in flags.items() if len(s) == size and deleted not in s]
            if kept:
                rank = rank + functools.reduce(np.logical_or, kept)
        return rank

    return flags[tuple(range(n))] if n <= m else False, [rank_without(i) for i in range(n)]


def feasibility_oracle(rows) -> np.ndarray:
    """Rank-based smoothability oracle, independent of the kernel solver:
    an all-nonzero annihilating combination exists iff deleting any single
    class vector leaves the rank unchanged, that is iff the rows are
    dependent and every deletion leaves the same rank.  Takes rows as
    _minor_ranks does, so m <= 3."""
    independent, deleted = _minor_ranks(rows)
    return functools.reduce(np.logical_and, [d == deleted[0] for d in deleted[1:]], np.logical_not(independent))


@functools.cache
def _classes(names: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted n-tuples of the names 0 .. names - 1, (classes, n) in
    combinations_with_replacement order, and the class of every n-tuple,
    sorted or not, as int16 of shape (names,) * n; both read-only."""
    tuples = np.array(list(itertools.combinations_with_replacement(range(names), n)))
    index = np.empty((names,) * n, dtype=np.int16)
    index[tuple(tuples.T)] = np.arange(len(tuples))
    index = index[tuple(np.sort(np.indices(index.shape), axis=0))]
    tuples.flags.writeable = index.flags.writeable = False
    return tuples, index


def exhaustive_friedman_agreement(max_rows: int) -> tuple[int, int]:
    """Compare the exact witness solver against the rank oracle over every
    class matrix with entries in {-1, 0, 1}, N <= max_rows, m <= 3.

    The matrices are never stacked.  Row i of the enumeration is the pool
    of all 3^m sign rows laid along axis i, so the P^N matrices (P = 3^m)
    are the broadcast of N rows, first row most significant.  The oracle
    runs on every matrix: pair minors live on P^2 entries, triple products
    on P^3, deleted ranks on P^(N-1); only their comparisons fill the P^N
    grid.  Feasibility does not change under row order or row signs; pool
    row k is the negation of row P - 1 - k, so min(k, P - 1 - k) names a
    row up to sign and a class is a sorted tuple of these (P + 1) / 2 names.
    The classes of one shape are stacked as pool[classes] and solved in one
    call, and the class index spreads the verdicts over every name tuple.
    Along each axis the pool's names read 0, 1, .., (P - 1) / 2, .., 1, 0,
    the reflect extension of 0 .. (P - 1) / 2, so the reflect extension of
    that table gives each matrix its verdict.  Returns (checked, mismatches)."""
    checked = 0
    mismatches = 0
    for n in range(1, max_rows + 1):
        for m in range(1, 4):
            pool = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int8)
            size = len(pool)
            axes = [(1,) * i + (size,) + (1,) * (n - 1 - i) for i in range(n)]
            oracle = feasibility_oracle([pool.reshape(shape + (m,)) for shape in axes])
            names = (size + 1) // 2
            classes, index = _classes(names, n)
            feasible, _, _ = transitions.friedman_witnesses(pool[classes])
            solver = np.pad(feasible[index], [(0, names - 1)] * n, mode="reflect")
            checked += size**n
            mismatches += int(np.count_nonzero(solver != oracle))
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


def _node_det_rtol(n: int = 4, kappa: float = 5.0) -> float:
    """Bound on |det H| / 5^7 - 1 over the nodes, from the n x n LU error
    model (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.3,
    partial pivoting).  The computed det is det(H + E) up to the roundings
    of the pivot product and |.|, where E holds the entries' own rounding
    (each a product of up to three rounded roots of unity: ||E||_2 <=
    n gamma_16 ||H||_2) and the LU backward error (|L| <= 1 and growth
    rho_n <= 2^(n-1) give ||E||_2 <= n^2 rho_n gamma_4n ||H||_2, a complex
    flop counting as four real ones).  To first order
    |det(H + E) / det H - 1| <= n kappa_2(H) ||E||_2 / ||H||_2."""
    u = math.ulp(1.0) / 2

    def gamma(k: int) -> float:
        return k * u / (1 - k * u)

    return n * kappa * (n * gamma(16) + n**2 * 2 ** (n - 1) * gamma(4 * n)) + gamma(2 * n)


# At a node z_i^5 = 1 and z_1 z_2 z_3 z_4 = 1, so the Dwork Hessian is
# D^-1 (25 I - 5 J) D^-1 with D = diag(z_i) unitary: |det H| = 5 * 25^3 = 5^7,
# ||H||_2 = 25 and kappa_2(H) = 5 at every node.
NODE_HESSIAN_DET = 5**7
NODE_DET_RTOL = _node_det_rtol()


def criterion_12(profile: Profile) -> tuple[str, float, Checks]:
    chk = Checks()
    exps = transitions.dwork_exponents()
    chk.equal("singular_count", len(exps), 125)
    chk.true("contains_unit_point", np.any(np.all(exps == 0, axis=1)))
    chk.true("exact_cyclotomic_all", transitions.dwork_exact_check(exps).all())
    poly = transitions.DworkQuintic()
    nodes = transitions.verify_odps(poly, transitions.dwork_nodes())
    chk.true("all_odp", np.all(nodes.status == "odp"))
    chk.note("min_det_margin", float(np.min(nodes.hessian_det / nodes.det_threshold)))
    deviation = float(np.max(np.abs(nodes.hessian_det / NODE_HESSIAN_DET - 1.0)))
    chk.le("node_det_closed_form", deviation, NODE_DET_RTOL)
    smooth = transitions.random_dwork_smooth_points(profile.smooth_points, seed=profile.seed)
    sample = transitions.verify_odps(poly, smooth)
    chk.true("smooth_points_not_singular", np.all(sample.status == "not_singular"))
    chk.note("smooth_min_gradient", float(np.min(sample.gradient_norm)))
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
    """Run one criterion.  An exception raised inside it is its failure,
    recorded as '<Type>: <message>'."""
    fn = CRITERIA[cid]
    start = time.perf_counter()
    try:
        title, budget, chk = fn(profile)
        details, failures = chk.details, chk.failures
    except Exception as exc:
        title, budget, details, failures = "raised an exception", math.inf, {}, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget:.0f}s")
    return CriterionResult(
        cid=cid,
        title=title,
        passed=not failures,
        elapsed=elapsed,
        budget=budget,
        details=details,
        failures=failures,
    )


def run_criteria(profile: Profile, only=None) -> list[CriterionResult]:
    """Every criterion, or the IDs in only, in ID order."""
    return [run_criterion(cid, profile) for cid in sorted(CRITERIA if only is None else only)]
