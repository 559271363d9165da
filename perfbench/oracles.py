"""Output checks for every benchmark operation, independent of the code
they check.

Each ``check_*`` takes the operation and what the program returned and
gives back a list of failure messages (empty when the output is correct).
The references here share no code with the package: exact arithmetic is
redone in ``Fraction`` and integer elimination, the radial potentials come
from closed forms and this module's own Gauss-Legendre quadrature, and the
Dwork certificates from the closed-form Hessian of the quintic.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

PERIOD_RTOL = 1e-4
POTENTIAL_RTOL = 1e-10
CONVERGENCE_ATOL = 1e-9
ODE_GATE = 1e-8
MA_GATE = 1e-7

QUINTIC_DIAMOND = [[1, 0, 0, 1], [0, 1, 101, 0], [0, 101, 1, 0], [1, 0, 0, 1]]
K3_DIAMOND = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]


# ---------------------------------------------------------------------------
# reference radial potentials


def cone_potential(tau) -> np.ndarray:
    return 1.5 * np.asarray(tau, dtype=float) ** (2.0 / 3.0)


def resolved_unit_potential(sigma) -> np.ndarray:
    """f_1(sigma) = int_0^sigma gamma(s)/s ds with gamma^3 + 6 gamma^2 = s^2.

    Substituting s = gamma sqrt(gamma + 6) turns the integrand into
    3/2 - 3/(gamma + 6), so f_1 = (3/2) G - 3 log(1 + G/6) at the root G.
    The root comes from Newton's method started above it (the cubic is
    convex there, so the iterates decrease monotonically)."""
    sigma = np.asarray(sigma, dtype=float)
    g = np.minimum(sigma ** (2.0 / 3.0), sigma / math.sqrt(6.0))
    for _ in range(80):
        slope = 3.0 * g * g + 12.0 * g
        step = np.divide(g * g * (g + 6.0) - sigma * sigma, slope,
                         out=np.zeros_like(g), where=slope > 0)
        g = g - step
    return 1.5 * g - 3.0 * np.log1p(g / 6.0)


def _sinh_excess_cuberoot(lam: np.ndarray) -> np.ndarray:
    """(sinh 2l - 2l)^{1/3}, by its Taylor series where the difference
    cancels."""
    x = 2.0 * lam
    x2 = x * x
    series = x**3 / 6.0 * (1.0 + x2 / 20.0 + x2**2 / 840.0 + x2**3 / 60480.0)
    direct = np.sinh(x) - x
    return np.cbrt(np.where(x < 0.1, series, direct))


def smoothed_unit_potential(sigma, panel: float = 0.125, order: int = 20) -> np.ndarray:
    """f_1(sigma) = 2^{-1/3} int_0^{arccosh sigma} (sinh 2l - 2l)^{1/3} dl by
    composite Gauss-Legendre on panels of width <= ``panel``, accumulated
    over the sorted upper limits."""
    sigma = np.asarray(sigma, dtype=float)
    limits = np.log1p((sigma - 1.0) + np.sqrt((sigma - 1.0) * (sigma + 1.0)))
    breaks = np.unique(np.concatenate(([0.0], np.arange(panel, limits.max(), panel), limits.ravel())))
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    panels = half * (_sinh_excess_cuberoot(mid[:, None] + half[:, None] * x) @ w)
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    return 2.0 ** (-1.0 / 3.0) * cumulative[np.searchsorted(breaks, limits)]


def reference_potential(family: str, scale: float, tau) -> np.ndarray:
    """f(tau) of a family by the weighted rescalings
    f_t(tau) = |t|^{2/3} f_1(tau/|t|) and f_a(tau) = a^2 f_1(tau/a^3)."""
    tau = np.asarray(tau, dtype=float)
    if family == "cone":
        return cone_potential(tau)
    if family == "smoothed":
        return scale ** (2.0 / 3.0) * smoothed_unit_potential(tau / scale)
    return scale**2 * resolved_unit_potential(tau / scale**3)


# ---------------------------------------------------------------------------
# exact linear algebra


def integer_rank(rows) -> int:
    """Rank over Q of an integer matrix by fraction-free (Bareiss)
    elimination; every intermediate entry is a minor, so the divisions are
    exact."""
    mat = [[int(x) for x in row] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0]) if mat else 0
    rank, previous = 0, 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank]
        for r in range(rank + 1, n_rows):
            row = mat[r]
            factor = row[col]
            for j in range(col + 1, n_cols):
                row[j] = (row[j] * head[col] - factor * head[j]) // previous
            row[col] = 0
        previous = head[col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def witness_failures(rows, witness) -> list[str]:
    """A witness must be all-nonzero and annihilate the class vectors."""
    lam = [Fraction(x) for x in witness]
    if len(lam) != len(rows):
        return [f"witness has {len(lam)} entries for {len(rows)} classes"]
    out = []
    if not all(lam):
        out.append("witness has a zero coordinate")
    for j in range(len(rows[0])):
        if sum(lam[i] * rows[i][j] for i in range(len(rows))):
            out.append(f"witness does not annihilate column {j}")
            break
    return out


def row_outside_span(rows, index: int) -> bool:
    """True when deleting row ``index`` lowers the rank: then every
    annihilating combination vanishes on that row, so no all-nonzero one
    exists."""
    return integer_rank(rows[:index] + rows[index + 1:]) < integer_rank(rows)


# ---------------------------------------------------------------------------
# per-kind checks


def _report(rc: int, text: str) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit status {rc}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"unparsable report: {exc}"]
    failed = [a["name"] for a in report.get("assertions", []) if not a["passed"]]
    return report, [f"report assertion failed: {name}" for name in failed]


def check_certify(results) -> list[str]:
    cids = [r.cid for r in results]
    out = [] if cids == [f"C{i:02d}" for i in range(1, 13)] else [f"criteria run: {cids}"]
    out += [f"{r.cid} FAIL: {'; '.join(r.failures)}" for r in results if not r.passed]
    return out


def _metric_rows(op, text: str) -> tuple[list[list], list[str]]:
    if op.expect["format"] == "csv":
        table = list(csv.reader(io.StringIO(text)))
        return [[row[0]] + [float(x) if x else "" for x in row[1:]] for row in table[1:]], []
    report, out = _report(0, text)
    return (report["results"]["rows"] if report else []), out


def check_metric(op, rc: int, text: str) -> list[str]:
    if rc != 0:
        return [f"exit status {rc}"]
    exp = op.expect
    rows, out = _metric_rows(op, text)
    if len(rows) != exp["points"]:
        return out + [f"{len(rows)} rows for {exp['points']} points"]
    tau = np.array([r[2] for r in rows])
    f = np.array([r[3] for r in rows])
    ode = max(r[6] for r in rows)
    ma = max(r[7] for r in rows)
    if not ode <= ODE_GATE:
        out.append(f"ode residual {ode!r} > {ODE_GATE}")
    if not ma <= MA_GATE:
        out.append(f"Monge-Ampere residual {ma!r} > {MA_GATE}")
    ref = reference_potential(exp["family"], exp.get("scale", 0.0), tau)
    worst = float(np.max(np.abs(f - ref) / np.abs(ref)))
    if not worst <= POTENTIAL_RTOL:
        out.append(f"f off the reference by {worst:.3e} relative")
    return out


def check_convergence(op, rc: int, text: str) -> list[str]:
    """The report's own gate, and each sup recomputed from the reference
    potentials on the same log grid."""
    report, out = _report(rc, text)
    if report is None:
        return out
    exp = op.expect
    taus = np.logspace(0.0, 1.0, exp["points"])
    cone = cone_potential(taus)
    for param, sup in zip(exp["params"], report["results"]["sups"]):
        dev = reference_potential(exp["family"], param, taus) - cone
        ref = float(np.max(np.abs(dev - dev[0])))
        if not abs(sup - ref) <= CONVERGENCE_ATOL:
            out.append(f"sup at {param!r} is {sup!r}, reference {ref!r}")
    if len(report["results"]["sups"]) != len(exp["params"]):
        out.append("wrong number of sups")
    return out


def check_slag(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    exp = op.expect
    t = exp["modulus"] * cmath.exp(1j * math.radians(exp["degrees"]))
    exact = 2.0 * math.pi**2 * t
    res = report["results"]
    value = complex(res["integral_re"], res["integral_im"])
    rel = abs(value - exact) / abs(exact)
    if not rel <= PERIOD_RTOL:
        out.append(f"period off 2 pi^2 t by {rel:.3e} relative")
    if res["resolution"] != exp["resolution"]:
        out.append("wrong resolution")
    return out


def euler_closed_form(n: int, d: int) -> int:
    """chi of a smooth degree-d hypersurface in P^n."""
    return ((1 - d) ** (n + 1) - 1) // d + n + 1


def check_hodge(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    n, d = op.expect["n"], op.expect["d"]
    h = report["results"]["h"]
    m = n - 1
    if len(h) != m + 1 or any(len(row) != m + 1 for row in h):
        return out + ["diamond has the wrong shape"]
    for p in range(m + 1):
        for q in range(m + 1):
            if h[p][q] != h[q][p] or h[p][q] != h[m - p][m - q]:
                out.append(f"h^{p},{q} breaks the diamond symmetries")
            if p + q != m and h[p][q] != (1 if p == q else 0):
                out.append(f"h^{p},{q} breaks the Lefschetz range")
    chi = sum((-1) ** (p + q) * h[p][q] for p in range(m + 1) for q in range(m + 1))
    expected = euler_closed_form(n, d)
    if chi != expected or report["results"]["euler_characteristic"] != expected:
        out.append(f"Euler characteristic {chi} != closed form {expected}")
    if m >= 2 and report["results"]["h21"] != h[min(2, m)][1]:
        out.append("h21 field disagrees with the diamond")
    known = {(4, 5): QUINTIC_DIAMOND, (3, 4): K3_DIAMOND}.get((n, d))
    if known is not None and h != known:
        out.append(f"diamond of ({n}, {d}) differs from the known one")
    return out


def check_friedman(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    rows, res = op.expect["rows"], report["results"]
    if op.expect["feasible"]:
        if not res["feasible"]:
            return out + ["feasible classes reported infeasible"]
        return out + witness_failures(rows, res["witness"])
    if res["feasible"]:
        return out + ["infeasible classes reported feasible"]
    if not row_outside_span(rows, op.expect["pivot"]):
        out.append("rank test does not confirm infeasibility")
    return out


def dwork_certificate_failures(exponents) -> list[str]:
    """Each point [xi^a_0 : ... : xi^a_4] must be a distinct critical point
    of 1 + sum z_i^5 - 5 z_1 z_2 z_3 z_4 in the chart Z_0 = 1 with a
    nondegenerate Hessian (an ordinary double point)."""
    out = []
    a = np.array(exponents, dtype=int)
    if len({tuple(row) for row in a.tolist()}) != 125 or a.shape != (125, 5):
        return ["expected 125 distinct points"]
    if np.any(a[:, 0] != 0) or np.any(a.sum(axis=1) % 5):
        out.append("exponents not canonical with vanishing sum mod 5")
    z = np.exp(2j * math.pi * a[:, 1:] / 5.0)
    prod = np.prod(z, axis=1)
    value = 1.0 + np.sum(z**5, axis=1) - 5.0 * prod
    grad = 5.0 * z**4 - 5.0 * prod[:, None] / z
    hess = -5.0 * prod[:, None, None] / (z[:, :, None] * z[:, None, :])
    idx = np.arange(4)
    hess[:, idx, idx] = 20.0 * z**3
    if np.max(np.abs(value)) > 1e-9 or np.max(np.abs(grad)) > 1e-9:
        out.append("a point is not a critical point on the quintic")
    det = np.abs(np.linalg.det(hess))
    scale = np.linalg.norm(hess, ord=2, axis=(1, 2)) ** 4
    if np.min(det / scale) <= 1e-8:
        out.append("a Hessian is degenerate")
    return out


def check_dwork(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    res = report["results"]
    if res["count"] != 125:
        out.append(f"{res['count']} double points, expected 125")
    out += dwork_certificate_failures(res["points"])
    if res.get("exact_cyclotomic") is not True:
        out.append("exact cyclotomic check missing or false")
    sample = res.get("smooth_sample", {})
    if sample.get("count") != op.expect["smooth_points"] or not sample.get("min_gradient", 0) > 0:
        out.append("smooth sample missing or singular")
    return out


def check_transition(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    e, res = op.expect, report["results"]
    b1, b2, b3 = e["betti"]
    if res["hodge_after"] != [e["h11"] - e["k"], e["h21"] + e["c"]]:
        out.append(f"hodge_after {res['hodge_after']}")
    if res["betti_after"] != [b1, b2 - e["k"], b3 + 2 * e["c"]]:
        out.append(f"betti_after {res['betti_after']}")
    return out


CATALOG_COUNTS = {
    "generic_nodal_quintic": (1, 0, 1),
    "schoen_quintic_resolution": (125, 24, 101),
    "mirror_quintic": (1, 0, 1),
    "tian_yau": (15, 14, 1),
}


def check_catalog(op, rc: int, text: str) -> list[str]:
    report, out = _report(rc, text)
    if report is None:
        return out
    records = report["results"]["catalog"]
    if {r["name"]: (r["N"], r["k"], r["c"]) for r in records} != CATALOG_COUNTS:
        out.append("catalog node counts differ")
    for r in records:
        (h11, h21), (b1, b2, b3) = r["hodge_before"], r["betti_before"]
        if r["hodge_after"] != [h11 - r["k"], h21 + r["c"]] or r["betti_after"] != [
            b1, b2 - r["k"], b3 + 2 * r["c"]
        ]:
            out.append(f"{r['name']} bookkeeping differs")
    return out


CHECKS = {
    "metric": check_metric,
    "convergence": check_convergence,
    "slag": check_slag,
    "hodge": check_hodge,
    "friedman": check_friedman,
    "dwork": check_dwork,
    "transition": check_transition,
    "catalog": check_catalog,
}
