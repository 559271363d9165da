"""Seeded operation streams for the four benchmark workloads.

A workload is an endless sequence of rounds; round r is drawn from its own
generator seeded by (seed, r), so a run of any length is reproducible and a
traced run can replay exactly the rounds an untraced run made.  Each round
has a fixed composition (which request types, sizes and strata) and the seed
draws only the parameters inside it: the cost of a round then barely
depends on the seed, which keeps run-to-run spread small.

The program sees only the generated inputs: an argv for ``cli.main`` or the
fields of an ``acceptance.Profile``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "potential_sweep", "cycle_quadrature", "exact_queries")


@dataclass(frozen=True)
class Op:
    """One request.  ``work`` counts the workload's unit of work (criteria,
    tau rows, quadrature nodes or queries); ``expect`` holds what the
    generator knows about the answer, for the oracles."""

    kind: str
    argv: tuple = ()
    work: int = 1
    expect: dict = field(default_factory=dict)


# The acceptance profile of the certify workload, pinned field by field so
# that a change of Profile.full() shows up as a changed workload here rather
# than as a silent change of the timed work.
CERTIFY_PROFILE = {
    "name": "bench-full",
    "ma_points": 100,
    "asymptotic_points": 50,
    "convergence_grid": 200,
    "slag_resolution": 32,
    "calibration_nodes": 100,
    "friedman_max_rows": 4,
    "smooth_points": 200,
}

# Same fields at the reduced smoke sizes: the certify warm-up operation.
CERTIFY_WARMUP_PROFILE = {
    "name": "bench-warmup",
    "ma_points": 20,
    "asymptotic_points": 15,
    "convergence_grid": 40,
    "slag_resolution": 16,
    "calibration_nodes": 20,
    "friedman_max_rows": 3,
    "smooth_points": 40,
}

SWEEP_POINTS = 256
CONVERGENCE_POINTS = 200
SLAG_RESOLUTIONS = (32, 48, 64, 80, 96)
HODGE_DIMENSIONS = (6, 12, 20, 30, 40, 48)
FRIEDMAN_SHAPES = ((3, 2), (6, 3), (15, 14), (40, 10), (125, 24))
DWORK_SMOOTH_POINTS = 200
# Millisecond bookkeeping queries: with them the small requests are a clear
# majority of exact_queries, so its median latency sits inside one cluster
# of similar requests instead of on the edge between small and large ones.
TRANSITION_QUERIES = 8


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"conifold-lab-bench:{seed}:{index}")


def _polar(rng: random.Random, log_lo: float, log_hi: float) -> tuple[float, float, str]:
    modulus = 10.0 ** rng.uniform(log_lo, log_hi)
    degrees = rng.uniform(0.0, 360.0)
    return modulus, degrees, f"{modulus!r}@{degrees!r}"


# ---------------------------------------------------------------------------
# certify


def certify_round(seed: int, index: int) -> list[Op]:
    profile = dict(CERTIFY_PROFILE, seed=seed)
    return [Op("certify", work=12, expect={"profile": profile})]


# ---------------------------------------------------------------------------
# potential_sweep


def _metric_op(family: str, sweep: str, fmt: str, param, lo: float, hi: float,
               points: int = SWEEP_POINTS) -> Op:
    argv = ["metric", "--family", family, "--sweep", sweep, "--format", fmt,
            "--tau-min", repr(lo), "--tau-max", repr(hi), "--points", str(points)]
    expect = {"family": family, "sweep": sweep, "format": fmt, "points": points}
    if family == "smoothed":
        modulus, degrees, text = param
        argv += ["--t", text]
        expect.update(scale=modulus, degrees=degrees)
    elif family == "resolved":
        argv += ["--a", repr(param)]
        expect.update(scale=param)
    return Op("metric", tuple(argv), work=points, expect=expect)


# Tau windows in units of the family scale (|t| for the smoothing, a^3 for
# the resolution): (residuals, profile, deviation).  The unit-parameter
# profile is evaluated at tau / scale, so fixed windows make a request's cost
# independent of the seeded parameters.
SWEEP_WINDOWS = {
    "cone": ((0.1, 100.0), (1.0, 1e3), (100.0, 3e5)),
    "smoothed": ((1.01, 1010.0), (1.5, 1500.0), (200.0, 6e5)),
    "resolved": ((0.03, 30.0), (0.1, 100.0), (200.0, 6e5)),
}


def potential_sweep_round(seed: int, index: int) -> list[Op]:
    """Residual, profile (CSV) and deviation sweeps of all three families,
    plus a convergence sweep of each parametrized family.  The seed draws
    a and |t| in 1e-2..1e2 and the phase of t."""
    rng = _rng(seed, index)
    params = {"cone": (None, 1.0)}
    smoothed = _polar(rng, -2.0, 2.0)
    params["smoothed"] = (smoothed, smoothed[0])
    a = 10.0 ** rng.uniform(-2.0, 2.0)
    params["resolved"] = (a, a**3)
    ops = []
    for family, (param, unit) in params.items():
        residuals, profile, deviation = SWEEP_WINDOWS[family]
        for sweep, fmt, (lo, hi) in (("residuals", "json", residuals), ("profile", "csv", profile),
                                     ("deviation", "json", deviation)):
            ops.append(_metric_op(family, sweep, fmt, param, unit * lo, unit * hi))
    for family in ("smoothed", "resolved"):
        first = 10.0 ** rng.uniform(-0.3, 0.0)
        params = [first / 2.0**k for k in range(4)]
        argv = ("metric", "--family", family, "--sweep", "convergence",
                "--params", ",".join(repr(p) for p in params), "--points", str(CONVERGENCE_POINTS))
        ops.append(Op("convergence", argv, work=len(params) * CONVERGENCE_POINTS,
                      expect={"family": family, "params": params, "points": CONVERGENCE_POINTS}))
    return ops


# ---------------------------------------------------------------------------
# cycle_quadrature


def cycle_quadrature_round(seed: int, index: int) -> list[Op]:
    """One period quadrature at each resolution, |t| in 1e-3..1e3."""
    rng = _rng(seed, index)
    ops = []
    for resolution in SLAG_RESOLUTIONS:
        modulus, degrees, text = _polar(rng, -3.0, 3.0)
        argv = ("slag", "--t", text, "--resolution", str(resolution))
        ops.append(Op("slag", argv, work=resolution**3,
                      expect={"modulus": modulus, "degrees": degrees, "resolution": resolution}))
    return ops


# ---------------------------------------------------------------------------
# exact_queries


def feasible_classes(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Class vectors with a planted all-nonzero annihilating combination:
    n - 1 random rows, the last one minus their lambda-weighted sum."""
    lam = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n - 1)]
    rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n - 1)]
    last = [-sum(lam[i] * rows[i][j] for i in range(n - 1)) for j in range(m)]
    return rows + [last]


def infeasible_classes(rng: random.Random, n: int, m: int) -> tuple[list[list[int]], int]:
    """Class vectors where row ``pivot`` alone is nonzero in one column, so
    it is outside the span of the others and every annihilating combination
    vanishes on it.  Returns the rows and that row index."""
    column = rng.randrange(m)
    pivot = rng.randrange(n)
    rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[column] = rng.choice((-2, -1, 1, 2)) if i == pivot else 0
    return rows, pivot


def exact_queries_round(seed: int, index: int) -> list[Op]:
    """Hodge diamonds at fixed ambient dimensions up to 48, Calabi-Yau and
    other degrees alternating (plus the quintic or the K3), smoothability
    witnesses from 3x2 up to the Schoen-sized 125x24 (feasible and
    infeasible alternate per shape and round), the nodal quintic
    certification, and topology bookkeeping queries.  The seed draws
    degrees, class entries and bookkeeping numbers; the sizes are fixed."""
    rng = _rng(seed, index)
    ops = []
    known = (4, 5) if index % 2 == 0 else (3, 4)
    ops.append(Op("hodge", ("hodge", "--n", str(known[0]), "--d", str(known[1])),
                  expect={"n": known[0], "d": known[1]}))
    for slot, n in enumerate(HODGE_DIMENSIONS):
        if (index + slot) % 2 == 0:
            d = n + 1
        else:
            d = rng.choice([e for e in range(max(2, n - 3), n + 5) if e != n + 1])
        ops.append(Op("hodge", ("hodge", "--n", str(n), "--d", str(d)), expect={"n": n, "d": d}))
    for k, (n, m) in enumerate(FRIEDMAN_SHAPES):
        if (index + k) % 2 == 0:
            rows, expect = feasible_classes(rng, n, m), {"feasible": True}
        else:
            rows, pivot = infeasible_classes(rng, n, m)
            expect = {"feasible": False, "pivot": pivot}
        expect["rows"] = rows
        ops.append(Op("friedman", ("friedman", "--classes-json", json.dumps(rows)), expect=expect))
    ops.append(Op("dwork", ("dwork", "--exact", "--smooth-points", str(DWORK_SMOOTH_POINTS),
                            "--seed", str(rng.randrange(2**31))),
                  expect={"smooth_points": DWORK_SMOOTH_POINTS}))
    for _ in range(TRANSITION_QUERIES):
        k, c = rng.randint(0, 30), rng.randint(1, 120)
        h11, h21, b3_extra = k + rng.randint(0, 60), rng.randint(0, 150), rng.randint(0, 4)
        betti = (0, h11, 2 * h21 + 2 + 2 * b3_extra)
        argv = ("transition", "--h11", str(h11), "--h21", str(h21),
                "--betti", ",".join(map(str, betti)), "--N", str(k + c), "--k", str(k), "--c", str(c))
        ops.append(Op("transition", argv,
                      expect={"h11": h11, "h21": h21, "betti": betti, "N": k + c, "k": k, "c": c}))
    ops.append(Op("catalog", ("transition", "--catalog")))
    return ops


ROUNDS = {
    "certify": certify_round,
    "potential_sweep": potential_sweep_round,
    "cycle_quadrature": cycle_quadrature_round,
    "exact_queries": exact_queries_round,
}


def warmup_ops(workload: str) -> list[Op]:
    """The untimed warm-up before a workload's first timed operation: a few
    small requests of the kinds the workload sends, so imports, lazy caches
    and first-call paths are settled before timing starts."""
    if workload == "certify":
        return [Op("certify", work=12, expect={"profile": dict(CERTIFY_WARMUP_PROFILE, seed=0)})]
    if workload == "potential_sweep":
        params = (("cone", None), ("smoothed", (1.0, 0.0, "1")), ("resolved", 1.0))
        return [_metric_op(family, "deviation", "json", param, 100.0, 1e4, points=8)
                for family, param in params]
    if workload == "cycle_quadrature":
        return [Op("slag", ("slag", "--t", "1", "--resolution", "16"), work=16**3,
                   expect={"modulus": 1.0, "degrees": 0.0, "resolution": 16})]
    rows = [[1, 0], [0, 1], [-1, -1]]
    return [
        Op("hodge", ("hodge", "--n", "4", "--d", "5"), expect={"n": 4, "d": 5}),
        Op("friedman", ("friedman", "--classes-json", json.dumps(rows)),
           expect={"feasible": True, "rows": rows}),
        Op("dwork", ("dwork", "--exact", "--smooth-points", "10"), expect={"smooth_points": 10}),
        Op("catalog", ("transition", "--catalog")),
    ]
