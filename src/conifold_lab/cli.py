"""Command-line front end: one subcommand per module plus a verify-all runner.

Every run emits a schema-versioned JSON report (or CSV for sweep data) on
stdout or to --output.  Reports are byte-identical across runs of the same
config; wall-clock timings are only included when --timings is passed,
since they would break reproducibility.  Exit status: 0 when every
assertion passed, 1 on assertion failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time

import numpy as np

from conifold_lab import acceptance, hodge, metrics, slag, transitions
from conifold_lab.acceptance import Checks

SCHEMA_VERSION = 1


def _parse_complex(text: str) -> complex:
    """Accept Python complex literals ('1', '1j', '-0.5+0.2j') or polar
    'R@degrees' ('0.3@36')."""
    text = text.strip()
    if "@" in text:
        mag, _, deg = text.partition("@")
        return float(mag) * cmath.exp(1j * math.radians(float(deg)))
    return complex(text.replace(" ", ""))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit_report(args, command: str, config: dict, results, assertions: Checks, timings) -> int:
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "assertions": assertions.items,
        "timings": timings if getattr(args, "timings", False) else None,
    }
    payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    _write_output(args.output, payload)
    return 0 if assertions.all_passed else 1


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"unserializable object of type {type(obj).__name__}")


def _write_output(path, payload: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])
    _write_output(path, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_hodge(args) -> int:
    assertions = Checks()
    spec = hodge.HypersurfaceSpec(args.n, args.d)
    diamond = hodge.hodge_diamond(spec)
    results = diamond.to_json_dict()
    results["h11"] = diamond.h(1, 1)
    results["middle_row"] = list(diamond.middle_row())
    results["euler_characteristic"] = diamond.euler_characteristic()
    results["calabi_yau"] = spec.is_calabi_yau
    if diamond.dim >= 2:
        results["h21"] = diamond.h(min(2, diamond.dim), 1)
    results["moduli_dimension"] = hodge.moduli_dimension(args.n, args.d)
    try:
        diamond.check_invariants()
        assertions.true("diamond_invariants", True, "exact")
    except AssertionError as exc:
        assertions.true("diamond_invariants", False, str(exc))
    return _emit_report(args, "hodge", vars_config(args), results, assertions, {})


def _family_from_args(args) -> metrics.PotentialFamily:
    if args.family == "cone":
        return metrics.PotentialFamily.cone()
    if args.family == "smoothed":
        return metrics.PotentialFamily.smoothed(_parse_complex(args.t))
    return metrics.PotentialFamily.resolved(args.a)


def _metric_point(family: metrics.PotentialFamily, tau: float):
    if family.kind == "resolved":
        return metrics.resolved_point_with_tau(family.a, tau)
    return metrics.smoothed_normal_form_point(family.t, tau)


def _metric_row(family: metrics.PotentialFamily, tau: float) -> list:
    sample = metrics.potential_value(family, tau)
    ode = metrics.ode_residual(family, tau)
    ma = metrics.monge_ampere_residual(family, _metric_point(family, tau))
    if family.kind != "cone" and tau < metrics.asymptotic_threshold(family):
        deviation = ""
    else:
        deviation = metrics.asymptotic_deviation(family, tau, subtract_gauge=True)
    param = abs(family.t) if family.kind == "smoothed" else (family.a if family.kind == "resolved" else 0.0)
    return [family.kind, param, tau, sample.f, sample.fp, sample.fpp, ode, ma, deviation]


METRIC_HEADER = ["family", "param", "tau", "f", "fp", "fpp", "ode_residual", "ma_residual", "deviation"]


def _cmd_metric(args) -> int:
    family = _family_from_args(args)
    if args.sweep == "convergence":
        params = [float(x) for x in args.params.split(",")] if args.params else [1.0, 0.5, 0.25, 0.125]
        kind = "resolved" if family.kind == "resolved" else "smoothed"
        tau0 = args.tau_min if args.tau_min is not None else 1.0
        tau1 = args.tau_max if args.tau_max is not None else 10.0
        sups = metrics.potential_convergence_sup(kind, params, tau0, tau1, args.points)
        if args.format == "csv":
            _write_csv(args.output, ["family", "param", "sup_deviation"],
                       [[kind, p, s] for p, s in zip(params, sups)])
            return 0
        assertions = Checks()
        decreasing = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
        assertions.true("sups_decreasing", decreasing, sups)
        config = vars_config(args)
        return _emit_report(args, "metric", config, {"params": params, "sups": sups}, assertions, {})

    if args.points < 1:
        raise SystemExit2("empty grid: --points must be >= 1")
    lo = args.tau_min if args.tau_min is not None else _default_tau_min(family, args.sweep)
    hi = args.tau_max if args.tau_max is not None else _default_tau_max(family, args.sweep)
    if not 0 < lo < hi:
        raise SystemExit2(f"bad tau grid [{lo}, {hi}]")
    taus = np.logspace(math.log10(lo), math.log10(hi), args.points)
    rows = [_metric_row(family, float(t)) for t in taus]
    if args.format == "csv":
        _write_csv(args.output, METRIC_HEADER, rows)
        return 0
    assertions = Checks()
    worst_ode = max(r[6] for r in rows)
    worst_ma = max(r[7] for r in rows)
    assertions.le("ode_residual_max", worst_ode, args.tolerances.get("ode", 1e-8))
    assertions.le("ma_residual_max", worst_ma, args.tolerances.get("ma", 1e-7))
    results = {"header": METRIC_HEADER, "rows": rows}
    return _emit_report(args, "metric", vars_config(args), results, assertions, {})


def _default_tau_min(family: metrics.PotentialFamily, sweep: str) -> float:
    scale = max(family.scale, 1e-2)
    if sweep == "deviation":
        return 100.0 * max(scale, 1.0)
    if family.kind == "smoothed":
        return 1.01 * abs(family.t)
    return 0.1 * scale


def _default_tau_max(family: metrics.PotentialFamily, sweep: str) -> float:
    scale = max(family.scale, 1.0)
    return (1e6 if sweep == "deviation" else 1e3) * scale


def _cmd_slag(args) -> int:
    t = _parse_complex(args.t)
    grid = slag.sample_vanishing_cycle(t, args.resolution)
    value = slag.integrate_volume_form(grid)
    exact = slag.exact_cycle_integral(t)
    rel_error = abs(value - exact) / abs(exact)
    results = {
        "t": [t.real, t.imag],
        "resolution": args.resolution,
        "integral_re": value.real,
        "integral_im": value.imag,
        "exact_re": exact.real,
        "exact_im": exact.imag,
        "rel_error": rel_error,
    }
    assertions = Checks()
    assertions.le("rel_error", rel_error, args.tolerances.get("slag", 1e-4))
    return _emit_report(args, "slag", vars_config(args), results, assertions, {})


def _cmd_transition(args) -> int:
    assertions = Checks()
    if args.catalog:
        records = [rec.to_json_dict() for rec in transitions.example_catalog()]
        for rec in transitions.example_catalog():
            assertions.true(f"{rec.name}_split", rec.N == rec.k + rec.c, rec.N)
        return _emit_report(args, "transition", vars_config(args), {"catalog": records}, assertions, {})
    betti = tuple(int(x) for x in args.betti.split(","))
    record = transitions.apply_topology_change(
        args.h11, args.h21, betti, N=args.N, k=args.k, c=args.c
    )
    k, c = transitions.infer_counts(record.hodge_before, record.hodge_after, record.N)
    assertions.true("round_trip", (k, c) == (record.k, record.c), [k, c])
    return _emit_report(args, "transition", vars_config(args), record.to_json_dict(), assertions, {})


def _cmd_dwork(args) -> int:
    assertions = Checks()
    points = transitions.dwork_singular_points()
    poly = transitions.dwork_polynomial()
    certs = [transitions.verify_odp(poly, p.to_affine()) for p in points]
    assertions.true("count", len(points) == 125, len(points))
    assertions.true("all_odp", all(c.is_odp for c in certs), sum(c.is_odp for c in certs))
    results = {
        "count": len(points),
        "points": [list(p.exponents) for p in points],
        "min_det_margin": min(c.hessian_det / c.det_threshold for c in certs),
    }
    if args.exact:
        exact_ok = all(transitions.verify_dwork_point_exact(p) for p in points)
        assertions.true("exact_cyclotomic", exact_ok)
        results["exact_cyclotomic"] = exact_ok
    if args.smooth_points:
        smooth = transitions.random_dwork_smooth_points(args.smooth_points, seed=args.seed)
        smooth_certs = [transitions.verify_odp(poly, z) for z in smooth]
        ok = all(c.status == "not_singular" for c in smooth_certs)
        assertions.true("smooth_sample_not_singular", ok, args.smooth_points)
        results["smooth_sample"] = {
            "count": args.smooth_points,
            "min_gradient": min(c.gradient_norm for c in smooth_certs),
        }
    return _emit_report(args, "dwork", vars_config(args), results, assertions, {})


def _cmd_friedman(args) -> int:
    if args.classes_csv:
        with open(args.classes_csv, encoding="utf-8") as fh:
            matrix = transitions.ClassMatrix.from_csv_text(fh.read())
    else:
        rows = json.loads(args.classes_json)
        try:
            matrix = transitions.ClassMatrix(rows)
        except TypeError as exc:
            # inexact entries, or rows that are not lists of numbers
            raise SystemExit2(f"bad class matrix: {exc}") from None
    witness = transitions.friedman_witness(matrix)
    assertions = Checks()
    results = {
        "n_classes": matrix.n_classes,
        "ambient_rank": matrix.ambient_rank,
        "feasible": witness is not None,
    }
    if witness is not None:
        results["witness"] = [str(x) for x in witness]
        assertions.true("witness_nonzero", all(witness), results["witness"])
    return _emit_report(args, "friedman", vars_config(args), results, assertions, {})


def _cmd_verify_all(args) -> int:
    profile = acceptance.Profile.fast(args.seed) if args.fast else acceptance.Profile.full(args.seed)
    only = args.criteria.split(",") if args.criteria else None
    start = time.perf_counter()
    outcomes = acceptance.run_criteria(profile, only)
    total = time.perf_counter() - start
    assertions = Checks()
    timings = {}
    for res in outcomes:
        print(res.line(), file=sys.stderr)
        assertions.true(res.cid, res.passed, res.failures or "ok")
        timings[res.cid] = res.elapsed
    timings["total"] = total
    results = {
        "profile": profile.name,
        "criteria": [
            {
                "cid": r.cid,
                "title": r.title,
                "passed": r.passed,
                "details": r.details,
                "failures": r.failures,
            }
            for r in outcomes
        ],
    }
    status = _emit_report(args, "verify-all", vars_config(args), results, assertions, timings)
    if not assertions.all_passed:
        failing = [r.cid for r in outcomes if not r.passed]
        print(f"FAILING CRITERIA: {', '.join(failing)}", file=sys.stderr)
    return status


class SystemExit2(SystemExit):
    def __init__(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def vars_config(args) -> dict:
    skip = {"func", "output", "timings"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _betti_text(text: str) -> str:
    """Check b1,b2,b3; the text itself is kept, so the report config echoes it."""
    try:
        if len([int(x) for x in text.split(",")]) == 3:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected three comma-separated integers b1,b2,b3, got {text!r}"
    )


def _tolerance_map(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit2(f"bad --tol {pair!r}: expected NAME=VALUE")
        out[name] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conifold-lab",
        description="verification laboratory for the local geometry of conifold transitions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="report path (default stdout)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE", dest="tol")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hodge", parents=[common], help="Hodge diamond of a hypersurface")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=int, required=True, help="hypersurface degree")
    p.set_defaults(func=_cmd_hodge)

    p = sub.add_parser("metric", parents=[common], help="radial potential sweeps")
    p.add_argument("--family", choices=("cone", "smoothed", "resolved"), required=True)
    p.add_argument("--t", default="1", help="smoothing parameter (complex literal or R@deg)")
    p.add_argument("--a", type=float, default=1.0, help="resolution parameter")
    p.add_argument(
        "--sweep",
        choices=("profile", "deviation", "residuals", "convergence"),
        default="profile",
        help="residuals shares the profile grid; all tau sweeps emit the full row schema",
    )
    p.add_argument("--tau-min", dest="tau_min", type=float, default=None)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=None)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--params", default=None, help="comma list of parameters (convergence sweep)")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("slag", parents=[common], help="vanishing-cycle period")
    p.add_argument("--t", default="1")
    p.add_argument("--resolution", type=int, default=32)
    p.set_defaults(func=_cmd_slag)

    p = sub.add_parser("transition", parents=[common], help="topology bookkeeping")
    p.add_argument("--catalog", action="store_true", help="emit the worked-example catalog")
    p.add_argument("--h11", type=int, default=None)
    p.add_argument("--h21", type=int, default=None)
    p.add_argument("--betti", type=_betti_text, default="0,0,0", help="b1,b2,b3 before transition")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("dwork", parents=[common], help="nodal pencil member certification")
    p.add_argument("--exact", action="store_true", help="exact cyclotomic verification")
    p.add_argument("--smooth-points", dest="smooth_points", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_dwork)

    p = sub.add_parser("friedman", parents=[common], help="first-order smoothability witness")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--classes-csv", dest="classes_csv", help="CSV file, one class per row")
    group.add_argument("--classes-json", dest="classes_json", help="inline JSON array of rows")
    p.set_defaults(func=_cmd_friedman)

    p = sub.add_parser("verify-all", parents=[common], help="run the acceptance criteria")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true", help="reduced smoke grids")
    mode.add_argument("--full", action="store_true", help="acceptance-grade grids (default)")
    p.add_argument("--criteria", default=None, help="comma list like C01,C07")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tolerances = _tolerance_map(args.tol)
        if args.command == "transition" and not args.catalog:
            missing = [k for k in ("h11", "h21", "N", "k", "c") if getattr(args, k) is None]
            if missing:
                raise SystemExit2(f"transition needs --catalog or all of {missing}")
        return args.func(args)
    except SystemExit2 as exc:
        return int(exc.code)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
