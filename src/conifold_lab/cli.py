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
import contextlib
import functools
import itertools
import json
import math
import sys
import time

from conifold_lab import checks, hodge
from conifold_lab.checks import Checks, InputError, abbreviated, require_within

SCHEMA_VERSION = 1


def _parse_complex(text: str) -> complex:
    """Accept Python complex literals ('1', '1j', '-0.5+0.2j') or polar
    'R@degrees' ('0.3@36')."""
    text = text.strip()
    try:
        if "@" not in text:
            return complex(text.replace(" ", ""))
        mag, _, deg = text.partition("@")
        radius, degrees = float(mag), float(deg)
    except ValueError:
        raise InputError("expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, "
                         f"got {abbreviated(repr(text))}", "t") from None
    # past a turn, reducing the angle would round away the digits asked for
    if not abs(degrees) <= 360.0:
        raise InputError(f"the angle of {abbreviated(repr(text))} must be finite and within [-360, 360] degrees", "t")
    return radius * cmath.exp(1j * math.radians(degrees))


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))  # the exact types the C encoder writes as one token


@functools.cache
def _level(depth: int):
    """The C encoder of a container's items at depth (made once, where JSONEncoder.encode
    makes it on every call) and the line breaks before those items and before the end."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    encode = json.encoder.c_make_encoder(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                                         None, ": ", "," + inner, True, False, False)
    return (lambda value: "".join(encode(value, 0))), inner, outer


def _to_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), byte for byte.  A refused
    value raises the stdlib's own exception, which names a non-finite float (the C one does not)."""
    try:
        return _indented(value, 0)
    except (TypeError, ValueError):
        json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        raise


def _indented(value, depth: int) -> str:
    """Python walks only containers of non-empty containers (one C call for the items, a stub 0 for
    each of those); a list of non-empty lists of scalars is one call.  No scalar's text holds a line
    break, starts with '[' or ends with ']': items split at the separator, rows at '],' + it + '['."""
    encode, inner, outer = _level(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return encode(value)
    is_dict = isinstance(value, dict)
    kinds = set(map(type, value.values() if is_dict else value))
    if not is_dict and kinds <= {list, tuple} and all(value) and set(map(type, itertools.chain(*value))) <= _SCALARS:
        text = _level(depth + 1)[0](value).replace(f"],{inner}  [", f"{inner}],{inner}[{inner}  ")
        return f"[{inner}[{inner}  {text[2:-2]}{inner}]{outer}]"
    nested = () if kinds <= _SCALARS else {
        k for k, v in (value.items() if is_dict else enumerate(value)) if isinstance(v, _CONTAINERS) and v}
    if not nested:
        text = encode(value)
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
    keys = sorted(value) if is_dict else range(len(value))
    stubs = [0 if k in nested else value[k] for k in keys]
    text = encode(dict(zip(keys, stubs)) if is_dict else stubs)
    items = [head[:-1] + _indented(value[k], depth + 1) if k in nested else head
             for head, k in zip(text[1:-1].split("," + inner), keys)]
    return f"{text[0]}{inner}{f',{inner}'.join(items)}{outer}{text[-1]}"


def _emit_report(args, results, assertions: Checks, timings=None) -> int:
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": vars_config(args),
        "results": results,
        "assertions": assertions.items,
        "timings": (timings or {}) if args.timings else None,
    }
    _write_output(args.output, _to_json(report) + "\n")
    return 0 if assertions.all_passed else 1


def _write_output(path, payload: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {abbreviated(repr(path))}: {exc.strerror or exc}", "output") from None


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    """The header and rows as csv.writer writes them with LF line ends: a float cell is "%.17g" % x, a str cell
    itself, and each run of rows with the same cell types goes through one % template.  No cell needs the quotes
    csv gives a comma, a quote, a line break or a lone empty cell: the str cells are header names, a family name
    from argparse's choices and the empty deviation, and every row has 3 or more cells."""
    text = []
    for kinds, run in itertools.groupby([header, *rows], lambda row: tuple(map(type, row))):
        run = list(run)
        line = ",".join("%.17g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"
        text.append(line * len(run) % tuple(itertools.chain.from_iterable(run)))
    _write_output(path, "".join(text))


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
    assertions.true("diamond_invariants", (violation := diamond.check_invariants()) is None, violation or "exact")
    return _emit_report(args, results, assertions)


# Bounds on the two per-row counts, so that the largest accepted request holds
# at most 64 MiB.  A metric row peaks at about 1.6 KB (its profile, point and
# (3, 3) Hessian arrays, the row lists and the report text; tracemalloc over
# 2,000 and 8,000 rows of every sweep): at 2 KiB a row, 64 MiB is 32,768 rows.
# A dwork smooth point peaks at about 0.7 KB (the sample, its (4, 4) Hessian
# in the certificate stack and the certificate): at 1 KiB a point, 64 MiB is
# 65,536 points.
MIN_POINTS, MAX_POINTS = 1, 64 * 2**20 // 2048
MIN_SMOOTH_POINTS, MAX_SMOOTH_POINTS = 0, 64 * 2**20 // 1024

METRIC_HEADER = ["family", "param", "tau", "f", "fp", "fpp", "ode_residual", "ma_residual", "deviation"]


def _cmd_metric(args) -> int:
    require_within("the number of grid points", args.points, MIN_POINTS, MAX_POINTS, "points")
    import numpy as np
    from conifold_lab import metrics
    family = metrics.PotentialFamily(args.family, _parse_complex(args.t) if args.family == "smoothed" else 0.0, args.a)
    families = [family]
    if args.sweep == "convergence":
        if family.kind == "cone":
            raise InputError("the cone has no parameter for a convergence sweep; use smoothed or resolved",
                             "family", "sweep")
        params = _param_list(args.params)
        try:
            families = [getattr(metrics.PotentialFamily, family.kind)(param) for param in params]
        except InputError as exc:  # the parameter came from --params, not --t or --a
            raise InputError(str(exc), "params") from None
    default_lo, default_hi = _default_tau_grid(family, args.sweep)
    lo = args.tau_min if args.tau_min is not None else default_lo
    hi = args.tau_max if args.tau_max is not None else default_hi
    if not 0 < lo < hi:
        raise InputError(f"need 0 < tau-min < tau-max, got [{lo!r}, {hi!r}]", "tau_min", "tau_max")
    for member in families:
        _check_tau_window(member, lo, hi)
    if args.sweep == "convergence":
        sups = metrics.potential_convergence_sup(families, lo, hi, args.points)
        if args.format == "csv":
            _write_csv(args.output, ["family", "param", "sup_deviation"],
                       [[family.kind, p, s] for p, s in zip(params, sups)])
            return 0
        assertions = Checks()
        assertions.decreasing("sups_decreasing", sups)
        return _emit_report(args, {"params": params, "sups": sups}, assertions)

    taus = np.logspace(math.log10(lo), math.log10(hi), args.points)
    prof = metrics.profile(family, taus)
    if family.kind == "resolved":
        points = metrics.resolved_points_with_tau(taus)
    else:
        points = metrics.smoothed_normal_form_points(family.t, taus)
    ode = metrics.ode_residuals(family, prof)
    ma = metrics.monge_ampere_residuals(family, points, prof)
    asymptotic = prof.tau >= metrics.asymptotic_threshold(family)
    deviations = iter(metrics.asymptotic_deviations(family, prof.take(asymptotic)).tolist())
    param = abs(family.t) if family.kind == "smoothed" else (family.a if family.kind == "resolved" else 0.0)
    columns = [prof.tau.tolist(), prof.f.tolist(), prof.fp.tolist(), prof.fpp.tolist(), ode.tolist(), ma.tolist(),
               [next(deviations) if above else "" for above in asymptotic]]
    rows = [[family.kind, param, *row] for row in zip(*columns)]
    if args.format == "csv":
        _write_csv(args.output, METRIC_HEADER, rows)
        return 0
    assertions = Checks()
    assertions.le("ode_residual_max", float(np.max(ode)), _tolerance(args, "ode"))
    assertions.le("ma_residual_max", float(np.max(ma)), _tolerance(args, "ma"))
    results = {"header": METRIC_HEADER, "rows": rows}
    return _emit_report(args, results, assertions)


def _param_list(text) -> list[float]:
    if text is None:
        return [1.0, 0.5, 0.25, 0.125]
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"expected a comma list of numbers, got {abbreviated(repr(text))}", "params") from None


TAU_UNITS = {"smoothed": "|t|", "resolved": "a^3"}


def _check_tau_window(family: metrics.PotentialFamily, lo: float, hi: float) -> None:
    from conifold_lab import metrics
    wlo, whi = family.tau_window()
    if not (wlo <= lo and hi <= whi):
        window = f"[{wlo!r}, {whi!r}]"
        if family.kind in TAU_UNITS:
            window += " = {} * [{:g}, {:g}]".format(TAU_UNITS[family.kind], *metrics.TAU_WINDOW[family.kind])
        raise InputError(f"the {family.kind} family needs taus in {window}, got [{lo!r}, {hi!r}]", "tau_min", "tau_max")


def _default_tau_grid(family: metrics.PotentialFamily, sweep: str) -> tuple[float, float]:
    """The (tau-min, tau-max) a sweep takes when the flags are not given."""
    if sweep == "convergence":
        return checks.CONVERGENCE_ANNULUS
    scale = max(family.scale, 1.0)
    if sweep == "deviation":
        return 100.0 * scale, 1e6 * scale
    lo = 1.01 * abs(family.t) if family.kind == "smoothed" else 0.1 * max(family.scale, 1e-2)
    return lo, 1e3 * scale


def _cmd_slag(args) -> int:
    t = _parse_complex(args.t)
    from conifold_lab import slag
    value, rel_error = slag.cycle_period(t, args.resolution)
    exact = slag.exact_cycle_integral(t)
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
    assertions.le("rel_error", rel_error, _tolerance(args, "slag"))
    return _emit_report(args, results, assertions)


def _cmd_transition(args) -> int:
    try:
        b1, b2, b3 = map(int, args.betti.split(","))
    except ValueError:
        raise InputError(f"expected three comma-separated integers b1,b2,b3, got {abbreviated(repr(args.betti))}",
                         "betti") from None
    assertions = Checks()
    if args.catalog:
        catalog = hodge.example_catalog()
        for rec in catalog:
            assertions.true(f"{rec.name}_split", rec.N == rec.k + rec.c, rec.N)
        results = {"catalog": [vars(rec) for rec in catalog]}
        return _emit_report(args, results, assertions)
    missing = [k for k in ("h11", "h21", "N", "k", "c") if getattr(args, k) is None]
    if missing:
        raise InputError("required unless --catalog is given", *missing)
    record = hodge.apply_topology_change(args.h11, args.h21, (b1, b2, b3), N=args.N, k=args.k, c=args.c)
    k, c = hodge.infer_counts(record.hodge_before, record.hodge_after, record.N)
    assertions.true("round_trip", (k, c) == (record.k, record.c), [k, c])
    return _emit_report(args, vars(record), assertions)


def _cmd_dwork(args) -> int:
    require_within("the number of smooth points", args.smooth_points, MIN_SMOOTH_POINTS, MAX_SMOOTH_POINTS,
                   "smooth_points")
    import numpy as np
    from conifold_lab import transitions
    assertions = Checks()
    exps = transitions.dwork_exponents()
    poly = transitions.DworkQuintic()
    nodes = transitions.verify_odps(poly, transitions.dwork_nodes())
    odps = int(np.count_nonzero(nodes.status == "odp"))
    assertions.true("count", len(exps) == 125, len(exps))
    assertions.true("all_odp", odps == len(nodes.status), odps)
    results = {
        "count": len(exps),
        "points": exps.tolist(),
        "min_det_margin": float(np.min(nodes.hessian_det / nodes.det_threshold)),
    }
    if args.exact:
        exact_ok = bool(transitions.dwork_exact_check(exps).all())
        assertions.true("exact_cyclotomic", exact_ok)
        results["exact_cyclotomic"] = exact_ok
    if args.smooth_points:
        smooth = transitions.random_dwork_smooth_points(args.smooth_points, seed=args.seed)
        sample = transitions.verify_odps(poly, smooth)
        ok = bool(np.all(sample.status == "not_singular"))
        assertions.true("smooth_sample_not_singular", ok, args.smooth_points)
        results["smooth_sample"] = {
            "count": args.smooth_points,
            "min_gradient": float(np.min(sample.gradient_norm)),
        }
    return _emit_report(args, results, assertions)


# friedman's bounds, under which the largest accepted matrix certifies and its
# witness prints; README ("Flag conventions") derives the witness's digits
MAX_CLASSES, MAX_AMBIENT_RANK, MAX_ENTRY_DIGITS = 256, 24, 4


def _text_digits(text: str) -> int:
    """The digits of a rational's text, an exponent counting as its value (its
    first ten digits tell a huge one): a bound on the digits Fraction(text) builds."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    return sum(c.isdecimal() for c in mantissa) + (int(exponent[:10]) if exponent.isdecimal() else 0)


def _class_matrix(args) -> transitions.ClassMatrix:
    """The class matrix of --classes-csv or --classes-json; a matrix that
    does not parse or exceeds the bounds (checked before any text becomes a
    number) is a usage error naming the flag and the bad entry."""
    try:
        if args.classes_csv:
            # 64 characters a cell, far more than '-9999/9999,': no longer line is read, nor a row past MAX_CLASSES
            limit, rows = 64 * MAX_AMBIENT_RANK, []
            with open(args.classes_csv, encoding="utf-8") as fh:
                try:
                    for line in filter(str.strip, iter(functools.partial(fh.readline, limit + 1), "")):  # no blanks
                        if len(rows) > MAX_CLASSES:
                            raise ValueError(f"at most {MAX_CLASSES} class vectors, got {len(rows)} "
                                             "and the file goes on")
                        if len(line.rstrip("\n")) > limit:
                            raise ValueError(f"a line exceeds {limit} characters, "
                                             f"64 for each of {MAX_AMBIENT_RANK} cells")
                        rows += [[cell.strip() for cell in part.split(",")]
                                 for part in line.splitlines() if part.strip()]
                except UnicodeDecodeError as exc:  # it counts from the chunk decoded, which starts at `at`
                    at, (start, end) = fh.buffer.tell() - len(exc.object), (exc.start, exc.end)
                    what = (f"byte 0x{exc.object[start]:02x} in position {at + start}" if end == start + 1
                            else f"bytes in position {at + start}-{at + end - 1}")
                    raise ValueError(f"'{exc.encoding}' codec can't decode {what}: {exc.reason}") from None
        else:
            text = args.classes_json
            try:
                rows = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{abbreviated(repr(text))} is not JSON ({exc})") from None
            except RecursionError:
                raise ValueError("the JSON arrays nest too deeply for rows of entries") from None
            except ValueError:  # an integer past int()'s digit limit
                ints = []
                json.loads(text, parse_int=ints.append)
                entry = max(ints, key=len)
                raise ValueError(f"entry {abbreviated(entry)} has more than {MAX_ENTRY_DIGITS} digits") from None
            if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
                raise ValueError("expected a JSON array of rows, each an array of entries, "
                                 f"got {abbreviated(repr(text))}")
        if len(rows) > MAX_CLASSES or max(map(len, rows), default=0) > MAX_AMBIENT_RANK:
            raise ValueError(f"at most {MAX_CLASSES} class vectors of length <= {MAX_AMBIENT_RANK}, "
                             f"got {len(rows)} of length up to {max(map(len, rows))}")
        for entry in (x for row in rows for x in row if isinstance(x, str)):
            if _text_digits(entry) > MAX_ENTRY_DIGITS:
                raise ValueError(f"entry {abbreviated(repr(entry))} has more than {MAX_ENTRY_DIGITS} digits")
        from conifold_lab import transitions
        matrix = transitions.ClassMatrix(rows)
        limit = 10**MAX_ENTRY_DIGITS
        if max(map(max, matrix.rows)) >= limit or min(map(min, matrix.rows)) <= -limit:
            x, entry = next((x, e) for xs, es in zip(matrix.rows, rows) for x, e in zip(xs, es) if abs(x) >= limit)
            scaled = "" if x == entry else f" as {abbreviated(str(x))}, once the rows are scaled to integers"
            raise ValueError(f"entry {abbreviated(repr(entry))} has more than {MAX_ENTRY_DIGITS} digits{scaled}")
        return matrix
    except OSError as exc:
        raise InputError(f"cannot read {abbreviated(repr(args.classes_csv))}: {exc.strerror or exc}",
                         "classes_csv") from None
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc), "classes_csv" if args.classes_csv else "classes_json") from None


def _cmd_friedman(args) -> int:
    matrix = _class_matrix(args)
    from conifold_lab import transitions
    witness = transitions.friedman_witness(matrix)
    assertions = Checks()
    results = {
        "n_classes": len(matrix.rows),
        "ambient_rank": len(matrix.rows[0]),
        "feasible": witness is not None,
    }
    if witness is not None:
        results["witness"] = [str(x) for x in witness]
        assertions.true("witness_nonzero", all(witness), results["witness"])
    return _emit_report(args, results, assertions)


def _cmd_verify_all(args) -> int:
    from conifold_lab import acceptance
    profile = acceptance.Profile.fast(args.seed) if args.fast else acceptance.Profile.full(args.seed)
    only = None if args.criteria is None else args.criteria.split(",")
    for i, cid in enumerate(only or []):
        if cid not in acceptance.CRITERIA:
            raise InputError(f"unknown criterion {abbreviated(repr(cid))}; known: {', '.join(acceptance.CRITERIA)}",
                             "criteria")
        if cid in only[:i]:
            raise InputError(f"{cid} is listed twice", "criteria")
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
    keys = ("cid", "title", "passed", "details", "failures")
    results = {"profile": profile.name, "criteria": [{k: getattr(r, k) for k in keys} for r in outcomes]}
    status = _emit_report(args, results, assertions, timings)
    if not assertions.all_passed:
        failing = [r.cid for r in outcomes if not r.passed]
        print(f"FAILING CRITERIA: {', '.join(failing)}", file=sys.stderr)
    return status


def vars_config(args) -> dict:
    skip = {"func", "output", "timings"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}


def _integer(text: str, nonnegative: bool = False) -> int:
    """The type of an integer flag (of decimal digits only when nonnegative).  A refusal quotes
    the text through abbreviated, so no value, one past int()'s digit limit too, makes a long message."""
    with contextlib.suppress(ValueError):
        if not nonnegative or text.strip().isdecimal():
            return int(text)
    refusal = "expected an integer >= 0, got" if nonnegative else "invalid int value:"
    raise argparse.ArgumentTypeError(f"{refusal} {abbreviated(repr(text))}")


# The --tol names each subcommand reads, with their defaults; the others read none.
TOLERANCES = {"metric": {"ode": checks.ODE_RESIDUAL_GATE, "ma": checks.MA_RESIDUAL_GATE},
              "slag": {"slag": checks.PERIOD_ERROR_GATE}}


def _tolerance(args, name: str) -> float:
    return args.tolerances.get(name, TOLERANCES[args.command][name])


def _tolerance_map(command: str, pairs) -> dict:
    known = TOLERANCES.get(command, {})
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        got = f", got {abbreviated(repr(pair))}"
        if not value:
            raise InputError("expected NAME=VALUE" + got, "tol")
        if name not in known:
            raise InputError(f"{command} reads {'only ' + ', '.join(known) if known else 'no tolerance'}{got}", "tol")
        try:
            out[name] = tol = float(value)
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol > 0):
            raise InputError("the value must be a finite number > 0" + got, "tol")
    return out


class _Parser(argparse.ArgumentParser):
    """Refuses with ValueError, which main reports like every other usage error."""

    def error(self, message):
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        """argparse quotes some arguments as typed (unrecognized ones, an
        ambiguous option); an argument with a line break or another
        unprintable character is quoted by repr, so the refusal stays one line."""
        try:
            return super().parse_args(args, namespace)
        except ValueError as exc:
            message = str(exc)
            for arg in sorted(args or [], key=len, reverse=True):
                if not arg.isprintable():
                    message = message.replace(arg, repr(arg))
            raise ValueError(message) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call: parsing keeps no state in it (each parse returns a fresh
    namespace, and no default is a mutable container)."""
    parser = _Parser(
        prog="conifold-lab",
        description="verification laboratory for the local geometry of conifold transitions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="report path (default stdout)")
    common.add_argument("--seed", type=functools.partial(_integer, nonnegative=True), default=0)
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE", dest="tol")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="csv: metric only")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hodge", parents=[common], help="Hodge diamond of a hypersurface")
    p.add_argument("--n", type=_integer, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=_integer, required=True, help="hypersurface degree")
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
    p.add_argument("--points", type=_integer, default=50)
    p.add_argument("--params", default=None, help="comma list of parameters (convergence sweep)")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("slag", parents=[common], help="vanishing-cycle period")
    p.add_argument("--t", default="1")
    p.add_argument("--resolution", type=_integer, default=32)
    p.set_defaults(func=_cmd_slag)

    p = sub.add_parser("transition", parents=[common], help="topology bookkeeping")
    p.add_argument("--catalog", action="store_true", help="emit the worked-example catalog")
    p.add_argument("--h11", type=_integer, default=None)
    p.add_argument("--h21", type=_integer, default=None)
    p.add_argument("--betti", default="0,0,0", help="b1,b2,b3 before transition")
    p.add_argument("--N", type=_integer, default=None)
    p.add_argument("--k", type=_integer, default=None)
    p.add_argument("--c", type=_integer, default=None)
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("dwork", parents=[common], help="nodal pencil member certification")
    p.add_argument("--exact", action="store_true", help="exact cyclotomic verification")
    p.add_argument("--smooth-points", dest="smooth_points", default=0,
                   type=functools.partial(_integer, nonnegative=True))
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


def _attach_signed_t(argv: list[str]) -> list[str]:
    """Spell '--t VALUE' as '--t=VALUE' when VALUE is a complex literal that
    starts with '-': argparse takes '-0.5+0.2j' for an option, since only
    plain negative numbers pass as values."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--t" and token.startswith("-"):
            with contextlib.suppress(ValueError):
                _parse_complex(token)
                out[-1] = f"--t={token}"
                continue
        out.append(token)
    return out


def flag(name: str) -> str:
    """The flag of an InputError's name: the option of that argparse destination, and --betti for b1-b3."""
    return "--betti" if name in ("b1", "b2", "b3") else "--" + name.replace("_", "-")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_signed_t(sys.argv[1:] if argv is None else list(argv)))
        args.tolerances = _tolerance_map(args.command, args.tol)
        if args.format == "csv" and args.command != "metric":
            raise InputError(f"only metric writes CSV; {args.command} writes a JSON report", "format")
        return args.func(args)
    except (ValueError, OSError) as exc:  # an InputError leads with the flags of its names
        flags = "/".join(dict.fromkeys(map(flag, getattr(exc, "names", ()))))
        print(f"error: {flags}: {exc}" if flags else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
