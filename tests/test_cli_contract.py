"""The command line's input contract: every argv ends in a report (exit 0
or 1) or in exactly one `error: ` line on stderr with exit 2 and nothing on
stdout, and no other exception leaves `cli.main`."""

import argparse
import contextlib
import io
import json
import math
import re
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_lab import cli, hodge, metrics, slag, transitions

with resources.files("conifold_lab").joinpath("report.schema.json").open() as fh:
    REPORT_SCHEMA = json.load(fh)
REPORT_VALIDATOR = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


BIG_INT = "1" * 5000
NINES, NINES_QUOTED = "9" * 5000, "'9999999... (5002 characters)"
# within int()'s digit limit: the flag parses, and the library's refusal quotes the value
# (the rows below lead with other flags, so that their test ids differ from the NINES rows')
LONG, LONG_QUOTED = "9" * 4000, "99999999... (4000 characters)"
# a text flag's whole value, quoted by repr and cut like an integer's
TEXT, TEXT_QUOTED = "x" * 100_000, "'xxxxxxx... (100002 characters)"
PRIMES_BELOW_90 = [p for p in range(2, 90) if all(p % q for q in range(2, p))]
CRITERIA_KNOWN = "known: C01, C02, C03, C04, C05, C06, C07, C08, C09, C10, C11, C12"
# a request of each subcommand that writes only JSON (it refuses --format csv)
JSON_ONLY = [["hodge", "--n", "4", "--d", "5"], ["slag", "--t", "1", "--resolution", "8"], ["transition", "--catalog"],
             ["dwork"], ["friedman", "--classes-json", "[[1, 1]]"], ["verify-all", "--criteria", "C01"]]


def _past(bound, direction):
    """The float next to bound on the side of direction, as the flag's text."""
    return repr(math.nextafter(bound, direction))


# one ulp past a bound: with :g each would print as the bound itself
ULP_PAST = {"t": _past(metrics.PARAMETER_MIN, 0.0), "a": _past(metrics.PARAMETER_MAX, math.inf),
            "slag": _past(slag.MIN_ABS_T, 0.0), "tau": _past(metrics.TAU_WINDOW["cone"][1], math.inf)}
# class matrices read from a CSV file: each is refused as the JSON of its cells is
CSV_CLASSES = {"rows": "1,2\n" * 257, "digits": "1,1e9\n-1,-1\n", "zero-denominator": "1,2\n1/0,3\n"}


def _csv_cells(text):
    return [line.split(",") for line in text.splitlines()]


REFUSALS = [
    # argparse's own refusals, one per kind
    (["hodge", "--n", "x", "--d", "5"], "argument --n: invalid int value: 'x'"),
    (["metric", "--family", "foo"],
     "argument --family: invalid choice: 'foo' (choose from 'cone', 'smoothed', 'resolved')"),
    (["hodge", "--n", "4"], "the following arguments are required: --d"),
    (["friedman"], "one of the arguments --classes-csv --classes-json is required"),
    (["hodge", "--n", "4", "--d", "5", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify-all", "--fast", "--full"], "argument --full: not allowed with argument --fast"),
    (["dwork", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    (["dwork", "--smooth-points", "-5"], "argument --smooth-points: expected an integer >= 0, got '-5'"),
    # superscript digits pass str.isdigit() but not int()
    (["dwork", "--seed", "\u00b2"], "argument --seed: expected an integer >= 0, got '\u00b2'"),
    (["dwork", "--smooth-points", "\u00b9"], "argument --smooth-points: expected an integer >= 0, got '\u00b9'"),
    (["slag", "--resolution"], "argument --resolution: expected one argument"),
    (["slag", "--t", "--resolution", "8"], "argument --t: expected one argument"),
    # integer flags past int()'s digit limit, quoted abbreviated like every other value
    (["dwork", "--seed", NINES], f"argument --seed: expected an integer >= 0, got {NINES_QUOTED}"),
    (["dwork", "--smooth-points", NINES], f"argument --smooth-points: expected an integer >= 0, got {NINES_QUOTED}"),
    (["hodge", "--n", NINES, "--d", "5"], f"argument --n: invalid int value: {NINES_QUOTED}"),
    (["hodge", "--n", "4", "--d", "-" + NINES], "argument --d: invalid int value: '-999999... (5003 characters)"),
    (["metric", "--family", "cone", "--points", NINES], f"argument --points: invalid int value: {NINES_QUOTED}"),
    (["slag", "--resolution", NINES], f"argument --resolution: invalid int value: {NINES_QUOTED}"),
    (["transition", "--h11", NINES], f"argument --h11: invalid int value: {NINES_QUOTED}"),
    (["transition", "--h21", NINES], f"argument --h21: invalid int value: {NINES_QUOTED}"),
    (["transition", "--N", NINES], f"argument --N: invalid int value: {NINES_QUOTED}"),
    (["transition", "--k", NINES], f"argument --k: invalid int value: {NINES_QUOTED}"),
    (["transition", "--c", NINES], f"argument --c: invalid int value: {NINES_QUOTED}"),
    (["hodge", "--n", "x" * 33, "--d", "5"], "argument --n: invalid int value: 'xxxxxxx... (35 characters)"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'hodge', 'metric', "
                     "'slag', 'transition', 'dwork', 'friedman', 'verify-all')"),
    # --betti, parsed once, also beside --catalog
    (["transition", "--catalog", "--betti", "0,0"],
     "--betti: expected three comma-separated integers b1,b2,b3, got '0,0'"),
    (["transition", "--h11", "1", "--h21", "1", "--N", "1", "--k", "0", "--c", "1", "--betti", "0,x,1"],
     "--betti: expected three comma-separated integers b1,b2,b3, got '0,x,1'"),
    # the tau grid, checked once for both kinds of sweep
    (["metric", "--family", "resolved", "--tau-min", "10", "--tau-max", "1"],
     "--tau-min/--tau-max: need 0 < tau-min < tau-max, got [10.0, 1.0]"),
    (["metric", "--family", "smoothed", "--sweep", "convergence", "--tau-max", "0.5"],
     "--tau-min/--tau-max: need 0 < tau-min < tau-max, got [1.0, 0.5]"),
    (["metric", "--family", "cone", "--tau-min", "nan"],
     "--tau-min/--tau-max: need 0 < tau-min < tau-max, got [nan, 1000.0]"),
    # and each family's window, for every family swept
    (["metric", "--family", "resolved", "--a", "1", "--tau-max", "1e300", "--points", "3"],
     "--tau-min/--tau-max: the resolved family needs taus in [1e-240, 1e+75] = a^3 * [1e-240, 1e+75], "
     "got [0.1, 1e+300]"),
    (["metric", "--family", "cone", "--tau-min", "1e-300", "--tau-max", "1e-200", "--points", "3"],
     "--tau-min/--tau-max: the cone family needs taus in [1e-150, 1e+150], got [1e-300, 1e-200]"),
    (["metric", "--family", "smoothed", "--t", "1", "--tau-max", "1e200", "--points", "3"],
     "--tau-min/--tau-max: the smoothed family needs taus in [1.0, 1e+100] = |t| * [1, 1e+100], got [1.01, 1e+200]"),
    (["metric", "--family", "resolved", "--a", "2", "--tau-min", "1e-300", "--tau-max", "1", "--points", "3"],
     "--tau-min/--tau-max: the resolved family needs taus in [8e-240, 8e+75] = a^3 * [1e-240, 1e+75], "
     "got [1e-300, 1.0]"),
    (["metric", "--family", "smoothed", "--sweep", "convergence", "--params", "1,0.5", "--tau-max", "1e300",
      "--points", "3"],
     "--tau-min/--tau-max: the smoothed family needs taus in [1.0, 1e+100] = |t| * [1, 1e+100], got [1.0, 1e+300]"),
    (["metric", "--family", "cone", "--tau-min", "1", "--tau-max", ULP_PAST["tau"]],
     f"--tau-min/--tau-max: the cone family needs taus in [1e-150, 1e+150], got [1.0, {ULP_PAST['tau']}]"),
    # --t text that is neither a complex literal nor R@degrees
    (["slag", "--t", "abc"], "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got 'abc'"),
    (["slag", "--t", "1@x"], "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got '1@x'"),
    (["metric", "--family", "smoothed", "--t", ""],
     "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got ''"),
    # a polar angle past a turn keeps no digits once reduced: slag used to report
    # t = -0.239 + 0.971j for 1@1e308
    *[(argv + [f"1@{angle}"], f"--t: the angle of '1@{angle}' must be finite and within [-360, 360] degrees")
      for argv in (["slag", "--t"], ["metric", "--family", "smoothed", "--points", "3", "--t"])
      for angle in ("1e308", "360.0001", "-361", "nan", "inf", "-inf")],
    # JSON that int() or the decoder's recursion cannot take
    (["friedman", "--classes-json", f"[[{BIG_INT}],[1]]"],
     "--classes-json: entry 11111111... (5000 characters) has more than 4 digits"),
    (["friedman", "--classes-json", f"[[1],[-{BIG_INT}]]"],
     "--classes-json: entry -1111111... (5001 characters) has more than 4 digits"),
    (["friedman", "--classes-json", "[" * 5000],
     "--classes-json: the JSON arrays nest too deeply for rows of entries"),
    # every quoted entry or text past 32 characters is cut to its head and its length
    (["friedman", "--classes-json", f"[[1],[{BIG_INT[:4000]}]]"],
     "--classes-json: entry 11111111... (4000 characters) has more than 4 digits"),
    (["friedman", "--classes-json", json.dumps([["a" * 100_000], [1]])],
     "--classes-json: entry 'aaaaaaa... (100002 characters) is not a rational number"),
    (["friedman", "--classes-json", json.dumps([["9" * 40], [1]])],
     "--classes-json: entry '9999999... (42 characters) has more than 4 digits"),
    (["friedman", "--classes-json", json.dumps([[{"k": "v" * 1000}], [1]])],
     "--classes-json: unsupported class-vector entry {'k': 'v... (1009 characters) of type dict"),
    (["friedman", "--classes-json", "x" * 100_000],
     "--classes-json: 'xxxxxxx... (100002 characters) is not JSON (Expecting value: line 1 column 1 (char 0))"),
    (["friedman", "--classes-json", json.dumps({"rows": "r" * 1000})],
     "--classes-json: expected a JSON array of rows, each an array of entries, got '{\"rows\"... (1014 characters)"),
    (["friedman", "--classes-json", "[[1e400]]"], "--classes-json: class vectors must be exact; got the non-finite float inf"),
    (["friedman", "--classes-json", "[[NaN]]"], "--classes-json: class vectors must be exact; got the non-finite float nan"),
    (["friedman", "--classes-json", json.dumps([[f"1/{p}" for p in PRIMES_BELOW_90], ["1"] * 24])],
     "--classes-json: entry '1/2' has more than 4 digits as 11884370... (35 characters), "
     "once the rows are scaled to integers"),
    # class matrices that do not parse
    (["friedman", "--classes-json", '[["1/0",1]]'], "--classes-json: entry '1/0' is not a rational number"),
    (["friedman", "--classes-json", '{"a":1}'],
     "--classes-json: expected a JSON array of rows, each an array of entries, got '{\"a\":1}'"),
    (["friedman", "--classes-json", "nope"],
     "--classes-json: 'nope' is not JSON (Expecting value: line 1 column 1 (char 0))"),
    (["friedman", "--classes-json", "[[true, 1]]"], "--classes-json: entry True is a boolean, not a rational number"),
    (["friedman", "--classes-json", "[[0.5]]"],
     "--classes-json: class vectors must be exact; got the non-integral float 0.5"),
    (["friedman", "--classes-json", "[1,2]"],
     "--classes-json: expected a JSON array of rows, each an array of entries, got '[1,2]'"),
    (["friedman", "--classes-json", "[[[1]]]"], "--classes-json: unsupported class-vector entry [1] of type list"),
    (["friedman", "--classes-json", '[[{"a":1}]]'],
     "--classes-json: unsupported class-vector entry {'a': 1} of type dict"),
    (["friedman", "--classes-json", '[["1j", "1"]]'], "--classes-json: entry '1j' is not a rational number"),
    # each of friedman's bounds plus one, refused before any work: the exponent entries used to
    # build their integer first, so 1e5000 certified a witness that the report could not print,
    # 1e999999 took a third of a second and 1e-99999999999999999999 did not finish
    (["friedman", "--classes-json", json.dumps([[1]] * 257)],
     "--classes-json: at most 256 class vectors of length <= 24, got 257 of length up to 1"),
    (["friedman", "--classes-json", json.dumps([[1] * 25, [-1] * 25])],
     "--classes-json: at most 256 class vectors of length <= 24, got 2 of length up to 25"),
    (["friedman", "--classes-json", "[[10000],[-1]]"], "--classes-json: entry 10000 has more than 4 digits"),
    (["friedman", "--classes-json", "[[-1e4],[1]]"], "--classes-json: entry -10000.0 has more than 4 digits"),
    (["friedman", "--classes-json", '[["10000"],["-1"]]'], "--classes-json: entry '10000' has more than 4 digits"),
    (["friedman", "--classes-json", '[["1e4"],["-1"]]'], "--classes-json: entry '1e4' has more than 4 digits"),
    (["friedman", "--classes-json", '[["0.0001"],["-1"]]'], "--classes-json: entry '0.0001' has more than 4 digits"),
    (["friedman", "--classes-json", '[["1/7","1/11"],["1/13","1/17"],["-1","1"]]'],
     "--classes-json: entry '-1' has more than 4 digits as -17017, once the rows are scaled to integers"),
    (["friedman", "--classes-json", '[["1e5000"],["-1"]]'], "--classes-json: entry '1e5000' has more than 4 digits"),
    (["friedman", "--classes-json", '[["1e999999"],["-1"]]'],
     "--classes-json: entry '1e999999' has more than 4 digits"),
    (["friedman", "--classes-json", '[["1e-99999999999999999999"],["-1"]]'],
     "--classes-json: entry '1e-99999999999999999999' has more than 4 digits"),
    # the cells of CSV_CLASSES as JSON
    (["friedman", "--classes-json", json.dumps(_csv_cells(CSV_CLASSES["rows"]))],
     "--classes-json: at most 256 class vectors of length <= 24, got 257 of length up to 2"),
    (["friedman", "--classes-json", json.dumps(_csv_cells(CSV_CLASSES["digits"]))],
     "--classes-json: entry '1e9' has more than 4 digits"),
    (["friedman", "--classes-json", json.dumps(_csv_cells(CSV_CLASSES["zero-denominator"]))],
     "--classes-json: entry '1/0' is not a rational number"),
    # argparse quotes these arguments as typed: a line break is quoted by repr
    (["hodge", "--n", "4", "--d", "5", "a\nb"], "unrecognized arguments: 'a\\nb'"),
    (["hodge", "--t=a\nb"], "ambiguous option: '--t=a\\nb' could match --timings, --tol"),
    # an option's value that abbreviates two options: argparse takes it for an option, and names both
    (["transition", "--betti", "0,0", "--h11", "0", "--h21", "0", "--N", "--t", "--k", "0", "--c", "0"],
     "ambiguous option: --t could match --timings, --tol"),
    (["dwork", "--seed", "--s"], "ambiguous option: --s could match --seed, --smooth-points"),
    # the CLI's own checks, named like the library's; a whole value is quoted abbreviated
    (["metric", "--family", "cone", "--points", "0"],
     "--points: the number of grid points must lie in [1, 32768], got 0"),
    (["metric", "--family", "cone", "--points", "-" + LONG],
     "--points: the number of grid points must lie in [1, 32768], got -9999999... (4001 characters)"),
    (["metric", "--family", "cone", "--points", "32769"],
     "--points: the number of grid points must lie in [1, 32768], got 32769"),
    (["metric", "--family", "resolved", "--sweep", "convergence", "--points", "32769"],
     "--points: the number of grid points must lie in [1, 32768], got 32769"),
    (["dwork", "--smooth-points", "65537"],
     "--smooth-points: the number of smooth points must lie in [0, 65536], got 65537"),
    # the cone has no parameter to converge in; its request is refused instead of
    # answered with the smoothing's numbers
    (["metric", "--family", "cone", "--sweep", "convergence"],
     "--family/--sweep: the cone has no parameter for a convergence sweep; use smoothed or resolved"),
    # an empty --params used to run the default parameters while the config echoed the empty list
    (["metric", "--family", "smoothed", "--sweep", "convergence", "--params", ""],
     "--params: expected a comma list of numbers, got ''"),
    (["metric", "--family", "smoothed", "--sweep", "convergence", "--params", "1,x"],
     "--params: expected a comma list of numbers, got '1,x'"),
    (["slag", "--tol", "x"], "--tol: expected NAME=VALUE, got 'x'"),
    (["slag", "--t", "1", "--tol", "oops"], "--tol: expected NAME=VALUE, got 'oops'"),
    # each subcommand takes only the --tol names it reads; an ignored tolerance used to
    # be echoed in the report's config
    (["slag", "--tol", "ode=1"], "--tol: slag reads only slag, got 'ode=1'"),
    (["verify-all", "--criteria", "C03", "--tol", "ode=1e-30"],
     "--tol: verify-all reads no tolerance, got 'ode=1e-30'"),
    (["hodge", "--n", "4", "--d", "5", "--tol", "nosuch=1"], "--tol: hodge reads no tolerance, got 'nosuch=1'"),
    (["dwork", "--tol", "ode=1"], "--tol: dwork reads no tolerance, got 'ode=1'"),
    (["transition", "--catalog", "--tol", "slag=1"], "--tol: transition reads no tolerance, got 'slag=1'"),
    (["friedman", "--classes-json", "[[1]]", "--tol", "ma=1"], "--tol: friedman reads no tolerance, got 'ma=1'"),
    (["metric", "--family", "cone", "--tol", "slag=1e-3"], "--tol: metric reads only ode, ma, got 'slag=1e-3'"),
    # a NaN tolerance used to reach the report as bare NaN, which is not JSON
    (["slag", "--tol", "slag=0"], "--tol: the value must be a finite number > 0, got 'slag=0'"),
    *[(["slag", "--t", "1", "--resolution", "8", "--tol", f"slag={value}"],
       f"--tol: the value must be a finite number > 0, got 'slag={value}'") for value in ("nan", "inf", "-1", "abc")],
    (["slag", "--tol", TEXT], f"--tol: expected NAME=VALUE, got {TEXT_QUOTED}"),
    (["slag", "--tol", "slag=" + TEXT],
     "--tol: the value must be a finite number > 0, got 'slag=xx... (100007 characters)"),
    # only metric writes CSV; the others used to accept --format csv and write JSON
    *[(argv + ["--format", "csv"], f"--format: only metric writes CSV; {argv[0]} writes a JSON report")
      for argv in JSON_ONLY],
    (["slag", "--t", TEXT],
     f"--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got {TEXT_QUOTED}"),
    (["slag", "--t", "1@" + LONG],
     "--t: the angle of '1@99999... (4004 characters) must be finite and within [-360, 360] degrees"),
    (["metric", "--family", "smoothed", "--sweep", "convergence", "--params", TEXT],
     f"--params: expected a comma list of numbers, got {TEXT_QUOTED}"),
    (["transition", "--catalog", "--betti", TEXT],
     f"--betti: expected three comma-separated integers b1,b2,b3, got {TEXT_QUOTED}"),
    (["verify-all", "--criteria", TEXT], f"--criteria: unknown criterion {TEXT_QUOTED}; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "C99"], f"--criteria: unknown criterion 'C99'; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", ""], f"--criteria: unknown criterion ''; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "C01,,C02"], f"--criteria: unknown criterion ''; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "C01,"], f"--criteria: unknown criterion ''; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "C01,C99"], f"--criteria: unknown criterion 'C99'; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "c01"], f"--criteria: unknown criterion 'c01'; {CRITERIA_KNOWN}"),
    (["verify-all", "--criteria", "C03,C01,C03"], "--criteria: C03 is listed twice"),
    # the window's ends print exactly: with :g, 1e135 read as the window's own top
    (["metric", "--family", "resolved", "--a", "1e20", "--tau-min", "1e-180", "--tau-max", "1e135", "--points", "5"],
     "--tau-min/--tau-max: the resolved family needs taus in [1e-180, 9.999999999999998e+134] "
     "= a^3 * [1e-240, 1e+75], got [1e-180, 1e+135]"),
    # library refusals, named by the flag the value came from
    (["hodge", "--n", "2", "--d", "5"], "--n: ambient projective dimension n must lie in [3, 200], got 2"),
    (["hodge", "--n", "1", "--d", "5"], "--n: ambient projective dimension n must lie in [3, 200], got 1"),
    (["hodge", "--n", "201", "--d", "5"], "--n: ambient projective dimension n must lie in [3, 200], got 201"),
    (["hodge", "--n", "4", "--d", "0"], "--d: degree d must lie in [1, 300], got 0"),
    (["hodge", "--n", "4", "--d", "301"], "--d: degree d must lie in [1, 300], got 301"),
    (["metric", "--family", "resolved", "--a", "0"],
     "--a: the resolution parameter a must lie in [1e-20, 1e+20], got 0.0"),
    (["metric", "--family", "resolved", "--a", "1e-300"],
     "--a: the resolution parameter a must lie in [1e-20, 1e+20], got 1e-300"),
    (["metric", "--family", "resolved", "--a", "1e30"],
     "--a: the resolution parameter a must lie in [1e-20, 1e+20], got 1e+30"),
    (["metric", "--family", "resolved", "--a", ULP_PAST["a"]],
     f"--a: the resolution parameter a must lie in [1e-20, 1e+20], got {ULP_PAST['a']}"),
    (["metric", "--family", "smoothed", "--t", "1e-30"],
     "--t: the smoothing parameter |t| must lie in [1e-20, 1e+20], got 1e-30"),
    (["metric", "--family", "smoothed", "--t", "1e300"],
     "--t: the smoothing parameter |t| must lie in [1e-20, 1e+20], got 1e+300"),
    (["metric", "--family", "smoothed", "--t", ULP_PAST["t"]],
     f"--t: the smoothing parameter |t| must lie in [1e-20, 1e+20], got {ULP_PAST['t']}"),
    (["metric", "--family", "resolved", "--sweep", "convergence", "--params", "1,1e-30"],
     "--params: the resolution parameter a must lie in [1e-20, 1e+20], got 1e-30"),
    (["metric", "--family", "resolved", "--a", "inf"], "--a: the resolution parameter a must be finite, got inf"),
    (["metric", "--family", "smoothed", "--t", "nan"], "--t: the smoothing parameter t must be finite, got (nan+0j)"),
    (["slag", "--resolution", "9"], "--resolution: resolution must be even, got 9"),
    (["slag", "--resolution", "7"], "--resolution: resolution must lie in [8, 256], got 7"),
    (["slag", "--t", "1", "--resolution", "258"], "--resolution: resolution must lie in [8, 256], got 258"),
    (["slag", "--t", "1", "--resolution", "100000"], "--resolution: resolution must lie in [8, 256], got 100000"),
    (["slag", "--t", "1e-300"], "--t: |t| must lie in [1e-200, 1e+200], got 1e-300"),
    (["slag", "--t", "1e300@45"], "--t: |t| must lie in [1e-200, 1e+200], got 1e+300"),
    (["slag", "--t", ULP_PAST["slag"]], f"--t: |t| must lie in [1e-200, 1e+200], got {ULP_PAST['slag']}"),
    (["slag", "--t", "nan"], "--t: the vanishing cycle needs a finite t, got (nan+0j)"),
    (["slag", "--t", "inf"], "--t: the vanishing cycle needs a finite t, got (inf+0j)"),
    # the grid is checked before t, so a request with both wrong names --resolution
    (["slag", "--t", "nan", "--resolution", "9"], "--resolution: resolution must be even, got 9"),
    (["hodge", "--d", "5", "--n", LONG],
     f"--n: ambient projective dimension n must lie in [3, 200], got {LONG_QUOTED}"),
    (["hodge", "--n", "4", "--d", LONG], f"--d: degree d must lie in [1, 300], got {LONG_QUOTED}"),
    (["metric", "--points", LONG, "--family", "cone"],
     f"--points: the number of grid points must lie in [1, 32768], got {LONG_QUOTED}"),
    (["dwork", "--seed", "0", "--smooth-points", LONG],
     f"--smooth-points: the number of smooth points must lie in [0, 65536], got {LONG_QUOTED}"),
    (["slag", "--t", "1", "--resolution", LONG], f"--resolution: resolution must lie in [8, 256], got {LONG_QUOTED}"),
    (["slag", "--resolution", "-" + LONG],
     "--resolution: resolution must lie in [8, 256], got -9999999... (4001 characters)"),
    # the bookkeeping's refusals, named by the flags of the inputs they quote
    (["transition", "--betti", "0,-3,2", "--h11", "1", "--h21", "1", "--N", "1", "--k", "0", "--c", "1"],
     "--betti: inputs must be nonnegative, got b2=-3"),
    (["transition", "--h11", "-1", "--betti=-1,1,2", "--h21", "1", "--N", "1", "--k", "0", "--c", "1"],
     "--h11/--betti: inputs must be nonnegative, got h11=-1, b1=-1"),
    (["transition", "--N", "-1", "--h11", "1", "--h21", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     "--N: node count must split: N=-1, k+c=1"),
    (["transition", "--h11", "25", "--h21", "0", "--betti", "0,25,2", "--N", "5", "--k", "1", "--c", "1"],
     "--N: node count must split: N=5, k+c=2"),
    (["transition", "--k", "2", "--h11", "1", "--h21", "1", "--N", "2", "--c", "0", "--betti", "0,5,2"],
     "--h11/--k: h11=1 < k=2: contraction would leave a negative Hodge number"),
    (["transition", "--k", "2", "--betti", "0,1,2", "--h11", "5", "--h21", "1", "--N", "2", "--c", "0"],
     "--betti/--k: b2=1 < k=2: contraction would leave a negative Betti number"),
    (["transition", "--h11", "-" + LONG, "--h21", "1", "--N", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     "--h11: inputs must be nonnegative, got h11=-9999999... (4001 characters)"),
    (["transition", "--h11", "1", "--N", LONG, "--h21", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     f"--N: node count must split: N={LONG_QUOTED}, k+c=1"),
    (["transition", "--h11", "1"], "--h21/--N/--k/--c: required unless --catalog is given"),
    (["transition", "--h11", "25"], "--h21/--N/--k/--c: required unless --catalog is given"),
    (["transition", "--h11", "1", "--k", LONG, "--h21", "1", "--N", LONG, "--c", "0", "--betti", "0,5,2"],
     f"--h11/--k: h11=1 < k={LONG_QUOTED}: contraction would leave a negative Hodge number"),
    # paths that cannot be read or written, quoted like every other value
    (["hodge", "--n", "4", "--d", "5", "--output", "/nonexistent/x.json"],
     "--output: cannot write '/nonexistent/x.json': No such file or directory"),
    (["hodge", "--n", "4", "--d", "5", "--output", TEXT], f"--output: cannot write {TEXT_QUOTED}: File name too long"),
    (["friedman", "--classes-csv", "/nonexistent/classes.csv"],
     "--classes-csv: cannot read '/nonexistent/classes.csv': No such file or directory"),
    (["friedman", "--classes-csv", TEXT], f"--classes-csv: cannot read {TEXT_QUOTED}: File name too long"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(argv)[:40] for argv, _ in REFUSALS])
def test_refusal_is_one_error_line(argv, message, tmp_path):
    """Each refusal is its one line, within half a second: every bound is
    checked before the work it bounds."""
    out = tmp_path / "report.json"
    if "--output" not in argv:
        argv = argv + ["--output", str(out)]
    start = time.perf_counter()
    result = run(argv)
    elapsed = time.perf_counter() - start
    assert result == (2, "", f"error: {message}\n")
    assert elapsed < 0.5
    assert not out.exists()


@pytest.mark.parametrize("argv", JSON_ONLY, ids=[argv[0] for argv in JSON_ONLY])
def test_json_format_is_the_default_report(argv):
    """--format json gives the report of a request without --format."""
    default = run(argv)
    assert default[0] == 0 and run(argv + ["--format", "json"])[:2] == default[:2]


def test_one_ulp_past_a_bound_reads_as_the_bound_under_g():
    """The ULP_PAST rows pin that a refusal prints repr: under :g each value reads as its bound."""
    assert [f"{float(text):g}" for text in ULP_PAST.values()] == ["1e-20", "1e+20", "1e-200", "1e+150"]


@pytest.mark.parametrize("name", sorted(CSV_CLASSES))
def test_class_csv_is_refused_as_its_cells_in_json(name, tmp_path):
    """A class matrix read from a file gets the refusal of its cells given as
    --classes-json, naming --classes-csv."""
    path = tmp_path / "classes.csv"
    path.write_text(CSV_CLASSES[name])
    as_json = ["friedman", "--classes-json", json.dumps(_csv_cells(CSV_CLASSES[name]))]
    message = next(message for argv, message in REFUSALS if argv == as_json)
    expected = f"error: --classes-csv{message.removeprefix('--classes-json')}\n"
    assert run(["friedman", "--classes-csv", str(path), "--output", str(tmp_path / "x")]) == (2, "", expected)


def _e(bound):
    """A float bound as README writes it: 1e20, 1e-200."""
    return f"{bound:g}".replace("e+", "e")


def test_readme_flag_table_states_the_bounds():
    """README's flag table gives the ranges the package refuses outside of."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("### Flag conventions"):]
    table = table[:table.index("\n\n", table.index("| Flag |"))]
    lo, hi = _e(metrics.PARAMETER_MIN), _e(metrics.PARAMETER_MAX)
    bounds = [
        f"{hodge.MIN_DIMENSION} <= n <= {hodge.MAX_DIMENSION}",
        f"{hodge.MIN_DEGREE} <= d <= {hodge.MAX_DEGREE}",
        f"{cli.MIN_POINTS} <= points <= {cli.MAX_POINTS}",
        f"sample size, 0..{cli.MAX_SMOOTH_POINTS}",
        f"even, {slag.MIN_RESOLUTION}..{slag.MAX_RESOLUTION}",
        f"`metric` takes {lo} <= \\|t\\| <= {hi}",
        f"`slag` {_e(slag.MIN_ABS_T)} <= \\|t\\| <= {_e(slag.MAX_ABS_T)}",
        f"{lo} <= a <= {hi}",
    ]
    assert [bound for bound in bounds if bound not in table] == []


def _options(command):
    """The option strings of a subcommand's parser."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices[command]._option_string_actions)


def _flags(names):
    """The flags cli.main names for an InputError's parameters."""
    return set(map(cli.flag, names))


# each library refusal a request can reach, with the subcommand that makes the request
LIBRARY_REFUSALS = [
    ("hodge", hodge.HypersurfaceSpec, (2, 5)),
    ("hodge", hodge.HypersurfaceSpec, (4, 0)),
    ("metric", metrics.PotentialFamily.smoothed, (0,)),
    ("metric", metrics.PotentialFamily.smoothed, (complex(math.nan, 0),)),
    ("metric", metrics.PotentialFamily.resolved, (math.inf,)),
    ("metric", metrics.PotentialFamily.resolved, (1e30,)),
    ("slag", slag.sample_vanishing_cycle, (1e-300, 32)),
    ("slag", slag.sample_vanishing_cycle, (math.inf, 32)),
    ("slag", slag.sample_vanishing_cycle, (1.0, 7)),
    ("slag", slag.check_resolution, (9,)),
    ("transition", transitions.apply_topology_change, (-1, 0, (0, -1, 0), 1, 0, 1)),
    ("transition", transitions.apply_topology_change, (1, 1, (0, 1, 2), 2, 0, 1)),
    ("transition", transitions.apply_topology_change, (1, 1, (0, 5, 2), 2, 2, 0)),
    ("transition", transitions.apply_topology_change, (5, 1, (0, 1, 2), 2, 2, 0)),
]


@pytest.mark.parametrize("command,refuse,args", LIBRARY_REFUSALS,
                         ids=[f"{refuse.__qualname__}{args}" for _, refuse, args in LIBRARY_REFUSALS])
def test_library_refusal_names_options_of_its_subcommand(command, refuse, args):
    """Every library refusal a request can reach is an InputError whose names
    cli.main prints as flags of that request's subcommand, so a renamed
    parameter cannot print a flag that does not exist."""
    with pytest.raises(transitions.InputError) as refusal:
        refuse(*args)
    assert refusal.value.names
    assert _flags(refusal.value.names) <= _options(command)


def test_missing_subcommand_is_one_error_line():
    assert run([]) == (2, "", "error: the following arguments are required: command\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["hodge", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: conifold-lab hodge")


# Flag values from each class: inside the bound, at it, just outside it,
# non-finite, empty and garbage text.
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
GARBAGE = st.text(max_size=8)


def _flag(inside, at, outside):
    return st.one_of(inside, st.sampled_from(at), st.sampled_from(outside), NON_FINITE, st.just(""), GARBAGE)


def _count(lo, hi, at, outside):
    return _flag(st.integers(lo, hi).map(str), at, outside)


# hodge at n = MAX_DIMENSION takes 0.15-0.6 s from d = 3 on, so the top
# dimension is drawn with the two degrees that expand quickly (0.05-0.08 s)
HODGE = st.one_of(
    st.tuples(_count(hodge.MIN_DIMENSION, 8, [str(hodge.MIN_DIMENSION)],
                     [str(hodge.MIN_DIMENSION - 2), str(hodge.MIN_DIMENSION - 1), str(hodge.MAX_DIMENSION + 1)]),
              _count(hodge.MIN_DEGREE, 8, [str(hodge.MIN_DEGREE), str(hodge.MAX_DEGREE)],
                     [str(hodge.MIN_DEGREE - 1), str(hodge.MAX_DEGREE + 1)])),
    st.tuples(st.just(str(hodge.MAX_DIMENSION)), st.sampled_from(["1", "2"])),
).map(lambda nd: ["hodge", "--n", nd[0], "--d", nd[1]])

_MODULUS = st.floats(1e-3, 1e3)
T_TEXT = _flag(
    st.one_of(_MODULUS.map(repr), st.tuples(_MODULUS, st.floats(-360, 360)).map(lambda p: f"{p[0]!r}@{p[1]!r}")),
    [repr(slag.MIN_ABS_T), repr(slag.MAX_ABS_T), "1@360", "-1@-360"],
    [_past(slag.MIN_ABS_T, 0.0), _past(slag.MAX_ABS_T, math.inf), "1@360.0001", _past(slag.MIN_ABS_T, 0.0) + "j"],
)
# the upper bound takes 0.8 s, so only the value past it is drawn
RESOLUTION = _flag(st.sampled_from(["10", "16"]), [str(slag.MIN_RESOLUTION)],
                   [str(slag.MIN_RESOLUTION - 1), str(slag.MIN_RESOLUTION + 1), str(slag.MAX_RESOLUTION + 1)])
SLAG = st.builds(lambda t, res: ["slag", "--t", t, "--resolution", res], T_TEXT, RESOLUTION)

# a sweep of at most 4 points runs in about 1 ms, one of MAX_POINTS in 0.3-0.4 s, so only the
# count past the bound is drawn (hodge draws the garbage an int flag refuses).  Each tau is left
# to its default or drawn inside, at and just past every family's window (the windows of t = 1
# and a = 1 are metrics.TAU_WINDOW itself); --a draws the garbage a float flag refuses.
_WINDOW_ENDS = list(metrics.TAU_WINDOW.values())
TAU = st.one_of(
    st.none(),
    st.sampled_from(["1", "10", "100"]),
    st.sampled_from([repr(end) for ends in _WINDOW_ENDS for end in ends]),
    st.sampled_from([_past(lo, 0.0) for lo, _ in _WINDOW_ENDS] + [_past(hi, math.inf) for _, hi in _WINDOW_ENDS]),
    NON_FINITE,
)


def _metric(family, sweep, points, parameter, taus):
    argv = ["metric", "--family", family, "--sweep", sweep, "--points", points]
    argv += [f"--{parameter[0]}", parameter[1]] if parameter else []
    for flag, tau in zip(("--tau-min", "--tau-max"), taus):
        argv += [flag, tau] if tau is not None else []
    return argv


METRIC = st.builds(
    _metric,
    st.sampled_from(["cone", "smoothed", "resolved"]),
    st.sampled_from(["profile", "deviation", "residuals", "convergence"]),
    st.sampled_from([str(cli.MIN_POINTS + i) for i in range(4)] + [str(cli.MIN_POINTS - 1), str(cli.MAX_POINTS + 1)]),
    st.one_of(st.none(), st.tuples(st.just("t"), T_TEXT), st.tuples(st.sampled_from(["a", "params"]), GARBAGE),
              st.tuples(st.just("a"), st.sampled_from(["1", repr(metrics.PARAMETER_MIN), repr(metrics.PARAMETER_MAX)])),
              st.tuples(st.just("params"), st.sampled_from(["1,0.5", "0.5,1", "1," + repr(metrics.PARAMETER_MIN)]))),
    st.tuples(TAU, TAU),
)

_SMALL = _count(0, 3, ["0"], ["-1"])
BETTI = st.one_of(
    st.lists(st.integers(-1, 3).map(str), min_size=2, max_size=4).map(",".join),
    st.tuples(_SMALL, _SMALL, _SMALL).map(",".join),
)


def _transition(counts, betti, catalog):
    argv = ["transition", "--betti", betti] + (["--catalog"] if catalog else [])
    for flag, value in zip(("--h11", "--h21", "--N", "--k", "--c"), counts):
        argv += [flag, value]
    return argv


TRANSITION = st.builds(_transition, st.lists(_SMALL, min_size=5, max_size=5), BETTI, st.booleans())

_ENTRY = st.one_of(
    st.integers(-9999, 9999),
    st.sampled_from([9999, -9999, "1/9999", "9999/1"]),
    st.sampled_from([10000, -10000, "1e4", "1/10000", 1e300]),
    st.sampled_from([math.nan, math.inf, "nan", "inf"]),
    st.just(""),
    st.floats(allow_nan=False, width=16) | GARBAGE,
)
CLASSES = st.one_of(
    st.lists(st.lists(_ENTRY, min_size=1, max_size=3), max_size=3).map(json.dumps),
    st.just(""),
    GARBAGE,
)
FRIEDMAN = CLASSES.map(lambda text: ["friedman", "--classes-json", text])

# the upper bound, 65,536 points, takes seconds, so only the value past it is drawn
DWORK = st.builds(
    lambda points, seed, exact: ["dwork", "--smooth-points", points, "--seed", seed] + (["--exact"] if exact else []),
    _count(0, 20, ["0"], ["-1", str(cli.MAX_SMOOTH_POINTS + 1)]),
    _SMALL,
    st.booleans(),
)

# verify-all runs only the cheap criteria (each about 1 ms at either profile), or refuses a list
# with an empty entry, a repeat, lower case or an unknown ID
_CHEAP = ["C01", "C02", "C04", "C10"]
VERIFY_ALL = st.builds(
    lambda criteria, profile, seed: ["verify-all", "--criteria", ",".join(criteria), "--seed", seed] + profile,
    st.one_of(st.lists(st.sampled_from(_CHEAP), min_size=1, max_size=4, unique=True),
              st.lists(st.sampled_from(_CHEAP + ["", "c01", "C99", "C13"]), min_size=1, max_size=4)),
    st.sampled_from([[], ["--fast"], ["--full"], ["--fast", "--full"]]),
    _SMALL,
)

# every subcommand takes --tol and --format; each reads its own tolerance names, and only metric
# writes CSV (argparse refuses a format outside its choices, as it refuses --family foo).  Half
# the requests take neither, so that the refusals of --tol leave room for the subcommand's own.
OPTIONS = st.one_of(st.just([]), st.builds(
    lambda tol, fmt: (["--tol", tol] if tol is not None else []) + (["--format", fmt] if fmt is not None else []),
    st.one_of(st.none(), st.sampled_from(["ode=1e-3", "ma=1", "slag=1e-30", "slag=0", "ma=nan", "slag", "=1"])),
    st.one_of(st.none(), st.sampled_from(["json", "csv"])),
))
ARGV = {command: st.builds(list.__add__, argv, OPTIONS) for command, argv in
        {"hodge": HODGE, "metric": METRIC, "slag": SLAG, "transition": TRANSITION, "friedman": FRIEDMAN,
         "dwork": DWORK, "verify-all": VERIFY_ALL}.items()}
# the slowest request drawn, hodge at MAX_DIMENSION, takes about 0.1 s; an unbounded run fails
EXAMPLE_SECONDS = 2.0


def _named_options(err):
    """The options an error line names: argparse's 'argument --x: ...',
    'the following arguments are required: --x, --y' and 'ambiguous option:
    ... could match --x, --y', or the package's '--x/--y: ...'; a line of
    any other form names none."""
    head = re.match(r"error: (?:argument (--[\w-]+): |((?:--[\w-]+/)*--[\w-]+): "
                    r"|the following arguments are required: (.*)$|ambiguous option: .* could match (.*)$)", err)
    return set(re.split(r", |/", next(filter(None, head.groups())))) if head else set()


def test_every_refusal_row_names_options_of_its_subcommand():
    """_named_options reads every row's line as the fuzzer reads a drawn one,
    ambiguous abbreviations included; only the forms that name no option of
    a subcommand (the top parser's choice, a stray argument, an exclusive
    group's requirement) name none."""
    for argv, message in REFUSALS:
        named = _named_options(f"error: {message}\n")
        if message.startswith(("argument command: ", "unrecognized arguments: ", "one of the arguments ")):
            assert not named, message
        else:
            assert named and named <= _options(argv[0]), message


def _untimed(err):
    """stderr without the wall time verify-all prints on each criterion's line."""
    return re.sub(r" \[ *[\d.]+s\] ", " ", err)


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_argv_is_answered_or_refused(command, data):
    argv = data.draw(ARGV[command], label="argv")
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < EXAMPLE_SECONDS
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        named = _named_options(err)
        assert named and named <= _options(command), err
    elif out.startswith("{"):
        REPORT_VALIDATOR.validate(json.loads(out, parse_constant=_no_constant))
    else:  # metric's --format csv: a tau sweep's rows or the convergence sweep's sups
        header = out.split("\n", 1)[0].split(",")
        assert command == "metric" and header in (cli.METRIC_HEADER, ["family", "param", "sup_deviation"])
    again = run(argv)
    assert again[:2] == (code, out) and _untimed(again[2]) == _untimed(err)
