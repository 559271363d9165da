"""The command line's input contract: every argv ends in a report (exit 0
or 1) or in exactly one `error: ` line on stderr with exit 2 and nothing on
stdout, and no other exception leaves `cli.main`."""

import contextlib
import io
import json
import math
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_lab import cli, hodge

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
PRIMES_BELOW_90 = [p for p in range(2, 90) if all(p % q for q in range(2, p))]

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
    # superscript digits pass str.isdigit() but not int()
    (["dwork", "--seed", "\u00b2"], "argument --seed: expected an integer >= 0, got '\u00b2'"),
    (["dwork", "--smooth-points", "\u00b9"], "argument --smooth-points: expected an integer >= 0, got '\u00b9'"),
    (["slag", "--resolution"], "argument --resolution: expected one argument"),
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
    # --t text that is neither a complex literal nor R@degrees
    (["slag", "--t", "abc"], "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got 'abc'"),
    (["slag", "--t", "1@x"], "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got '1@x'"),
    (["metric", "--family", "smoothed", "--t", ""],
     "--t: expected a complex literal like -0.5+0.2j or R@degrees like 0.3@36, got ''"),
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
    # argparse quotes these arguments as typed: a line break is quoted by repr
    (["hodge", "--n", "4", "--d", "5", "a\nb"], "unrecognized arguments: 'a\\nb'"),
    (["hodge", "--t=a\nb"], "ambiguous option: '--t=a\\nb' could match --timings, --tol"),
    # library refusals, named by the flag the value came from
    (["hodge", "--n", "2", "--d", "5"], "--n: ambient projective dimension n must lie in [3, 200], got 2"),
    (["hodge", "--n", "1", "--d", "5"], "--n: ambient projective dimension n must lie in [3, 200], got 1"),
    (["hodge", "--n", "4", "--d", "0"], "--d: degree d must lie in [1, 300], got 0"),
    (["metric", "--family", "resolved", "--a", "0"],
     "--a: the resolution parameter a must lie in [1e-20, 1e+20], got 0.0"),
    (["slag", "--resolution", "9"], "--resolution: resolution must be even, got 9"),
    (["slag", "--resolution", "7"], "--resolution: resolution must be >= 8, got 7"),
    (["slag", "--t", "1e-300"], "--t: |t| must lie in [1e-200, 1e+200], got 1e-300"),
    (["slag", "--t", "nan"], "--t: the vanishing cycle needs a finite t, got (nan+0j)"),
    (["hodge", "--d", "5", "--n", LONG],
     f"--n: ambient projective dimension n must lie in [3, 200], got {LONG_QUOTED}"),
    (["hodge", "--n", "4", "--d", LONG], f"--d: degree d must lie in [1, 300], got {LONG_QUOTED}"),
    (["metric", "--points", LONG, "--family", "cone"], f"--points: at most 32768 grid points, got {LONG_QUOTED}"),
    (["dwork", "--seed", "0", "--smooth-points", LONG], f"--smooth-points: at most 65536 points, got {LONG_QUOTED}"),
    (["slag", "--t", "1", "--resolution", LONG], f"--resolution: resolution must be <= 256, got {LONG_QUOTED}"),
    (["slag", "--resolution", "-" + LONG], "--resolution: resolution must be >= 8, got -9999999... (4001 characters)"),
    # the bookkeeping's refusals, named by the flags of the inputs they quote
    (["transition", "--betti", "0,-3,2", "--h11", "1", "--h21", "1", "--N", "1", "--k", "0", "--c", "1"],
     "--betti: inputs must be nonnegative, got b2=-3"),
    (["transition", "--h11", "-1", "--betti=-1,1,2", "--h21", "1", "--N", "1", "--k", "0", "--c", "1"],
     "--h11/--betti: inputs must be nonnegative, got h11=-1, b1=-1"),
    (["transition", "--N", "-1", "--h11", "1", "--h21", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     "--N: node count must split: N=-1, k+c=1"),
    (["transition", "--k", "2", "--h11", "1", "--h21", "1", "--N", "2", "--c", "0", "--betti", "0,5,2"],
     "--h11/--k: h11=1 < k=2: contraction would leave a negative Hodge number"),
    (["transition", "--k", "2", "--betti", "0,1,2", "--h11", "5", "--h21", "1", "--N", "2", "--c", "0"],
     "--betti/--k: b2=1 < k=2: contraction would leave a negative Betti number"),
    (["transition", "--h11", "-" + LONG, "--h21", "1", "--N", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     "--h11: inputs must be nonnegative, got h11=-9999999... (4001 characters)"),
    (["transition", "--h11", "1", "--N", LONG, "--h21", "1", "--k", "0", "--c", "1", "--betti", "0,1,2"],
     f"--N: node count must split: N={LONG_QUOTED}, k+c=1"),
    (["transition", "--h11", "1", "--k", LONG, "--h21", "1", "--N", LONG, "--c", "0", "--betti", "0,5,2"],
     f"--h11/--k: h11=1 < k={LONG_QUOTED}: contraction would leave a negative Hodge number"),
    # an output path that cannot be written
    (["hodge", "--n", "4", "--d", "5", "--output", "/nonexistent/x.json"],
     "--output: [Errno 2] No such file or directory: '/nonexistent/x.json'"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(argv)[:40] for argv, _ in REFUSALS])
def test_refusal_is_one_error_line(argv, message, tmp_path):
    out = tmp_path / "report.json"
    if "--output" not in argv:
        argv = argv + ["--output", str(out)]
    assert run(argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


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


# hodge at n = 200 takes 0.15-0.6 s from d = 3 on, so the top dimension is
# drawn with the two degrees that expand quickly (0.05-0.08 s)
HODGE = st.one_of(
    st.tuples(_count(3, 8, ["2"], ["1", "201"]), _count(1, 8, ["1", str(hodge.MAX_DEGREE)], ["0", "301"])),
    st.tuples(st.just(str(hodge.MAX_DIMENSION)), st.sampled_from(["1", "2"])),
).map(lambda nd: ["hodge", "--n", nd[0], "--d", nd[1]])

_MODULUS = st.floats(1e-3, 1e3)
T_TEXT = _flag(
    st.one_of(_MODULUS.map(repr), st.tuples(_MODULUS, st.floats(-360, 360)).map(lambda p: f"{p[0]!r}@{p[1]!r}")),
    ["1e-200", "1e200", "1@360", "-1@-360"],
    [repr(math.nextafter(1e-200, 0.0)), "1e201", "1@360.0001", "1e-201j"],
)
# the upper bound, 256, takes 0.8 s, so only the value past it is drawn
RESOLUTION = _flag(st.sampled_from(["10", "16"]), ["8"], ["7", "9", "257"])
SLAG = st.builds(lambda t, res: ["slag", "--t", t, "--resolution", res], T_TEXT, RESOLUTION)

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

ARGV = {"hodge": HODGE, "slag": SLAG, "transition": TRANSITION, "friedman": FRIEDMAN, "dwork": DWORK}


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_argv_is_answered_or_refused(command, data):
    argv = data.draw(ARGV[command], label="argv")
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        REPORT_VALIDATOR.validate(json.loads(out, parse_constant=_no_constant))
    assert run(argv) == (code, out, err)
