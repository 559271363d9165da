import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conifold_lab import cli, hodge, metrics, transitions


@pytest.fixture(scope="module")
def report_schema():
    with resources.files("conifold_lab").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(args + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestHodgeCommand:
    def test_quintic(self, tmp_path, report_schema):
        code, text = run_cli(["hodge", "--n", "4", "--d", "5"], tmp_path)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        assert report["results"]["h21"] == 101
        assert report["results"]["h11"] == 1
        assert report["schema"] == 1

    def test_k3(self, tmp_path):
        code, text = run_cli(["hodge", "--n", "3", "--d", "4"], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["h11"] == 20


class TestSlagCommand:
    def test_unit_parameter(self, tmp_path, report_schema):
        code, text = run_cli(["slag", "--t", "1", "--resolution", "32"], tmp_path)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        assert report["results"]["rel_error"] < 1e-4
        assert report["results"]["exact_re"] == pytest.approx(19.7392088, abs=1e-6)

    def test_polar_parameter_form(self, tmp_path):
        code, text = run_cli(["slag", "--t", "0.3@36", "--resolution", "8"], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["rel_error"] < 1e-4


class TestSignedParameter:
    """A --t value that starts with '-' and is not a plain negative number
    ('-0.5+0.2j', '-1e3j') is read as the value in both spellings."""

    @pytest.mark.parametrize("value", ["-0.5+0.2j", "-1e3j", "-0.3@36", "-2"])
    @pytest.mark.parametrize(
        "command",
        [["slag", "--resolution", "8"], ["metric", "--family", "smoothed", "--points", "5"]],
    )
    def test_separate_value_matches_attached(self, command, value, tmp_path):
        code, text = run_cli(command + ["--t", value], tmp_path, "separate.json")
        attached_code, attached = run_cli(command + [f"--t={value}"], tmp_path, "attached.json")
        assert code == attached_code == 0
        assert text == attached

class TestMetricCommand:
    def test_profile_csv(self, tmp_path):
        code, text = run_cli(
            ["metric", "--family", "resolved", "--a", "1", "--sweep", "profile",
             "--points", "10", "--format", "csv"],
            tmp_path, "sweep.csv",
        )
        assert code == 0
        lines = text.split("\n")
        assert lines[0] == "family,param,tau,f,fp,fpp,ode_residual,ma_residual,deviation"
        assert len([ln for ln in lines if ln]) == 11
        assert "\r" not in text
        # 17-significant-digit round trip
        first = lines[1].split(",")
        assert float(first[3]) == float(f"{float(first[3]):.17g}")

    def test_deviation_sweep(self, tmp_path):
        code, text = run_cli(
            ["metric", "--family", "smoothed", "--t", "1", "--sweep", "deviation",
             "--points", "5", "--format", "csv"],
            tmp_path, "dev.csv",
        )
        assert code == 0
        rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
        devs = [abs(float(r[-1])) for r in rows]
        assert devs == sorted(devs, reverse=True)

    def test_convergence_sweep(self, tmp_path):
        code, text = run_cli(
            ["metric", "--family", "resolved", "--sweep", "convergence",
             "--params", "1,0.5,0.25", "--points", "40"],
            tmp_path,
        )
        assert code == 0
        report = json.loads(text)
        assert report["assertions"][0]["passed"]

    @pytest.mark.parametrize("family,flag", [("resolved", "--a"), ("smoothed", "--t")])
    @pytest.mark.parametrize("end", [metrics.PARAMETER_MIN, metrics.PARAMETER_MAX])
    def test_every_sweep_is_finite_at_the_parameter_window_ends(self, family, flag, end, tmp_path):
        base = ["metric", "--family", family, flag, repr(end), "--points", "6"]
        for sweep in ("profile", "deviation", "residuals"):
            code, text = run_cli(base + ["--sweep", sweep], tmp_path)
            assert code == 0, sweep
            report = json.loads(text)
            cells = [x for row in report["results"]["rows"] for x in row[1:] if x != ""]
            assert len(cells) >= 6 * 7 and all(math.isfinite(x) for x in cells), sweep
        params = [end, end / 2] if end > 1 else [2 * end, end]
        argv = ["metric", "--family", family, "--sweep", "convergence", "--points", "6",
                "--params", ",".join(map(repr, params))]
        if family == "smoothed":  # a tau grid inside the domain, which starts at |t|
            argv += ["--tau-min", repr(2 * end), "--tau-max", repr(20 * end)]
        code, text = run_cli(argv, tmp_path)
        assert code in (0, 1)  # 1: the sups need not decrease this far out
        sups = json.loads(text)["results"]["sups"]
        assert len(sups) == 2 and all(math.isfinite(x) for x in sups)

    @pytest.mark.parametrize(
        "tau_min,tau_max,fmt",
        [("1.0000000001", "1.0000001", "csv"), ("1", "10", "json")],
        ids=["near-domain-minimum", "from-domain-minimum"],
    )
    def test_smoothed_grid_at_the_domain_minimum(self, tau_min, tau_max, fmt, tmp_path):
        """f'' stays finite down to tau = |t|, where it tends to
        -(2/3)^{1/3}/5 |t|^{-4/3}; every row is certified."""
        code, text = run_cli(
            ["metric", "--family", "smoothed", "--t", "1", "--tau-min", tau_min,
             "--tau-max", tau_max, "--points", "3", "--format", fmt],
            tmp_path,
        )
        assert code == 0
        if fmt == "csv":
            rows = [[float(x) for x in ln.split(",")[1:8]] for ln in text.strip().split("\n")[1:]]
        else:
            rows = [row[1:8] for row in json.loads(text)["results"]["rows"]]
        limit = -((2.0 / 3.0) ** (1.0 / 3.0)) / 5.0
        first = rows[0]
        assert abs(first[4] - limit) <= (1e-15 if tau_min == "1" else 1e-9) * abs(limit)
        for row in rows:
            assert all(math.isfinite(x) for x in row)
            assert row[5] < 1e-8 and row[6] < 1e-7

    def test_json_profile_has_assertions(self, tmp_path, report_schema):
        code, text = run_cli(
            ["metric", "--family", "smoothed", "--t", "1", "--points", "10"], tmp_path
        )
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        names = {a["name"] for a in report["assertions"]}
        assert {"ode_residual_max", "ma_residual_max"} <= names


class TestTransitionCommand:
    def test_catalog(self, tmp_path, report_schema):
        code, text = run_cli(["transition", "--catalog"], tmp_path)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        assert len(report["results"]["catalog"]) == 4

    def test_single_record(self, tmp_path):
        code, text = run_cli(
            ["transition", "--h11", "25", "--h21", "0", "--betti", "0,25,2",
             "--N", "125", "--k", "24", "--c", "101"],
            tmp_path,
        )
        assert code == 0
        report = json.loads(text)
        assert report["results"]["hodge_after"] == [1, 101]

class TestDworkCommand:
    def test_exact_and_smooth(self, tmp_path, report_schema):
        code, text = run_cli(["dwork", "--exact", "--smooth-points", "20"], tmp_path)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        assert report["results"]["count"] == 125
        assert report["results"]["exact_cyclotomic"] is True


class TestFriedmanCommand:
    def test_csv_input(self, tmp_path):
        csv_path = tmp_path / "classes.csv"
        csv_path.write_text("1,0\n0,1\n-1,-1\n")
        code, text = run_cli(["friedman", "--classes-csv", str(csv_path)], tmp_path)
        assert code == 0
        report = json.loads(text)
        assert report["results"]["feasible"] is True
        assert report["results"]["witness"] == ["1", "1", "1"]

    def test_rational_input(self, tmp_path):
        rows = '[["1/2","1/3"],["-1/2","2/3"],["0","-1"],["3","7/5"]]'
        code, text = run_cli(["friedman", "--classes-json", rows], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["witness"] == ["-22/5", "8/5", "1", "1"]

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 4], [1, 2], [-3, -6]],
            [[1, 0], [0, 1]],
            [[3, -5, 0], [0, 7, 1], [-3, -2, -1], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 2]],
            [[1 if j == i else 0 for j in range(14)] for i in range(14)] + [[-1] * 14],
        ],
        ids=["feasible-3x2", "infeasible-2x2", "feasible-4x3", "infeasible-4x3", "tian-yau"],
    )
    def test_entry_forms_give_one_report(self, rows, tmp_path):
        """The same class vectors as JSON integers, integral floats and
        integer strings, and all of them scaled by -7/2, as "p/q" strings
        and as integers where integral, give the same `results` block."""
        scaled = [[Fraction(-7, 2) * x for x in row] for row in rows]
        forms = [
            [[float(x) for x in row] for row in rows],
            [[str(x) for x in row] for row in rows],
            [[str(v) for v in row] for row in scaled],
            [[int(v) if v.denominator == 1 else str(v) for v in row] for row in scaled],
        ]
        code, text = run_cli(["friedman", "--classes-json", json.dumps(rows)], tmp_path, "int.json")
        assert code == 0
        want = json.loads(text)["results"]
        for form in forms:
            code, text = run_cli(["friedman", "--classes-json", json.dumps(form)], tmp_path, "form.json")
            assert code == 0
            assert json.loads(text)["results"] == want

    def test_json_input_infeasible(self, tmp_path):
        code, text = run_cli(["friedman", "--classes-json", "[[1, 0], [0, 1]]"], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["feasible"] is False

    @pytest.mark.parametrize("n,m", [(3, 2), (6, 3), (15, 14), (40, 10), (125, 24)])
    def test_reports_match_between_kernel_paths(self, n, m, tmp_path, monkeypatch):
        """The stacked integer solver and the Fraction kernel-basis oracle
        give byte-identical reports on a feasible and an infeasible class
        matrix."""
        rng = random.Random(n * m)
        lam = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n - 1)]
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n - 1)]
        feasible = rows + [[-sum(c * r[j] for c, r in zip(lam, rows)) for j in range(m)]]
        # one row alone is nonzero in the first column: infeasible
        infeasible = [[0] + row[1:] for row in feasible]
        infeasible[0][0] = 1
        solve = transitions.friedman_witnesses
        calls = []
        monkeypatch.setattr(transitions, "friedman_witnesses", lambda mats: calls.append(mats) or solve(mats))
        for rows, expected in ((feasible, True), (infeasible, False)):
            argv = ["friedman", "--classes-json", json.dumps(rows)]
            code, integer_text = run_cli(argv, tmp_path, "integer.json")
            assert code == 0 and calls
            assert json.loads(integer_text)["results"]["feasible"] is expected
            with monkeypatch.context() as patch:
                patch.setattr(
                    transitions, "friedman_witness", lambda classes: reference.kernel_basis_witness(classes.rows)
                )
                code, fraction_text = run_cli(argv, tmp_path, "fraction.json")
            assert code == 0
            assert integer_text == fraction_text


class TestFriedmanBounds:
    def test_witness_digits_at_the_bounds_fit_the_print_limit(self):
        """The witness digit bound of the README at MAX_CLASSES,
        MAX_AMBIENT_RANK and MAX_ENTRY_DIGITS, maximized over the rank,
        stays below the digits Python prints in an integer."""
        n, m, d = cli.MAX_CLASSES, cli.MAX_AMBIENT_RANK, cli.MAX_ENTRY_DIGITS
        worst = max(
            r * r * (d + math.log10(r) / 2) + math.log10(n - r) + (n - r - 1) * math.log10(n * (n - r) + 1)
            for r in range(1, min(m, n - 1) + 1)
        )
        assert worst < sys.get_int_max_str_digits()

    def test_largest_matrix_certifies_and_prints(self, tmp_path):
        """MAX_CLASSES random rows of length MAX_AMBIENT_RANK, half their
        entries at the largest MAX_ENTRY_DIGITS-digit magnitude: rank
        MAX_AMBIENT_RANK, feasible, and a witness of about 110-digit
        numerators and denominators, which prints and annihilates the rows
        with every entry nonzero."""
        rng = random.Random(1)
        top = 10**cli.MAX_ENTRY_DIGITS - 1
        rows = [
            [rng.choice((-top, top)) if rng.random() < 0.5 else rng.randint(-top, top)
             for _ in range(cli.MAX_AMBIENT_RANK)]
            for _ in range(cli.MAX_CLASSES)
        ]
        code, text = run_cli(["friedman", "--classes-json", json.dumps(rows)], tmp_path)
        assert code == 0
        results = json.loads(text)["results"]
        assert results["feasible"] is True
        witness = [Fraction(x) for x in results["witness"]]
        assert len(witness) == cli.MAX_CLASSES and all(witness)
        for j in range(cli.MAX_AMBIENT_RANK):
            assert sum(w * row[j] for w, row in zip(witness, rows)) == 0

class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        _, first = run_cli(["slag", "--t", "1j", "--resolution", "8", "--seed", "7"], tmp_path, "a.json")
        _, second = run_cli(["slag", "--t", "1j", "--resolution", "8", "--seed", "7"], tmp_path, "b.json")
        assert first == second

    def test_verify_subset_deterministic(self, tmp_path):
        args = ["verify-all", "--fast", "--criteria", "C01,C02,C10"]
        _, first = run_cli(args, tmp_path, "a.json")
        _, second = run_cli(args, tmp_path, "b.json")
        assert first == second

    def test_timings_flag_populates_field(self, tmp_path):
        _, text = run_cli(["slag", "--t", "1", "--resolution", "8", "--timings"], tmp_path)
        assert json.loads(text)["timings"] is not None
        _, text = run_cli(["slag", "--t", "1", "--resolution", "8"], tmp_path)
        assert json.loads(text)["timings"] is None


class TestGoldenReports:
    """The sha256 of reports of the benchmark's two heaviest exact requests,
    recorded from the per-point certificate and sampler and the gcd-reduced
    elimination, and of metric sweeps and a Hodge diamond: faster kernels and
    a faster report writer must give the same bytes."""

    @pytest.mark.parametrize("seed,digest", [
        (0, "03c401cda424941ab4ff17b161a53d664ade1d787b5b77b56d32c3c9ae128531"),
        (1, "04dc8b83b0a2adea638cea4f59820f09fd3022fd25e9094d01c2d95a1e0584e2"),
    ])
    def test_dwork(self, seed, digest, tmp_path):
        code, text = run_cli(["dwork", "--exact", "--smooth-points", "200", "--seed", str(seed)], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed,digest", [
        (0, "362672c5d0f675825b30bdf81fd4cc2ffba3e05d5e3e5e24b16f0b476e9ddef0"),
        (1, "f05c3be5d5ebd92dfabd926cbfb81d6795367562d1aee1bd757a969125e6371d"),
    ])
    def test_c12(self, seed, digest, tmp_path):
        """Pins C12's reductions of the double-point record: min_det_margin,
        node_det_closed_form and smooth_min_gradient."""
        code, text = run_cli(["verify-all", "--full", "--criteria", "C12", "--seed", str(seed)], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed,digest", [
        (0, "9b4bca78753cc73c96d0dc476854d51a3193010acb00a317c5fd478a45803145"),
        (1, "4014c33e9d72b8c7eed28ac52be796c7496dc0ba65821b2468ee8256b1871e32"),
    ])
    def test_c03_c11(self, seed, digest, tmp_path):
        """Recorded with the per-point resolved sampler, the full-rank oracle
        and the sorted-table gather: pins C03's residuals and C11's count."""
        argv = ["verify-all", "--full", "--criteria", "C03,C11", "--seed", str(seed)]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind,digest", [
        ("feasible", "af39b4b314835fa2342b9f1dc7b16e1016cec8a4461aa857e714af81aba0d886"),
        ("infeasible", "989bf9f8ac5c0eb2d321dc999e3c8f6bd0060e9a6a8839af2136d03703c42b58"),
    ])
    def test_friedman_125_by_24(self, kind, digest, tmp_path):
        workloads = reference.bench_workloads()
        if kind == "feasible":
            rows = workloads.feasible_classes(random.Random(0), 125, 24)
        else:
            rows, _ = workloads.infeasible_classes(random.Random(0), 125, 24)
        code, text = run_cli(["friedman", "--classes-json", json.dumps(rows)], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["feasible"] is (kind == "feasible")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # recorded with the stdlib's pure-Python indenting encoder and a per-row CSV
    # loop: the report layer must keep these bytes
    @pytest.mark.parametrize("argv,digest", [
        ("metric --family cone --sweep residuals",
         "867a258a702581e7daa283fd78e265782ccf840ba566ae7d995279ccf9ca8e4f"),
        ("metric --family cone --sweep deviation",
         "d283b57f4f3220f6f6b2369b1d65328678ca0f474498fc9ff457cd47a02929b2"),
        ("metric --family smoothed --t 0.7@40 --sweep residuals",
         "e7ef8d412adf45fd6dcf1fc4d0a65c6cf64e7cf5da4d46d6d96da49bf5f2ffcd"),
        ("metric --family smoothed --t 0.7@40 --sweep deviation",
         "f87a6e86290c06028f879ce1163f5999f05f09d3054b8257a1e91f09b16291d9"),
        ("metric --family resolved --a 1.7 --sweep residuals",
         "1f3b98112972e7414fe83cd6fe3c8846bd3fbd6a52386d1b77e714cc233d1220"),
        ("metric --family resolved --a 1.7 --sweep deviation",
         "a35129a0b71f8d1aad8b79110482aa2a77a06211bacd7fa684a66bbdcc57fb76"),
        ("metric --family smoothed --t 0.7@40 --sweep profile --format csv",
         "8dd5c1307da2fa80eb3624f23038dc16ffb6e2d61dc7b95896cb7050dbe121e8"),
    ])
    def test_metric_256_points(self, argv, digest, tmp_path):
        code, text = run_cli(argv.split() + ["--points", "256"], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt,digest", [
        ("json", "ff4e09b4f727f92abd4b2ed2386869799d400b40c14477891ce681bf90a2bb1d"),
        ("csv", "357d249c2d90a7e30d96c0791781d52fcc1e705c7832e254c7e1fb07e3168b27"),
    ])
    def test_metric_convergence(self, fmt, digest, tmp_path):
        argv = ["metric", "--family", "resolved", "--sweep", "convergence", "--params", "1,0.5,0.25,0.125",
                "--points", "200", "--format", fmt]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_hodge_48(self, tmp_path):
        code, text = run_cli(["hodge", "--n", "48", "--d", "49"], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ded4703ec61350bae59d4f4b9468b3ba9a984ea4b42d0e447878298a268eca16")

    # recorded with the quadrature that built every block as fresh products:
    # C07's t at 16 and 32, the benchmark's resolutions (48 ends on a partial
    # block of 6 rows), a theta1 row larger than BLOCK_NODES at 160, and the
    # ends of the |t| window
    @pytest.mark.parametrize("t,resolution,digest", [
        ("1", 16, "080d8db7360d9c7648dcf25233082cbe6d8e05b93e4a0b37f6bfa619278c0e95"),
        ("1j", 16, "0cd08245de8dbd9339902abe622dc8f5cae1f6f0a5e04f0c699368493005f0fe"),
        ("0.3@36", 16, "1957a30c4e604ec71df600ccc274440189b2026b278683e105da69fe4fb50565"),
        ("1", 32, "3576a37292d7a4417d580cfcfa8e95e92510f4bb68c3563b3c98be7a66acfe8f"),
        ("1j", 32, "34aa9fb76486adc38d6d6301f32fa3a9b8daab59215478d8efbf86b43ef58bc7"),
        ("0.3@36", 32, "dda9ae216e75fcb69f5bc419356a359cbe2eed565f474dd6a6d6b3d414e4e39e"),
        ("0.002@117", 48, "7ebe1f24f9382d94dab546ba28b8effa850ad0357d5b15381ff0c7efa1a0ed42"),
        ("7.5@-40", 80, "4dcf5268f6c224aa2a145c04e596d176eb31c5de0f0c37829d931180c2b0a212"),
        ("640@250", 96, "1c89e7677ef6c3313f8d581d1e1a63b35220b688a827faa2e7bebb7708ea5a4d"),
        ("1", 160, "1f3ccd26557516392dd20f6f2ebaad1bfec9fa1f80cdc01e5194d1e9e0b020ce"),
        ("1e-200@30", 32, "a9597029c14159c1c740aa37b1640bffc10012bdeb077eca96ad773a69315aaa"),
        ("1e200@-75", 32, "89c4ec6ff6549cfefb28fae0004a7641004370be6f6b7cdf456f46e9f77552a7"),
    ])
    def test_slag(self, t, resolution, digest, tmp_path):
        code, text = run_cli(["slag", "--t", t, "--resolution", str(resolution)], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _stdlib_outcome(value):
    """What json.dumps with the report's settings gives: its text, or the
    type and message of what it raises."""
    try:
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _encoder_outcome(value):
    try:
        return cli._to_json(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# strings that look like the encoder's own separators and row breaks
TRICKY_TEXT = ["],\n      [", "],\n  [", "\n", ",\n  ", "\u2028", '"', '\\"]', "[", "]", "{}", "é", "\x00", "😀"]
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63 - 2, max_value=2**70),
    FINITE_FLOATS, st.sampled_from([-0.0, 5e-324, 1e300, 0.1]), st.builds(np.float64, FINITE_FLOATS),
    st.text(), st.text(alphabet="[]{},:\n \"\\"), st.sampled_from(TRICKY_TEXT),
)
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY_TEXT))


def _json_values(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        st.lists(st.lists(leaves, min_size=1, max_size=4), min_size=1, max_size=4),  # rows
    ), max_leaves=30)


class TestReportEncoder:
    """cli._to_json against its oracle, the stdlib's pure-Python encoder:
    the same text, or the same exception with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(_json_values(SCALARS))
    def test_matches_json_dumps(self, value):
        assert _encoder_outcome(value) == _stdlib_outcome(value)

    @settings(max_examples=200, deadline=None)
    @given(_json_values(st.one_of(SCALARS, st.sampled_from(
        [math.nan, math.inf, -math.inf, np.float64(math.nan), np.int64(3)]))))
    def test_refuses_as_json_dumps(self, value):
        assert _encoder_outcome(value) == _stdlib_outcome(value)

    @pytest.mark.parametrize("value,name", [
        ([[1.0, 2.0], [3.0, math.nan]], "nan"), ({"rows": [[1.0], [-math.inf]]}, "-inf"),
        ({"a": {"b": [0.5, math.inf]}, "c": 1}, "inf"), (math.nan, "nan"),
        ([np.float64(math.nan)], "np.float64(nan)"),
    ])
    def test_non_finite_float_is_named(self, value, name):
        with pytest.raises(ValueError) as caught:
            cli._to_json(value)
        assert str(caught.value) == f"Out of range float values are not JSON compliant: {name}"

    @pytest.mark.parametrize("value", [[np.int64(1)], {"rows": [[1, 2], [np.int64(3), 4]]}])
    def test_numpy_integer_is_not_serializable(self, value):
        with pytest.raises(TypeError) as caught:
            cli._to_json(value)
        assert str(caught.value) == "Object of type int64 is not JSON serializable"

    @pytest.mark.parametrize("workload", ["potential_sweep", "exact_queries"])
    def test_benchmark_reports_are_the_stdlib_bytes(self, workload, capsys):
        """Every JSON report of the benchmark's round 0 at seed 1 is the
        stdlib's text of its own parse: floats survive the round trip, so
        this holds the encoder to the stdlib's bytes on that traffic."""
        checked = 0
        for op in reference.bench_workloads().ROUNDS[workload](1, 0):
            assert cli.main(list(op.argv)) == 0
            text = capsys.readouterr().out
            if "--format" in op.argv and op.argv[op.argv.index("--format") + 1] == "csv":
                continue
            assert json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=False) + "\n" == text
            checked += 1
        assert checked >= 8


class TestVerifyAll:
    def test_fast_profile_passes(self, tmp_path, report_schema, capsys):
        code, text = run_cli(["verify-all", "--fast"], tmp_path)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, report_schema)
        assert len(report["results"]["criteria"]) == 12
        assert all(c["passed"] for c in report["results"]["criteria"])
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 12
        assert all(" PASS " in line for line in lines)

    def test_criterion_filter(self, tmp_path):
        code, text = run_cli(["verify-all", "--fast", "--criteria", "C01"], tmp_path)
        assert code == 0
        assert len(json.loads(text)["results"]["criteria"]) == 1


class TestExitCodes:
    def test_assertion_failure_exits_one_and_names_assertion(self, tmp_path):
        # an unreachable tolerance turns the slag assertion red
        code, text = run_cli(
            ["slag", "--t", "1", "--resolution", "8", "--tol", "slag=1e-12"], tmp_path
        )
        assert code == 1
        failed = [a for a in json.loads(text)["assertions"] if not a["passed"]]
        assert failed and failed[0]["name"] == "rel_error"

    def test_internal_arithmetic_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        """Exit 2 means bad input (ValueError, OSError).  A ZeroDivisionError
        inside a subcommand is a fault, and it propagates like any other."""

        def broken(spec):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(hodge, "hodge_diamond", broken)
        with pytest.raises(ZeroDivisionError):
            cli.main(["hodge", "--n", "4", "--d", "5", "--output", str(tmp_path / "x")])


class TestCachedParser:
    """One parser serves every cli.main call in a process; no call may see
    state left by the one before."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_tolerances_do_not_carry_over(self, tmp_path):
        argv = ["slag", "--t", "1", "--resolution", "8"]
        code, text = run_cli(argv + ["--tol", "slag=1e-20"], tmp_path, "a.json")
        assert code == 1
        assert json.loads(text)["config"]["tol"] == ["slag=1e-20"]
        code, text = run_cli(argv, tmp_path, "b.json")
        assert code == 0
        assert json.loads(text)["config"]["tol"] is None

    def test_exclusive_profile_flags_reset(self, tmp_path):
        profiles = []
        for flag in ("--fast", "--full"):
            code, text = run_cli(["verify-all", flag, "--criteria", "C01"], tmp_path, f"{flag}.json")
            assert code == 0
            profiles.append(json.loads(text)["results"]["profile"])
        assert profiles == ["fast", "full"]

    def test_report_after_a_usage_error_matches_a_fresh_process(self, tmp_path):
        argv = ["transition", "--h11", "25", "--h21", "0", "--betti", "0,25,2",
                "--N", "125", "--k", "24", "--c", "101"]
        assert cli.main(["transition", "--h11", "25", "--output", str(tmp_path / "x")]) == 2
        assert cli.main(["transition", "--betti", "0,0"]) == 2
        code, in_process = run_cli(argv, tmp_path, "in_process.json")
        assert code == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        fresh = tmp_path / "fresh.json"
        subprocess.run([sys.executable, "-m", "conifold_lab.cli", *argv, "--output", str(fresh)],
                       check=True, env=dict(os.environ, PYTHONPATH=src))
        assert in_process == fresh.read_text()


class TestAcceptedInputs:
    def test_decimal_digits_of_any_script_are_a_seed(self, tmp_path):
        """A seed in Arabic-Indic digits reads as int() reads it: the same
        report as the ASCII seed."""
        _, arabic = run_cli(["dwork", "--smooth-points", "3", "--seed", "\u0663"], tmp_path, "a.json")
        _, ascii_ = run_cli(["dwork", "--smooth-points", "3", "--seed", "3"], tmp_path, "b.json")
        assert arabic and arabic == ascii_

    def test_metric_reads_its_tolerances(self, tmp_path):
        argv = ["metric", "--family", "cone", "--points", "3", "--tol", "ode=1e-20", "--tol", "ma=0.5"]
        code, text = run_cli(argv, tmp_path)
        report = json.loads(text)
        assert code == 1 and report["config"]["tolerances"] == {"ode": 1e-20, "ma": 0.5}
        assert [(a["name"], a["tolerance"]) for a in report["assertions"]] == [
            ("ode_residual_max", 1e-20), ("ma_residual_max", 0.5),
        ]

    @pytest.mark.parametrize("angle", ["360", "-360", "359.9999", "0"])
    def test_polar_angle_within_a_turn(self, angle, tmp_path):
        code, text = run_cli(["slag", "--t", f"1@{angle}", "--resolution", "8"], tmp_path)
        assert code == 0 and json.loads(text)["results"]["rel_error"] < 1e-4
