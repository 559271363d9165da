import json
import random
from importlib import resources

import jsonschema
import pytest

import reference
from conifold_lab import cli, transitions


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

    def test_empty_grid_is_usage_error(self, tmp_path):
        code = cli.main(
            ["metric", "--family", "cone", "--points", "0", "--output", str(tmp_path / "x")]
        )
        assert code == 2

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

    def test_missing_arguments_is_usage_error(self, tmp_path):
        code = cli.main(["transition", "--h11", "25", "--output", str(tmp_path / "x")])
        assert code == 2

    def test_inconsistent_counts_rejected(self, tmp_path):
        code = cli.main(
            ["transition", "--h11", "25", "--h21", "0", "--betti", "0,25,2",
             "--N", "5", "--k", "1", "--c", "1", "--output", str(tmp_path / "x")]
        )
        assert code == 2


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

    def test_json_input_infeasible(self, tmp_path):
        code, text = run_cli(["friedman", "--classes-json", "[[1, 0], [0, 1]]"], tmp_path)
        assert code == 0
        assert json.loads(text)["results"]["feasible"] is False

    @pytest.mark.parametrize(
        "classes", ["[[0.5]]", "[1,2]", "[[[1]]]", '[[{"a":1}]]', '[["1j", "1"]]'],
        ids=["inexact", "flat", "nested", "object", "complex"],
    )
    def test_malformed_json_is_usage_error(self, classes, tmp_path, capsys):
        code = cli.main(["friedman", "--classes-json", classes, "--output", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n,m", [(3, 2), (6, 3), (15, 14), (40, 10), (125, 24)])
    def test_reports_match_between_kernel_paths(self, n, m, tmp_path, monkeypatch):
        """The integer elimination and the Fraction reference elimination give
        byte-identical reports on a feasible and an infeasible class matrix."""
        rng = random.Random(n * m)
        lam = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n - 1)]
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n - 1)]
        feasible = rows + [[-sum(c * r[j] for c, r in zip(lam, rows)) for j in range(m)]]
        # one row alone is nonzero in the first column: infeasible
        infeasible = [[0] + row[1:] for row in feasible]
        infeasible[0][0] = 1
        integer_rref = transitions._integer_rref
        calls = []
        monkeypatch.setattr(
            transitions, "_integer_rref", lambda *a: calls.append(a) or integer_rref(*a)
        )
        for rows, expected in ((feasible, True), (infeasible, False)):
            argv = ["friedman", "--classes-json", json.dumps(rows)]
            code, integer_text = run_cli(argv, tmp_path, "integer.json")
            assert code == 0 and calls
            assert json.loads(integer_text)["results"]["feasible"] is expected
            with monkeypatch.context() as patch:
                patch.setattr(transitions, "_kernel_basis", reference.fraction_kernel_basis)
                code, fraction_text = run_cli(argv, tmp_path, "fraction.json")
            assert code == 0
            assert integer_text == fraction_text


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

    def test_unknown_criterion_is_usage_error(self, tmp_path):
        code = cli.main(["verify-all", "--criteria", "C99", "--output", str(tmp_path / "x")])
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_tolerance_syntax(self, capsys):
        assert cli.main(["slag", "--t", "1", "--tol", "oops"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_negative_smooth_point_count(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["dwork", "--smooth-points", "-5"])
        assert err.value.code == 2
        assert "--smooth-points: expected an integer >= 0, got '-5'" in capsys.readouterr().err

    def test_betti_needs_three_numbers(self, capsys):
        argv = ["transition", "--h11", "2", "--h21", "1", "--N", "1", "--k", "1", "--c", "0"]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--betti", "0,0"])
        assert err.value.code == 2
        assert "--betti: expected three comma-separated integers b1,b2,b3, got '0,0'" in (
            capsys.readouterr().err
        )
