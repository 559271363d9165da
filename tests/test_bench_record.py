"""bench/record.py's summary and comparison, on synthetic benchmark runs:
no benchmark child is started here."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def _load_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _load_record()


def _run(values: dict, attempted: int = 100, failed: int = 0) -> dict:
    """The last stdout line of one perfbench/run.py run."""
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()}}


def _record(workload_medians: dict) -> dict:
    """A record whose every metric of each workload has the given median."""
    return {"workloads": {w: {"metrics": {name: {"median": v[name], "q1": v[name], "q3": v[name]}
                                          for name in METRICS}} for w, v in workload_medians.items()}}


class TestSummary:
    def test_median_and_quartiles_of_five_runs(self):
        runs = [_run({name: float(x) for name in METRICS}, attempted=10 * x, failed=x == 5) for x in (5, 1, 4, 2, 3)]
        summary = record.summarize(runs, METRICS)
        for name in METRICS:
            assert summary["metrics"][name] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert summary["runs"][0] == {name: 5.0 for name in METRICS}
        assert (summary["attempted"], summary["failed"]) == (150, 1)

    def test_quartiles_interpolate_between_runs(self):
        assert record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == {"median": 3.5, "q1": 2.25, "q3": 4.75}

    def test_a_missing_metric_is_an_error(self):
        with pytest.raises(KeyError):
            record.summarize([_run({"setup_s": 1.0})] * 5, METRICS)


class TestCompare:
    BASE = {"setup_s": 0.20, "peak_rss_mb": 40.0, "op_p50_ms": 1.0, "work_per_s": 100.0}

    def test_ratios_and_bounds(self):
        """Lower-is-better metrics may grow by their bound, higher-is-better
        ones shrink by it: exactly at the bound is inside, past it is not."""
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        after = {
            "setup_s": self.BASE["setup_s"] * (1 + bounds["setup_s"]),
            "peak_rss_mb": self.BASE["peak_rss_mb"] * (1 + bounds["peak_rss_mb"] + 0.01),
            "op_p50_ms": self.BASE["op_p50_ms"] * 0.5,
            "work_per_s": self.BASE["work_per_s"] * (1 - bounds["work_per_s"] - 0.01),
        }
        rows = record.compare(_record({"exact_queries": self.BASE}), _record({"exact_queries": after}),
                              SPEC["end_to_end"])
        verdicts = {row["metric"]: (round(row["ratio"], 6), row["inside"]) for row in rows}
        assert verdicts == {
            "setup_s": (round(1 + bounds["setup_s"], 6), True),
            "peak_rss_mb": (round(1 + bounds["peak_rss_mb"] + 0.01, 6), False),
            "op_p50_ms": (0.5, True),
            "work_per_s": (round(1 - bounds["work_per_s"] - 0.01, 6), False),
        }

    def test_only_workloads_in_both_records(self):
        before = _record({"certify": self.BASE, "exact_queries": self.BASE})
        after = _record({"exact_queries": dict(self.BASE, work_per_s=125.0)})
        rows = record.compare(before, after, SPEC["end_to_end"])
        assert {row["workload"] for row in rows} == {"exact_queries"}
        gain = next(row for row in rows if row["metric"] == "work_per_s")
        assert gain["ratio"] == pytest.approx(1.25) and gain["inside"]

    def test_compare_command_prints_and_exits_on_the_bounds(self, tmp_path, capsys):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        before.write_text(json.dumps(_record({"certify": self.BASE})))
        after.write_text(json.dumps(_record({"certify": dict(self.BASE, op_p50_ms=2.0)})))
        assert record.main(["--compare", str(before), str(before)]) == 0
        assert record.main(["--compare", str(before), str(after)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * len(METRICS)
        assert any("op_p50_ms" in line and "x2.000" in line and "OUTSIDE" in line for line in lines)


class TestFailures:
    def _counted(self, counts: dict) -> dict:
        """A record at TestCompare.BASE whose workloads made the given
        (attempted, failed) operations."""
        rec = _record({workload: TestCompare.BASE for workload in counts})
        for workload, (attempted, failed) in counts.items():
            rec["workloads"][workload].update(attempted=attempted, failed=failed)
        return rec

    def test_a_growing_failed_share_is_outside(self):
        before = self._counted({"certify": (100, 0), "exact_queries": (200, 2)})
        same_share = self._counted({"certify": (150, 0), "exact_queries": (400, 4)})
        grown = self._counted({"certify": (150, 0), "exact_queries": (400, 5)})
        assert record.compare_failures(before, same_share) == [
            {"workload": "certify", "before": (100, 0), "after": (150, 0), "inside": True},
            {"workload": "exact_queries", "before": (200, 2), "after": (400, 4), "inside": True},
        ]
        assert [row["inside"] for row in record.compare_failures(before, grown)] == [True, False]
        assert [row["inside"] for row in record.compare_failures(grown, before)] == [True, True]
        # a workload that attempted nothing failed no share of its operations
        assert record.compare_failures(self._counted({"certify": (0, 0)}), self._counted({"certify": (10, 1)}))[0][
            "inside"] is False
        # records without the counts, and workloads in one record only, give no row
        assert record.compare_failures(_record({"certify": TestCompare.BASE}), before) == []
        assert record.compare_failures(self._counted({"certify": (1, 0)}), self._counted({"dwork": (1, 1)})) == []

    def test_compare_command_prints_both_counts_and_exits_on_a_growing_share(self, tmp_path, capsys):
        paths = tmp_path / "before.json", tmp_path / "same.json", tmp_path / "grown.json"
        for path, counts in zip(paths, ((200, 2), (400, 4), (400, 5))):
            path.write_text(json.dumps(self._counted({"exact_queries": counts})))
        assert record.main(["--compare", str(paths[0]), str(paths[1])]) == 0
        assert record.main(["--compare", str(paths[0]), str(paths[2])]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * (len(METRICS) + 1)
        assert lines[len(METRICS)].split() == [
            "exact_queries", "failed", "2", "of", "200", "->", "4", "of", "400", "failed", "share", "kept"]
        assert lines[-1].split()[-6:] == ["5", "of", "400", "failed", "share", "GREW"]


class TestSource:
    def test_digest_and_line_count_of_src(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "src" / "pkg" / "b.txt").write_text("not python\n")
        (tmp_path / "src" / "pkg" / "sub").mkdir()
        (tmp_path / "src" / "pkg" / "sub" / "c.py").write_text("z = 3\n")
        facts = record.source_facts(tmp_path)
        assert facts["src_lines"] == 3 and facts["commit"] is None
        assert facts["src_module_lines"] == {"pkg/a.py": 2, "pkg/sub/c.py": 1}
        (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 3\n")
        assert record.source_facts(tmp_path)["src_sha256"] != facts["src_sha256"]

    def test_compare_prints_the_line_change_per_module_and_in_total(self, tmp_path, capsys):
        """A module in one record only counts 0 lines in the other; records
        without per-module counts, as older ones are, print no line rows."""
        base = _record({"certify": TestCompare.BASE})
        before = dict(base, source={"src_lines": 300, "src_module_lines": {"pkg/a.py": 290, "pkg/b.py": 10}})
        after = dict(base, source={"src_lines": 275, "src_module_lines": {"pkg/a.py": 255, "pkg/c.py": 20}})
        assert record.compare_source_lines(before, after) == [
            ("pkg/a.py", 290, 255), ("pkg/b.py", 10, 0), ("pkg/c.py", 0, 20), ("total", 300, 275),
        ]
        assert record.compare_source_lines(base, after) == record.compare_source_lines(before, base) == []
        assert record.compare_source_lines(dict(base, source={"src_lines": 300}), after) == []
        paths = tmp_path / "before.json", tmp_path / "after.json"
        for path, rec in zip(paths, (before, after)):
            path.write_text(json.dumps(rec))
        assert record.main(["--compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METRICS) + 4
        assert lines[-4].split() == ["src", "pkg/a.py", "290", "->", "255", "-35", "lines"]
        assert lines[-1].split() == ["src", "total", "300", "->", "275", "-25", "lines"]

    def test_too_few_seeds_are_refused(self, capsys):
        with pytest.raises(SystemExit):
            record.main(["--out", "unused.json", "--seeds", "1,2,3,4,4"])
        assert "at least 5 distinct seeds" in capsys.readouterr().err


class TestCriterionTimings:
    CIDS = [f"C{i:02d}" for i in range(1, 13)]

    def test_quartiles_of_every_criterion_at_the_certify_profile(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import CERTIFY_PROFILE

        timings = record.criterion_timings(3)
        assert (timings["passes"], timings["profile"], timings["kernel"]) == (3, CERTIFY_PROFILE, "loop")
        assert sorted(timings["seconds"]) == self.CIDS
        for q in timings["seconds"].values():
            assert 0.0 < q["q1"] <= q["median"] <= q["q3"]

    def test_a_failing_criterion_is_refused(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from conifold_lab import acceptance

        def broken(profile):
            raise ValueError("no answer")

        monkeypatch.setitem(acceptance.CRITERIA, "C02", broken)
        with pytest.raises(RuntimeError, match=r"C02 failed at the certify profile: \['ValueError: no answer'\]"):
            record.criterion_timings(1)

    def test_a_fresh_interpreter_times_the_tree(self):
        timings = record.run_criterion_timings(ROOT, 2)
        assert timings["passes"] == 2 and sorted(timings["seconds"]) == self.CIDS

    def test_compare_prints_the_criteria_timed_in_both_records(self, tmp_path, capsys):
        base = {"setup_s": 0.20, "peak_rss_mb": 40.0, "op_p50_ms": 1.0, "work_per_s": 100.0}

        def seconds(**medians):
            return {"seconds": {cid: {"median": m, "q1": m, "q3": m} for cid, m in medians.items()}}

        before = dict(_record({"certify": base}), criteria=seconds(C07=0.002, C11=0.01))
        after = dict(_record({"certify": base}), criteria=seconds(C07=0.001, C12=0.006))
        assert record.compare_criteria(before, after) == [("C07", 0.002, 0.001)]
        assert record.compare_criteria(_record({"certify": base}), after) == []
        paths = tmp_path / "before.json", tmp_path / "after.json"
        for path, rec in zip(paths, (before, after)):
            path.write_text(json.dumps(rec))
        assert record.main(["--compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METRICS) + 1
        assert lines[-1].startswith("criterion C07") and lines[-1].endswith("x0.500")
