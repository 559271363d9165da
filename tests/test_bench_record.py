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


class TestPair:
    """record() over two trees, on synthetic runs and timings: each value
    names the tree that made it."""

    def _record_pair(self, monkeypatch, tmp_path):
        roots = [tmp_path / "parent", tmp_path / "change"]
        for root in roots:
            root.mkdir()
            (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
        calls = []

        def run_benchmark(root, workload, seed, seconds):
            calls.append((root.name, workload, seed))
            return _run({name: float(len(calls)) for name in METRICS}, attempted=10, failed=root.name == "change")

        def run_criterion_timings(root, passes):
            calls.append((root.name, "criteria", passes))
            samples = {cid: [float(len(calls))] * passes for cid in ("C01", "C02")}
            return {"passes": passes, "profile": {}, "kernel": "loop", "samples": samples,
                    "seconds": {cid: record.quartiles(v) for cid, v in samples.items()}}

        def run_query_timings(root, passes):
            self.queried.append(root.name)
            samples = {"hodge": [float(len(self.queried))] * passes}
            return {"passes": passes, "seed": 1, "kernel": "fraction", "requests": {"hodge": 7},
                    "samples": samples, "seconds": {"hodge": record.quartiles(samples["hodge"])}}

        def cold_start(root, argv):
            self.started.append((root.name, argv[0]))
            return float(len(self.started)), 10.0 * (root.name == "change") + 20.0

        def fixed_rounds_rss(root, workload, rounds):
            self.peaked.append((root.name, workload))
            return float(len(self.peaked)) + 100.0 * rounds

        self.queried, self.started, self.peaked = [], [], []
        monkeypatch.setattr(record, "cold_start", cold_start)
        monkeypatch.setattr(record, "fixed_rounds_rss", fixed_rounds_rss)
        monkeypatch.setattr(record, "tier1_counts", lambda root: {"passed": len(root.name), "failed": 0})
        monkeypatch.setattr(record, "run_benchmark", run_benchmark)
        monkeypatch.setattr(record, "run_criterion_timings", run_criterion_timings)
        monkeypatch.setattr(record, "run_query_timings", run_query_timings)
        monkeypatch.setattr(record, "source_facts", lambda root: {"root": root.name})
        return roots, calls

    def test_trees_alternate_per_workload_and_seed_and_per_round(self, monkeypatch, tmp_path):
        roots, calls = self._record_pair(monkeypatch, tmp_path)
        parent, change = record.record(roots, [1, 2, 3, 4, 5])
        first = ["parent", "change", "change", "parent", "parent", "change"]  # each goes first in turn
        passes = record.CRITERION_PASSES
        assert calls[:2 * record.CRITERION_ROUNDS] == [(tree, "criteria", passes) for tree in first]
        workloads = [w["name"] for w in SPEC["workloads"]]
        assert calls[2 * record.CRITERION_ROUNDS:] == [
            (tree, workload, seed) for workload in workloads for seed in range(1, 6)
            for tree in (("parent", "change") if seed % 2 else ("change", "parent"))]
        assert (parent["source"], change["source"]) == ({"root": "parent"}, {"root": "change"})

    def test_each_record_holds_only_its_own_trees_runs(self, monkeypatch, tmp_path):
        """The synthetic runs' values count the calls, and only the change's
        runs fail."""
        roots, calls = self._record_pair(monkeypatch, tmp_path)
        records = record.record(roots, [1, 2, 3, 4, 5])
        index = {tree: [i + 1 for i, call in enumerate(calls) if call[0] == tree and call[1] != "criteria"]
                 for tree in ("parent", "change")}
        timed = {tree: [i + 1 for i, call in enumerate(calls) if call[0] == tree and call[1] == "criteria"]
                 for tree in ("parent", "change")}
        for tree, rec in zip(("parent", "change"), records):
            runs = [run["setup_s"] for workload in rec["workloads"].values() for run in workload["runs"]]
            assert runs == index[tree]
            assert all(w["failed"] == (5 if tree == "change" else 0) for w in rec["workloads"].values())
            assert rec["criteria"]["passes"] == record.CRITERION_ROUNDS * record.CRITERION_PASSES
            assert rec["criteria"]["samples"]["C01"] == [float(i) for i in timed[tree] for _ in
                                                         range(record.CRITERION_PASSES)]
            assert rec["criteria"]["seconds"]["C01"] == record.quartiles(rec["criteria"]["samples"]["C01"])

    def test_request_timings_alternate_and_stay_with_their_tree(self, monkeypatch, tmp_path):
        """The synthetic request timings count the timing calls."""
        roots, _ = self._record_pair(monkeypatch, tmp_path)
        records = record.record(roots, [1, 2, 3, 4, 5])
        first = ["parent", "change", "change", "parent", "parent", "change"]
        assert self.queried == first[:2 * record.QUERY_ROUNDS]
        for tree, rec in zip(("parent", "change"), records):
            timed = [i + 1 for i, name in enumerate(self.queried) if name == tree]
            assert rec["queries"]["passes"] == record.QUERY_ROUNDS * record.QUERY_PASSES
            assert rec["queries"]["samples"]["hodge"] == [float(i) for i in timed for _ in range(record.QUERY_PASSES)]
            assert rec["queries"]["requests"] == {"hodge": 7}

    def test_cold_starts_alternate_request_by_request_and_tier1_counts_stay_with_their_tree(self, monkeypatch,
                                                                                            tmp_path):
        """The synthetic cold starts take the call count for seconds and a
        peak RSS of 20 MB (parent) or 30 MB (change)."""
        roots, _ = self._record_pair(monkeypatch, tmp_path)
        records = record.record(roots, [1, 2, 3, 4, 5])
        requests = list(record.COLD_REQUESTS)
        turns = [(name, tree) for turn, name in enumerate(requests * record.COLD_ROUNDS)
                 for tree in (("parent", "change") if turn % 2 == 0 else ("change", "parent"))]
        assert self.started == [(tree, record.COLD_REQUESTS[name][0]) for name, tree in turns]
        for tree, rec in zip(("parent", "change"), records):
            cold = rec["cold_start"]
            assert (cold["rounds"], cold["bytecode_caches"], cold["requests"]) == (
                record.COLD_ROUNDS, False, record.COLD_REQUESTS)
            for name in requests:
                calls = [float(i + 1) for i, turn in enumerate(turns) if turn == (name, tree)]
                assert cold["samples"][name]["seconds"] == calls
                assert cold["seconds"][name] == record.quartiles(calls)
                assert cold["peak_rss_mb"][name]["median"] == (30.0 if tree == "change" else 20.0)
            assert rec["tier1"] == {"passed": len(tree), "failed": 0}

    def test_fixed_round_children_alternate_workload_by_workload_and_stay_with_their_tree(self, monkeypatch,
                                                                                          tmp_path):
        """The synthetic peak RSS counts the calls, plus 100 MB a round."""
        roots, _ = self._record_pair(monkeypatch, tmp_path)
        records = record.record(roots, [1, 2, 3, 4, 5])
        names = [w["name"] for w in SPEC["workloads"]]
        turns = [(name, tree) for turn, name in enumerate(names * record.RSS_SAMPLES)
                 for tree in (("parent", "change") if turn % 2 == 0 else ("change", "parent"))]
        assert self.peaked == [(tree, name) for name, tree in turns]
        for tree, rec in zip(("parent", "change"), records):
            peaks = rec["fixed_rounds"]
            assert (peaks["rounds"], peaks["seed"]) == (record.RSS_ROUNDS, record.RSS_SEED)
            for name in names:
                calls = [i + 1 + 100.0 * record.RSS_ROUNDS for i, turn in enumerate(turns) if turn == (name, tree)]
                assert peaks["samples"][name] == calls
                assert peaks["peak_rss_mb"][name] == record.quartiles(calls)

    def test_pair_command_writes_both_records(self, monkeypatch, tmp_path):
        roots, calls = self._record_pair(monkeypatch, tmp_path)
        outs = tmp_path / "parent.json", tmp_path / "change.json"
        argv = ["--root", str(roots[1]), "--pair", str(roots[0]), "--out-parent", str(outs[0]), "--out", str(outs[1])]
        assert record.main(argv) == 0
        parent, change = (json.loads(out.read_text()) for out in outs)
        assert (parent["source"]["root"], change["source"]["root"]) == ("parent", "change")
        assert calls[0][0] == "parent" and calls[1][0] == "change"
        assert record.main(["--compare", *map(str, outs)]) == 1  # only the change's runs failed

    def test_pair_needs_both_flags(self, capsys):
        with pytest.raises(SystemExit):
            record.main(["--out", "unused.json", "--pair", "."])
        assert "--pair and --out-parent go together" in capsys.readouterr().err

    def test_a_tree_alone_with_bytecode_caches_is_warned(self, monkeypatch, tmp_path, capsys):
        roots, _ = self._record_pair(monkeypatch, tmp_path)
        outs = [str(tmp_path / "parent.json"), str(tmp_path / "change.json")]
        argv = ["--root", str(roots[1]), "--pair", str(roots[0]), "--out-parent", outs[0], "--out", outs[1]]
        for root in roots:
            (root / "src" / "pkg").mkdir(parents=True)
        assert not any(map(record.bytecode_caches, roots))
        (roots[1] / "src" / "pkg" / "__pycache__").mkdir()
        assert record.bytecode_caches(roots[1])
        assert record.main(argv) == 0
        err = capsys.readouterr().err
        assert f"warning: only {roots[1].resolve()} has src/**/__pycache__" in err
        (roots[0] / "src" / "__pycache__").mkdir()
        assert record.main(argv) == 0
        assert "warning" not in capsys.readouterr().err


class TestQueryTimings:
    KINDS = {"hodge": 7, "friedman": 5, "dwork": 1, "transition": 8, "catalog": 1}

    def test_seconds_per_round_of_every_request_kind(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        timings = record.query_timings(2)
        assert (timings["passes"], timings["seed"], timings["kernel"]) == (2, record.QUERY_SEED, "fraction")
        assert timings["requests"] == self.KINDS
        assert sorted(timings["samples"]) == sorted(timings["seconds"]) == sorted(self.KINDS)
        for kind, q in timings["seconds"].items():
            assert len(timings["samples"][kind]) == 2
            assert 0.0 < q["q1"] <= q["median"] <= q["q3"]

    def test_a_failing_request_is_refused(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from conifold_lab import hodge

        build = hodge.hodge_diamond

        def tampered(spec):
            diamond = build(spec)
            diamond.entries[0][0] = 2
            return diamond

        monkeypatch.setattr(hodge, "hodge_diamond", tampered)
        with pytest.raises(RuntimeError, match="a hodge request of round 0 failed"):
            record.query_timings(1)

    def test_a_fresh_interpreter_times_the_tree(self):
        timings = record.run_query_timings(ROOT, 2)
        assert timings["passes"] == 2 and timings["requests"] == self.KINDS

    def test_compare_prints_the_request_kinds_timed_in_both_records(self, tmp_path, capsys):
        def seconds(**medians):
            return {"seconds": {kind: {"median": m, "q1": m, "q3": m} for kind, m in medians.items()}}

        before = dict(_record({"exact_queries": TestCompare.BASE}), queries=seconds(hodge=0.008, dwork=0.007))
        after = dict(_record({"exact_queries": TestCompare.BASE}), queries=seconds(hodge=0.002, dwork=0.007))
        assert record.compare_timings(before, after, "queries") == [("dwork", 0.007, 0.007), ("hodge", 0.008, 0.002)]
        assert record.compare_timings(_record({"exact_queries": TestCompare.BASE}), after, "queries") == []
        paths = tmp_path / "before.json", tmp_path / "after.json"
        for path, rec in zip(paths, (before, after)):
            path.write_text(json.dumps(rec))
        assert record.main(["--compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METRICS) + 2
        assert lines[-1].split() == ["queries", "hodge", "8.000", "ms", "->", "2.000", "ms", "x0.250", "per", "round"]


class TestColdStart:
    def test_every_request_starts_in_a_fresh_interpreter(self):
        for name, argv in record.COLD_REQUESTS.items():
            seconds, peak_mb = record.cold_start(ROOT, argv)
            assert 0.0 < seconds < 30.0 and 1.0 < peak_mb < 500.0, name

    def test_a_refused_request_raises(self):
        with pytest.raises(RuntimeError, match="hodge --n 2 --d 5 exited with status 2"):
            record.cold_start(ROOT, ["hodge", "--n", "2", "--d", "5"])

    def test_peak_rss_tells_a_request_that_loads_numpy(self):
        """dwork loads numpy and hodge does not: the peak RSS of the child,
        not of its launcher, tells them apart."""
        hodge = max(record.cold_start(ROOT, record.COLD_REQUESTS["hodge"])[1] for _ in range(2))
        dwork = min(record.cold_start(ROOT, record.COLD_REQUESTS["dwork"])[1] for _ in range(2))
        assert hodge + 5.0 < dwork

    def test_compare_prints_each_request_started_in_both_records(self, tmp_path, capsys):
        def cold(cached, **medians):
            return {"bytecode_caches": cached,
                    "seconds": {name: {"median": s, "q1": s, "q3": s} for name, (s, _) in medians.items()},
                    "peak_rss_mb": {name: {"median": m, "q1": m, "q3": m} for name, (_, m) in medians.items()}}

        base = _record({"exact_queries": TestCompare.BASE})
        before = dict(base, cold_start=cold(False, hodge=(0.2, 32.0), dwork=(0.2, 33.0)),
                      tier1={"passed": 9, "failed": 1})
        after = dict(base, cold_start=cold(True, hodge=(0.08, 16.0)), tier1={"passed": 10, "failed": 0})
        assert record.compare_cold_start(before, after) == [("hodge", 0.2, 0.08, 32.0, 16.0)]
        assert record.compare_cold_start(base, after) == []
        paths = tmp_path / "before.json", tmp_path / "after.json"
        for path, rec in zip(paths, (before, after)):
            path.write_text(json.dumps(rec))
        assert record.main(["--compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METRICS) + 3
        assert lines[-3].split() == ["cold", "start", "hodge", "200.0", "ms", "->", "80.0", "ms", "x0.400",
                                     "peak", "RSS", "32.0", "MB", "->", "16.0", "MB", "x0.500"]
        assert lines[-2].startswith("cold start bytecode caches under src/: False -> True")
        assert lines[-1].split() == ["tier-1", "passed", "9", "->", "10,", "failed", "1", "->", "0"]


class TestTier1:
    def test_counts_of_a_synthetic_tree(self, tmp_path):
        """Two tests pass, one fails and one module does not import: an
        error counts as failed, and the run goes on past it."""
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_a.py").write_text("def test_a():\n    pass\n\n\ndef test_b():\n    pass\n\n\n"
                                                     "def test_c():\n    assert 1 == 2\n")
        (tmp_path / "tests" / "test_b.py").write_text("import a_module_that_does_not_exist\n")
        counts = record.tier1_counts(tmp_path)
        assert (counts["passed"], counts["failed"]) == (2, 2)
        assert counts["command"] == "python -m pytest -q --continue-on-collection-errors"
        assert "1 failed, 2 passed, 1 error" in counts["summary"]


class TestFixedRounds:
    def test_a_failed_operation_raises(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from conifold_lab import hodge

        build = hodge.hodge_diamond

        def tampered(spec):
            diamond = build(spec)
            diamond.entries[0][0] = 2
            return diamond

        monkeypatch.setattr(hodge, "hodge_diamond", tampered)
        with pytest.raises(RuntimeError, match="a hodge operation of round 0 failed"):
            record.fixed_rounds("exact_queries", 1)

    def test_a_fresh_interpreter_runs_the_rounds(self):
        """The child's own peak, above numpy's import: more than the launcher's."""
        assert 20.0 < record.fixed_rounds_rss(ROOT, "cycle_quadrature", 1) < 500.0

    def test_an_unknown_workload_raises(self):
        with pytest.raises(RuntimeError, match="1 rounds of nothing exited with status 1"):
            record.fixed_rounds_rss(ROOT, "nothing", 1)

    def test_compare_prints_each_workload_over_the_same_rounds(self, tmp_path, capsys):
        def peaks(rounds, **medians):
            return {"rounds": rounds, "peak_rss_mb": {w: {"median": m, "q1": m, "q3": m} for w, m in medians.items()}}

        base = _record({"potential_sweep": TestCompare.BASE})
        before = dict(base, fixed_rounds=peaks(20, potential_sweep=40.0, certify=46.0))
        after = dict(base, fixed_rounds=peaks(20, potential_sweep=41.0))
        assert record.compare_rss(before, after) == [("potential_sweep", 40.0, 41.0)]
        assert record.compare_rss(before, dict(base, fixed_rounds=peaks(10, potential_sweep=41.0))) == []
        assert record.compare_rss(base, after) == record.compare_rss(base, base) == []
        paths = tmp_path / "before.json", tmp_path / "after.json"
        for path, rec in zip(paths, (before, after)):
            path.write_text(json.dumps(rec))
        assert record.main(["--compare", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(METRICS) + 1
        assert lines[-1].split() == ["fixed", "rounds", "potential_sweep", "peak", "RSS", "40.0", "MB", "->", "41.0",
                                     "MB", "x1.025", "over", "20", "rounds"]
