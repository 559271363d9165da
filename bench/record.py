"""Record the benchmark's end-to-end metrics into BENCH_<pr>.json, or compare two records.

    python3 bench/record.py --out BENCH_26.json                 # this tree, every workload
    python3 bench/record.py --root ../parent --out BENCH_25.json  # another source tree
    python3 bench/record.py --compare BENCH_25.json BENCH_26.json

Recording runs the unchanged ``perfbench/run.py --trace 0`` of the recorded
tree, from its root, once per workload and seed (at least five seeds), and
keeps each metric of BENCHMARK.json's ``end_to_end`` list as the median and
[q1, q3] of its runs, beside the runs themselves.  It also times each
acceptance criterion in process, a call of ``acceptance.run_criterion``,
over CRITERION_PASSES passes at the certify workload's profile, in a fresh
interpreter that imports the recorded tree, at the host's reference speed
as perfbench normalizes its own times.  The record also names the
machine, the Python and numpy versions, the commit, a digest of ``src/``
and its line count, in total and per module.  Comparing prints, for every
workload and metric, the ratio of the second record's median to the first's
and whether the change stays inside the metric's BENCHMARK.json bound, then
each workload's attempted and failed operations in both records; it exits 1
when a metric moves past its bound or a workload's failed share grows.  The
criterion times have no bound: their ratios are printed after, and then the
change in ``src/`` lines per module and in total, when both records count
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_SEEDS = 5
CRITERION_PASSES = 15


def quartiles(values: list[float]) -> dict:
    """Median and [q1, q3] of a metric's runs (the inclusive method, so that
    they stay inside the observed range)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """The record of one workload from the last stdout lines of its runs
    (``correct``, ``attempted``, ``failed`` and ``metrics``)."""
    summary = {name: quartiles([run["metrics"][name]["value"] for run in runs]) for name in metrics}
    return {
        "metrics": summary,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "runs": [{name: run["metrics"][name]["value"] for name in metrics} for run in runs],
    }


def compare(before: dict, after: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload recorded in both and metric: the ratio of the
    medians (after / before) and whether the change is inside the bound,
    that is, the metric is not worse by more than ``bound`` of its value."""
    rows = []
    for workload in (w for w in before["workloads"] if w in after["workloads"]):
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            old = before["workloads"][workload]["metrics"][name]["median"]
            new = after["workloads"][workload]["metrics"][name]["median"]
            ratio = new / old
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            rows.append({"workload": workload, "metric": name, "before": old, "after": new,
                         "ratio": ratio, "bound": bound, "inside": worse <= bound})
    return rows


def compare_failures(before: dict, after: dict) -> list[dict]:
    """One row per workload recorded in both that counts its operations in
    both: attempted and failed in each, and whether the failed share
    (failed / attempted) did not grow."""
    rows = []
    for workload in (w for w in before["workloads"] if w in after["workloads"]):
        old, new = before["workloads"][workload], after["workloads"][workload]
        if not all(key in rec for rec in (old, new) for key in ("attempted", "failed")):
            continue
        share = [rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0 for rec in (old, new)]
        rows.append({"workload": workload, "before": (old["attempted"], old["failed"]),
                     "after": (new["attempted"], new["failed"]), "inside": share[1] <= share[0]})
    return rows


def criterion_timings(passes: int) -> dict:
    """Median and [q1, q3] of each criterion's time in run_criterion over
    passes passes at perfbench's CERTIFY_PROFILE, after one warm-up pass, in
    seconds at the host's reference speed: perfbench's speedometer runs the
    certify workload's calibration kernel meanwhile, and each interval is
    netted and normalized as perfbench does its own.  It imports
    conifold_lab and perfbench's modules from sys.path; a criterion that
    fails raises, since its time would not be that of the certified work."""
    import speed
    from conifold_lab import acceptance
    from workloads import CERTIFY_PROFILE

    profile = acceptance.Profile(**CERTIFY_PROFILE)
    kernel = speed.WORKLOAD_KERNEL["certify"]
    meter = speed.Speedometer(kernel)
    intervals = {cid: [] for cid in sorted(acceptance.CRITERIA)}
    meter.start()
    try:
        for pass_index in range(passes + 1):
            for cid, spans in intervals.items():
                start = time.monotonic()
                result = acceptance.run_criterion(cid, profile)
                end = time.monotonic()
                if not result.passed:
                    raise RuntimeError(f"{cid} failed at the certify profile: {result.failures}")
                if pass_index:
                    spans.append((start, end))
    finally:
        meter.stop()

    def normalized(start, end):
        return speed.normalize(meter.samples, start, end, speed.net(meter.samples, start, end), speed.KERNELS[kernel][1])

    return {"passes": passes, "profile": CERTIFY_PROFILE, "kernel": kernel,
            "seconds": {cid: quartiles([normalized(*span) for span in spans]) for cid, spans in intervals.items()}}


def run_criterion_timings(root: Path, passes: int) -> dict:
    """criterion_timings in a fresh interpreter on the tree at root: its
    src/ and perfbench/ come first on the path, and perfbench's child
    environment (one BLAS thread) is set before numpy loads."""
    path = os.pathsep.join(str(p) for p in (root / "src", root / "perfbench", Path(__file__).resolve().parent))
    code = ("import json, os, pathlib, record, run; os.environ.update(run.child_env(pathlib.Path.cwd())); "
            f"print(json.dumps(record.criterion_timings({passes})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare_criteria(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """Each criterion timed in both records, with its median seconds in the
    first and in the second."""
    old, new = (rec.get("criteria", {}).get("seconds", {}) for rec in (before, after))
    return [(cid, old[cid]["median"], new[cid]["median"]) for cid in sorted(old.keys() & new.keys())]


def source_facts(root: Path) -> dict:
    """The commit (when the tree is a git checkout), a sha256 over the paths
    and bytes of the Python files under src/, and their line count, in total
    and per file (keyed by the path below src/)."""
    files = sorted((root / "src").rglob("*.py"))
    digest, module_lines = hashlib.sha256(), {}
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        module_lines[path.relative_to(root / "src").as_posix()] = data.count(b"\n")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False)
    return {"commit": commit.stdout.strip() if commit.returncode == 0 else None,
            "src_sha256": digest.hexdigest(), "src_lines": sum(module_lines.values()),
            "src_module_lines": module_lines}


def compare_source_lines(before: dict, after: dict) -> list[tuple[str, int, int]]:
    """Each module counted in either record, with its src/ lines in the first
    and in the second (0 where a record lacks it), then the total; empty when
    a record has no per-module counts."""
    old, new = (rec.get("source", {}).get("src_module_lines") for rec in (before, after))
    if old is None or new is None:
        return []
    rows = [(module, old.get(module, 0), new.get(module, 0)) for module in sorted(old.keys() | new.keys())]
    return rows + [("total", sum(old.values()), sum(new.values()))]


def machine() -> dict:
    """The host the record was made on, and the interpreter and numpy that ran it."""
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_benchmark(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run of the tree at root: its last stdout line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(root: Path, seeds: list[int]) -> dict:
    """Run every workload of the tree's BENCHMARK.json at every seed, for its
    run_seconds, and summarize; each run's metrics also go to stderr as it
    ends."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = [m["name"] for m in spec["end_to_end"]], spec["run_seconds"]
    result = {"machine": machine(), "source": source_facts(root), "seeds": seeds, "seconds": seconds,
              "criteria": run_criterion_timings(root, CRITERION_PASSES), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_benchmark(root, workload, seed, seconds))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{name} {runs[-1]['metrics'][name]['value']:.4g}" for name in metrics),
                  file=sys.stderr)
        result["workloads"][workload] = summarize(runs, metrics)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="source tree to record (default: .)")
    parser.add_argument("--out", type=Path, help="where to write the record")
    parser.add_argument("--seeds", default="1,2,3,4,5", help=f"comma-separated, at least {MIN_SEEDS}")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if args.compare:
        before, after = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
        rows = compare(before, after, spec["end_to_end"])
        for row in rows:
            verdict = "inside" if row["inside"] else "OUTSIDE"
            print(f"{row['workload']:17s} {row['metric']:12s} {row['before']:12.5g} -> {row['after']:12.5g}"
                  f"  x{row['ratio']:.3f}  {verdict} its bound {row['bound']}")
        failures = compare_failures(before, after)
        for row in failures:
            (old_attempted, old_failed), (new_attempted, new_failed) = row["before"], row["after"]
            verdict = "kept" if row["inside"] else "GREW"
            print(f"{row['workload']:17s} failed       {old_failed:6d} of {old_attempted:6d} -> {new_failed:6d} of "
                  f"{new_attempted:6d}  failed share {verdict}")
        for cid, old, new in compare_criteria(before, after):
            print(f"criterion {cid}    {old * 1e3:9.3f} ms -> {new * 1e3:9.3f} ms  x{new / old:.3f}")
        for module, old, new in compare_source_lines(before, after):
            print(f"src {module:30s} {old:6d} -> {new:6d}  {new - old:+d} lines")
        return 0 if all(row["inside"] for row in rows + failures) else 1

    if args.out is None:
        parser.error("give --out to record, or --compare BEFORE AFTER")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(set(seeds)) < MIN_SEEDS:
        parser.error(f"--seeds: need at least {MIN_SEEDS} distinct seeds, got {len(set(seeds))}")
    result = record(args.root.resolve(), seeds)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
