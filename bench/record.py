"""Record the benchmark's end-to-end metrics into BENCH_<pr>.json, or compare two records.

    python3 bench/record.py --out BENCH_26.json                 # this tree, every workload
    python3 bench/record.py --root ../parent --out BENCH_25.json  # another source tree
    python3 bench/record.py --pair ../parent --out-parent BENCH_25.json --out BENCH_26.json
    python3 bench/record.py --compare BENCH_25.json BENCH_26.json

Recording runs the unchanged ``perfbench/run.py --trace 0`` of the recorded
tree, from its root, once per workload and seed (at least five seeds), and
keeps each metric of BENCHMARK.json's ``end_to_end`` list as the median and
[q1, q3] of its runs, beside the runs themselves.  It also times each
acceptance criterion in process, a call of ``acceptance.run_criterion``,
over CRITERION_ROUNDS rounds of CRITERION_PASSES passes at the certify
workload's profile, each round in a fresh interpreter that imports the
recorded tree, at the host's reference speed as perfbench normalizes its
own times.  In the same way it times each request kind of the
exact_queries workload (hodge, friedman, dwork, transition, catalog), the
seconds per round over QUERY_ROUNDS rounds of QUERY_PASSES workload rounds.
It starts the smallest accepted request of each subcommand (COLD_REQUESTS)
COLD_ROUNDS times in a fresh interpreter, as the ``conifold-lab`` script
starts it, and keeps its wall time and peak RSS, read through a small
launcher's ``os.wait4`` (a child's ru_maxrss counts its parent's peak
too), beside whether the tree holds bytecode caches under src/; the
children write none.  For each workload it reads, through the same
launcher, the peak RSS of RSS_SAMPLES fresh children that each run the
workload's warm-up and RSS_ROUNDS rounds at RSS_SEED as perfbench's child
runs them: a fixed amount of work, where perfbench's peak_rss_mb grows
with the operations a run completes.  Last, it runs the tier-1 tests once
per tree and keeps their passed and failed counts.
``--pair`` records two trees in one interleaved sequence: for each workload
and seed, and for each round of criterion or request timings, it runs both
trees back to back, the parent first at the first seed and round and then
each tree first in turn (parent, change, change, parent, ...), so that
drift of the host falls on both records alike (the cold starts alternate
request by request, the fixed-round children workload by workload), and
it warns when only one tree holds bytecode caches under src/.  Each
record holds only its own tree's runs, in the format of a single
recording.  The record also
names the machine, the Python and numpy versions, the commit, a digest of
``src/`` and its line count, in total and per module.  Comparing prints,
for every workload and metric, the ratio of the second record's median to
the first's and whether the change stays inside the metric's BENCHMARK.json
bound, then each workload's attempted and failed operations in both
records; it exits 1 when a metric moves past its bound or a workload's
failed share grows.  The criterion and request times, the cold starts
and the fixed-round peak RSS have no bound: their ratios are printed
after, then the tier-1 counts and the change in ``src/`` lines per module
and in total, when both records hold them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_SEEDS = 5
CRITERION_ROUNDS, CRITERION_PASSES = 3, 5
QUERY_ROUNDS, QUERY_PASSES, QUERY_SEED = 3, 40, 1
COLD_ROUNDS = 10
RSS_SAMPLES, RSS_ROUNDS, RSS_SEED = 5, 20, 1
# the smallest accepted request of each subcommand
COLD_REQUESTS = {
    "hodge": ["hodge", "--n", "3", "--d", "1"],
    "metric": ["metric", "--family", "cone", "--points", "1"],
    "slag": ["slag", "--resolution", "8"],
    "transition": ["transition", "--h11", "0", "--h21", "0", "--N", "0", "--k", "0", "--c", "0"],
    "dwork": ["dwork"],
    "friedman": ["friedman", "--classes-json", "[[1]]"],
    "verify-all": ["verify-all", "--fast", "--criteria", "C01"],
}
# what the conifold-lab console script runs
SCRIPT = "import sys; from conifold_lab.cli import main; sys.exit(main())"
# starts its arguments as a child and prints the child's exit code, wall seconds and own peak RSS (KiB)
LAUNCHER = ("import json, os, subprocess, sys, time; start = time.perf_counter(); "
            "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
            "_, status, usage = os.wait4(child.pid, 0); "
            "print(json.dumps([os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss]))")
# the ROADMAP's tier-1 command, run from the root of a tree with its src/ first on PYTHONPATH
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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

    samples = {cid: [normalized(*span) for span in spans] for cid, spans in intervals.items()}
    return {"passes": passes, "profile": CERTIFY_PROFILE, "kernel": kernel,
            "seconds": {cid: quartiles(values) for cid, values in samples.items()}, "samples": samples}


def merged_timings(rounds: list[dict]) -> dict:
    """One tree's criterion timings over rounds of passes: the quartiles of
    every pass's seconds, beside them."""
    samples = {cid: [x for timings in rounds for x in timings["samples"][cid]] for cid in rounds[0]["samples"]}
    return dict(rounds[0], passes=sum(timings["passes"] for timings in rounds), samples=samples,
                seconds={cid: quartiles(values) for cid, values in samples.items()})


def query_timings(passes: int) -> dict:
    """Median and [q1, q3] of the seconds each request kind of the
    exact_queries workload takes in one round, summed over the round's
    requests of that kind, over rounds 0..passes-1 at QUERY_SEED, after the
    workload's warm-up.  Each request runs as perfbench's child runs it,
    through ``cli.main`` with its report checked by perfbench's oracles, and
    its time is netted and normalized by the workload's kernel as the child
    does.  It imports conifold_lab and perfbench's modules from sys.path; a
    request that fails raises."""
    import child
    import conifold_lab.acceptance
    import conifold_lab.cli
    import speed
    import workloads

    runner, records = child.Runner(conifold_lab), []
    runner.run_round(workloads.warmup_ops("exact_queries"), [], "warmup")
    kernel = speed.WORKLOAD_KERNEL["exact_queries"]
    meter = speed.Speedometer(kernel)
    meter.start()
    try:
        for index in range(passes):
            runner.run_round(workloads.exact_queries_round(QUERY_SEED, index), records, "run", index)
    finally:
        meter.stop()
    samples, requests = {}, {}
    for rec in records:
        if rec["failures"]:
            raise RuntimeError(f"a {rec['kind']} request of round {rec['round']} failed: {rec['failures']}")
        seconds = speed.net(meter.samples, rec["start"], rec["end"])
        samples.setdefault(rec["kind"], [0.0] * passes)[rec["round"]] += speed.normalize(
            meter.samples, rec["start"], rec["end"], seconds, speed.KERNELS[kernel][1])
        requests[rec["kind"]] = requests.get(rec["kind"], 0) + (rec["round"] == 0)
    return {"passes": passes, "seed": QUERY_SEED, "kernel": kernel, "requests": requests,
            "seconds": {kind: quartiles(values) for kind, values in samples.items()}, "samples": samples}


def fixed_rounds(workload: str, rounds: int) -> None:
    """Run the workload's warm-up and rounds 0..rounds-1 at RSS_SEED through
    perfbench's child.Runner, which keeps a record per operation as in a
    benchmark run, with the modules its child imports.  It imports
    conifold_lab and perfbench's modules from sys.path; a failed operation
    raises."""
    import child
    import conifold_lab.acceptance
    import conifold_lab.cli
    import workloads

    runner, records = child.Runner(conifold_lab), []
    runner.run_round(workloads.warmup_ops(workload), records, "warmup")
    for index in range(rounds):
        runner.run_round(workloads.ROUNDS[workload](RSS_SEED, index), records, "run", index)
    failed = next((rec for rec in records if rec["failures"]), None)
    if failed is not None:
        raise RuntimeError(f"a {failed['kind']} operation of round {failed['round']} failed: {failed['failures']}")


def tree_command(root: Path, call: str) -> tuple[list[str], dict]:
    """The argv and environment of a fresh interpreter on the tree at root
    that runs the statement call after ``import record``: its src/ and
    perfbench/ come first on the path, and perfbench's child environment
    (one BLAS thread) is set before numpy loads."""
    path = os.pathsep.join(str(p) for p in (root / "src", root / "perfbench", Path(__file__).resolve().parent))
    code = f"import os, pathlib, record, run; os.environ.update(run.child_env(pathlib.Path.cwd())); {call}"
    return [sys.executable, "-c", code], dict(os.environ, PYTHONPATH=path)


def run_in_tree(root: Path, call: str) -> dict:
    """The JSON value of ``record.<call>`` in a fresh interpreter on the tree at root."""
    command, env = tree_command(root, f"import json; print(json.dumps(record.{call}))")
    return json.loads(subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True).stdout)


def fixed_rounds_rss(root: Path, workload: str, rounds: int) -> float:
    """Peak RSS (MB) of fixed_rounds in a fresh interpreter on the tree at
    root, read through the launcher; a child that does not exit 0 raises."""
    command, env = tree_command(root, f"record.fixed_rounds({workload!r}, {rounds})")
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *command], cwd=root, env=env, capture_output=True,
                          text=True, check=True)
    code, _, maxrss_kib = json.loads(proc.stdout)
    if code != 0:
        raise RuntimeError(f"{rounds} rounds of {workload} exited with status {code} on {root}")
    return maxrss_kib / 1024


def rss_table(roots: list[Path], workload_names: list[str], samples: int, rounds: int) -> list[dict]:
    """Per tree, each workload's fixed-round peak RSS over samples children,
    median and [q1, q3] beside the samples.  The trees take turns to go
    first, workload by workload."""
    peaks = [{name: [] for name in workload_names} for _ in roots]
    for turn, (_, name) in enumerate(itertools.product(range(samples), workload_names)):
        for root, tree in in_turn(list(zip(roots, peaks)), turn):
            tree[name].append(fixed_rounds_rss(root, name, rounds))
    return [{"rounds": rounds, "seed": RSS_SEED, "peak_rss_mb": {name: quartiles(mb) for name, mb in tree.items()},
             "samples": tree} for tree in peaks]


def compare_rss(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """Each workload whose fixed-round peak RSS both records hold, over the
    same rounds, with its median MB in the first and in the second."""
    old, new = (rec.get("fixed_rounds", {}) for rec in (before, after))
    if old.get("rounds") != new.get("rounds"):
        return []
    return [(name, old["peak_rss_mb"][name]["median"], new["peak_rss_mb"][name]["median"])
            for name in old.get("peak_rss_mb", {}) if name in new["peak_rss_mb"]]


def run_criterion_timings(root: Path, passes: int) -> dict:
    """criterion_timings in a fresh interpreter on the tree at root."""
    return run_in_tree(root, f"criterion_timings({passes})")


def run_query_timings(root: Path, passes: int) -> dict:
    """query_timings in a fresh interpreter on the tree at root."""
    return run_in_tree(root, f"query_timings({passes})")


def compare_timings(before: dict, after: dict, key: str) -> list[tuple[str, float, float]]:
    """Each item timed under ``key`` ("criteria" or "queries") in both
    records, with its median seconds in the first and in the second."""
    old, new = (rec.get(key, {}).get("seconds", {}) for rec in (before, after))
    return [(name, old[name]["median"], new[name]["median"]) for name in sorted(old.keys() & new.keys())]


def compare_criteria(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """Each criterion timed in both records, with its median seconds in the
    first and in the second."""
    return compare_timings(before, after, "criteria")


def cold_start(root: Path, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one request in a fresh interpreter
    on the tree at root, which writes no bytecode; a request that does not
    exit 0 raises."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", SCRIPT, *argv], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    code, seconds, maxrss_kib = json.loads(proc.stdout)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with status {code} on {root}")
    return seconds, maxrss_kib / 1024


def cold_start_table(roots: list[Path], rounds: int) -> list[dict]:
    """Per tree, each COLD_REQUESTS request's wall seconds and peak RSS over
    rounds cold starts, median and [q1, q3] beside the samples.  The trees
    take turns to go first, request by request."""
    caches = [bytecode_caches(root) for root in roots]
    samples = [{name: {"seconds": [], "peak_rss_mb": []} for name in COLD_REQUESTS} for _ in roots]
    for turn, (_, (name, argv)) in enumerate(itertools.product(range(rounds), COLD_REQUESTS.items())):
        for root, tree in in_turn(list(zip(roots, samples)), turn):
            seconds, rss = cold_start(root, argv)
            tree[name]["seconds"].append(seconds)
            tree[name]["peak_rss_mb"].append(rss)
    return [{"rounds": rounds, "bytecode_caches": cached, "requests": COLD_REQUESTS,
             "seconds": {name: quartiles(s["seconds"]) for name, s in tree.items()},
             "peak_rss_mb": {name: quartiles(s["peak_rss_mb"]) for name, s in tree.items()}, "samples": tree}
            for cached, tree in zip(caches, samples)]


def compare_cold_start(before: dict, after: dict) -> list[tuple[str, float, float, float, float]]:
    """Each request cold-started in both records: its median seconds and
    peak RSS in MB in the first and in the second."""
    old, new = (rec.get("cold_start", {}) for rec in (before, after))
    return [(name, old["seconds"][name]["median"], new["seconds"][name]["median"],
             old["peak_rss_mb"][name]["median"], new["peak_rss_mb"][name]["median"])
            for name in old.get("seconds", {}) if name in new.get("seconds", {})]


def tier1_counts(root: Path) -> dict:
    """The passed and failed counts of one run of the tier-1 tests in the tree
    at root (errors count as failed), from pytest's summary line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True, check=False)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    return {"command": " ".join(["python", *TIER1]), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0), "summary": summary}


def in_turn(items: list, turn: int) -> list:
    """items in order on an even turn and reversed on an odd one."""
    return items if turn % 2 == 0 else items[::-1]


def bytecode_caches(root: Path) -> bool:
    """Whether the tree at root holds a ``__pycache__`` directory under src/."""
    return any(path.is_dir() for path in (root / "src").rglob("__pycache__"))


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


def record(roots: list[Path], seeds: list[int]) -> list[dict]:
    """Run every workload of the first tree's BENCHMARK.json at every seed,
    for its run_seconds, on every tree back to back, after CRITERION_ROUNDS
    rounds of criterion timings taken the same way, and summarize one record
    per tree.  The trees take turns to go first (1 2, 2 1, 1 2, ... over the
    seeds and over the rounds, request by request in the cold-start table,
    which follows the request timings, and workload by workload in the
    fixed-round peak RSS table after it); each tree's tier-1 counts come
    last.  Each run's metrics also go to stderr as it ends."""
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = [m["name"] for m in spec["end_to_end"]], spec["run_seconds"]
    timings, queries = [[] for _ in roots], [[] for _ in roots]
    for turn in range(CRITERION_ROUNDS):
        for root, rounds in in_turn(list(zip(roots, timings)), turn):
            rounds.append(run_criterion_timings(root, CRITERION_PASSES))
    for turn in range(QUERY_ROUNDS):
        for root, rounds in in_turn(list(zip(roots, queries)), turn):
            rounds.append(run_query_timings(root, QUERY_PASSES))
    cold_starts = cold_start_table(roots, COLD_ROUNDS)
    workload_names = [w["name"] for w in spec["workloads"]]
    peaks = rss_table(roots, workload_names, RSS_SAMPLES, RSS_ROUNDS)
    results = [{"machine": machine(), "source": source_facts(root), "seeds": seeds, "seconds": seconds,
                "criteria": merged_timings(rounds), "queries": merged_timings(query_rounds), "cold_start": cold,
                "fixed_rounds": peak, "workloads": {}}
               for root, rounds, query_rounds, cold, peak in zip(roots, timings, queries, cold_starts, peaks)]
    for workload in workload_names:
        runs = [[] for _ in roots]
        for turn, seed in enumerate(seeds):
            for root, tree_runs in in_turn(list(zip(roots, runs)), turn):
                tree_runs.append(run_benchmark(root, workload, seed, seconds))
                print(f"{root.name} {workload} seed {seed}: "
                      + ", ".join(f"{name} {tree_runs[-1]['metrics'][name]['value']:.4g}" for name in metrics),
                      file=sys.stderr)
        for result, tree_runs in zip(results, runs):
            result["workloads"][workload] = summarize(tree_runs, metrics)
    for root, result in zip(roots, results):
        result["tier1"] = tier1_counts(root)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="source tree to record (default: .)")
    parser.add_argument("--out", type=Path, help="where to write the record")
    parser.add_argument("--pair", type=Path, metavar="PARENT_ROOT",
                        help="a parent tree to record too, run by run beside --root")
    parser.add_argument("--out-parent", type=Path, help="with --pair, where to write the parent's record")
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
        for kind, old, new in compare_timings(before, after, "queries"):
            print(f"queries {kind:10s} {old * 1e3:9.3f} ms -> {new * 1e3:9.3f} ms  x{new / old:.3f} per round")
        for name, old, new, old_mb, new_mb in compare_cold_start(before, after):
            print(f"cold start {name:10s} {old * 1e3:7.1f} ms -> {new * 1e3:7.1f} ms  x{new / old:.3f}   "
                  f"peak RSS {old_mb:6.1f} MB -> {new_mb:6.1f} MB  x{new_mb / old_mb:.3f}")
        for name, old_mb, new_mb in compare_rss(before, after):
            print(f"fixed rounds {name:17s} peak RSS {old_mb:6.1f} MB -> {new_mb:6.1f} MB  x{new_mb / old_mb:.3f}  "
                  f"over {after['fixed_rounds']['rounds']} rounds")
        caches = [rec.get("cold_start", {}).get("bytecode_caches") for rec in (before, after)]
        if None not in caches and caches[0] != caches[1]:
            print(f"cold start bytecode caches under src/: {caches[0]} -> {caches[1]}, so the ratios compare them too")
        if "tier1" in before and "tier1" in after:
            old, new = before["tier1"], after["tier1"]
            print(f"tier-1     passed {old['passed']} -> {new['passed']}, failed {old['failed']} -> {new['failed']}")
        for module, old, new in compare_source_lines(before, after):
            print(f"src {module:30s} {old:6d} -> {new:6d}  {new - old:+d} lines")
        return 0 if all(row["inside"] for row in rows + failures) else 1

    if args.out is None:
        parser.error("give --out to record, or --compare BEFORE AFTER")
    if (args.pair is None) != (args.out_parent is None):
        parser.error("--pair and --out-parent go together")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(set(seeds)) < MIN_SEEDS:
        parser.error(f"--seeds: need at least {MIN_SEEDS} distinct seeds, got {len(set(seeds))}")
    roots, outs = [args.root.resolve()], [args.out]
    if args.pair is not None:
        roots, outs = [args.pair.resolve(), *roots], [args.out_parent, *outs]
        cached = [root for root in roots if bytecode_caches(root)]
        if len(cached) == 1:
            print(f"warning: only {cached[0]} has src/**/__pycache__, so setup_s compares bytecode caches "
                  "as well as code; remove them or give both trees caches", file=sys.stderr)
    for out, result in zip(outs, record(roots, seeds)):
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
