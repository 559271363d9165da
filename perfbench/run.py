"""The conifold-lab benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the source tree.  Every measurement happens in a
fresh child interpreter (perfbench/child.py) with ``src`` on PYTHONPATH and
BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the command starts
SETUP_SAMPLES children: the first ones stop after imports and warm-up and
give set-up samples, the last one also times whole rounds of the workload
for ``--seconds``.  Every time in the end-to-end metrics is normalized to
the host's reference speed by the calibration kernel the children run
between the program's operations (perfbench/speed.py); the detail line
also gives the plain wall-clock figures.  With ``--trace 1`` a single child
warms up on a fixed number of rounds, then runs each of their operations once untraced and once
traced; the spans give per-layer self times and the pairs the tracing
overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are those listed in
BENCHMARK.json.  The line before it holds the details: machine and library
versions, sample counts and the workload-specific reading of each metric.
A record of the run (and, when traced, every span) is written under
perfbench/runs/.
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
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The unit of work that work_per_s counts on each workload.
WORK_UNIT = {"certify": "criterion", "potential_sweep": "tau row",
             "cycle_quadrature": "quadrature node", "exact_queries": "query"}


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def run_child(root: Path, args, mode: str, deadline: float,
              spans: Path | None = None) -> tuple[dict, dict]:
    """Start one child, wait for it, and return its result and set-up time
    (spawn to the end of its warm-up, on the shared monotonic clock): as
    measured (``seconds``) and, for untraced children, at the reference
    speed (``norm``)."""
    command = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(command, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - spawned), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ready, samples = result["ready"], result["setup_speed"]
    setup = {"seconds": ready - spawned}
    if samples:  # a traced child runs no calibration kernel
        setup["norm"] = speed.normalize(samples, spawned, ready, speed.net(samples, spawned, ready),
                                        speed.KERNELS[speed.SETUP_KERNEL][1])
    return result, setup


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile over the sorted samples."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(setups: list[float], result: dict, key: str = "norm") -> tuple[dict, dict]:
    """op_p50_ms is the median over the timed operations; work_per_s the
    median over rounds of (work done in the round) / (time spent in the
    program), so a burst of outside load that covers a few rounds moves
    neither.  ``key`` picks the operation time: ``norm`` (at the reference
    speed) or ``seconds`` (as measured)."""
    timed = [r for r in result["ops"] if r["phase"] == "run"]
    seconds = [r[key] for r in timed]
    rounds: dict[int, list[dict]] = {}
    for r in timed:
        rounds.setdefault(r["round"], []).append(r)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(seconds),
        "work_per_s": statistics.median(
            sum(r["work"] for r in ops) / sum(r[key] for r in ops) for ops in rounds.values()
        ),
    }
    samples = {"setup_s": len(setups), "op_p50_ms": len(timed), "work_per_s": len(rounds)}
    # A tail percentile only where at least ten operations lie beyond it.
    if len(seconds) >= 100:
        values["op_p90_ms"] = 1e3 * quantile(seconds, 0.9)
        samples["op_p90_ms"] = len(seconds)
    return values, samples


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    summary = trace["summary"]
    values = {}
    for name in tracing.TRACED:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    for layer, own in trace["layers"].items():
        values[f"{layer}.self_s"] = own
    for cid in tracing.CRITERIA_IDS:
        passes = [c[cid] for c in result["criteria"]]
        values[f"acceptance.{cid}_s"] = statistics.median(passes) if passes else 0.0
    values["acceptance.oracle_matrices"] = result["oracle_matrices"]
    values["metrics.quad_error_max"] = trace["maxima"].get("metrics.quad_error_max", 0.0)
    for name in ("slag.grid_nodes", "slag.grid_bytes_computed", "cli.report_bytes"):
        values[name] = trace["counters"].get(name, 0)
    untraced = sum(r["seconds"] for r in result["ops"] if r["phase"] == "untraced")
    traced = sum(r["seconds"] for r in result["ops"] if r["phase"] == "traced")
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    values["trace.spans"] = trace["spans"]
    values["trace.ops"] = sum(1 for r in result["ops"] if r["phase"] == "traced")
    return values


def workload_reading(workload: str, values: dict) -> dict:
    """The end-to-end figures under the names they have on this workload."""
    p50, rate = values["op_p50_ms"], values["work_per_s"]
    reading = {
        "certify": {"certify_s": p50 / 1e3, "criteria_per_s": rate},
        "potential_sweep": {"sweep_rows_per_s": rate},
        "cycle_quadrature": {"cycle_nodes_per_s": rate},
        "exact_queries": {"queries_per_s": rate, "query_p50_ms": p50},
    }[workload]
    if "op_p90_ms" in values:
        reading["query_p90_ms" if workload == "exact_queries" else "op_p90_ms"] = values["op_p90_ms"]
    return reading


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                          check=False)
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def environment(root: Path, args) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cpu_model": cpu_model(),
        "l3_size": l3_size(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_per_child": 1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "conifold_lab" / "__init__.py").is_file():
        print("error: run from the root of a conifold-lab source tree (src/conifold_lab missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    out_dir = BENCH_DIR / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, _ = run_child(root, args, "trace", deadline, out_dir / f"{stem}-spans.json")
        values = per_layer_metrics(result)
        layers = result["trace"]["layers"]
        total = sum(layers.values())
        detail = {"layer_share": {k: v / total for k, v in layers.items()},
                  "trace_rounds": result["rounds"]}
        ops = result["ops"]
    else:
        setups, ops = [], []
        for _ in range(SETUP_SAMPLES - 1):
            result, setup = run_child(root, args, "setup", deadline)
            setups.append(setup)
            ops += result["ops"]
        result, setup = run_child(root, args, "run", deadline)
        setups.append(setup)
        ops += result["ops"]
        values, samples = end_to_end_metrics([s["norm"] for s in setups], result)
        wall, _ = end_to_end_metrics([s["seconds"] for s in setups], result, key="seconds")
        kernel = speed.WORKLOAD_KERNEL[args.workload]
        durations = [e - s for s, e in result["speed"]]
        detail = {"samples": samples, "work_unit": WORK_UNIT[args.workload],
                  "reading": workload_reading(args.workload, values),
                  "wall_clock": wall,
                  "speed": {"kernel": kernel, "kernel_median_s": statistics.median(durations),
                            "kernel_nominal_s": speed.KERNELS[kernel][1],
                            "kernel_runs": len(durations)}}
        if result["criteria"]:
            detail["criteria_median_s"] = {
                cid: statistics.median(c[cid] for c in result["criteria"]) for cid in tracing.CRITERIA_IDS
            }

    failed = [r for r in ops if r["failures"]]
    detail.update(environment=environment(root, args), failed_ratio=len(failed) / len(ops),
                  failures=[f"{r['kind']}: {f}" for r in failed[:20] for f in r["failures"]])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps({"result": line, "detail": detail}, indent=1),
                                          encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
