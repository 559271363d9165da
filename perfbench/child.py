"""One benchmark child process: import the package, warm up, then run a
workload's rounds in a closed loop (one client, next request after the
previous one returns) and print one JSON result line.

Started by run.py from the root of the source tree with ``src`` on
PYTHONPATH:

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --seconds S [--spans PATH]

``setup`` stops once the warm-up is done; ``run`` times whole rounds for
``--seconds``.  Both run a ``speed.Speedometer`` from before the package
import: with the set-up kernel to the end of the warm-up, then with the
workload's kernel while rounds are timed.  Every timed operation gets its
time at the host's reference speed (``norm``) next to its wall time
(``seconds``, less the calibration kernel's share).  ``trace`` runs the
workload's fixed number of trace rounds
once to warm up, then every operation of them once untraced and once with
spans recorded; the two give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import oracles
import speed
import tracing
import workloads

# Rounds in a traced run: fixed, so span counts repeat exactly for a seed.
TRACE_ROUNDS = {"certify": 1, "potential_sweep": 2, "cycle_quadrature": 2, "exact_queries": 3}


class Runner:
    """Executes operations against the package and checks each output."""

    def __init__(self, package) -> None:
        self.package = package
        self.tracer: tracing.Tracer | None = None
        self.criteria: list[dict] = []
        self.oracle_matrices = 0

    def execute(self, op) -> tuple[float, float, list[str]]:
        """Start and end of the call into the program on the monotonic clock,
        and the oracle's failures.  An exception counts as a failed
        operation."""
        start = time.monotonic()
        try:
            if op.kind == "certify":
                profile = self.package.acceptance.Profile(**op.expect["profile"])
                start = time.monotonic()
                results = self.package.acceptance.run_criteria(profile)
                end = time.monotonic()
                if self.tracer is None:
                    self.criteria.append({r.cid: r.elapsed for r in results})
                for r in results:
                    if "oracle_matrices_checked" in r.details:
                        self.oracle_matrices = r.details["oracle_matrices_checked"]["measured"]
                return start, end, oracles.check_certify(results)
            buffer = io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(buffer):
                status = self.package.cli.main(list(op.argv))
            end = time.monotonic()
            text = buffer.getvalue()
            if self.tracer is not None:
                self.tracer.count("cli.report_bytes", len(text.encode()))
            return start, end, oracles.CHECKS[op.kind](op, status, text)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            return start, start, [f"{type(exc).__name__}: {exc}"]

    def run_round(self, ops, records: list[dict], tag: str, index: int = 0) -> None:
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = len(records)
            start, end, failures = self.execute(op)
            records.append({"kind": op.kind, "start": start, "end": end, "seconds": end - start,
                            "work": op.work, "failures": failures, "phase": tag, "round": index})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()

    meter = speed.Speedometer(speed.SETUP_KERNEL)
    if args.mode != "trace":
        meter.start()
    import conifold_lab.acceptance
    import conifold_lab.cli

    runner = Runner(conifold_lab)
    records: list[dict] = []
    runner.run_round(workloads.warmup_ops(args.workload), records, "warmup")
    ready = time.monotonic()
    meter.stop()
    result = {"ready": ready, "ops": records, "setup_speed": meter.samples}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    make_round = workloads.ROUNDS[args.workload]
    runner.criteria.clear()
    if args.mode == "run":
        kernel = speed.WORKLOAD_KERNEL[args.workload]
        meter = speed.Speedometer(kernel)
        meter.start()
        # Start a round only while it is expected to end within --seconds.
        index, elapsed = 0, 0.0
        while index == 0 or elapsed * (index + 1) / index <= args.seconds:
            runner.run_round(make_round(args.seed, index), records, "run", index)
            index += 1
            elapsed = time.monotonic() - ready
        meter.stop()
        for r in records:
            if r["phase"] == "run":
                r["seconds"] = speed.net(meter.samples, r["start"], r["end"])
                r["norm"] = speed.normalize(meter.samples, r["start"], r["end"], r["seconds"],
                                            speed.KERNELS[kernel][1])
        result["speed"] = meter.samples
        result["rounds"] = index
    else:
        # The first pass only fills caches and the allocator's free lists.
        # Then each operation runs once untraced and once traced, in
        # alternating order, so that the overhead compares adjacent runs.
        rounds = [make_round(args.seed, i) for i in range(TRACE_ROUNDS[args.workload])]
        for ops in rounds:
            runner.run_round(ops, records, "warm")
        tracer = tracing.Tracer()
        for n, op in enumerate(op for ops in rounds for op in ops):
            for traced in (False, True) if n % 2 == 0 else (True, False):
                if not traced:
                    runner.run_round([op], records, "untraced")
                    continue
                with tracer.installed(conifold_lab):
                    runner.tracer = tracer
                    runner.run_round([op], records, "traced")
                runner.tracer = None
        summary = tracing.summarize(tracer.spans)
        result["rounds"] = len(rounds)
        result["trace"] = {
            "summary": summary,
            "layers": tracing.layer_self_times(summary),
            "counters": dict(tracer.counters),
            "maxima": dict(tracer.maxima),
            "spans": len(tracer.spans),
        }
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    result["criteria"] = runner.criteria
    result["oracle_matrices"] = runner.oracle_matrices
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
