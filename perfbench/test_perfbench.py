"""Tests of the benchmark itself: seeded generators, span arithmetic, the
oracles (including negative controls) and the result format.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import child
import oracles
import run
import speed
import tracing
import workloads

import conifold_lab.cli

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(ops) -> str:
    return json.dumps([(op.kind, op.argv, op.work, op.expect) for op in ops], sort_keys=True)


def call_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = conifold_lab.cli.main(list(argv))
    return status, buffer.getvalue()


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_repeat_for_a_seed_and_differ_across_seeds(workload):
    make = workloads.ROUNDS[workload]
    assert fingerprint(make(7, 0)) == fingerprint(make(7, 0))
    assert fingerprint(make(7, 3)) == fingerprint(make(7, 3))
    assert fingerprint(make(7, 0)) != fingerprint(make(8, 0))
    assert fingerprint(make(7, 0)) != fingerprint(make(7, 1)) or workload == "certify"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_composition_does_not_depend_on_the_seed(workload):
    def shape(ops):
        return [(op.kind, op.argv[:2]) for op in ops]

    assert shape(workloads.ROUNDS[workload](1, 0)) == shape(workloads.ROUNDS[workload](2, 0))


def test_certify_profile_pins_every_profile_field():
    from conifold_lab.acceptance import Profile

    fields = set(Profile.__dataclass_fields__) - {"seed"}
    assert set(workloads.CERTIFY_PROFILE) == fields
    assert set(workloads.CERTIFY_WARMUP_PROFILE) == fields


def test_planted_class_matrices():
    rng = random.Random(3)
    rows = workloads.feasible_classes(rng, 12, 5)
    assert len(rows) == 12 and all(len(r) == 5 for r in rows)
    rows, pivot = workloads.infeasible_classes(rng, 12, 5)
    assert oracles.row_outside_span(rows, pivot)


# ---------------------------------------------------------------------------
# spans


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["hodge.hodge_diamond", 1.0, 4.0, 0, 0],
        ["hodge.chi_hypersurface_omega_p", 2.0, 3.0, 1, 0],
        ["metrics.potential_value", 5.0, 9.0, 0, 0],
        ["metrics.potential_value", 8.0, 9.5, 0, 0],  # overlaps its sibling
        ["cli.main", 11.0, 12.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5, 1.0])
    summary = tracing.summarize(spans)
    assert summary["cli.main"] == {"calls": 2, "self_s": pytest.approx(3.5)}
    assert summary["metrics.potential_value"] == {"calls": 2, "self_s": pytest.approx(5.5)}
    layers = tracing.layer_self_times(summary)
    assert layers["hodge"] == pytest.approx(3.0)
    assert layers["cli"] == pytest.approx(3.5) and layers["metrics"] == pytest.approx(5.5)


def test_tracer_patches_every_call_site_and_restores_them():
    import conifold_lab
    from conifold_lab import conifold, exterior, hodge

    originals = (conifold_lab.cli.main, hodge.hodge_diamond, conifold.evaluate, exterior.evaluate)
    tracer = tracing.Tracer()
    with tracer.installed(conifold_lab):
        assert conifold.evaluate is exterior.evaluate is not originals[2]
        tracer.op = 5
        status, _ = call_cli(["hodge", "--n", "4", "--d", "5"])
    assert status == 0
    assert (conifold_lab.cli.main, hodge.hodge_diamond, conifold.evaluate, exterior.evaluate) == originals
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["cli.main", "hodge.hodge_diamond"]
    assert names.count("hodge.chi_hypersurface_omega_p") == 4
    assert all(s[4] == 5 for s in tracer.spans)
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 1


# ---------------------------------------------------------------------------
# oracles


def test_reference_potentials_match_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for sigma in (1.01, 2.0, 1e3, 1e7):
        lim = mp.acosh(sigma)
        exact = mp.mpf(2) ** (-mp.mpf(1) / 3) * mp.quad(lambda x: mp.cbrt(mp.sinh(2 * x) - 2 * x), [0, lim])
        assert float(oracles.smoothed_unit_potential(np.array([sigma]))[0]) == pytest.approx(float(exact), rel=1e-13)
    for sigma in (1e-6, 0.5, 40.0, 1e9):
        g = mp.findroot(lambda g: g**3 + 6 * g**2 - mp.mpf(sigma) ** 2, mp.mpf(min(sigma ** (2 / 3), sigma / 6**0.5)))
        exact = 1.5 * g - 3 * mp.log(1 + g / 6)
        assert float(oracles.resolved_unit_potential(np.array([sigma]))[0]) == pytest.approx(float(exact), rel=1e-13)


def test_integer_rank_matches_floating_rank_on_small_matrices():
    rng = random.Random(11)
    for _ in range(100):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, -2, -1, 1, 2)) for _ in range(m)] for _ in range(n)]
        assert oracles.integer_rank(rows) == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_euler_closed_form():
    assert oracles.euler_closed_form(4, 5) == -200
    assert oracles.euler_closed_form(3, 4) == 24
    assert oracles.euler_closed_form(2, 3) == 0


def test_negative_control_tampered_witness():
    rows = [[1, 0], [0, 1], [-1, -1], [2, 1]]
    op = workloads.Op("friedman", ("friedman", "--classes-json", json.dumps(rows)),
                      expect={"feasible": True, "rows": rows})
    status, text = call_cli(op.argv)
    assert oracles.check_friedman(op, status, text) == []
    report = json.loads(text)
    report["results"]["witness"][0] = str(int(report["results"]["witness"][0]) + 1)
    assert oracles.check_friedman(op, status, json.dumps(report))
    report["results"]["witness"][0] = "0"
    assert oracles.check_friedman(op, status, json.dumps(report))


def test_negative_control_infeasible_reported_feasible():
    rows = [[1, 0], [0, 1], [1, 1]]
    op = workloads.Op("friedman", expect={"feasible": False, "rows": rows, "pivot": 0})
    report = {"assertions": [], "results": {"feasible": True, "witness": ["1", "1", "-1"]}}
    assert oracles.check_friedman(op, 0, json.dumps(report))


def test_negative_control_wrong_h21():
    op = workloads.Op("hodge", ("hodge", "--n", "4", "--d", "5"), expect={"n": 4, "d": 5})
    status, text = call_cli(op.argv)
    assert oracles.check_hodge(op, status, text) == []
    report = json.loads(text)
    res = report["results"]
    res["h"][2][1] = res["h"][1][2] = res["h21"] = 100
    assert oracles.check_hodge(op, status, json.dumps(report))


def test_negative_control_perturbed_period():
    op = workloads.cycle_quadrature_round(5, 0)[0]
    status, text = call_cli(op.argv)
    assert oracles.check_slag(op, status, text) == []
    report = json.loads(text)
    report["results"]["integral_re"] *= 1.0 + 1e-3
    report["results"]["integral_im"] *= 1.0 + 1e-3
    assert oracles.check_slag(op, status, json.dumps(report))


def test_negative_control_perturbed_potential():
    op = workloads.warmup_ops("potential_sweep")[2]
    status, text = call_cli(op.argv)
    assert oracles.check_metric(op, status, text) == []
    report = json.loads(text)
    report["results"]["rows"][3][3] *= 1.0 + 1e-9
    assert oracles.check_metric(op, status, json.dumps(report))


def test_negative_control_degenerate_double_point():
    points = [[0, a, b, c, (-(a + b + c)) % 5] for a in range(5) for b in range(5) for c in range(5)]
    assert oracles.dwork_certificate_failures(points) == []
    points[7] = [0, 1, 1, 1, 1]  # sum 4: not a singular point
    assert oracles.dwork_certificate_failures(points)


# ---------------------------------------------------------------------------
# harness


class TamperingCli:
    """Stands in for conifold_lab.cli: forwards to the real one and scales
    every number in the slag report's integral, or raises."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def main(self, argv):
        if self.mode == "raise":
            raise ValueError("boom")
        status, text = call_cli(argv)
        report = json.loads(text)
        report["results"]["integral_re"] *= 1.01
        sys.stdout.write(json.dumps(report))
        return status


@pytest.mark.parametrize("mode", ["tamper", "raise"])
def test_runner_counts_a_bad_operation_as_failed_and_continues(mode):
    package = types.SimpleNamespace(cli=TamperingCli(mode))
    runner = child.Runner(package)
    ops = workloads.warmup_ops("cycle_quadrature") * 2
    records: list[dict] = []
    runner.run_round(ops, records, "run")
    assert len(records) == 2 and all(r["failures"] for r in records)


@pytest.mark.parametrize("workload", ["potential_sweep", "cycle_quadrature", "exact_queries"])
def test_warmup_operations_pass_their_oracles(workload):
    runner = child.Runner(conifold_lab)
    records: list[dict] = []
    runner.run_round(workloads.warmup_ops(workload), records, "warmup")
    assert [r["failures"] for r in records] == [[]] * len(records)


def test_reported_metric_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [{"phase": phase, "seconds": 0.5, "norm": 0.25, "work": 3, "kind": "slag", "failures": [],
            "round": 0} for phase in ("run", "run", "warm", "traced", "untraced")]
    result = {"ops": ops, "rounds": 1, "maxrss_kb": 2048, "oracle_matrices": 0,
              "criteria": [{cid: 0.1 for cid in tracing.CRITERIA_IDS}],
              "trace": {"summary": {}, "layers": dict.fromkeys(tracing.LAYERS, 0.1),
                        "counters": {}, "maxima": {}, "spans": 0}}
    e2e, _ = run.end_to_end_metrics([1.0, 2.0, 3.0], result)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert e2e["setup_s"] == 2.0 and e2e["work_per_s"] == 12.0 and e2e["op_p50_ms"] == 250.0
    wall, _ = run.end_to_end_metrics([1.0], result, key="seconds")
    assert wall["work_per_s"] == 6.0 and wall["op_p50_ms"] == 500.0
    assert set(run.per_layer_metrics(result)) == {m["name"] for m in spec["per_layer"]}


def test_speed_normalization_arithmetic():
    # Kernel runs of 4 ms (half the reference speed) around [1, 2], 1 ms far away.
    samples = [(0.0, 0.001), (0.8, 0.804), (1.5, 1.504), (2.2, 2.204), (9.0, 9.001)]
    assert speed.net(samples, 1.0, 2.0) == pytest.approx(1.0 - 0.004)
    assert speed.net(samples, 0.8, 2.2) == pytest.approx(1.4 - 0.008)
    assert speed.normalize(samples, 1.0, 2.0, 0.996, 0.002) == pytest.approx(0.996 * 0.002 / 0.004)
    # Nothing within WINDOW_S: the median over all samples.
    assert speed.normalize(samples, 5.0, 6.0, 1.0, 0.002) == pytest.approx(0.002 / 0.004)


def test_every_workload_has_a_calibration_kernel():
    assert set(speed.WORKLOAD_KERNEL) == set(workloads.WORKLOADS)
    assert set(speed.WORKLOAD_KERNEL.values()) <= set(speed.KERNELS)


@pytest.mark.parametrize("kernel", sorted(speed.KERNELS))
def test_speedometer_samples_from_the_start_and_stops(kernel):
    meter = speed.Speedometer(kernel)
    meter.start()
    try:
        deadline = time.monotonic() + 3 * speed.INTERVAL_S
        while time.monotonic() < deadline:
            pass
    finally:
        meter.stop()
    count = len(meter.samples)
    assert count >= 2 and all(e > s for s, e in meter.samples)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(meter.samples) == count


def test_set_up_time_is_normalized_only_when_the_child_ran_the_kernel(monkeypatch):
    nominal = speed.KERNELS[speed.SETUP_KERNEL][1]

    def fake_child(command, **kwargs):
        now = time.monotonic()
        # An untraced child reports one kernel run at half the reference speed.
        kernel = [] if "trace" in command else [(now, now + 2 * nominal)]
        line = json.dumps({"ready": now + 1.0, "setup_speed": kernel})
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n")

    monkeypatch.setattr(run.subprocess, "run", fake_child)
    args = types.SimpleNamespace(workload="certify", seed=1, seconds=1)
    _, setup = run.run_child(ROOT, args, "setup", time.monotonic() + 60)
    assert setup["norm"] == pytest.approx((setup["seconds"] - 2 * nominal) / 2)
    _, setup = run.run_child(ROOT, args, "trace", time.monotonic() + 60)
    assert "norm" not in setup and setup["seconds"] >= 1.0


def test_quantile_interpolates():
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert run.quantile([7.0], 0.9) == 7.0


def test_refuses_to_run_outside_a_source_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spec_is_within_the_contract_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
