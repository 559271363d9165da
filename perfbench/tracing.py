"""Spans around the public functions of each conifold-lab layer, recorded
from outside the package.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` the benchmark operation it belongs to.  Spans
are kept in memory; the caller writes them out when the run ends.  A
layer's self time is its span duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# Span name -> the (module, attribute) pairs through which callers reach the
# function.  A function imported by name into another module is patched
# there too: conifold calls exterior.evaluate as its own global ``evaluate``.
TRACED = {
    "acceptance.run_criteria": [("acceptance", "run_criteria")],
    "acceptance.exhaustive_friedman_agreement": [("acceptance", "exhaustive_friedman_agreement")],
    "acceptance.feasibility_oracle": [("acceptance", "feasibility_oracle")],
    "transitions.friedman_witness": [("transitions", "friedman_witness")],
    "transitions.verify_odp": [("transitions", "verify_odp")],
    "transitions.random_dwork_smooth_points": [("transitions", "random_dwork_smooth_points")],
    "metrics.potential_value": [("metrics", "potential_value")],
    "metrics.hermitian_hessian": [("metrics", "hermitian_hessian")],
    "metrics.monge_ampere_residual": [("metrics", "monge_ampere_residual")],
    "metrics.ode_residual": [("metrics", "ode_residual")],
    "metrics.asymptotic_deviation": [("metrics", "asymptotic_deviation")],
    "metrics.potential_convergence_sup": [("metrics", "potential_convergence_sup")],
    "slag.sample_vanishing_cycle": [("slag", "sample_vanishing_cycle")],
    "slag.integrate_volume_form": [("slag", "integrate_volume_form")],
    "slag.calibration_residual": [("slag", "calibration_residual")],
    "slag.convergence_order": [("slag", "convergence_order")],
    "hodge.hodge_diamond": [("hodge", "hodge_diamond")],
    "hodge.chi_hypersurface_omega_p": [("hodge", "chi_hypersurface_omega_p")],
    "conifold.omega_tilde_1_coefficients": [("conifold", "omega_tilde_1_coefficients")],
    "conifold.pullback_volume_form": [("conifold", "pullback_volume_form")],
    "conifold.fd_exterior_derivative": [("conifold", "fd_exterior_derivative")],
    "exterior.wedge": [("exterior", "wedge")],
    "exterior.evaluate": [("exterior", "evaluate"), ("conifold", "evaluate")],
    "cli.main": [("cli", "main")],
}

LAYERS = ("hodge", "conifold", "exterior", "metrics", "slag", "transitions", "acceptance", "cli")

CRITERIA_IDS = tuple(f"C{i:02d}" for i in range(1, 13))


class Tracer:
    """Records spans and counters; install() patches the package, restore()
    puts every original function back, installed() does both around a
    block."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def count(self, name: str, n: float) -> None:
        self.counters[name] += n

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.restore()

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        for name, sites in TRACED.items():
            owner, attr = sites[0]
            wrapped = self.wrap(name, getattr(modules[owner], attr), OBSERVERS.get(name))
            for owner, attr in sites:
                self._patch(modules[owner], attr, wrapped)
        # run_criterion looks each criterion up in the CRITERIA dict at call time.
        criteria = modules["acceptance"].CRITERIA
        for cid in CRITERIA_IDS:
            self._undo.append((criteria, cid, criteria[cid]))
            criteria[cid] = self.wrap(f"acceptance.{cid}", criteria[cid])

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _observe_sample(tracer: Tracer, sample) -> None:
    tracer.maximum("metrics.quad_error_max", sample.quad_error)


def _observe_grid(tracer: Tracer, grid) -> None:
    tracer.count("slag.grid_nodes", grid.nodes.shape[0])
    arrays = (grid.nodes, grid.weights, grid.sphere_points, grid.sphere_frames)
    tracer.count("slag.grid_bytes_computed", sum(a.nbytes for a in arrays))


OBSERVERS = {
    "metrics.potential_value": _observe_sample,
    "slag.sample_vanishing_cycle": _observe_grid,
}


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls and total self time per span name."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(table)


def layer_self_times(summary) -> dict[str, float]:
    """Self time per layer: the sum over the layer's span names."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        totals[name.split(".", 1)[0]] += row["self_s"]
    return totals
