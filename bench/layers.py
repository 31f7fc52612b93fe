"""Per-layer trace recorded from outside the library.

The tracer replaces the public functions of ``proxgn.solver``, ``proxgn.prox``
(as ``solver`` calls it) and ``proxgn.radius`` by wrappers for the length of a
run and restores them afterwards; problem residuals and Jacobians are wrapped
through ``dataclasses.replace``.  Spans stay in memory as (name, start, end,
parent, op) and are written out when the run ends.  ``LipschitzAverage.__call__``
is only counted: quadrature calls it thousands of times per radius op, and a
span each would dominate the trace.
"""
from __future__ import annotations

import dataclasses
import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from proxgn import radius, solver
from proxgn.prox import InnerConfig

PROX_CAP = InnerConfig().max_iterations
RADIUS_FUNCTIONS = ("gamma_lambda", "gamma_c", "q_factor", "sup_radius", "r_bar_numeric")
AVERAGE_CONSTRUCTORS = ("constant", "from_callable", "tabulated")

# per-layer metrics in output order: name -> unit
PER_LAYER_UNITS = {
    "problems.residual.calls": "count/op",
    "problems.jacobian.calls": "count/op",
    "problems.self_s": "s/op",
    "problems.jac_per_step": "ratio",
    "solver.steps": "count/op",
    "solver.self_s": "s/op",
    "solver.solve_self_s": "s/op",
    "solver.rank_deficient": "count/op",
    "solver.left_domain": "count/op",
    "prox.calls": "count/op",
    "prox.self_s": "s/op",
    "prox.inner_iters": "count/op",
    "prox.inner_per_call": "ratio",
    "prox.capped": "count/op",
    "prox.certified_frac": "share",
    "prox.converged_frac": "share",
    "radius.average_s": "s/op",
    "radius.q.calls": "count/op",
    "radius.gamma.calls": "count/op",
    "radius.L.calls": "count/op",
    "radius.quad_s": "s/op",
    "radius.bracket_s": "s/op",
    "radius.q_s": "s/op",
    "trace.overhead_frac": "share",
}


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextmanager
def counting_q_calls(counts: Counter):
    """Count ``radius.q_factor`` evaluations in ``counts["q"]``."""
    q_factor = radius.q_factor

    def counted(*args, **kwargs):
        counts["q"] += 1
        return q_factor(*args, **kwargs)

    with patched([(radius, "q_factor", counted)]):
        yield


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def wrap_problem(self, problem):
        return dataclasses.replace(
            problem,
            residual=self._span("problems.residual", problem.residual),
            jacobian=self._span("problems.jacobian", problem.jacobian),
        )

    def _observe_solve(self, report):
        self.counts["status." + report.status.value] += 1

    def _observe_step(self, _result):
        self.counts["steps"] += 1

    def _observe_prox(self, outcome):
        counts = self.counts
        counts["prox.inner_iters"] += outcome.inner_iterations
        counts["prox.capped"] += outcome.inner_iterations >= PROX_CAP
        counts["prox.certified"] += outcome.inner_iterations == 0
        counts["prox.converged"] += bool(outcome.converged)

    def _counted_average_call(self, call):
        counts = self.counts

        def wrapper(average, u):
            counts["L.calls"] += 1
            return call(average, u)

        return wrapper

    @contextmanager
    def installed(self):
        cls = radius.LipschitzAverage
        replacements = [
            (solver, "solve", self._span("solver.solve", solver.solve, self._observe_solve)),
            (solver, "prox_gn_step",
             self._span("solver.prox_gn_step", solver.prox_gn_step, self._observe_step)),
            (solver, "prox_metric",
             self._span("prox.prox_metric", solver.prox_metric, self._observe_prox)),
            (cls, "__call__", self._counted_average_call(cls.__call__)),
        ]
        replacements += [(radius, name, self._span("radius." + name, getattr(radius, name)))
                         for name in RADIUS_FUNCTIONS]
        replacements += [(cls, name,
                          classmethod(self._span("radius.average", cls.__dict__[name].__func__)))
                         for name in AVERAGE_CONSTRUCTORS]
        with patched(replacements):
            yield

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), ns in zip(self.spans, own):
            totals[name] += ns
        return {name: ns * 1e-9 for name, ns in totals.items()}

    def metrics(self, ops: int, scale: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics per traced op where the unit says so; seconds scaled by ``scale``."""
        names = Counter(span[0] for span in self.spans)
        own = self.self_times()
        c = self.counts
        steps, prox_calls = c["steps"], names["prox.prox_metric"]
        values = {
            "problems.residual.calls": names["problems.residual"],
            "problems.jacobian.calls": names["problems.jacobian"],
            "problems.self_s": own.get("problems.residual", 0.0) + own.get("problems.jacobian", 0.0),
            "solver.steps": steps,
            "solver.self_s": own.get("solver.solve", 0.0) + own.get("solver.prox_gn_step", 0.0),
            "solver.solve_self_s": own.get("solver.solve", 0.0),
            "solver.rank_deficient": c["status.jacobian_rank_deficient"],
            "solver.left_domain": c["status.left_domain"],
            "prox.calls": prox_calls,
            "prox.self_s": own.get("prox.prox_metric", 0.0),
            "prox.inner_iters": c["prox.inner_iters"],
            "prox.capped": c["prox.capped"],
            "radius.average_s": own.get("radius.average", 0.0),
            "radius.q.calls": names["radius.q_factor"],
            "radius.gamma.calls": names["radius.gamma_lambda"] + names["radius.gamma_c"],
            "radius.L.calls": c["L.calls"],
            "radius.quad_s": own.get("radius.gamma_lambda", 0.0) + own.get("radius.gamma_c", 0.0),
            "radius.bracket_s": own.get("radius.sup_radius", 0.0) + own.get("radius.r_bar_numeric", 0.0),
            "radius.q_s": own.get("radius.q_factor", 0.0),
        }
        out = {name: float(value) / ops * (scale if name.endswith("_s") else 1.0)
               for name, value in values.items()}
        out["problems.jac_per_step"] = names["problems.jacobian"] / steps if steps else 0.0
        out["prox.inner_per_call"] = c["prox.inner_iters"] / prox_calls if prox_calls else 0.0
        out["prox.certified_frac"] = c["prox.certified"] / prox_calls if prox_calls else 0.0
        out["prox.converged_frac"] = c["prox.converged"] / prox_calls if prox_calls else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in PER_LAYER_UNITS}

    def write(self, path, meta: dict):
        """Spans as gzip CSV (op, name, start_ns, end_ns, parent) after a JSON meta line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("# " + json.dumps({**meta, "counts": dict(self.counts)}) + "\n")
            fh.write("op,name,start_ns,end_ns,parent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op},{name},{start},{end},{parent}\n")
