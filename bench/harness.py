"""Workloads, the measured loop and the end-to-end metrics of the proxgn benchmark.

Every workload is a closed loop with one caller.  Ops come in rounds (one
start per case, or one radius draw crossed with every average and mode); a
run stops at the end of the first round after which both ``seconds`` have
passed and ``MIN_OPS`` ops are done, so the mix of ops stays balanced.
"""
from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from proxgn import problems, radius, solver
from proxgn.prox import Box, BoxIndicator, InnerConfig

import oracle
from layers import Tracer, counting_q_calls

# op_ms.p90 needs at least ten samples beyond it
MIN_OPS = 100
# The speed of a shared host drifts by tens of percent between runs a minute
# apart.  Every CALIBRATE_EVERY_S a run times a fixed kernel, made of the
# library's two kinds of work (small numpy calls and Python float arithmetic),
# and reported times are rescaled to the speed at which that kernel takes
# REFERENCE_KERNEL_S.
CALIBRATE_EVERY_S = 0.5
REFERENCE_KERNEL_S = 0.010
# the share of a traced run's time spent re-running ops for trace.overhead_frac
OVERHEAD_SHARE = 0.25
WARMUP_S = 1.0

SOLVE_CASES = ("rosenbrock", "kowalik", "osborne1", "osborne2")
AVERAGE_KINDS = ("constant", "callable", "tabulated")
MODES = ("center", "radius")
# what `proxgn radius` does with its default --samples
Q_TABLE_SAMPLES = 20
TABULATED_KNOTS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_frac": "share",
    "outer_iters.mean": "count",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class SolveOp:
    case: str
    x0: np.ndarray

    @property
    def group(self) -> str:
        return self.case


@dataclass(frozen=True)
class SolveOutput:
    status: str
    x: np.ndarray
    iterations: int


class SolveWorkload:
    """One op is one ``solve`` from one start, as ``proxgn solve`` runs it.

    ``box-sweep`` draws starts uniformly in each case's box by the law of
    ``cli.sample_starts`` (one generator per case, seeded with the workload
    seed), so at seed 7 the first 20 starts of a case are the CLI's.
    ``local-interior`` starts at ``x_ref * (1 + 0.01 u)`` inside the case box
    widened by its own width on each side, which never binds.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cases = {c: problems.get_case(c) for c in SOLVE_CASES}
        self.boxes = {c: case.box if name == "box-sweep" else _widened(case.box)
                      for c, case in self.cases.items()}
        self.penalties = {c: BoxIndicator(box) for c, box in self.boxes.items()}
        self.problems = {c: case.problem for c, case in self.cases.items()}
        # the configuration `proxgn solve` builds from its default flags
        self.config = solver.SolverConfig(
            outer_tolerance=1e-12, max_outer=200,
            inner=InnerConfig(tolerance=1e-12, max_iterations=10_000))

    def rounds(self):
        if self.name == "box-sweep":
            rngs = {c: np.random.default_rng(self.seed) for c in SOLVE_CASES}
            while True:
                yield [SolveOp(c, box.lower + rngs[c].random(box.dimension) * (box.upper - box.lower))
                       for c, box in self.boxes.items()]
        rng = np.random.default_rng(self.seed)
        while True:
            yield [SolveOp(c, case.reference_x * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, case.problem.n)))
                   for c, case in self.cases.items()]

    def run(self, op: SolveOp) -> SolveOutput:
        report = solver.solve(self.problems[op.case], self.penalties[op.case], op.x0, self.config)
        return SolveOutput(report.status.value, report.final_x, report.iterations)

    def check(self, op: SolveOp, out: SolveOutput) -> oracle.Verdict:
        return oracle.check_solve(self.cases[op.case].problem, self.boxes[op.case], out.x, out.status)

    def mean_iterations(self, samples) -> float:
        """Outer steps per converged solve."""
        steps = [out.iterations for _, out, _, _ in samples
                 if isinstance(out, SolveOutput) and out.status == "converged"]
        return float(np.mean(steps)) if steps else math.nan

    def counting(self):
        return nullcontext()

    def traced(self, tracer: Tracer):
        self.problems = {c: tracer.wrap_problem(case.problem) for c, case in self.cases.items()}

    def untraced(self):
        self.problems = {c: case.problem for c, case in self.cases.items()}


def _widened(box: Box) -> Box:
    width = box.upper - box.lower
    return Box(box.lower - width, box.upper + width)


@dataclass(frozen=True)
class RadiusOp:
    alpha: float
    beta: float
    kappa: float
    l0: float
    kind: str
    mode: str
    knots: np.ndarray | None

    @property
    def group(self) -> str:
        return f"{self.kind}/{self.mode}"

    def average(self, u: float) -> float:
        """The Lipschitz average the op describes, evaluated without the library."""
        if self.kind == "constant":
            return self.l0
        if self.kind == "callable":
            return self.l0 * (1.0 + u) ** 2
        return float(np.interp(u, self.knots, self.l0 * (1.0 + self.knots) ** 2))


@dataclass(frozen=True)
class RadiusOutput:
    sup_radius: float
    r_bar: float
    c1: float
    c2: float
    q_table: list


class RadiusWorkload:
    """One op is what ``proxgn radius`` does for one set of constants.

    Draws have kappa in [1, 100] and beta, L(0) in [10^-0.5, 10^0.5], all
    log-uniform; even draws have alpha = 0, odd ones h uniform in [0, 0.9).
    Each draw is crossed with a constant, a callable L0 (1 + u)^2 and a
    9-knot tabulation of that callable over [0, 1/(beta L0)], the largest
    possible sup radius, and with both modes.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.q_calls: Counter = Counter()

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        draw = 0
        while True:
            kappa = 10.0 ** rng.uniform(0.0, 2.0)
            beta = 10.0 ** rng.uniform(-0.5, 0.5)
            l0 = 10.0 ** rng.uniform(-0.5, 0.5)
            alpha = 0.0
            if draw % 2:
                h = rng.uniform(0.0, 0.9)
                alpha = h / ((oracle.SQRT2_PLUS_1 * kappa + 1.0) * beta * beta * l0)
            knots = np.linspace(0.0, 1.0 / (beta * l0), TABULATED_KNOTS)
            draw += 1
            yield [RadiusOp(alpha, beta, kappa, l0, kind, mode,
                            knots if kind == "tabulated" else None)
                   for kind in AVERAGE_KINDS for mode in MODES]

    def _average(self, op: RadiusOp):
        avg = radius.LipschitzAverage
        if op.kind == "constant":
            return avg.constant(op.l0)
        if op.kind == "callable":
            l0 = op.l0
            return avg.from_callable(lambda u: l0 * (1.0 + u) ** 2)
        return avg.tabulated(op.knots, op.l0 * (1.0 + op.knots) ** 2)

    def run(self, op: RadiusOp) -> RadiusOutput:
        constants = radius.ProblemConstants(alpha=op.alpha, beta=op.beta, kappa=op.kappa)
        average = self._average(op)
        mode = radius.LipschitzMode(op.mode)
        radius.check_small_residual(constants, average(0.0))
        summary = radius.convergence_radius(constants, average, mode)
        c1, c2 = radius.contraction_constants(constants, average, mode, summary.r_bar / 2.0)
        top = min(summary.r_bar, summary.sup_radius * (1.0 - 1e-9))
        table = [radius.q_factor(constants, average, mode, float(r))
                 for r in np.linspace(0.0, top, Q_TABLE_SAMPLES)]
        return RadiusOutput(summary.sup_radius, summary.r_bar, c1, c2, table)

    def check(self, op: RadiusOp, out: RadiusOutput) -> oracle.Verdict:
        return oracle.check_radius(op, out)

    def mean_iterations(self, samples) -> float:
        """q(r) evaluations per op: root bracketing, bisection and the q table."""
        return self.q_calls["q"] / len(samples)

    def counting(self):
        self.q_calls.clear()
        return counting_q_calls(self.q_calls)

    def traced(self, tracer: Tracer):
        pass

    def untraced(self):
        pass


WORKLOADS = ("box-sweep", "local-interior", "radius-mix")


def make_workload(name: str, seed: int):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return RadiusWorkload(seed) if name == "radius-mix" else SolveWorkload(name, seed)


def _run_op(workload, op, tracer=None, op_id=-1):
    """(output or exception, seconds); a raising op is a failed op, not a crash."""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # the benchmark reports the failure and keeps measuring
        out = exc
        traceback.print_exc(file=sys.stderr)
    return out, time.perf_counter() - start


_KERNEL_A = np.linspace(1.0, 2.0, 65 * 11).reshape(65, 11) ** 2
_KERNEL_B = np.linspace(0.0, 1.0, 65)


def calibration_kernel() -> float:
    m = np.eye(11) * 0.5
    v = np.ones(11)
    nxt = np.empty(11)
    for _ in range(750):
        np.dot(m, v, out=nxt)
        nxt += 0.1
        np.clip(nxt, 0.0, 2.0, out=nxt)
        v, nxt = nxt, v
    for _ in range(50):
        np.linalg.lstsq(_KERNEL_A, _KERNEL_B, rcond=None)
    total = 0.0
    for i in range(10_000):
        u = i * 1e-3
        total += (1.0 + u) ** 2
    return total + float(v[0])


def measure(workload, seconds: float, min_ops: int = MIN_OPS, tracer=None):
    """Run whole rounds for at least ``seconds`` and ``min_ops``.

    Returns the samples (op, output, seconds, round) and the host scale:
    REFERENCE_KERNEL_S over the median time of the calibration kernel,
    which runs between ops every CALIBRATE_EVERY_S.
    """
    samples, kernel_s = [], []
    begin = time.perf_counter()
    calibrated = -math.inf
    for index, ops in enumerate(workload.rounds()):
        for op in ops:
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                calibrated = time.perf_counter()
                calibration_kernel()
                kernel_s.append(time.perf_counter() - calibrated)
            out, dt = _run_op(workload, op, tracer, len(samples))
            samples.append((op, out, dt, index))
        if time.perf_counter() - begin >= seconds and len(samples) >= min_ops:
            return samples, REFERENCE_KERNEL_S / statistics.median(kernel_s)


def warm_up(workload):
    """Run first-round ops untimed for about WARMUP_S, paying lazy initialisation."""
    begin = time.perf_counter()
    for op in next(workload.rounds()):
        _run_op(workload, op)
        if time.perf_counter() - begin >= WARMUP_S:
            return


def verify(workload, samples) -> tuple[list[oracle.Verdict], bool]:
    """Check every output outside the timing; (verdicts, correct)."""
    verdicts = []
    for op, out, _, _ in samples:
        if isinstance(out, Exception):
            verdicts.append(oracle.Verdict(False, False, f"raised {out!r}"))
        else:
            verdicts.append(workload.check(op, out))
    return verdicts, all(v.sound for v in verdicts)


def run_untraced(workload, seconds: float, min_ops: int = MIN_OPS):
    """End-to-end run: (samples, host scale, peak RSS in MB before the checks load scipy)."""
    warm_up(workload)
    with workload.counting():
        samples, scale = measure(workload, seconds, min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return samples, scale, peak_rss_mb


def end_to_end(workload, samples, scale: float, verdicts, setup_s: float, peak_rss_mb: float) -> dict:
    """Times at reference speed (scaled by ``scale``).

    Every run holds the same number of ops of each group (case, or average
    and mode), so ``op_ms.p50`` is the median of the groups' median op times:
    the median of all ops can fall in the gap between two groups and jump
    between them from run to run.  ``ops_per_s`` is the median over rounds,
    so one stalled round does not move it.  ``op_ms.p90`` is over all ops.
    """
    times_ms = np.array([dt for _, _, dt, _ in samples]) * 1e3 * scale
    groups: dict[str, list[float]] = {}
    for (op, *_), ms in zip(samples, times_ms):
        groups.setdefault(op.group, []).append(ms)
    rounds = np.split(times_ms, np.flatnonzero(np.diff([index for *_, index in samples])) + 1)
    return {
        "setup_s": setup_s * scale,
        "ops_per_s": float(np.median([len(r) / (r.sum() * 1e-3) for r in rounds])),
        "op_ms.p50": float(np.median([np.median(g) for g in groups.values()])),
        "op_ms.p90": float(np.percentile(times_ms, 90)),
        "ok_frac": sum(v.ok for v in verdicts) / len(samples),
        "outer_iters.mean": workload.mean_iterations(samples),
        "peak_rss_mb": peak_rss_mb,
    }


def run_traced(workload, seconds: float, min_ops: int = MIN_OPS):
    """Traced run: (tracer, samples, host scale, trace overhead).

    The overhead comes from re-running the first ops twice more, traced into
    a throwaway tracer and untraced, alternating which goes first, until the
    pairs have taken OVERHEAD_SHARE of the traced run's time.
    """
    warm_up(workload)
    tracer = Tracer()
    with _traced(workload, tracer):
        samples, scale = measure(workload, seconds, min_ops, tracer)
    budget = OVERHEAD_SHARE * sum(dt for _, _, dt, _ in samples)
    traced_s = untraced_s = 0.0
    for index, (op, *_) in enumerate(samples):
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                with _traced(workload, Tracer()):
                    traced_s += _run_op(workload, op)[1]
            else:
                untraced_s += _run_op(workload, op)[1]
        if traced_s + untraced_s >= budget:
            break
    return tracer, samples, scale, traced_s / untraced_s - 1.0


@contextmanager
def _traced(workload, tracer: Tracer):
    workload.traced(tracer)
    try:
        with tracer.installed():
            yield
    finally:
        workload.untraced()


def fail_counts(verdicts) -> Counter:
    """Failure reasons, the status or check that rejected each failed op."""
    return Counter(v.reason.split(" ")[0] for v in verdicts if not v.ok)
