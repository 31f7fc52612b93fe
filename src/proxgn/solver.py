"""Proximal Gauss-Newton outer iteration and convergence diagnostics.

One outer step maps x to prox_J^{H(x)}(x - F'(x)^dag F(x)) with
H(x) = F'(x)^T F'(x); equivalently it minimizes the penalized linearized
objective 1/2 ||F(x) + F'(x)(v - x)||^2 + J(v).  With the zero penalty the
iteration reduces to classical Gauss-Newton.

Each iterate is linearized once: F and J are evaluated once and factorized
once, by the least-squares solve for the Gauss-Newton point, and are shared by
the rank check, the box prox, the step record, the next step and the report.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .linalg import DEFAULT_RANK_TOLERANCE, as_vector
from .prox import (
    BoxIndicator,
    CustomProx,
    InnerConfig,
    Penalty,
    ZeroPenalty,
    normal_cone_gap,
    project_box,
    prox_metric,
)


class InvalidPointError(Exception):
    """A point left the validity domain or produced non-finite values."""


class JacobianRankDeficientError(Exception):
    """F'(x) lost numerical column rank."""


class InsufficientDataError(Exception):
    """Too few usable iterates to estimate a convergence rate."""


def _always_valid(_x) -> bool:
    return True


@dataclass(frozen=True)
class Problem:
    """A residual map F: R^n -> R^m (m >= n) with analytic Jacobian.

    ``residual`` already includes any data shift, so the objective is
    1/2 ||residual(x)||^2.  ``validity`` delimits the open domain on which
    residual and jacobian may be evaluated.
    """

    n: int
    m: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    validity: Callable[[np.ndarray], bool] = _always_valid
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class SolverConfig:
    outer_tolerance: float = 1e-12
    max_outer: int = 200
    inner: InnerConfig = field(default_factory=InnerConfig)
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE

    def __post_init__(self):
        if self.outer_tolerance <= 0 or self.max_outer < 1 or self.rank_tolerance <= 0:
            raise ValueError("solver configuration values must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One outer step: the new iterate and the step's diagnostics.

    ``prox_converged`` is False when the step's prox stopped at its inner
    iteration cap, so the iterate is inexact.
    """

    index: int
    x: np.ndarray
    residual_norm: float
    step_norm: float
    jacobian_condition: float
    inner_iterations: int
    gn_point_feasible: bool
    prox_converged: bool = True


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    JACOBIAN_RANK_DEFICIENT = "jacobian_rank_deficient"
    LEFT_DOMAIN = "left_domain"


@dataclass
class SolveReport:
    status: SolveStatus
    final_x: np.ndarray
    trace: list[IterationRecord]
    objective: float
    penalty_feasible: bool
    projected_start: bool = False
    stationarity_residual: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _evaluate(problem: Problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Jacobian at a valid point, with finiteness checks."""
    if not problem.validity(x):
        raise InvalidPointError(f"point {x} is outside the validity domain")
    f = np.asarray(problem.residual(x), dtype=float)
    j = np.asarray(problem.jacobian(x), dtype=float)
    if f.shape != (problem.m,) or j.shape != (problem.m, problem.n):
        raise InvalidPointError(
            f"residual/jacobian shapes {f.shape}/{j.shape} do not match "
            f"({problem.m},)/({problem.m},{problem.n})"
        )
    if not (np.isfinite(f).all() and np.isfinite(j).all()):
        raise InvalidPointError("residual or jacobian produced non-finite values")
    return f, j


def _gn_core(x: np.ndarray, f: np.ndarray, j: np.ndarray, rank_tol: float):
    """Gauss-Newton point from one linearization: returns (z, singular values of J)."""
    step, _, _, svals = np.linalg.lstsq(j, f, rcond=None)
    if svals[0] == 0.0 or svals[-1] <= rank_tol * svals[0]:
        raise JacobianRankDeficientError(
            f"sigma_min={svals[-1]:.3e} <= {rank_tol:.1e} * sigma_max={svals[0]:.3e}"
        )
    return x - step, svals


def gauss_newton_point(problem: Problem, x, rank_tol: float = DEFAULT_RANK_TOLERANCE) -> np.ndarray:
    """z = x - F'(x)^dag F(x), via a least-squares solve."""
    xv = as_vector(x, problem.n)
    return _gn_core(xv, *_evaluate(problem, xv), rank_tol)[0]


def prox_gn_step(
    problem: Problem,
    penalty: Penalty,
    x,
    cfg: SolverConfig = SolverConfig(),
    index: int = 0,
    *,
    _linearized: dict | None = None,
) -> tuple[np.ndarray, IterationRecord]:
    """One proximal Gauss-Newton step with its iteration record.

    ``_linearized["fj"]`` is ``solve``'s hand-off: (F, J) at ``x`` when known,
    replaced by (F, J) at the new iterate, or None where that is invalid.
    """
    xv = as_vector(x, problem.n)
    carry = {} if _linearized is None else _linearized
    carry["fj"] = carry.get("fj") or _evaluate(problem, xv)
    f, j = carry["fj"]
    z, svals = _gn_core(xv, f, j, cfg.rank_tolerance)
    outcome = prox_metric(penalty, j, z, cfg.inner, _svals=svals)
    x_next = outcome.point
    feasible_z = isinstance(penalty, ZeroPenalty) or (
        isinstance(penalty, BoxIndicator) and outcome.inner_iterations == 0)
    try:
        carry["fj"] = _evaluate(problem, x_next)
        residual_norm = float(np.linalg.norm(carry["fj"][0]))
    except InvalidPointError:
        carry["fj"] = None
        residual_norm = float("nan")
    return x_next, IterationRecord(
        index=index, x=x_next, residual_norm=residual_norm,
        step_norm=float(np.linalg.norm(x_next - xv)),
        jacobian_condition=float(svals[0] / svals[-1]),
        inner_iterations=outcome.inner_iterations, gn_point_feasible=feasible_z,
        prox_converged=outcome.converged)


def solve(problem: Problem, penalty: Penalty, x0, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Iterate prox-GN steps until the step norm drops below tolerance.

    Terminal conditions are encoded in the report status: convergence,
    iteration budget, numerical rank loss of the Jacobian, or an iterate
    leaving the validity domain.  An infeasible start for a box penalty is
    projected onto the box first and flagged.
    """
    x = as_vector(x0, problem.n)
    projected_start = isinstance(penalty, BoxIndicator) and not penalty.box.contains(x)
    if projected_start:
        x = project_box(x, penalty.box)

    trace: list[IterationRecord] = []
    status = SolveStatus.MAX_ITERATIONS
    linearized: dict = {}
    for n in range(1, cfg.max_outer + 1):
        try:
            x_next, record = prox_gn_step(problem, penalty, x, cfg, index=n, _linearized=linearized)
        except JacobianRankDeficientError:
            status = SolveStatus.JACOBIAN_RANK_DEFICIENT
            break
        except InvalidPointError:
            status = SolveStatus.LEFT_DOMAIN
            break
        trace.append(record)
        x = x_next
        if record.step_norm < cfg.outer_tolerance:
            status = SolveStatus.CONVERGED
            break

    fj = linearized.get("fj")
    objective = stationarity = float("nan")
    if fj is not None:
        objective = 0.5 * float(fj[0] @ fj[0])
        with suppress(JacobianRankDeficientError):
            stationarity = stationarity_residual(problem, penalty, x, cfg.rank_tolerance, _fj=fj)
    feasible = (not isinstance(penalty, BoxIndicator)
                or penalty.box.contains(x, atol=cfg.inner.tolerance))
    return SolveReport(status=status, final_x=x, trace=trace, objective=objective,
                       penalty_feasible=feasible, projected_start=projected_start,
                       stationarity_residual=stationarity)


def stationarity_residual(
    problem: Problem,
    penalty: Penalty,
    x,
    rank_tol: float = DEFAULT_RANK_TOLERANCE,
    *,
    _fj: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Violation of the first-order condition -F'(x)^T F(x) in dJ(x).

    Zero penalty: the gradient norm ||F'(x)^T F(x)||.  Box indicator: the
    norm of the componentwise distance of -F'(x)^T F(x) from the normal
    cone of the box at x.  Custom prox: the fixed-point residual
    ||x - prox_J^H(x - F'(x)^dag F(x))||.  ``_fj`` is (F, J) at x when the
    caller already has it.
    """
    xv = as_vector(x, problem.n)
    f, j = _evaluate(problem, xv) if _fj is None else _fj
    gradient = j.T @ f
    if isinstance(penalty, ZeroPenalty):
        return float(np.linalg.norm(gradient))
    if isinstance(penalty, BoxIndicator):
        gap = normal_cone_gap(-gradient, penalty.box, xv, atol=1e-14)
        return float(np.linalg.norm(gap))
    z, svals = _gn_core(xv, f, j, rank_tol)
    outcome = prox_metric(penalty, j, z, _svals=svals)
    return float(np.linalg.norm(xv - outcome.point))


def estimate_rate(
    trace: list[IterationRecord],
    x_star,
    floor: float = 1e-10,
) -> tuple[float, float]:
    """Empirical convergence rate from a trace.

    With e_n = ||x_n - x*||, returns (q_linear, order) where q_linear is the
    worst tail ratio e_{n+1}/e_n and order is the least-squares slope of
    log e_{n+1} against log e_n over the tail (last four usable pairs).
    Distances at or below ``floor`` (default 100x the standard outer
    tolerance) are discarded; the usable distances must number at least four,
    be distinct and decrease, otherwise InsufficientDataError is raised.
    """
    target = as_vector(x_star)
    distances = [float(np.linalg.norm(rec.x - target)) for rec in trace]
    usable = [e for e in distances if e > floor]
    if len(usable) < 4:
        raise InsufficientDataError(
            f"need at least 4 usable distances above {floor:.1e}, got {len(usable)}"
        )
    if any(b >= a for a, b in zip(usable, usable[1:])):
        raise InsufficientDataError("usable distances must be strictly decreasing")
    pairs = list(zip(usable, usable[1:]))[-4:]
    q_linear = max(b / a for a, b in pairs)
    log_prev = np.log([a for a, _ in pairs])
    log_next = np.log([b for _, b in pairs])
    order = float(np.polyfit(log_prev, log_next, 1)[0])
    return q_linear, order
