"""Proximal Gauss-Newton outer iteration and convergence diagnostics.

One outer step maps x to prox_J^{H(x)}(x - F'(x)^dag F(x)) with
H(x) = F'(x)^T F'(x); equivalently it minimizes the penalized linearized
objective 1/2 ||F(x) + F'(x)(v - x)||^2 + J(v).  With the zero penalty the
iteration reduces to classical Gauss-Newton.

Each iterate is linearized once: F and J are evaluated once and factorized
once, by the least-squares solve for the Gauss-Newton point, and are shared by
the rank check, the box prox, the step record, the next step and the report.
||F||^2 is formed once, by the finiteness check, and gives the record's
residual norm and the report's objective.  A run ends as left_domain in the
step that reaches an iterate whose F or J is not finite.

Each array is checked once, where it enters: ``solve`` checks x0, ``_evaluate``
every F and J, and ``_gn_core`` z and, by linalg's one rank rule, J's rank.
Inside ``solve``'s loop the private hand-offs carry that trust: ``_linearized``
lets a step take x (the checked start or the previous prox output) as it is,
``_svals`` the prox J and z, and ``_stationarity_at`` the final x, F and J.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .linalg import RankDeficientError, ShapeMismatchError, _as_vector, _require_full_rank
from .prox import InnerConfig, Penalty, prox_metric

__all__ = ["InsufficientDataError", "InvalidPointError", "IterationRecord",
           "JacobianRankDeficientError", "Problem", "SolveReport", "SolveStatus", "SolverConfig",
           "estimate_rate", "gauss_newton_point", "prox_gn_step", "solve", "stationarity_residual"]


class InvalidPointError(Exception):
    """A point left the validity domain or produced non-finite values."""


class JacobianRankDeficientError(RankDeficientError):
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

    def __post_init__(self):
        if not (0 < self.outer_tolerance < math.inf and self.max_outer >= 1):
            raise ValueError("solver configuration values must be positive and finite")


@dataclass(frozen=True)
class IterationRecord:
    """One outer step: the new iterate and the step's diagnostics.

    ``gn_point_feasible``, derived from ``inner_iterations``: the prox took no
    inner iteration, as the Gauss-Newton point was its own prox.
    ``prox_converged`` is False when the prox stopped at its inner iteration
    cap, so the iterate is inexact.
    """

    index: int
    x: np.ndarray
    residual_norm: float
    step_norm: float
    jacobian_condition: float
    inner_iterations: int
    prox_converged: bool = True

    @property
    def gn_point_feasible(self) -> bool:
        return self.inner_iterations == 0


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
    projected_start: bool = False
    stationarity_residual: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _evaluate(problem: Problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(F, J, ||F||^2) at a valid point, with J and ||F||^2 checked finite.

    Shapes that differ from the problem's (m, n) are a misdeclared problem, not
    a property of x, and raise ShapeMismatchError, which ``solve`` lets escape.
    """
    if not problem.validity(x):
        raise InvalidPointError(f"point {x} is outside the validity domain")
    # an overflow in F, J or ||F||^2 ends the run as left_domain, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(problem.residual(x), dtype=float)
        j = np.asarray(problem.jacobian(x), dtype=float)
        if f.shape != (problem.m,) or j.shape != (problem.m, problem.n):
            raise ShapeMismatchError(
                f"residual/jacobian shapes {f.shape}/{j.shape} do not match "
                f"({problem.m},)/({problem.m},{problem.n})"
            )
        if not (math.isfinite(squared_norm := f @ f) and np.isfinite(j).all()):
            raise InvalidPointError("residual norm or jacobian is not finite")
    return f, j, squared_norm


def _gn_core(x: np.ndarray, f: np.ndarray, j: np.ndarray):
    """Gauss-Newton point from one linearization, checked finite: (z, singular values of J)."""
    step, _, _, svals = np.linalg.lstsq(j, f, rcond=None)
    _require_full_rank(svals, JacobianRankDeficientError)
    z = x - step
    if not np.isfinite(z).all():
        raise InvalidPointError("Gauss-Newton point has non-finite entries")
    return z, svals


def gauss_newton_point(problem: Problem, x) -> np.ndarray:
    """z = x - F'(x)^dag F(x), via a least-squares solve."""
    xv = _as_vector(x, problem.n)
    return _gn_core(xv, *_evaluate(problem, xv)[:2])[0]


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

    ``_linearized`` is ``solve``'s hand-off and vouches for ``x``.  Its "fj" is
    (F, J, ||F||^2) at ``x`` when known, replaced by the same at the new
    iterate, or None where that is invalid.
    """
    xv, carry = (_as_vector(x, problem.n), {}) if _linearized is None else (x, _linearized)
    carry["fj"] = carry.get("fj") or _evaluate(problem, xv)
    f, j, _ = carry["fj"]
    z, svals = _gn_core(xv, f, j)
    outcome = prox_metric(penalty, j, z, cfg.inner, _svals=svals)
    x_next = outcome.point
    try:
        carry["fj"] = _evaluate(problem, x_next)
        residual_norm = math.sqrt(carry["fj"][2])
    except InvalidPointError:
        carry["fj"] = None
        residual_norm = float("nan")
    step = x_next - xv
    return x_next, IterationRecord(
        index=index, x=x_next, residual_norm=residual_norm,
        step_norm=math.sqrt(step @ step),
        jacobian_condition=float(svals[0] / svals[-1]),
        inner_iterations=outcome.inner_iterations, prox_converged=outcome.converged)


def solve(problem: Problem, penalty: Penalty, x0, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Iterate prox-GN steps until the step norm drops below tolerance.

    The bound is ``max(outer_tolerance, 2^-49 ||x||)``; the second term,
    8 ulp(1) ||x||, is the rounding floor of a step at x.  The report status
    says why the run ended: convergence, iteration budget, numerical rank
    loss of the Jacobian, or an iterate leaving the validity domain, which
    includes a non-finite F or J there, even at the last allowed step; a
    residual or Jacobian of the wrong shape raises ShapeMismatchError.  A start
    outside dom J is replaced by the penalty's start (a box clamps it) and
    flagged; every later iterate is a prox output, in dom J.
    """
    x_checked = _as_vector(x0, problem.n)
    x = penalty._start(x_checked)
    projected_start = x is not x_checked

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
        if record.step_norm < max(cfg.outer_tolerance, 2.0 ** -49 * math.sqrt(x @ x)):
            status = SolveStatus.CONVERGED
            break
        if linearized["fj"] is None:
            status = SolveStatus.LEFT_DOMAIN
            break

    fj = linearized.get("fj")
    objective = stationarity = float("nan")
    if fj is not None:
        objective = 0.5 * float(fj[2])
        # J^T F can overflow at a rank-loss exit; the stationarity is then inf
        with suppress(JacobianRankDeficientError), np.errstate(over="ignore", invalid="ignore"):
            stationarity = _stationarity_at(penalty, x, *fj[:2])
    return SolveReport(status=status, final_x=x, trace=trace, objective=objective,
                       projected_start=projected_start, stationarity_residual=stationarity)


def _stationarity_at(penalty: Penalty, x: np.ndarray, f: np.ndarray, j: np.ndarray) -> float:
    """stationarity_residual at a checked x with (F, J) = (f, j) at x."""
    return penalty._stationarity(x, j, j.T @ f, lambda: _gn_core(x, f, j))


def stationarity_residual(problem: Problem, penalty: Penalty, x) -> float:
    """Violation of the first-order condition -F'(x)^T F(x) in dJ(x).

    The penalty's ``_stationarity`` hook measures it.  Zero penalty: the
    gradient norm ||F'(x)^T F(x)||.  Box indicator: the norm of the
    componentwise distance of -F'(x)^T F(x) from the normal cone of the box
    at x.  Custom prox: the fixed-point residual ||x - prox_J^H(x - F'(x)^dag
    F(x))||.
    """
    xv = _as_vector(x, problem.n)
    return _stationarity_at(penalty, xv, *_evaluate(problem, xv)[:2])


def estimate_rate(
    trace: list[IterationRecord],
    x_star,
    floor: float = 1e-10,
) -> tuple[float, float]:
    """Empirical convergence rate from a trace.

    With e_n = ||x_n - x*||, returns (q_linear, order) where q_linear is the
    worst tail ratio e_{n+1}/e_n and order is the least-squares slope of
    log e_{n+1} against log e_n over the tail (last four usable pairs).
    Distances at or below ``max(floor, 2^-49 ||x*||)`` are discarded: ``floor``
    defaults to 100x the standard outer tolerance, and the second term is the
    rounding floor of ``solve``'s stop rule at x*.  The usable distances must
    number at least four, be distinct and decrease, otherwise
    InsufficientDataError is raised.
    """
    target = _as_vector(x_star)
    cut = max(floor, 2.0 ** -49 * math.sqrt(target @ target))
    distances = [float(np.linalg.norm(rec.x - target)) for rec in trace]
    usable = [e for e in distances if e > cut]
    if len(usable) < 4:
        raise InsufficientDataError(
            f"need at least 4 usable distances above {cut:.1e}, got {len(usable)}"
        )
    if any(b >= a for a, b in zip(usable, usable[1:])):
        raise InsufficientDataError("usable distances must be strictly decreasing")
    pairs = list(zip(usable, usable[1:]))[-4:]
    q_linear = max(b / a for a, b in pairs)
    log_prev = np.log([a for a, _ in pairs])
    log_next = np.log([b for _, b in pairs])
    order = float(np.polyfit(log_prev, log_next, 1)[0])
    return q_linear, order
