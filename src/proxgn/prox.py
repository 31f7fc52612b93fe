"""Proximity operators in the variable metric H = A^T A.

The metric prox of a penalty J at z is argmin_v { J(v) + 1/2 ||v - z||_H^2 }.
For the zero penalty it is the identity.  For a box indicator it is z
itself when z lies in the box, and otherwise the bounded least-squares
problem min ||A(v - z)|| over the box, solved exactly by bounded-variable
least squares (BVLS, Stark & Parker 1995, extending the NNLS method of
Lawson & Hanson 1974) and certified once, by its KKT gap at the returned
point.  For custom penalties it is computed by the projected-gradient
(forward-backward) inner iteration

    v_{k+1} = P(v_k - sigma * H (v_k - z)),

where P is the identity-metric prox of the penalty and sigma = 1/||H||.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import RankDeficientError, ShapeMismatchError, _as_matrix, _as_vector, pseudoinverse

__all__ = ["Box", "BoxIndicator", "CustomProx", "InnerConfig", "Penalty", "ProxOutcome",
           "ZeroPenalty", "normal_cone_gap", "project_box", "prox_metric", "prox_via_pullback"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with extended-real bounds, lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != up.shape or lo.size == 0:
            raise ShapeMismatchError("bounds must be 1-d arrays of equal nonzero length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo > up):
            raise ValueError("every lower bound must be <= its upper bound")
        if np.any(lo == np.inf) or np.any(up == -np.inf):
            raise ValueError("box contains no finite point")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, atol: float = 0.0) -> bool:
        v = _as_vector(x, self.dimension)
        return bool(np.all(v >= self.lower - atol) and np.all(v <= self.upper + atol))


@dataclass(frozen=True)
class InnerConfig:
    """Inner solver controls.

    ``max_iterations`` caps the BVLS iterations of a box prox (one
    least-squares solve and at most one active-set change each) and the
    projected-gradient steps of a custom prox, whose step sigma = 1/||H||
    comes from the singular values of A.  ``tolerance`` bounds the
    last projected-gradient step of a custom prox; the box prox is exact and
    does not read it.
    """

    tolerance: float = 1e-12
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ProxOutcome:
    """Result of a metric-prox evaluation.

    ``kkt_gap`` is the box certificate ||normal_cone_gap(A^T A(z - p), box, p)||,
    computed once at the returned point p (0 when z is feasible, so p = z);
    it is 0 for the zero penalty and NaN for custom penalties.
    """

    point: np.ndarray
    inner_iterations: int
    converged: bool
    kkt_gap: float = float("nan")


def project_box(z, box: Box) -> np.ndarray:
    """Componentwise clamp of z onto the box (identity-metric projection)."""
    v = _as_vector(z, box.dimension)
    return np.minimum(np.maximum(v, box.lower), box.upper)


def normal_cone_gap(v, box: Box, x, atol: float = 0.0) -> np.ndarray:
    """Componentwise distance of v from the normal cone of the box at x.

    Coordinates within ``atol * (1 + |x|)`` of a bound may point outward;
    everywhere else the cone is {0} and the gap is v itself.  An infinite
    bound is never within reach, since x is finite.
    """
    g = _as_vector(v, box.dimension).copy()
    p = _as_vector(x, box.dimension)
    return _cone_gap(g, box, p, atol)


def _cone_gap(g: np.ndarray, box: Box, p: np.ndarray, atol: float) -> np.ndarray:
    """normal_cone_gap(g, box, p, atol) for checked inputs, overwriting g."""
    slack = atol * (1.0 + np.abs(p))
    np.maximum(g, 0.0, out=g, where=p - box.lower <= slack)
    np.minimum(g, 0.0, out=g, where=box.upper - p <= slack)
    return g


class Penalty:
    """A convex penalty J, known to the solver only through three hooks.

    ``_prox(mat, point, svals, cfg)`` is prox_J^H(point), H = mat^T mat, for
    checked inputs and a full-rank ``mat`` with singular values ``svals``.
    ``_stationarity(x, j, gradient, gn_point)`` is the violation of
    -gradient in dJ(x); ``gn_point()`` gives (z, singular values of j).
    ``_start(x)`` is a point of dom J: x itself when x lies there.
    """

    def _start(self, x: np.ndarray) -> np.ndarray:
        return x


@dataclass(frozen=True)
class ZeroPenalty(Penalty):
    """J = 0; the prox is the identity in every metric."""

    def _prox(self, mat, point, svals, cfg):
        return ProxOutcome(point=point, inner_iterations=0, converged=True, kkt_gap=0.0)

    def _stationarity(self, x, j, gradient, gn_point):
        return float(np.linalg.norm(gradient))


@dataclass(frozen=True)
class BoxIndicator(Penalty):
    """J = indicator of a box; the prox is the H-metric projection."""

    box: Box

    def _check_length(self, x):
        if self.box.dimension != x.shape[0]:
            raise ShapeMismatchError(f"box has dimension {self.box.dimension}, point has length {x.shape[0]}")

    def _start(self, x):
        self._check_length(x)
        box = self.box
        if ((box.lower <= x) & (x <= box.upper)).all():
            return x
        return np.minimum(np.maximum(x, box.lower), box.upper)

    def _prox(self, mat, point, svals, cfg):
        start = self._start(point)
        if start is point:
            return ProxOutcome(point=point, inner_iterations=0, converged=True, kkt_gap=0.0)
        p, k, converged = _bvls(mat, point, start, self.box, cfg.max_iterations)
        g = _cone_gap(mat.T @ (mat @ (point - p)), self.box, p, 0.0)
        return ProxOutcome(point=p, inner_iterations=k, converged=converged,
                           kkt_gap=math.sqrt(g @ g))

    def _stationarity(self, x, j, gradient, gn_point):
        self._check_length(x)
        g = _cone_gap(-gradient, self.box, x, 1e-14)
        return math.sqrt(g @ g)


@dataclass(frozen=True)
class CustomProx(Penalty):
    """User-supplied identity-metric prox (must be firmly nonexpansive)."""

    prox_identity: Callable[[np.ndarray], np.ndarray]

    def _prox(self, mat, point, svals, cfg):
        h = mat.T @ mat
        sigma = 1.0 / float(svals[0]) ** 2
        v = point.copy()
        for k in range(1, cfg.max_iterations + 1):
            v_next = _as_vector(self.prox_identity(v - sigma * (h @ (v - point))), point.shape[0])
            delta = float(np.linalg.norm(v_next - v))
            v = v_next
            if delta < cfg.tolerance:
                return ProxOutcome(point=v, inner_iterations=k, converged=True)
        return ProxOutcome(point=v, inner_iterations=cfg.max_iterations, converged=False)

    def _stationarity(self, x, j, gradient, gn_point):
        z, svals = gn_point()
        return float(np.linalg.norm(x - self._prox(j, z, svals, InnerConfig()).point))


def prox_metric(penalty: Penalty, a, z, cfg: InnerConfig = InnerConfig(), *,
                _svals: np.ndarray | None = None) -> ProxOutcome:
    """prox_J^H(z) for H = A^T A, A with full column rank.

    A singular A raises RankDeficientError for every penalty.  The penalty's
    ``_prox`` hook does the rest; a box penalty returns a feasible z
    unchanged with zero inner iterations, and a custom penalty's loop steps
    by sigma = 1/||H|| = 1/sigma_max(A)^2.  Non-convergence within the
    iteration budget is reported through ``converged``, never raised.
    ``_svals``, the singular values of ``a`` from a caller that has
    factorized ``a`` and so checked it and ``z``, spares a second
    factorization and both checks: the returned point may then be ``z``
    itself.  Without it ``z`` is copied.
    """
    mat, point = (a, z) if _svals is not None else (_as_matrix(a), _as_vector(z).copy())
    if point.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(
            f"point has length {point.shape[0]}, metric expects {mat.shape[1]}"
        )
    svals = np.linalg.svd(mat, compute_uv=False) if _svals is None else _svals
    if svals[-1] == 0.0:
        raise RankDeficientError("metric matrix A^T A is singular")
    return penalty._prox(mat, point, svals, cfg)


def _bvls(mat, z, start, box: Box, max_iterations: int):
    """Bounded-variable least squares: min ||A d|| over d = v - z in the box.

    Primal active set from the clamped point.  Each iteration solves the
    least-squares problem on the free set and makes at most one active-set
    change: a solution that leaves the box is stepped back to the first bound
    it hits and that variable is fixed; otherwise the bound variable whose
    multiplier -A^T A d has the wrong sign the most is freed.  The loop stops
    when no multiplier has the wrong sign, or when a freeing failed to lower
    ||A d||, which means the sign was rounding noise.  Returns (point,
    iterations, converged).
    """
    lower, upper = box.lower - z, box.upper - z
    d = start - z
    # -1 fixed at the lower bound, +1 at the upper bound, 0 free
    side = np.where(start <= box.lower, -1, np.where(start >= box.upper, 1, 0))
    cost = np.inf
    converged = False
    for k in range(1, max_iterations + 1):
        free = np.flatnonzero(side == 0)
        d_bound = np.where(side == 0, 0.0, d)
        s = np.linalg.lstsq(mat[:, free], -(mat @ d_bound), rcond=None)[0]
        move = s - d[free]
        below, above = s < lower[free], s > upper[free]
        hit = np.flatnonzero(below | above)
        if hit.size:
            target = np.where(below, lower[free], upper[free])[hit]
            alphas = (target - d[free[hit]]) / move[hit]
            i = int(np.argmin(alphas))
            d[free] += alphas[i] * move
            np.clip(d, lower, upper, out=d)
            d[free[hit[i]]] = target[i]
            side[free[hit[i]]] = -1 if below[hit[i]] else 1
            continue
        d[free] = s
        residual = mat @ d
        new_cost = float(residual @ residual)
        violation = side * (mat.T @ residual)
        violation[box.lower == box.upper] = 0.0
        j = int(np.argmax(violation))
        converged = violation[j] <= 0.0 or new_cost >= cost
        if converged:
            break
        cost = new_cost
        side[j] = 0
    point = np.where(side < 0, box.lower,
                     np.where(side > 0, box.upper, np.clip(z + d, box.lower, box.upper)))
    return point, k, converged


def prox_via_pullback(prox_composed: Callable[[np.ndarray], np.ndarray], a, z) -> np.ndarray:
    """Pull-back identity: prox_phi^H(z) = A^dag prox_{phi o A^dag}(A z).

    ``prox_composed`` must evaluate the identity-metric prox of phi o A^dag
    on the range space; A^dag is ``pseudoinverse(a)``, so ``a`` must be
    injective.
    """
    mat = _as_matrix(a)
    x = _as_vector(z, mat.shape[1])
    lifted = _as_vector(prox_composed(mat @ x), mat.shape[0])
    return pseudoinverse(mat) @ lifted
