"""Proximity operators in the variable metric H = A^T A.

The metric prox of a penalty J at z is argmin_v { J(v) + 1/2 ||v - z||_H^2 }.
For the zero penalty it is the identity.  For a box indicator it is the
bounded least-squares problem min ||A(v - z)|| over the box, solved exactly
by bounded-variable least squares (BVLS, Stark & Parker 1995, extending the
NNLS method of Lawson & Hanson 1974).  For custom penalties it is computed
by the projected-gradient (forward-backward) inner iteration

    v_{k+1} = P(v_k - sigma * H (v_k - z)),

where P is the identity-metric prox of the penalty and sigma < 2/||H||.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linalg import RankDeficientError, ShapeMismatchError, as_matrix, as_vector


class DimensionMismatchError(Exception):
    """Vector length does not match the expected dimension."""


class StepTooLargeError(Exception):
    """Fixed inner step size violates sigma < 2/||H||."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with extended-real bounds, lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != up.shape or lo.size == 0:
            raise DimensionMismatchError("bounds must be 1-d arrays of equal nonzero length")
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
        v = as_vector(x, self.dimension)
        return bool(np.all(v >= self.lower - atol) and np.all(v <= self.upper + atol))


@dataclass(frozen=True)
class ZeroPenalty:
    """J = 0; the prox is the identity in every metric."""


@dataclass(frozen=True)
class BoxIndicator:
    """J = indicator of a box; the prox is the H-metric projection."""

    box: Box


@dataclass(frozen=True)
class CustomProx:
    """User-supplied identity-metric prox (must be firmly nonexpansive)."""

    prox_identity: Callable[[np.ndarray], np.ndarray]
    description: str = ""


Penalty = Union[ZeroPenalty, BoxIndicator, CustomProx]


@dataclass(frozen=True)
class InnerConfig:
    """Inner solver controls.

    ``max_iterations`` caps the BVLS iterations of a box prox (one
    least-squares solve and at most one active-set change each) and the
    projected-gradient steps of a custom prox.  ``tolerance`` scales the box
    short-circuit's certificate slack and bounds the last projected-gradient
    step.  ``step_size`` None selects sigma = 1/||H||; a fixed value must
    satisfy 0 < sigma < 2/||H|| at call time; only custom proxes use it.
    """

    tolerance: float = 1e-12
    max_iterations: int = 10_000
    step_size: float | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("fixed step size must be positive")


@dataclass(frozen=True)
class ProxOutcome:
    """Result of a metric-prox evaluation.

    ``kkt_gap`` is the box certificate ||normal_cone_gap(A^T A(z - p), box, p)||;
    it is 0 for the zero penalty and NaN for custom penalties.
    """

    point: np.ndarray
    inner_iterations: int
    converged: bool
    final_step_delta: float
    kkt_gap: float = float("nan")


def project_box(z, box: Box) -> np.ndarray:
    """Componentwise clamp of z onto the box (identity-metric projection)."""
    v = as_vector(z)
    if v.shape[0] != box.dimension:
        raise DimensionMismatchError(f"point has length {v.shape[0]}, box has {box.dimension}")
    return np.minimum(np.maximum(v, box.lower), box.upper)


def is_firmly_nonexpansive(fn, dim: int, samples: int = 64, seed: int = 0,
                           scale: float = 1.0, slack: float = 1e-10) -> bool:
    """Sample-test ||p1 - p2||^2 <= <p1 - p2, z1 - z2> on random pairs.

    A valid prox of a convex function satisfies this for every pair; use it
    to vet a CustomProx candidate before handing it to the solver.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        z1 = scale * rng.standard_normal(dim)
        z2 = scale * rng.standard_normal(dim)
        p1 = as_vector(fn(z1), dim)
        p2 = as_vector(fn(z2), dim)
        d = p1 - p2
        if float(d @ d) > float(d @ (z1 - z2)) + slack:
            return False
    return True


def normal_cone_gap(v, box: Box, x, atol: float = 0.0) -> np.ndarray:
    """Componentwise distance of v from the normal cone of the box at x.

    Coordinates within ``atol * (1 + |x|)`` of a bound may point outward;
    everywhere else the cone is {0} and the gap is v itself.  An infinite
    bound is never within reach, since x is finite.
    """
    g = as_vector(v).copy()
    p = as_vector(x, box.dimension)
    if g.shape[0] != box.dimension:
        raise DimensionMismatchError("gap vector and box dimensions differ")
    slack = atol * (1.0 + np.abs(p))
    at_lower = p - box.lower <= slack
    at_upper = box.upper - p <= slack
    g[at_lower] = np.maximum(g[at_lower], 0.0)
    g[at_upper] = np.minimum(g[at_upper], 0.0)
    return g


def prox_metric(penalty: Penalty, a, z, cfg: InnerConfig = InnerConfig(), *,
                _svals: np.ndarray | None = None) -> ProxOutcome:
    """prox_J^H(z) for H = A^T A, A with full column rank.

    Box penalties start from the clamped point and return it with zero inner
    iterations when it already satisfies the metric optimality certificate
    A^T A(z - p) in N_box(p); this covers the feasible-z case exactly.
    Otherwise BVLS solves the box prox exactly.  H itself is formed only for
    custom penalties.  Non-convergence within the iteration budget is
    reported through ``converged``, never raised.  ``_svals``, the singular
    values of ``a`` when the caller has already factorized it, spares a
    second factorization.
    """
    mat = as_matrix(a)
    point = as_vector(z)
    if point.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(
            f"point has length {point.shape[0]}, metric expects {mat.shape[1]}"
        )
    if isinstance(penalty, ZeroPenalty):
        return ProxOutcome(point=point.copy(), inner_iterations=0, converged=True,
                           final_step_delta=0.0, kkt_gap=0.0)

    svals = np.linalg.svd(mat, compute_uv=False) if _svals is None else _svals
    if svals[-1] == 0.0:
        raise RankDeficientError("metric matrix A^T A is singular")
    norm_h = float(svals[0]) ** 2
    sigma = cfg.step_size if cfg.step_size is not None else 1.0 / norm_h
    if cfg.step_size is not None and sigma >= 2.0 / norm_h:
        raise StepTooLargeError(f"sigma={sigma:.3e} >= 2/||H||={2.0 / norm_h:.3e}")

    if isinstance(penalty, BoxIndicator):
        box = penalty.box
        if box.dimension != point.shape[0]:
            raise DimensionMismatchError("box and point dimensions differ")
        p, k, converged, delta = project_box(point, box), 0, True, 0.0
        gap = float(np.linalg.norm(normal_cone_gap(mat.T @ (mat @ (point - p)), box, p)))
        # certificate slack tol*sigma_min^2 keeps the clamped p within tol of the prox
        if gap > cfg.tolerance * float(svals[-1]) ** 2:
            p, k, converged, delta = _bvls(mat, point, p, box, cfg.max_iterations)
            gap = float(np.linalg.norm(normal_cone_gap(mat.T @ (mat @ (point - p)), box, p)))
        return ProxOutcome(point=p, inner_iterations=k, converged=converged,
                           final_step_delta=delta, kkt_gap=gap)

    h = mat.T @ mat
    v = point.copy()
    apply_prox = penalty.prox_identity
    delta = np.inf
    for k in range(1, cfg.max_iterations + 1):
        v_next = as_vector(apply_prox(v - sigma * (h @ (v - point))), point.shape[0])
        delta = float(np.linalg.norm(v_next - v))
        v = v_next
        if delta < cfg.tolerance:
            return ProxOutcome(point=v, inner_iterations=k, converged=True,
                               final_step_delta=delta)
    return ProxOutcome(point=v, inner_iterations=cfg.max_iterations, converged=False,
                       final_step_delta=delta)


def _bvls(mat, z, start, box: Box, max_iterations: int):
    """Bounded-variable least squares: min ||A d|| over d = v - z in the box.

    Primal active set from the clamped point.  Each iteration solves the
    least-squares problem on the free set and makes at most one active-set
    change: a solution that leaves the box is stepped back to the first bound
    it hits and that variable is fixed; otherwise the bound variable whose
    multiplier -A^T A d has the wrong sign the most is freed.  The loop stops
    when no multiplier has the wrong sign, or when a freeing failed to lower
    ||A d||, which means the sign was rounding noise.  Returns (point,
    iterations, converged, length of the last move).
    """
    lower, upper = box.lower - z, box.upper - z
    d = start - z
    # -1 fixed at the lower bound, +1 at the upper bound, 0 free
    side = np.where(start <= box.lower, -1, np.where(start >= box.upper, 1, 0))
    cost = delta = np.inf
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
            delta = float(alphas[i] * np.linalg.norm(move))
            continue
        d[free] = s
        delta = float(np.linalg.norm(move))
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
    return point, k, converged, delta


def prox_via_pullback(prox_composed: Callable[[np.ndarray], np.ndarray], a, pinv, z) -> np.ndarray:
    """Pull-back identity: prox_phi^H(z) = A^dag prox_{phi o A^dag}(A z).

    ``prox_composed`` must evaluate the identity-metric prox of phi o A^dag
    on the range space; ``pinv`` must be the pseudoinverse of ``a``.
    """
    mat = as_matrix(a)
    p = as_matrix(pinv)
    if p.shape != mat.shape[::-1]:
        raise ShapeMismatchError(f"pinv must be {mat.shape[::-1]}, got {p.shape}")
    x = as_vector(z, mat.shape[1])
    lifted = as_vector(prox_composed(mat @ x), mat.shape[0])
    return p @ lifted
