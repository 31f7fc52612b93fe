"""Output checks that do not rely on the library's own diagnostics.

The solve check computes the box KKT residual from J^T F itself rather than
calling ``stationarity_residual``; the radius checks solve the constant-L
quadratic themselves and recompute q(r_bar) with ``scipy.integrate.quad``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2_PLUS_1 = 1.0 + math.sqrt(2.0)

# ||gap|| <= KKT_TOL * ||J|| * ||F|| + X_TOL * ||J||^2 * (1 + ||x||).  The first
# term scales with the size of J^T F away from a stationary point; the second
# covers zero-residual solutions, where F itself vanishes.  At seed 7 the
# converged osborne2 starts sit near 1e-7 of the first term and osborne1's
# single converged start near 4e-3, which must count as failed.
KKT_TOL = 1e-5
X_TOL = 1e-10
# bounds may be touched to within this relative distance and count as active
ACTIVE_TOL = 1e-12
# r_bar is bisected to 1e-12 and the library's quadrature is relative 1e-10
ROOT_REL_TOL = 1e-9
Q_TOL = 1e-7


@dataclass(frozen=True)
class Verdict:
    """``ok`` feeds the failure count; ``sound`` is False for a broken invariant."""

    ok: bool
    sound: bool = True
    reason: str = ""


def box_kkt_gap(residual, jacobian, box, x) -> tuple[float, float]:
    """(||gap||, bound): distance of -J^T F from the normal cone of the box at x.

    ``residual`` and ``jacobian`` are the problem's own definitions; the gap
    is taken componentwise, outward gradient parts at active bounds being
    allowed.
    """
    f = np.asarray(residual(x), dtype=float)
    j = np.asarray(jacobian(x), dtype=float)
    g = j.T @ f
    gap = g.copy()
    at_lower = x <= box.lower + ACTIVE_TOL * (1.0 + np.abs(box.lower))
    at_upper = x >= box.upper - ACTIVE_TOL * (1.0 + np.abs(box.upper))
    gap[at_lower] = np.minimum(gap[at_lower], 0.0)
    gap[at_upper] = np.maximum(gap[at_upper], 0.0)
    j_norm = float(np.linalg.norm(j, 2))
    bound = (KKT_TOL * j_norm * float(np.linalg.norm(f))
             + X_TOL * j_norm ** 2 * (1.0 + float(np.linalg.norm(x))))
    return float(np.linalg.norm(gap)), bound


def check_solve(problem, box, x, status: str) -> Verdict:
    """A solve's final point must be finite and in the box; a converged one must be stationary."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,) or not np.all(np.isfinite(x)):
        return Verdict(False, False, f"final point {x} is not a finite {problem.n}-vector")
    if np.any(x < box.lower) or np.any(x > box.upper):
        return Verdict(False, False, "final point is outside the box")
    if status != "converged":
        return Verdict(False, True, status)
    gap, bound = box_kkt_gap(problem.residual, problem.jacobian, box, x)
    if not gap <= bound:
        return Verdict(False, True, f"KKT residual {gap:.3e} > {bound:.3e}")
    return Verdict(True)


def closed_form_radius(alpha, beta, kappa, l_const, mode: str) -> float:
    """Root of q(r) = 1 for constant L, from the quadratic in z = beta*L*r.

    With gamma_0 = L and gamma_m = c*L (c = 3/2 center, 1/2 radius),
    q = (c z^2 + (c*kappa + t) z + h) / (1 - z)^2 with t = (1+sqrt2)*alpha*beta^2*L,
    so q = 1 is (c - 1) z^2 + (c*kappa + t + 2) z + (h - 1) = 0; the radius
    is its root in (0, 1).
    """
    c = 1.5 if mode == "center" else 0.5
    t = SQRT2_PLUS_1 * alpha * beta * beta * l_const
    h = (SQRT2_PLUS_1 * kappa + 1.0) * alpha * beta * beta * l_const
    roots = np.roots([c - 1.0, c * kappa + t + 2.0, h - 1.0])
    z = min(float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)
    return z / (beta * l_const)


def q_by_quad(alpha, beta, kappa, average, mode: str, r: float, breaks=()) -> float:
    """q(r) with gamma_0, gamma_1 and gamma_c integrated by scipy's QUADPACK."""
    from scipy.integrate import quad

    points = [float(u) for u in breaks if 0.0 < u < r] or None
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200, points=points)
    g0 = quad(average, 0.0, r, **opts)[0] / r
    g1 = quad(lambda u: u * average(u), 0.0, r, **opts)[0] / (r * r)
    gm = 2.0 * g0 - g1 if mode == "center" else g1
    numerator = (beta * g0 * gm * r * r + kappa * gm * r
                 + SQRT2_PLUS_1 * alpha * beta * beta * g0 * g0 * r
                 + (SQRT2_PLUS_1 * kappa + 1.0) * alpha * beta * g0)
    return beta * numerator / (1.0 - beta * g0 * r) ** 2


def check_radius(op, out) -> Verdict:
    """Constant L: closed-form root; any L: q(r_bar) = 1 unless capped; alpha = 0: C1 = 0."""
    values = [out.r_bar, out.sup_radius, out.c1, out.c2, *out.q_table]
    if not all(math.isfinite(v) for v in values) or not 0.0 < out.r_bar <= out.sup_radius:
        return Verdict(False, False, f"r_bar={out.r_bar} sup_radius={out.sup_radius}")
    if op.alpha == 0.0 and out.c1 != 0.0:
        return Verdict(False, False, f"alpha = 0 but C1 = {out.c1!r}")
    if op.kind == "constant":
        expected = closed_form_radius(op.alpha, op.beta, op.kappa, op.l0, op.mode)
        if abs(out.r_bar - expected) > ROOT_REL_TOL * expected:
            return Verdict(False, False, f"r_bar {out.r_bar!r} != closed form {expected!r}")
    if out.r_bar < out.sup_radius:
        q = q_by_quad(op.alpha, op.beta, op.kappa, op.average, op.mode, out.r_bar,
                      op.knots if op.knots is not None else ())
        if abs(q - 1.0) > Q_TOL:
            return Verdict(False, False, f"q(r_bar) = {q!r} by quadrature")
    return Verdict(True)
