"""Self-validation suite behind the ``validate`` CLI command.

Each check exercises one family of invariants (Penrose equations, prox
oracles, gamma inequalities, Jacobian consistency, reference stationarity)
against independent computations and returns ``(passed, detail)``; an error
raised inside a check fails it.  Box proxes by BVLS are checked against the
projected-gradient loop of ``CustomProx`` run on the box projection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import problems, radius
from .linalg import condition_data, operator_norm, pseudoinverse, verify_penrose
from .prox import (Box, BoxIndicator, CustomProx, InnerConfig, normal_cone_gap, project_box,
                   prox_metric, prox_via_pullback)
from .solver import stationarity_residual

# Bound on prox gaps and bound violations: ten times the default inner tolerance.
_PROX_BOUND = 10 * InnerConfig().tolerance
_SEED = 20250808  # each check draws from its own generator with this seed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _prox_draws(rng, count):
    """Yield ``count`` draws (A, box, z): A is 5x3 with singular values in
    [0.7, 1.6], the box contains 0 and z is uniform in [-2, 2]^3."""
    for _ in range(count):
        q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q1[:, :3] @ (rng.uniform(0.7, 1.6, size=3)[:, None] * q2)
        box = Box(rng.uniform(-1.5, -0.1, size=3), rng.uniform(0.1, 1.5, size=3))
        yield a, box, rng.uniform(-2.0, 2.0, size=3)


def _reference_prox(a, box, z) -> np.ndarray:
    """The box prox by the projected-gradient loop; a capped run is an error."""
    out = prox_metric(CustomProx(partial(project_box, box=box)), a, z)
    if not out.converged:
        raise RuntimeError(f"projected-gradient reference capped at {out.inner_iterations} steps")
    return out.point


def check_penrose(rng):
    worst = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
        pinv = pseudoinverse(a)
        if not verify_penrose(a, pinv, 1e-9):
            return False, "Penrose residuals above 1e-9"
        worst = max(worst, operator_norm(pinv @ a - np.eye(n)))
    return worst <= 1e-9, f"worst left-inverse residual {worst:.2e}"


def check_pinv_perturbation(rng):
    worst = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        pa = pseudoinverse(a)
        e = rng.standard_normal((m, n))
        scale = rng.uniform(0.05, 0.5) / max(operator_norm(e @ pa), 1e-300)
        e *= scale
        b = a + e
        pb = pseudoinverse(b)
        bound_norm = operator_norm(pa) / (1.0 - operator_norm(e @ pa))
        gap1 = operator_norm(pb) - bound_norm
        gap2 = (operator_norm(pb - pa)
                - math.sqrt(2.0) * operator_norm(pa) * operator_norm(pb) * operator_norm(e))
        worst = max(worst, gap1, gap2)
    return worst <= 1e-9, f"worst bound violation {worst:.2e}"


def check_operator_norm(rng):
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((m, n))
        # the largest eigenvalue of the Gram matrix, by a symmetric eigensolver
        brute = math.sqrt(float(np.linalg.eigvalsh(a.T @ a)[-1]))
        worst = max(worst, abs(operator_norm(a) - brute) / brute)
    return worst <= 1e-8, f"worst relative gap {worst:.2e}"


def check_prox_oracle(rng):
    worst = 0.0
    for a, box, z in _prox_draws(rng, 25):
        got = prox_metric(BoxIndicator(box), a, z).point
        worst = max(worst, float(np.linalg.norm(got - _reference_prox(a, box, z))))
    return worst <= _PROX_BOUND, f"worst gap to projected-gradient prox {worst:.2e}"


def check_prox_pullback(rng):
    worst = 0.0
    for a, box, z in _prox_draws(rng, 15):
        pinv = pseudoinverse(a)

        def composed(y):
            # identity-metric prox of (indicator o A^dag) on the lifted point
            u = pinv @ y
            return a @ _reference_prox(a, box, u) + (y - a @ u)

        got = prox_via_pullback(composed, a, z)
        want = prox_metric(BoxIndicator(box), a, z).point
        worst = max(worst, float(np.linalg.norm(got - want)))
    return worst <= _PROX_BOUND, f"worst pull-back gap {worst:.2e}"


def check_prox_lipschitz(rng):
    worst = 0.0
    for a, box, z1 in _prox_draws(rng, 25):
        z2 = rng.uniform(-2.0, 2.0, size=3)
        p1 = prox_metric(BoxIndicator(box), a, z1).point
        p2 = prox_metric(BoxIndicator(box), a, z2).point
        _, kappa = condition_data(a)
        gap = np.linalg.norm(p1 - p2) - kappa * np.linalg.norm(z1 - z2)
        worst = max(worst, float(gap))
    return worst <= _PROX_BOUND, f"worst bound violation {worst:.2e}"


def check_prox_metric_variation(rng):
    worst = 0.0
    draws = _prox_draws(rng, 50)
    # consecutive draws pair up: the second lends only its matrix
    for (a1, box, z), (a2, _, _) in zip(draws, draws):
        h1 = a1.T @ a1
        h2 = a2.T @ a2
        p1 = prox_metric(BoxIndicator(box), a1, z).point
        p2 = prox_metric(BoxIndicator(box), a2, z).point
        inv_norm = operator_norm(np.linalg.inv(h1))
        bound = inv_norm * np.linalg.norm((h1 - h2) @ (z - p2))
        worst = max(worst, float(np.linalg.norm(p1 - p2) - bound))
    return worst <= _PROX_BOUND, f"worst bound violation {worst:.2e}"


def check_prox_certificate(rng):
    # a KKT gap of at most 1e-12 ||H|| bounds, coordinate by coordinate, the
    # move of one projected-gradient step of length 1/||H|| from p by 1e-12
    worst = 0.0
    for a, box, z in _prox_draws(rng, 25):
        h = a.T @ a
        p = prox_metric(BoxIndicator(box), a, z).point
        gap = normal_cone_gap(h @ (z - p), box, p, atol=1e-12)
        worst = max(worst, float(np.linalg.norm(gap)) / operator_norm(h))
    return worst <= 1e-12, f"worst KKT gap / ||H|| {worst:.2e}"


def check_gamma(rng):
    families = {
        "constant": radius.LipschitzAverage.constant(2.5),
        "linear": radius.LipschitzAverage.from_callable(lambda u: 0.5 + u),
        "tabulated": radius.LipschitzAverage.tabulated(
            [0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 1.2, 2.0, 2.5, 4.0]),
    }
    grid = np.linspace(0.05, 3.5, 24)
    for label, avg in families.items():
        prev = None
        for r in grid:
            g0 = radius.gamma_lambda(avg, 0.0, r)
            g1 = radius.gamma_lambda(avg, 1.0, r)
            gc = radius.gamma_c(avg, r)
            lr = avg(r)
            if g0 > lr + 1e-9 * lr or 2.0 * g1 > lr + 1e-9 * lr:
                return False, f"{label}: (1+lambda)*gamma_lambda > L at r={r}"
            if 2.0 * gc > 2.0 * g0 + lr + 1e-9 * lr:
                return False, f"{label}: 2*gamma_c > 2*gamma_0 + L at r={r}"
            cur = (g0, g1, gc, r * g0, r * r * g1)
            if prev is not None:
                if any(c < p - 1e-10 * max(1.0, abs(p)) for c, p in zip(cur[:3], prev[:3])):
                    return False, f"{label}: gamma decreasing before r={r}"
                if cur[3] <= prev[3] or (r > grid[0] and cur[4] <= prev[4]):
                    return False, f"{label}: r*gamma_0 or r^2*gamma_1 not strictly increasing at r={r}"
            prev = cur
    return True, "disgam/newdis and monotonicity hold on all grids"


def check_radius_closed_form(rng):
    worst = 0.0
    for _ in range(25):
        beta = rng.uniform(0.2, 5.0)
        kappa = rng.uniform(1.0, 20.0)
        l_const = rng.uniform(0.05, 10.0)
        h_target = rng.uniform(0.0, 0.9)
        alpha = h_target / ((radius.SQRT2_PLUS_1 * kappa + 1.0) * beta ** 2 * l_const)
        c = radius.ProblemConstants(alpha=alpha, beta=beta, kappa=kappa)
        avg = radius.LipschitzAverage.constant(l_const)
        for mode in radius.LipschitzMode:
            gap = abs(radius.r_bar_numeric(c, avg, mode)
                      - radius.r_bar_closed_form(c, l_const, mode))
            worst = max(worst, gap)
    return worst <= 1e-8, f"worst |numeric - closed| {worst:.2e}"


# Stationarity thresholds at the five-digit reference points.  Kowalik and
# osborne2 sit well below 1e-3; rosenbrock's curvature (~3e2) amplifies the
# coordinate rounding to ~2e-3, and the osborne1 reference stems from a
# data table variant that is not bundled (see the case notes), so its
# published point is ~4e-2 away from stationarity for the standard data.
REFERENCE_STATIONARITY_LIMITS = {
    "rosenbrock": 3e-3,
    "kowalik": 1e-3,
    "osborne1": 1e-1,
    "osborne2": 1e-3,
}


def check_jacobians(rng):
    for name in ("rosenbrock", "kowalik", "osborne1", "osborne2"):
        case = problems.get_case(name)
        box = case.box
        lo = np.where(np.isfinite(box.lower), box.lower, -10.0)
        up = np.where(np.isfinite(box.upper), box.upper, 10.0)
        for _ in range(20):
            x = lo + rng.random(box.dimension) * (up - lo)
            analytic = case.problem.jacobian(x)
            fd = problems.finite_diff_jacobian(case.problem, x, h=1e-6)
            rel = operator_norm(fd - analytic) / max(operator_norm(analytic), 1e-300)
            if rel > 1e-5:
                return False, f"{name}: relative error {rel:.2e} at {x}"
    return True, "analytic == central differences"


def check_references(rng):
    for name, limit in REFERENCE_STATIONARITY_LIMITS.items():
        case = problems.get_case(name)
        value = stationarity_residual(case.problem, BoxIndicator(case.box), case.reference_x)
        if value > limit:
            return False, f"{name}: residual {value:.2e} > {limit:.0e}"
    return True, "all reference points near-stationary"


_CHECKS = (
    ("penrose.equations", check_penrose),
    ("penrose.perturbation", check_pinv_perturbation),
    ("penrose.operator_norm", check_operator_norm),
    ("prox.oracle", check_prox_oracle),
    ("prox.pullback", check_prox_pullback),
    ("prox.lipschitz", check_prox_lipschitz),
    ("prox.metric_variation", check_prox_metric_variation),
    ("prox.certificate", check_prox_certificate),
    ("gamma.inequalities", check_gamma),
    ("radius.closed_form", check_radius_closed_form),
    ("jacobian.finite_difference", check_jacobians),
    ("reference.stationarity", check_references),
)


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run the validation suite, optionally restricted by substring filter."""
    results = []
    for name, check in _CHECKS:
        if name_filter is not None and name_filter not in name:
            continue
        try:
            passed, detail = check(np.random.default_rng(_SEED))
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
