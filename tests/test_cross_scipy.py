"""Optional cross-checks against scipy; skipped when scipy is unavailable.

These duplicate key results through an unrelated code base: LAPACK-backed
pinv, a bounded linear least-squares solver, and a bounded trust-region
nonlinear solver.
"""
import numpy as np
import pytest

scipy = pytest.importorskip("scipy")

import scipy.integrate  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.optimize  # noqa: E402

from proxgn import (
    Box,
    BoxIndicator,
    LipschitzAverage,
    LipschitzMode,
    ProblemConstants,
    SolveStatus,
    SolverConfig,
    gauss_newton_point,
    gamma_c,
    gamma_lambda,
    get_case,
    operator_norm,
    prox_metric,
    pseudoinverse,
    r_bar_numeric,
    solve,
)
from proxgn.cli import sample_starts
from oracles import random_conditioned


def test_pseudoinverse_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        got = pseudoinverse(a)
        want = scipy.linalg.pinv(a)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_operator_norm_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        assert operator_norm(a) == pytest.approx(
            float(scipy.linalg.svdvals(a)[0]), rel=1e-12)


def test_box_prox_matches_bounded_least_squares():
    # prox^H(z) minimizes ||A v - A z||^2 over the box
    rng = np.random.default_rng(2)
    for _ in range(15):
        a = random_conditioned(rng, 5, 3)
        box = Box(rng.uniform(-1.5, -0.1, 3), rng.uniform(0.1, 1.5, 3))
        z = rng.uniform(-2.0, 2.0, 3)
        got = prox_metric(BoxIndicator(box), a, z).point
        ref = scipy.optimize.lsq_linear(a, a @ z, bounds=(box.lower, box.upper),
                                        tol=1e-14)
        assert np.linalg.norm(got - ref.x) <= 1e-8


def _assert_matches_bvls(a, z, box):
    p = prox_metric(BoxIndicator(box), a, z).point
    # scipy's default cap of n BVLS iterations stops short on some of these
    ref = scipy.optimize.lsq_linear(a, a @ z, bounds=(box.lower, box.upper),
                                    method="bvls", tol=1e-14, max_iter=100)
    assert ref.status > 0
    assert np.linalg.norm(p - ref.x) <= 1e-8 * (1.0 + np.linalg.norm(ref.x))
    # objective excess in factored form: subtracting the two rounded
    # objectives carries an error far above 1e-12 of a small residual
    excess = 0.5 * (a @ (p - ref.x)) @ (a @ (p + ref.x - 2.0 * z))
    assert excess <= 1e-12 * 0.5 * float(np.sum((a @ (ref.x - z)) ** 2))


def test_box_prox_matches_bvls_on_osborne2_jacobians():
    # the first prox of every seed-7 start; cond(J) runs from 8e1 to 4.6e5
    case = get_case("osborne2")
    for x0 in sample_starts(case, 20, 7):
        z = gauss_newton_point(case.problem, x0)
        _assert_matches_bvls(case.problem.jacobian(x0), z, case.box)


def test_box_prox_matches_bvls_ill_conditioned():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u, _, vt = np.linalg.svd(random_conditioned(rng, 8, 5), full_matrices=False)
        a = (u * np.geomspace(1.0, 1e-6, 5)) @ vt
        box = Box(rng.uniform(-1.5, -0.1, 5), rng.uniform(0.1, 1.5, 5))
        z = rng.uniform(-3.0, 3.0, 5)
        _assert_matches_bvls(a, z, box)


@pytest.mark.parametrize("name", ["rosenbrock", "kowalik", "osborne2"])
def test_benchmark_minimizers_match_trust_region(name):
    case = get_case(name)
    rng = np.random.default_rng(3)
    x0 = case.box.lower + rng.random(case.box.dimension) * (case.box.upper - case.box.lower)
    report = solve(case.problem, BoxIndicator(case.box), x0, SolverConfig())
    assert report.status == SolveStatus.CONVERGED
    ref = scipy.optimize.least_squares(
        case.problem.residual, np.clip(case.reference_x, case.box.lower, case.box.upper),
        jac=lambda x: case.problem.jacobian(x),
        bounds=(case.box.lower, case.box.upper),
        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    # osborne2's minimizer sits in a flat valley (cond(J) ~ 4.6e5): the exact
    # box prox lands 1.0e-8 from scipy's point, where the former capped
    # projected-gradient loop left 1.7e-5; objectives agree tightly
    assert np.max(np.abs(report.final_x - ref.x)) <= 1e-4
    scipy_objective = float(ref.cost)
    assert report.objective == pytest.approx(scipy_objective, rel=1e-8)


def test_fixed_coordinate_solve_matches_reduced_bounded_least_squares():
    # osborne2 with x[4] fixed at its reference value by lower == upper: the
    # other ten coordinates must reach scipy's bounded minimizer of the
    # ten-variable problem, and x[4] must not move
    case, k = get_case("osborne2"), 4
    lower, upper = case.box.lower.copy(), case.box.upper.copy()
    lower[k] = upper[k] = case.reference_x[k]
    free = np.arange(11) != k

    def full(v):
        x = case.reference_x.copy()
        x[free] = v
        return x

    for x0 in sample_starts(case, 5, 7):
        report = solve(case.problem, BoxIndicator(Box(lower, upper)), x0)
        assert report.status == SolveStatus.CONVERGED
        assert report.final_x[k] == case.reference_x[k]
        ref = scipy.optimize.least_squares(
            lambda v: case.problem.residual(full(v)), x0[free],
            jac=lambda v: case.problem.jacobian(full(v))[:, free],
            bounds=(lower[free], upper[free]), xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert np.max(np.abs(report.final_x[free] - ref.x)) <= 1e-6


_KNOTS = np.linspace(0.0, 1.0 / 1.2, 9)


@pytest.mark.parametrize("kind", ["callable", "tabulated"])
def test_integral_means_match_quadpack(kind):
    # L = l0 (1 + s u)^p with a non-integer power is no polynomial, so the
    # adaptive Simpson pass meets its tolerance rather than being exact
    rng = np.random.default_rng(11)
    for _ in range(100):
        l0, s, p = 10.0 ** rng.uniform(-0.5, 0.5), rng.uniform(0.2, 5.0), rng.uniform(0.5, 3.0)
        top = rng.uniform(0.2, 2.0)
        if kind == "tabulated":
            knots = np.linspace(0.0, top, 9)
            average = LipschitzAverage.tabulated(knots, l0 * (1.0 + s * knots) ** p)
        else:
            knots = ()
            average = LipschitzAverage.from_callable(lambda u: l0 * (1.0 + s * u) ** p)
        r = rng.uniform(0.01, 1.2 * top)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200,
                    points=[float(u) for u in knots if 0.0 < u < r] or None)
        want = [scipy.integrate.quad(lambda u: w(u) * average(u), 0.0, r, **opts)[0] / r ** k
                for w, k in ((lambda u: 1.0, 1), (lambda u: u, 2), (lambda u: 2.0 * r - u, 2))]
        got = [gamma_lambda(average, 0.0, r), gamma_lambda(average, 1.0, r), gamma_c(average, r)]
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode", [LipschitzMode.CENTER, LipschitzMode.RADIUS])
@pytest.mark.parametrize("average, breaks", [
    (LipschitzAverage.from_callable(lambda u: (1.0 + u) ** 2), ()),
    (LipschitzAverage.tabulated(_KNOTS, (1.0 + _KNOTS) ** 2), _KNOTS),
], ids=["callable", "tabulated"])
def test_radius_solves_q_equal_one_by_quadpack(average, breaks, mode):
    # h = 0.999: q climbs from 0.999 to 1 across [0, r_bar], the case where
    # an absolute root tolerance loses most relative accuracy
    beta, kappa = 1.2, 5.0
    sqrt2_plus_1 = 1.0 + np.sqrt(2.0)
    alpha = 0.999 / ((sqrt2_plus_1 * kappa + 1.0) * beta ** 2 * average(0.0))
    r = r_bar_numeric(ProblemConstants(alpha=alpha, beta=beta, kappa=kappa), average, mode)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200,
                points=[float(u) for u in breaks if 0.0 < u < r] or None)
    g0 = scipy.integrate.quad(average, 0.0, r, **opts)[0] / r
    g1 = scipy.integrate.quad(lambda u: u * average(u), 0.0, r, **opts)[0] / r ** 2
    gm = 2.0 * g0 - g1 if mode == LipschitzMode.CENTER else g1
    numerator = (beta * g0 * gm * r * r + kappa * gm * r
                 + sqrt2_plus_1 * alpha * beta ** 2 * g0 ** 2 * r
                 + (sqrt2_plus_1 * kappa + 1.0) * alpha * beta * g0)
    q = beta * numerator / (1.0 - beta * g0 * r) ** 2
    assert q == pytest.approx(1.0, abs=1e-9)
