import copy
import math

import numpy as np
import pytest

from oracles import gauss_legendre_means, quadratic_radius, smale_gamma_average
from proxgn import radius
from proxgn import (
    ConditionViolatedError,
    LipschitzAverage,
    LipschitzMode,
    OutOfDomainError,
    ProblemConstants,
    check_small_residual,
    contraction_constants,
    convergence_radius,
    gamma_c,
    gamma_lambda,
    q_factor,
    r_bar_closed_form,
    r_bar_numeric,
    sup_radius,
)

SQRT2P1 = 1.0 + math.sqrt(2.0)
CENTER = LipschitzMode.CENTER
RADIUS = LipschitzMode.RADIUS


def unit_constants(alpha=0.0):
    return ProblemConstants(alpha=alpha, beta=1.0, kappa=1.0)


def random_admissible(rng):
    beta = rng.uniform(0.2, 5.0)
    kappa = rng.uniform(1.0, 20.0)
    l_const = rng.uniform(0.05, 10.0)
    h = rng.uniform(0.0, 0.9)
    alpha = h / ((SQRT2P1 * kappa + 1.0) * beta ** 2 * l_const)
    return ProblemConstants(alpha=alpha, beta=beta, kappa=kappa), l_const


class TestAverages:
    def test_validation(self):
        with pytest.raises(ValueError):
            LipschitzAverage.constant(0.0)
        with pytest.raises(ValueError):
            LipschitzAverage.from_callable(lambda u: 1.0 - u, upper_limit=2.0)
        with pytest.raises(ValueError):
            LipschitzAverage.tabulated([0.0, 1.0], [2.0, 1.0])
        with pytest.raises(ValueError):
            LipschitzAverage.tabulated([0.0, 0.0], [1.0, 2.0])

    def test_shape_and_monotonicity_validation(self):
        with pytest.raises(ValueError, match="matching"):
            LipschitzAverage.tabulated([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            LipschitzAverage.from_callable(lambda u: 2.0 - 0.1 * u, upper_limit=2.0)

    def test_constructor_checks_like_from_callable(self):
        # a decreasing L is excluded by the theory; the constructor rejects it
        # as from_callable does, instead of handing it to convergence_radius
        with pytest.raises(ValueError, match="non-decreasing"):
            LipschitzAverage(lambda u: 2.0 - u, 1.5)
        with pytest.raises(ValueError, match="positive"):
            LipschitzAverage(lambda u: 1.0 + u, 0.0)
        avg = LipschitzAverage(lambda u: 1.0 + u, 2.0)
        assert (avg.upper_limit, avg.constant_value, avg.breakpoints) == (2.0, None, None)

    def test_domain(self):
        avg = LipschitzAverage.from_callable(lambda u: 1.0 + u, upper_limit=2.0)
        assert avg(1.9) == pytest.approx(2.9)
        with pytest.raises(OutOfDomainError):
            avg(2.0)
        with pytest.raises(OutOfDomainError):
            gamma_lambda(avg, 0.0, 2.5)

    def test_tabulated_interpolation(self):
        avg = LipschitzAverage.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
        assert avg(0.5) == pytest.approx(1.5)
        assert avg(3.0) == pytest.approx(4.0)  # flat right extension


class TestGammas:
    def test_constant_closed_forms(self):
        avg = LipschitzAverage.constant(2.0)
        for r in (0.0, 0.3, 1.7, 9.0):
            assert gamma_lambda(avg, 0.0, r) == pytest.approx(2.0, abs=1e-14)
            assert gamma_lambda(avg, 1.0, r) == pytest.approx(1.0, abs=1e-14)
            assert gamma_c(avg, r) == pytest.approx(3.0, abs=1e-14)

    def test_value_at_zero(self):
        avg = LipschitzAverage.from_callable(lambda u: 1.5 + u)
        assert gamma_lambda(avg, 1.0, 0.0) == pytest.approx(0.75)
        assert gamma_c(avg, 0.0) == pytest.approx(2.25)

    def test_linear_average_closed_forms(self):
        # L(u) = u integrates in closed form: gamma_0 = r/2, gamma_1 = r/3
        avg = LipschitzAverage.from_callable(lambda u: u)
        assert gamma_lambda(avg, 0.0, 2.0) == pytest.approx(1.0, rel=1e-10)
        assert gamma_lambda(avg, 1.0, 3.0) == pytest.approx(1.0, rel=1e-10)
        assert gamma_c(avg, 3.0) == pytest.approx(2.0, rel=1e-10)

    def test_affine_average_quadrature(self):
        # L(u) = a + b u: gamma_0 = a + b r/2, gamma_1 = a/2 + b r/3,
        # gamma_c = 3a/2 + 2 b r/3
        a, b = 0.75, 1.25
        avg = LipschitzAverage.from_callable(lambda u: a + b * u)
        for r in (0.1, 1.0, 4.3):
            assert gamma_lambda(avg, 0.0, r) == pytest.approx(a + b * r / 2, rel=1e-10)
            assert gamma_lambda(avg, 1.0, r) == pytest.approx(a / 2 + b * r / 3, rel=1e-10)
            assert gamma_c(avg, r) == pytest.approx(1.5 * a + 2 * b * r / 3, rel=1e-10)

    @pytest.mark.parametrize("avg", [
        LipschitzAverage.constant(2.5),
        LipschitzAverage.from_callable(lambda u: 0.5 + u),
        LipschitzAverage.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 1.2, 2.0, 2.5, 4.0]),
    ], ids=["constant", "linear", "tabulated"])
    def test_inequalities_and_identity(self, avg):
        grid = np.linspace(0.0, 3.5, 29)
        knots = () if avg.breakpoints is None else avg.breakpoints
        prev = None
        for r in grid:
            g0 = gamma_lambda(avg, 0.0, r)
            g1 = gamma_lambda(avg, 1.0, r)
            gc = gamma_c(avg, r)
            lr = avg(r)
            assert g0 <= lr * (1 + 1e-9)
            assert 2.0 * g1 <= lr * (1 + 1e-9)
            assert 2.0 * gc <= (2.0 * g0 + lr) * (1 + 1e-9)
            # gamma_c is 2 gamma_0 - gamma_1 in the library; the oracle integrates it directly
            assert (g0, g1, gc) == pytest.approx(gauss_legendre_means(avg, r, knots),
                                                 rel=1e-12, abs=0)
            if prev is not None:
                p0, p1, pc, pr = prev
                assert g0 >= p0 - 1e-10 * max(1.0, p0)
                assert g1 >= p1 - 1e-10 * max(1.0, p1)
                assert gc >= pc - 1e-10 * max(1.0, pc)
                assert r * g0 > pr * p0
                if pr > 0:
                    assert r * r * g1 > pr * pr * p1
            prev = (g0, g1, gc, r)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 5.0])
    def test_smale_gamma_average_means_match_closed_form(self, gamma):
        # L has a pole at the end of its domain 1/gamma, where the means blow up
        fn, means, _ = smale_gamma_average(gamma)
        avg = LipschitzAverage.from_callable(fn, upper_limit=1.0 / gamma)
        for r in np.linspace(0.0, 0.99 / gamma, 12):
            want0, want1 = means(r)
            assert gamma_lambda(avg, 0.0, r) == pytest.approx(want0, rel=1e-10, abs=0)
            assert gamma_lambda(avg, 1.0, r) == pytest.approx(want1, rel=1e-10, abs=0)

    def test_strictly_increasing_for_strict_average(self):
        avg = LipschitzAverage.from_callable(lambda u: 1.0 + u)
        grid = np.linspace(0.0, 3.0, 16)
        vals0 = [gamma_lambda(avg, 0.0, r) for r in grid]
        valsc = [gamma_c(avg, r) for r in grid]
        assert all(b > a for a, b in zip(vals0, vals0[1:]))
        assert all(b > a for a, b in zip(valsc, valsc[1:]))

    def test_displacement_bound_quadratic_map(self):
        # residual (x1, x2, c/2 |x|^2) has Jacobian-Lipschitz constant c and
        # linearization error exactly (c/2) rho^2 = gamma_1(rho) rho^2
        c = 1.3
        avg = LipschitzAverage.constant(c)

        def residual(x):
            return np.array([x[0], x[1], 0.5 * c * (x[0] ** 2 + x[1] ** 2)])

        def jac(x):
            return np.array([[1.0, 0.0], [0.0, 1.0], [c * x[0], c * x[1]]])

        rng = np.random.default_rng(12)
        x_star = np.zeros(2)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 2)
            rho = np.linalg.norm(x - x_star)
            lhs = np.linalg.norm(residual(x_star) - residual(x) - jac(x) @ (x_star - x))
            assert lhs <= gamma_lambda(avg, 1.0, rho) * rho ** 2 + 1e-12


class TestSmallResidual:
    def test_zero_residual(self):
        assert check_small_residual(unit_constants(0.0), 1.0) == (0.0, True)

    def test_unit_case_value(self):
        h, admissible = check_small_residual(unit_constants(1.0), 1.0)
        assert h == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)
        assert not admissible

    def test_strict_threshold(self):
        c = unit_constants(1.0)
        coef = SQRT2P1 * c.kappa + 1.0
        h, admissible = check_small_residual(c, 1.0 / coef)
        # alpha*beta^2*coef*L0 rounds to exactly 1.0 here; strict inequality
        assert h == 1.0
        assert not admissible
        h2, adm2 = check_small_residual(c, (1.0 - 1e-9) / coef)
        assert h2 < 1.0
        assert adm2

    def test_requires_positive_l0(self):
        with pytest.raises(ValueError):
            check_small_residual(unit_constants(), 0.0)


class TestQFactor:
    def test_q_at_zero_equals_h(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c, l_const = random_admissible(rng)
            avg = LipschitzAverage.constant(l_const)
            h, _ = check_small_residual(c, l_const)
            for mode in (CENTER, RADIUS):
                assert q_factor(c, avg, mode, 0.0) == pytest.approx(h, rel=1e-12, abs=1e-15)

    def test_zero_residual_unit_center_formula(self):
        # alpha=0, beta=kappa=1, constant L: q = 3z(1+z) / (2(1-z)^2), z = L r
        c = unit_constants()
        for l_const in (1.0, 2.5):
            avg = LipschitzAverage.constant(l_const)
            for r in (0.05, 0.1, 0.2):
                z = l_const * r
                want = 3.0 * z * (1.0 + z) / (2.0 * (1.0 - z) ** 2)
                assert q_factor(c, avg, CENTER, r) == pytest.approx(want, rel=1e-12)

    def test_strictly_increasing(self):
        c, l_const = ProblemConstants(0.01, 1.5, 3.0), 2.0
        avg = LipschitzAverage.constant(l_const)
        top = sup_radius(c, avg)
        grid = np.linspace(0.0, 0.95 * top, 25)
        for mode in (CENTER, RADIUS):
            vals = [q_factor(c, avg, mode, r) for r in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_out_of_domain(self):
        c = unit_constants()
        avg = LipschitzAverage.constant(1.0)
        with pytest.raises(OutOfDomainError):
            q_factor(c, avg, CENTER, 1.0)  # beta*L*r = 1 at the pole


class TestRadius:
    def test_worked_instance(self):
        c = unit_constants()
        avg = LipschitzAverage.constant(1.0)
        want = (-7.0 + math.sqrt(57.0)) / 2.0
        assert abs(r_bar_numeric(c, avg, CENTER) - want) <= 1e-10
        assert r_bar_closed_form(c, 1.0, CENTER) == pytest.approx(-3.5 + math.sqrt(14.25), abs=1e-12)

    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            c, l_const = random_admissible(rng)
            avg = LipschitzAverage.constant(l_const)
            for mode in (CENTER, RADIUS):
                num = r_bar_numeric(c, avg, mode)
                closed = r_bar_closed_form(c, l_const, mode)
                assert abs(num - closed) <= 1e-8
                assert 0.0 < closed < 1.0 / (c.beta * l_const)
                assert q_factor(c, avg, mode, closed) == pytest.approx(1.0, abs=1e-8)

    def test_radius_mode_dominates_center_mode(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            c, l_const = random_admissible(rng)
            avg = LipschitzAverage.constant(l_const)
            assert r_bar_numeric(c, avg, RADIUS) >= r_bar_numeric(c, avg, CENTER)

    def test_radius_shrinks_as_h_approaches_one(self):
        coef = SQRT2P1 + 1.0
        avg = LipschitzAverage.constant(1.0)
        previous = None
        for h_target in (0.9, 0.99, 0.999, 0.9999):
            c = ProblemConstants(alpha=h_target / coef, beta=1.0, kappa=1.0)
            r = r_bar_numeric(c, avg, CENTER)
            if previous is not None:
                assert r < previous
            previous = r
        assert previous < 5e-5

    def test_condition_violated(self):
        c = unit_constants(1.0)
        avg = LipschitzAverage.constant(1.0)
        with pytest.raises(ConditionViolatedError):
            r_bar_numeric(c, avg, CENTER)
        with pytest.raises(ConditionViolatedError):
            r_bar_closed_form(c, 1.0, CENTER)

    def test_sup_radius(self):
        c = ProblemConstants(0.0, 2.0, 1.0)
        assert sup_radius(c, LipschitzAverage.constant(4.0)) == pytest.approx(0.125)
        # small average on a bounded domain never reaches the pole: R_bar = R
        small = LipschitzAverage.from_callable(lambda u: 0.1, upper_limit=1.0)
        c1 = unit_constants()
        assert sup_radius(c1, small) == pytest.approx(1.0)
        assert r_bar_numeric(c1, small, CENTER) == pytest.approx(1.0)

    def test_nonconstant_average_numeric_radius(self):
        # affine L admits exact gammas, so q(r_bar) = 1 is checkable directly
        c = ProblemConstants(alpha=0.0, beta=1.0, kappa=2.0)
        avg = LipschitzAverage.from_callable(lambda u: 1.0 + u)
        r = r_bar_numeric(c, avg, CENTER)
        assert q_factor(c, avg, CENTER, r) == pytest.approx(1.0, abs=1e-8)

    def test_convergence_radius_summary(self):
        c = unit_constants()
        avg = LipschitzAverage.constant(1.0)
        summary = convergence_radius(c, avg, CENTER)
        assert summary.h < 1
        assert summary.h == 0.0
        assert summary.r_bar_closed is not None
        assert not summary.closed_form_discrepancy
        assert not summary.r_bar_capped
        assert summary.r_bar == pytest.approx(summary.r_bar_closed, abs=1e-8)

    def test_capped_radius_is_reported(self):
        # q stays below 1 on the whole domain [0, 1), so r_bar is R_bar = R
        small = LipschitzAverage.from_callable(lambda u: 0.1, upper_limit=1.0)
        summary = convergence_radius(unit_constants(), small, CENTER)
        assert summary.r_bar_capped
        assert summary.r_bar == summary.sup_radius == 1.0


class TestContractionConstants:
    def test_alpha_zero_kills_c1(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            beta = rng.uniform(0.2, 4.0)
            kappa = rng.uniform(1.0, 10.0)
            c = ProblemConstants(0.0, beta, kappa)
            avg = LipschitzAverage.constant(rng.uniform(0.1, 5.0))
            rho = rng.uniform(0.0, 0.5 / (beta * avg.constant_value))
            c1, c2 = contraction_constants(c, avg, CENTER, rho)
            assert c1 == 0.0
            assert c2 > 0.0

    def test_rho_zero_alpha_zero_center(self):
        c = ProblemConstants(0.0, 1.7, 3.2)
        l_const = 2.4
        avg = LipschitzAverage.constant(l_const)
        _, c2 = contraction_constants(c, avg, CENTER, 0.0)
        assert c2 == pytest.approx(1.5 * c.kappa * c.beta * l_const, rel=1e-12)

    def test_matches_constant_l_reduction(self):
        # substituting gamma_0 = L, gamma_c = 3L/2 (gamma_1 = L/2) into the
        # general formulas gives these closed forms
        rng = np.random.default_rng(10)
        for _ in range(10):
            c, l_const = random_admissible(rng)
            avg = LipschitzAverage.constant(l_const)
            rho = rng.uniform(0.0, 0.9 / (c.beta * l_const))
            den = (1.0 - c.beta * l_const * rho) ** 2
            c1, c2 = contraction_constants(c, avg, CENTER, rho)
            want_c1 = (SQRT2P1 * c.kappa + 1.0) * c.alpha * c.beta ** 2 * l_const / den
            want_c2 = c.beta * (3.0 * c.kappa * l_const
                                + 2.0 * SQRT2P1 * c.alpha * c.beta ** 2 * l_const ** 2
                                + 3.0 * c.beta * l_const ** 2 * rho) / (2.0 * den)
            assert c1 == pytest.approx(want_c1, rel=1e-12, abs=1e-15)
            assert c2 == pytest.approx(want_c2, rel=1e-12)
            c1r, c2r = contraction_constants(c, avg, RADIUS, rho)
            want_c2r = c.beta * (c.kappa * l_const
                                 + 2.0 * SQRT2P1 * c.alpha * c.beta ** 2 * l_const ** 2
                                 + c.beta * l_const ** 2 * rho) / (2.0 * den)
            assert c1r == pytest.approx(want_c1, rel=1e-12, abs=1e-15)
            assert c2r == pytest.approx(want_c2r, rel=1e-12)

    def test_out_of_domain(self):
        c = unit_constants()
        avg = LipschitzAverage.constant(1.0)
        with pytest.raises(OutOfDomainError):
            contraction_constants(c, avg, CENTER, 1.0)


def test_problem_constants_validation():
    with pytest.raises(ValueError):
        ProblemConstants(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemConstants(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProblemConstants(0.0, 1.0, 0.5)


def test_sup_radius_with_vanishing_l_at_zero():
    # L(u) = u gives gamma_0(r) = r/2, so beta*gamma_0(r)*r = 1 at sqrt(2/beta)
    avg = LipschitzAverage.from_callable(lambda u: u)
    c = ProblemConstants(alpha=0.0, beta=2.0, kappa=1.0)
    assert sup_radius(c, avg) == pytest.approx(1.0, rel=1e-10)


def test_gamma_0_and_sup_radius_match_closed_forms_for_callable_averages():
    # integral_0^r (1 + u)^p = ((1 + r)^(p+1) - 1) / (p + 1), so beta times it
    # reaches 1 at R_bar = ((p + 1) / beta + 1)^(1 / (p + 1)) - 1; and
    # 1 + s max(0, u - c), whose kink the pass is not told of, integrates to
    # r + s max(0, r - c)^2 / 2.  These passes integrate L alone.
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, beta, r = rng.uniform(0.3, 3.0), 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.01, 3.0)
        power = LipschitzAverage.from_callable(lambda u, p=p: (1.0 + u) ** p)
        want = ((p + 1.0) / beta + 1.0) ** (1.0 / (p + 1.0)) - 1.0
        assert sup_radius(ProblemConstants(0.0, beta, 1.0), power) == pytest.approx(want, rel=1e-12)
        want = ((1.0 + r) ** (p + 1.0) - 1.0) / ((p + 1.0) * r)
        assert gamma_lambda(power, 0.0, r) == pytest.approx(want, rel=1e-12)
        c, s = rng.uniform(0.0, 1.0), rng.uniform(0.5, 20.0)
        kinked = LipschitzAverage.from_callable(lambda u, c=c, s=s: 1.0 + s * max(0.0, u - c))
        want = 1.0 + 0.5 * s * max(0.0, r - c) ** 2 / r
        assert gamma_lambda(kinked, 0.0, r) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_sup_radius_of_smale_gamma_average_matches_closed_form(gamma, beta):
    fn, _, want = smale_gamma_average(gamma)
    avg = LipschitzAverage.from_callable(fn, upper_limit=1.0 / gamma)
    assert sup_radius(ProblemConstants(0.0, beta, 1.0), avg) == pytest.approx(want(beta), rel=1e-12)


def test_r_bar_numeric_matches_grid_search_nonconstant():
    # independent route: dense sampling of q on a fine grid brackets the
    # crossing of 1; bisection must land inside that bracket
    c = ProblemConstants(alpha=0.02, beta=1.4, kappa=2.5)
    avg = LipschitzAverage.tabulated([0.0, 0.2, 0.6, 1.5], [0.8, 1.0, 1.9, 2.8])
    for mode in (CENTER, RADIUS):
        r_bar = r_bar_numeric(c, avg, mode)
        top = sup_radius(c, avg) * (1.0 - 1e-9)
        grid = np.linspace(0.0, top, 2001)
        qs = np.array([q_factor(c, avg, mode, r) for r in grid])
        assert qs[-1] >= 1.0
        crossing = int(np.argmax(qs >= 1.0))  # first index with q >= 1
        assert crossing > 0
        assert grid[crossing - 1] <= r_bar <= grid[crossing]


def _draw_constants(rng):
    kappa = 10.0 ** rng.uniform(0.0, 2.0)
    beta = 10.0 ** rng.uniform(-0.5, 0.5)
    l_const = 10.0 ** rng.uniform(-0.5, 0.5)
    h = rng.uniform(0.0, 0.9999)
    alpha = h / ((SQRT2P1 * kappa + 1.0) * beta ** 2 * l_const)
    return alpha, beta, kappa, l_const


# a seed-7 radius-mix draw with r_bar near 1e-4, where an absolute root
# tolerance leaves a relative error near 1e-8
SMALL_RADIUS_DRAW = (0.00028065775378941806, 3.033229580330849, 74.096227092272,
                     1.725082045022856)
# h = 0.9999, where rounding in q (not the root finder) sets r_bar's accuracy
NEAR_ONE_DRAW = (0.9999 / (SQRT2P1 * 50.0 + 1.0), 1.0, 50.0, 1.0)


def test_constant_radius_matches_quadratic_roots_to_relative_accuracy():
    rng = np.random.default_rng(31)
    draws = [_draw_constants(rng) for _ in range(200)] + [SMALL_RADIUS_DRAW, NEAR_ONE_DRAW]
    for alpha, beta, kappa, l_const in draws:
        c = ProblemConstants(alpha=alpha, beta=beta, kappa=kappa)
        avg = LipschitzAverage.constant(l_const)
        # q rises by only 1 - h across [0, r_bar], so a few ulps of rounding
        # in q move the numeric root by about eps / (1 - h) relative
        h, _ = check_small_residual(c, l_const)
        numeric_tol = max(1e-12, 4.0 * np.finfo(float).eps / (1.0 - h))
        for mode in (CENTER, RADIUS):
            want = quadratic_radius(alpha, beta, kappa, l_const, mode)
            assert r_bar_closed_form(c, l_const, mode) == pytest.approx(want, rel=1e-12, abs=0)
            assert r_bar_numeric(c, avg, mode) == pytest.approx(want, rel=numeric_tol, abs=0)


def _random_averages(rng):
    """A callable L0 (1 + c u)^p and a random table, both unbounded."""
    l0, c, p = 10.0 ** rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
    yield LipschitzAverage.from_callable(lambda u: l0 * (1.0 + c * u) ** p)
    yield LipschitzAverage.tabulated(*_random_table(rng))


def _h(alpha, beta, kappa, l_const):
    return (SQRT2P1 * kappa + 1.0) * alpha * beta ** 2 * l_const


def test_radii_lie_between_the_constant_bounds_of_their_search_seeds():
    # L is non-decreasing, so on [0, r] every mean lies between L(0) and L(r):
    # 1/(beta L(R_bar)) <= R_bar <= 1/(beta L(0)), and r_bar lies between the
    # constant-L radii at L(r_bar) and L(0), here from the companion-matrix
    # oracle rather than r_bar_closed_form
    rng = np.random.default_rng(43)
    slack = 1.0 + 1e-9
    for _ in range(20):
        for avg in _random_averages(rng):
            l0 = avg(0.0)
            _, beta, kappa, _ = _draw_constants(rng)
            alpha = rng.uniform(0.0, 0.9999) / _h(1.0, beta, kappa, l0)
            c = ProblemConstants(alpha=alpha, beta=beta, kappa=kappa)
            r_sup = sup_radius(c, avg)
            assert 1.0 / (beta * avg(r_sup)) <= r_sup * slack
            assert r_sup <= slack / (beta * l0)
            for mode in ("center", "radius"):
                r_bar = r_bar_numeric(c, avg, LipschitzMode(mode))
                assert r_bar <= quadratic_radius(alpha, beta, kappa, l0, mode) * slack
                if _h(alpha, beta, kappa, avg(r_bar)) < 1.0:
                    assert quadratic_radius(alpha, beta, kappa, avg(r_bar), mode) <= r_bar * slack


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_r_bar_search_seed_does_not_set_the_root(monkeypatch, factor):
    # a seed below the root makes the bracket double, one above it only
    # widens the bracket: either way the search solves q = 1 itself
    rng = np.random.default_rng(44)
    cases = []
    for _ in range(5):
        for avg in (LipschitzAverage.constant(10.0 ** rng.uniform(-0.5, 0.5)), *_random_averages(rng)):
            _, beta, kappa, _ = _draw_constants(rng)
            c = ProblemConstants(rng.uniform(0.0, 0.9) / _h(1.0, beta, kappa, avg(0.0)), beta, kappa)
            for mode in (CENTER, RADIUS):
                cases.append((c, avg, mode, r_bar_numeric(c, avg, mode)))
    closed_form = radius.r_bar_closed_form
    monkeypatch.setattr(radius, "r_bar_closed_form", lambda *args: factor * closed_form(*args))
    for c, avg, mode, want in cases:
        assert r_bar_numeric(c, avg, mode) == pytest.approx(want, rel=1e-12, abs=0)


def _count_calls(monkeypatch, name, when=lambda *args: True) -> list:
    """Wrap ``radius.<name>``; the returned list grows by one per call matching ``when``."""
    calls = []
    inner = getattr(radius, name)

    def counted(*args, **kwargs):
        if when(*args):
            calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(radius, name, counted)
    return calls


BUDGET_CONSTANTS = ProblemConstants(alpha=0.01, beta=1.2, kappa=5.0)
_KNOTS = np.linspace(0.0, 1.0 / 1.2, 9)
BUDGET_AVERAGES = {
    "constant": LipschitzAverage.constant(1.0),
    "callable": LipschitzAverage.from_callable(lambda u: (1.0 + u) ** 2),
    "tabulated": LipschitzAverage.tabulated(_KNOTS, (1.0 + _KNOTS) ** 2),
}


@pytest.mark.parametrize("kind", sorted(BUDGET_AVERAGES))
@pytest.mark.parametrize("mode", [CENTER, RADIUS])
def test_r_bar_numeric_evaluation_budget(monkeypatch, kind, mode):
    q_calls = _count_calls(monkeypatch, "q_factor")
    r_bar_numeric(BUDGET_CONSTANTS, BUDGET_AVERAGES[kind], mode)
    assert 0 < len(q_calls) <= 8


@pytest.mark.parametrize("kind", ["callable", "tabulated"])
def test_sup_radius_evaluation_budget(monkeypatch, kind):
    gamma_0_calls = _count_calls(monkeypatch, "gamma_lambda", lambda avg, lam, r: lam == 0.0)
    sup_radius(BUDGET_CONSTANTS, BUDGET_AVERAGES[kind])
    assert 0 < len(gamma_0_calls) <= 8


@pytest.mark.parametrize("mode", [CENTER, RADIUS])
def test_capped_r_bar_search_evaluates_q_once(monkeypatch, mode):
    # R_bar is the domain end 0.05, below the closed-form seeds (0.275 and
    # 0.438) for L(0) = 1, and q < 1 there: one q evaluation decides the cap
    avg = LipschitzAverage.from_callable(lambda u: 1.0 + u, upper_limit=0.05)
    q_calls = _count_calls(monkeypatch, "q_factor")
    assert r_bar_numeric(unit_constants(), avg, mode) == 0.05
    assert len(q_calls) == 1
    assert convergence_radius(unit_constants(), avg, mode).r_bar_capped


@pytest.mark.parametrize("mode", [CENTER, RADIUS])
def test_seed_within_1e_12_of_r_bar_cap_counts_as_capped(monkeypatch, mode):
    # a constant-valued callable has q = the constant q, whose root, the
    # closed-form seed, lies 5e-13 below the domain end R_bar: q < 1 at the
    # cap point R_bar (1 - 1e-12), so one q evaluation decides the cap
    seed = r_bar_closed_form(unit_constants(), 1.0, mode)
    end = seed * (1.0 + 5e-13)
    avg = LipschitzAverage.from_callable(lambda u: 1.0, upper_limit=end)
    q_calls = _count_calls(monkeypatch, "q_factor")
    assert r_bar_numeric(unit_constants(), avg, mode) == end
    assert len(q_calls) == 1


@pytest.mark.parametrize("offset, flagged", [(1e-6, True), (1e-12, False)])
def test_closed_form_discrepancy_flags_a_relative_gap_above_1e_9(monkeypatch, offset, flagged):
    c = ProblemConstants(alpha=0.01, beta=1.2, kappa=5.0)
    root = quadratic_radius(c.alpha, c.beta, c.kappa, 1.0, "center")
    monkeypatch.setattr(radius, "r_bar_numeric", lambda *args, **kwargs: root * (1.0 + offset))
    summary = convergence_radius(c, LipschitzAverage.constant(1.0), CENTER)
    assert summary.r_bar == root * (1.0 + offset)
    assert summary.closed_form_discrepancy is flagged


def test_convergence_radius_computes_sup_radius_once(monkeypatch):
    sup_calls = _count_calls(monkeypatch, "sup_radius")
    convergence_radius(BUDGET_CONSTANTS, BUDGET_AVERAGES["callable"], CENTER)
    assert len(sup_calls) == 1


def _with_fn(average, wrap):
    """A copy of ``average`` whose own function is ``wrap(fn)``.  The
    quadrature checks [0, r] once and then calls that function directly, so
    a wrapper there sees every evaluation of L, where one around
    ``LipschitzAverage.__call__`` sees none of the quadrature's."""
    twin = copy.copy(average)
    twin._fn = wrap(average._fn)
    return twin


def _recording(average):
    """(copy of ``average``, list of the abscissae its function is called at)."""
    calls = []

    def wrap(fn):
        def recorded(u):
            calls.append(u)
            return fn(u)
        return recorded

    return _with_fn(average, wrap), calls


def test_q_factor_makes_one_pass_over_the_average():
    # gamma_c = 2 gamma_0 - gamma_1, so q and (C1, C2) need only the pair
    # (integral L, integral u L), which one pass over L yields: no more L
    # evaluations than gamma_0 alone
    avg, calls = _recording(BUDGET_AVERAGES["callable"])
    r = 0.5 * sup_radius(BUDGET_CONSTANTS, avg)
    calls.clear()
    gamma_lambda(avg, 0.0, r)
    gamma_0_calls = len(calls)
    for mode in (CENTER, RADIUS):
        for one_point in (lambda: q_factor(BUDGET_CONSTANTS, avg, mode, r),
                          lambda: contraction_constants(BUDGET_CONSTANTS, avg, mode, r)):
            calls.clear()
            one_point()
            assert 0 < len(calls) <= gamma_0_calls


# Evaluations of L in one center-mode convergence_radius at BUDGET_CONSTANTS
# (sup radius, r_bar search): today's counts, so any growth fails.  One more
# unconditional Simpson level roughly doubles them.
L_EVALUATION_BUDGET = {"callable": 978, "tabulated": 2928}


@pytest.mark.parametrize("kind", sorted(L_EVALUATION_BUDGET))
def test_convergence_radius_l_evaluation_budget(kind):
    avg, calls = _recording(BUDGET_AVERAGES[kind])
    convergence_radius(BUDGET_CONSTANTS, avg, CENTER)
    assert 0 < len(calls) <= L_EVALUATION_BUDGET[kind]


def test_quadrature_evaluates_the_average_only_on_0_r():
    # the pass checks [0, r] once and then evaluates L unchecked, which is
    # sound only while every abscissa it forms stays in [0, r]
    limit = 2.0
    knots = np.linspace(0.0, 1.5, 7)
    constants = ProblemConstants(alpha=0.01, beta=0.01, kappa=2.0)
    for average in (LipschitzAverage.from_callable(lambda u: (1.0 + u) ** 2, upper_limit=limit),
                    LipschitzAverage.tabulated(knots, (1.0 + knots) ** 2, upper_limit=limit)):
        avg, calls = _recording(average)
        for r in (1e-60, 1e-8, 0.3, 1.5, 1.7, math.nextafter(limit, 0.0)):
            for evaluate in (lambda: gamma_lambda(avg, 0.0, r), lambda: gamma_lambda(avg, 2.5, r),
                             lambda: gamma_c(avg, r),
                             lambda: q_factor(constants, avg, CENTER, r),
                             lambda: q_factor(constants, avg, RADIUS, r)):
                calls.clear()
                evaluate()
                assert calls and all(0.0 <= u <= r for u in calls), r


def _plain(u):
    return 2.0 if u < 0.5 else 2.0 + (u - 0.5) ** 2


@pytest.mark.parametrize("fn", [lambda u: np.float64(_plain(u)),
                                lambda u: 2 if u < 0.5 else _plain(u)],
                         ids=["float64", "int-piece"])
def test_means_are_python_floats_whatever_the_average_returns(fn):
    # the quadrature converts each value of L with float(), as __call__ does
    want, got = LipschitzAverage.from_callable(_plain), LipschitzAverage.from_callable(fn)
    constants = unit_constants(0.01)
    for r in (0.3, 1.0):
        for mean in (lambda avg: gamma_lambda(avg, 0.0, r), lambda avg: gamma_lambda(avg, 1.5, r),
                     lambda avg: gamma_c(avg, r),
                     lambda avg: contraction_constants(constants, avg, CENTER, 0.1 * r)[1],
                     lambda avg: q_factor(constants, avg, RADIUS, 0.1 * r)):
            value = mean(got)
            assert type(value) is float and value.hex() == mean(want).hex(), r


def _random_table(rng):
    """Knots starting at 0 or above it, increments over six decades, and
    non-decreasing positive values with some flat pieces."""
    size = int(rng.integers(2, 13))
    start = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 1.0)
    us = start + np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, size - 1))))
    steps = np.where(rng.random(size - 1) < 0.2, 0.0, 10.0 ** rng.uniform(-4.0, 2.0, size - 1))
    vs = 10.0 ** rng.uniform(-2.0, 2.0) + np.concatenate(([0.0], np.cumsum(steps)))
    return us, vs


def test_tabulated_equals_np_interp_bitwise():
    rng = np.random.default_rng(18)
    for _ in range(500):
        us, vs = _random_table(rng)
        avg = LipschitzAverage.tabulated(us, vs)
        points = np.concatenate((rng.uniform(0.0, 1.5 * us[-1], 50), us,
                                 [0.0, 0.5 * us[0], us[-1], 2.0 * us[-1], 1e300]))
        for u in points.tolist():
            assert avg(u).hex() == float(np.interp(u, us, vs)).hex(), (us, vs, u)


def test_tabulated_copies_its_samples():
    us = np.array([0.0, 0.5, 1.0])
    vs = np.array([1.0, 2.0, 4.0])
    avg = LipschitzAverage.tabulated(us, vs)
    points = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    before = [avg(u) for u in points]
    us[1], vs[:] = 0.9, 3.0 * vs
    assert [avg(u) for u in points] == before
    assert avg.breakpoints.tolist() == [0.0, 0.5, 1.0]


def test_callable_average_calls_fn_once_per_value_and_returns_float():
    calls = []

    def fn(u):
        calls.append(u)
        return np.float64(1.0 + u)

    avg = LipschitzAverage.from_callable(fn)
    calls.clear()
    value = avg(0.5)
    assert calls == [0.5]
    assert type(value) is float and value == 1.5


def test_callable_average_returning_an_array_is_rejected():
    with pytest.raises(TypeError):
        LipschitzAverage.from_callable(lambda u: np.array([1.0 + u, 2.0 + u]))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("points, values", [
    ([0.0, 1.0], [1.0, NAN]),
    ([0.0, NAN], [1.0, 2.0]),
    ([0.0, 1.0], [1.0, INF]),
    ([0.0, INF], [1.0, 2.0]),
    ([0.0, 1e-300], [1.0, 1e300]),  # the slope overflows
])
def test_tabulated_rejects_non_finite_samples(points, values):
    with pytest.raises(ValueError):
        LipschitzAverage.tabulated(points, values)


@pytest.mark.parametrize("value", [NAN, INF])
def test_constant_rejects_non_finite_value(value):
    with pytest.raises(ValueError):
        LipschitzAverage.constant(value)


def test_nan_upper_limit_is_rejected():
    with pytest.raises(ValueError):
        LipschitzAverage.from_callable(lambda u: 1.0 + u, upper_limit=NAN)
    with pytest.raises(ValueError):
        LipschitzAverage.tabulated([0.0, 1.0], [1.0, 2.0], upper_limit=NAN)


@pytest.mark.parametrize("field", ["alpha", "beta", "kappa"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_problem_constants_reject_non_finite(field, value):
    args = {"alpha": 0.0, "beta": 1.0, "kappa": 1.0, field: value}
    with pytest.raises(ValueError):
        ProblemConstants(**args)


@pytest.mark.parametrize("l_zero", [NAN, INF])
def test_small_residual_rejects_non_finite_l_zero(l_zero):
    with pytest.raises(ValueError):
        check_small_residual(unit_constants(), l_zero)


EVALUATION_LIMIT = 10 ** 5


@pytest.fixture
def bounded_evaluations():
    """``bound(fn)`` wraps an average's function so that the test fails once
    bounded functions have been called EVALUATION_LIMIT times in all;
    ``bound.calls[0] = 0`` restarts the count."""
    calls = [0]

    def bound(fn):
        def counted(u):
            calls[0] += 1
            if calls[0] > EVALUATION_LIMIT:
                pytest.fail(f"more than {EVALUATION_LIMIT} evaluations of L")
            return fn(u)
        return counted

    bound.calls = calls
    return bound


NAN_RADIUS_CALLS = {
    "gamma_0": lambda avg, r: gamma_lambda(avg, 0.0, r),
    "gamma_c": gamma_c,
    "q_factor": lambda avg, r: q_factor(unit_constants(0.01), avg, CENTER, r),
    "contraction_constants":
        lambda avg, r: contraction_constants(unit_constants(0.01), avg, RADIUS, r),
}


@pytest.mark.parametrize("kind", sorted(BUDGET_AVERAGES))
@pytest.mark.parametrize("name", sorted(NAN_RADIUS_CALLS))
def test_nan_radius_raises(bounded_evaluations, kind, name):
    avg = _with_fn(BUDGET_AVERAGES[kind], bounded_evaluations)
    with pytest.raises(OutOfDomainError):
        NAN_RADIUS_CALLS[name](avg, NAN)
    with pytest.raises(OutOfDomainError):
        avg(NAN)


def test_callable_non_finite_beyond_a_point_is_rejected(bounded_evaluations):
    with pytest.raises(ValueError):
        LipschitzAverage.from_callable(bounded_evaluations(lambda u: 1.0 if u < 0.3 else NAN))


@pytest.mark.parametrize("bad", [NAN, INF])
def test_quadrature_raises_on_non_finite_values_between_samples(bounded_evaluations, bad):
    # construction samples L at multiples of 1/4 only, so this window passes
    # it; the quadrature's first levels land inside the window
    avg = LipschitzAverage.from_callable(bounded_evaluations(lambda u: bad if 0.3 < u < 0.45 else 1.0 + u))
    for evaluate in (lambda: gamma_lambda(avg, 0.0, 1.0),
                     lambda: q_factor(unit_constants(0.01), avg, RADIUS, 0.4),
                     lambda: sup_radius(unit_constants(), avg)):
        bounded_evaluations.calls[0] = 0
        with pytest.raises(ValueError, match="not finite"):
            evaluate()


@pytest.mark.parametrize("lam", [NAN, INF])
def test_gamma_lambda_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda"):
        gamma_lambda(LipschitzAverage.from_callable(lambda u: 1.0 + u), lam, 0.5)


@pytest.mark.parametrize("l0, r", [(1.0, 1e-200), (1e-200, 1e200)])
def test_quadrature_past_the_float_range_raises_value_error(l0, r):
    # r^2 underflows to 0 or overflows while the integrals stay finite;
    # OutOfDomainError would instead tell r_bar_numeric that r lies past the pole
    avg = LipschitzAverage.tabulated([0.0, 1.0], [l0, 2.0 * l0])
    with pytest.raises(ValueError, match="float range"):
        gamma_c(avg, r)


@pytest.mark.parametrize("average", [LipschitzAverage.tabulated([0.0, 1.0], [1.0, 2.0]),
                                     LipschitzAverage.from_callable(lambda u: 1.0 + u)],
                         ids=["tabulated", "callable"])
def test_integrand_past_the_float_range_raises_value_error(average):
    # u^2 overflows inside the Simpson pass, before r^3 is formed
    with pytest.raises(ValueError, match="float range"):
        gamma_lambda(average, 2.0, 1e200)


def test_sup_radius_past_the_float_range_raises_value_error():
    # beta*L(0) underflows to 0, so the bracket grows until the quadrature's
    # abscissae would overflow
    avg = LipschitzAverage.tabulated([0.0, 1.0], [1e-200, 1e-200])
    with pytest.raises(ValueError, match="float range"):
        sup_radius(ProblemConstants(0.0, 1e-200, 1.0), avg)


@pytest.mark.parametrize("values", [[1e-310, 1e-310], [1e308, 1.7e308]], ids=["tiny", "huge"])
def test_sup_radius_bracket_outside_the_normal_range_raises(values):
    # 1/(beta*L(0)) overflows to inf, or the seed 1/(beta*L(0)) is subnormal
    avg = LipschitzAverage.tabulated([0.0, 1.0], values)
    with pytest.raises(ValueError, match="normal float range"):
        sup_radius(unit_constants(), avg)


@pytest.mark.parametrize("l0", [1e150, 1e-150])
def test_flat_table_far_from_unit_scale_keeps_the_closed_form(l0):
    # the r_bar search starts at its upper bound, not next to 0, where r^2
    # would underflow for beta*L(0) = 1e150
    avg = LipschitzAverage.tabulated([0.0, 1.0], [l0, l0])
    for mode in (CENTER, RADIUS):
        want = r_bar_closed_form(unit_constants(), l0, mode)
        assert r_bar_numeric(unit_constants(), avg, mode) == pytest.approx(want, rel=1e-12, abs=0)


def test_sup_radius_root_below_the_normal_range_raises():
    # beta*gamma_0(r)*r = 1 at r = 1e-310: Brent's bracket closes onto 0
    avg = LipschitzAverage.from_callable(lambda u: 1.0 if u == 0 else 1e300)
    with pytest.raises(ValueError, match="closed onto 0"):
        sup_radius(ProblemConstants(0.0, 1e10, 1.0), avg)


def test_average_jumping_at_zero_raises_a_library_error():
    # q(0) = h = 0.17 but q(r) = 17.07 at every r > 0, so q = 1 has no
    # positive root and the search drives r toward 0.  The ValueError comes
    # from the quadrature, whose r ** 2 leaves the float range at
    # r = 1.17e-163, before the search's own "closed onto 0" check; either
    # library error passes
    avg = LipschitzAverage.from_callable(lambda u: 1.0 if u == 0 else 100.0)
    constants = ProblemConstants(0.05, 1.0, 1.0)
    assert check_small_residual(constants, avg(0.0))[1]
    for mode in (CENTER, RADIUS):
        with pytest.raises(ValueError):
            r_bar_numeric(constants, avg, mode)


# Two changes of units with a known effect on every radius output, so no
# reference value is needed.  Rescaling F by c maps (alpha, beta, L) to
# (c alpha, beta / c, c L) and leaves h, the radii and (C1, C2) unchanged.
# The change of variables x = d y maps beta to beta / d and L(u) to
# d^2 L(d u): h and C1 stay, the radii divide by d and C2 multiplies by d.
INVARIANCE_TOL = 1e-12
INVARIANCE_DRAWS = 12


def _unit_average(kind, l0, knots, c=1.0, d=1.0):
    """c d^2 L(d u) for L(u) = l0 (1 + u)^2.5, a non-polynomial L so that
    the quadrature is inexact; the tabulated L samples it at ``knots``."""
    scale = c * d * d * l0
    if kind == "constant":
        return LipschitzAverage.constant(scale)
    if kind == "callable":
        return LipschitzAverage.from_callable(lambda u: scale * (1.0 + d * u) ** 2.5)
    return LipschitzAverage.tabulated(knots / d, scale * (1.0 + knots) ** 2.5)


def _unit_draws(seed):
    """Admissible (constants, l0, knots, factor), the factor in 10^U(-3, 3);
    every other draw has alpha = 0."""
    rng = np.random.default_rng(seed)
    for i in range(INVARIANCE_DRAWS):
        kappa = 10.0 ** rng.uniform(0.0, 2.0)
        beta, l0 = 10.0 ** rng.uniform(-0.5, 0.5, 2)
        h = rng.uniform(0.0, 0.9) if i % 2 else 0.0
        alpha = h / ((SQRT2P1 * kappa + 1.0) * beta ** 2 * l0)
        knots = np.linspace(0.0, 1.0 / (beta * l0), 9)
        yield ProblemConstants(alpha, beta, kappa), l0, knots, 10.0 ** rng.uniform(-3.0, 3.0)


def _radius_outputs(constants, average, mode, rho0=None):
    """(h, sup_radius, r_bar, C1, C2), the constants at rho0 (default r_bar / 2)."""
    summary = convergence_radius(constants, average, mode)
    rho0 = 0.5 * summary.r_bar if rho0 is None else rho0
    return (summary.h, summary.sup_radius, summary.r_bar,
            *contraction_constants(constants, average, mode, rho0))


def _assert_close(got, want):
    for name, g, w in zip(("h", "sup_radius", "r_bar", "C1", "C2"), got, want):
        assert abs(g - w) <= INVARIANCE_TOL * max(abs(g), abs(w)), (name, g, w)


@pytest.mark.parametrize("mode", [CENTER, RADIUS])
@pytest.mark.parametrize("kind", ["constant", "callable", "tabulated"])
def test_radius_is_invariant_under_residual_scaling(kind, mode):
    for constants, l0, knots, c in _unit_draws(21):
        want = _radius_outputs(constants, _unit_average(kind, l0, knots), mode)
        scaled = ProblemConstants(c * constants.alpha, constants.beta / c, constants.kappa)
        _assert_close(_radius_outputs(scaled, _unit_average(kind, l0, knots, c=c), mode, 0.5 * want[2]),
                      want)


@pytest.mark.parametrize("mode", [CENTER, RADIUS])
@pytest.mark.parametrize("kind", ["constant", "callable", "tabulated"])
def test_radius_scales_with_a_change_of_variables(kind, mode):
    for constants, l0, knots, d in _unit_draws(22):
        h, r_sup, r_bar, c1, c2 = _radius_outputs(constants, _unit_average(kind, l0, knots), mode)
        scaled = ProblemConstants(constants.alpha, constants.beta / d, constants.kappa)
        _assert_close(_radius_outputs(scaled, _unit_average(kind, l0, knots, d=d), mode, 0.5 * r_bar / d),
                      (h, r_sup / d, r_bar / d, c1, c2 * d))
