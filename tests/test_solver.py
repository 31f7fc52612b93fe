import dataclasses

import numpy as np
import pytest

from proxgn import (
    Box,
    BoxIndicator,
    CustomProx,
    InnerConfig,
    InsufficientDataError,
    InvalidPointError,
    IterationRecord,
    JacobianRankDeficientError,
    LipschitzAverage,
    LipschitzMode,
    Problem,
    ProblemConstants,
    SolveStatus,
    SolverConfig,
    ZeroPenalty,
    contraction_constants,
    estimate_rate,
    gauss_newton_point,
    get_case,
    project_box,
    prox_gn_step,
    q_factor,
    r_bar_numeric,
    solve,
    stationarity_residual,
)
from proxgn.checks import exact_box_prox
from proxgn.cli import sample_starts
from oracles import box_kkt_gap, curved_embedding_problem, normal_equation_pinv


def linear_problem(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return Problem(n=a.shape[1], m=a.shape[0],
                   residual=lambda x: a @ x - b,
                   jacobian=lambda x: a,
                   name="linear")


def rosenbrock_problem():
    return get_case("rosenbrock").problem


def synthetic_record(index, x):
    return IterationRecord(index=index, x=np.asarray(x, float), residual_norm=0.0,
                           step_norm=0.0, jacobian_condition=1.0,
                           inner_iterations=0, gn_point_feasible=True)


class TestGaussNewtonPoint:
    def test_linear_solves_in_one_step(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        problem = linear_problem(a, b)
        want = np.linalg.solve(a, b)
        for x in (np.zeros(3), rng.standard_normal(3)):
            assert np.allclose(gauss_newton_point(problem, x), want, atol=1e-10)

    def test_identity_residual(self):
        problem = Problem(n=1, m=1, residual=lambda x: x.copy(),
                          jacobian=lambda x: np.array([[1.0]]))
        assert gauss_newton_point(problem, [5.0]) == pytest.approx([0.0])

    def test_matches_normal_equations_on_rosenbrock(self):
        problem = rosenbrock_problem()
        x = np.array([-1.2, 1.0])
        j = problem.jacobian(x)
        f = problem.residual(x)
        want = x - normal_equation_pinv(j) @ f
        got = gauss_newton_point(problem, x)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_rank_deficiency_raises(self):
        problem = Problem(n=2, m=2,
                          residual=lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
                          jacobian=lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(JacobianRankDeficientError):
            gauss_newton_point(problem, [1.0, 2.0])

    def test_invalid_point_raises(self):
        problem = Problem(n=1, m=1, residual=lambda x: x.copy(),
                          jacobian=lambda x: np.array([[1.0]]),
                          validity=lambda x: abs(x[0]) < 2.0)
        with pytest.raises(InvalidPointError):
            gauss_newton_point(problem, [3.0])


class TestProxGNStep:
    def test_zero_penalty_equals_gn_point(self):
        problem = rosenbrock_problem()
        x = np.array([-1.2, 1.0])
        x_next, record = prox_gn_step(problem, ZeroPenalty(), x)
        assert np.array_equal(x_next, gauss_newton_point(problem, x))
        assert record.gn_point_feasible
        assert record.inner_iterations == 0
        assert record.step_norm == pytest.approx(np.linalg.norm(x_next - x))

    def test_linear_box_matches_enumeration_and_ignores_start(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        problem = linear_problem(a, b)
        box = Box(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
        want = exact_box_prox(a, np.linalg.lstsq(a, b, rcond=None)[0], box)
        for x in (np.zeros(2), np.array([0.2, -0.1])):
            got, _ = prox_gn_step(problem, BoxIndicator(box), x)
            assert np.linalg.norm(got - want) <= 1e-10

    def test_fixed_point_at_reference_minimizer(self):
        case = get_case("rosenbrock")
        x_star = case.reference_x
        x_next, record = prox_gn_step(case.problem, BoxIndicator(case.box), x_star)
        assert np.max(np.abs(x_next - x_star)) <= 1e-4
        assert np.isfinite(record.jacobian_condition)


class TestSolve:
    def test_linear_zero_penalty_converges_immediately(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        report = solve(linear_problem(a, b), ZeroPenalty(), np.zeros(3))
        assert report.status == SolveStatus.CONVERGED
        assert report.iterations <= 2
        assert np.allclose(report.final_x, np.linalg.solve(a, b), atol=1e-9)

    def test_rosenbrock_box_convergence(self):
        case = get_case("rosenbrock")
        rng = np.random.default_rng(2)
        x0 = case.box.lower + rng.random(2) * (case.box.upper - case.box.lower)
        report = solve(case.problem, BoxIndicator(case.box), x0)
        assert report.status == SolveStatus.CONVERGED
        assert np.max(np.abs(report.final_x - case.reference_x)) <= 1e-4
        assert 3 <= report.iterations <= 14
        assert report.penalty_feasible

    def test_start_at_fixed_point_terminates_fast(self):
        case = get_case("rosenbrock")
        # solver-converged point: a numerical fixed point of the map
        ref = solve(case.problem, BoxIndicator(case.box),
                    np.array([0.5, 0.5])).final_x
        report = solve(case.problem, BoxIndicator(case.box), ref)
        assert report.status == SolveStatus.CONVERGED
        assert report.iterations <= 2

    def test_infeasible_start_is_projected_and_flagged(self):
        case = get_case("rosenbrock")
        report = solve(case.problem, BoxIndicator(case.box), np.array([5.0, 5.0]))
        assert report.projected_start
        assert report.status == SolveStatus.CONVERGED

    def test_box_iterates_feasible(self):
        case = get_case("kowalik")
        cfg = SolverConfig()
        rng = np.random.default_rng(3)
        x0 = case.box.lower + rng.random(4) * (case.box.upper - case.box.lower)
        report = solve(case.problem, BoxIndicator(case.box), x0, cfg)
        for rec in report.trace:
            assert case.box.contains(rec.x, atol=cfg.inner.tolerance)

    def test_rank_deficient_status(self):
        problem = Problem(n=2, m=2,
                          residual=lambda x: np.array([x[0] + x[1] - 1.0, x[0] + x[1]]),
                          jacobian=lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]))
        report = solve(problem, ZeroPenalty(), np.zeros(2))
        assert report.status == SolveStatus.JACOBIAN_RANK_DEFICIENT
        assert report.trace == []

    def test_left_domain_status(self):
        problem = Problem(n=1, m=1,
                          residual=lambda x: x - 3.0,
                          jacobian=lambda x: np.array([[1.0]]),
                          validity=lambda x: abs(x[0]) < 2.0)
        report = solve(problem, ZeroPenalty(), np.array([1.0]))
        assert report.status == SolveStatus.LEFT_DOMAIN
        assert len(report.trace) == 1

    def test_max_iterations_status(self):
        case = get_case("osborne2")
        rng = np.random.default_rng(4)
        x0 = case.box.lower + rng.random(11) * (case.box.upper - case.box.lower)
        report = solve(case.problem, BoxIndicator(case.box), x0,
                       SolverConfig(max_outer=2))
        assert report.status == SolveStatus.MAX_ITERATIONS
        assert report.iterations == 2

    def test_zero_penalty_is_bitwise_classical_gn(self):
        problem = curved_embedding_problem(1.0)
        x0 = np.array([0.21, -0.05])
        report = solve(problem, ZeroPenalty(), x0, SolverConfig())
        x = x0.copy()
        for rec in report.trace:
            j = problem.jacobian(x)
            f = problem.residual(x)
            step, _, _, _ = np.linalg.lstsq(j, f, rcond=None)
            x = x - step
            assert np.array_equal(rec.x, x)


class TestStationarity:
    def test_zero_gradient_interior(self):
        problem = Problem(n=2, m=2, residual=lambda x: x.copy(),
                          jacobian=lambda x: np.eye(2))
        box = Box(-np.ones(2), np.ones(2))
        assert stationarity_residual(problem, BoxIndicator(box), np.zeros(2)) == 0.0

    def test_linear_least_squares_solution(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        problem = linear_problem(a, b)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        assert stationarity_residual(problem, ZeroPenalty(), x_star) <= 1e-10

    def test_rosenbrock_reference_residual(self):
        # the printed reference is rounded to 5 digits; local curvature ~3e2
        # amplifies that rounding to ~1.9e-3, just above the nominal 1e-3
        case = get_case("rosenbrock")
        value = stationarity_residual(case.problem, BoxIndicator(case.box), case.reference_x)
        assert value <= 3e-3

    def test_custom_prox_fixed_point_route(self):
        problem = curved_embedding_problem(1.0)
        penalty = CustomProx(lambda v: v, "identity")
        assert stationarity_residual(problem, penalty, np.zeros(2)) <= 1e-12
        assert stationarity_residual(problem, penalty, np.array([0.2, 0.0])) > 1e-3


class TestEstimateRate:
    def test_geometric_sequence(self):
        x_star = np.zeros(2)
        trace = [synthetic_record(n, [0.5 ** n, 0.0]) for n in range(1, 11)]
        q, order = estimate_rate(trace, x_star)
        assert q == pytest.approx(0.5, rel=1e-12)
        assert order == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_sequence(self):
        x_star = np.zeros(1)
        e = 0.1
        trace = []
        for n in range(1, 6):
            e = e * e if n > 1 else 0.1
            trace.append(synthetic_record(n, [e]))
        _, order = estimate_rate(trace, x_star)
        assert order == pytest.approx(2.0, abs=1e-6)

    def test_solver_trace_order_on_quadratic_problem(self):
        # genuine quadratic tail: e_{n+1} ~ C2 e_n^2 over several usable steps
        # (the start is far out so enough iterates stay above the floor)
        problem = curved_embedding_problem(1.0)
        report = solve(problem, ZeroPenalty(), np.array([2.0, 1.0]))
        assert report.status == SolveStatus.CONVERGED
        _, order = estimate_rate(report.trace, np.zeros(2))
        assert order >= 1.7

    def test_insufficient_data(self):
        x_star = np.zeros(1)
        with pytest.raises(InsufficientDataError):
            estimate_rate([synthetic_record(1, [0.5])], x_star)
        increasing = [synthetic_record(n, [0.1 * n]) for n in range(1, 6)]
        with pytest.raises(InsufficientDataError):
            estimate_rate(increasing, x_star)
        below_floor = [synthetic_record(n, [1e-14 / n]) for n in range(1, 6)]
        with pytest.raises(InsufficientDataError):
            estimate_rate(below_floor, x_star)


class TestContractionOnSyntheticProblem:
    def test_monotone_and_quadratic_bounds(self):
        curvature = 1.0
        problem = curved_embedding_problem(curvature)
        constants = ProblemConstants(alpha=0.0, beta=1.0, kappa=1.0)
        average = LipschitzAverage.constant(curvature)
        r_bar = r_bar_numeric(constants, average, LipschitzMode.CENTER)
        x_star = np.zeros(2)
        x0 = np.array([0.75 * r_bar, 0.0])
        rho0 = float(np.linalg.norm(x0 - x_star))
        assert rho0 < r_bar
        q0 = q_factor(constants, average, LipschitzMode.CENTER, rho0)
        assert q0 < 1.0
        c1, c2 = contraction_constants(constants, average, LipschitzMode.CENTER, rho0)
        assert c1 == 0.0
        report = solve(problem, ZeroPenalty(), x0)
        assert report.status == SolveStatus.CONVERGED
        errs = [rho0] + [float(np.linalg.norm(rec.x - x_star)) for rec in report.trace]
        for n, (prev, cur) in enumerate(zip(errs, errs[1:])):
            assert cur <= 1.05 * (c2 * prev ** 2 + c1 * prev) + 1e-12
            assert cur <= 1.05 * q0 ** (n + 1) * rho0


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(n=3, m=2, residual=lambda x: x, jacobian=lambda x: x)
    with pytest.raises(ValueError):
        SolverConfig(outer_tolerance=-1.0)


def test_prox_gn_step_minimizes_linearized_model():
    # the step equals the box-constrained minimizer of the linearized
    # least-squares model at the current point; enumeration is the oracle
    case = get_case("rosenbrock")
    box = case.box
    for x in (np.array([0.5, 0.5]), np.array([-1.0, 0.2])):
        j = case.problem.jacobian(x)
        f = case.problem.residual(x)
        z = x - np.linalg.lstsq(j, f, rcond=None)[0]
        want = exact_box_prox(j, z, box)
        got, _ = prox_gn_step(case.problem, BoxIndicator(box), x)
        assert np.linalg.norm(got - want) <= 1e-9


def test_record_reports_prox_convergence():
    # kowalik's first seed-7 start needs five BVLS iterations in its first prox
    case = get_case("kowalik")
    x0 = sample_starts(case, 1, 7)[0]
    _, full = prox_gn_step(case.problem, BoxIndicator(case.box), x0)
    assert full.prox_converged and full.inner_iterations >= 2
    capped = SolverConfig(inner=InnerConfig(max_iterations=1))
    _, record = prox_gn_step(case.problem, BoxIndicator(case.box), x0, capped)
    assert not record.prox_converged and record.inner_iterations == 1


def test_converged_status_implies_small_last_step():
    case = get_case("rosenbrock")
    report = solve(case.problem, BoxIndicator(case.box), np.array([0.5, 0.5]))
    assert report.status == SolveStatus.CONVERGED
    assert report.trace[-1].step_norm < SolverConfig().outer_tolerance


def test_solve_with_custom_prox_projection_matches_box_run():
    # a projection supplied as a custom identity-metric prox reaches, by the
    # projected-gradient loop, the prox that BVLS computes for the box
    # penalty, so the runs must agree
    problem = curved_embedding_problem(1.0)
    box = Box(np.array([0.05, -1.0]), np.array([1.0, 1.0]))
    x0 = np.array([0.8, 0.3])
    via_box = solve(problem, BoxIndicator(box), x0)
    via_custom = solve(problem, CustomProx(lambda z: project_box(z, box), "box"),
                       x0)
    assert via_box.status == via_custom.status == SolveStatus.CONVERGED
    assert np.linalg.norm(via_box.final_x - via_custom.final_x) <= 1e-9
    assert all(not rec.gn_point_feasible for rec in via_custom.trace)


@pytest.mark.parametrize("name", ["rosenbrock", "kowalik", "osborne2"])
def test_report_stationarity_matches_kkt_gap(name):
    case = get_case(name)
    for x0 in sample_starts(case, 20, 7):
        report = solve(case.problem, BoxIndicator(case.box), x0)
        assert report.status == SolveStatus.CONVERGED
        want = box_kkt_gap(case.problem, case.box, report.final_x)
        assert report.stationarity_residual == pytest.approx(want, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("name", ["kowalik", "osborne2"])
def test_one_linearization_per_iterate(name):
    # one residual and one Jacobian per iterate, the start included: the
    # step, its record, the next step and the report share them
    case = get_case(name)
    calls = {"residual": 0, "jacobian": 0}

    def counted(kind, fn):
        def wrapper(x):
            calls[kind] += 1
            return fn(x)
        return wrapper

    problem = dataclasses.replace(case.problem,
                                  residual=counted("residual", case.problem.residual),
                                  jacobian=counted("jacobian", case.problem.jacobian))
    for x0 in sample_starts(case, 20, 7):
        calls.update(residual=0, jacobian=0)
        report = solve(problem, BoxIndicator(case.box), x0)
        assert report.status == SolveStatus.CONVERGED
        assert calls == {"residual": report.iterations + 1, "jacobian": report.iterations + 1}
