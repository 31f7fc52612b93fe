import dataclasses
import warnings
from collections import Counter

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
    Penalty,
    Problem,
    ProblemConstants,
    RankDeficientError,
    ShapeMismatchError,
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
from proxgn import solver as solver_module
from proxgn.cli import sample_starts
from oracles import (box_kkt_gap, coupled_square_problem, curved_embedding_problem, exact_box_prox,
                     normal_equation_pinv, quadratic_radius)


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
                           inner_iterations=0)


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
        # one rank rule: the solver's error is a linalg RankDeficientError
        assert issubclass(JacobianRankDeficientError, RankDeficientError)

    def test_wrong_residual_length_raises(self):
        problem = Problem(n=2, m=3, residual=lambda x: x.copy(),
                          jacobian=lambda x: np.ones((3, 2)))
        with pytest.raises(ShapeMismatchError, match="shapes"):
            gauss_newton_point(problem, [1.0, 2.0])
        # a misdeclared problem is the caller's error, not an exit from the domain
        with pytest.raises(ShapeMismatchError, match="shapes"):
            solve(problem, ZeroPenalty(), np.array([1.0, 2.0]))

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
        assert np.all((case.box.lower <= report.final_x) & (report.final_x <= case.box.upper))

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

    @pytest.mark.parametrize("ratio, status", [(1e-9, SolveStatus.CONVERGED),
                                               (1e-11, SolveStatus.JACOBIAN_RANK_DEFICIENT)])
    def test_rank_rule_sits_between_1e_9_and_1e_11(self, ratio, status):
        # the rule certifies full rank while sigma_min / sigma_max > 1e-10;
        # the exact linear problem A x = A 1 then steps to x = 1
        a = np.diag([1.0, ratio])
        report = solve(linear_problem(a, a @ np.ones(2)), ZeroPenalty(), np.zeros(2))
        assert report.status == status
        if status == SolveStatus.CONVERGED:
            assert report.iterations >= 1
            assert np.allclose(report.final_x, np.ones(2), rtol=0.0, atol=1e-6)
        else:
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

    def test_point_just_inside_a_bound_reads_the_full_gradient(self):
        # x1 lies 1e-8 above its lower bound 0, not on it, so the gradient
        # component x1 - b1 = 1 + 1e-8 that pushes x1 down violates in full
        problem = linear_problem(np.eye(2), [-1.0, 0.5])
        box = Box(np.zeros(2), np.ones(2))
        value = stationarity_residual(problem, BoxIndicator(box), np.array([1e-8, 0.5]))
        assert value == pytest.approx(1.0 + 1e-8, rel=1e-15, abs=0.0)

    def test_rosenbrock_reference_residual(self):
        # the printed reference is rounded to 5 digits; local curvature ~3e2
        # amplifies that rounding to ~1.9e-3, just above the nominal 1e-3
        case = get_case("rosenbrock")
        value = stationarity_residual(case.problem, BoxIndicator(case.box), case.reference_x)
        assert value <= 3e-3

    def test_custom_prox_fixed_point_route(self):
        problem = curved_embedding_problem(1.0)
        penalty = CustomProx(lambda v: v)
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

    @pytest.mark.parametrize("x0", [(0.3, 0.2), (0.4, -0.3), (0.1, -0.4), (0.45, 0.1)])
    @pytest.mark.parametrize("penalty", [
        ZeroPenalty(), BoxIndicator(Box(np.array([0.0, -np.inf]), np.full(2, np.inf)))],
        ids=["zero", "box"])
    def test_quadratic_order_where_gauss_newton_does_not_finish(self, x0, penalty):
        # the paper's quadratic rate at alpha = 0, bounded on both sides; the
        # root x* = 0 lies on the box face x1 = 0, and iterates land on it
        report = solve(coupled_square_problem(), penalty, np.array(x0))
        assert report.status == SolveStatus.CONVERGED
        if isinstance(penalty, BoxIndicator):
            assert any(rec.x[0] == 0.0 for rec in report.trace)
        _, order = estimate_rate(report.trace, np.zeros(2))
        assert 1.8 <= order <= 2.2

    @pytest.mark.parametrize("penalty", [
        ZeroPenalty(), BoxIndicator(Box(np.array([0.0, -np.inf]), np.full(2, np.inf)))],
        ids=["zero", "box"])
    def test_linear_tail_ratio_at_most_h(self, penalty):
        # the paper's linear rate at alpha > 0: e_{n+1}/e_n tends to C1(0) = h.
        # On F = (x1 + t, x2, c/2 |x|^2 + s), x* = 0, beta = kappa = 1 and L = c;
        # the box x1 >= 0 is active at x* with multiplier t > 0
        rng = np.random.default_rng(16)
        boxed = isinstance(penalty, BoxIndicator)
        for _ in range(25):
            c, h = rng.uniform(0.5, 4.0), rng.uniform(0.2, 0.9)
            alpha = h / ((2.0 + np.sqrt(2.0)) * c)
            # (t, s) = alpha (cos, sin) of an angle; t = 0 without the box
            angle = rng.uniform(0.1, 1.4) if boxed else np.pi / 2
            t = alpha * np.cos(angle) if boxed else 0.0
            s = alpha * np.sin(angle) * rng.choice([-1.0, 1.0])
            # a start at 0.9 r_bar, in the half-plane x1 >= 0 for the box
            theta = rng.uniform(-np.pi / 2, np.pi / 2) + (0.0 if boxed else rng.choice([0.0, np.pi]))
            rho0 = 0.9 * quadratic_radius(alpha, 1.0, 1.0, c, "center")
            x0 = rho0 * np.array([np.cos(theta), np.sin(theta)])
            report = solve(curved_embedding_problem(c, t, s), penalty, x0)
            assert report.status == SolveStatus.CONVERGED
            q_linear, _ = estimate_rate(report.trace, np.zeros(2))
            assert q_linear <= h + 1e-6

    def test_rounding_floor_scales_with_the_solution(self):
        # one ulp at x* = 2^30 is 2^-22: iterates that stall there sit at
        # rounding-level distances far above the absolute floor 1e-10
        x_star = np.array([2.0 ** 30, -(2.0 ** 30)])
        tail = [2.0 ** -k for k in (1, 2, 4, 8, 16)] + [2.0 ** -22, 2.0 ** -21, 2.0 ** -22]
        trace = [synthetic_record(n, x_star + [e, 0.0]) for n, e in enumerate(tail, 1)]
        q, order = estimate_rate(trace, x_star)
        assert q == 0.5
        assert order == pytest.approx(2.0, abs=1e-12)

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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["outer_tolerance"])
def test_solver_config_rejects_non_finite_settings(field, value):
    # a NaN tolerance would switch off the stop rule
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{field: value})


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
    via_custom = solve(problem, CustomProx(lambda z: project_box(z, box)), x0)
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


@pytest.mark.parametrize("name", ["kowalik", "osborne2"])
def test_each_step_calls_step_and_prox_by_module_name(name, monkeypatch):
    # the layer tracer of the benchmark replaces these two module attributes,
    # so solve must reach every step and every prox call through them
    case = get_case(name)
    calls = Counter()

    def count(attr):
        fn = getattr(solver_module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(solver_module, attr, wrapper)

    count("prox_gn_step")
    count("prox_metric")
    for x0 in sample_starts(case, 20, 7):
        calls.clear()
        report = solve(case.problem, BoxIndicator(case.box), x0)
        assert report.status == SolveStatus.CONVERGED
        assert calls == {"prox_gn_step": report.iterations, "prox_metric": report.iterations}


def _poisoned_after_start(fn, value):
    """fn at the start x = 0; every entry replaced by ``value`` anywhere else."""
    return lambda x: fn(x) if not x.any() else np.full_like(fn(x), value)


@pytest.mark.parametrize("penalty", [ZeroPenalty(),
                                     BoxIndicator(Box(-10.0 * np.ones(2), 10.0 * np.ones(2)))])
@pytest.mark.parametrize("broken, value", [("residual", np.nan), ("jacobian", np.inf),
                                           ("residual", 1e300)])
def test_non_finite_values_at_second_iterate_end_left_domain(penalty, broken, value):
    # solve trusts each iterate it hands to the next step, so F and J must
    # still be checked where they enter; a finite F whose ||F||^2 overflows
    # is no better than a non-finite one
    a, b = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0, 3.0])
    problem = linear_problem(a, b)
    problem = dataclasses.replace(
        problem, **{broken: _poisoned_after_start(getattr(problem, broken), value)})
    report = solve(problem, penalty, np.zeros(2))
    assert report.status == SolveStatus.LEFT_DOMAIN
    assert len(report.trace) == 1
    assert np.isnan(report.trace[0].residual_norm) and np.isnan(report.objective)


@pytest.mark.parametrize("max_outer", [1, 5])
def test_run_ends_in_the_step_that_reaches_a_non_finite_residual(max_outer):
    # the step from 0 lands on 2, where F is not finite: the run ends there
    # as left_domain, also when that step is the last one allowed, and F and
    # J are not evaluated at 2 again
    calls = Counter()

    def residual(x):
        calls["F"] += 1
        return x - 2.0 if x[0] < 1.5 else np.array([np.inf])

    def jacobian(x):
        calls["J"] += 1
        return np.array([[1.0]])

    problem = Problem(n=1, m=1, residual=residual, jacobian=jacobian)
    report = solve(problem, ZeroPenalty(), np.zeros(1), SolverConfig(max_outer=max_outer))
    assert report.status == SolveStatus.LEFT_DOMAIN
    assert len(report.trace) == 1 and report.trace[0].x.tolist() == [2.0]
    assert np.isnan(report.trace[0].residual_norm) and np.isnan(report.objective)
    assert calls == {"F": 2, "J": 2}


@pytest.mark.parametrize("name", ["kowalik", "osborne2"])
def test_record_residual_norm_is_the_norm_at_its_iterate(name):
    # each record's residual norm is ||F|| at the record's own x, and the
    # report's objective is half its square at the last one
    case = get_case(name)
    for x0 in sample_starts(case, 5, 7):
        report = solve(case.problem, BoxIndicator(case.box), x0)
        for rec in report.trace:
            f = case.problem.residual(rec.x)
            assert rec.residual_norm == np.sqrt(f @ f)
        assert report.objective == 0.5 * float(f @ f)


@pytest.mark.parametrize("penalty", [ZeroPenalty(),
                                     BoxIndicator(Box(np.array([-np.inf]), np.array([np.inf])))])
def test_non_finite_gauss_newton_point_ends_left_domain(penalty):
    # F and J are finite, but the step F/J overflows
    problem = Problem(n=1, m=1, residual=lambda x: np.array([1e150]),
                      jacobian=lambda x: np.array([[1e-160]]))
    report = solve(problem, penalty, np.zeros(1))
    assert report.status == SolveStatus.LEFT_DOMAIN and report.trace == []
    with pytest.raises(InvalidPointError):
        gauss_newton_point(problem, np.zeros(1))


@pytest.mark.parametrize("name", ["osborne1", "osborne2"])
def test_zero_penalty_sweep_reports_finite_numbers_without_warnings(name):
    # classical Gauss-Newton from the seed-7 starts overflows in the model's
    # exp and in ||F||^2; such a run must end with a status that says so,
    # without a numpy warning, and report no infinite number as converged
    case = get_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [solve(case.problem, ZeroPenalty(), x0) for x0 in sample_starts(case, 20, 7)]
    for report in reports:
        finite = np.isfinite(report.objective) and np.isfinite(report.stationarity_residual)
        assert finite or report.status != SolveStatus.CONVERGED
        assert all(np.isfinite(rec.residual_norm) for rec in report.trace[:-1])


@pytest.mark.parametrize("dim", [1, 3])
def test_solve_rejects_box_of_another_dimension(dim):
    # a length-1 box would broadcast against x silently
    box = Box(np.full(dim, -2.0), np.full(dim, 2.0))
    with pytest.raises(ShapeMismatchError):
        solve(rosenbrock_problem(), BoxIndicator(box), np.zeros(2))


def test_prox_gn_step_checks_x_without_hand_off():
    problem = rosenbrock_problem()
    with pytest.raises(ShapeMismatchError):
        prox_gn_step(problem, ZeroPenalty(), np.zeros(3))
    with pytest.raises(ValueError):
        prox_gn_step(problem, ZeroPenalty(), np.array([np.nan, 0.0]))


@pytest.mark.parametrize("name", ["kowalik", "osborne2"])
def test_gn_point_feasible_flag_means_what_it_says(name):
    # each record's flag says whether the Gauss-Newton point from the
    # previous iterate lay in the box
    case = get_case(name)
    flags = set()
    for x0 in sample_starts(case, 20, 7):
        report = solve(case.problem, BoxIndicator(case.box), x0)
        x_prev = x0
        for rec in report.trace:
            want = case.box.contains(gauss_newton_point(case.problem, x_prev))
            assert rec.gn_point_feasible == want
            flags.add(want)
            x_prev = rec.x
    assert flags == {True, False}


class Nonnegative(Penalty):
    """x >= 0: a penalty the library does not define, built on the box hooks."""

    def __init__(self, n):
        self.box = BoxIndicator(Box(np.zeros(n), np.full(n, np.inf)))

    def _start(self, x):
        return self.box._start(x)

    def _prox(self, mat, point, svals, cfg):
        return self.box._prox(mat, point, svals, cfg)

    def _stationarity(self, x, j, gradient, gn_point):
        return self.box._stationarity(x, j, gradient, gn_point)


def test_a_penalty_defined_outside_the_library_runs_through_solve():
    # nonnegative linear least squares: from any start one step reaches the
    # H-metric projection of the least-squares solution, which is the
    # nonnegative least-squares solution
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, x0 = rng.standard_normal((6, 3)), rng.standard_normal(6), rng.standard_normal(3)
        penalty = Nonnegative(3)
        report = solve(linear_problem(a, b), penalty, x0)
        want = exact_box_prox(a, np.linalg.lstsq(a, b, rcond=None)[0], penalty.box.box)
        assert report.status == SolveStatus.CONVERGED
        assert report.projected_start == bool((x0 < 0).any())
        assert np.linalg.norm(report.final_x - want) <= 1e-12 * (1.0 + np.linalg.norm(want))
        assert report.stationarity_residual <= 1e-12
        via_box = solve(linear_problem(a, b), penalty.box, x0)
        assert report.final_x.tobytes() == via_box.final_x.tobytes()
