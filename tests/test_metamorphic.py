"""Metamorphic tests of the solver.

Each test transforms a problem in a way whose effect on the run is known in
advance, so no reference solution is needed: scaling F and J together leaves
every step unchanged, a permutation of the residual rows leaves the
least-squares problems unchanged, and a diagonal change of variables x = D y
maps the box, the starts and the solution through D.
"""
import dataclasses
from functools import partial

import numpy as np
import pytest

from proxgn import Box, BoxIndicator, CustomProx, SolveStatus, get_case, project_box, solve
from proxgn.cli import sample_starts

CASES = ["rosenbrock", "kowalik", "osborne2"]


def scaled_residual(problem, c):
    """c F with Jacobian c J."""
    return dataclasses.replace(problem, residual=lambda x: c * problem.residual(x),
                               jacobian=lambda x: c * problem.jacobian(x))


def permuted_rows(problem, perm):
    return dataclasses.replace(problem, residual=lambda x: problem.residual(x)[perm],
                               jacobian=lambda x: problem.jacobian(x)[perm])


def scaled_variables(case, d):
    """The case in y with x = d * y: the problem, and the box divided by d."""
    p = case.problem
    problem = dataclasses.replace(p, residual=lambda y: p.residual(d * y),
                                  jacobian=lambda y: p.jacobian(d * y) * d,
                                  validity=lambda y: p.validity(d * y))
    return problem, Box(case.box.lower / d, case.box.upper / d)


def close(x, y, rel):
    return np.linalg.norm(x - y) <= rel * np.linalg.norm(y)


def assert_bitwise_scaled(base, run, c, stationarity_factor):
    """``run`` on c F repeats ``base`` step for step; only the norms of F scale.

    A stationarity measured on the gradient J^T F scales by c^2; a fixed-point
    residual in x does not scale.
    """
    assert run.status == base.status and run.iterations == base.iterations
    assert run.final_x.tobytes() == base.final_x.tobytes()
    assert run.objective == c * c * base.objective
    assert run.stationarity_residual == stationarity_factor * base.stationarity_residual
    for rec, want in zip(run.trace, base.trace):
        assert rec.x.tobytes() == want.x.tobytes()
        assert rec.residual_norm == c * want.residual_norm
        assert (rec.step_norm, rec.jacobian_condition, rec.inner_iterations,
                rec.gn_point_feasible, rec.prox_converged) == (
            want.step_norm, want.jacobian_condition, want.inner_iterations,
            want.gn_point_feasible, want.prox_converged)


@pytest.mark.parametrize("name", CASES)
def test_power_of_two_residual_scaling_is_bitwise(name):
    case = get_case(name)
    penalty = BoxIndicator(case.box)
    for x0 in sample_starts(case, 10, 7):
        base = solve(case.problem, penalty, x0)
        for c in (2.0 ** 20, 2.0 ** -20):
            run = solve(scaled_residual(case.problem, c), penalty, x0)
            assert_bitwise_scaled(base, run, c, c * c)


@pytest.mark.parametrize("name", ["rosenbrock", "kowalik"])
def test_power_of_two_residual_scaling_is_bitwise_for_a_custom_prox(name):
    case = get_case(name)
    penalty = CustomProx(partial(project_box, box=case.box))
    for x0 in sample_starts(case, 2, 7):
        base = solve(case.problem, penalty, x0)
        c = 2.0 ** 20
        assert_bitwise_scaled(base, solve(scaled_residual(case.problem, c), penalty, x0), c, 1.0)


@pytest.mark.parametrize("name", CASES)
def test_decimal_residual_scaling_keeps_counts_and_solution(name):
    case = get_case(name)
    penalty = BoxIndicator(case.box)
    for x0 in sample_starts(case, 10, 7):
        base = solve(case.problem, penalty, x0)
        run = solve(scaled_residual(case.problem, 1e4), penalty, x0)
        assert run.status == base.status == SolveStatus.CONVERGED
        assert run.iterations == base.iterations
        assert close(run.final_x, base.final_x, 1e-13)


@pytest.mark.parametrize("name", CASES)
def test_row_permutation_keeps_counts_and_solution(name):
    case = get_case(name)
    penalty = BoxIndicator(case.box)
    rng = np.random.default_rng(7)
    for x0 in sample_starts(case, 10, 7):
        base = solve(case.problem, penalty, x0)
        run = solve(permuted_rows(case.problem, rng.permutation(case.problem.m)), penalty, x0)
        assert run.status == base.status == SolveStatus.CONVERGED
        assert run.iterations == base.iterations
        assert close(run.final_x, base.final_x, 1e-13)


@pytest.mark.parametrize("name", CASES)
def test_diagonal_change_of_variables_maps_the_solution(name):
    case = get_case(name)
    rng = np.random.default_rng(7)
    for x0 in sample_starts(case, 10, 7):
        d = 10.0 ** rng.uniform(-2.0, 2.0, case.problem.n)
        problem, box = scaled_variables(case, d)
        base = solve(case.problem, BoxIndicator(case.box), x0)
        run = solve(problem, BoxIndicator(box), x0 / d)
        assert run.status == base.status == SolveStatus.CONVERGED
        assert abs(run.iterations - base.iterations) <= 2
        assert close(d * run.final_x, base.final_x, 1e-12)


@pytest.mark.parametrize("d", [1e-3, 1e-4, 1e-5])
def test_stop_rule_has_a_rounding_floor_at_large_x(d):
    # with x = d y the iterates y are 1/d times larger, and so is the rounding
    # in a step; an absolute step bound of 1e-12 alone is then never met
    case = get_case("osborne2")
    problem, box = scaled_variables(case, np.full(case.problem.n, d))
    for x0 in sample_starts(case, 10, 7):
        base = solve(case.problem, BoxIndicator(case.box), x0)
        run = solve(problem, BoxIndicator(box), x0 / d)
        assert run.status == base.status == SolveStatus.CONVERGED
        assert run.iterations <= base.iterations + 2
        assert close(d * run.final_x, base.final_x, 1e-12)
