"""Work ledger of the seed-7, 20-start sweeps: what solve evaluates and factorizes.

Wall time moves with the host; these counts do not.  For each built-in case
and each of the box and the zero penalty the ledger counts residual and
Jacobian evaluations, ``np.linalg.lstsq`` calls and their flop proxy
rows * cols^2, BVLS iterations (the records' ``inner_iterations``) and
``np.linalg.svd`` calls.  Its identities are exact; its budgets are the
counts of one numpy/BLAS build, which a change may lower and must not raise.
A failure prints the whole ledger.
"""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from proxgn import BoxIndicator, SolveStatus, ZeroPenalty, get_case, solve
from proxgn.cli import sample_starts

CASES = ("rosenbrock", "kowalik", "osborne1", "osborne2")
PENALTIES = ("box", "zero")

# (lstsq calls, BVLS iterations, flop proxy) per sweep, as counted with
# numpy 2 on OpenBLAS; a budget may tighten and must not loosen
BUDGETS = {
    ("rosenbrock", "box"): (275, 131, 1414),
    ("rosenbrock", "zero"): (60, 0, 480),
    ("kowalik", "box"): (444, 315, 33506),
    ("kowalik", "zero"): (2095, 0, 368720),
    ("osborne1", "box"): (187, 134, 67022),
    ("osborne1", "zero"): (22, 0, 17050),
    ("osborne2", "box"): (829, 486, 4659590),
    ("osborne2", "zero"): (88, 0, 692120),
}


def _sweep(case, penalty_name, monkeypatch) -> Counter:
    counts = Counter()
    lstsq, svd = np.linalg.lstsq, np.linalg.svd

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_lstsq(a, b, *args, **kwargs):
        rows, cols = a.shape
        counts["flops"] += rows * cols * cols
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", counted_lstsq))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    problem = dataclasses.replace(case.problem, residual=counted("F", case.problem.residual),
                                  jacobian=counted("J", case.problem.jacobian))
    penalty = BoxIndicator(case.box) if penalty_name == "box" else ZeroPenalty()
    for x0 in sample_starts(case, 20, 7):
        report = solve(problem, penalty, x0)
        counts["starts"] += 1
        counts["steps"] += report.iterations
        counts["bvls"] += sum(rec.inner_iterations for rec in report.trace)
        counts[report.status.value] += 1
        if report.status == SolveStatus.LEFT_DOMAIN:
            # an iterate whose F or J is not finite is recorded with a NaN
            # residual norm; any other left_domain exit is a non-finite
            # Gauss-Newton point, found after its lstsq
            at_evaluation = bool(report.trace) and np.isnan(report.trace[-1].residual_norm)
            counts["left_at_F" if at_evaluation else "left_at_gn"] += 1
    monkeypatch.undo()
    return counts


@pytest.fixture(scope="module")
def ledger():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {(name, penalty_name): _sweep(get_case(name), penalty_name, monkeypatch)
                for name in CASES for penalty_name in PENALTIES}


def _show(ledger) -> str:
    keys = ("starts", "steps", "F", "J", "lstsq", "bvls", "flops", "svd", "converged",
            "max_iterations", "jacobian_rank_deficient", "left_at_F", "left_at_gn")
    lines = ["case/penalty  " + " ".join(f"{k:>9}" for k in keys)]
    for (name, penalty), counts in ledger.items():
        lines.append(f"{name + '/' + penalty:<13} " + " ".join(f"{counts[k]:>9}" for k in keys))
    return "\n".join(lines)


def test_every_factorization_and_evaluation_is_accounted_for(ledger):
    # one lstsq per step (the Gauss-Newton point), per rank-loss exit and
    # non-finite Gauss-Newton point (the lstsq that found it), and per BVLS
    # iteration; one F and one J per start and per step, and one more at an
    # exit where they were not finite, evaluated again by the next step
    for counts in ledger.values():
        exits = counts["jacobian_rank_deficient"] + counts["left_at_gn"]
        assert counts["lstsq"] == counts["steps"] + exits + counts["bvls"], _show(ledger)
        assert counts["F"] == counts["J"] == counts["starts"] + counts["steps"] + counts["left_at_F"], \
            _show(ledger)
        assert counts["svd"] == 0, _show(ledger)


def test_work_stays_within_budget(ledger):
    assert set(ledger) == set(BUDGETS)
    for key, (lstsq, bvls, flops) in BUDGETS.items():
        counts = ledger[key]
        assert counts["lstsq"] <= lstsq and counts["bvls"] <= bvls and counts["flops"] <= flops, \
            _show(ledger)
