"""Tests of the benchmark itself: python -m pytest bench/tests"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.bootstrap()

import harness  # noqa: E402
import oracle  # noqa: E402
from proxgn import cli, problems, solver  # noqa: E402
from proxgn.prox import BoxIndicator  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    result, lines = run.run_workload(workload, seed=7, seconds=0.0, trace=trace, min_ops=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    assert lines[0].startswith("meta ") and '"seed": 7' in lines[0]
    if trace:
        assert (tmp_path / f"spans-{workload}-seed7.csv.gz").is_file()


def test_box_sweep_starts_are_the_cli_starts():
    rounds = harness.make_workload("box-sweep", 7).rounds()
    drawn = [next(rounds) for _ in range(20)]
    for i, name in enumerate(harness.SOLVE_CASES):
        expected = cli.sample_starts(problems.get_case(name), 20, 7)
        for ops, x0 in zip(drawn, expected):
            assert ops[i].case == name
            assert ops[i].x0.tolist() == x0.tolist()


def test_local_interior_box_never_binds():
    workload = harness.make_workload("local-interior", 3)
    ops = next(workload.rounds())
    for op in ops:
        box = workload.boxes[op.case]
        ref = workload.cases[op.case].reference_x
        assert box.contains(op.x0)
        assert abs(op.x0 - ref).max() <= 0.01 * abs(ref).max()
        case_box = workload.cases[op.case].box
        assert np.allclose(box.upper - box.lower, 3 * (case_box.upper - case_box.lower))


def _solve(name, x0):
    case = problems.get_case(name)
    return case, solver.solve(case.problem, BoxIndicator(case.box), x0)


def test_kkt_check_rejects_a_perturbed_answer():
    case, report = _solve("rosenbrock", [0.0, 0.0])
    x = report.final_x
    assert oracle.check_solve(case.problem, case.box, x, "converged").ok
    moved = x + [1e-4, 0.0]
    verdict = oracle.check_solve(case.problem, case.box, moved, "converged")
    assert not verdict.ok and verdict.sound and verdict.reason.startswith("KKT")
    outside = oracle.check_solve(case.problem, case.box, x + [0.0, 1e-3], "converged")
    assert not outside.ok and not outside.sound


def test_kkt_check_fails_osborne1_converged_start_at_seed_7():
    workload = harness.make_workload("box-sweep", 7)
    rounds = workload.rounds()
    ops = [next(rounds)[harness.SOLVE_CASES.index("osborne1")] for _ in range(20)]
    verdicts = [workload.check(op, workload.run(op)) for op in ops]
    reasons = [v.reason.split(" ")[0] for v in verdicts]
    assert reasons.count("jacobian_rank_deficient") == 19
    assert reasons.count("KKT") == 1
    assert not any(v.ok for v in verdicts)


def test_radius_checks_reject_perturbed_answers():
    workload = harness.make_workload("radius-mix", 7)
    rounds = workload.rounds()
    zero_alpha = next(rounds)
    assert all(op.alpha == 0.0 for op in zero_alpha)
    assert all(op.alpha > 0.0 for op in next(rounds))
    for op in zero_alpha:
        out = workload.run(op)
        assert workload.check(op, out).ok, op
        off_root = dataclasses.replace(out, r_bar=out.r_bar * (1.0 + 1e-5))
        assert not workload.check(op, off_root).ok, op
        nonzero_c1 = dataclasses.replace(out, c1=1e-3)
        assert not workload.check(op, nonzero_c1).ok, op


def test_closed_form_radius_is_the_root_of_q():
    for mode in ("center", "radius"):
        r = oracle.closed_form_radius(0.01, 1.3, 4.0, 0.7, mode)
        assert oracle.q_by_quad(0.01, 1.3, 4.0, lambda u: 0.7, mode, r) == pytest.approx(1.0, abs=1e-12)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "radius-mix",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
