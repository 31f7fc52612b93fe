import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from proxgn import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_json_schema_and_aggregate(self, capsys):
        code, out = run_cli(["solve", "--case", "rosenbrock", "--starts", "20",
                             "--seed", "7", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"meta", "starts", "aggregate"}
        assert set(report["meta"]) == {"case", "seed", "tolerances"}
        assert report["meta"]["case"] == "rosenbrock"
        assert report["meta"]["seed"] == 7
        assert set(report["meta"]["tolerances"]) == {"outer", "inner", "rank"}
        assert len(report["starts"]) == 20
        for start in report["starts"]:
            assert set(start) == {"x0", "status", "final_x", "iterations"}
            assert start["status"] == "converged"
            assert abs(start["final_x"][0] - 0.89475) <= 1e-4
            assert abs(start["final_x"][1] - 0.80000) <= 1e-4
        agg = report["aggregate"]
        assert set(agg) == {"converged", "avg_outer_iterations", "max_condition"}
        assert agg["converged"] == 20
        avg = Fraction(agg["avg_outer_iterations"])
        assert 3 <= avg <= 14  # printed column says 7
        assert agg["max_condition"] > 1.0

    def test_json_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["solve", "--case", "rosenbrock", "--starts", "5", "--seed", "3",
                "--format", "json", "--trace"]
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fixed_point_start_converges_fast(self, capsys):
        # the 5-digit reference sits ~6e-6 from the exact fixed point, so one
        # correction step precedes the terminal sub-tolerance steps
        code, out = run_cli(["solve", "--case", "rosenbrock",
                             "--x0", "0.89475,0.8", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["starts"][0]["iterations"] <= 3

    def test_csv_trace(self, capsys):
        code, out = run_cli(["solve", "--case", "kowalik", "--starts", "1",
                             "--seed", "1", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,step_norm,residual_norm,inner_iterations,jacobian_condition"
        assert len(lines) >= 3
        first = lines[1].split(",")
        assert len(first) == 5
        assert int(first[0]) == 1
        float(first[1]), float(first[2]), float(first[4])

    def test_human_format(self, capsys):
        code, out = run_cli(["solve", "--case", "rosenbrock", "--starts", "2",
                             "--seed", "0"], capsys)
        assert code == 0
        assert "aggregate: converged 2/2" in out

    def test_zero_penalty_flag(self, capsys):
        # --x0=... form: a leading minus would otherwise read as a flag
        code, out = run_cli(["solve", "--case", "rosenbrock", "--penalty", "zero",
                             "--x0=-1.2,1.0", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        # unconstrained minimizer is (1, 1)
        assert report["starts"][0]["final_x"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_unknown_case_exit_3(self, capsys):
        assert cli.main(["solve", "--case", "nosuch"]) == 3
        assert cli.main(["solve", "--case", "twoeq6"]) == 3

    def test_bad_x0_exit_2(self, capsys):
        for x0 in ("a,b", "1.0", "nan,1", "inf,1", "1e400,1"):
            assert cli.main(["solve", "--case", "rosenbrock", "--x0", x0]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_no_case_exit_3(self, capsys):
        assert cli.main(["solve"]) == 3
        assert "need --case or --problem-file" in capsys.readouterr().err

    def test_bad_flag_exit_2(self, capsys):
        assert cli.main(["solve", "--nonsense"]) == 2

    def test_problem_file(self, tmp_path, capsys):
        source = """
import numpy as np
from proxgn import BenchmarkCase, Box, Problem

A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
B = np.array([1.0, 1.0, 1.0])

def make_case():
    problem = Problem(n=2, m=3, residual=lambda x: A @ x - B,
                      jacobian=lambda x: A, name="linear3x2")
    box = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    return BenchmarkCase(problem=problem, box=box, reference_x=None,
                         reference_avg_iterations=None)
"""
        path = tmp_path / "user_case.py"
        path.write_text(source)
        code, out = run_cli(["solve", "--problem-file", str(path),
                             "--x0", "0.0,0.0", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["starts"][0]["status"] == "converged"

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark run\n"
            "case = rosenbrock\n"
            "starts = 4\n"
            "seed = 11\n"
            "format = json\n"
        )
        code, out = run_cli(["solve", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(json.loads(out)["starts"]) == 4
        code, out = run_cli(["solve", "--config", str(cfg), "--starts", "2"], capsys)
        assert code == 0
        assert len(json.loads(out)["starts"]) == 2

    def test_config_equals_form_and_true_switch(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case = rosenbrock\nx0 = 0.5,0.5\nformat = json\ntrace = true\n")
        code, out = run_cli(["solve", f"--config={cfg}"], capsys)
        assert code == 0
        assert "trace" in json.loads(out)["starts"][0]

    def test_config_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("case rosenbrock\n")
        assert cli.main(["solve", "--config", str(bad)]) == 2
        assert cli.main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


class TestRadiusCommand:
    def parse(self, out):
        values = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, val = line.partition(" = ")
                values[key.strip()] = val.strip()
        return values

    def test_worked_instance(self, capsys):
        code, out = run_cli(["radius", "--alpha", "0", "--beta", "1",
                             "--kappa", "1", "--L", "1", "--mode", "center"], capsys)
        assert code == 0
        values = self.parse(out)
        assert float(values["h"]) == 0.0
        assert values["admissible"] == "True"
        assert float(values["r_bar"]) == pytest.approx(0.27492, abs=1e-5)
        assert values["r_bar_capped"] == "False"
        assert float(values["r_bar_closed_form"]) == pytest.approx(0.27492, abs=1e-5)
        assert values["closed_form_discrepancy"] == "False"
        assert float(values["C1(rho0=r_bar/2)"]) == 0.0
        assert float(values["C2(rho0=r_bar/2)"]) > 0.0
        lines = out.splitlines()
        header = lines.index("r,q")
        samples = [tuple(map(float, row.split(","))) for row in lines[header + 1:] if row]
        assert len(samples) == 20
        qs = [q for _, q in samples]
        assert qs[0] == 0.0
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert qs[-1] == pytest.approx(1.0, abs=1e-6)

    def test_inadmissible_exit_4(self, capsys):
        code, out = run_cli(["radius", "--alpha", "1", "--beta", "1",
                             "--kappa", "1", "--L", "1"], capsys)
        assert code == 4
        values = self.parse(out)
        assert float(values["h"]) == pytest.approx(3.4142, abs=1e-4)
        assert values["admissible"] == "False"

    def test_radius_mode_dominates(self, capsys):
        _, out_c = run_cli(["radius", "--alpha", "0.05", "--beta", "1",
                            "--kappa", "2", "--L", "1", "--mode", "center"], capsys)
        _, out_r = run_cli(["radius", "--alpha", "0.05", "--beta", "1",
                            "--kappa", "2", "--L", "1", "--mode", "radius"], capsys)
        r_center = float(self.parse(out_c)["r_bar"])
        r_radius = float(self.parse(out_r)["r_bar"])
        assert r_radius >= r_center

    def test_tabulated_average(self, capsys):
        code, out = run_cli(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1",
                             "--L-table", "0:1,1:2,2:4", "--mode", "center"], capsys)
        assert code == 0
        values = self.parse(out)
        assert 0.0 < float(values["r_bar"]) < 1.0
        assert "r_bar_closed_form" not in values

    # C2 keeps the closed form at a constant L near either end of the float range
    @pytest.mark.parametrize("l_const", ["1e-300", "1e-200", "1e300"])
    def test_radius_at_extreme_scales_matches_the_closed_form(self, l_const, capsys):
        code, out = run_cli(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1",
                             "--L", l_const], capsys)
        assert code == 0
        values = self.parse(out)
        r_bar, closed = float(values["r_bar"]), float(values["r_bar_closed_form"])
        assert abs(r_bar - closed) <= 1e-12 * closed
        assert values["closed_form_discrepancy"] == "False"

    def test_missing_average_exit_2(self, capsys):
        assert cli.main(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1"]) == 2

    def test_both_averages_exit_2(self, capsys):
        assert cli.main(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1",
                         "--L", "1", "--L-table", "0:1,1:2"]) == 2
        assert "either --L or --L-table" in capsys.readouterr().err


class TestValidateCommand:
    def test_clean_build_passes(self, capsys):
        code, out = run_cli(["validate"], capsys)
        assert code == 0
        assert "FAIL" not in out
        for family in ("penrose", "prox", "gamma", "radius", "jacobian", "reference"):
            assert family in out

    def test_filter(self, capsys):
        code, out = run_cli(["validate", "--filter", "prox"], capsys)
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()[:-1] if line]
        assert names
        assert all(name.startswith("prox.") for name in names)

    def test_corrupted_data_fails_named_check(self, capsys, monkeypatch):
        from proxgn import data

        corrupted = data.OSBORNE2_Y.copy()
        corrupted[0] += 0.5
        monkeypatch.setattr(data, "OSBORNE2_Y", corrupted)
        code, out = run_cli(["validate", "--filter", "reference"], capsys)
        assert code == 1
        assert "reference.stationarity" in out
        assert "FAIL" in out
        assert "osborne2" in out

    @staticmethod
    def statuses(out):
        return {line.split()[0]: line.split()[1] for line in out.splitlines()[:-1]}

    def test_names_in_order(self, capsys):
        code, out = run_cli(["validate"], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[:-1]] == [
            "penrose.equations", "penrose.perturbation", "penrose.operator_norm",
            "prox.oracle", "prox.pullback", "prox.lipschitz", "prox.metric_variation",
            "prox.certificate", "gamma.inequalities", "radius.closed_form",
            "jacobian.finite_difference", "reference.stationarity",
        ]

    def test_bvls_returning_its_start_fails_oracle(self, capsys, monkeypatch):
        from proxgn import prox

        monkeypatch.setattr(prox, "_bvls", lambda mat, z, start, box, cap: (start, 1, True))
        code, out = run_cli(["validate", "--filter", "prox"], capsys)
        assert code == 1
        assert self.statuses(out)["prox.oracle"] == "FAIL"

    @pytest.mark.parametrize("cap", ["one_step", "flag_only"])
    def test_capped_reference_fails(self, cap, capsys, monkeypatch):
        # the projected-gradient reference that prox.oracle and prox.pullback
        # compare BVLS with must converge; "flag_only" keeps the converged
        # point but reports the cap, so only the flag can fail the check
        from proxgn import CustomProx, InnerConfig

        real = cli.checks.prox_metric

        def capped(penalty, a, z, cfg=InnerConfig()):
            if not isinstance(penalty, CustomProx):
                return real(penalty, a, z, cfg)
            if cap == "one_step":
                return real(penalty, a, z, InnerConfig(max_iterations=1))
            return dataclasses.replace(real(penalty, a, z, cfg), converged=False)

        monkeypatch.setattr(cli.checks, "prox_metric", capped)
        code, out = run_cli(["validate", "--filter", "prox"], capsys)
        assert code == 1
        status = self.statuses(out)
        assert status["prox.oracle"] == status["prox.pullback"] == "FAIL"
        assert "capped" in out
        assert status["prox.certificate"] == "PASS"

    def test_prox_off_by_1e_7_fails_certificate(self, capsys, monkeypatch):
        # moving the free coordinates by 1e-7 leaves a KKT gap near
        # 1e-7 ||H||, far above the certificate's 1e-12 ||H||
        from proxgn import prox

        real = prox._bvls

        def nudged(mat, z, start, box, cap):
            point, k, converged = real(mat, z, start, box, cap)
            free = (box.lower < point) & (point < box.upper)
            return np.clip(point + 1e-7 * free, box.lower, box.upper), k, converged

        monkeypatch.setattr(prox, "_bvls", nudged)
        code, out = run_cli(["validate", "--filter", "prox.certificate"], capsys)
        assert code == 1
        assert self.statuses(out)["prox.certificate"] == "FAIL"

    def test_jacobian_off_by_1e_3_fails_finite_difference_check(self, capsys, monkeypatch):
        from proxgn import problems

        real = problems.get_case

        def skewed(name):
            case = real(name)
            jacobian = case.problem.jacobian
            problem = dataclasses.replace(case.problem, jacobian=lambda x: jacobian(x) * (1.0 + 1e-3))
            return dataclasses.replace(case, problem=problem)

        monkeypatch.setattr(problems, "get_case", skewed)
        code, out = run_cli(["validate", "--filter", "jacobian"], capsys)
        assert code == 1
        assert self.statuses(out)["jacobian.finite_difference"] == "FAIL"

    def test_error_fails_its_check(self, capsys, monkeypatch):
        from proxgn import RankDeficientError

        def broken(a):
            raise RankDeficientError("injected")

        monkeypatch.setattr(cli.checks, "pseudoinverse", broken)
        code, out = run_cli(["validate", "--filter", "penrose.perturbation"], capsys)
        assert code == 1
        assert "penrose.perturbation" in out and "FAIL" in out
        assert "RankDeficientError: injected" in out


class TestRounding:
    def test_half_up(self):
        assert cli.round_half_up(Fraction(15, 2)) == 8
        assert cli.round_half_up(Fraction(7, 1)) == 7
        assert cli.round_half_up(Fraction(141, 20)) == 7
        assert cli.round_half_up(Fraction(13, 4)) == 3
        assert cli.round_half_up(Fraction(0)) == 0


def run_module(args, timeout=60):
    """Run ``python -m proxgn`` on ``args`` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "proxgn", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestRobustness:
    def test_broken_problem_file_exit_3(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("this is not python (")
        assert cli.main(["solve", "--problem-file", str(bad)]) == 3
        empty = tmp_path / "empty.py"
        empty.write_text("x = 1\n")
        assert cli.main(["solve", "--problem-file", str(empty)]) == 3

    def test_radius_zero_l0_exit_2(self):
        assert cli.main(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1",
                         "--L-table", "0:0.0,1:2"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--beta", "1", "--kappa", "2", "--L-table", "0:1,1:nan"],
        ["--beta", "nan", "--kappa", "1", "--L", "1"],
        ["--beta", "inf", "--kappa", "1", "--L", "1"],
        ["--beta", "1", "--kappa", "1", "--L", "nan"],
    ])
    def test_radius_non_finite_input_exit_2(self, flags, capsys):
        assert cli.main(["radius", "--alpha", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_python_dash_m_runs_the_cli(self):
        done = run_module(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1", "--L", "1"])
        assert done.returncode == 0, done.stderr
        assert "r_bar = " in done.stdout

    # averages where beta*L(0) lies near the ends of the float range: each
    # radius computation must end, with a result or an error line, in a
    # subprocess so that a search that never returns fails by its timeout
    @pytest.mark.parametrize("flags", [
        ["--L", "1e300"], ["--L", "1e-320"], ["--L", "1e-300"], ["--L", "1e150"],
        ["--L-table", "0:1e300,1:1e300"], ["--L-table", "0:1e150,1:1e150"],
        ["--L-table", "0:1e-320,1:1e-320"],
    ], ids=" ".join)
    def test_radius_at_extreme_scales_ends_without_a_traceback(self, flags):
        done = run_module(["radius", "--alpha", "0", "--beta", "1", "--kappa", "1", *flags],
                          timeout=30)
        assert done.returncode in (0, 2), done.stderr
        assert "Traceback" not in done.stderr
        if done.returncode == 2:
            assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize("flags", [
        ["--max-outer", "0"], ["--max-inner", "0"], ["--epsilon", "0"], ["--epsilon", "-1"],
        ["--epsilon", "nan"], ["--starts", "0"], ["--starts", "-3"],
    ], ids=" ".join)
    def test_bad_solve_setting_exit_2(self, flags, capsys):
        assert cli.main(["solve", "--case", "rosenbrock", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_problem_file_with_a_dataclass_under_postponed_annotations(self, tmp_path, capsys):
        # dataclass resolves the string annotations through sys.modules[cls.__module__]
        path = tmp_path / "dataclass_case.py"
        path.write_text(
            "from __future__ import annotations\n\n"
            "from dataclasses import dataclass\n\n"
            "from proxgn import get_case\n\n\n"
            "@dataclass\n"
            "class Setting:\n"
            "    name: str\n\n\n"
            "def make_case():\n"
            "    return get_case(Setting('rosenbrock').name)\n")
        code, out = run_cli(["solve", "--problem-file", str(path), "--x0", "0.5,0.5",
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["starts"][0]["status"] == "converged"

    def test_problem_file_without_a_python_suffix_exit_3(self, tmp_path, capsys):
        path = tmp_path / "case.txt"
        path.write_text("def make_case():\n    return None\n")
        assert cli.main(["solve", "--problem-file", str(path)]) == 3
        assert "cannot load" in capsys.readouterr().err

    def test_make_case_returning_a_non_case_exit_3(self, tmp_path, capsys):
        path = tmp_path / "not_a_case.py"
        path.write_text("def make_case():\n    return 42\n")
        assert cli.main(["solve", "--problem-file", str(path)]) == 3
        assert "must return a BenchmarkCase" in capsys.readouterr().err

    def test_missing_make_case_is_named(self, tmp_path, capsys):
        path = tmp_path / "no_case.py"
        path.write_text("make_case = None\n")
        assert cli.main(["solve", "--problem-file", str(path)]) == 3
        assert "defines no make_case()" in capsys.readouterr().err

    def test_misdeclared_problem_file_exit_3(self, tmp_path, capsys):
        # the residual has length n = 2, not the declared m = 3
        path = tmp_path / "misdeclared.py"
        path.write_text(
            "import numpy as np\n"
            "from proxgn import BenchmarkCase, Box, Problem\n\n\n"
            "def make_case():\n"
            "    problem = Problem(n=2, m=3, residual=lambda x: x.copy(),\n"
            "                      jacobian=lambda x: np.ones((3, 2)))\n"
            "    return BenchmarkCase(problem, Box(np.zeros(2), np.ones(2)), None, None)\n")
        assert cli.main(["solve", "--problem-file", str(path), "--x0", "0.5,0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: residual/jacobian shapes (2,)/(3, 2)")

    @pytest.mark.parametrize("command", [
        ["solve", "--case", "rosenbrock", "--x0", "0.5,0.5"],
        ["radius", "--alpha", "0", "--beta", "1", "--kappa", "1", "--L", "1"],
        ["radius", "--alpha", "1", "--beta", "1", "--kappa", "1", "--L", "1"],
        ["validate", "--filter", "penrose"],
    ], ids=" ".join)
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_output_exit_2(self, command, where, tmp_path, capsys):
        output = tmp_path if where == "directory" else tmp_path / "missing" / "report"
        assert cli.main([*command, "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_error_inside_make_case_is_reported_as_such(self, tmp_path, capsys):
        path = tmp_path / "raising_case.py"
        path.write_text("import numpy as np\n\n\ndef make_case():\n"
                        "    return np.nonexistent_function()\n")
        assert cli.main(["solve", "--problem-file", str(path)]) == 3
        err = capsys.readouterr().err
        assert "nonexistent_function" in err
        assert "defines no make_case" not in err


class TestTraceSchema:
    def test_json_trace_row_fields(self, capsys):
        code, out = run_cli(["solve", "--case", "rosenbrock", "--x0", "0.5,0.5",
                             "--format", "json", "--trace"], capsys)
        assert code == 0
        report = json.loads(out)
        rows = report["starts"][0]["trace"]
        assert rows
        for row in rows:
            assert set(row) == {"n", "step_norm", "residual_norm",
                                "inner_iterations", "jacobian_condition"}
        assert [row["n"] for row in rows] == list(range(1, len(rows) + 1))
