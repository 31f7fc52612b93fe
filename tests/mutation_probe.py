"""Mutation probe: which plausible one-line slips in ``src/proxgn`` tier-1 notices.

    python tests/mutation_probe.py            # every mutant, a few minutes
    python tests/mutation_probe.py M11 M26    # a selection

pytest does not collect this file (its name does not start with ``test_``).
Each mutant replaces one snippet, which must occur exactly once, in one file
of a temporary copy of ``src/`` and ``tests/``.  Tier-1 then runs in that copy
with ``-x`` and the two documented acceptance failures deselected; the mutant
is killed when pytest fails.  The probe first runs the unmutated copy, which
must pass.  It prints one line per mutant and the kill count.  A survivor
that no input can tell apart from the original says so in its reason.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED_FAILURES = (
    "tests/test_acceptance.py::test_criterion_2_table_reproduction[osborne1]",
    "tests/test_acceptance.py::test_criterion_3_quadratic_order",
)

# (name, file, old, new, reason)
MUTANTS = (
    ("M06", "src/proxgn/solver.py",
     "if record.step_norm < max(cfg.outer_tolerance,",
     "if record.step_norm <= max(cfg.outer_tolerance,",
     "equivalent: the stop rule's < becomes <=, which differs only when a step "
     "norm equals the bound exactly, a tie of measure zero"),
    ("M09", "src/proxgn/prox.py",
     "g = _cone_gap(-gradient, self.box, x, 1e-14)",
     "g = _cone_gap(-gradient, self.box, x, 1e-6)",
     "the box exit-stationarity slack grows from 1e-14 to 1e-6, so a point 1e-8 "
     "inside a bound counts as on it"),
    ("M11", "src/proxgn/prox.py",
     "        violation[box.lower == box.upper] = 0.0\n",
     "",
     "_bvls may free a coordinate whose lower == upper"),
    ("M13", "src/proxgn/prox.py",
     "if delta < cfg.tolerance:",
     "if delta < 1000.0 * cfg.tolerance:",
     "CustomProx's stop rule is loosened 1000 times"),
    ("M22", "src/proxgn/radius.py",
     "discrepancy = abs(closed - numeric) > 1e-9 * closed",
     "discrepancy = abs(closed - numeric) > 1e-3 * closed",
     "the closed_form_discrepancy threshold grows from 1e-9 to 1e-3"),
    ("M26", "src/proxgn/linalg.py",
     "DEFAULT_RANK_TOLERANCE = 1e-10",
     "DEFAULT_RANK_TOLERANCE = 1e-8",
     "the rank rule's 1e-10 becomes 1e-8"),
    ("M28", "src/proxgn/linalg.py",
     "        operator_norm(pa @ mp - mp),\n",
     "",
     "verify_penrose skips PAP = P"),
    ("M29", "src/proxgn/checks.py",
     "return worst <= 1e-12, f\"worst KKT gap / ||H||",
     "return worst <= 1e-3, f\"worst KKT gap / ||H||",
     "validate's prox.certificate bound grows from 1e-12 to 1e-3"),
    ("M30", "src/proxgn/checks.py",
     "if rel > 1e-5:",
     "if rel > 1e-1:",
     "validate's jacobian.finite_difference bound grows from 1e-5 to 1e-1"),
    ("M31", "src/proxgn/problems.py",
     "def finite_diff_jacobian(problem: Problem, x, h: float = 1e-6)",
     "def finite_diff_jacobian(problem: Problem, x, h: float = 1e-3)",
     "finite_diff_jacobian's default step grows from 1e-6 to 1e-3"),
    ("M32", "src/proxgn/radius.py",
     "if depth <= 0 or (depth <= 44 and abs(e0) <= 15.0 * t0):",
     "if depth <= 0 or (depth <= 48 and abs(e0) <= 15.0 * t0):",
     "the L-only pass of gamma_0 and R_bar drops its unconditional early levels"),
    ("M33", "src/proxgn/radius.py",
     "            return left0 + right0 + e0 / 15.0\n        if not abs(e0) + abs(e0)",
     "            return left0 + right0\n        if not abs(e0) + abs(e0)",
     "the L-only pass drops its Richardson correction e0 / 15"),
    ("M34", "src/proxgn/radius.py",
     "start if start < r_sup * (1.0 - 1e-12) else r_sup, r_sup)",
     "min(start, r_sup * (1.0 - 1e-12)), r_sup)",
     "a capped r_bar search seeds below the cap and evaluates q there twice"),
    ("M35", "src/proxgn/solver.py",
     "step, _, _, svals = np.linalg.lstsq(j, f, rcond=None)",
     "step, _, _, svals = np.linalg.lstsq(j, f, rcond=None) and np.linalg.lstsq(j, f, rcond=None)",
     "_gn_core factorizes J twice per step"),
    ("M36", "src/proxgn/solver.py",
     'carry["fj"] = carry.get("fj") or _evaluate(problem, xv)',
     'carry["fj"] = _evaluate(problem, xv)',
     "prox_gn_step ignores solve's hand-off and evaluates F and J at each iterate twice"),
    ("M37", "src/proxgn/problems.py",
     "if key == x.tobytes() and dtype == x.dtype else",
     "if terms is not None else",
     "a case's Jacobian reuses the terms of the last residual without comparing points"),
    ("M38", "src/proxgn/solver.py",
     'residual_norm = math.sqrt(carry["fj"][2])',
     "residual_norm = math.sqrt(f @ f)",
     "a step records ||F|| at the previous iterate, not at the new one"),
    ("M39", "src/proxgn/solver.py",
     '        if linearized["fj"] is None:\n'
     "            status = SolveStatus.LEFT_DOMAIN\n"
     "            break\n",
     "",
     "solve goes on past an iterate whose F or J is not finite, and the next "
     "step evaluates them there again"),
)


def run_tier1(tree: Path) -> subprocess.CompletedProcess:
    # no bytecode: a restored file of the same size within the same second
    # could otherwise load the mutant's cached bytecode
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"--deselect={test}" for test in DOCUMENTED_FAILURES)]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def summary(result: subprocess.CompletedProcess) -> str:
    """The first failed test, else pytest's last line."""
    lines = result.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else (lines[-1] if lines else result.stderr.strip()[-200:])


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        baseline = run_tier1(tree)
        if baseline.returncode != 0:
            print(f"unmutated tree fails tier-1: {summary(baseline)}", file=sys.stderr)
            return 2
        killed = 0
        for name, file, old, new, reason in chosen:
            path = tree / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"{name}: snippet occurs {original.count(old)} times in {file}", file=sys.stderr)
                return 2
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                result = run_tier1(tree)
            finally:
                path.write_text(original)
            verdict = "killed" if result.returncode != 0 else "SURVIVED"
            killed += result.returncode != 0
            print(f"{name} {verdict:<8} {time.perf_counter() - start:5.1f}s  {file}: {reason}"
                  f"  [{summary(result)}]", flush=True)
        print(f"killed {killed} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
