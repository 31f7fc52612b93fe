"""Benchmark and diagnostics command line.

Subcommands: ``solve`` (single or multi-start benchmark runs with JSON/CSV/
human reports), ``radius`` (convergence-ball computations from problem
constants), ``validate`` (self-check suite).  A ``--config`` file with
``key = value`` lines mirrors the flags; explicit flags win.

Exit codes: 0 success, 1 failed runs or failed checks, 2 argument/config
errors, an ``--output`` that cannot be written and radius computations that
leave the float range, 3 unknown problem or a problem file that fails to load
or declares the wrong residual/Jacobian shapes, 4 inadmissible radius constants.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import checks, linalg, problems, radius
from .prox import BoxIndicator, InnerConfig, ZeroPenalty
from .solver import SolveReport, SolveStatus, SolverConfig, solve

# (column, IterationRecord field) of each trace row, in JSON key and CSV column order
TRACE_COLUMNS = (("n", "index"), ("step_norm", "step_norm"), ("residual_norm", "residual_norm"),
                 ("inner_iterations", "inner_iterations"), ("jacobian_condition", "jacobian_condition"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxgn")
    defaults = SolverConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file mirroring the flags")
    common.add_argument("--output", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[common], help="run the solver on a benchmark case")
    ps.add_argument("--case", help="built-in case name")
    ps.add_argument("--problem-file", help="python file defining make_case() -> BenchmarkCase")
    ps.add_argument("--penalty", choices=("box", "zero"), default="box")
    ps.add_argument("--x0", help="explicit start, comma-separated")
    ps.add_argument("--starts", type=int, default=1, help="number of random starts")
    ps.add_argument("--seed", type=int, default=0, help="RNG seed for random starts")
    ps.add_argument("--epsilon", type=float, default=defaults.outer_tolerance,
                    help="outer tolerance; also the inner one, which no CLI penalty reads")
    ps.add_argument("--max-outer", type=int, default=defaults.max_outer)
    ps.add_argument("--max-inner", type=int, default=defaults.inner.max_iterations,
                    help="cap on the box prox's BVLS iterations")
    ps.add_argument("--format", choices=("json", "csv", "human"), default="human")
    ps.add_argument("--trace", action="store_true", help="include per-iteration traces")

    pr = sub.add_parser("radius", parents=[common], help="convergence-radius computations")
    pr.add_argument("--alpha", type=float, required=True)
    pr.add_argument("--beta", type=float, required=True)
    pr.add_argument("--kappa", type=float, required=True)
    pr.add_argument("--L", type=float, help="constant Lipschitz average")
    pr.add_argument("--L-table", help="tabulated average as u:value,u:value,...")
    pr.add_argument("--mode", choices=("center", "radius"), default="center")
    pr.add_argument("--samples", type=int, default=20, help="number of (r, q(r)) samples")

    pv = sub.add_parser("validate", parents=[common], help="run the invariant self-checks")
    pv.add_argument("--filter", help="run only checks whose name contains this")
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Splice ``--config`` file entries in front of explicit flags."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    injected: list[str] = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            injected.append(flag)
        elif value.lower() != "false":
            injected.extend([flag, value])
    head, tail = argv[:1], argv[1:]
    return head + injected + tail


def _emit(text: str, output: str | None, code: int) -> int:
    """Write the report to ``output`` or stdout; return ``code``, or 2 when
    ``output`` cannot be written."""
    if not output:
        sys.stdout.write(text)
        return code
    try:
        Path(output).write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _load_case(args) -> problems.BenchmarkCase:
    if args.problem_file:
        spec = importlib.util.spec_from_file_location("proxgn_user_case", args.problem_file)
        if spec is None or spec.loader is None:
            raise problems.UnknownProblemError(f"cannot load {args.problem_file}")
        module = importlib.util.module_from_spec(spec)
        # registered while it loads: a @dataclass under postponed annotations looks it up
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            if not callable(getattr(module, "make_case", None)):
                raise problems.UnknownProblemError(f"{args.problem_file} defines no make_case()")
            case = module.make_case()
        except problems.UnknownProblemError:
            raise
        except Exception as exc:
            raise problems.UnknownProblemError(
                f"loading {args.problem_file} failed: {exc}") from exc
        finally:
            sys.modules.pop(spec.name, None)
        if not isinstance(case, problems.BenchmarkCase):
            raise problems.UnknownProblemError("make_case() must return a BenchmarkCase")
        return case
    if not args.case:
        raise problems.UnknownProblemError("need --case or --problem-file")
    return problems.get_case(args.case)


def sample_starts(case: problems.BenchmarkCase, count: int, seed: int) -> list[np.ndarray]:
    """Uniform draws from the box; infinite sides truncated at reference +- 10."""
    box = case.box
    center = case.reference_x if case.reference_x is not None else np.zeros(box.dimension)
    lo = np.where(np.isfinite(box.lower), box.lower, center - 10.0)
    up = np.where(np.isfinite(box.upper), box.upper, center + 10.0)
    rng = np.random.default_rng(seed)
    return [lo + rng.random(box.dimension) * (up - lo) for _ in range(count)]


def _aggregate(results: list[tuple[np.ndarray, SolveReport]]):
    converged = [r for _, r in results if r.status == SolveStatus.CONVERGED]
    avg = Fraction(sum(r.iterations for r in converged), max(len(converged), 1))
    conditions = [rec.jacobian_condition for _, r in results for rec in r.trace]
    return len(converged), avg, (max(conditions) if conditions else 0.0)


def _trace_rows(report: SolveReport):
    return [{column: getattr(rec, field) for column, field in TRACE_COLUMNS} for rec in report.trace]


def _json_report(args, case_name, results, cfg: SolverConfig, seed) -> str:
    n_converged, avg, max_condition = _aggregate(results)
    starts_payload = []
    for x0, report in results:
        entry = {
            "x0": [float(v) for v in x0],
            "status": report.status.value,
            "final_x": [float(v) for v in report.final_x],
            "iterations": report.iterations,
        }
        if args.trace:
            entry["trace"] = _trace_rows(report)
        starts_payload.append(entry)
    payload = {
        "meta": {
            "case": case_name,
            "seed": seed,
            "tolerances": {
                "outer": cfg.outer_tolerance,
                "inner": cfg.inner.tolerance,
                "rank": linalg.DEFAULT_RANK_TOLERANCE,
            },
        },
        "starts": starts_payload,
        "aggregate": {
            "converged": n_converged,
            "avg_outer_iterations": str(avg),
            "max_condition": max_condition,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _csv_report(results) -> str:
    lines = [",".join(column for column, _ in TRACE_COLUMNS)]
    for _, report in results:
        for row in _trace_rows(report):
            lines.append(",".join(repr(value) for value in row.values()))
    return "\n".join(lines) + "\n"


def round_half_up(value: Fraction) -> int:
    """Round a nonnegative rational to the nearest integer, halves up."""
    return int(value + Fraction(1, 2))


def _human_report(case, case_name, results) -> str:
    n_converged, avg, max_condition = _aggregate(results)
    lines = [f"case: {case_name}   starts: {len(results)}"]
    for i, (x0, report) in enumerate(results):
        line = (f"  start {i:2d}: {report.status.value:24s} iterations={report.iterations:4d}"
                f" objective={report.objective:.6e}"
                f" stationarity={report.stationarity_residual:.2e}")
        if case.reference_x is not None:
            dist = float(np.max(np.abs(report.final_x - case.reference_x)))
            line += f" max|x-ref|={dist:.2e}"
        lines.append(line)
    lines.append(f"aggregate: converged {n_converged}/{len(results)}"
                 f"  avg outer iterations {round_half_up(avg)}"
                 f"  worst condition {max_condition:.3e}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    try:
        cfg = SolverConfig(
            outer_tolerance=args.epsilon,
            max_outer=args.max_outer,
            inner=InnerConfig(tolerance=args.epsilon, max_iterations=args.max_inner),
        )
        if args.starts < 1:
            raise ValueError("--starts must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        case = _load_case(args)
    except (problems.UnknownProblemError, problems.ExternalDefinitionUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    penalty = BoxIndicator(case.box) if args.penalty == "box" else ZeroPenalty()
    seed = None
    if args.x0:
        try:
            x0 = np.array([float(tok) for tok in args.x0.split(",")], dtype=float)
        except ValueError:
            print(f"error: cannot parse --x0 {args.x0!r}", file=sys.stderr)
            return 2
        if x0.shape != (case.problem.n,) or not np.isfinite(x0).all():
            print(f"error: --x0 needs {case.problem.n} finite components", file=sys.stderr)
            return 2
        starts = [x0]
    else:
        seed = args.seed
        starts = sample_starts(case, args.starts, args.seed)

    try:
        results = [(x0, solve(case.problem, penalty, x0, cfg)) for x0 in starts]
    except linalg.ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    case_name = args.case or case.problem.name or "custom"
    if args.format == "json":
        text = _json_report(args, case_name, results, cfg, seed)
    elif args.format == "csv":
        text = _csv_report(results)
    else:
        text = _human_report(case, case_name, results)
    return _emit(text, args.output,
                 0 if all(r.status == SolveStatus.CONVERGED for _, r in results) else 1)


def _parse_average(args) -> radius.LipschitzAverage:
    if args.L is not None and args.L_table:
        raise ValueError("give either --L or --L-table, not both")
    if args.L is not None:
        return radius.LipschitzAverage.constant(args.L)
    if args.L_table:
        us, vs = [], []
        for piece in args.L_table.split(","):
            u, _, v = piece.partition(":")
            us.append(float(u))
            vs.append(float(v))
        return radius.LipschitzAverage.tabulated(us, vs)
    raise ValueError("an average is required: --L or --L-table")


def cmd_radius(args) -> int:
    try:
        constants = radius.ProblemConstants(alpha=args.alpha, beta=args.beta, kappa=args.kappa)
        average = _parse_average(args)
        mode = radius.LipschitzMode(args.mode)
        h, admissible = radius.check_small_residual(constants, average(0.0))
        if admissible:
            summary = radius.convergence_radius(constants, average, mode)
            c1, c2 = radius.contraction_constants(constants, average, mode, summary.r_bar / 2.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [f"h = {h!r}", f"admissible = {admissible}"]
    if not admissible:
        lines.append("small-residual condition violated: h >= 1, no radius exists")
        return _emit("\n".join(lines) + "\n", args.output, 4)
    lines.append(f"mode = {mode.value}")
    lines.append(f"sup_radius = {summary.sup_radius!r}")
    lines.append(f"r_bar = {summary.r_bar!r}")
    lines.append(f"r_bar_capped = {summary.r_bar_capped}")
    if summary.r_bar_closed is not None:
        lines.append(f"r_bar_closed_form = {summary.r_bar_closed!r}")
        lines.append(f"closed_form_discrepancy = {summary.closed_form_discrepancy}")
    lines.append(f"C1(rho0=r_bar/2) = {c1!r}")
    lines.append(f"C2(rho0=r_bar/2) = {c2!r}")
    lines.append("r,q")
    top = min(summary.r_bar, summary.sup_radius * (1.0 - 1e-9))
    for r in np.linspace(0.0, top, max(args.samples, 2)):
        lines.append(f"{float(r)!r},{radius.q_factor(constants, average, mode, float(r))!r}")
    return _emit("\n".join(lines) + "\n", args.output, 0)


def cmd_validate(args) -> int:
    results = checks.run_checks(args.filter)
    width = max((len(r.name) for r in results), default=10)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return _emit("\n".join(lines) + "\n", args.output, 0 if n_fail == 0 and results else 1)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "radius":
        return cmd_radius(args)
    return cmd_validate(args)


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
