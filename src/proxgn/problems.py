"""Built-in benchmark problems with box constraints and reference minimizers.

Four fits come with full residual/Jacobian definitions (rosenbrock, kowalik,
osborne1, osborne2).  Two further cases (twoeq6, teneq1b) originate in an
external constrained-equations library; only their dimensions, boxes,
starting points and reference solutions are recorded here, so requesting
them raises ExternalDefinitionUnavailableError.

F and J at one point share their terms: a fit keeps its quotients or
exponentials for the last point, and its residual and Jacobian reuse them at a
point of the same dtype and bytes, so each formula is computed once per iterate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from .linalg import ShapeMismatchError
from .prox import Box
from .solver import InvalidPointError, Problem

__all__ = ["BenchmarkCase", "CASE_NAMES", "EXTERNAL_CASE_INFO", "EmptyBoxError",
           "ExternalDefinitionUnavailableError", "UnknownProblemError", "finite_diff_jacobian",
           "get_case", "shrink_box"]


class UnknownProblemError(Exception):
    """No benchmark case under that name."""


class ExternalDefinitionUnavailableError(Exception):
    """The case's defining equations are not bundled with this package."""


class EmptyBoxError(Exception):
    """A box transform produced an empty feasible set."""


@dataclass(frozen=True)
class BenchmarkCase:
    problem: Problem
    box: Box
    reference_x: np.ndarray | None
    reference_avg_iterations: int | None

    def __post_init__(self):
        if self.problem.n != self.box.dimension:
            raise ValueError("problem and box dimensions differ")
        if self.reference_x is not None and not self.box.contains(self.reference_x, atol=1e-4):
            raise ValueError("reference point must lie in the box (up to rounding slack)")


# -- residual/Jacobian definitions -------------------------------------------

# Data that does not depend on x, formed once, by the same arithmetic as inline.
_KOWALIK_U = data.KOWALIK_U
_KOWALIK_U2 = _KOWALIK_U * _KOWALIK_U
_OSBORNE1_T = 10.0 * np.arange(data.OSBORNE1_M)
_OSBORNE1_Y = data.OSBORNE1_Y[:data.OSBORNE1_M]
_OSBORNE2_T = np.arange(65) / 10.0
_OSBORNE2_NEG_T, _OSBORNE2_T_COLUMN = -_OSBORNE2_T, _OSBORNE2_T[:, None]


def _rosenbrock_residual(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class _LastTerms:
    """Decorates terms(x), the x-dependent terms that a case's F and J share.

    A call reuses the terms it kept when x's bytes and dtype match their key,
    so an x changed in place gets fresh ones; otherwise it computes them and
    keeps them with that key in one tuple, so no thread sees them under
    another point's key.
    """

    def __init__(self, terms):
        self._terms = terms
        self._slot = (None, None, None)

    def __call__(self, x):
        x = np.asarray(x)
        key, dtype, terms = self._slot
        here = x.tobytes()
        if key != here or dtype != x.dtype:
            terms = self._terms(x)
            self._slot = (here, x.dtype, terms)
        return terms


@_LastTerms
def _kowalik_terms(x):
    num = _KOWALIK_U2 + _KOWALIK_U * x[1]
    return num, _KOWALIK_U2 + _KOWALIK_U * x[2] + x[3], x[0] * num


def _kowalik_residual(x):
    _, den, scaled = _kowalik_terms(x)
    return data.KOWALIK_Y - scaled / den


def _kowalik_jacobian(x):
    u = _KOWALIK_U
    num, den, scaled = _kowalik_terms(x)
    den2 = den ** 2
    jac = np.empty((u.size, 4))
    jac[:, 0], jac[:, 1] = -num / den, -x[0] * u / den
    jac[:, 2], jac[:, 3] = scaled * u / den2, scaled / den2
    return jac


@_LastTerms
def _osborne1_terms(x):
    return np.exp(-x[3] * _OSBORNE1_T), np.exp(-x[4] * _OSBORNE1_T)


def _osborne1_residual(x):
    e1, e2 = _osborne1_terms(x)
    return _OSBORNE1_Y - (x[0] + x[1] * e1 + x[2] * e2)


def _osborne1_jacobian(x):
    t = _OSBORNE1_T
    e1, e2 = _osborne1_terms(x)
    jac = np.empty((t.size, 5))
    jac[:, 0], jac[:, 1], jac[:, 2] = -1.0, -e1, -e2
    jac[:, 3], jac[:, 4] = x[1] * t * e1, x[2] * t * e2
    return jac


@_LastTerms
def _osborne2_terms(x):
    """exp(-t x[4]) and, in column k of each 65x3 block, t - x[8+k], its
    square and the Gaussian exp(-(t - x[8+k])^2 x[5+k])."""
    shift = _OSBORNE2_T_COLUMN - x[8:]
    square = shift ** 2
    return np.exp(_OSBORNE2_NEG_T * x[4]), shift, square, np.exp(-square * x[5:8])


def _osborne2_residual(x):
    e0, _, _, g = _osborne2_terms(x)
    return data.OSBORNE2_Y - (x[0] * e0 + x[1] * g[:, 0] + x[2] * g[:, 1] + x[3] * g[:, 2])


def _osborne2_jacobian(x):
    t, x = _OSBORNE2_T, np.asarray(x)  # a list's x[1:4] does not multiply elementwise
    e0, shift, square, g = _osborne2_terms(x)
    jac = np.empty((t.size, 11))
    jac[:, 0] = -e0
    jac[:, 1:4] = -g
    jac[:, 4] = x[0] * t * e0
    jac[:, 5:8] = x[1:4] * square * g
    jac[:, 8:] = -2.0 * x[1:4] * x[5:8] * shift * g
    return jac


# -- case registry ------------------------------------------------------------

def _standard_case(name, m, residual, jacobian, lower, upper, reference_x, avg_iterations):
    """A bundled case whose arrays are read-only, so that no caller can corrupt the registry."""
    lower, upper, reference_x = (np.array(v, dtype=float) for v in (lower, upper, reference_x))
    for array in (lower, upper, reference_x):
        array.flags.writeable = False
    return BenchmarkCase(
        problem=Problem(n=reference_x.size, m=m, residual=residual, jacobian=jacobian, name=name),
        box=Box(lower, upper), reference_x=reference_x,
        reference_avg_iterations=avg_iterations)


# Built once, at import: get_case hands every caller the same case.
_STANDARD_CASES = {case.problem.name: case for case in (
    _standard_case("rosenbrock", 2, _rosenbrock_residual, _rosenbrock_jacobian,
                   [-3.0, -2.0], [3.0, 0.8], [0.89475, 0.80000], 7),
    _standard_case("kowalik", 11, _kowalik_residual, _kowalik_jacobian,
                   [0.1928, 0.1916, 0.1234, 0.1362], np.ones(4),
                   [0.19281, 0.19165, 0.12340, 0.13620], 7),
    _standard_case("osborne1", data.OSBORNE1_M, _osborne1_residual, _osborne1_jacobian,
                   [0.3754, 1.0, -2.0, 0.01287, 0.0], [1.0, 2.0, 0.0, 1.0, 1.0],
                   [0.37546, 1.93569, -1.46461, 0.01287, 0.02212], 21),
    _standard_case("osborne2", 65, _osborne2_residual, _osborne2_jacobian,
                   [1.31, 0.4314, 0.6336, 0.5, 0.5, 0.6, 1.0, 4.0, 2.0, 4.5689, 5.0],
                   [1.4, 0.8, 1.0, 1.0, 1.0, 3.0, 5.0, 7.0, 2.5, 5.0, 6.0],
                   [1.31000, 0.43157, 0.63367, 0.59941, 0.75423, 0.90423,
                    1.36573, 4.82393, 2.39867, 4.56890, 5.67535], 17),
)}


# Known metadata of the external constrained-equations cases (dimensions,
# boxes, published starting points and minimizers); their equations are not
# bundled.
EXTERNAL_CASE_INFO: dict[str, dict] = {
    "twoeq6": {
        "n": 2,
        "m": 2,
        "box": Box(np.array([0.0001, 0.0001]), np.array([0.9999, np.inf])),
        "reference_x": np.array([0.75739, 0.02130]),
        "reference_avg_iterations": 20,
        "starting_points": [np.array([0.9, 0.5]), np.array([0.6, 0.1])],
    },
    "teneq1b": {
        "n": 10,
        "m": 10,
        "box": Box(np.array([0.0001] * 4 + [0.0] * 6), np.full(10, np.inf)),
        "reference_x": np.array([2.99763, 3.96642, 79.99969, 0.00236, 0.00060,
                                 0.00136, 0.06457, 3.53081, 26.43154, 0.00449]),
        "reference_avg_iterations": 10,
        "starting_points": [
            np.array([1.0, 1.0, 20.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            np.array([2.0, 5.0, 40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0]),
        ],
    },
}

CASE_NAMES = ("rosenbrock", "kowalik", "osborne1", "osborne2", "twoeq6", "teneq1b")


def get_case(name: str) -> BenchmarkCase:
    """Look up a benchmark case by name."""
    key = name.strip().lower()
    if key in _STANDARD_CASES:
        return _STANDARD_CASES[key]
    if key in EXTERNAL_CASE_INFO:
        raise ExternalDefinitionUnavailableError(
            f"case '{key}' is defined by an external equations library whose "
            "formulas are not bundled; only its metadata is available "
            "(problems.EXTERNAL_CASE_INFO)"
        )
    raise UnknownProblemError(f"unknown case '{name}'; known: {', '.join(CASE_NAMES)}")


def finite_diff_jacobian(problem: Problem, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, column i = (F(x + h e_i) - F(x - h e_i)) / 2h."""
    base = np.asarray(x, dtype=float)
    if base.shape != (problem.n,):
        raise ShapeMismatchError(f"point must have shape ({problem.n},)")
    cols = []
    for i in range(problem.n):
        forward = base.copy()
        backward = base.copy()
        forward[i] += h
        backward[i] -= h
        if not (problem.validity(forward) and problem.validity(backward)):
            raise InvalidPointError(f"stencil around coordinate {i} leaves the domain")
        cols.append((np.asarray(problem.residual(forward), dtype=float)
                     - np.asarray(problem.residual(backward), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def shrink_box(box: Box, delta: float, which) -> Box:
    """Raise selected lower bounds to at least ``delta`` (zero-based indices).

    Pulls an open feasible region away from boundary faces where the
    derivative degenerates.
    """
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    lower = box.lower.copy()
    idx = sorted(set(int(i) for i in which))
    for i in idx:
        if i < 0 or i >= box.dimension:
            raise IndexError(f"coordinate index {i} out of range for dimension {box.dimension}")
        lower[i] = max(lower[i], delta)
    if np.any(lower > box.upper):
        raise EmptyBoxError("shrunken box is empty")
    return Box(lower, box.upper.copy())
