"""Independent oracles the tests check the library against.

These deliberately use different algorithms from the package: dense
normal-equation solves for pseudoinverses, power iteration for spectral
norms, grid + golden-section scans for one-dimensional proxes, and
active-set enumeration for box-constrained quadratics.
"""
from __future__ import annotations

import numpy as np


def normal_equation_pinv(a: np.ndarray) -> np.ndarray:
    """(A^T A)^{-1} A^T by a dense solve; fine at small scale."""
    a = np.asarray(a, dtype=float)
    return np.linalg.solve(a.T @ a, a.T)


def power_iteration_norm(a: np.ndarray, sweeps: int = 5000) -> float:
    """sqrt of the dominant eigenvalue of A^T A by brute-force power iteration."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    v = np.ones(gram.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(sweeps):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ gram @ v))


def gram_eigen_condition(a: np.ndarray) -> tuple[float, float]:
    """(1/sigma_min, sigma_max/sigma_min) from an eigendecomposition of A^T A."""
    eigvals = np.linalg.eigvalsh(np.asarray(a, float).T @ np.asarray(a, float))
    smin, smax = np.sqrt(eigvals[0]), np.sqrt(eigvals[-1])
    return float(1.0 / smin), float(smax / smin)


def golden_section_min(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Golden-section refinement of a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_golden_min(f, lo: float, hi: float, grid: int = 400) -> float:
    """Dense scan followed by golden-section refinement around the best cell."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    return golden_section_min(f, a, b)


def random_conditioned(rng, m: int, n: int, smin: float = 0.7, smax: float = 1.6) -> np.ndarray:
    """Random m x n matrix with singular values drawn from [smin, smax].

    The inner loop's step-difference stopping rule carries an error of
    roughly tol * cond(A)^2, so oracle-agreement checks keep cond(A)
    bounded by construction.
    """
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(smin, smax, size=n)
    return q1[:, :n] @ (s[:, None] * q2)


def box_kkt_gap(problem, box, x) -> float:
    """||distance of -J^T F from the box's normal cone at x||, bounds compared exactly."""
    g = -(problem.jacobian(x).T @ problem.residual(x))
    at_lower, at_upper = x <= box.lower, x >= box.upper
    g[at_lower] = np.maximum(g[at_lower], 0.0)
    g[at_upper] = np.minimum(g[at_upper], 0.0)
    return float(np.linalg.norm(g))


def curved_embedding_problem(curvature: float = 1.0):
    """Zero-residual test map F(x) = (x1, x2, c/2 * |x|^2) with minimizer 0.

    Its Jacobian is [[1,0],[0,1],[c x1, c x2]], whose variation has operator
    norm exactly c * ||x - y||: the Jacobian-Lipschitz constant (and hence
    the constant center/radius average) is c.  At the minimizer
    alpha = 0, beta = 1, kappa = 1.
    """
    from proxgn import Problem

    c = float(curvature)

    def residual(x):
        return np.array([x[0], x[1], 0.5 * c * (x[0] ** 2 + x[1] ** 2)])

    def jacobian(x):
        return np.array([[1.0, 0.0], [0.0, 1.0], [c * x[0], c * x[1]]])

    return Problem(n=2, m=3, residual=residual, jacobian=jacobian,
                   name="curved_embedding")
