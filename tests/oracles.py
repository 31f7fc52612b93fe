"""Independent oracles the tests check the library against.

These deliberately use different algorithms from the package: dense
normal-equation solves for pseudoinverses, power iteration for spectral
norms, grid + golden-section scans for one-dimensional proxes,
active-set enumeration for box-constrained quadratics, companion-matrix
eigenvalues for the constant-L convergence radius, and fixed Gauss-Legendre
rules for the integral means.
"""
from __future__ import annotations

import itertools

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


def exact_box_prox(a, z, box) -> np.ndarray:
    """argmin over the box of ||A(v - z)||^2 by enumerating all 3^n active sets.

    Each coordinate sits at its lower bound, at its upper bound or is free;
    the free part solves the reduced normal equations, and the cheapest
    feasible candidate wins.  Exponential in the dimension, so small n only.
    """
    a = np.asarray(a, dtype=float)
    point = np.asarray(z, dtype=float)
    h = a.T @ a
    hz = h @ point
    best, best_val = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=point.shape[0]):
        side = np.array(pattern)
        v = np.where(side < 0, box.lower, np.where(side > 0, box.upper, 0.0))
        if not np.isfinite(v).all():
            continue
        free, fixed = side == 0, side != 0
        if free.any():
            rhs = hz[free] - h[np.ix_(free, fixed)] @ v[fixed]
            v[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
        if np.any(v < box.lower - 1e-9) or np.any(v > box.upper + 1e-9):
            continue
        d = v - point
        val = 0.5 * float(d @ h @ d)
        if val < best_val:
            best, best_val = v, val
    return best


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


def curved_embedding_problem(curvature: float = 1.0, t: float = 0.0, s: float = 0.0):
    """Test map F(x) = (x1 + t, x2, c/2 * |x|^2 + s) with stationary point 0.

    Its Jacobian is [[1,0],[0,1],[c x1, c x2]], whose variation has operator
    norm exactly c * ||x - y||: the Jacobian-Lipschitz constant (and hence
    the constant center/radius average) is c.  At x* = 0, beta = 1,
    kappa = 1 and alpha = ||F(0)|| = hypot(t, s).  The gradient J(0)^T F(0)
    is (t, 0), so 0 is stationary without a penalty when t = 0, and for the
    box x1 >= 0 when t > 0.  t = s = 0 gives the zero-residual embedding.
    """
    from proxgn import Problem

    c = float(curvature)

    def residual(x):
        return np.array([x[0] + t, x[1], 0.5 * c * (x[0] ** 2 + x[1] ** 2) + s])

    def jacobian(x):
        return np.array([[1.0, 0.0], [0.0, 1.0], [c * x[0], c * x[1]]])

    return Problem(n=2, m=3, residual=residual, jacobian=jacobian,
                   name="curved_embedding")


def coupled_square_problem():
    """Square zero-residual map F(x) = (x1 + x2^2, x2 + x1^2) with root 0.

    J(x) = [[1, 2 x2], [2 x1, 1]] is I at the root and singular on
    4 x1 x2 = 1, so Gauss-Newton is Newton's method there and converges
    quadratically without finishing in finitely many steps.
    """
    from proxgn import Problem

    def residual(x):
        return np.array([x[0] + x[1] ** 2, x[1] + x[0] ** 2])

    def jacobian(x):
        return np.array([[1.0, 2.0 * x[1]], [2.0 * x[0], 1.0]])

    return Problem(n=2, m=2, residual=residual, jacobian=jacobian, name="coupled_square")


def quadratic_radius(alpha: float, beta: float, kappa: float, l_const: float, mode) -> float:
    """r_bar for constant L from the companion-matrix roots of the q = 1 quadratic.

    With gamma_0 = L and the mode's mean c*L (c = 3/2 center, 1/2 radius),
    q(r) = 1 reads (c-1) z^2 + (c*kappa + t + 2) z + (h-1) = 0 in z = beta*L*r,
    t = (1+sqrt2)*alpha*beta^2*L; the radius is its root in (0, 1) over beta*L.
    """
    sqrt2_plus_1 = 1.0 + np.sqrt(2.0)
    c = 1.5 if mode == "center" else 0.5
    t = sqrt2_plus_1 * alpha * beta * beta * l_const
    h = (sqrt2_plus_1 * kappa + 1.0) * alpha * beta ** 2 * l_const
    roots = np.roots([c - 1.0, c * kappa + t + 2.0, h - 1.0])
    z = [float(r.real) for r in roots if r.imag == 0.0 and 0.0 < r.real < 1.0]
    assert len(z) == 1, roots
    return z[0] / (beta * l_const)


def gauss_legendre_means(average, r: float, knots=()) -> tuple[float, float, float]:
    """(gamma_0, gamma_1, gamma_c) at r by the 3-node Gauss-Legendre rule on each knot piece.

    The rule is exact for polynomials of degree 5, so for averages that are
    polynomial of degree <= 3 between knots (constant, affine, piecewise
    linear) every integrand L, u L and (2r - u) L is integrated exactly.
    gamma_c is integrated directly, not through 2 gamma_0 - gamma_1.
    """
    if r == 0.0:
        l_zero = average(0.0)
        return l_zero, l_zero / 2.0, 1.5 * l_zero
    nodes, weights = np.polynomial.legendre.leggauss(3)
    cuts = [0.0] + [float(u) for u in knots if 0.0 < u < r] + [r]
    i0 = i1 = ic = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        us = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        ls = np.array([average(u) for u in us])
        i0 += float(ws @ ls)
        i1 += float(ws @ (us * ls))
        ic += float(ws @ ((2.0 * r - us) * ls))
    return i0 / r, i1 / r ** 2, ic / r ** 2
