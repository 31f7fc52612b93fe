"""Local convergence-radius machinery under generalized Lipschitz averages.

An increasing positive average function L on [0, R) induces the integral
means

    gamma_lambda(r) = r^{-(1+lambda)} * integral_0^r u^lambda L(u) du,
    gamma_c(r)      = r^{-2} * integral_0^r (2r - u) L(u) du,

which control the contraction factor q(r) of the proximal Gauss-Newton
fixed-point map around a minimizer with constants (alpha, beta, kappa).
The convergence radius r_bar is where q crosses 1, a root found by Brent's
method; for constant L it has a closed form via a quadratic in z = beta*L*r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

SQRT2_PLUS_1 = 1.0 + math.sqrt(2.0)
QUADRATURE_REL_TOL = 1e-10
_ROOT_REL_TOL = 1e-14


class OutOfDomainError(Exception):
    """Radius argument outside the average's domain or past the q-pole."""


class ConditionViolatedError(Exception):
    """Small-residual admissibility h < 1 fails."""


class LipschitzAverage:
    """A positive, non-decreasing, continuous average L on [0, R).

    Construct through :meth:`constant`, :meth:`from_callable` or
    :meth:`tabulated`.  Monotonicity and positivity of non-constant
    averages are checked by sampling.
    """

    def __init__(self, fn: Callable[[float], float], upper_limit: float,
                 constant_value: float | None = None,
                 breakpoints: np.ndarray | None = None):
        self._fn = fn
        self.upper_limit = float(upper_limit)
        self.constant_value = constant_value
        self.breakpoints = breakpoints
        if self.upper_limit <= 0:
            raise ValueError("upper domain limit must be positive")

    @classmethod
    def constant(cls, value: float) -> "LipschitzAverage":
        if value <= 0:
            raise ValueError("a constant average must be positive")
        v = float(value)
        return cls(lambda _u: v, math.inf, constant_value=v)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float],
                      upper_limit: float = math.inf) -> "LipschitzAverage":
        avg = cls(lambda u: float(fn(u)), upper_limit)
        avg._check_samples()
        return avg

    @classmethod
    def tabulated(cls, points, values, upper_limit: float | None = None) -> "LipschitzAverage":
        """Monotone piecewise-linear interpolant of (points, values).

        Beyond the last sample the value is held constant, so the default
        domain is unbounded.
        """
        us = np.asarray(points, dtype=float)
        vs = np.asarray(values, dtype=float)
        if us.ndim != 1 or us.shape != vs.shape or us.size < 2:
            raise ValueError("need matching 1-d sample arrays with at least 2 points")
        if np.any(np.diff(us) <= 0) or us[0] < 0:
            raise ValueError("sample abscissae must be nonnegative and increasing")
        if np.any(vs <= 0) or np.any(np.diff(vs) < 0):
            raise ValueError("sample values must be positive and non-decreasing")
        limit = math.inf if upper_limit is None else float(upper_limit)
        return cls(lambda u: float(np.interp(u, us, vs)), limit, breakpoints=us.copy())

    def _check_samples(self, count: int = 65):
        span = self.upper_limit if math.isfinite(self.upper_limit) else 16.0
        grid = np.linspace(0.0, span * (1.0 - 1e-12), count)
        vals = np.array([self._fn(u) for u in grid])
        # L(0) = 0 is tolerated so the integral means stay usable for
        # averages like L(u) = u; positivity is required away from 0
        if vals[0] < 0 or np.any(vals[1:] <= 0):
            raise ValueError("average must be positive on (0, R)")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(vals[-1]))):
            raise ValueError("average must be non-decreasing")

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    def __call__(self, u: float) -> float:
        if u < 0 or u >= self.upper_limit:
            raise OutOfDomainError(f"u={u} outside [0, {self.upper_limit})")
        return float(self._fn(u))


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      rel_tol: float = QUADRATURE_REL_TOL) -> float:
    """Adaptive Simpson quadrature with interval refinement.

    The first few levels refine unconditionally: on kinked integrands the
    half-interval estimates can agree with the whole by cancellation while
    both are wrong, so the acceptance test alone is not trustworthy early.
    """

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = f(lmid)
        fr = f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or (depth <= 44 and abs(left + right - whole) <= 15.0 * tol):
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, 0.5 * tol, depth - 1))

    if b <= a:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    scale = max(abs(whole), (b - a) * max(abs(fa), abs(fm), abs(fb)), 1e-300)
    return recurse(a, b, fa, fm, fb, whole, rel_tol * scale, 48)


def _integrate(average: LipschitzAverage, f: Callable[[float], float],
               a: float, b: float) -> float:
    """Integrate f over [a, b], splitting at the average's known kinks."""
    if average.breakpoints is None:
        return _adaptive_simpson(f, a, b)
    cuts = [a] + [float(u) for u in average.breakpoints if a < u < b] + [b]
    return sum(_adaptive_simpson(f, lo, hi) for lo, hi in zip(cuts, cuts[1:]))


def gamma_lambda(average: LipschitzAverage, lam: float, r: float) -> float:
    """Integral mean r^{-(1+lam)} * integral_0^r u^lam L(u) du; L(0)/(1+lam) at r=0."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if r < 0 or r >= average.upper_limit:
        raise OutOfDomainError(f"r={r} outside [0, {average.upper_limit})")
    if average.is_constant:
        return average.constant_value / (1.0 + lam)
    if r == 0.0:
        return average(0.0) / (1.0 + lam)
    integral = _integrate(average, lambda u: (u ** lam) * average(u), 0.0, r)
    return integral / (r ** (1.0 + lam))


def gamma_c(average: LipschitzAverage, r: float) -> float:
    """Integral mean r^{-2} * integral_0^r (2r - u) L(u) du; 3 L(0)/2 at r=0.

    Satisfies the identity gamma_c = 2*gamma_0 - gamma_1, which the tests
    verify against this direct quadrature.
    """
    if r < 0 or r >= average.upper_limit:
        raise OutOfDomainError(f"r={r} outside [0, {average.upper_limit})")
    if average.is_constant:
        return 1.5 * average.constant_value
    if r == 0.0:
        return 1.5 * average(0.0)
    integral = _integrate(average, lambda u: (2.0 * r - u) * average(u), 0.0, r)
    return integral / (r * r)


@dataclass(frozen=True)
class ProblemConstants:
    """(alpha, beta, kappa) = (||F(x*)||, ||F'(x*)^dag||, cond(F'(x*)))."""

    alpha: float
    beta: float
    kappa: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")


class LipschitzMode(str, Enum):
    """Which displacement mean enters q: gamma_c (center) or gamma_1 (radius)."""

    CENTER = "center"
    RADIUS = "radius"


def check_small_residual(constants: ProblemConstants, l_zero: float) -> tuple[float, bool]:
    """h = [(1+sqrt(2))*kappa + 1] * alpha * beta^2 * L(0); admissible iff h < 1."""
    if l_zero <= 0:
        raise ValueError("L(0) must be positive")
    h = (SQRT2_PLUS_1 * constants.kappa + 1.0) * constants.alpha * constants.beta ** 2 * l_zero
    return h, h < 1.0


def _gamma_mode(average: LipschitzAverage, mode: LipschitzMode, r: float) -> float:
    if mode == LipschitzMode.CENTER:
        return gamma_c(average, r)
    return gamma_lambda(average, 1.0, r)


def q_factor(constants: ProblemConstants, average: LipschitzAverage,
             mode: LipschitzMode, r: float) -> float:
    """Contraction factor q(r) of the prox-GN map on the r-ball.

    All four terms share the denominator (1 - beta*gamma_0(r)*r), hence
    q(r) = beta * [beta*g0*gm*r^2 + kappa*gm*r + (1+sqrt2)*alpha*beta^2*g0^2*r
                   + ((1+sqrt2)*kappa + 1)*alpha*beta*g0] / (1 - beta*g0*r)^2
    with gm = gamma_c or gamma_1 depending on the mode.
    """
    a, b, k = constants.alpha, constants.beta, constants.kappa
    g0 = gamma_lambda(average, 0.0, r)
    gm = _gamma_mode(average, mode, r)
    den = 1.0 - b * g0 * r
    if den <= 0.0:
        raise OutOfDomainError(f"r={r} at or past the pole of q (1 - beta*gamma_0*r <= 0)")
    numerator = (b * g0 * gm * r * r
                 + k * gm * r
                 + SQRT2_PLUS_1 * a * b * b * g0 * g0 * r
                 + (SQRT2_PLUS_1 * k + 1.0) * a * b * g0)
    return b * numerator / (den * den)


def _brent_root(f: Callable[[float], float], a: float, b: float,
                fa: float, fb: float) -> float:
    """Root of f in [a, b] from fa = f(a) < 0 <= fb = f(b), fb possibly inf.

    Brent's method (1973) as in scipy's brentq: secant or inverse quadratic
    steps, or bisection whenever a step would not halve the one before last.
    Stops once the bracket is narrower than _ROOT_REL_TOL of the root.
    """
    pre, fpre, cur, fcur = a, fa, b, fb
    blk, fblk, spre, scur = a, fa, 0.0, 0.0
    while True:
        if (fpre < 0.0) != (fcur < 0.0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk, fpre, fcur, fblk = cur, blk, cur, fcur, fblk, fcur
        delta = 0.5 * _ROOT_REL_TOL * max(abs(cur), abs(blk))
        sbis = 0.5 * (blk - cur)
        if fcur == 0.0 or abs(sbis) < delta:
            return cur
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if pre == blk:
                stry = -fcur * (cur - pre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (pre - cur)
                dblk = (fblk - fcur) / (blk - cur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        # a NaN step (no interpolation, or one through an infinite value) bisects
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(cur)


def sup_radius(constants: ProblemConstants, average: LipschitzAverage) -> float:
    """R_bar = sup { r in (0, R) : gamma_0(r) * r < 1/beta }.

    The map r -> beta*gamma_0(r)*r is strictly increasing, so the sup is a
    single root.  The bracket grows geometrically until it holds the root,
    as it must by 1/(beta*L(0)) since gamma_0 >= L(0); Brent's method then
    starts from the two values the growth computed last.
    """
    beta = constants.beta
    if average.is_constant:
        return min(1.0 / (beta * average.constant_value), average.upper_limit)

    def phi_minus_one(r: float) -> float:
        return beta * gamma_lambda(average, 0.0, r) * r - 1.0

    domain_cap = average.upper_limit
    l_zero = average(0.0)
    # with L(0) = 0 there is no analytic cap; any positive seed grows fine
    hi = 1.0 / (beta * l_zero) / 1024.0 if l_zero > 0 else 1.0 / beta
    if math.isfinite(domain_cap):
        hi = min(hi, 0.5 * domain_cap)
    lo, f_lo = 0.0, -1.0
    while True:
        if hi >= domain_cap:
            hi = domain_cap * (1.0 - 1e-12)
            f_hi = phi_minus_one(hi)
            if f_hi < 0.0:
                return domain_cap
            break
        f_hi = phi_minus_one(hi)
        if f_hi >= 0.0:
            break
        lo, f_lo = hi, f_hi
        hi *= 2.0
    return _brent_root(phi_minus_one, lo, hi, f_lo, f_hi)


def r_bar_numeric(constants: ProblemConstants, average: LipschitzAverage,
                  mode: LipschitzMode, *, _sup: float | None = None) -> float:
    """Radius of the convergence ball: the root of q(r) = 1 in (0, R_bar).

    q increases strictly from q(0) = h < 1, so the root is unique; Brent's
    method brackets it to 1e-14 relative.  q rises only by 1 - h over
    [0, r_bar], so its rounding limits the root to about eps/(1 - h).  When
    q stays below 1 on the whole domain the sup radius itself is returned.
    ``_sup`` is the sup radius when the caller already has it.
    """
    h, admissible = check_small_residual(constants, average(0.0))
    if not admissible:
        raise ConditionViolatedError(f"h={h:.6g} >= 1")
    r_sup = sup_radius(constants, average) if _sup is None else _sup

    def q_safe(r: float) -> float:
        try:
            return q_factor(constants, average, mode, r)
        except OutOfDomainError:
            return math.inf

    hi = r_sup * (1.0 - 1e-12)
    f_hi = q_safe(hi) - 1.0
    if f_hi < 0.0:
        return r_sup
    return _brent_root(lambda r: q_safe(r) - 1.0, 0.0, hi, h - 1.0, f_hi)


def r_bar_closed_form(constants: ProblemConstants, l_const: float,
                      mode: LipschitzMode) -> float:
    """Printed closed forms of the convergence radius for constant L.

    Center mode solves z^2 + 2b z - 2(1-h) = 0 with
    b = 2 + 3*kappa/2 + (1+sqrt2)*alpha*beta^2*L, returning the positive
    root; radius mode solves z^2 - 2b z + 2(1-h) = 0 with
    b = 2 + kappa/2 + (1+sqrt2)*alpha*beta^2*L, returning the smaller root.
    In both cases r_bar = z/(beta*L).
    """
    a, beta, k = constants.alpha, constants.beta, constants.kappa
    h, admissible = check_small_residual(constants, l_const)
    if not admissible:
        raise ConditionViolatedError(f"h={h:.6g} >= 1")
    tail = SQRT2_PLUS_1 * a * beta * beta * l_const
    # z = 2(1-h) / (b + sqrt(b^2 +- 2(1-h))) avoids -b + sqrt(...)'s cancellation
    if mode == LipschitzMode.CENTER:
        b = 2.0 + 1.5 * k + tail
        z = 2.0 * (1.0 - h) / (b + math.sqrt(b * b + 2.0 * (1.0 - h)))
    else:
        b = 2.0 + 0.5 * k + tail
        z = 2.0 * (1.0 - h) / (b + math.sqrt(b * b - 2.0 * (1.0 - h)))
    return z / (beta * l_const)


def contraction_constants(constants: ProblemConstants, average: LipschitzAverage,
                          mode: LipschitzMode, rho0: float) -> tuple[float, float]:
    """Constants (C1, C2) of ||x_{n+1} - x*|| <= C2 e_n^2 + C1 e_n at e_0 = rho0.

    C1 carries the residual term and vanishes exactly when alpha = 0; C2
    uses gamma_c in center mode and gamma_1 in radius mode.
    """
    if rho0 < 0:
        raise OutOfDomainError("rho0 must be nonnegative")
    a, b, k = constants.alpha, constants.beta, constants.kappa
    g0 = gamma_lambda(average, 0.0, rho0)
    gm = _gamma_mode(average, mode, rho0)
    den = 1.0 - b * g0 * rho0
    if den <= 0.0:
        raise OutOfDomainError(f"rho0={rho0} at or past the pole (1 - beta*gamma_0*rho0 <= 0)")
    c1 = (SQRT2_PLUS_1 * k + 1.0) * a * b * b * g0 / (den * den)
    c2 = (k * b * gm + SQRT2_PLUS_1 * a * b ** 3 * g0 * g0 + b * b * g0 * gm * rho0) / (den * den)
    return c1, c2


@dataclass(frozen=True)
class RadiusSummary:
    """Bundle of the radius computation for reporting."""

    h: float
    admissible: bool
    sup_radius: float
    r_bar: float
    r_bar_capped: bool
    r_bar_closed: float | None
    closed_form_discrepancy: bool


def convergence_radius(constants: ProblemConstants, average: LipschitzAverage,
                       mode: LipschitzMode) -> RadiusSummary:
    """Numeric radius, cross-validated against the closed form when L is constant.

    On a relative disagreement beyond 1e-9 the numeric root is kept and the
    summary carries a discrepancy flag.  ``r_bar_capped`` says that q stays
    below 1 up to the sup radius, which is then returned as r_bar.  Inadmissible
    constants raise ConditionViolatedError from ``r_bar_numeric``.
    """
    h, admissible = check_small_residual(constants, average(0.0))
    r_sup = sup_radius(constants, average)
    numeric = r_bar_numeric(constants, average, mode, _sup=r_sup)
    closed = None
    discrepancy = False
    if average.is_constant:
        closed = r_bar_closed_form(constants, average.constant_value, mode)
        discrepancy = abs(closed - numeric) > 1e-9 * closed
    return RadiusSummary(
        h=h,
        admissible=admissible,
        sup_radius=r_sup,
        r_bar=numeric,
        r_bar_capped=numeric >= r_sup,
        r_bar_closed=closed,
        closed_form_discrepancy=discrepancy,
    )
