"""Local convergence-radius machinery under generalized Lipschitz averages.

An increasing positive average function L on [0, R) induces the integral
means

    gamma_lambda(r) = r^{-(1+lambda)} * integral_0^r u^lambda L(u) du,
    gamma_c(r)      = r^{-2} * integral_0^r (2r - u) L(u) du,

which control the contraction factor q(r) of the proximal Gauss-Newton
fixed-point map around a minimizer with constants (alpha, beta, kappa).
Since gamma_c = 2*gamma_0 - gamma_1, q(r) and the constants C1, C2 need only
integral_0^r L and integral_0^r u L: one adaptive Simpson pass yields both
from the same evaluations of L, so each radius point r costs one pass.
The pass checks once that [0, r] lies in L's domain, then evaluates L's own
function unchecked: every abscissa it forms lies in [0, r].
The convergence radius r_bar is where q crosses 1, a root found by Brent's
method; for constant L it has a closed form via a quadratic in z = beta*L*r.
L is non-decreasing, so each search starts at its bound for the constant L(0).

An average is built from a callable, ``LipschitzAverage(fn, R)`` or
``LipschitzAverage.from_callable``, whose finiteness, positivity and
monotonicity on [0, R) are checked by sampling at construction; or by
``constant`` and ``tabulated``, which check their value or samples directly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = ["ConditionViolatedError", "LipschitzAverage", "LipschitzMode", "OutOfDomainError",
           "ProblemConstants", "RadiusSummary", "SQRT2_PLUS_1", "check_small_residual",
           "contraction_constants", "convergence_radius", "gamma_c", "gamma_lambda", "q_factor",
           "r_bar_closed_form", "r_bar_numeric", "sup_radius"]

SQRT2_PLUS_1 = 1.0 + math.sqrt(2.0)
_QUADRATURE_REL_TOL = 1e-10
_ROOT_REL_TOL = 1e-14
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_HALF_LARGEST = 0.5 * float(np.finfo(float).max)


class OutOfDomainError(Exception):
    """Radius argument outside the average's domain or past the q-pole."""


class ConditionViolatedError(Exception):
    """Small-residual admissibility h < 1 fails."""


class LipschitzAverage:
    """A positive, non-decreasing, continuous average L on [0, R).

    ``LipschitzAverage(fn, R)``, which :meth:`from_callable` calls, checks by
    sampling that ``fn`` is finite, positive and non-decreasing on [0, R).
    :meth:`constant` and :meth:`tabulated` check their own arguments instead,
    without sampling, and record the value or the knots for the quadrature.
    """

    def __init__(self, fn: Callable[[float], float], upper_limit: float):
        self._setup(fn, upper_limit)
        span = self.upper_limit if math.isfinite(self.upper_limit) else 16.0
        grid = np.linspace(0.0, span * (1.0 - 1e-12), 65)
        vals = np.array([float(fn(u)) for u in grid])
        if not np.all(np.isfinite(vals)):
            raise ValueError("average must be finite on [0, R)")
        # L(0) = 0 is tolerated so the integral means stay usable for
        # averages like L(u) = u; positivity is required away from 0
        if vals[0] < 0 or np.any(vals[1:] <= 0):
            raise ValueError("average must be positive on (0, R)")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(vals[-1]))):
            raise ValueError("average must be non-decreasing")

    def _setup(self, fn, upper_limit, constant_value=None, breakpoints=None) -> "LipschitzAverage":
        """The fields, without sampling: ``constant`` and ``tabulated`` call it
        on ``cls.__new__(cls)`` after checking their own arguments."""
        self._fn = fn
        self.upper_limit = float(upper_limit)
        self.constant_value = constant_value
        self.breakpoints = breakpoints
        if not self.upper_limit > 0:
            raise ValueError("upper domain limit must be positive")
        return self

    @classmethod
    def constant(cls, value: float) -> "LipschitzAverage":
        v = float(value)
        if not 0.0 < v < math.inf:
            raise ValueError("a constant average must be positive and finite")
        return cls.__new__(cls)._setup(lambda _u: v, math.inf, constant_value=v)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float],
                      upper_limit: float = math.inf) -> "LipschitzAverage":
        return cls(fn, upper_limit)

    @classmethod
    def tabulated(cls, points, values, upper_limit: float | None = None) -> "LipschitzAverage":
        """Monotone piecewise-linear interpolant of (points, values).

        The first value is held below a first sample above 0, and the last
        value beyond the last sample, so the default domain is unbounded.
        The samples are copied, and L is evaluated in Python floats with
        numpy.interp's formula, so it equals np.interp bitwise.
        """
        us = np.array(points, dtype=float)
        vs = np.array(values, dtype=float)
        if us.ndim != 1 or us.shape != vs.shape or us.size < 2:
            raise ValueError("need matching 1-d sample arrays with at least 2 points")
        if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vs))):
            raise ValueError("sample abscissae and values must be finite")
        if np.any(np.diff(us) <= 0) or us[0] < 0:
            raise ValueError("sample abscissae must be nonnegative and increasing")
        if np.any(vs <= 0) or np.any(np.diff(vs) < 0):
            raise ValueError("sample values must be positive and non-decreasing")
        xs, ys = us.tolist(), vs.tolist()
        slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
        if not all(math.isfinite(s) for s in slopes):
            raise ValueError("sample slopes overflow")
        first, last, pieces = ys[0], ys[-1], len(slopes)

        def interp(u: float) -> float:
            j = bisect_right(xs, u) - 1
            if j < 0:
                return first
            if j >= pieces:
                return last
            return slopes[j] * (u - xs[j]) + ys[j]

        limit = math.inf if upper_limit is None else upper_limit
        return cls.__new__(cls)._setup(interp, limit, breakpoints=us)

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    def __call__(self, u: float) -> float:
        if not 0 <= u < self.upper_limit:
            raise OutOfDomainError(f"u={u} outside [0, {self.upper_limit})")
        return float(self._fn(u))


def _integral_means(average: LipschitzAverage, lam: float, r: float) -> tuple[float, float]:
    """(gamma_0(r), gamma_lam(r)) from one adaptive Simpson pass over L.

    Each piece of [0, r] between the average's knots is integrated once for
    the pair (L, u^lam L): both share every evaluation of L, and an interval
    is accepted only when each meets its own relative tolerance.  The first
    few levels refine unconditionally: on kinked integrands the half-interval
    estimates can agree with the whole by cancellation while both are wrong,
    so the acceptance test alone is not trustworthy early.
    """
    if not 0 <= r < average.upper_limit:
        raise OutOfDomainError(f"r={r} outside [0, {average.upper_limit})")
    if average.is_constant or r == 0.0:
        l_zero = average.constant_value if average.is_constant else average(0.0)
        return l_zero, l_zero / (1.0 + lam)
    if r > _HALF_LARGEST:  # the Simpson midpoints add two abscissae
        raise ValueError(f"r={r!r} leaves the float range of the quadrature")

    # every abscissa below lies in [0, r], checked above, so L is evaluated
    # through its own function rather than the domain-checking __call__
    fn = average._fn

    # a suffix 0 marks the L component, 1 the u^lam L component; (a, m, b)
    # are the values at lo, mid and hi, w the Simpson estimate, t the tolerance
    def recurse(lo, hi, a0, a1, m0, m1, b0, b1, w0, w1, t0, t1, depth):
        mid = 0.5 * (lo + hi)
        ul, ur = 0.5 * (lo + mid), 0.5 * (mid + hi)
        l0, r0 = float(fn(ul)), float(fn(ur))
        l1, r1 = (ul ** lam) * l0, (ur ** lam) * r0
        wl, wr = (mid - lo) / 6.0, (hi - mid) / 6.0
        left0, left1 = wl * (a0 + 4.0 * l0 + m0), wl * (a1 + 4.0 * l1 + m1)
        right0, right1 = wr * (m0 + 4.0 * r0 + b0), wr * (m1 + 4.0 * r1 + b1)
        e0, e1 = left0 + right0 - w0, left1 + right1 - w1
        if depth <= 0 or (depth <= 44 and abs(e0) <= 15.0 * t0 and abs(e1) <= 15.0 * t1):
            return left0 + right0 + e0 / 15.0, left1 + right1 + e1 / 15.0
        # a non-finite value of L makes the error non-finite, which no
        # tolerance accepts: without this test the pass would recurse 48 deep
        if not abs(e0) + abs(e1) < math.inf:
            raise ValueError(f"the average is not finite on [{lo!r}, {hi!r}]")
        t0, t1 = 0.5 * t0, 0.5 * t1
        x0, x1 = recurse(lo, mid, a0, a1, l0, l1, m0, m1, left0, left1, t0, t1, depth - 1)
        y0, y1 = recurse(mid, hi, m0, m1, r0, r1, b0, b1, right0, right1, t0, t1, depth - 1)
        return x0 + y0, x1 + y1

    knots = () if average.breakpoints is None else average.breakpoints
    cuts = [0.0] + [float(u) for u in knots if 0.0 < u < r] + [r]
    int0 = int_lam = 0.0
    # u ** lam for u in [0, r] and r ** (1 + lam) may overflow or underflow to 0
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            a0, m0, b0 = float(fn(lo)), float(fn(mid)), float(fn(hi))
            a1, m1, b1 = (lo ** lam) * a0, (mid ** lam) * m0, (hi ** lam) * b0
            w = (hi - lo) / 6.0
            w0, w1 = w * (a0 + 4.0 * m0 + b0), w * (a1 + 4.0 * m1 + b1)
            t0 = _QUADRATURE_REL_TOL * max(abs(w0), (hi - lo) * max(abs(a0), abs(m0), abs(b0)), 1e-300)
            t1 = _QUADRATURE_REL_TOL * max(abs(w1), (hi - lo) * max(abs(a1), abs(m1), abs(b1)), 1e-300)
            part0, part_lam = recurse(lo, hi, a0, a1, m0, m1, b0, b1, w0, w1, t0, t1, 48)
            int0 += part0
            int_lam += part_lam
        return int0 / r, int_lam / (r ** (1.0 + lam))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"r={r!r} to the power {1.0 + lam!r} leaves the float range") from None


def gamma_lambda(average: LipschitzAverage, lam: float, r: float) -> float:
    """Integral mean r^{-(1+lam)} * integral_0^r u^lam L(u) du; L(0)/(1+lam) at r=0."""
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and nonnegative")
    return _integral_means(average, lam, r)[1]


def gamma_c(average: LipschitzAverage, r: float) -> float:
    """r^{-2} * integral_0^r (2r - u) L(u) du = 2*gamma_0 - gamma_1, one pass; 3 L(0)/2 at r=0."""
    g0, g1 = _integral_means(average, 1.0, r)
    return 2.0 * g0 - g1


@dataclass(frozen=True)
class ProblemConstants:
    """(alpha, beta, kappa) = (||F(x*)||, ||F'(x*)^dag||, cond(F'(x*)))."""

    alpha: float
    beta: float
    kappa: float

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
        if not 1 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 1")


class LipschitzMode(str, Enum):
    """Which displacement mean enters q: gamma_c (center) or gamma_1 (radius)."""

    CENTER = "center"
    RADIUS = "radius"


def check_small_residual(constants: ProblemConstants, l_zero: float) -> tuple[float, bool]:
    """h = [(1+sqrt(2))*kappa + 1] * alpha * beta^2 * L(0); admissible iff h < 1."""
    if not 0 < l_zero < math.inf:
        raise ValueError("L(0) must be positive and finite")
    h = (SQRT2_PLUS_1 * constants.kappa + 1.0) * constants.alpha * constants.beta ** 2 * l_zero
    return h, h < 1.0


def contraction_constants(constants: ProblemConstants, average: LipschitzAverage,
                          mode: LipschitzMode, rho0: float) -> tuple[float, float]:
    """Constants (C1, C2) of ||x_{n+1} - x*|| <= C2 e_n^2 + C1 e_n at e_0 = rho0.

    C1 carries the residual term and vanishes exactly when alpha = 0; C2
    uses gamma_c in center mode and gamma_1 in radius mode.  Both share the
    denominator (1 - beta*gamma_0*rho0)^2, and OutOfDomainError is raised
    outside [0, R) and at or past the pole, where its base is <= 0.
    """
    a, b, k = constants.alpha, constants.beta, constants.kappa
    g0, g1 = _integral_means(average, 1.0, rho0)
    gm = 2.0 * g0 - g1 if mode == LipschitzMode.CENTER else g1
    den = 1.0 - b * g0 * rho0
    if den <= 0.0:
        raise OutOfDomainError(f"r={rho0} at or past the pole of q (1 - beta*gamma_0*r <= 0)")
    c1 = (SQRT2_PLUS_1 * k + 1.0) * a * b * b * g0 / (den * den)
    # (b gm) (b g0 rho0) pairs the dimensionless beta*gamma*r with one factor of
    # beta*gamma, so the product stays in range at any scale of beta*L
    c2 = (k * b * gm + SQRT2_PLUS_1 * a * b ** 3 * g0 * g0 + (b * gm) * (b * g0 * rho0)) / (den * den)
    return c1, c2


def q_factor(constants: ProblemConstants, average: LipschitzAverage,
             mode: LipschitzMode, r: float) -> float:
    """Contraction factor q(r) = C1(r) + C2(r)*r of the prox-GN map on the r-ball."""
    c1, c2 = contraction_constants(constants, average, mode, r)
    return c1 + c2 * r


def _first_root(f: Callable[[float], float], f0: float, start: float, cap: float) -> float:
    """First root of f on (0, cap) from f0 = f(0) < 0; cap when f < 0 up to it.

    The bracket's upper end doubles from ``start`` until f >= 0 there, held
    at cap*(1 - 1e-12) once it reaches cap.  Brent's method (1973) as in
    scipy's brentq then starts from the last two values: secant or inverse
    quadratic steps, or bisection whenever a step would not halve the one
    before last, until the bracket is narrower than _ROOT_REL_TOL of the
    root.  A bracket with no finite upper end, or one below the smallest
    normal number, where no relative tolerance holds, raises ValueError.
    """
    pre, fpre, cur = 0.0, f0, start
    while True:
        capped = cur >= cap
        cur = cap * (1.0 - 1e-12) if capped else cur
        if not _SMALLEST_NORMAL <= cur < math.inf:
            raise ValueError(f"the root bracket [0, {cur!r}] leaves the normal float range")
        fcur = f(cur)
        if fcur >= 0.0:
            break
        if capped:
            return cap
        pre, fpre, cur = cur, fcur, 2.0 * cur
    blk, fblk, spre, scur = pre, fpre, 0.0, 0.0
    while True:
        if (fpre < 0.0) != (fcur < 0.0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk, fpre, fcur, fblk = cur, blk, cur, fcur, fblk, fcur
        if max(abs(cur), abs(blk)) < _SMALLEST_NORMAL:
            raise ValueError(f"the root bracket closed onto 0 below {_SMALLEST_NORMAL!r}")
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
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.nan
        # a NaN step (no interpolation, a zero denominator, an infinite value) bisects
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
    single root.  ``_first_root`` seeds it at its bound 1/(beta*L(0)), as the
    non-decreasing L has gamma_0 >= L(0), and doubles a seed short by rounding.
    """
    beta = constants.beta
    if average.is_constant:
        return min(1.0 / (beta * average.constant_value), average.upper_limit)
    bl0 = beta * average(0.0)
    # with beta*L(0) = 0 there is no analytic cap; any positive seed grows fine
    start = 1.0 / bl0 if bl0 > 0 else 1.0 / beta
    return _first_root(lambda r: beta * gamma_lambda(average, 0.0, r) * r - 1.0, -1.0,
                       min(start, 0.5 * average.upper_limit), average.upper_limit)


def r_bar_numeric(constants: ProblemConstants, average: LipschitzAverage,
                  mode: LipschitzMode, *, _sup: float | None = None) -> float:
    """Radius of the convergence ball: the root of q(r) = 1 in (0, R_bar).

    q increases strictly from q(0) = h < 1, so the root is unique; Brent's
    method brackets it to 1e-14 relative.  q rises only by 1 - h over
    [0, r_bar], so its rounding limits the root to about eps/(1 - h).  When
    q stays below 1 on the whole domain the sup radius itself is returned.
    ``_sup`` is the sup radius when the caller already has it.  q rises with
    gamma_0, gamma_1 and gamma_c, means of the non-decreasing L and so at
    least L(0): the closed-form root for the constant L(0) bounds r_bar and
    seeds the search, capped at R_bar*(1 - 1e-12).  It is only a seed: the
    root found is q's own, and a seed short by rounding doubles the bracket.
    """
    l_zero = average(0.0)
    h = check_small_residual(constants, l_zero)[0]
    start = r_bar_closed_form(constants, l_zero, mode)  # raises unless h < 1
    r_sup = sup_radius(constants, average) if _sup is None else _sup
    return _first_root(lambda r: q_factor(constants, average, mode, r) - 1.0, h - 1.0,
                       min(start, r_sup * (1.0 - 1e-12)), r_sup)


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


@dataclass(frozen=True)
class RadiusSummary:
    """Bundle of the radius computation for reporting."""

    h: float
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
    h = check_small_residual(constants, average(0.0))[0]
    r_sup = sup_radius(constants, average)
    numeric = r_bar_numeric(constants, average, mode, _sup=r_sup)
    closed = None
    discrepancy = False
    if average.is_constant:
        closed = r_bar_closed_form(constants, average.constant_value, mode)
        discrepancy = abs(closed - numeric) > 1e-9 * closed
    return RadiusSummary(
        h=h,
        sup_radius=r_sup,
        r_bar=numeric,
        r_bar_capped=numeric >= r_sup,
        r_bar_closed=closed,
        closed_form_discrepancy=discrepancy,
    )
