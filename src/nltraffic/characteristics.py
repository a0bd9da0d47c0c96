"""Characteristic dynamics of the look-ahead model and blow-up estimates.

Along a characteristic the density u and slope d = u_x satisfy

    d' = (2 d^2 - (3u - 5u^2) d - u^3 (1 - u)) * f(t)
    u' = -u^2 (1 - u) * f(t)

where f(t) = exp(-ubar) evaluated along the path; 0 < exp(-m) <= f <= 1
with m the total mass.  Dividing the two equations removes f entirely, so
the phase-plane picture (and with it the critical threshold) does not
depend on the slow-down factor; only the traversal speed does.

Quantities derived from the phase plane:

* time_to_level: the time a supercritical path needs to drive u below a
  level u1, bounded through the comparison solution eta' = -exp(-m)
  eta^2 (1 - eta).
* blowup_time_bound: once u <= u1 and d is large, d dominates the Riccati
  equation d' >= 2 exp(-m) (d - d_-)(d - d_+) with d_pm = (3 pm
  sqrt(9 + 8 u1))/4 * u1, which gives an explicit blow-up time.
* slope_floor: supercritical paths keep d >= C_* = (d0 - sigma(u0)) *
  min(u2, u0)^3 / u0^3 with u2 the boost bound from the threshold curve.

Both paths are closed form: d(u) in the phase plane (see PhaseTrajectory)
and (d, u) in time (see integrate_characteristic); the tests step the ODEs
with scipy's DOP853 as the oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .threshold import default_curve

PHASE_SAMPLES = 201


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _exp_of_mass(m: float) -> float:
    try:
        return math.exp(m)
    except OverflowError:
        raise ValueError(f"m = {m} is too large: exp(m) overflows") from None


def _require_finite_bound(m: float, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows at m = {m}")


class ConstantFactor:
    """Constant slow-down factor f(t) = c with 0 < c <= 1."""

    def __init__(self, value: float):
        if not (0.0 < value <= 1.0):
            raise ValueError(f"factor must lie in (0, 1], got {value}")
        self.value = float(value)

    def integral(self, t):
        """F(t) = c t, the integral of f from 0 to each t."""
        return self.value * np.asarray(t, dtype=float)

    def reach(self, value: float) -> float:
        """The time at which F reaches value."""
        return value / self.value


def _potential_inverse(u0: float, tau):
    """k = 1/u - 1/u0 >= 0 at which the density of a path from u0 < 1 has advanced tau.

    Phi(u) - Phi(u0) = k + y with y = log1p(a k), a = u0 / (1 - u0).  Newton's
    method on the convex y -> expm1(y) / a + y falls monotonically onto y from
    an upper bound; over u0 in [0, 1) and tau up to 1e308 it settles within
    eight steps, and no term overflows.  k is then tau - y, or expm1(y) / a
    where that difference would cancel.
    """
    a = u0 / (1.0 - u0)
    log_a = math.log(a) if a > 0.0 else -math.inf
    # k <= tau bounds y by log1p(a tau) <= log1p(a) + log1p(tau); k >= 0 bounds it by tau
    y = np.minimum(tau, np.log1p(a * tau) if a < 1.0 else math.log1p(a) + np.log1p(tau))
    for _ in range(64):
        ae = np.exp(log_a - y)  # a e^-y, normal where e^-y alone would not be
        step = (-np.expm1(-y) - (tau - y) * ae) / (1.0 + ae)
        y = y - np.maximum(step, 0.0)
        if np.all(step <= 2.0**-52 * tau):
            break
    k = tau - y
    far = y > k
    k[far] = np.expm1(y[far]) / a
    return k


def _time_path(w0: float, u0: float, tau):
    """(d, u) where the path from u0 with w0 = d0 - sigma(u0) has advanced tau = F(t) >= 0.

    In tau the excess w = d - sigma(u) solves w' = 2 w^2 + u (1 + u) w, so 1/w
    is linear along the path.  With k from _potential_inverse, P = u0 k,
    V = (1 - u0) + P, G = (1 - u0) / V = e^-y and R = k / V = -expm1(-y) / u0:
    u = u0 / (1 + P) and w = w0 / ((1 + P) (G^2 - w0 R (1 + G))).  The
    denominator's two terms add when w0 < 0, and d blows up with k even where
    u rounds to u0.  At u0 = 1, where u stays put and k = 0, y = tau gives
    the logistic d / (d + 1) = d0 / (d0 + 1) e^(2 tau).
    """
    if u0 == 1.0:
        P, G, R = np.zeros_like(tau), np.exp(-tau), -np.expm1(-tau)
    else:
        k = _potential_inverse(u0, tau)
        P = u0 * k
        V = (1.0 - u0) + P
        G, R = (1.0 - u0) / V, k / V
    # w0 and den over 2 s, so that no product exceeds R: (w0 / s) R (1 + G) / 2 <= R
    s = max(1.0, abs(w0))
    den = 0.5 * G * G / s - w0 / s * R * (0.5 + 0.5 * G)
    u = u0 / (1.0 + P)
    sigma = u * (1.0 - u)
    d = sigma if w0 == 0.0 else sigma + 0.5 * w0 / s / (1.0 + P) / den
    return d, u


@dataclass(frozen=True)
class Trajectory:
    """Time samples of one characteristic."""

    t: np.ndarray
    d: np.ndarray
    u: np.ndarray
    blowup_time: float | None


def _blowup_root(w0: float, u0: float) -> tuple[float, float]:
    """(u*, F*) for a supercritical start, w0 = d0 - sigma(u0) > 0.

    u* is the density at which the slope blows up, the root of the phase
    path's D in (0, u0), and F* = Phi(u*) - Phi(u0) the advance of F that
    reaches it.
    """
    s = w0 + math.sqrt(w0) * math.sqrt(w0 + u0)
    k_star = (1.0 - u0) / s  # 1/u* - 1/u0
    return u0 / (1.0 + u0 * k_star), k_star + math.log1p(u0 / s)


def integrate_characteristic(d0: float, u0: float, factor, t_end: float) -> Trajectory:
    """The characteristic from (d0, u0) at t = 0 until t_end or the blow-up of its slope.

    In closed form: with F(t) the integral of the factor from 0 and Phi(v) =
    1/v + log((1-v)/v), Phi(u(t)) = Phi(u0) + F(t) (see _time_path for d).  A
    supercritical start (d0 > sigma(u0)) blows up at the T* where F reaches
    Phi(u*) - Phi(u0); _blowup_root gives u* and that advance.  Rows are
    PHASE_SAMPLES evenly spaced times from 0 to t_end, or to T* with the last
    row (T*, inf, u*).
    """
    _require_finite(d0=d0, u0=u0, t_end=t_end)
    if not (0.0 <= u0 <= 1.0):
        raise ValueError(f"u0 must lie in [0, 1], got {u0}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")

    w0 = d0 - u0 * (1.0 - u0)
    t_star = u_star = math.inf
    if w0 > 0.0:
        u_star, f_star = _blowup_root(w0, u0)
        t_star = factor.reach(f_star)
    blown_up = t_star <= t_end
    t = np.linspace(0.0, min(t_end, t_star), PHASE_SAMPLES)
    d, u = _time_path(w0, u0, factor.integral(t[:-1] if blown_up else t))
    if blown_up:
        d, u = np.append(d, math.inf), np.append(u, u_star)
    return Trajectory(t=t, d=d, u=u, blowup_time=t_star if blown_up else None)


def _phase_denominator(w0: float, u0: float, u):
    r = (u / u0) ** 2
    return u0 * (1.0 - u0) ** 2 * r + w0 * ((2.0 * u - 1.0) - (2.0 * u0 - 1.0) * r)


def _phase_path(d0: float, u0: float, u):
    sigma = u * (1.0 - u)
    w0 = d0 - u0 * (1.0 - u0)
    if w0 == 0.0:  # the path is sigma itself, and D(u) = u0 (1 - u0)^2 r may underflow
        return sigma
    return sigma + w0 * (u * (1.0 - u) ** 2 / _phase_denominator(w0, u0, u))


@dataclass(frozen=True)
class PhaseTrajectory:
    """Phase path d(u) through (u[0], d[0]), sampled with u decreasing.

    The path is explicit: with sigma(u) = u (1 - u) and w0 = d0 - sigma(u0),
    d(u) = sigma(u) + w0 u (1 - u)^2 / D(u), where r = (u / u0)^2 and
    D(u) = u0 (1 - u0)^2 r + w0 ((2u - 1) - (2u0 - 1) r), because 1/(d - sigma)
    solves an ODE linear in u.
    """

    u: np.ndarray
    d: np.ndarray


def phase_trajectory(d0: float, u0: float, u_end: float) -> PhaseTrajectory:
    """Phase path d(u) from u0 down to u_end at PHASE_SAMPLES points geometric in u.

    The factor cancels from d(u), so this is the exact phase portrait.
    Degenerate starts u0 in {0, 1} are rejected: there u is stationary and
    d(u) is not a curve.  A supercritical start (d0 > sigma(u0)) blows up
    where D has its single root u* in (0, u0); ValueError if u_end <= u*.
    """
    _require_finite(d0=d0, u0=u0, u_end=u_end)
    if not (0.0 < u0 < 1.0):
        raise ValueError("phase trajectories need 0 < u0 < 1")
    if not (0.0 < u_end < u0):
        raise ValueError("u_end must lie in (0, u0)")
    w0 = d0 - u0 * (1.0 - u0)
    if w0 > 0.0 and _phase_denominator(w0, u0, u_end) <= 0.0:
        u_star, _ = _blowup_root(w0, u0)
        raise ValueError(f"the slope blows up at u* = {u_star:.6g}, above u_end = {u_end:g}")
    u = np.geomspace(u0, u_end, PHASE_SAMPLES)
    d = _phase_path(d0, u0, u)
    d[0] = d0  # the start exactly, not its rounded image
    return PhaseTrajectory(u=u, d=d)


def _level_potential(v: float) -> float:
    # antiderivative of -1 / (v^2 (1 - v)); increases as v decreases
    return 1.0 / v + math.log((1.0 - v) / v)


def time_to_level(u0: float, u1: float, m: float) -> float:
    """Latest time at which the density of a path drops below u1.

    Solves the comparison dynamics eta' = -exp(-m) eta^2 (1 - eta): t1 =
    exp(m) (1/u1 + log((1-u1)/u1) - 1/u0 - log((1-u0)/u0)).  Any path with
    factor >= exp(-m) reaches u1 no later than this.
    """
    _require_finite(u0=u0, u1=u1, m=m)
    if not (0.0 < u1 < u0 < 1.0):
        raise ValueError("need 0 < u1 < u0 < 1")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    t1 = _exp_of_mass(m) * (_level_potential(u1) - _level_potential(u0))
    if not math.isfinite(t1):  # 1/u overflows for a subnormal u0 or u1
        raise ValueError(f"t1 overflows at m = {m} (u0 = {u0}, u1 = {u1})")
    return t1


@dataclass(frozen=True)
class BlowupBound:
    """Riccati blow-up estimate once the density sits below u1."""

    d_minus: float
    d_plus: float
    sharp: float
    coarse: float


def blowup_time_bound(
    d_at_t1: float, u1: float, m: float, t1: float = 0.0
) -> BlowupBound:
    """Explicit upper bounds for the blow-up time of a dominating slope.

    For u <= u1 the slope obeys d' >= 2 exp(-m) (d - d_-)(d - d_+) with
    d_pm = (3 pm sqrt(9 + 8 u1))/4 * u1.  Given d(t1) = d_at_t1 the sharp
    bound integrates the Riccati comparison exactly; the coarse bound is
    t1 + 2 exp(m) / (4 u1), valid for the canonical choice u1 = C_*/4.
    Requires d_at_t1 > 2 d_+ so the log stays finite and sharp <= coarse.
    """
    _require_finite(d_at_t1=d_at_t1, u1=u1, m=m, t1=t1)
    if not (0.0 < u1 < 1.0):
        raise ValueError("need 0 < u1 < 1")
    if m < 0 or t1 < 0:
        raise ValueError(f"m and t1 must be nonnegative, got m = {m}, t1 = {t1}")
    root = math.sqrt(9.0 + 8.0 * u1)
    d_minus = (3.0 - root) / 4.0 * u1
    d_plus = (3.0 + root) / 4.0 * u1
    if d_at_t1 <= 2.0 * d_plus:
        raise ValueError(
            f"slope {d_at_t1:.6g} too small: bound needs d > 2 d_+ = {2 * d_plus:.6g}"
        )
    rate = 2.0 * math.exp(-m) * (d_plus - d_minus)
    coarse = t1 + 2.0 * _exp_of_mass(m) / (4.0 * u1)
    log_ratio = math.log((d_at_t1 - d_minus) / (d_at_t1 - d_plus))
    # for a small enough u1 the rate underflows to 0 while exp(m) is still finite
    sharp = t1 + log_ratio / rate if rate > 0.0 else math.inf
    _require_finite_bound(m, sharp=sharp, coarse=coarse)
    assert sharp <= coarse + 1e-12, "sharp bound exceeded the coarse bound"
    return BlowupBound(d_minus=d_minus, d_plus=d_plus, sharp=sharp, coarse=coarse)


def slope_floor(d0: float, u0: float) -> float:
    """Uniform lower bound C_* on the slope of a supercritical path.

    C_* = (d0 - sigma(u0)) * min(u2, u0)^3 / u0^3 where u2 is the boost
    bound of the threshold curve; the margin must be strictly positive.
    Below u2 the margin itself is the floor: w = d - sigma(u) has w' =
    (2 w^2 + u (1 + u) w) f >= 0 while w >= 0, and sigma >= 0.
    """
    _require_finite(d0=d0, u0=u0)
    if not (0.0 < u0 < 1.0):
        raise ValueError("need 0 < u0 < 1")
    curve = default_curve()
    margin = d0 - curve.eval(u0)
    if margin <= 0.0:
        raise ValueError(f"slope floor needs a strictly supercritical start, d0 > sigma(u0) = "
                         f"{d0 - margin:g}; got d0 = {d0:g}")
    return margin * curve.u_boost**3 / u0**3 if u0 > curve.u_boost else margin


@dataclass(frozen=True)
class AnalyticBounds:
    """Composite blow-up certificate for a supercritical start."""

    t1: float
    d_minus: float
    d_plus: float
    T_star_sharp: float
    T_star_coarse: float
    C_star: float


def supercritical_bounds(d0: float, u0: float, m: float) -> AnalyticBounds:
    """Chain slope_floor -> time_to_level -> blowup_time_bound.

    Uses the canonical level u1 = C_*/4, clamped to u0/2 when the floor is
    large (the clamp preserves C_* >= 4 u1, which is all the Riccati step
    needs).  The worst admissible slope d(t1) = C_* feeds the sharp bound,
    so the result certifies blow-up no later than T_star_sharp for every
    path starting at (d0, u0) with factor >= exp(-m).
    """
    _require_finite(d0=d0, u0=u0, m=m)
    c_star = slope_floor(d0, u0)
    u1 = min(c_star / 4.0, u0 / 2.0)
    t1 = time_to_level(u0, u1, m)
    bound = blowup_time_bound(c_star, u1, m, t1)
    return AnalyticBounds(
        t1=t1,
        d_minus=bound.d_minus,
        d_plus=bound.d_plus,
        T_star_sharp=bound.sharp,
        T_star_coarse=bound.coarse,
        C_star=c_star,
    )
