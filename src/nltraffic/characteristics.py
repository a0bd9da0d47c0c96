"""Characteristic dynamics of the look-ahead model and blow-up estimates.

Along a characteristic the density u and slope d = u_x satisfy

    d' = (2 d^2 - (3u - 5u^2) d - u^3 (1 - u)) * f(t)
    u' = -u^2 (1 - u) * f(t)

where f(t) = exp(-ubar) evaluated along the path; 0 < exp(-m) <= f <= 1
with m the total mass.  Dividing the two equations removes f entirely, so
the phase-plane picture (and with it the critical threshold) does not
depend on the slow-down factor; only the traversal speed does.

Quantities derived from the phase plane:

* slope_roots(u): roots of the quadratic 2 d^2 - (3u - 5u^2) d - u^3(1-u).
* time_to_level: the time a supercritical path needs to drive u below a
  level u1, bounded through the comparison solution eta' = -exp(-m)
  eta^2 (1 - eta).
* blowup_time_bound: once u <= u1 and d is large, d dominates the Riccati
  equation d' >= 2 exp(-m) (d - d_-)(d - d_+) with d_pm = (3 pm
  sqrt(9 + 8 u1))/4 * u1, which gives an explicit blow-up time.
* slope_floor: supercritical paths keep d >= C_* = (d0 - sigma(u0)) *
  u2^3 / u0^3 with u2 the boost bound from the threshold curve.

Phase paths d(u) are explicit (see PhaseTrajectory).  Time paths are
stepped by an explicit Dormand-Prince 5(4) pair on plain floats (the state
has two components, so arrays would only add overhead), with its quartic
dense output for sampling and event location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .threshold import default_curve

BLOWUP_CAP_MIN = 1e6
PHASE_SAMPLES = 201

# Dormand & Prince (1980) 5(4) tableau; _DP_Q holds the coefficients of
# Shampine's (1986) quartic dense output, one column per power of x.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_Q = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-8048581381 / 2820520608, 0.0, 131558114200 / 32700410799,
     -1754552775 / 470086768, 127303824393 / 49829197408,
     -282668133 / 205662961, 40617522 / 29380423),
    (8663915743 / 2820520608, 0.0, -68118460800 / 10900136933,
     14199869525 / 1410260304, -318862633887 / 49829197408,
     2019193451 / 616988883, -110615467 / 29380423),
    (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423),
)


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


@dataclass(frozen=True)
class CharState:
    d: float
    u: float
    t: float = 0.0

    def __post_init__(self):
        _require_finite(d=self.d, u=self.u, t=self.t)
        if not (0.0 <= self.u <= 1.0):
            raise ValueError(f"density {self.u} outside [0, 1]")


class ConstantFactor:
    """Constant slow-down factor f(t) = c with 0 < c <= 1."""

    def __init__(self, value: float):
        if not (0.0 < value <= 1.0):
            raise ValueError(f"factor must lie in (0, 1], got {value}")
        self.value = float(value)

    def at(self, t: float) -> float:
        return self.value

    @property
    def span(self) -> float:
        return math.inf


class SampledFactor:
    """Slow-down factor interpolated from a sampled time series.

    Typically exp(-ubar) recorded along a path by the PDE solver.  Linear
    interpolation between samples; evaluation beyond the last sample is an
    error, so integrations must not outrun the series.
    """

    def __init__(self, times, values):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) < 2:
            raise ValueError("need matching 1-d time/value series of length >= 2")
        if not np.all(np.diff(t) > 0):
            raise ValueError("factor sample times must increase")
        if float(v.min()) <= 0.0 or float(v.max()) > 1.0 + 1e-12:
            raise ValueError("factor samples must lie in (0, 1]")
        self.times = t
        self.values = v

    def at(self, t: float) -> float:
        if t > self.times[-1] + 1e-12:
            raise ValueError(
                f"factor series ends at t={self.times[-1]}, asked for t={t}"
            )
        return float(np.interp(t, self.times, self.values))

    @property
    def span(self) -> float:
        return float(self.times[-1])


def characteristic_rhs(d: float, u: float, factor: float):
    """Right-hand side (d', u') of the characteristic system."""
    uu = min(max(u, 0.0), 1.0)
    poly = 2.0 * d * d - (3.0 * uu - 5.0 * uu * uu) * d - uu**3 * (1.0 - uu)
    return poly * factor, -(uu * uu) * (1.0 - uu) * factor


def _dormand_prince(fun, t, y, t_end, rtol, atol):
    """Accepted steps of the adaptive Dormand-Prince 5(4) method from (t, y) to t_end > t.

    y and fun(t, y) are tuples of floats.
    Yields (t_old, t_new, y_old, y_new, q) per step, where q[i] holds the
    dense coefficients of component i (see _interpolate).  The first step
    follows Hairer, Norsett & Wanner (II.4) for an order-4 error estimate;
    the error is the RMS of err_i / (atol + rtol max(|y_i|, |y_new_i|)), and
    a step is accepted below 1 and rescaled by 0.9 err^(-1/5), clamped to
    [0.2, 10] and not grown right after a rejection.  A non-finite stage is
    rejected like an infinite error.  Raises RuntimeError once the step
    falls below ten float spacings at t.
    """
    n = len(y)

    def rms(v, scale):
        return math.sqrt(sum((a / s) * (a / s) for a, s in zip(v, scale))) / math.sqrt(n)

    f = fun(t, y)
    span = t_end - t
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = rms(y, scale), rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, tuple(v + h0 * g for v, g in zip(y, f)))
    d2 = rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span)

    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"the step size fell below the float spacing at {t!r}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K = [f]
            for c, a in zip(_DP_C, _DP_A):
                stage = tuple(v + sum(w * k[i] for w, k in zip(a, K)) * h for i, v in enumerate(y))
                K.append(fun(t + c * h, stage))
            y_new = tuple(v + h * sum(b * k[i] for b, k in zip(_DP_B, K)) for i, v in enumerate(y))
            f_new = fun(t + h, y_new)
            K.append(f_new)
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            err = rms([sum(e * k[i] for e, k in zip(_DP_E, K)) * h for i in range(n)], scale)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.2)  # a NaN error shrinks by 0.2
            rejected = True
        q = [[sum(k[i] * p for k, p in zip(K, col)) for col in _DP_Q] for i in range(n)]
        yield t, t_new, y, y_new, q
        t, y, f = t_new, y_new, f_new


def _interpolate(x, h, y_old, q):
    """Dense output y_old + h (q0 x + q1 x^2 + q2 x^3 + q3 x^4) at x = (s - t_old) / h."""
    q0, q1, q2, q3 = q
    return y_old + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))


def _upcrossing(g, lo, hi):
    """Bisect [lo, hi], where g(lo) <= 0 <= g(hi), down to adjacent floats.

    Returns the upper one, the first float found at which g >= 0.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class Trajectory:
    """Time samples of one integrated characteristic."""

    t: np.ndarray
    d: np.ndarray
    u: np.ndarray
    blown_up: bool
    blowup_time: float | None


def integrate_characteristic(
    state0: CharState,
    factor,
    t_end: float,
    blowup_cap: float = 1e8,
    rtol: float = 1e-8,
    atol: float = 1e-11,
    t_eval=None,
) -> Trajectory:
    """Integrate (d, u) forward with adaptive RK45 until t_end or blow-up.

    Rows are the accepted steps, or the times of t_eval read off the dense
    output.  Blow-up is declared when d crosses blowup_cap upward (>= 1e6
    so the crossing time approximates the true blow-up time to within
    d0/cap relative error for Riccati-type growth); the crossing, located on
    the dense output, ends the run and is the last row without t_eval.
    """
    _require_finite(t_end=t_end)
    if t_end <= state0.t:
        raise ValueError("t_end must exceed the initial time")
    if blowup_cap < BLOWUP_CAP_MIN:
        raise ValueError(f"blowup_cap below {BLOWUP_CAP_MIN:g}")
    if factor.span < t_end:
        raise ValueError("factor series shorter than the requested time span")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if not (np.all(np.diff(t_eval) > 0) and state0.t <= t_eval[0] and t_eval[-1] <= t_end):
            raise ValueError("t_eval must increase within [t0, t_end]")

    def rhs(t, y):
        return characteristic_rhs(y[0], y[1], factor.at(t))

    rows = [(state0.t, state0.d, state0.u)] if t_eval is None else []
    blowup_time = None
    below_cap = state0.d <= blowup_cap
    steps = _dormand_prince(rhs, state0.t, (state0.d, state0.u), t_end, rtol, atol)
    for t_old, t, y_old, y, q in steps:
        h = t - t_old

        def dense(s):
            x = (s - t_old) / h
            return tuple(_interpolate(x, h, v, c) for v, c in zip(y_old, q))

        if below_cap and y[0] >= blowup_cap:
            t = blowup_time = _upcrossing(lambda s: dense(s)[0] - blowup_cap, t_old, t)
            y = dense(t)
        below_cap = y[0] <= blowup_cap
        if t_eval is None:
            rows.append((t, *y))
        else:
            done = int(np.searchsorted(t_eval, t, side="right"))  # rows so far: t_eval[:len(rows)]
            rows += [(s, *dense(s)) for s in t_eval[len(rows):done]]
        if blowup_time is not None:
            break
    t, d, u = np.array(rows, dtype=float).reshape(-1, 3).T
    if float(u.min()) < -1e-9 or float(u.max()) > 1.0 + 1e-9:
        raise RuntimeError("density left [0, 1] beyond tolerance along the path")
    return Trajectory(
        t=t,
        d=d,
        u=np.clip(u, 0.0, 1.0),
        blown_up=blowup_time is not None,
        blowup_time=blowup_time,
    )


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
    solves an ODE linear in u.  at() evaluates it between the samples.
    """

    u: np.ndarray
    d: np.ndarray

    def at(self, u):
        return _phase_path(self.d[0], self.u[0], np.asarray(u, dtype=float))


def phase_trajectory(d0: float, u0: float, u_end: float) -> PhaseTrajectory:
    """Phase path d(u) from u0 down to u_end at PHASE_SAMPLES points geometric in u.

    The factor cancels from d(u), so this is the exact phase portrait.
    Degenerate starts u0 in {0, 1} are rejected: there u is stationary and
    d(u) is not a curve.  A supercritical start (d0 > sigma(u0)) blows up
    where D has its single root u* in (0, u0); RuntimeError if u_end <= u*.
    """
    _require_finite(d0=d0, u0=u0, u_end=u_end)
    if not (0.0 < u0 < 1.0):
        raise ValueError("phase trajectories need 0 < u0 < 1")
    if not (0.0 < u_end < u0):
        raise ValueError("u_end must lie in (0, u0)")
    w0 = d0 - u0 * (1.0 - u0)
    if w0 > 0.0 and _phase_denominator(w0, u0, u_end) <= 0.0:
        s = math.sqrt(w0)
        u_star = u0 * s / (u0 * s + (1.0 - u0) * math.sqrt(u0 + w0))
        raise RuntimeError(f"the slope blows up at u* = {u_star:.6g}, above u_end = {u_end:g}")
    u = np.geomspace(u0, u_end, PHASE_SAMPLES)
    d = _phase_path(d0, u0, u)
    d[0] = d0  # at() reads the start back from the first sample
    return PhaseTrajectory(u=u, d=d)


def slope_roots(u: float):
    """Roots d_- <= d_+ of 2 d^2 - (3u - 5u^2) d - u^3 (1 - u) in d."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("slope roots defined for u in [0, 1]")
    b = 3.0 * u - 5.0 * u * u
    disc = b * b + 8.0 * u**3 * (1.0 - u)
    if disc < 0:  # cannot happen on [0, 1]; guard against roundoff anyway
        disc = 0.0
    root = math.sqrt(disc)
    return (b - root) / 4.0, (b + root) / 4.0


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
        raise ValueError("mass must be nonnegative")
    t1 = _exp_of_mass(m) * (_level_potential(u1) - _level_potential(u0))
    _require_finite_bound(m, t1=t1)
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
        raise ValueError("mass and t1 must be nonnegative")
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

    C_* = (d0 - sigma(u0)) * u2^3 / u0^3 where u2 is the boost bound of
    the threshold curve; the margin must be strictly positive.
    """
    _require_finite(d0=d0, u0=u0)
    if not (0.0 < u0 < 1.0):
        raise ValueError("need 0 < u0 < 1")
    curve = default_curve()
    margin = d0 - curve.eval(u0)
    if margin <= 0.0:
        raise ValueError("slope floor needs a strictly supercritical start")
    cube = u0**3
    c_star = margin * curve.u_boost**3 / cube if cube > 0.0 else math.inf
    if not math.isfinite(c_star):
        raise ValueError(f"u0 = {u0} is too small: the slope floor overflows")
    return c_star


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
