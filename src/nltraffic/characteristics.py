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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# scipy.integrate is imported inside the two integrators below: it takes
# most of a second to import, and only they need it.
from .threshold import default_curve

BLOWUP_CAP_MIN = 1e6


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

    Blow-up is declared when d crosses blowup_cap (>= 1e6 so the crossing
    time approximates the true blow-up time to within d0/cap relative
    error for Riccati-type growth).
    """
    _require_finite(t_end=t_end)
    if t_end <= state0.t:
        raise ValueError("t_end must exceed the initial time")
    if blowup_cap < BLOWUP_CAP_MIN:
        raise ValueError(f"blowup_cap below {BLOWUP_CAP_MIN:g}")
    if factor.span < t_end:
        raise ValueError("factor series shorter than the requested time span")
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return characteristic_rhs(y[0], y[1], factor.at(t))

    def hit_cap(t, y):
        return y[0] - blowup_cap

    hit_cap.terminal = True
    hit_cap.direction = 1

    sol = solve_ivp(
        rhs,
        (state0.t, t_end),
        [state0.d, state0.u],
        method="RK45",
        rtol=rtol,
        atol=atol,
        events=hit_cap,
        t_eval=t_eval,
    )
    if sol.status < 0:  # pragma: no cover
        raise RuntimeError(f"characteristic integration failed: {sol.message}")
    u = sol.y[1]
    if float(u.min()) < -1e-9 or float(u.max()) > 1.0 + 1e-9:
        raise RuntimeError("density left [0, 1] beyond tolerance along the path")
    blown = len(sol.t_events[0]) > 0
    return Trajectory(
        t=sol.t,
        d=sol.y[0],
        u=np.clip(u, 0.0, 1.0),
        blown_up=blown,
        blowup_time=float(sol.t_events[0][0]) if blown else None,
    )


@dataclass(frozen=True)
class PhaseTrajectory:
    """Solution d(u) of the phase-plane ODE, sampled with u decreasing."""

    u: np.ndarray
    d: np.ndarray
    origin: tuple[float, float]  # (d0, u0)
    _sol: object

    def at(self, u):
        return self._sol.sol(u)[0]


def phase_trajectory(
    d0: float,
    u0: float,
    u_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> PhaseTrajectory:
    """Integrate d as a function of u from u0 down to u_end.

    The factor cancels from d(u), so this is the exact phase portrait.
    Degenerate starts u0 in {0, 1} are rejected: there u is stationary and
    d(u) is not a curve.
    """
    _require_finite(d0=d0, u0=u0, u_end=u_end)
    if not (0.0 < u0 < 1.0):
        raise ValueError("phase trajectories need 0 < u0 < 1")
    if not (0.0 < u_end <= u0):
        raise ValueError("u_end must lie in (0, u0]")
    from scipy.integrate import solve_ivp

    def rhs(u, y):
        d = y[0]
        poly = 2.0 * d * d - (3.0 * u - 5.0 * u * u) * d - u**3 * (1.0 - u)
        return [poly / (-(u * u) * (1.0 - u))]

    sol = solve_ivp(
        rhs, (u0, u_end), [d0], method="RK45", rtol=rtol, atol=atol, dense_output=True
    )
    if sol.status != 0:
        raise RuntimeError(f"phase trajectory left the resolvable region: {sol.message}")
    return PhaseTrajectory(u=sol.t, d=sol.y[0], origin=(d0, u0), _sol=sol)


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

    def to_json_dict(self) -> dict:
        return asdict(self)


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
