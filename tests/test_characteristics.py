import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from nltraffic.characteristics import (
    CharState,
    ConstantFactor,
    SampledFactor,
    blowup_time_bound,
    integrate_characteristic,
    phase_trajectory,
    slope_floor,
    slope_roots,
    supercritical_bounds,
    time_to_level,
)
from oracles import characteristic_rhs, eta_crossing_time, solve_eta

NON_FINITE = (math.nan, math.inf, -math.inf)


def test_rhs_hand_value():
    # (d, u) = (0, 0.5), factor 1
    dd, du = characteristic_rhs(0.0, 0.5, 1.0)
    assert dd == pytest.approx(-0.0625, abs=1e-15)
    assert du == pytest.approx(-0.125, abs=1e-15)


def test_zero_slope_not_invariant():
    """The inhomogeneous term pushes d below zero from d = 0."""
    traj = integrate_characteristic(CharState(d=0.0, u=0.5), ConstantFactor(1.0), 0.5)
    assert traj.d[-1] < -1e-4


def test_density_decays_monotonically():
    traj = integrate_characteristic(CharState(d=0.1, u=0.6), ConstantFactor(0.8), 5.0)
    assert np.all(np.diff(traj.u) <= 1e-14)
    assert traj.u[-1] > 0.0


def test_riccati_limit_blowup_time():
    """For u ~ 0 the slope ODE is dd/dt = 2 f d^2, blowing up at 1/(2 f d0)."""
    d0, f = 2.0, 1.0
    traj = integrate_characteristic(CharState(d=d0, u=1e-6), ConstantFactor(f), t_end=1.0)
    assert traj.blown_up
    assert traj.blowup_time == pytest.approx(1.0 / (2 * f * d0), rel=0.01)


def test_lower_bound_proposition():
    """d(t) >= min(-1, d0) whatever the factor does."""
    for d0, u0 in ((-2.0, 0.5), (-0.5, 0.7), (0.3, 0.2)):
        traj = integrate_characteristic(CharState(d=d0, u=u0), ConstantFactor(1.0), 30.0)
        assert np.all(traj.d >= min(-1.0, d0) - 1e-6)


def test_subcritical_seeds_stay_below_curve(curve):
    rng = np.random.default_rng(2)
    for _ in range(10):
        u0 = rng.uniform(0.1, 0.9)
        d0 = curve.eval(u0) - rng.uniform(0.01, 0.2)
        traj = integrate_characteristic(
            CharState(d=d0, u=u0), ConstantFactor(rng.uniform(0.2, 1.0)), 30.0
        )
        assert not traj.blown_up
        assert np.all(traj.d <= curve.eval(np.clip(traj.u, 0, 1)) + 1e-6)


def test_factor_half_is_time_rescaling():
    """A constant factor only rescales time along the trajectory."""
    s0 = CharState(d=0.2, u=0.6)
    t_eval = np.linspace(0.0, 4.0, 41)
    full = integrate_characteristic(s0, ConstantFactor(1.0), 4.0, t_eval=t_eval / 2.0)
    half = integrate_characteristic(s0, ConstantFactor(0.5), 4.0, t_eval=t_eval)
    np.testing.assert_allclose(half.d, full.d, atol=1e-7)
    np.testing.assert_allclose(half.u, full.u, atol=1e-7)


def test_slope_roots_exact_values():
    dm, dp = slope_roots(1.0)
    assert dm == pytest.approx(-1.0, abs=1e-14)
    assert dp == pytest.approx(0.0, abs=1e-14)
    dm, dp = slope_roots(0.0)
    assert dm == 0.0 and dp == 0.0


def test_slope_roots_factorization():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.uniform(0.0, 1.0)
        d = rng.uniform(-3.0, 3.0)
        dm, dp = slope_roots(u)
        poly = 2 * d * d - (3 * u - 5 * u * u) * d - u**3 * (1 - u)
        assert poly == pytest.approx(2 * (d - dm) * (d - dp), abs=1e-12)


def test_slope_roots_scan_above_minus_one():
    us = np.linspace(0.0, 1.0, 401)
    dm = np.array([slope_roots(float(u))[0] for u in us])
    assert np.all(dm >= -1.0 - 1e-12)


def test_time_to_level_hand_value():
    assert time_to_level(0.5, 0.25, 0.0) == pytest.approx(2 + math.log(3), abs=1e-12)


def test_time_to_level_matches_eta_ode():
    for u0, u1, m in ((0.5, 0.25, 0.0), (0.8, 0.1, 0.5), (0.3, 0.05, 1.0)):
        t_formula = time_to_level(u0, u1, m)
        t_ode = eta_crossing_time(u0, u1, m)
        assert t_ode == pytest.approx(t_formula, abs=1e-6)


def test_time_to_level_validation():
    with pytest.raises(ValueError):
        time_to_level(0.25, 0.5, 0.0)  # must decrease
    with pytest.raises(ValueError):
        time_to_level(0.5, 0.0, 0.0)


def test_solve_eta_matches_characteristic_density():
    """With a constant factor the density component solves the eta ODE."""
    t_eval = np.linspace(0.0, 6.0, 31)
    traj = integrate_characteristic(
        CharState(d=0.0, u=0.7), ConstantFactor(math.exp(-0.3)), 6.0, t_eval=t_eval
    )
    eta = solve_eta(0.7, 0.3, t_eval)
    np.testing.assert_allclose(traj.u, eta, atol=1e-7)


def test_comparison_principle_sampled_factor():
    """Factor below e^{-m} means slower decay than the eta solution."""
    times = np.linspace(0.0, 6.0, 61)
    factor = SampledFactor(times, np.full_like(times, 0.5))
    traj = integrate_characteristic(
        CharState(d=0.0, u=0.7), factor, 6.0, t_eval=times
    )
    eta = solve_eta(0.7, 0.0, times)  # factor 1 decays fastest
    assert np.all(traj.u >= eta - 1e-9)


def test_sampled_factor_span_enforced():
    times = np.linspace(0.0, 1.0, 11)
    factor = SampledFactor(times, np.full_like(times, 0.9))
    with pytest.raises(ValueError):
        integrate_characteristic(CharState(d=0.0, u=0.5), factor, t_end=2.0)
    with pytest.raises(ValueError):
        factor.at(1.5)


def test_sampled_factor_integral_is_exact_and_reach_inverts_it():
    """Across kinks and before the first sample, where the factor is held."""
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.2, 1.0, 8))
    factor = SampledFactor(times, rng.uniform(0.1, 1.0, 8))
    grid = np.linspace(times[0] - 0.5, times[-1], 301)
    t0, t = grid[0], grid[1:]
    nodes = np.union1d(grid, times)  # the trapezoid rule is exact on each linear piece
    f = np.interp(nodes, times, factor.values)
    exact = np.concatenate(([0.0], np.cumsum(np.diff(nodes) * (f[:-1] + f[1:]) / 2.0)))
    F = factor.integral(t0, t)
    np.testing.assert_allclose(F, exact[np.searchsorted(nodes, t)], rtol=1e-13)
    back = np.array([factor.reach(t0, value) for value in F])
    np.testing.assert_allclose(back, t, rtol=0.0, atol=1e-12)
    assert factor.reach(t0, F[-1] * (1.0 + 1e-9)) == math.inf


def test_blowup_bound_matches_riccati_ode():
    """The closed-form T* reproduces the frozen-coefficient Riccati blow-up."""
    for u1, d1, m in ((0.2, 1.0, 0.0), (0.4, 2.5, 0.5), (0.1, 0.8, 1.0)):
        bound = blowup_time_bound(d1, u1, m, t1=0.0)
        dm, dp = bound.d_minus, bound.d_plus
        f = math.exp(-m)

        def rhs(t, y):
            return 2.0 * f * (y[0] - dm) * (y[0] - dp)

        def escape(t, y):
            return y[0] - 1e9

        escape.terminal = True
        escape.direction = 1
        cap = solve_ivp(
            rhs, (0.0, 10 * bound.sharp), [d1], events=escape, rtol=1e-10, atol=1e-12
        )
        assert cap.t_events[0].size == 1
        assert cap.t_events[0][0] == pytest.approx(bound.sharp, rel=0.01)


def test_blowup_bound_sharp_below_coarse():
    for u1 in np.linspace(0.02, 0.9, 20):
        dp = (3.0 + math.sqrt(9.0 + 8.0 * u1)) / 4.0 * float(u1)
        bound = blowup_time_bound(2.5 * dp, float(u1), m=0.3)
        assert bound.sharp <= bound.coarse + 1e-12


def test_blowup_bound_precondition():
    dm, dp = slope_roots(0.3)
    with pytest.raises(ValueError):
        blowup_time_bound(1.9 * dp, 0.3, m=0.0)


def test_phase_trajectory_factor_independence():
    """(u, d) curves do not depend on the slow-down factor."""
    us = np.linspace(0.45, 0.25, 15)
    matched = []
    for f, t_end in ((0.3, 50.0), (1.0, 15.0)):
        traj = integrate_characteristic(
            CharState(d=0.2, u=0.5),
            ConstantFactor(f),
            t_end=t_end,
            t_eval=np.linspace(0.0, t_end, 40001),
        )
        matched.append(np.interp(-us, -traj.u, traj.d))  # u decreases along the path
    np.testing.assert_allclose(matched[0], matched[1], atol=1e-6)
    d_phase = phase_trajectory(0.2, 0.5, 0.1).at(us)
    np.testing.assert_allclose(matched[1], d_phase, atol=1e-6)


def test_phase_trajectory_validation():
    with pytest.raises(ValueError):
        phase_trajectory(0.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        phase_trajectory(0.2, 0.5, 0.9)  # u_end above u0
    with pytest.raises(ValueError, match="u_end must lie in"):
        phase_trajectory(0.2, 0.5, 0.5)  # an empty path
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="d0 must be finite"):
            phase_trajectory(bad, 0.5, 0.1)
        with pytest.raises(ValueError, match="u_end must be finite"):
            phase_trajectory(0.2, 0.5, bad)


def test_supercritical_phase_path_blows_up():
    with pytest.raises(RuntimeError):
        phase_trajectory(1.0, 0.5, 1e-3)


def test_subcritical_phase_path_stays_below_sigma_down_to_tiny_u():
    path = phase_trajectory(0.1, 0.5, 1e-300)
    assert path.u[-1] == 1e-300
    assert np.all(path.d <= path.u * (1.0 - path.u))


def test_slope_floor_homogeneity(curve):
    u0 = 0.5
    base = curve.eval(u0)
    c1 = slope_floor(base + 0.02, u0)
    c2 = slope_floor(base + 0.04, u0)
    assert c2 == pytest.approx(2 * c1, rel=1e-9)


def test_slope_floor_rejects_subcritical():
    with pytest.raises(ValueError):
        slope_floor(0.1, 0.5)


def test_slope_floor_bounds_phase_path(curve):
    """Descending to u2/2 the path stays above C* and the cubic excess floor.

    The margin is kept small: larger margins blow up (u stops falling) before
    the path reaches u2/2, so there is no phase curve to sample down there.
    """
    u0 = 0.5
    d0 = curve.eval(u0) + 0.005
    c_star = slope_floor(d0, u0)
    boost = curve.u_boost
    path = phase_trajectory(d0, u0, boost / 2.0)
    us = np.linspace(u0, boost / 2.0, 40)
    d_path = path.at(us)
    assert np.all(d_path >= c_star - 1e-9)
    excess = d_path - curve.eval(us)
    floor = (d0 - curve.eval(u0)) * us**3 / u0**3
    assert np.all(excess >= floor - 1e-9)


def test_supercritical_bounds_fields():
    b = supercritical_bounds(0.4, 0.5, m=0.0)
    assert b.C_star > 0
    assert b.t1 > 0
    assert b.T_star_sharp > b.t1
    assert b.T_star_sharp <= b.T_star_coarse + 1e-12
    d = asdict(b)  # the bounds.json payload
    assert set(d) == {"t1", "d_minus", "d_plus", "T_star_sharp", "T_star_coarse", "C_star"}


def test_supercritical_bounds_actually_bound():
    """Blow-up happens before the composite certificate time."""
    for d0, u0 in ((0.4, 0.5), (0.3, 0.3), (0.9, 0.7)):
        b = supercritical_bounds(d0, u0, m=0.0)
        traj = integrate_characteristic(
            CharState(d=d0, u=u0), ConstantFactor(1.0), t_end=1.5 * b.T_star_sharp
        )
        assert traj.blown_up
        assert traj.blowup_time <= b.T_star_sharp


def test_char_state_validation():
    with pytest.raises(ValueError):
        CharState(d=0.0, u=1.5)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="d must be finite"):
            CharState(d=bad, u=0.5)
        with pytest.raises(ValueError, match="u must be finite"):
            CharState(d=0.0, u=bad)
    with pytest.raises(ValueError):
        ConstantFactor(0.0)
    with pytest.raises(ValueError):
        ConstantFactor(1.2)


def test_integrate_validation():
    s = CharState(d=0.0, u=0.5)
    with pytest.raises(ValueError):
        integrate_characteristic(s, ConstantFactor(1.0), t_end=0.0)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="t_end must be finite"):
            integrate_characteristic(s, ConstantFactor(1.0), t_end=bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "bound, kwargs",
    [
        pytest.param(bound, kwargs, id=bound.__name__)
        for bound, kwargs in (
            (slope_floor, {"d0": 0.4, "u0": 0.5}),
            (time_to_level, {"u0": 0.5, "u1": 0.25, "m": 0.0}),
            (blowup_time_bound, {"d_at_t1": 1.0, "u1": 0.2, "m": 0.0, "t1": 0.0}),
            (supercritical_bounds, {"d0": 0.4, "u0": 0.5, "m": 0.0}),
        )
    ],
)
def test_bounds_reject_non_finite(bound, kwargs, bad):
    bound(**kwargs)  # the finite arguments are valid
    for name in kwargs:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bound(**{**kwargs, name: bad})


@pytest.mark.parametrize(
    "bound, args",
    [
        (time_to_level, (0.5, 0.0046875, 705.0)),  # exp(m) is finite, t1 is not
        (time_to_level, (0.5, 0.0046875, 710.0)),  # exp(m) overflows
        (blowup_time_bound, (10.0, 0.1, 800.0)),  # exp(-m) underflows to 0
        (blowup_time_bound, (10.0, 0.1, 709.0)),  # the coarse bound overflows
        (supercritical_bounds, (0.4, 0.5, 1000.0)),
    ],
)
def test_bounds_reject_overflowing_m(bound, args):
    with pytest.raises(ValueError, match=f"at m = {args[2]}|^m = {args[2]} is too large"):
        bound(*args)


def test_slope_floor_rejects_underflowing_u0():
    with pytest.raises(ValueError, match="u0 = 1e-120 is too small"):
        slope_floor(1.0, 1e-120)


# ------------------------------------------- oracle: the DOP853 of scipy.integrate


def _dop853_time_mode(state0, factor, t_end, t_eval=None, cap=1e12):
    """integrate_characteristic's problem stepped by solve_ivp; an event where d crosses cap.

    Near a blow-up at T*, d ~ 1 / (2 f (T* - t)), so the event lies about
    1 / (2 f cap) before T*.
    """

    def rhs(t, y):
        return characteristic_rhs(y[0], y[1], factor.at(t))

    def hit_cap(t, y):
        return y[0] - cap

    hit_cap.terminal = True
    hit_cap.direction = 1
    return solve_ivp(rhs, (state0.t, t_end), [state0.d, state0.u], method="DOP853",
                     rtol=1e-13, atol=1e-15, events=hit_cap, t_eval=t_eval)


def _seeded_starts(seed, count, shifts):
    """(d0, u0, factor) with d0 - sigma(u0) drawn from shifts, factor from [0.2, 1]."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        u0 = rng.uniform(0.1, 0.9)
        shift = rng.uniform(*shifts)
        starts.append((u0 * (1.0 - u0) + shift, u0, rng.uniform(0.2, 1.0)))
    return starts


def test_time_mode_matches_rk45_on_t_eval():
    """Subcritical paths, and supercritical ones up to half their blow-up time."""
    for d0, u0, f in _seeded_starts(11, 12, (-0.2, 0.2)):
        state, factor = CharState(d=d0, u=u0), ConstantFactor(f)
        free = _dop853_time_mode(state, factor, 40.0)
        t_end = free.t_events[0][0] / 2.0 if free.t_events[0].size else 40.0
        t_eval = np.linspace(0.0, t_end, 81)
        ref = _dop853_time_mode(state, factor, t_end, t_eval=t_eval)
        traj = integrate_characteristic(state, factor, t_end, t_eval=t_eval)
        np.testing.assert_array_equal(traj.t, t_eval)
        assert np.max(np.abs(traj.d - ref.y[0])) <= 1e-10
        assert np.max(np.abs(traj.u - ref.y[1])) <= 1e-10


def test_time_mode_matches_rk45_steps_and_blowup_times():
    """The same verdict on every start, the same rows, and equal blow-up times."""
    blown = 0
    for d0, u0, f in _seeded_starts(12, 16, (-0.2, 0.2)):
        state, factor = CharState(d=d0, u=u0), ConstantFactor(f)
        free = _dop853_time_mode(state, factor, 60.0)
        traj = integrate_characteristic(state, factor, 60.0)
        assert traj.blown_up == (free.t_events[0].size > 0), (d0, u0, f)
        smooth = traj.t[:-1] if traj.blown_up else traj.t
        ref = _dop853_time_mode(state, factor, smooth[-1], t_eval=smooth)
        rows = np.stack([traj.d[:len(smooth)], traj.u[:len(smooth)]])
        assert np.all(np.abs(rows - ref.y) <= 1e-10 * np.maximum(1.0, np.abs(ref.y)))
        if traj.blown_up:
            blown += 1
            t_ref = free.t_events[0][0]
            assert abs(traj.blowup_time - t_ref) <= 1e-10 * t_ref
            assert traj.t[-1] == traj.blowup_time
            assert traj.d[-1] == math.inf
    assert 0 < blown < 16  # both sides of the curve are covered


def test_time_mode_matches_rk45_with_sampled_factor():
    # one linear segment: a kink between samples would make both integrators'
    # results depend on where their steps fall at the tolerance level
    factor = SampledFactor([0.0, 20.0], [1.0, 0.4])
    for d0, u0 in ((0.1, 0.6), (0.2, 0.3)):
        state = CharState(d=d0, u=u0)
        t_eval = np.linspace(0.0, 20.0, 41)
        ref = _dop853_time_mode(state, factor, 20.0, t_eval=t_eval)
        traj = integrate_characteristic(state, factor, 20.0, t_eval=t_eval)
        assert np.max(np.abs(traj.d - ref.y[0])) <= 1e-10
        assert np.max(np.abs(traj.u - ref.y[1])) <= 1e-10
    free = integrate_characteristic(CharState(d=0.6, u=0.5), factor, 20.0)
    ref = _dop853_time_mode(CharState(d=0.6, u=0.5), factor, 20.0)
    assert free.blown_up and ref.t_events[0].size == 1
    assert free.blowup_time == pytest.approx(ref.t_events[0][0], rel=1e-10)


def test_phase_trajectory_matches_rk45_dense_output():
    """at() against solve_ivp's DOP853 dense output; both fail on the same starts."""

    def rhs(u, y):
        d = y[0]
        return [(2.0 * d * d - (3.0 * u - 5.0 * u * u) * d - u**3 * (1.0 - u))
                / (-(u * u) * (1.0 - u))]

    failed = 0
    for d0, u0, stop in _seeded_starts(13, 16, (-0.1, 0.05)):
        u_end = stop * u0
        ref = solve_ivp(rhs, (u0, u_end), [d0], method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        if ref.status != 0:
            failed += 1
            with pytest.raises(RuntimeError, match="blows up at u"):
                phase_trajectory(d0, u0, u_end)
            continue
        path = phase_trajectory(d0, u0, u_end)
        us = np.linspace(u0, u_end, 57)
        assert np.max(np.abs(path.at(us) - ref.sol(us)[0])) <= 1e-10
    assert 0 < failed < 16


def test_time_mode_blowup_time_matches_closed_form():
    """Under f = c the slope blows up when u reaches u*: at (Phi(u*) - Phi(u0)) / c.

    u' = -c u^2 (1 - u) gives the time, with Phi(v) = 1/v + log((1 - v)/v);
    u* is the root in (0, u0) of the denominator of the explicit phase path.
    """

    def phi(v):
        return 1.0 / v + math.log((1.0 - v) / v)

    for d0, u0, c in _seeded_starts(14, 30, (0.005, 0.2)):
        w0 = d0 - u0 * (1.0 - u0)

        def denominator(u):
            r = (u / u0) ** 2
            return u0 * (1.0 - u0) ** 2 * r + w0 * ((2.0 * u - 1.0) - (2.0 * u0 - 1.0) * r)

        u_star = brentq(denominator, 0.0, u0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        expected = (phi(u_star) - phi(u0)) / c
        traj = integrate_characteristic(CharState(d=d0, u=u0), ConstantFactor(c), 2.0 * expected)
        assert traj.blown_up, (d0, u0, c)
        assert traj.blowup_time == pytest.approx(expected, rel=1e-12)


# ------------------------------------- edge starts, with every numpy warning an error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u0", [0.0, 1e-300])
def test_time_mode_riccati_limit_is_exact(u0):
    """Where u0 rounds away, d' = 2 f d^2 gives d = d0 / (1 - 2 f d0 t), blowing up at 1/(2 f d0).

    d comes from 1/u - 1/u0, which grows though u itself rounds to u0.
    """
    f = 0.7
    blown = integrate_characteristic(CharState(d=1.0, u=u0), ConstantFactor(f), 10.0)
    assert blown.blowup_time == pytest.approx(1.0 / (2.0 * f), rel=1e-12)
    assert blown.d[-1] == math.inf and np.all(blown.u == u0)
    np.testing.assert_allclose(blown.d[:-1], 1.0 / (1.0 - 2.0 * f * blown.t[:-1]), rtol=1e-12)
    smooth = integrate_characteristic(CharState(d=-1.0, u=u0), ConstantFactor(f), 10.0)
    assert not smooth.blown_up and smooth.t[-1] == 10.0 and np.all(smooth.u == u0)
    np.testing.assert_allclose(smooth.d, -1.0 / (1.0 + 2.0 * f * smooth.t), rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_time_mode_at_full_density_is_logistic():
    """At u0 = 1, u never moves and d / (d + 1) = d0 / (d0 + 1) e^(2 f t)."""
    f = 0.7
    for d0 in (0.5, 2.0):
        traj = integrate_characteristic(CharState(d=d0, u=1.0), ConstantFactor(f), 10.0)
        assert traj.blowup_time == pytest.approx(0.5 * math.log(1.0 + 1.0 / d0) / f, rel=1e-12)
        t, d = traj.t[:-1], traj.d[:-1]
        logistic = d0 / (d0 + 1.0) * np.exp(2.0 * f * t)
        np.testing.assert_allclose(d / (d + 1.0), logistic, rtol=1e-12)
        assert np.all(traj.u == 1.0) and traj.d[-1] == math.inf
    for d0 in (-1.0, 0.0):  # the roots of d' = 2 f d (d + 1)
        traj = integrate_characteristic(CharState(d=d0, u=1.0), ConstantFactor(f), 1e3)
        assert not traj.blown_up
        np.testing.assert_allclose(traj.d, d0, rtol=0.0, atol=1e-15)
    for d0 in (-3.0, -0.5):  # drawn onto d = -1
        traj = integrate_characteristic(CharState(d=d0, u=1.0), ConstantFactor(f), 1e3)
        assert traj.d[-1] == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_time_mode_near_full_density_matches_dop853_in_v():
    """u0 = 1 - 1e-9 against DOP853 stepping v = 1 - u, whose digits u itself rounds away."""
    f, u0 = 0.7, 1.0 - 1e-9
    v0 = 1.0 - u0  # exact

    def rhs(t, y):
        d, v = y
        u = 1.0 - v
        return [(2.0 * d * d - (3.0 * u - 5.0 * u * u) * d - u**3 * v) * f, u * u * v * f]

    def hit_cap(t, y):
        return y[0] - 1e12

    hit_cap.terminal = True
    for d0, t_end in ((0.3, 5.0), (-0.3, 40.0)):
        traj = integrate_characteristic(CharState(d=d0, u=u0), ConstantFactor(f), t_end)
        free = solve_ivp(rhs, (0.0, t_end), [d0, v0], method="DOP853", rtol=1e-13,
                         atol=1e-15, events=hit_cap)
        assert traj.blown_up == (free.t_events[0].size > 0) == (d0 > 0)
        smooth = traj.t[:-1] if traj.blown_up else traj.t
        ref = solve_ivp(rhs, (0.0, smooth[-1]), [d0, v0], method="DOP853", rtol=1e-13,
                        atol=1e-15, t_eval=smooth)
        d_ref, v_ref = ref.y
        d, u = traj.d[:len(smooth)], traj.u[:len(smooth)]
        assert np.all(np.abs(d - d_ref) <= 1e-10 * np.maximum(1.0, np.abs(d_ref)))
        assert np.max(np.abs(u - (1.0 - v_ref))) <= 1e-10
        if traj.blown_up:
            t_ref = free.t_events[0][0]
            assert abs(traj.blowup_time - t_ref) <= 1e-10 * t_ref
