"""Independent numerical references that the tests compare the package against.

build_table integrates the threshold ODE by RK4 from its series seed, so
the closed form sigma(u) = u (1 - u) used by nltraffic.threshold is checked
against a route that never assumes it.  solve_eta and eta_crossing_time
integrate the comparison equation behind characteristics.time_to_level.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from nltraffic.characteristics import time_to_level
from nltraffic.threshold import _ode_rhs

SEED_X = 1e-3
N_TABLE = 10001


def build_table(n_nodes: int = N_TABLE, seed_x: float = SEED_X):
    """Tabulate sigma on a uniform grid of [0, 1] by RK4 from the series seed.

    The ODE is singular at both endpoints; the two-term series sigma = x -
    x^2 + O(x^4) (coefficients fixed by matching powers in the ODE) gives
    the nodes below the seed.  Substeps are capped at 0.3 / stiffness with
    stiffness ~ max(3/x, 2/(1-x)), which keeps the classical RK4 step
    stable right up to the singular endpoints.  The final node x = 1 gets
    the limit value 0.
    """
    x = np.linspace(0.0, 1.0, n_nodes)
    sig = np.empty_like(x)
    below = x <= seed_x
    sig[below] = x[below] - x[below] ** 2
    k0 = int(np.searchsorted(x, seed_x, side="right"))
    xc = seed_x
    sc = seed_x - seed_x**2
    for k in range(k0, n_nodes):
        target = x[k]
        if target >= 1.0:
            sig[k] = 0.0
            continue
        stiff = max(3.0 / xc, 2.0 / (1.0 - target))
        m = max(1, int(np.ceil((target - xc) * stiff / 0.3)))
        h = (target - xc) / m
        for _ in range(m):
            k1 = _ode_rhs(xc, sc)
            k2 = _ode_rhs(xc + 0.5 * h, sc + 0.5 * h * k1)
            k3 = _ode_rhs(xc + 0.5 * h, sc + 0.5 * h * k2)
            k4 = _ode_rhs(xc + h, sc + h * k3)
            sc += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            xc += h
        xc = target
        sig[k] = sc
    return x, sig


def boost_bound(u_nodes, sigma_nodes) -> float:
    """Largest node u2 with sigma >= (3/4) u on every node of [0, u2]."""
    above = sigma_nodes + 1e-12 >= 0.75 * u_nodes
    bad = np.nonzero(~above)[0]
    return float(u_nodes[bad[0] - 1]) if len(bad) else 1.0


def eta_rhs(eta: float, m: float) -> float:
    """Right-hand side of the comparison equation eta' = -exp(-m) eta^2 (1-eta)."""
    return -math.exp(-m) * eta * eta * (1.0 - eta)


def solve_eta(u0: float, m: float, times) -> np.ndarray:
    """Integrate the comparison equation from eta(0) = u0; returns eta(times)."""
    if not (0.0 < u0 < 1.0):
        raise ValueError("need 0 < u0 < 1")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must increase from 0")
    sol = solve_ivp(
        lambda t, y: [eta_rhs(y[0], m)],
        (0.0, float(times[-1])),
        [u0],
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        t_eval=times,
        dense_output=True,
    )
    if sol.status != 0:  # pragma: no cover
        raise RuntimeError(f"eta integration failed: {sol.message}")
    return sol.y[0]


def eta_crossing_time(u0: float, u1: float, m: float) -> float:
    """Time at which the comparison solution crosses u1 (numerical route)."""
    if not (0.0 < u1 < u0 < 1.0):
        raise ValueError("need 0 < u1 < u0 < 1")
    t_guess = 10.0 * (time_to_level(u0, u1, m) + 1.0)

    def cross(t, y):
        return y[0] - u1

    cross.terminal = True
    cross.direction = -1
    sol = solve_ivp(
        lambda t, y: [eta_rhs(y[0], m)],
        (0.0, t_guess),
        [u0],
        method="RK45",
        rtol=1e-12,
        atol=1e-14,
        events=cross,
    )
    if not len(sol.t_events[0]):  # pragma: no cover
        raise RuntimeError("comparison solution never reached the level")
    return float(sol.t_events[0][0])
