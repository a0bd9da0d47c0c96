"""Independent numerical references that the tests compare the package against.

build_table integrates the threshold ODE by RK4 from its series seed, so
the closed form sigma(u) = u (1 - u) used by nltraffic.threshold is checked
against a route that never assumes it; threshold_residual measures how far
any candidate curve is from solving that ODE.  solve_eta and eta_crossing_time
integrate the comparison equation behind characteristics.time_to_level, and
characteristic_rhs is the (d, u) system whose closed-form solution
characteristics.integrate_characteristic returns, SampledFactor the
time-varying slow-down factor that the tests feed it next to the package's
ConstantFactor, factor_at either one's value at a time, phase_path_at a
PhaseTrajectory's closed form between its samples, and slope_roots the
roots in d of the quadratic that drives the slope along a characteristic.
godunov_flux is the case-split Godunov flux that solver.numerical_flux
replaced, and reference_evolve a step loop on it that allocates every array
afresh, against which the solver's reused work buffers are checked.
exact_cell_averages is the exact solution of a catalog datum before it
breaks, under the three kernels whose characteristics are explicit, and
entropy_cell_averages the bump's entropy solution under the zero kernel at
any time, past breaking too.

Two helpers the tests share close the module: random_compact_bump draws
random smooth initial data, and front_position reads a front off a profile.
CATALOG_VERDICTS is the threshold verdict that each catalog datum is
built to get (see nltraffic.scenarios).
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from nltraffic.characteristics import _phase_path, time_to_level
from nltraffic.scenarios import get_datum
from nltraffic.solver import CFL, Diagnostics, _checked_measure

SEED_X = 1e-3
N_TABLE = 10001


def _ode_rhs(x: float, s: float) -> float:
    """sigma'(x) of the threshold ODE, written out from its two polynomials."""
    return (2.0 * s * s - (3.0 * x - 5.0 * x * x) * s - x**3 * (1.0 - x)) / (
        -(x * x) * (1.0 - x)
    )


def threshold_residual(candidate, u: float, derivative=None, fd_step: float = 1e-6):
    """How far a candidate curve is from solving the threshold ODE at u.

    Returns candidate'(u) - rhs(u, candidate(u)); the derivative defaults
    to a central difference with step fd_step.  u must stay a step away
    from the singular endpoints 0 and 1.
    """
    delta = 1e-6
    if not (delta <= u <= 1.0 - delta):
        raise ValueError(f"residual undefined this close to an endpoint: u={u}")
    s = float(candidate(u))
    if derivative is not None:
        dprime = float(derivative(u))
    else:
        dprime = (float(candidate(u + fd_step)) - float(candidate(u - fd_step))) / (
            2.0 * fd_step
        )
    return dprime - _ode_rhs(u, s)


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


def characteristic_rhs(d: float, u: float, factor: float):
    """Right-hand side (d', u') of the characteristic system."""
    uu = min(max(u, 0.0), 1.0)
    poly = 2.0 * d * d - (3.0 * uu - 5.0 * uu * uu) * d - uu**3 * (1.0 - uu)
    return poly * factor, -(uu * uu) * (1.0 - uu) * factor


class SampledFactor:
    """Slow-down factor interpolated from a sampled time series.

    Typically exp(-ubar) recorded along a path by the PDE solver.  Linear
    interpolation between samples (constant before the first), integrated
    exactly by trapezoid sums; evaluation or integration beyond the last
    sample is an error.
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
        self._sums = np.concatenate(([0.0], np.cumsum(np.diff(t) * (v[:-1] + v[1:]) / 2.0)))

    def _require_within(self, t) -> None:
        if np.any(t > self.times[-1] + 1e-12):
            raise ValueError(f"factor series ends at t={self.times[-1]}, asked for t={np.max(t)}")

    def at(self, t: float) -> float:
        self._require_within(t)
        return float(np.interp(t, self.times, self.values))

    def _primitive(self, t):
        j = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2)
        f = np.interp(t, self.times, self.values)
        return self._sums[j] + (t - self.times[j]) * (self.values[j] + f) / 2.0

    def integral(self, t):
        """F(t), the integral of f from 0 to each t."""
        t = np.asarray(t, dtype=float)
        self._require_within(t)
        return self._primitive(t) - self._primitive(0.0)

    def reach(self, value: float) -> float:
        """The time at which F reaches value; inf if the series ends first."""
        target = self._primitive(0.0) + value
        if target > self._sums[-1]:
            return math.inf
        j = min(max(int(np.searchsorted(self._sums, target)) - 1, 0), len(self.times) - 2)
        rest, v = target - self._sums[j], self.values[j]
        slope = (self.values[j + 1] - v) / (self.times[j + 1] - self.times[j]) if rest > 0 else 0.0
        root = math.sqrt(max(v * v + 2.0 * slope * rest, 0.0))  # the factor where F = value
        return float(self.times[j] + 2.0 * rest / (v + root))  # v s + slope s^2 / 2 = rest


def factor_at(factor, t: float) -> float:
    """f(t) of a ConstantFactor or a SampledFactor, as a right-hand side reads it."""
    return factor.at(t) if isinstance(factor, SampledFactor) else factor.value


def phase_path_at(path, u):
    """A PhaseTrajectory's d(u) between its samples, from its closed form."""
    d0, u0 = path.d[0], path.u[0]
    return _phase_path(d0 - u0 * (1.0 - u0), u0, np.asarray(u, dtype=float))


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


def godunov_flux(u_left, u_right, factor):
    """Godunov flux for g(u) = u (1 - u) factor, split by the Riemann case.

    The min of g over [uL, uR] when uL <= uR (g is concave, so one endpoint
    attains it), else g at the sonic point 1/2 clamped to [uR, uL].  It
    equals the demand/supply form bit for bit except where rounding makes
    the computed g decrease between two states a few ulps apart below 1/2:
    there this form takes g(uR) and the demand g(uL), 1-2 ulps apart.
    """
    uL = np.asarray(u_left, dtype=float)
    uR = np.asarray(u_right, dtype=float)
    f = np.asarray(factor, dtype=float)
    gL = uL * (1.0 - uL) * f
    gR = uR * (1.0 - uR) * f
    u_star = np.minimum(np.maximum(uR, 0.5), uL)
    out = np.where(uL <= uR, np.minimum(gL, gR), u_star * (1.0 - u_star) * f)
    return float(out) if out.ndim == 0 else out


def reference_evolve(u0, kernel, t_end: float, snapshot_times=()):
    """evolve() with fresh arrays in every step.

    Returns (snapshots, diagnostics) like evolve(), except that each
    snapshot is the state's array, not a GridFunction, and the blow-up
    report is left out.  Each state is a new array, so no snapshot can alias
    a later state.
    """
    dx = u0.grid.dx
    t, u = 0.0, u0.values
    factor, mass, row = _checked_measure(u, slice(None), t, 0.0, 0.0, dx, kernel)
    diag = Diagnostics()
    diag.add_row(*row)
    pending = sorted(snapshot_times)
    snapshots = {}
    t_prev, u_prev = t, u
    while True:
        while pending and pending[0] <= t:
            tgt = pending.pop(0)
            snapshots[tgt] = u_prev if abs(t_prev - tgt) < abs(t - tgt) else u
        if t == t_end:
            return snapshots, diag
        fi = np.concatenate([factor[:1], 0.5 * (factor[:-1] + factor[1:]), factor[-1:]])
        uL = np.concatenate([u[:1], u])
        uR = np.concatenate([u, u[-1:]])
        speed = float((np.maximum(np.abs(1.0 - 2.0 * uL), np.abs(1.0 - 2.0 * uR)) * fi).max())
        dt = min(CFL * dx / max(speed, 1e-12), t_end - t)
        flux = godunov_flux(uL, uR, fi)
        t_prev, u_prev, mass_prev = t, u, mass
        u = u - (dt / dx) * (flux[1:] - flux[:-1])
        t = t_end if dt == t_end - t_prev else t_prev + dt
        factor, mass, row = _checked_measure(u, slice(None), t, dt, speed, dx, kernel)
        diag.add_row(*row)
        drift = abs(mass - mass_prev + dt * (flux[-1] - flux[0]))
        diag.max_mass_drift = max(diag.max_mass_drift, drift)


EXACT_LABELS = 400_001


def exact_cell_averages(grid, kernel, T: float, datum: str = "bump") -> np.ndarray:
    """Cell averages on grid of a datum's exact solution at a time T before it breaks.

    Under the zero, uniform and infinite kernels the smooth solution is
    explicit along the characteristics x' = (1 - 2u) exp(-ubar), mapped
    from EXACT_LABELS labels x0: on the bump's support [-1, 1], or for
    subinit, whose support is the whole line, on the grid's domain, since
    the solver sees only the cut:
    * zero: X = x0 + (1 - 2 u0) T and U = u0;
    * uniform: X = x0 + exp(-m) (1 - 2 u0) T and U = u0, m the labels' mass;
    * infinite: K = exp(ubar0) / (1 - u0) is constant along each path, so
      1/U = 1/u0 + T/K and X = x0 + T/K - log1p((T/K) / (1/u0 - 1)).
    Characteristics are not particle paths, so the averages come from the
    cumulative trapezoid of U dX along the mapped labels, read at the cell
    edges, and not from the mass between labels.  Left of the first label's
    path the average is 0.
    """
    support = (-1.0, 1.0) if datum == "bump" else (grid.x_left, grid.x_right)
    x0 = np.linspace(*support, EXACT_LABELS)
    u0 = np.array([get_datum(datum).profile(x) for x in x0.tolist()])
    pieces = 0.5 * (u0[:-1] + u0[1:]) * np.diff(x0)
    ubar0 = np.concatenate((np.cumsum(pieces[::-1])[::-1], [0.0]))  # int_x0^inf u0
    name = str(kernel)
    if name in ("zero", "uniform"):
        f = math.exp(-ubar0[0]) if name == "uniform" else 1.0
        X, U = x0 + f * (1.0 - 2.0 * u0) * T, u0
    elif name == "infinite":
        s = T * (1.0 - u0) / np.exp(ubar0)  # T/K
        with np.errstate(divide="ignore", over="ignore"):  # u0 is 0 or subnormal near +-1
            inv_u0 = 1.0 / u0
        X, U = x0 + s - np.log1p(s / (inv_u0 - 1.0)), 1.0 / (inv_u0 + s)
    else:
        raise ValueError(f"no exact profile for kernel {name!r}")
    assert np.all(np.diff(X) > 0.0), "characteristics crossed: T is past breaking"
    C = np.concatenate(([0.0], np.cumsum(0.5 * (U[:-1] + U[1:]) * np.diff(X))))
    edges = grid.x_left + np.arange(grid.n_cells + 1) * grid.dx
    return np.diff(np.interp(edges, X, C)) / grid.dx


HOPF_LAX_NODES = 1_600_001  # trapezoid nodes of the bump's primitive on [-1, 1]
HOPF_LAX_SCAN = 4_001  # every 400th node


def _bump_primitive() -> tuple[np.ndarray, np.ndarray]:
    """Nodes y of [-1, 1] and U0(y) = int_{-1}^y bump, by the trapezoid rule."""
    y = np.linspace(-1.0, 1.0, HOPF_LAX_NODES)
    with np.errstate(divide="ignore"):  # exp(-1/0) = 0 at y = +-1
        u = np.exp(-1.0 / (1.0 - y * y))
    return y, np.concatenate(([0.0], np.cumsum(0.5 * (u[:-1] + u[1:]) * np.diff(y))))


def entropy_cell_averages(grid, T: float) -> np.ndarray:
    """Cell averages on grid of the bump's entropy solution under the zero kernel at a time T > 0.

    The primitive U = int_{-inf}^x u solves U_t + H(U_x) = 0 with the concave
    H(p) = p (1 - p), so the Hopf-Lax formula gives it at every time, past
    breaking too:
        U(x, T) = max over |x - y| <= T of U0(y) - (T - (x - y))^2 / (4 T).
    U0 is 0 left of the bump's support [-1, 1] and its mass right of it, so
    on either flat part the maximum sits at y = x - T, where the penalty
    vanishes, or at the end of [-1, 1] nearest to it.  Each cell edge x takes
    the best of y = x - T and HOPF_LAX_SCAN points of [-1, 1] in its window,
    refined over U0's own nodes within two scan spacings of the best point.
    Under the uniform kernel the same law holds at the time exp(-m) T.
    """
    if grid.x_left > -1.0 - T or grid.x_right < 1.0 + T:  # speeds 1 - 2u lie in [-1, 1]
        raise ValueError(f"the bump's support by T = {T} leaves the grid")
    y, U0 = _bump_primitive()
    stride = (HOPF_LAX_NODES - 1) // (HOPF_LAX_SCAN - 1)
    scan = np.arange(0, HOPF_LAX_NODES, stride)
    near = np.arange(-2 * stride, 2 * stride + 1)

    def objective(x, nodes):  # -inf outside the window |x - y| <= T
        gap = x - y[nodes]
        return np.where(np.abs(gap) <= T, U0[nodes] - (T - gap) ** 2 / (4.0 * T), -np.inf)

    edges = grid.x_left + np.arange(grid.n_cells + 1) * grid.dx
    U = np.interp(edges - T, y, U0)  # y = x - T
    # 256 edges at a time keep each scan array near 8 MB
    for chunk in np.array_split(np.arange(len(edges)), len(edges) // 256 + 1):
        x = edges[chunk, None]
        top = scan[np.argmax(objective(x, scan), axis=1)]
        fine = np.clip(top[:, None] + near, 0, HOPF_LAX_NODES - 1)
        U[chunk] = np.maximum(U[chunk], objective(x, fine).max(axis=1))
    return np.diff(U) / grid.dx


def random_compact_bump(seed: int, radius: float = 3.0):
    """Random smooth compactly supported bump: gaussians under a mollifier cap.

    Returns a vectorized callable supported on (-radius, radius) with peak
    height in [0.3, 0.9].  Smooth nonnegative compact data of this kind
    always have a supercritical upslope somewhere.
    """
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 4)
    centers = rng.uniform(-radius / 2, radius / 2, size=k)
    widths = rng.uniform(0.3, 1.0, size=k)
    amps = rng.uniform(0.2, 1.0, size=k)
    peak = rng.uniform(0.3, 0.9)

    def raw(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, w, a in zip(centers, widths, amps):
            out += a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        inside = np.abs(x) < radius
        cap = np.zeros_like(x)
        xi = x[inside] / radius
        cap[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
        return out * cap

    ref = np.linspace(-radius, radius, 4001)
    scale = peak / float(np.max(raw(ref)))

    def profile(x):
        return scale * raw(x)

    return profile


def front_position(u, level: float) -> float:
    """Rightmost downcrossing of the given density level in a GridFunction, interpolated.

    Errors when the level is never attained.  If the last cell still sits
    above the level the front has left the domain; the right edge is
    returned.
    """
    values = u.values
    if float(values.max()) < level:
        raise ValueError(f"level {level} never attained (max {values.max():.3e})")
    above = np.nonzero(values >= level)[0]
    i = int(above[-1])
    if i == len(values) - 1:
        return float(u.grid.x_right)
    x_i = u.grid.centers[i]
    drop = values[i] - values[i + 1]
    frac = (values[i] - level) / drop if drop > 0 else 0.0
    return float(x_i + frac * u.grid.dx)


CATALOG_VERDICTS = {"bump": "SUPERCRITICAL", "subinit": "SUBCRITICAL"}
