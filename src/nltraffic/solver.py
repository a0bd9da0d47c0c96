"""First-order finite-volume solver for the look-ahead conservation law.

    u_t + (u (1 - u) exp(-ubar))_x = 0

The nonlocal factor exp(-ubar) is frozen over each update (explicit, lagged
coupling); the flux through an interface uses the arithmetic mean of the
adjacent cells' factors.  The interface flux is Godunov's, the exact Riemann
flux for the concave local flux g(u) = u(1-u) f with sonic point 1/2.  It is
taken in the demand/supply form of the cell transmission model (Daganzo,
Transp. Res. B 1994; Lebacque, ISTTT 1996),

    F(uL, uR) = min(D(uL), S(uR)) f,   D(u) = g(min(u, 1/2)),  S(u) = g(max(u, 1/2)),

which is the min of g over [uL, uR] when uL <= uR and its max over [uR, uL]
otherwise.  evolve() allocates its work arrays (two ghost-padded states, the
interface factors, wave speeds and fluxes) once per call, so a step
allocates no array of the grid's length; the snapshots it returns are
copies and never alias them.  Its loop body runs once per state, the
initial one included: measure and check, record, snapshot, then stop at
t_end or step.  A nan or inf shows in the min and max the density check takes.

evolve() steps only the cells [a, b) that can hold traffic.  Off them the
state is exactly 0 and the factor that of the nearer end, so each artifact
is the full grid's, bit for bit.  An empty cell sends F(0, uR) = 0 for uR
<= 1 (an overshoot within DENSITY_TOL creeps a cell), so a stays three cells
before the first occupied one, plus a finite look-ahead window, which makes
the factor at a that of every cell before it.  It receives at most F(uL, 0)
= min(D(uL), 1/4) f, one cell per step: b starts three cells past the last
occupied one and grows as cell b - 2 fills.  The averages on u[a:b] add the
same numbers in the same order, the ones off it being exact zeros.  The mass
(a pairwise sum) would round differently on a sub-range, so it sums all
cells and gives the uniform kernel its average.

Each ghost cell copies its neighbour (zero gradient), so an edge passes
g(u) f of its end cell: the right edge lets density out, and the left one
lets it in.  Data cut where u(x_left) > 0 take in g(u(x_left)) f per unit
time, as if the cut state went on to the left, and no report names this
inflow.  Time stepping is forward Euler under
dt = CFL dx / max wave speed, which makes the scheme monotone, hence
mass-conservative up to boundary flux and maximum-principle preserving to
roundoff.

Smooth solutions of this model can still lose regularity: the slope blows
up in finite time while u stays bounded.  A shock-capturing scheme never
produces an infinite gradient, so "wave breakdown" must be detected from
the captured profile.  Breakdown is declared once the normalized gradient
indicator reaches grid scale,

    max_i |central diff u|_i / ||u||_inf  >=  BLOWUP_GRADIENT_FACTOR / dx.

The left side is capped by how sharply a monotone scheme captures a shock:
a full-amplitude jump resolved over a single cell gives exactly 0.5/dx and
anything smeared over the usual 2-4 cells lands in 0.1-0.35/dx, while
smooth transport keeps the indicator O(1), independent of dx.  The factor
0.08 sits inside that gap on the two compare recipes at n = 4000 (forming
shocks exceed 0.10/dx, the globally smooth run stays below 0.06/dx).

A rule that does not fire does not mean smooth evolution.  A weak shock
can stay under it: subinit under sk:L=2 on [-200, 260] at n = 16000
reports smooth to t = 60 with a peak indicator of 0.068/dx, yet its max
slope doubles as dx halves.  Where the rule fires on subinit it fires
1.7-5.3 time units after the exact breaking time.  ROADMAP.md item 10
gives the two-grid slope ratio that is to replace it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .grid import (  # noqa: F401  (total_mass: traced)
    DENSITY_TOL, GridFunction, require_density, total_mass,
)
from .kernels import Kernel, lookahead_average, nonlocal_field  # noqa: F401  (traced)
from .threshold import end_slopes
from .writers import write_csv

CFL = 0.45
SPEED_FLOOR = 1e-12
BLOWUP_GRADIENT_FACTOR = 0.08
MAX_STEPS = 2_000_000
BOUNDARY_CONTACT_MASS = 1e-8


class SolverFailure(RuntimeError):
    """Numerical failure (non-finite state or broken maximum principle)."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


def numerical_flux(u_left, u_right, factor, out, work):
    """Godunov interface flux for local flux g(u) = u (1 - u) * factor, into out.

    Writes min(D(u_left), S(u_right)) * factor with the demand D(u) =
    m (1 - m), m = min(u, 1/2), and the supply S(u) = m (1 - m), m = max(u,
    1/2), and returns out.  work is scratch of out's shape; neither may
    overlap the inputs.
    """
    np.maximum(u_right, 0.5, out=out)
    np.subtract(1.0, out, out=work)
    out *= work
    # u (1 - min(u, 1/2)) is the demand for u <= 1/2 and exceeds 1/4, the
    # demand and a bound on every supply, for u > 1/2: the min is unchanged
    np.minimum(u_left, 0.5, out=work)
    np.subtract(1.0, work, out=work)
    work *= u_left
    np.minimum(out, work, out=out)
    out *= factor
    return out


def _advance(pad, new, factor, cells: slice, dx: float, dt_max: float, work):
    """One CFL step of forward Euler on the cells of pad[1:-1] into new[1:-1].

    pad and new hold a state on cells of width dx between two ghost cells.
    The cells' ghosts are their outer neighbours, set here (zero gradient);
    off a domain edge those are vacuum beside vacuum of one factor.  factor
    is the cells' lagged slow-down factor and work _buffers()'s scratch.  The
    step is at most dt_max long (evolve passes the time left to t_end).
    Returns (dt, speed, boundary_flux), the fluxes being the rightward ones
    through the left edge (inflow) and the right edge (outflow).
    """
    pad, new = pad[cells.start : cells.stop + 2], new[cells.start : cells.stop + 2]
    c = work[0, : len(pad)]
    fi, alpha, flux = work[1:, 1 : len(pad)]
    pad[0], pad[-1] = pad[1], pad[-2]
    # interface factors: the mean of the two neighbours, one-sided at the edges
    np.add(factor[:-1], factor[1:], out=fi[1:-1])
    fi[1:-1] *= 0.5
    fi[0], fi[-1] = factor[0], factor[-1]
    # wave speed: max(|1 - 2uL|, |1 - 2uR|) fi, exactly doubled after the max
    np.subtract(0.5, pad, out=c)
    np.abs(c, out=c)
    np.maximum(c[:-1], c[1:], out=alpha)
    alpha *= fi
    speed = 2.0 * float(alpha.max())
    dt = min(CFL * dx / max(speed, SPEED_FLOOR), dt_max)
    numerical_flux(pad[:-1], pad[1:], fi, out=flux, work=alpha)  # alpha is read: scratch
    u_new = new[1:-1]
    np.subtract(flux[1:], flux[:-1], out=u_new)
    u_new *= dt / dx
    np.subtract(pad[1:-1], u_new, out=u_new)
    return dt, speed, (float(flux[0]), float(flux[-1]))


def _buffers(n: int):
    """Two zeroed ghost-padded states of n cells and the work array of _advance."""
    pad, new = np.zeros((2, n + 2))
    return pad, new, np.empty((4, n + 2))


def _stepped_cells(values, kernel: Kernel, dx: float) -> slice:
    """The cells [a, b) that evolve() steps first; see the module docstring."""
    occupied = np.flatnonzero(values.view(np.int64))  # +0.0 is the one double of no set bit
    if not len(occupied):
        return slice(0, len(values))
    window = kernel.length if math.isfinite(kernel.length) else 0.0
    a = int(occupied[0]) - 3 - math.ceil(min(window / dx, len(values)))
    return slice(max(a, 0), min(int(occupied[-1]) + 3, len(values)))


@dataclass(frozen=True)
class BlowupReport:
    detected: bool
    t_detect: float | None
    # first t at which the mass that left through the right edge exceeds
    # BOUNDARY_CONTACT_MASS: the run has left the model's domain of validity
    boundary_contact_t: float | None


class Diagnostics:
    """Per-step scalar diagnostics of an evolve() run, one float64 `array` per column.

    Row k describes the state after step k; its dt and max_speed are those
    of the step that produced it (0 on the initial row).
    """

    COLUMNS = ("t", "mass", "min_u", "max_u", "grad_indicator", "factor_min",
               "factor_max", "dt", "max_speed")

    def __init__(self):
        for name in self.COLUMNS:
            setattr(self, name, array("d"))
        self.max_mass_drift = 0.0
        self.blowup: BlowupReport | None = None

    def add_row(self, *row) -> None:
        for name, value in zip(self.COLUMNS, row, strict=True):
            getattr(self, name).append(value)

    def write_csv(self, path) -> None:
        write_csv(path, ",".join(self.COLUMNS), [getattr(self, c) for c in self.COLUMNS])


def _max_slope(u: np.ndarray, dx: float, cells: slice) -> float:
    """max |np.gradient(u, dx, edge_order=2)| bit for bit, with numpy's own
    stencils; the interior maximum, over u[cells] where u is 0 off cells and on
    two end cells off a domain edge, is taken before the (monotone) division.
    """
    v = u[cells]
    inner = float(np.abs(v[2:] - v[:-2]).max()) / (2.0 * dx)
    return float(max(inner, *map(abs, end_slopes(u, dx))))


def gradient_indicator(u: GridFunction) -> float:
    """max |central difference of u| / max |u|; errors on a vacuum state."""
    amp = float(np.max(np.abs(u.values)))
    if amp <= 1e-14:
        raise ValueError("gradient indicator undefined for vacuum data")
    return _max_slope(u.values, u.grid.dx, slice(None)) / amp


def _checked_measure(u, cells: slice, t: float, dt: float, speed: float, dx: float,
                     kernel: Kernel):
    """Check a state on cells of width dx and measure everything the step loop needs, once.

    t is the state's time, dt and speed those of the step that produced it
    (0 for the initial state).  Returns the factor of the stepped cells, and
    the state's mass and diagnostics row.
    """
    v = u[cells]
    lo, hi = float(v.min()), float(v.max())  # nan and +-inf propagate into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SolverFailure(
            "non-finite state during update", dump={"t": t, "dt": dt, "max_speed": speed}
        )
    if lo < -DENSITY_TOL or hi > 1.0 + DENSITY_TOL:
        raise SolverFailure(
            "maximum principle violated", dump={"t": t, "min_u": lo, "max_u": hi}
        )
    mass = float(dx * u.sum())
    factor = np.negative(lookahead_average(v, dx, kernel, mass))
    np.exp(factor, out=factor)
    # boundary inflow can grow the mass, so bound against the current one
    f_lo = np.exp(-mass * kernel.weight_sup)
    f_min, f_max = float(factor.min()), float(factor.max())
    if f_min < f_lo - 1e-10 or f_max > 1.0 + 1e-10:
        raise SolverFailure(
            "slow-down factor left its admissible band",
            dump={"t": t, "factor_min": f_min, "factor_max": f_max},
        )
    amp = max(hi, -lo)  # = max |u|
    gi = 0.0 if amp <= 1e-14 else _max_slope(u, dx, cells) / amp
    return factor, mass, (t, mass, lo, hi, gi, f_min, f_max, dt, speed)


def require_runnable(u0: GridFunction, kernel: Kernel, t_end: float,
                     snapshot_times=()) -> None:
    """Raise ValueError unless evolve(u0, kernel, t_end, snapshot_times) may start.

    t_end must be positive and finite, the snapshot times in [0, t_end] in
    any order and u0 a density.  A kernel that looks ahead refuses u0 whose
    last five cells hold more than BOUNDARY_CONTACT_MASS: its average would
    miss whatever lies past x_right.  The zero kernel's flux needs nothing
    past it, so it runs, and boundary_contact_t reports any density that
    leaves.  The run may take at most MAX_STEPS steps.
    """
    if not (0.0 < t_end < math.inf):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    times = tuple(float(t) for t in snapshot_times)
    if not all(0.0 <= t <= t_end for t in times):
        raise ValueError(f"snapshot_times must lie in [0, t_end], got {times}")
    require_density(u0)
    grid, dx = u0.grid, u0.grid.dx
    tail = dx * float(u0.values[-5:].sum())
    if kernel.weight_sup and tail > BOUNDARY_CONTACT_MASS:
        raise ValueError(
            f"data reach the right boundary x_right = {grid.x_right:g} (tail mass "
            f"{tail:.3e}); kernel {kernel} looks ahead past it: raise --x-right"
        )

    # _checked_measure keeps u within DENSITY_TOL of [0, 1] and the factor at
    # most 1 + 1e-10, so no wave speed exceeds 1 + 3e-8 and every step but the
    # last is at least CFL dx / (1 + 3e-8) long: this bounds the step count
    steps = t_end * (1.0 + 3e-8) / (CFL * dx)
    if steps > MAX_STEPS:
        raise ValueError(
            f"cells of width dx = {dx:.3g} may take up to {steps:.3g} steps to "
            f"t_end = {t_end:g}, over the budget of {MAX_STEPS}; widen "
            f"--x-left/--x-right or lower --n-cells"
        )


def evolve(u0: GridFunction, kernel: Kernel, t_end: float, snapshot_times=()):
    """Run the scheme from u0 on its grid to t_end; returns (snapshots, diagnostics).

    snapshots maps each of the snapshot_times, in any order, to the state
    of the nearest completed step, and the last step ends at t_end exactly.
    Breakdown detection stops nothing: the run goes on to t_end.
    require_runnable() is checked before the first step.
    """
    require_runnable(u0, kernel, t_end, snapshot_times)
    grid, dx = u0.grid, u0.grid.dx
    pad, new, work = _buffers(grid.n_cells)
    pad[1:-1] = u0.values
    cells = _stepped_cells(u0.values, kernel, dx)
    u = u_prev = pad[1:-1]
    # dt = 0 marks the initial state, which closes no step and adds no outflow
    t = t_prev = dt = speed = f_left = f_right = mass_prev = outflow = 0.0
    t_detect = contact_t = None
    grid_scale = BLOWUP_GRADIENT_FACTOR / dx
    pending = sorted(float(s) for s in snapshot_times)
    snapshots: dict[float, GridFunction] = {}
    diag = Diagnostics()
    while True:
        factor, mass, row = _checked_measure(u, cells, t, dt, speed, dx, kernel)
        diag.add_row(*row)
        if dt:  # the step's mass balance against its boundary fluxes
            drift = abs(mass - mass_prev + dt * (f_right - f_left))
            diag.max_mass_drift = max(diag.max_mass_drift, drift)
        if contact_t is None:
            outflow += dt * f_right
            if outflow > BOUNDARY_CONTACT_MASS:
                contact_t = t
        if t_detect is None and row[4] >= grid_scale:  # the gradient indicator
            t_detect = t
        while pending and pending[0] <= t:
            tgt = pending.pop(0)
            snapshots[tgt] = GridFunction(grid, u_prev if abs(t_prev - tgt) < abs(t - tgt) else u)
        if t == t_end:
            break
        t_prev, mass_prev = t, mass
        dt, speed, (f_left, f_right) = _advance(pad, new, factor, cells, dx, t_end - t_prev, work)
        # the next step overwrites u_prev, after this one has taken its snapshots
        pad, new = new, pad
        u_prev, u = new[1:-1], pad[1:-1]
        t = t_end if dt == t_end - t_prev else t_prev + dt
        if cells.stop < len(u) and u[cells.stop - 2]:  # keep two vacuum cells ahead
            cells = slice(cells.start, cells.stop + 1)

    diag.blowup = BlowupReport(detected=t_detect is not None, t_detect=t_detect,
                               boundary_contact_t=contact_t)
    return snapshots, diag
