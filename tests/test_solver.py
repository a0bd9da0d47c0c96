"""Finite-volume solver: fluxes, stepping, diagnostics, breakdown detection."""

import json
import math
import tracemalloc
from array import array
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltraffic import solver
from nltraffic.grid import (
    DENSITY_TOL,
    GridFunction,
    GridSpec,
    total_mass,
)
from nltraffic.kernels import (
    INFINITE, LINEAR, SK_UNIT, UNIFORM, ZERO, Kernel, nonlocal_field, parse_kernel,
)
from nltraffic.scenarios import COMPARE_KERNELS, bump_init, even_snapshots, get_datum
from nltraffic.solver import (
    Diagnostics,
    SolverFailure,
    _advance,
    _buffers,
    _stepped_cells,
    evolve,
    gradient_indicator,
    numerical_flux,
    require_runnable,
)
from nltraffic.threshold import gradient
from nltraffic.writers import write_json
from oracles import (
    entropy_cell_averages, exact_cell_averages, front_position, godunov_flux,
    random_compact_bump, reference_evolve,
)

DOMAIN = (-6.0, 10.0)


def scenario_grid(n):
    return GridSpec(DOMAIN[0], DOMAIN[1], n)


def box(grid, lo, hi, height=1.0):
    return GridFunction.from_callable(grid, lambda x: height if lo < x < hi else 0.0)


# ---------------------------------------------------------------- fluxes


def flux(u_left, u_right, factor):
    """numerical_flux into buffers of the inputs' broadcast shape, a 0-d one for scalars."""
    shape = np.broadcast_shapes(np.shape(u_left), np.shape(u_right), np.shape(factor))
    return numerical_flux(u_left, u_right, factor, out=np.empty(shape), work=np.empty(shape))


@given(
    v=st.floats(min_value=0.0, max_value=1.0),
    f=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_flux_consistency(v, f):
    exact = v * (1.0 - v) * f
    assert float(flux(v, v, f)) == pytest.approx(exact, abs=1e-15)


def test_godunov_hand_values():
    # transonic rarefaction: min of g over [0, 1] is 0 at either endpoint
    assert float(flux(0.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
    # compression spanning the sonic point: max g = g(1/2) = 1/4
    assert float(flux(1.0, 0.0, 1.0)) == pytest.approx(0.25)
    # one-sided intervals never reach the sonic point
    assert float(flux(0.4, 0.1, 0.5)) == pytest.approx(0.4 * 0.6 * 0.5)
    assert float(flux(0.9, 0.6, 1.0)) == pytest.approx(0.6 * 0.4)
    # and each is the case-split oracle's value, bit for bit
    for args in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.4, 0.1, 0.5), (0.9, 0.6, 1.0)]:
        assert float(flux(*args)) == godunov_flux(*args)


def test_flux_monotone_in_both_arguments():
    # nondecreasing in the left state, nonincreasing in the right one
    us = np.linspace(0.0, 1.0, 11)
    for uR in us:
        vals = flux(us, np.full_like(us, uR), 0.7)
        assert np.all(np.diff(vals) >= -1e-12)
    for uL in us:
        vals = flux(np.full_like(us, uL), us, 0.7)
        assert np.all(np.diff(vals) <= 1e-12)


def _random_interfaces(n, seed):
    """Uniform states with equal, sonic, 0, 1 and slightly out-of-range ones mixed in."""
    rng = np.random.default_rng(seed)
    uL, uR = rng.uniform(0.0, 1.0, (2, n))
    special = np.array([0.0, 0.5, 1.0, -1e-9, 1.0 + 1e-9])
    for u in (uL, uR):
        pick = rng.random(n) < 0.2
        u[pick] = rng.choice(special, pick.sum())
    same = rng.random(n) < 0.1
    uR[same] = uL[same]
    return uL, uR, rng.uniform(0.05, 1.0, n)


@pytest.mark.parametrize("n", [4001, 16001])
def test_flux_matches_case_split_oracle(n):
    uL, uR, f = _random_interfaces(n, seed=n)
    expected = godunov_flux(uL, uR, f)
    out, work = np.full((2, n), np.nan)
    assert numerical_flux(uL, uR, f, out=out, work=work) is out
    np.testing.assert_array_equal(out, expected)


def test_flux_within_two_ulps_of_oracle_on_nearby_states():
    # rounding makes the computed g dip between states a few ulps apart below
    # 1/2; there the two exact forms may pick different endpoints
    rng = np.random.default_rng(5)
    uL = rng.uniform(0.0, 0.5, 100_000)
    uR = np.nextafter(np.nextafter(uL, 1.0), 1.0)
    np.testing.assert_allclose(flux(uL, uR, 1.0), godunov_flux(uL, uR, 1.0), rtol=5e-16)


def test_flux_scalar_and_vector_forms():
    """Scalars fill a 0-d buffer and arrays one of their shape, allocating no array."""
    n = 4000
    for u in (0.3, np.linspace(0.0, 1.0, n)):
        out, work = np.empty(np.shape(u)), np.empty(np.shape(u))
        tracemalloc.start()
        try:
            assert numerical_flux(u, u, 1.0, out=out, work=work) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n  # fewer bytes than one boolean per cell
        np.testing.assert_array_equal(out, u * (1.0 - u))


# ---------------------------------------------------------------- stepping


@pytest.mark.parametrize("kernel", [ZERO, SK_UNIT, INFINITE, UNIFORM, LINEAR], ids=lambda k: k.tag)
def test_evolve_matches_allocating_reference(kernel):
    """The two reused state buffers give what fresh arrays per step give."""
    grid = scenario_grid(400)
    u0 = GridFunction.from_callable(grid, bump_init)
    before = u0.values.copy()
    times = tuple(np.linspace(0.0, 2.0, 41))
    ref_snaps, ref_diag = reference_evolve(u0, kernel, 2.0, times)
    runs = [evolve(u0, kernel, 2.0, times) for _ in range(2)]
    for snaps, diag in runs:
        assert list(snaps) == list(ref_snaps) == list(times)
        for t in times:
            np.testing.assert_array_equal(snaps[t].values, ref_snaps[t])
        for name in Diagnostics.COLUMNS:
            assert getattr(diag, name) == getattr(ref_diag, name), name
        assert diag.max_mass_drift == ref_diag.max_mass_drift
    assert runs[0][1].blowup == runs[1][1].blowup
    np.testing.assert_array_equal(u0.values, before)


def test_step_allocates_no_grid_sized_array():
    n = 4000
    grid = scenario_grid(n)
    pad, new, work = _buffers(n)
    pad[1:-1] = GridFunction.from_callable(grid, bump_init).values
    # the whole grid, and the strict sub-range that evolve() steps for the bump
    part = _stepped_cells(pad[1:-1], ZERO, grid.dx)
    assert 0 < part.start and part.stop < n
    for cells in (slice(0, n), part):
        factor = np.ones(cells.stop - cells.start)
        _advance(pad, new, factor, cells, grid.dx, 1.0, work)
        tracemalloc.start()
        try:
            _advance(pad, new, factor, cells, grid.dx, 1.0, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n  # fewer bytes than one boolean per cell


RANGE_KERNELS = (ZERO, SK_UNIT, Kernel("box", 0.3), Kernel("box", 2.5), LINEAR, INFINITE, UNIFORM)
# (name, domain, n_cells, profile), each run to t = 3
RANGE_DATA = [
    *((f"seed{seed}", DOMAIN, 400, random_compact_bump(seed)) for seed in (1, 2, 3)),
    # a jam behind vacuum: the rarefaction at its front runs left into it
    ("plateau", DOMAIN, 400, lambda x: np.where((x > -2.0) & (x < 1.0), 0.8, 0.0)),
    # an overshoot above 1 that the density check admits sends one cell into the vacuum
    ("overshoot", DOMAIN, 400, lambda x: np.where(np.abs(x) < 1.0, 1.0 + 5e-9, 0.0)),
    # support from the left edge on, a = 0, and a front out through the right one
    ("left-edge", (-1.0, 2.5), 400, bump_init),
    # a front that reaches the right edge, b = n, from a strict range
    ("right-edge", (-6.0, 1.5), 600, bump_init),
]


def _recorded_run(u0, kernel, full_grid):
    """evolve() to t = 3 past breakdown, keeping every state it measures and its cells.

    full_grid makes it step every cell, which gives the reference run.
    """
    states, ranges = [], []
    measure = solver._checked_measure

    def recording(u, cells, *args):
        states.append(u.copy())
        ranges.append((cells.start, cells.stop))
        return measure(u, cells, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_checked_measure", recording)
        if full_grid:
            mp.setattr(solver, "_stepped_cells", lambda values, kernel, dx: slice(0, len(values)))
        _, diag = evolve(u0, kernel, 3.0)
    return np.array(states), ranges, diag


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("kernel", RANGE_KERNELS, ids=lambda k: k.tag)
@pytest.mark.parametrize("name, domain, n, profile", RANGE_DATA, ids=[d[0] for d in RANGE_DATA])
def test_stepped_range_matches_full_grid_bit_for_bit(kernel, name, domain, n, profile):
    """Skipping the vacuum changes no bit of any state, diagnostic or report."""
    u0 = GridFunction.from_callable(GridSpec(*domain, n), profile)
    states, ranges, diag = _recorded_run(u0, kernel, full_grid=False)
    ref_states, _, ref = _recorded_run(u0, kernel, full_grid=True)
    np.testing.assert_array_equal(_bits(states), _bits(ref_states))
    for column in Diagnostics.COLUMNS:
        np.testing.assert_array_equal(_bits(getattr(diag, column)), _bits(getattr(ref, column)))
    assert _bits(diag.max_mass_drift) == _bits(ref.max_mass_drift)
    assert diag.blowup == ref.blowup
    (a, b), stop = ranges[0], ranges[-1][1]
    if name == "left-edge":
        assert a == 0 and b < n == stop
    elif name == "right-edge":
        assert 0 < a and b < n == stop
    else:
        assert 0 < a and b <= stop < n
    if name.endswith("edge"):
        assert diag.blowup.boundary_contact_t is not None
        assert diag.mass[-1] < diag.mass[0] - solver.BOUNDARY_CONTACT_MASS


def test_non_finite_flux_fails_the_step(monkeypatch):
    """A nan interface flux on the third step is caught in the state it produces."""
    calls = []

    def flux_with_nan(*args, **kwargs):
        out = numerical_flux(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            out[len(out) // 2] = math.nan
        return out

    monkeypatch.setattr(solver, "numerical_flux", flux_with_nan)
    grid = scenario_grid(400)
    with pytest.raises(SolverFailure, match="^non-finite state during update$") as info:
        evolve(GridFunction.from_callable(grid, bump_init), ZERO, 1.0)
    assert len(calls) == 3
    assert set(info.value.dump) == {"t", "dt", "max_speed"}
    assert info.value.dump["dt"] > 0.0 and info.value.dump["max_speed"] > 0.0


def test_density_above_one_fails_the_maximum_principle():
    u = np.zeros(100)
    u[40:60] = 1.0 + 2.0 * DENSITY_TOL
    with pytest.raises(SolverFailure, match="^maximum principle violated$") as info:
        solver._checked_measure(u, slice(None), 0.5, 0.01, 1.0, 0.1, ZERO)
    assert info.value.dump == {"t": 0.5, "min_u": 0.0, "max_u": 1.0 + 2.0 * DENSITY_TOL}


def test_negative_average_fails_the_factor_band(monkeypatch):
    """ubar < 0 puts the factor exp(-ubar) above 1, out of its band."""
    monkeypatch.setattr(solver, "lookahead_average",
                        lambda values, dx, kernel, mass: np.full(len(values), -1e-6))
    u = np.zeros(100)
    u[40:60] = 0.5
    with pytest.raises(SolverFailure, match="^slow-down factor left its admissible band$") as info:
        solver._checked_measure(u, slice(None), 0.5, 0.01, 1.0, 0.1, SK_UNIT)
    dump = info.value.dump
    assert set(dump) == {"t", "factor_min", "factor_max"} and dump["t"] == 0.5
    assert dump["factor_min"] == dump["factor_max"] > 1.0 + 1e-10


@pytest.mark.parametrize("datum", ["bump", "subinit"])
@pytest.mark.parametrize("kernel", [*COMPARE_KERNELS, LINEAR, Kernel("box", 2.5)], ids=str)
@given(n=st.integers(min_value=100, max_value=300), t_end=st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=5, deadline=None)
def test_step_count_within_the_budget_bound(datum, kernel, n, t_end):
    """No wave speed exceeds 1 + 3e-8: at most ceil(t_end (1 + 3e-8) / (CFL dx)) steps,
    and one more per snapshot time, the count that require_runnable budgets."""
    u0 = get_datum(datum).sample(n)
    bound = t_end * (1.0 + 3e-8) / (solver.CFL * u0.grid.dx)
    _, diag = evolve(u0, kernel, t_end)
    assert len(diag.t) - 1 <= math.ceil(bound)
    times = even_snapshots(t_end)
    _, diag = evolve(u0, kernel, t_end, times)
    assert len(diag.t) - 1 <= bound + len(times)


def test_vacuum_fixed_point_and_cfl_step():
    grid = scenario_grid(200)
    snaps, diag = evolve(GridFunction(grid, np.zeros(200)), ZERO, 1.0, (1.0,))
    np.testing.assert_array_equal(snaps[1.0].values, 0.0)
    # vacuum wave speed is |1 - 0| * 1: t_end = 1 in the fewest equal steps of at most CFL * dx
    assert diag.t[1] == pytest.approx(1.0 / math.ceil(1.0 / (solver.CFL * grid.dx)), rel=1e-14)


def test_jam_fixed_point():
    grid = scenario_grid(200)
    snaps, diag = evolve(GridFunction(grid, np.ones(200)), ZERO, 1.0, (1.0,))
    assert len(diag.t) > 2
    np.testing.assert_array_equal(snaps[1.0].values, 1.0)


def test_gradient_indicator_matches_spatial_derivative():
    grid = scenario_grid(500)
    rng = np.random.default_rng(2)
    u = GridFunction(grid, rng.uniform(0.0, 1.0, 500))
    slope = max(map(abs, gradient(u.values.tolist(), grid.dx)))
    assert gradient_indicator(u) == slope / float(u.values.max())


def test_stepwise_mass_conservation():
    grid = scenario_grid(400)
    u = GridFunction.from_callable(grid, random_compact_bump(7))
    snaps, diag = evolve(u, ZERO, 1.5, (1.5,))
    # the vacuum ahead of the data moves at speed 1, so no step exceeds CFL dx
    assert len(diag.mass) - 1 >= 1.5 / (solver.CFL * grid.dx)
    assert diag.mass[0] == total_mass(u)
    assert max(np.abs(np.diff(diag.mass))) <= 1e-12 * grid.n_cells
    # support must not have reached the outflow boundaries
    final = snaps[1.5].values
    assert final[:5].max() == 0.0
    assert final[-5:].max() == 0.0


def test_max_principle_through_shock():
    grid = scenario_grid(800)
    u0 = GridFunction.from_callable(grid, random_compact_bump(3))
    _, diag = evolve(u0, ZERO, 2.0)
    assert min(diag.min_u) >= -1e-8
    assert max(diag.max_u) <= 1.0 + 1e-8
    assert diag.max_mass_drift <= 1e-12 * grid.n_cells


def test_factor_band_recorded(grid_bump_run):
    diag, m = grid_bump_run
    lo = math.exp(-m) - 1e-10
    assert min(diag.factor_min) >= lo
    assert max(diag.factor_max) <= 1.0 + 1e-10


@pytest.fixture(scope="module")
def grid_bump_run():
    grid = scenario_grid(600)
    u0 = GridFunction.from_callable(grid, bump_init)
    _, diag = evolve(u0, INFINITE, 1.0)
    return diag, total_mass(u0)


def test_infinite_kernel_factor_monotone():
    grid = scenario_grid(600)
    u0 = GridFunction.from_callable(grid, bump_init)
    snaps, _ = evolve(u0, INFINITE, 0.5, (0.5,))
    factor = np.exp(-nonlocal_field(snaps[0.5], INFINITE))
    assert np.all(np.diff(factor) >= -1e-14)


# ------------------------------------------------------- breakdown detection


def test_box_detected_immediately():
    grid = scenario_grid(1600)
    snaps, diag = evolve(box(grid, 0.0, 1.0), ZERO, 1.0, (0.0, 1.0))
    report = diag.blowup
    assert report.detected
    assert report.t_detect == 0.0
    # detection stops nothing: the run reaches t_end and takes every snapshot
    assert diag.t[-1] == 1.0
    assert list(snaps) == [0.0, 1.0]


def test_box_run_past_detection():
    grid = scenario_grid(1600)
    _, diag = evolve(box(grid, 0.0, 1.0), ZERO, 0.5)
    assert diag.t[-1] == 0.5
    assert diag.blowup.t_detect == 0.0
    # a unit jump over one cell is the sharpest profile the grid can hold
    slopes = [gi * max(hi, -lo) for gi, lo, hi in zip(diag.grad_indicator, diag.min_u, diag.max_u)]
    assert max(slopes) == pytest.approx(0.5 / grid.dx, rel=1e-12)


@pytest.mark.parametrize(
    "kernel, t_detect", zip(COMPARE_KERNELS, (0.5843, 0.7326, 1.0697, 0.9091)),
    ids=[k.tag for k in COMPARE_KERNELS],
)
def test_full_run_reports_first_detection(kernel, t_detect):
    """The run goes on to t_end; t_detect is the first row whose indicator reaches 0.08/dx."""
    grid = scenario_grid(1600)
    _, diag = evolve(GridFunction.from_callable(grid, bump_init), kernel, 2.0)
    assert diag.blowup.detected
    assert diag.blowup.t_detect == pytest.approx(t_detect, abs=1e-3)
    k = list(diag.t).index(diag.blowup.t_detect)
    assert 1 <= k < len(diag.t) - 1
    assert max(diag.grad_indicator[:k]) < solver.BLOWUP_GRADIENT_FACTOR / grid.dx
    assert diag.grad_indicator[k] >= solver.BLOWUP_GRADIENT_FACTOR / grid.dx
    assert diag.t[-1] == 2.0


def test_smooth_short_run_not_detected():
    grid = scenario_grid(1000)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    _, diag = evolve(u0, ZERO, 0.5)
    assert not diag.blowup.detected
    assert diag.blowup.t_detect is None
    assert diag.t[-1] == 0.5


def test_blowup_report_json(tmp_path):
    grid = scenario_grid(1600)
    _, diag = evolve(box(grid, 0.0, 1.0), ZERO, 1.0)
    path = tmp_path / "blowup.json"
    write_json(path, asdict(diag.blowup))  # as run_experiment writes it
    data = json.loads(path.read_text())
    assert set(data) == {"detected", "t_detect", "boundary_contact_t"}
    assert data["detected"] is True and data["t_detect"] == 0.0
    assert data["boundary_contact_t"] is None


# ------------------------------------------------------------- indicators


def test_gradient_indicator_box_is_half_per_dx():
    grid = scenario_grid(1600)
    u = box(grid, 0.0, 1.0)
    assert gradient_indicator(u) == pytest.approx(0.5 / grid.dx, rel=1e-13)


def test_gradient_indicator_scale_invariant():
    grid = scenario_grid(1600)
    u = GridFunction.from_callable(grid, bump_init)
    half = GridFunction(grid, 0.5 * u.values)
    assert gradient_indicator(half) == pytest.approx(gradient_indicator(u), rel=1e-13)


def test_gradient_indicator_constant_and_vacuum():
    grid = scenario_grid(100)
    assert gradient_indicator(GridFunction(grid, np.full(100, 0.3))) == 0.0
    with pytest.raises(ValueError):
        gradient_indicator(GridFunction(grid, np.zeros(100)))


def test_front_position_box_edge_and_translation():
    grid = scenario_grid(1600)
    a = front_position(box(grid, 0.0, 1.0), 0.5)
    b = front_position(box(grid, 2.0, 3.0), 0.5)
    assert abs(a - 1.0) <= grid.dx
    assert b - a == pytest.approx(2.0, abs=1e-12)


def test_front_position_level_never_attained():
    grid = scenario_grid(100)
    with pytest.raises(ValueError):
        front_position(GridFunction(grid, np.full(100, 0.2)), 0.5)


def test_front_position_exits_domain():
    grid = scenario_grid(400)
    u = box(grid, 9.0, 11.0, height=0.8)  # still above level at the last cell
    assert front_position(u, 0.5) == grid.x_right


# ------------------------------------------------------------ convergence


def _l1_error(coarse: GridFunction, fine: GridFunction) -> float:
    ratio = fine.grid.n_cells // coarse.grid.n_cells
    blocks = fine.values.reshape(coarse.grid.n_cells, ratio).mean(axis=1)
    return coarse.grid.dx * float(np.abs(coarse.values - blocks).sum())


def test_first_order_convergence():
    # gentle data, short time: the profile is still smooth at t = 0.5
    def gentle(x):
        return 0.1 * bump_init(x)

    def run(n):
        grid = scenario_grid(n)
        snaps, _ = evolve(GridFunction.from_callable(grid, gentle), ZERO, 0.5, (0.5,))
        return snaps[0.5]

    ref = run(4800)
    err = [_l1_error(run(n), ref) for n in (600, 1200)]
    ratio = err[0] / err[1]
    assert 1.6 <= ratio <= 2.4


@pytest.mark.parametrize("kernel", [ZERO, UNIFORM, INFINITE], ids=str)
def test_converges_to_the_exact_profile(kernel):
    """Before the bump breaks, the L1 error against its exact solution halves with dx."""
    errors = []
    for n in (1000, 2000, 4000):
        u0 = get_datum("bump").sample(n)
        snaps, _ = evolve(u0, kernel, 0.5, (0.5,))
        exact = exact_cell_averages(u0.grid, kernel, 0.5)
        errors.append(u0.grid.dx * float(np.abs(snaps[0.5].values - exact).sum()))
    assert errors[0] / errors[1] >= 1.8 and errors[1] / errors[2] >= 1.8, errors


def test_subinit_converges_to_the_exact_profile():
    """Subcritical data never break under the infinite kernel: the L1 error against
    the exact solution halves with dx at every snapshot up to t = 20."""
    times = (5.0, 10.0, 15.0, 20.0)
    errors = []
    for n in (2000, 4000, 8000):
        u0 = get_datum("subinit").sample(n)
        snaps, _ = evolve(u0, INFINITE, 20.0, times)
        assert tuple(snaps) == times
        exact = (exact_cell_averages(u0.grid, INFINITE, t, "subinit") for t in times)
        errors.append([u0.grid.dx * float(np.abs(snaps[t].values - ref).sum())
                       for t, ref in zip(times, exact)])
    for coarse, fine in zip(errors, errors[1:]):
        assert all(c / f >= 1.8 for c, f in zip(coarse, fine)), errors


def test_entropy_oracle_is_the_exact_profile_before_breaking():
    grid = get_datum("bump").sample(2000).grid
    gap = entropy_cell_averages(grid, 0.5) - exact_cell_averages(grid, ZERO, 0.5)
    assert float(np.abs(gap).max()) <= 1e-8


@pytest.mark.parametrize("kernel", [ZERO, UNIFORM], ids=str)
def test_converges_to_the_entropy_solution_after_breaking(kernel):
    """At T = 2 the bump has broken (T* = 0.626 under zero, 0.976 under uniform) and
    carries a shock; the L1 error against the Hopf-Lax entropy solution still falls
    with dx.  Under uniform that solution is zero's at the time exp(-m) T."""
    errors = []
    for n in (1000, 2000, 4000):
        u0 = get_datum("bump").sample(n)
        snaps, _ = evolve(u0, kernel, 2.0, (2.0,))
        T = 2.0 * math.exp(-total_mass(u0)) if kernel == UNIFORM else 2.0
        exact = entropy_cell_averages(u0.grid, T)
        errors.append(u0.grid.dx * float(np.abs(snaps[2.0].values - exact).sum()))
    assert errors[0] / errors[1] >= 1.6 and errors[1] / errors[2] >= 1.6, errors
    assert errors[2] <= 2.5e-3, errors


def test_uniform_kernel_is_time_rescaled_lwr():
    # constant factor exp(-m) only rescales dt, so the discrete states match
    grid = scenario_grid(800)
    u0 = GridFunction.from_callable(grid, bump_init)
    m = total_mass(u0)
    t_fast = math.exp(-m)
    snap_u, diag_u = evolve(u0, UNIFORM, 1.0, (1.0,))
    snap_z, _ = evolve(u0, ZERO, t_fast, (t_fast,))
    diff = snap_u[1.0].values - snap_z[t_fast].values
    assert float(np.abs(diff).max()) <= 1e-10
    assert diag_u.max_mass_drift <= 1e-12 * grid.n_cells


def test_short_lookahead_reduces_to_lwr():
    grid = scenario_grid(600)
    u0 = GridFunction.from_callable(grid, bump_init)
    length = 1e-3
    out = {}
    for kernel in (ZERO, Kernel("box", length)):
        snaps, _ = evolve(u0, kernel, 1.0, (1.0,))
        out[str(kernel)] = snaps[1.0].values
    l1 = grid.dx * float(np.abs(out["zero"] - out["sk:L=0.001"]).sum())
    assert l1 <= 10.0 * length


def test_box_spanning_the_domain_is_the_infinite_kernel():
    """On [-6, 10] every window end of sk:L=16 lies past the data, so the run is
    infinite's bit for bit, though it steps from the left edge on; sk:L=1 is sk."""
    assert parse_kernel("sk:L=1") == SK_UNIT
    u0 = GridFunction.from_callable(scenario_grid(4000), bump_init)
    times = (0.5, 1.0, 1.5, 2.0)
    (snaps, diag), (ref_snaps, ref_diag) = (
        evolve(u0, parse_kernel(spelling), 2.0, times)
        for spelling in ("sk:L=16", "infinite")
    )
    assert list(snaps) == list(ref_snaps) == list(times)
    for t in times:
        assert snaps[t].values.tobytes() == ref_snaps[t].values.tobytes()
    for name in Diagnostics.COLUMNS:
        assert getattr(diag, name) == getattr(ref_diag, name), name
    assert diag.max_mass_drift == ref_diag.max_mass_drift
    assert diag.blowup == ref_diag.blowup
    assert diag.blowup.t_detect == pytest.approx(1.2392, abs=1e-4)


# ------------------------------------------------------------- validation


def test_config_validation():
    u0 = GridFunction.from_callable(scenario_grid(100), bump_init)
    with pytest.raises(ValueError):
        require_runnable(u0, ZERO, -1.0)
    require_runnable(u0, ZERO, 1.0, (0.5, 0.2))  # snapshot times may come in any order
    with pytest.raises(ValueError):
        require_runnable(u0, ZERO, 1.0, (2.0,))
    with pytest.raises(ValueError, match="snapshot"):  # past t_end, however near
        require_runnable(u0, ZERO, 1.0, (math.nextafter(1.0, math.inf),))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            require_runnable(u0, ZERO, bad)
        with pytest.raises(ValueError, match="snapshot"):
            require_runnable(u0, ZERO, 1.0, (0.0, bad))


def test_evolve_rejects_bad_initial_data():
    grid = scenario_grid(100)
    with pytest.raises(ValueError):
        evolve(GridFunction(grid, np.full(100, 1.5)), ZERO, 1.0)


@pytest.mark.parametrize("spec", ["sk", "sk:L=2.5", "linear", "infinite", "uniform"])
def test_lookahead_kernels_reject_right_tail(spec):
    """Every kernel that looks ahead refuses data at the right edge; zero does not
    (test_jam_fixed_point runs it there)."""
    grid = scenario_grid(400)
    u = GridFunction(grid, np.full(400, 0.5))
    with pytest.raises(ValueError, match="x_right.*tail mass"):
        evolve(u, parse_kernel(spec), 1.0)


# ------------------------------------------------------------ diagnostics


def test_snapshots_cover_requested_times():
    grid = scenario_grid(500)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    times = (0.0, 0.1, 0.2, 0.3)
    snaps, diag = evolve(u0, ZERO, 0.3, times)
    assert tuple(snaps) == times
    assert set(times) <= set(diag.t)  # a step ends on each time
    np.testing.assert_array_equal(snaps[0.0].values, u0.values)


def test_snapshot_times_in_any_order():
    """Times given in reverse return the map the sorted times return, the reference's bit for bit."""
    u0 = GridFunction.from_callable(scenario_grid(400), bump_init)
    times = (0.0, 0.35, 0.7, 1.05, 1.4)
    ref, _ = reference_evolve(u0, SK_UNIT, 1.4, times)
    for order in (times, times[::-1]):
        snaps, _ = evolve(u0, SK_UNIT, 1.4, order)
        ref_snaps, _ = reference_evolve(u0, SK_UNIT, 1.4, order)
        assert snaps.keys() == ref_snaps.keys() == set(times)
        for t in times:
            assert snaps[t].values.tobytes() == ref_snaps[t].tobytes() == ref[t].tobytes()


@pytest.mark.parametrize("offset", [0.0, -1e-13, 1e-13], ids=["at", "before", "after"])
def test_snapshot_near_a_step_takes_that_step(offset):
    """A time at a step's t, or 1e-13 either side of it, ends a step and gets the state
    at that time: a state of its own, not its neighbour's."""
    u0 = GridFunction.from_callable(scenario_grid(400), bump_init)
    _, diag = reference_evolve(u0, ZERO, 1.0)
    k = len(diag.t) // 2
    steps = tuple(diag.t[k - 1 : k + 2])
    tgt = steps[1] + offset
    snaps, diag = evolve(u0, ZERO, 1.0, (tgt, *steps))
    ref, _ = reference_evolve(u0, ZERO, 1.0, (tgt, *steps))
    assert {tgt, *steps} <= set(diag.t)
    for t in (tgt, *steps):
        assert snaps[t].values.tobytes() == ref[t].tobytes()
    states = {snaps[t].values.tobytes() for t in steps}
    assert len(states) == 3
    assert (snaps[tgt].values.tobytes() in states) == (offset == 0.0)


@pytest.mark.parametrize("kernel", COMPARE_KERNELS, ids=lambda k: k.tag)
def test_snapshot_is_the_end_of_a_run_to_its_time(kernel):
    """snaps[t] is, bit for bit, the final state of the same run with t_end = t."""
    u0 = GridFunction.from_callable(scenario_grid(400), bump_init)
    times = (0.0, 0.35, 0.7, 1.05, 1.4)
    snaps, diag = evolve(u0, kernel, 1.4, times)
    for t in times[1:]:
        part, short = evolve(u0, kernel, t, [s for s in times if s <= t])
        assert part[t].values.tobytes() == snaps[t].values.tobytes()
        assert short.t[-1] == t
        rows = len(short.t)
        for name in Diagnostics.COLUMNS:
            assert getattr(short, name) == getattr(diag, name)[:rows], name


@pytest.mark.parametrize("kernel", COMPARE_KERNELS, ids=lambda k: k.tag)
def test_steps_between_two_stops_are_equal(kernel):
    """The bump keeps vacuum ahead, so the wave speed stays the factor there: each
    stretch between two stops is the fewest CFL steps, all equal to roundoff."""
    grid = scenario_grid(400)
    u0 = GridFunction.from_callable(grid, bump_init)
    stops = (0.0, 0.3, 0.35, 1.4)
    _, diag = evolve(u0, kernel, 1.4, stops[1:-1])
    (speed,) = set(diag.max_speed[1:])
    cfl_step = solver.CFL * grid.dx / speed
    t, dt = np.array(diag.t), np.array(diag.dt)
    for a, b in zip(stops, stops[1:]):
        stretch = dt[(a < t) & (t <= b)]
        assert len(stretch) == math.ceil((b - a) / cfl_step)
        assert stretch.max() / stretch.min() - 1.0 < 1e-13
        assert stretch.max() <= cfl_step


def test_step_ratio_underflow_takes_one_step():
    """dt_max / (CFL dx / speed) underflows to 0 on a huge cell: one step of dt_max."""
    u0 = GridFunction(GridSpec(-1e20, 1e20, 4), [0.5] * 4)
    snaps, diag = evolve(u0, ZERO, 5e-324, (5e-324,))
    assert list(diag.t) == [0.0, 5e-324]
    np.testing.assert_array_equal(snaps[5e-324].values, 0.5)


@pytest.mark.parametrize("kernel", [ZERO, SK_UNIT, UNIFORM], ids=lambda k: k.tag)
def test_run_ends_at_t_end_exactly(kernel):
    """The last diagnostics row is at t_end exactly, also 5e-13 past a step the run takes."""
    u0 = GridFunction.from_callable(scenario_grid(400), bump_init)
    _, full = reference_evolve(u0, kernel, 1.0)
    for t_end in (1.0, full.t[len(full.t) // 2] + 5e-13):
        _, diag = evolve(u0, kernel, t_end, (t_end,))
        _, ref = reference_evolve(u0, kernel, t_end, (t_end,))
        assert diag.t[-1] == t_end
        for name in Diagnostics.COLUMNS:
            assert getattr(diag, name) == getattr(ref, name), name


def test_diagnostics_csv_layout(tmp_path):
    grid = scenario_grid(300)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    _, diag = evolve(u0, ZERO, 0.1, (0.03, 0.05))  # stops between CFL steps
    path = tmp_path / "diag.csv"
    diag.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "t,mass,min_u,max_u,grad_indicator,factor_min,factor_max,dt,max_speed"
    )
    assert len(lines) == 1 + len(diag.t)
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows[0][-2:] == [0.0, 0.0]
    # each row carries the step that produced it: t advances by its dt
    for prev, row in zip(rows, rows[1:]):
        assert row[0] == prev[0] + row[7]
        assert row[7] <= solver.CFL * grid.dx / row[8] * (1 + 1e-15)
    assert rows[1][8] == diag.max_speed[1] > 0


def test_diagnostics_columns_are_float64_arrays():
    """One row per state, held as packed doubles rather than float objects."""
    steps = []
    advance = solver._advance

    def counting(*args):
        steps.append(None)
        return advance(*args)

    u0 = GridFunction.from_callable(scenario_grid(400), bump_init)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_advance", counting)
        _, diag = evolve(u0, SK_UNIT, 2.0)
    assert len(steps) >= 2.0 / (solver.CFL * u0.grid.dx)  # no step exceeds CFL dx
    for name in Diagnostics.COLUMNS:
        column = getattr(diag, name)
        assert isinstance(column, array) and column.typecode == "d", name
        assert len(column) == len(steps) + 1, name

    rows = 2000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diag = Diagnostics()
        for k in range(rows):
            diag.add_row(*[k + 0.125 * j for j in range(len(Diagnostics.COLUMNS))])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 12 * rows * len(Diagnostics.COLUMNS)


def test_diagnostics_csv_values_full_precision(tmp_path):
    diag = Diagnostics()
    diag.add_row(0.1, 1 / 3, -0.0, 1.0, 2.5e-300, math.pi, 1e17, 0.0, 0.0)
    path = tmp_path / "diag.csv"
    diag.write_csv(path)
    row = path.read_text().split("\n")[1]
    assert row == ",".join(
        "%.17g" % v for v in (0.1, 1 / 3, -0.0, 1.0, 2.5e-300, math.pi, 1e17, 0.0, 0.0)
    )

