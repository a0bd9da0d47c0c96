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
    spatial_derivative,
    total_mass,
    write_json,
)
from nltraffic.kernels import (
    INFINITE, LINEAR, SK_UNIT, UNIFORM, ZERO, nonlocal_field, parse_kernel, sk_scaled,
)
from nltraffic.scenarios import COMPARE_KERNELS, bump_init, get_datum
from nltraffic.solver import (
    Diagnostics,
    SolverConfig,
    SolverFailure,
    _advance,
    _buffers,
    _stepped_cells,
    evolve,
    gradient_indicator,
    numerical_flux,
)
from oracles import front_position, godunov_flux, random_compact_bump, reference_evolve

DOMAIN = (-6.0, 10.0)


def scenario_grid(n):
    return GridSpec(DOMAIN[0], DOMAIN[1], n)


def box(grid, lo, hi, height=1.0):
    x = grid.centers
    return GridFunction(grid, np.where((x > lo) & (x < hi), height, 0.0))


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
    config = SolverConfig(
        kernel=kernel, t_end=2.0, stop_on_blowup=False,
        snapshot_times=tuple(np.linspace(0.0, 2.0, 41)),
    )
    ref_snaps, ref_diag = reference_evolve(u0, config)
    t = np.array(ref_diag.t)
    # snapshot times fall both nearer the step before and nearer the step after
    inner = np.array(config.snapshot_times[1:-1])
    k = np.searchsorted(t, inner)
    nearer_prev = np.abs(t[k - 1] - inner) < np.abs(t[k] - inner)
    assert nearer_prev.any() and not nearer_prev.all()
    runs = [evolve(u0, config), evolve(u0, config)]
    for snaps, diag in runs:
        assert [s for s, _ in snaps] == [s for s, _ in ref_snaps]
        for (_, snap), (_, ref) in zip(snaps, ref_snaps):
            np.testing.assert_array_equal(snap.values, ref)
        for name in Diagnostics.COLUMNS:
            assert getattr(diag, name) == getattr(ref_diag, name), name
        assert diag.max_mass_drift == ref_diag.max_mass_drift
    assert runs[0][1].blowup == runs[1][1].blowup
    np.testing.assert_array_equal(u0.values, before)


def test_step_allocates_no_grid_sized_array():
    n = 4000
    grid = scenario_grid(n)
    config = SolverConfig(kernel=ZERO, t_end=1.0)
    pad, new, work = _buffers(n)
    pad[1:-1] = GridFunction.from_callable(grid, bump_init).values
    # the whole grid, and the strict sub-range that evolve() steps for the bump
    part = _stepped_cells(pad[1:-1], ZERO, grid.dx)
    assert 0 < part.start and part.stop < n
    for cells in (slice(0, n), part):
        factor = np.ones(cells.stop - cells.start)
        _advance(pad, new, factor, cells, 0.0, grid.dx, config, work)
        tracemalloc.start()
        try:
            _advance(pad, new, factor, cells, 0.0, grid.dx, config, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n  # fewer bytes than one boolean per cell


RANGE_KERNELS = (ZERO, SK_UNIT, sk_scaled(0.3), sk_scaled(2.5), LINEAR, INFINITE, UNIFORM)
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
        config = SolverConfig(kernel=kernel, t_end=3.0, stop_on_blowup=False)
        _, diag = evolve(u0, config)
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
    config = SolverConfig(kernel=ZERO, t_end=1.0, stop_on_blowup=False)
    with pytest.raises(SolverFailure, match="^non-finite state during update$") as info:
        evolve(GridFunction.from_callable(grid, bump_init), config)
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
@pytest.mark.parametrize("kernel", [*COMPARE_KERNELS, LINEAR, sk_scaled(2.5)], ids=str)
@given(n=st.integers(min_value=100, max_value=300), t_end=st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=5, deadline=None)
def test_step_count_within_the_budget_bound(datum, kernel, n, t_end):
    """No wave speed exceeds 1 + 3e-8: at most ceil(t_end (1 + 3e-8) / (CFL dx)) steps."""
    u0 = get_datum(datum).sample(n)
    _, diag = evolve(u0, SolverConfig(kernel=kernel, t_end=t_end, stop_on_blowup=False))
    assert len(diag.t) - 1 <= math.ceil(t_end * (1.0 + 3e-8) / (solver.CFL * u0.grid.dx))


def test_vacuum_fixed_point_and_cfl_step():
    grid = scenario_grid(200)
    config = SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(1.0,))
    snaps, diag = evolve(GridFunction(grid, np.zeros(200)), config)
    np.testing.assert_array_equal(dict(snaps)[1.0].values, 0.0)
    # vacuum wave speed is |1 - 0| * 1, so dt is exactly CFL * dx
    assert diag.t[1] == pytest.approx(0.45 * grid.dx, rel=1e-14)


def test_jam_fixed_point():
    grid = scenario_grid(200)
    config = SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(1.0,))
    snaps, diag = evolve(GridFunction(grid, np.ones(200)), config)
    assert len(diag.t) > 2
    np.testing.assert_array_equal(dict(snaps)[1.0].values, 1.0)


def test_gradient_indicator_matches_spatial_derivative():
    grid = scenario_grid(500)
    rng = np.random.default_rng(2)
    u = GridFunction(grid, rng.uniform(0.0, 1.0, 500))
    slope = float(np.max(np.abs(spatial_derivative(u).values)))
    assert gradient_indicator(u) == slope / float(u.values.max())


def test_stepwise_mass_conservation():
    grid = scenario_grid(400)
    u = GridFunction.from_callable(grid, random_compact_bump(7))
    config = SolverConfig(
        kernel=ZERO, t_end=1.5, snapshot_times=(1.5,), stop_on_blowup=False
    )
    snaps, diag = evolve(u, config)
    assert len(diag.mass) > 60
    assert diag.mass[0] == total_mass(u)
    assert max(np.abs(np.diff(diag.mass))) <= 1e-12 * grid.n_cells
    # support must not have reached the outflow boundaries
    final = dict(snaps)[1.5].values
    assert final[:5].max() == 0.0
    assert final[-5:].max() == 0.0


def test_max_principle_through_shock():
    grid = scenario_grid(800)
    u0 = GridFunction.from_callable(grid, random_compact_bump(3))
    config = SolverConfig(kernel=ZERO, t_end=2.0, stop_on_blowup=False)
    _, diag = evolve(u0, config)
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
    config = SolverConfig(kernel=INFINITE, t_end=1.0, stop_on_blowup=False)
    _, diag = evolve(u0, config)
    return diag, total_mass(u0)


def test_infinite_kernel_factor_monotone():
    grid = scenario_grid(600)
    u0 = GridFunction.from_callable(grid, bump_init)
    config = SolverConfig(
        kernel=INFINITE, t_end=0.5, snapshot_times=(0.5,),
        stop_on_blowup=False,
    )
    snaps, _ = evolve(u0, config)
    factor = np.exp(-nonlocal_field(dict(snaps)[0.5], INFINITE))
    assert np.all(np.diff(factor) >= -1e-14)


# ------------------------------------------------------- breakdown detection


def test_box_detected_immediately():
    grid = scenario_grid(1600)
    config = SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(0.0,))
    snaps, diag = evolve(box(grid, 0.0, 1.0), config)
    report = diag.blowup
    assert report.detected
    assert report.t_detect == 0.0
    assert len(diag.t) == 1  # stop_on_blowup halts before the first step
    assert snaps[0][0] == 0.0


def test_box_run_past_detection():
    grid = scenario_grid(1600)
    config = SolverConfig(
        kernel=ZERO, t_end=0.5, stop_on_blowup=False,
    )
    _, diag = evolve(box(grid, 0.0, 1.0), config)
    assert diag.t[-1] == pytest.approx(0.5, abs=1e-12)
    assert diag.blowup.t_detect == 0.0
    # a unit jump over one cell is the sharpest profile the grid can hold
    assert diag.blowup.max_gradient == pytest.approx(0.5 / grid.dx, rel=1e-12)


@pytest.mark.parametrize(
    "kernel, t_detect", zip(COMPARE_KERNELS, (0.585, 0.729, 1.0665, 0.912)),
    ids=[k.tag for k in COMPARE_KERNELS],
)
def test_stopping_at_detection_truncates_the_full_run(kernel, t_detect):
    """stop_on_blowup only cuts the run: every row up to t_detect is the full run's."""
    grid = scenario_grid(1600)
    u0 = GridFunction.from_callable(grid, bump_init)
    stopped, full = (
        evolve(u0, SolverConfig(kernel=kernel, t_end=2.0, stop_on_blowup=stop))[1]
        for stop in (True, False)
    )
    k = len(stopped.t)
    assert 1 < k < len(full.t)
    for name in Diagnostics.COLUMNS:
        assert getattr(stopped, name) == getattr(full, name)[:k], name
    assert stopped.t[-1] == stopped.blowup.t_detect == full.blowup.t_detect
    assert stopped.blowup.t_detect == pytest.approx(t_detect, abs=1e-3)
    assert stopped.blowup.detected and full.blowup.detected


def test_smooth_short_run_not_detected():
    grid = scenario_grid(1000)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    config = SolverConfig(kernel=ZERO, t_end=0.5)
    _, diag = evolve(u0, config)
    assert not diag.blowup.detected
    assert diag.blowup.t_detect is None
    assert diag.t[-1] == pytest.approx(0.5, abs=1e-12)


def test_blowup_report_json(tmp_path):
    grid = scenario_grid(1600)
    config = SolverConfig(kernel=ZERO, t_end=1.0)
    _, diag = evolve(box(grid, 0.0, 1.0), config)
    path = tmp_path / "blowup.json"
    write_json(path, asdict(diag.blowup))  # as run_experiment writes it
    data = json.loads(path.read_text())
    assert set(data) == {"detected", "t_detect", "max_gradient", "boundary_contact_t"}
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
        config = SolverConfig(
            kernel=ZERO, t_end=0.5, snapshot_times=(0.5,),
        )
        snaps, _ = evolve(GridFunction.from_callable(grid, gentle), config)
        return dict(snaps)[0.5]

    ref = run(4800)
    err = [_l1_error(run(n), ref) for n in (600, 1200)]
    ratio = err[0] / err[1]
    assert 1.6 <= ratio <= 2.4


def test_uniform_kernel_is_time_rescaled_lwr():
    # constant factor exp(-m) only rescales dt, so the discrete states match
    grid = scenario_grid(800)
    u0 = GridFunction.from_callable(grid, bump_init)
    m = total_mass(u0)
    t_fast = math.exp(-m)
    uni = SolverConfig(
        kernel=UNIFORM, t_end=1.0, snapshot_times=(1.0,),
        stop_on_blowup=False,
    )
    zero = SolverConfig(
        kernel=ZERO, t_end=t_fast, snapshot_times=(t_fast,),
        stop_on_blowup=False,
    )
    snap_u, diag_u = evolve(u0, uni)
    snap_z, _ = evolve(u0, zero)
    diff = dict(snap_u)[1.0].values - dict(snap_z)[t_fast].values
    assert float(np.abs(diff).max()) <= 1e-10
    assert diag_u.max_mass_drift <= 1e-12 * grid.n_cells


def test_short_lookahead_reduces_to_lwr():
    grid = scenario_grid(600)
    u0 = GridFunction.from_callable(grid, bump_init)
    length = 1e-3
    out = {}
    for kernel in (ZERO, sk_scaled(length)):
        config = SolverConfig(
            kernel=kernel, t_end=1.0, snapshot_times=(1.0,),
            stop_on_blowup=False,
        )
        snaps, _ = evolve(u0, config)
        out[kernel.kind] = dict(snaps)[1.0].values
    l1 = grid.dx * float(np.abs(out["zero"] - out["sk_scaled"]).sum())
    assert l1 <= 10.0 * length


# ------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(kernel=ZERO, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(0.5, 0.2))
    with pytest.raises(ValueError):
        SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(2.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            SolverConfig(kernel=ZERO, t_end=bad)
        with pytest.raises(ValueError, match="snapshot"):
            SolverConfig(kernel=ZERO, t_end=1.0, snapshot_times=(0.0, bad))


def test_evolve_rejects_bad_initial_data():
    grid = scenario_grid(100)
    config = SolverConfig(kernel=ZERO, t_end=1.0)
    with pytest.raises(ValueError):
        evolve(GridFunction(grid, np.full(100, 1.5)), config)


@pytest.mark.parametrize("spec", ["sk", "sk:L=2.5", "linear", "infinite", "uniform"])
def test_lookahead_kernels_reject_right_tail(spec):
    """Every kernel that looks ahead refuses data at the right edge; zero does not
    (test_jam_fixed_point runs it there)."""
    grid = scenario_grid(400)
    u = GridFunction(grid, np.full(400, 0.5))
    config = SolverConfig(kernel=parse_kernel(spec), t_end=1.0)
    with pytest.raises(ValueError, match="x_right.*tail mass"):
        evolve(u, config)


# ------------------------------------------------------------ diagnostics


def test_snapshots_cover_requested_times():
    grid = scenario_grid(500)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    times = (0.0, 0.1, 0.2, 0.3)
    config = SolverConfig(kernel=ZERO, t_end=0.3, snapshot_times=times)
    snaps, _ = evolve(u0, config)
    assert tuple(t for t, _ in snaps) == times
    np.testing.assert_array_equal(snaps[0][1].values, u0.values)


def test_diagnostics_csv_layout(tmp_path):
    grid = scenario_grid(300)
    u0 = GridFunction.from_callable(grid, lambda x: 0.1 * bump_init(x))
    config = SolverConfig(kernel=ZERO, t_end=0.1, stop_on_blowup=False)
    _, diag = evolve(u0, config)
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
        assert row[7] <= 0.45 * grid.dx / row[8] * (1 + 1e-15)
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
        _, diag = evolve(u0, SolverConfig(kernel=SK_UNIT, t_end=2.0, stop_on_blowup=False))
    assert len(steps) > 100
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

