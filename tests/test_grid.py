import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from nltraffic.grid import (
    GridFunction,
    GridSpec,
    format_float,
    require_density,
    spatial_derivative,
    total_mass,
    write_profile_csv,
)
from nltraffic.scenarios import bump_init


def read_profile_csv(path) -> GridFunction:
    """Rebuild a GridFunction from a profile CSV (uniform spacing required)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x, v = data[:, 0], data[:, 1]
    if len(x) < 4:
        raise ValueError("profile too short")
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-12, atol=1e-12 * abs(dx)):
        raise ValueError("non-uniform grid in profile CSV")
    grid = GridSpec(float(x[0] - dx / 2), float(x[-1] + dx / 2), len(x))
    return GridFunction(grid, v)


def test_grid_spec_basics():
    grid = GridSpec(-1.0, 3.0, 8)
    assert grid.dx == 0.5
    assert grid.centers[0] == -0.75
    assert grid.centers[-1] == 2.75
    assert len(grid.centers) == 8


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 3)


@pytest.mark.parametrize(
    "ends, name",
    [
        ((0.0, math.inf), "x_right"),
        ((-math.inf, 0.0), "x_left"),
        ((math.nan, 1.0), "x_left"),
        ((0.0, math.nan), "x_right"),
        ((-1e308, 1e308), "x_left, x_right"),  # the width overflows
        ((0.0, 5e-324), "x_left, x_right"),  # the cell width underflows to 0
    ],
)
def test_grid_spec_rejects_non_finite_ends(ends, name):
    with pytest.raises(ValueError, match=name):
        GridSpec(*ends, 100)


def test_grid_function_shape_mismatch():
    grid = GridSpec(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(11))
    with pytest.raises(ValueError):
        GridFunction(grid, np.array([np.nan] * 10))


def test_grid_function_values_read_only():
    grid = GridSpec(0.0, 1.0, 10)
    gf = GridFunction(grid, np.zeros(10))
    with pytest.raises(ValueError):
        gf.values[0] = 1.0


def test_total_mass_against_quadrature():
    # midpoint rule on smooth compact data; oracle is adaptive quadrature
    grid = GridSpec(-6.0, 10.0, 4000)
    gf = GridFunction.from_callable(grid, bump_init)
    ref, err = quad(lambda x: bump_init(np.array([x]))[0], -1.0, 1.0, limit=200)
    assert err < 1e-8
    assert abs(total_mass(gf) - ref) < 1e-6


def test_total_mass_midpoint_convergence():
    ref, _ = quad(lambda x: bump_init(np.array([x]))[0], -1.0, 1.0, limit=200)
    errs = []
    for n in (1000, 2000):
        gf = GridFunction.from_callable(GridSpec(-6.0, 10.0, n), bump_init)
        errs.append(abs(total_mass(gf) - ref))
    assert errs[1] < errs[0] / 3.0  # second order: ratio ~ 4


def test_spatial_derivative_second_order():
    errs = []
    for n in (200, 400):
        grid = GridSpec(0.0, 2 * np.pi, n)
        gf = GridFunction(grid, np.sin(grid.centers))
        err = np.max(np.abs(spatial_derivative(gf).values - np.cos(grid.centers)))
        errs.append(err)
    assert errs[1] < errs[0] / 3.0


def test_require_density_bounds():
    grid = GridSpec(0.0, 1.0, 10)
    require_density(GridFunction(grid, np.full(10, 0.5)))
    with pytest.raises(ValueError):
        require_density(GridFunction(grid, np.full(10, 1.5)))
    with pytest.raises(ValueError):
        require_density(GridFunction(grid, np.full(10, -0.5)))


def test_profile_csv_round_trip(tmp_path):
    grid = GridSpec(-2.0, 5.0, 321)
    rng = np.random.default_rng(7)
    gf = GridFunction(grid, rng.uniform(0.0, 1.0, 321))
    path = tmp_path / "profile.csv"
    write_profile_csv(gf, path)
    assert path.read_text().split("\n", 1)[0] == "x,u"
    back = read_profile_csv(path)
    # cell edges are reconstructed from the centers, so only near-bitwise
    assert back.grid.n_cells == grid.n_cells
    assert abs(back.grid.x_left - grid.x_left) < 1e-12
    assert abs(back.grid.x_right - grid.x_right) < 1e-12
    np.testing.assert_array_equal(back.values, gf.values)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(v):
    assert float(format_float(v)) == v
