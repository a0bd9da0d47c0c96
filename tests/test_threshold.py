import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltraffic.cli import main
from nltraffic.grid import GridFunction, GridSpec
from nltraffic.threshold import (
    SUBCRITICAL,
    STRICTNESS_TAU,
    SUPERCRITICAL,
    classify_initial_data,
    default_curve,
    gradient,
    write_threshold_csv,
)
from oracles import SEED_X, boost_bound, build_table, threshold_residual


def closed_form(u):
    return u * (1.0 - u)


def test_residual_hand_value():
    """candidate(u) = u at u = 0.5: residual |1 - N/D| with N = 0.3125,
    D = -0.125, so exactly 3.5."""
    r = threshold_residual(lambda u: u, 0.5, derivative=lambda u: 1.0)
    assert r == pytest.approx(3.5, abs=1e-12)


def test_residual_vanishes_on_closed_form():
    us = np.linspace(0.02, 0.98, 49)
    for u in us:
        r = threshold_residual(closed_form, float(u), derivative=lambda v: 1.0 - 2 * v)
        assert abs(r) < 1e-12


def test_residual_with_default_fd_derivative():
    r = threshold_residual(closed_form, 0.37)
    assert abs(r) < 1e-7


def test_table_matches_closed_form():
    xs, sig = build_table(10001, SEED_X)
    mask = (xs >= 0.01) & (xs <= 0.99)
    assert np.max(np.abs(sig[mask] - closed_form(xs[mask]))) < 1e-6


def test_endpoints_and_initial_slope():
    curve = default_curve()
    assert curve.eval(0.0) == 0.0
    assert curve.eval(1.0) == 0.0
    h = 1e-4
    fwd = (curve.eval(h) - curve.eval(0.0)) / h
    assert abs(fwd - 1.0) < 2e-4


def test_eval_midpoint(curve):
    assert curve.eval(0.5) == pytest.approx(0.25, abs=1e-9)
    assert default_curve().eval(0.5) == pytest.approx(0.25, abs=1e-9)


def test_eval_rejects_out_of_range(curve):
    for u in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError):
            curve.eval(u)
    # roundoff excursions are clipped, not rejected
    assert curve.eval(1.0 + 1e-13) == 0.0


def test_eval_vectorized(curve):
    us = np.linspace(0.0, 1.0, 101)
    sig = np.array([curve.eval(u) for u in us])
    assert sig.shape == us.shape
    np.testing.assert_allclose(sig, closed_form(us), atol=1e-9)


def test_sigma_below_diagonal(curve):
    us = np.linspace(0.0, 1.0, 201)
    assert all(curve.eval(u) <= u + 1e-12 for u in us)


def test_sample_three_nodes(curve, tmp_path):
    path = tmp_path / "curve.csv"
    write_threshold_csv(curve, path, n_samples=3)
    assert path.read_bytes() == b"u,sigma\n0,0\n0.5,0.25\n1,0\n"
    with pytest.raises(ValueError):
        write_threshold_csv(curve, path, n_samples=1)


def test_boost_bound(curve):
    # largest u with sigma(u) >= 0.75 u; for u(1-u) that is exactly 0.25
    assert curve.u_boost == 0.25
    assert boost_bound(*build_table()) == pytest.approx(0.25, abs=1e-6)


def ramp_data(slope, center=0.5, width=0.2, n=2000):
    """tanh ramp with max upslope `slope` at u = center; u stays in
    (center - width, center + width), clear of the vacuum where any
    positive slope is supercritical."""
    grid = GridSpec(-10.0, 10.0, n)
    return GridFunction.from_callable(grid, lambda x: center + width * math.tanh(slope * x / width))


def test_classify_supercritical():
    u0 = ramp_data(slope=0.6)
    res = classify_initial_data(u0)
    assert res.verdict == SUPERCRITICAL
    # margin = 0.6 - sigma(0.5) at the apex
    assert res.margin == pytest.approx(0.35, abs=0.01)
    assert abs(res.u0_at_x0 - 0.5) < 0.02
    assert res.d0_at_x0 == pytest.approx(0.6, abs=0.01)


def test_classify_subcritical():
    # max slope 0.05 < min sigma = sigma(0.3) = 0.21 on the value range
    u0 = ramp_data(slope=0.05)
    res = classify_initial_data(u0)
    assert res.verdict == SUBCRITICAL
    assert res.margin > 0.1  # distance below the curve, clear of the dead band


def spike_data(offset, n=100):
    """Flat u = 0.5 with one antisymmetric spike so the discrete central
    difference at the middle cell is exactly sigma(0.5) + offset."""
    grid = GridSpec(0.0, 1.0, n)
    h = grid.dx * (0.25 + offset)
    values = np.full(n, 0.5)
    values[n // 2 - 1] -= h
    values[n // 2 + 1] += h
    return GridFunction(grid, values)


def test_classify_borderline_flag():
    res = classify_initial_data(spike_data(5e-11))
    assert res.verdict == SUBCRITICAL
    assert -STRICTNESS_TAU <= res.margin < 0.0  # in the dead band, above the curve
    res = classify_initial_data(spike_data(2e-10))
    assert res.verdict == SUPERCRITICAL


@pytest.mark.parametrize("domain", [(-6.0, 10.0), (-200.0, 40.0), (0.0, 1e-3)])
@pytest.mark.parametrize("n", [4, 5, 17, 4000, 64000])
def test_gradient_is_numpys_bit_for_bit(domain, n):
    grid = GridSpec(*domain, n)
    values = np.random.default_rng(n).uniform(0.0, 1.0, n)
    expected = np.gradient(values, grid.dx, edge_order=2)
    np.testing.assert_array_equal(gradient(values.tolist(), grid.dx), expected)


def test_classify_rejects_bad_density():
    grid = GridSpec(0.0, 1.0, 100)
    with pytest.raises(ValueError, match=r"densities in \[0, 1\], got u = 1.2$"):
        classify_initial_data(GridFunction(grid, np.full(100, 1.2)))
    # a non-density fails as one before its jumps are looked at
    values = np.zeros(100)
    values[50:] = 1.2
    with pytest.raises(ValueError, match="got u = 1.2"):
        classify_initial_data(GridFunction(grid, values))


def test_classify_rejects_jumps():
    grid = GridSpec(0.0, 1.0, 100)
    values = np.zeros(100)
    values[50:] = 0.9
    with pytest.raises(ValueError):
        classify_initial_data(GridFunction(grid, values))


def test_classification_json_keys(tmp_path, capsys):
    assert main(["classify", "--datum", "bump", "--n-cells", "400", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "classify-bump" / "classification.json").read_text())
    assert set(data) == {"verdict", "x0", "u0_at_x0", "d0_at_x0", "margin"}
    assert data["verdict"] == SUPERCRITICAL


def test_threshold_csv_format(curve, tmp_path):
    path = tmp_path / "sigma.csv"
    write_threshold_csv(curve, path, n_samples=11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,sigma"
    assert lines[1] == "0,0"
    assert len(lines) == 12
    u, s = map(float, lines[6].split(","))
    assert u == 0.5 and s == pytest.approx(0.25, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.02, 0.98))
def test_curve_residual_property(u):
    curve = default_curve()
    r = threshold_residual(lambda v: curve.eval(v), u)
    assert abs(r) < 1e-6
