import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltraffic.grid import GridFunction, GridSpec, total_mass
from nltraffic.kernels import (
    INFINITE,
    LINEAR,
    SK_UNIT,
    UNIFORM,
    ZERO,
    Kernel,
    lookahead_average,
    nonlocal_field,
    parse_kernel,
)
from nltraffic.scenarios import CATALOG

ALL_KERNELS = (ZERO, SK_UNIT, INFINITE, UNIFORM, LINEAR)


def box_on(grid, lo=0.0, hi=1.0):
    return GridFunction.from_callable(grid, lambda x: 1.0 if lo < x < hi else 0.0)


@pytest.fixture
def fine_grid():
    # dx = 0.005, box edges fall on cell edges
    return GridSpec(-3.0, 4.0, 1400)


def ubar_at(gf, kernel, x0):
    ubar = nonlocal_field(gf, kernel)
    i = int(np.argmin(np.abs(np.array(gf.grid.centers) - x0)))
    return float(ubar[i])


def test_parse_kernel_spellings():
    assert parse_kernel("zero") == ZERO
    assert parse_kernel("sk") == SK_UNIT
    assert parse_kernel("infinite") == INFINITE
    assert parse_kernel("uniform") == UNIFORM
    assert parse_kernel("linear") == LINEAR
    k = parse_kernel("sk:L=2.5")
    assert k == Kernel("box", 2.5)
    assert str(k) == "sk:L=2.5" and k.tag == "sk_L2.5" and str(Kernel("box", 0.5)) == "sk:L=0.5"
    # the named points of the box family, spelled as a length
    assert parse_kernel("sk:L=0") == ZERO
    assert parse_kernel("sk:L=1") == SK_UNIT
    assert parse_kernel("sk:L=inf") == INFINITE
    assert parse_kernel("sk:L=1e400") == INFINITE  # overflows to inf
    # lengths that %g would round are spelled with every digit they need
    for length in (2.5000001, 1 / 3):
        k = Kernel("box", length)
        assert parse_kernel(str(k)) == k
        assert k.tag == "sk_L" + str(k).removeprefix("sk:L=")
    assert str(Kernel("box", 2.5000001)) == "sk:L=2.5000001"
    for bad in ("sk:L=-1", "sk:L=nan", "sk:L=-inf", "sk:L=x", "bogus"):
        with pytest.raises(ValueError):
            parse_kernel(bad)


def test_kernel_str_round_trip():
    for k in ALL_KERNELS + (Kernel("box", 0.25), Kernel("box", 1e-320), Kernel("box", 5e-324)):
        assert parse_kernel(str(k)) == k
    # a subnormal length in its shortest exact digits, a normal one in %g's
    for length, spelling in ((1e-320, "sk:L=1e-320"), (5e-324, "sk:L=5e-324"),
                             (7382550.0, "sk:L=7.38255e+06")):
        assert str(Kernel("box", length)) == spelling
    # a box of length 0, 1 or inf prints as its name, whatever its spelling
    for spelling, name in (("sk:L=0", "zero"), ("sk:L=1", "sk"), ("sk:L=inf", "infinite"),
                           ("sk:L=1e400", "infinite")):
        assert str(parse_kernel(spelling)) == name


def test_weight_sup():
    assert ZERO.weight_sup == 0.0
    assert LINEAR.weight_sup == 2.0
    for k in (SK_UNIT, INFINITE, UNIFORM, Kernel("box", 3.0)):
        assert k.weight_sup == 1.0


def test_sk_scaled_validation():
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match=r"window length must lie in \[0, inf\]"):
            Kernel("box", bad)
    # linear's window is fixed at 1 and uniform's at inf
    for shape, bad in (("linear", 2.0), ("linear", math.nan), ("uniform", 1.0), ("sk", 1.0)):
        with pytest.raises(ValueError, match="no kernel of shape"):
            Kernel(shape, bad)


def test_infinite_box_anchors(fine_grid):
    """Suffix integral of the box 1_[0,1]: 1 behind it, 0.5 halfway, 0 past."""
    gf = box_on(fine_grid)
    dx = fine_grid.dx
    assert abs(ubar_at(gf, INFINITE, -1.0) - 1.0) <= dx
    assert abs(ubar_at(gf, INFINITE, 0.5) - 0.5) <= dx
    assert abs(ubar_at(gf, INFINITE, 2.0) - 0.0) <= dx


def test_sk_box_anchors(fine_grid):
    gf = box_on(fine_grid)
    dx = fine_grid.dx
    assert abs(ubar_at(gf, SK_UNIT, 0.0) - 1.0) <= dx
    assert abs(ubar_at(gf, SK_UNIT, 0.5) - 0.5) <= dx
    assert abs(ubar_at(gf, SK_UNIT, -0.5) - 0.5) <= dx


def test_linear_box_anchors(fine_grid):
    # weight 2(1 - xi) on the unit window; hand integrals over the box
    gf = box_on(fine_grid)
    dx = fine_grid.dx
    assert abs(ubar_at(gf, LINEAR, 0.0) - 1.0) <= 2 * dx
    assert abs(ubar_at(gf, LINEAR, 0.5) - 0.75) <= 2 * dx
    assert abs(ubar_at(gf, LINEAR, -0.5) - 0.25) <= 2 * dx


def test_linear_can_exceed_total_mass(fine_grid):
    # the weight peaks at 2, so ubar is NOT bounded by the plain mass
    gf = box_on(fine_grid, 0.0, 0.5)
    u0 = ubar_at(gf, LINEAR, 0.0)
    assert u0 > total_mass(gf) + 0.2
    assert u0 <= LINEAR.weight_sup * total_mass(gf) + 1e-12


def test_zero_kernel_is_zero(fine_grid):
    gf = box_on(fine_grid)
    ubar = nonlocal_field(gf, ZERO)
    assert np.all(ubar == 0.0)
    assert np.all(np.exp(-ubar) == 1.0)


def test_uniform_kernel_is_constant_mass(fine_grid):
    gf = box_on(fine_grid)
    assert np.all(nonlocal_field(gf, UNIFORM) == total_mass(gf))


def test_kernel_ordering(fine_grid):
    """zero <= sk <= infinite <= uniform pointwise for nonnegative data."""
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, fine_grid.n_cells)
    values[-200:] = 0.0
    gf = GridFunction(fine_grid, values)
    fields = {k.tag: nonlocal_field(gf, k) for k in ALL_KERNELS}
    tol = 1e-12
    assert np.all(fields["zero"] <= fields["sk"] + tol)
    assert np.all(fields["sk"] <= fields["infinite"] + tol)
    assert np.all(fields["infinite"] <= fields["uniform"] + tol)


def test_linearity(fine_grid):
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 1.0, fine_grid.n_cells)
    v = rng.uniform(0.0, 1.0, fine_grid.n_cells)
    a, b = 0.3, 0.45
    for k in ALL_KERNELS:
        left = nonlocal_field(GridFunction(fine_grid, a * u + b * v), k)
        right = a * nonlocal_field(GridFunction(fine_grid, u), k) + (
            b * nonlocal_field(GridFunction(fine_grid, v), k)
        )
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)


def test_infinite_locality_identity(fine_grid):
    """The suffix-trapezoid discretization makes the difference identity exact."""
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, fine_grid.n_cells)
    gf = GridFunction(fine_grid, u)
    ubar = nonlocal_field(gf, INFINITE)
    lhs = np.diff(ubar)
    rhs = -fine_grid.dx * 0.5 * (u[:-1] + u[1:])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)


def test_factor_band(fine_grid):
    rng = np.random.default_rng(9)
    gf = GridFunction(fine_grid, rng.uniform(0.0, 1.0, fine_grid.n_cells))
    m = total_mass(gf)
    for k in ALL_KERNELS:
        f = np.exp(-nonlocal_field(gf, k))
        assert np.all(f <= 1.0 + 1e-14)
        assert np.all(f >= np.exp(-k.weight_sup * m) - 1e-14)


def test_sk_scaled_shrinks_to_zero_kernel(fine_grid):
    gf = box_on(fine_grid)
    for L in (1e-3, 1e-2):
        ubar = nonlocal_field(gf, Kernel("box", L))
        assert float(ubar.max()) <= L * float(gf.values.max()) + 1e-15


def test_negative_density_rejected(fine_grid):
    values = np.zeros(fine_grid.n_cells)
    values[3] = -1e-3
    with pytest.raises(ValueError):
        nonlocal_field(GridFunction(fine_grid, values), SK_UNIT)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    spelling=st.sampled_from(["sk", "infinite", "uniform", "linear"]),
)
def test_ubar_bounds_property(seed, spelling):
    grid = GridSpec(0.0, 5.0, 200)
    rng = np.random.default_rng(seed)
    gf = GridFunction(grid, rng.uniform(0.0, 1.0, 200))
    kernel = parse_kernel(spelling)
    ubar = nonlocal_field(gf, kernel)
    assert np.all(ubar >= -1e-14)
    assert np.all(ubar <= kernel.weight_sup * total_mass(gf) + 1e-12)


# ------------------------------------------- oracle: explicit window weights


def _window_weights(dx, length, primitive):
    """Per-cell weights for a window [x_i, x_i + length] ahead of cell i.

    primitive is the antiderivative of the kernel weight in the offset
    variable xi = y - x_i; weight r covers the overlap of the window with
    cell i + r.  The grid is uniform, so the weights do not depend on i.
    """
    n_w = int(np.ceil(length / dx + 0.5)) + 1
    w = np.zeros(n_w)
    for r in range(n_w):
        lo = max(0.0, (r - 0.5) * dx)
        hi = min(length, (r + 0.5) * dx)
        if hi > lo:
            w[r] = primitive(hi) - primitive(lo)
    nz = np.nonzero(w)[0]
    return w[: nz[-1] + 1] if len(nz) else w[:1]


def correlate_oracle(values, dx, kernel):
    """ubar as an O(n L/dx) correlation with the explicit window weights."""
    if kernel == LINEAR:
        w = _window_weights(dx, 1.0, lambda xi: 2.0 * xi - xi * xi)
    else:
        w = _window_weights(dx, kernel.length, lambda xi: xi)
    padded = np.concatenate([values, np.zeros(len(w) - 1)])
    return np.correlate(padded, w, mode="valid")


@pytest.mark.parametrize("datum", ["bump", "subinit"])
@pytest.mark.parametrize("n", [1000, 4000, 16000])
@pytest.mark.parametrize(
    "kernel", [SK_UNIT, *(Kernel("box", L) for L in (1e-3, 0.37, 2.5)), LINEAR], ids=str
)
def test_primitive_matches_correlation_oracle(datum, n, kernel):
    u = CATALOG[datum].sample(n)
    got = lookahead_average(u.values, u.grid.dx, kernel, total_mass(u))
    want = correlate_oracle(u.values, u.grid.dx, kernel)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(4, 300),
    length=st.floats(1e-4, 20.0),
    spelling=st.sampled_from(["sk:L={!r}", "linear", "infinite"]),
)
def test_clamped_ubar_nonnegative(seed, n, length, spelling):
    # sparse data: most window differences cancel to (almost) zero
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.1)
    kernel = parse_kernel(spelling.format(length))
    dx = 5.0 / n
    ubar = lookahead_average(values, dx, kernel, dx * values.sum())
    assert np.all(ubar >= 0.0)
    # a window [x_i, x_i + L] overlaps cells i .. i + ceil(L/dx - 1/2); one
    # that holds no non-zero cell averages to exactly 0
    reach = math.ceil(min(kernel.length / dx, n) - 0.5)
    nonzero = np.concatenate([[0], np.cumsum(values != 0.0)])
    empty = nonzero[np.minimum(np.arange(n) + reach + 1, n)] == nonzero[:n]
    assert np.all(ubar[empty] == 0.0)
