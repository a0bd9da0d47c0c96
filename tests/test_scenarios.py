"""Catalog data, random bump generator and experiment bundles."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nltraffic import scenarios
from nltraffic.cli import main
from nltraffic.grid import GridFunction, GridSpec, total_mass
from nltraffic.kernels import INFINITE, SK_UNIT, ZERO
from nltraffic.scenarios import (
    CATALOG,
    RECIPES,
    Experiment,
    InitialDatum,
    bump_init,
    customized,
    even_snapshots,
    get_datum,
    run_experiment,
    subcritical_init,
)
from nltraffic.solver import gradient_indicator
from nltraffic.threshold import classify_initial_data
from oracles import CATALOG_VERDICTS, random_compact_bump

# the t = 0 warning as the CI step matches it
T0_WARNING = re.compile(r"^warning: kernel .*: breakdown detected at t = 0: .*--n-cells$")


# --------------------------------------------------------------- profiles


def test_bump_hand_values():
    assert bump_init(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert bump_init(0.5) == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-15)
    assert bump_init(1.0) == 0.0
    assert bump_init(-1.0) == 0.0
    # smooth cutoff: one-sided limit vanishes as well
    assert bump_init(1.0 - 1e-6) < 1e-100
    assert bump_init(-2.0) == 0.0 and bump_init(2.0) == 0.0


def test_subinit_branch_values_agree_at_joins():
    # both formulas give 1/9 at each junction
    assert subcritical_init(-3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert subcritical_init(-3.0 + 1e-12) == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert subcritical_init(0.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert subcritical_init(1e-12) == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_subinit_derivative_continuous_at_joins():
    h = 1e-4
    for x0, slope in ((-3.0, 2.0 / 27.0), (0.0, -1.0 / 9.0)):
        fd = (subcritical_init(x0 + h) - subcritical_init(x0 - h)) / (2 * h)
        assert fd == pytest.approx(slope, abs=1e-6)


def test_subinit_far_field_flatness():
    # relative slope 2/|x| of the algebraic tail
    xs = np.linspace(-200.0, -31.0, 300)
    h = 1e-5
    for x in xs:
        d = (subcritical_init(x + h) - subcritical_init(x - h)) / (2 * h)
        assert abs(d / subcritical_init(x)) < 0.1


def test_subinit_positive_and_below_one():
    xs = np.linspace(-200.0, 40.0, 20001)
    vals = np.array([subcritical_init(x) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


# ---------------------------------------------------------------- catalog


def test_catalog_contents():
    assert set(CATALOG) == {"bump", "subinit"}
    assert CATALOG["bump"].domain == (-6.0, 10.0)
    assert CATALOG["subinit"].domain == (-200.0, 40.0)
    with pytest.raises(ValueError, match="unknown datum"):
        get_datum("gaussian")


def test_catalog_classifications():
    for name, datum in CATALOG.items():
        got = classify_initial_data(datum.sample(1000)).verdict
        assert got == CATALOG_VERDICTS[name], name


def test_datum_sampling():
    gf = CATALOG["bump"].sample(500)
    assert gf.grid.n_cells == 500
    assert (gf.grid.x_left, gf.grid.x_right) == (-6.0, 10.0)
    narrow = replace(CATALOG["bump"], domain=(-2.0, 2.0)).sample(100)
    assert narrow.grid.x_right == 2.0


@pytest.mark.parametrize("name", ["bump", "subinit"])
def test_one_sampler_and_one_classification(tmp_path, name):
    """A datum is sampled one way, at each cell center, and classified once per run.

    classify writes the same classification and overlay bytes as compare-kernels,
    and the overlay's slope is np.gradient's, bit for bit.
    """
    datum = get_datum(name)
    n = 400
    grid = GridSpec(*datum.domain, n)
    assert datum.sample(n).values.tolist() == [datum.profile(x) for x in grid.centers]
    options = ["--datum", name, "--n-cells", str(n)]
    assert main(["classify", *options, "--out", str(tmp_path / "c")]) == 0
    assert main(["compare-kernels", *options, "--t-end", "1", "--out", str(tmp_path / "k")]) == 0
    alone = tmp_path / "c" / f"classify-{name}"
    recipe = next(r for r in RECIPES.values() if r.datum.name == name)
    bundle = tmp_path / "k" / recipe.name
    for fname in ("classification.json", "threshold_overlay.csv"):
        assert (alone / fname).read_bytes() == (bundle / fname).read_bytes(), fname
    overlay = np.loadtxt(alone / "threshold_overlay.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(overlay[:, 0], grid.x_left + (np.arange(n) + 0.5) * grid.dx)
    np.testing.assert_array_equal(overlay[:, 2], np.gradient(overlay[:, 1], grid.dx, edge_order=2))


def test_subinit_gradient_indicator_matches_dense_oracle():
    xs = np.linspace(-200.0, 40.0, 200001)
    vals = np.array([subcritical_init(x) for x in xs])
    oracle = float(np.max(np.abs(np.gradient(vals, xs))) / np.max(vals))
    got = gradient_indicator(CATALOG["subinit"].sample(8000))
    assert got == pytest.approx(oracle, rel=0.01)


# ----------------------------------------------------------- random bumps


def test_random_bumps_are_supercritical():
    grid = GridSpec(-6.0, 10.0, 2000)
    for seed in range(20):
        gf = GridFunction.from_callable(grid, random_compact_bump(seed))
        assert classify_initial_data(gf).verdict == "SUPERCRITICAL", seed


def test_random_bump_support_and_peak():
    profile = random_compact_bump(11, radius=2.0)
    xs = np.linspace(-5.0, 5.0, 5001)
    vals = profile(xs)
    assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)
    assert np.all(vals >= 0.0)
    assert 0.3 - 1e-6 <= float(vals.max()) <= 0.9 + 1e-6


def test_random_bump_reproducible():
    xs = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_array_equal(
        random_compact_bump(4)(xs), random_compact_bump(4)(xs)
    )


# ------------------------------------------------------------ experiments


def test_recipe_catalog():
    sup = RECIPES["supercritical-compare"]
    assert sup.datum.name == "bump"
    assert sup.snapshot_times == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert len(sup.kernels) == 4
    sub = RECIPES["subcritical-compare"]
    assert sub.datum.name == "subinit"
    assert sub.t_end == 20.0
    assert sub.snapshot_times == (0.0, 5.0, 10.0, 15.0, 20.0)
    # the classification bundle alone is `classify`'s, which evolves no kernel
    assert set(RECIPES) == {"supercritical-compare", "subcritical-compare"}
    assert all(name == exp.name for name, exp in RECIPES.items())


def test_even_snapshots_do_not_overflow():
    """i * t_end overflows above t_end ~ 4.5e307; t_end * (i / 4) stays within [0, t_end]."""
    assert even_snapshots(1e308) == (0.0, 2.5e307, 5e307, 7.5e307, 1e308)


def test_customized_overrides():
    exp = customized(RECIPES["supercritical-compare"], n_cells=500, datum=get_datum("subinit"))
    assert exp.n_cells == 500
    assert exp.datum.name == "subinit"
    assert exp.snapshot_times == RECIPES["supercritical-compare"].snapshot_times


def test_bundle_layout(tmp_path):
    exp = customized(
        RECIPES["supercritical-compare"],
        name="smoke",
        n_cells=400,
        t_end=0.5,
        snapshot_times=(0.0, 0.5),
        kernels=(ZERO, INFINITE),
    )
    result = run_experiment(exp, tmp_path)
    root = tmp_path / "smoke"
    for rel in result.files:
        assert (tmp_path / rel).is_file(), rel
    for fname in (
        "classification.json",
        "threshold_overlay.csv",
        "threshold_curve.csv",
        "metadata.json",
    ):
        assert (root / fname).is_file()
    for tag in ("zero", "infinite"):
        kdir = root / f"kernel_{tag}"
        assert (kdir / "snap_t0.csv").is_file()
        assert (kdir / "snap_t0.5.csv").is_file()
        assert (kdir / "diagnostics.csv").is_file()
        assert (kdir / "blowup.json").is_file()

    assert result.classification.verdict == "SUPERCRITICAL"
    assert set(result.snapshots["zero"]) == {0.0, 0.5}
    assert set(result.diagnostics) == {"zero", "infinite"}

    meta = json.loads((root / "metadata.json").read_text())
    assert meta == {
        "name": "smoke",
        "datum": "bump",
        "domain": [-6.0, 10.0],
        "n_cells": 400,
        "t_end": 0.5,
        "snapshot_times": [0.0, 0.5],
        "kernels": ["zero", "infinite"],
    }

    overlay = (root / "threshold_overlay.csv").read_text().split("\n", 1)[0]
    assert overlay == "x,u,d,sigma"

    # subinit's cut left tail is not added anywhere: mass is the grid's, and the domain says where
    sub = customized(exp, name="smoke-sub", datum=get_datum("subinit"), kernels=(ZERO,))
    run_experiment(sub, tmp_path)
    root = tmp_path / "smoke-sub"
    assert json.loads((root / "metadata.json").read_text())["domain"] == [-200.0, 40.0]
    row = (root / "kernel_zero" / "diagnostics.csv").read_text().split("\n")[1]
    assert float(row.split(",")[1]) == total_mass(CATALOG["subinit"].sample(400))


def test_coarse_bundle_warns_once_per_kernel(tmp_path, capsys):
    """At n = 400 every kernel's subinit run fires on its initial state and says so."""
    run_experiment(customized(RECIPES["subcritical-compare"], n_cells=400), tmp_path)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(T0_WARNING.match(line) for line in lines), lines


def test_experiment_script_warns_for_every_coarse_kernel(tmp_path, capsys):
    """Both compare recipes warn for each of their four kernels at n = 400."""
    for datum in ("bump", "subinit"):
        argv = ["compare-kernels", "--datum", datum, "--n-cells", "400", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4 and all(T0_WARNING.match(line) for line in lines), lines


def test_contour_recipe_skips_evolution(tmp_path, capsys, monkeypatch):
    def no_evolve(*args):
        raise AssertionError("classify evolved a kernel")

    monkeypatch.setattr(scenarios, "evolve", no_evolve)
    assert main(["classify", "--datum", "bump", "--n-cells", "300", "--out", str(tmp_path)]) == 0
    bundle = tmp_path / "classify-bump"
    assert sorted(p.name for p in bundle.iterdir()) == [
        "classification.json", "metadata.json", "threshold_curve.csv", "threshold_overlay.csv",
    ]


def test_right_tail_guard(tmp_path):
    """subinit cut at x = 10 reaches the right edge: refused under sk, run under zero."""
    bad = InitialDatum(
        name="truncated",
        profile=subcritical_init,
        domain=(-200.0, 10.0),  # e^-10/9 of mass still beyond the cut
    )
    exp = Experiment(name="bad", datum=bad, kernels=(SK_UNIT,), n_cells=300, t_end=0.1)
    with pytest.raises(ValueError, match="tail"):
        run_experiment(exp, tmp_path / "sk")
    assert not (tmp_path / "sk").exists()
    result = run_experiment(replace(exp, kernels=(ZERO,)), tmp_path / "zero")
    assert result.diagnostics["zero"].t[-1] == pytest.approx(0.1)
