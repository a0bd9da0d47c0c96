"""Reference initial data, experiment recipes and output bundles.

Two analytic profiles anchor the study:

* bump: the compactly supported mollifier exp(-1/(1 - x^2)) on |x| < 1.
  Its upslope crosses the critical curve, so every kernel develops a wave
  breakdown from it.
* subinit: a C^2 profile glued from 1/x^2 (x <= -3), a quintic polynomial
  on (-3, 0] and exp(-x)/9 (x > 0).  It stays strictly below the critical
  curve; with the infinite look-ahead kernel it evolves smoothly forever,
  while kernels with bounded horizon still break down.

The 1/x^2 left tail carries infinite support, so the recommended domain
[-200, 40] truncates it.  The bundle's metadata.json records the truncated
analytic tail mass (1/|x_left|) as left_tail_mass; the mass diagnostic is
the mass on the grid.  The look-ahead average only sees density to the
right, so the tail never enters ubar.  What a cut on the right misses is
the solver's to judge, from the sampled grid: evolve() refuses data that
reach x_right under a kernel that looks ahead.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    spatial_derivative,
    write_csv,
    write_json,
    write_profile_csv,
)
from .kernels import INFINITE, SK_UNIT, UNIFORM, ZERO, Kernel
from .solver import BLOWUP_GRADIENT_FACTOR, Diagnostics, SolverConfig, evolve
from .threshold import (
    Classification,
    classify_initial_data,
    default_curve,
    write_threshold_csv,
)

COMPARE_KERNELS = (ZERO, SK_UNIT, INFINITE, UNIFORM)


def bump_init(x):
    """Supercritical mollifier bump, exp(-1/(1-x^2)) inside |x| < 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


_POLY = np.array([3.0, 35.0, 123.0, 81.0, -162.0, 162.0]) / 1458.0


def subcritical_init(x):
    """Subcritical profile: 1/x^2, quintic bridge, exp(-x)/9 (C^2 joins)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    left = x <= -3.0
    mid = (~left) & (x <= 0.0)
    right = x > 0.0
    with np.errstate(over="ignore"):  # beyond |x| ~ 1e154, x^2 = inf and 1/inf = 0 is right
        out[left] = 1.0 / x[left] ** 2
    out[mid] = np.polyval(_POLY, x[mid])
    out[right] = np.exp(-x[right]) / 9.0
    return out


@dataclass(frozen=True)
class InitialDatum:
    """Analytic initial profile with its recommended truncation."""

    name: str
    profile: object
    domain: tuple[float, float]
    # analytic mass left of the grid, as a function of x_left
    left_tail: object = None

    def sample(self, n_cells: int) -> GridFunction:
        return GridFunction.from_callable(GridSpec(*self.domain, n_cells), self.profile)

    def left_tail_mass(self, x_left: float) -> float:
        return float(self.left_tail(x_left)) if self.left_tail else 0.0


def _subinit_left_tail(x_left):
    if x_left > -3.0:
        raise ValueError(f"subinit domains must start in the 1/x^2 branch, x_left <= -3; "
                         f"got x_left = {x_left:g}")
    return 1.0 / abs(x_left)  # int_{-inf}^{x_left} x^-2 dx


CATALOG = {
    "bump": InitialDatum(
        name="bump",
        profile=bump_init,
        domain=(-6.0, 10.0),
    ),
    "subinit": InitialDatum(
        name="subinit",
        profile=subcritical_init,
        domain=(-200.0, 40.0),
        left_tail=_subinit_left_tail,
    ),
}


def get_datum(name: str) -> InitialDatum:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown datum {name!r}; available: {sorted(CATALOG)}"
        ) from None


@dataclass(frozen=True)
class Experiment:
    """A named, reproducible run bundle."""

    name: str
    datum: InitialDatum
    kernels: tuple[Kernel, ...]
    n_cells: int = 4000
    t_end: float = 4.0
    snapshot_times: tuple = ()
    stop_on_blowup: bool = False  # bundles keep evolving to t_end for figures


RECIPES = {exp.name: exp for exp in (
    Experiment(
        name="supercritical-compare",
        datum=CATALOG["bump"],
        kernels=COMPARE_KERNELS,
        t_end=4.0,
        snapshot_times=(0.0, 1.0, 2.0, 3.0, 4.0),
    ),
    Experiment(
        name="subcritical-compare",
        datum=CATALOG["subinit"],
        kernels=COMPARE_KERNELS,
        t_end=20.0,
        snapshot_times=(0.0, 5.0, 10.0, 15.0, 20.0),
    ),
)}


@dataclass
class ExperimentResult:
    classification: Classification
    diagnostics: dict[str, Diagnostics]
    snapshots: dict[str, dict[float, GridFunction]]
    files: list[str]


def _write_overlay(u0: GridFunction, path) -> None:
    curve = default_curve()
    d = spatial_derivative(u0).values
    sig = curve.eval(np.clip(u0.values, 0.0, 1.0))
    write_csv(path, "x,u,d,sigma", (u0.x, u0.values, d, sig))


def _warn(tag: str, diag: Diagnostics, dx: float) -> None:
    """Name on stderr what makes a kernel's run on cells of width dx a poor guide.

    Breakdown detected on the initial state of smooth catalog data means a
    grid too coarse for the 0.08/dx rule; density through the right edge
    means the run left the model's domain.
    """
    report = diag.blowup
    if report.t_detect == 0.0:
        print(
            f"warning: kernel {tag}: breakdown detected at t = 0: the initial gradient "
            f"indicator {diag.grad_indicator[0]:.3g} reaches {BLOWUP_GRADIENT_FACTOR:g}/dx = "
            f"{BLOWUP_GRADIENT_FACTOR / dx:.3g}; raise --n-cells",
            file=sys.stderr,
        )
    if report.boundary_contact_t is not None:
        print(
            f"warning: kernel {tag}: density leaves through the right edge from "
            f"t = {report.boundary_contact_t:g}",
            file=sys.stderr,
        )


def run_experiment(exp: Experiment, out_dir) -> ExperimentResult:
    """Execute one recipe and write its bundle under out_dir/<name>/.

    Every kernel is evolved before the first file is written, so a run that
    is refused or fails leaves no partial bundle.  Each kernel's warnings
    go to stderr once every kernel has evolved.
    """
    u0 = exp.datum.sample(exp.n_cells)
    grid = u0.grid
    if float(u0.values.max()) <= 0.0:
        raise ValueError(
            f"the n_cells = {exp.n_cells} cell centers on [x_left, x_right] = "
            f"[{grid.x_left:g}, {grid.x_right:g}] sample {exp.datum.name} as 0 everywhere"
        )
    tail_left = exp.datum.left_tail_mass(grid.x_left)
    # built first, so that invalid solver options stop the run before any evolve
    configs = [
        SolverConfig(kernel=kernel, t_end=exp.t_end, snapshot_times=exp.snapshot_times,
                     stop_on_blowup=exp.stop_on_blowup)
        for kernel in exp.kernels
    ]
    snap_files: dict[str, float] = {}  # file name -> time, in snapshot_times order
    for t in exp.snapshot_times:
        fname = f"snap_t{t:g}.csv"
        if fname in snap_files:
            raise ValueError(f"snapshot times {snap_files[fname]!r} and {t!r} both name {fname}")
        snap_files[fname] = t
    result = classify_initial_data(u0)
    runs = [(config.kernel, *evolve(u0, config)) for config in configs]
    for kernel, _, diag in runs:
        _warn(kernel.tag, diag, grid.dx)

    root = Path(out_dir) / exp.name
    root.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    def bundle_path(rel: str) -> Path:
        files.append(f"{exp.name}/{rel}")
        return root / rel

    write_json(bundle_path("classification.json"), asdict(result))
    _write_overlay(u0, bundle_path("threshold_overlay.csv"))
    write_threshold_csv(default_curve(), bundle_path("threshold_curve.csv"))

    for kernel, snaps, diag in runs:
        kdir = f"kernel_{kernel.tag}"
        (root / kdir).mkdir(exist_ok=True)
        for fname, (_, snap) in zip(snap_files, snaps):  # snaps stops early with the run
            write_profile_csv(snap, bundle_path(f"{kdir}/{fname}"))
        diag.write_csv(bundle_path(f"{kdir}/diagnostics.csv"))
        write_json(bundle_path(f"{kdir}/blowup.json"), asdict(diag.blowup))

    write_json(bundle_path("metadata.json"), {
        "name": exp.name,
        "datum": exp.datum.name,
        "domain": list(exp.datum.domain),
        "n_cells": exp.n_cells,
        "t_end": exp.t_end,
        "snapshot_times": list(exp.snapshot_times),
        "kernels": [str(k) for k in exp.kernels],
        "left_tail_mass": tail_left,
    })

    return ExperimentResult(
        classification=result,
        diagnostics={kernel.tag: diag for kernel, _, diag in runs},
        snapshots={kernel.tag: dict(snaps) for kernel, snaps, _ in runs},
        files=files,
    )


def customized(recipe: Experiment, **overrides) -> Experiment:
    """Recipe with fields replaced."""
    return replace(recipe, **overrides)
