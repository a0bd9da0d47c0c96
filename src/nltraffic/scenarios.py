"""Reference initial data, experiment recipes and output bundles.

Two analytic profiles anchor the study:

* bump: the compactly supported mollifier exp(-1/(1 - x^2)) on |x| < 1.
  Its upslope crosses the critical curve, so every kernel develops a wave
  breakdown from it.
* subinit: a C^2 profile glued from 1/x^2 (x <= -3), a quintic polynomial
  on (-3, 0] and exp(-x)/9 (x > 0).  It stays strictly below the critical
  curve; with the infinite look-ahead kernel it evolves smoothly forever,
  while kernels with bounded horizon still break down.

Each datum is a profile, a function of one float, on its recommended
domain, and a run sees only the profile sampled at the cell centers, mass
included; metadata.json records the domain.  subinit's 1/x^2 tail has
infinite support, which [-200, 40] cuts; the look-ahead average only sees
density to the right, so a cut on the left never enters ubar, though the
solver's left edge lets in the flux of the first cell.  What a cut on the
right misses is the solver's to judge, from the sampled grid:
require_runnable() refuses data that reach x_right under a kernel that
looks ahead, and run_experiment asks it of every kernel before the first
evolves.  A run that evolves no kernel (classify) works on the samples as
floats and loads neither the solver nor numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .grid import CellValues, GridFunction, GridSpec, write_profile_csv
from .kernels import INFINITE, SK_UNIT, UNIFORM, ZERO, Kernel
from .threshold import (
    Classification,
    classify_initial_data,
    default_curve,
    write_threshold_csv,
)
from .writers import write_csv, write_json

if TYPE_CHECKING:
    from .solver import Diagnostics

COMPARE_KERNELS = (ZERO, SK_UNIT, INFINITE, UNIFORM)


def bump_init(x: float) -> float:
    """Supercritical mollifier bump, exp(-1/(1-x^2)) inside |x| < 1."""
    return math.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1.0 else 0.0


_POLY = tuple(c / 1458.0 for c in (3.0, 35.0, 123.0, 81.0, -162.0, 162.0))


def subcritical_init(x: float) -> float:
    """Subcritical profile: 1/x^2, quintic bridge, exp(-x)/9 (C^2 joins)."""
    if x <= -3.0:
        return 1.0 / (x * x)  # beyond |x| ~ 1e154, x * x = inf and 1/inf = 0 is right
    if x <= 0.0:
        y = 0.0
        for c in _POLY:  # Horner, as np.polyval
            y = y * x + c
        return y
    return math.exp(-x) / 9.0


@dataclass(frozen=True)
class InitialDatum:
    """Analytic initial profile on its recommended domain."""

    name: str
    profile: object
    domain: tuple[float, float]

    def sample(self, n_cells: int) -> GridFunction:
        return GridFunction.from_callable(GridSpec(*self.domain, n_cells), self.profile)


CATALOG = {datum.name: datum for datum in (
    InitialDatum(name="bump", profile=bump_init, domain=(-6.0, 10.0)),
    InitialDatum(name="subinit", profile=subcritical_init, domain=(-200.0, 40.0)),
)}


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


def even_snapshots(t_end: float) -> tuple:
    """Five evenly spaced times from 0 to t_end, each t_end * (i / 4), which cannot overflow."""
    return tuple(t_end * (i / 4) for i in range(5))


RECIPES = {exp.name: exp for exp in (
    Experiment(
        name="supercritical-compare",
        datum=CATALOG["bump"],
        kernels=COMPARE_KERNELS,
        t_end=4.0,
        snapshot_times=even_snapshots(4.0),
    ),
    Experiment(
        name="subcritical-compare",
        datum=CATALOG["subinit"],
        kernels=COMPARE_KERNELS,
        t_end=20.0,
        snapshot_times=even_snapshots(20.0),
    ),
)}


@dataclass
class ExperimentResult:
    classification: Classification
    diagnostics: dict[str, Diagnostics]
    snapshots: dict[str, dict[float, GridFunction]]
    files: list[str]


def evolve(*args, **kwargs):
    """solver.evolve, imported at the first call: a run that evolves no kernel loads no numpy."""
    from .solver import evolve
    return evolve(*args, **kwargs)


def _warn(tag: str, diag: Diagnostics, dx: float) -> None:
    """Name on stderr what makes a kernel's run on cells of width dx a poor guide.

    Breakdown detected on the initial state of smooth catalog data means a
    grid too coarse for the 0.08/dx rule; density through the right edge
    means the run left the model's domain.
    """
    from .solver import BLOWUP_GRADIENT_FACTOR
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

    Every kernel's run is checked by require_runnable before u0 is
    classified or any kernel evolves, and evolved before the first file is
    written, so a run that is refused or fails leaves no partial bundle.
    Each kernel's warnings go to stderr once every kernel has evolved.
    """
    grid = GridSpec(*exp.datum.domain, exp.n_cells)
    sample = CellValues.from_callable(grid, exp.datum.profile)
    if max(sample.values) <= 0.0:
        raise ValueError(
            f"the n_cells = {exp.n_cells} cell centers on [x_left, x_right] = "
            f"[{grid.x_left:g}, {grid.x_right:g}] sample {exp.datum.name} as 0 everywhere"
        )
    u0 = None
    if exp.kernels:  # only a run that steps needs the solver and numpy's array
        from .solver import require_runnable
        u0 = GridFunction(grid, sample.values)
        for kernel in exp.kernels:  # refuse the recipe before its first kernel evolves
            require_runnable(u0, kernel, exp.t_end, exp.snapshot_times)
    times = [t + 0.0 for t in exp.snapshot_times]  # -0 and 0 are one time: 0
    snap_files: dict[str, float] = {}  # file name -> time as given, in snapshot_times order
    for t, given in zip(times, exp.snapshot_times):
        fname = f"snap_t{t:g}.csv"
        if fname in snap_files:
            raise ValueError(f"snapshot times {snap_files[fname]!r} and {given!r} both name {fname}")
        snap_files[fname] = given
    result = classify_initial_data(sample)
    runs = [(kernel, *evolve(u0, kernel, exp.t_end, exp.snapshot_times)) for kernel in exp.kernels]
    for kernel, _, diag in runs:
        _warn(kernel.tag, diag, grid.dx)

    root = Path(out_dir) / exp.name
    files: list[str] = []

    def bundle_path(rel: str) -> Path:
        files.append(f"{exp.name}/{rel}")
        return root / rel

    write_json(bundle_path("classification.json"), result.record())
    write_csv(bundle_path("threshold_overlay.csv"), "x,u,d,sigma",
              (grid.centers, sample.values, result.d, result.sigma))
    write_threshold_csv(default_curve(), bundle_path("threshold_curve.csv"))

    for kernel, snaps, diag in runs:
        kdir = f"kernel_{kernel.tag}"
        for fname, given in snap_files.items():
            write_profile_csv(snaps[given], bundle_path(f"{kdir}/{fname}"))
        diag.write_csv(bundle_path(f"{kdir}/diagnostics.csv"))
        write_json(bundle_path(f"{kdir}/blowup.json"), asdict(diag.blowup))

    write_json(bundle_path("metadata.json"), {
        "name": exp.name,
        "datum": exp.datum.name,
        "domain": list(exp.datum.domain),
        "n_cells": exp.n_cells,
        "t_end": exp.t_end,
        "snapshot_times": times,
        "kernels": [str(k) for k in exp.kernels],
    })

    return ExperimentResult(
        classification=result,
        diagnostics={kernel.tag: diag for kernel, _, diag in runs},
        snapshots={kernel.tag: snaps for kernel, snaps, _ in runs},
        files=files,
    )


def customized(recipe: Experiment, **overrides) -> Experiment:
    """Recipe with fields replaced."""
    return replace(recipe, **overrides)
