"""Uniform 1-d grids and profiles sampled on them.

Everything downstream works with cell averages on a uniform grid: cell i
spans [x_left + i*dx, x_left + (i+1)*dx] and carries the value u_i
attached to the cell center x_i = x_left + (i + 1/2)*dx.  A profile is a
function of one float, sampled once per center.  CellValues holds the
samples as floats, which is all a classification needs; GridFunction holds
them as the read-only array that the solver steps, and alone loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .threshold import DENSITY_TOL
from .writers import write_csv


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [x_left, x_right] with n_cells cells."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        for name in ("x_left", "x_right"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_left < self.x_right:
            raise ValueError(
                f"need x_left < x_right, got [x_left, x_right] = [{self.x_left}, {self.x_right}]"
            )
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be at least 4, got {self.n_cells}")
        if not (0.0 < self.dx < math.inf):
            raise ValueError(
                f"[x_left, x_right] = [{self.x_left}, {self.x_right}] gives cell "
                f"width {self.dx}; need 0 < dx < inf"
            )

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @cached_property  # every snapshot of a run writes them
    def centers(self) -> tuple[float, ...]:
        x_left, dx = self.x_left, self.dx
        out = [0.0] * self.n_cells  # one request: a size too large to allocate fails at once
        for i in range(self.n_cells):
            out[i] = x_left + (i + 0.5) * dx
        return tuple(out)


@dataclass(frozen=True)
class CellValues:
    """A real profile sampled at the cell centers of a GridSpec, as floats."""

    grid: GridSpec
    values: list[float]

    @classmethod
    def from_callable(cls, grid: GridSpec, f):
        """f, a function of one float, at each cell center."""
        return cls(grid, [f(x) for x in grid.centers])


@dataclass(frozen=True)
class GridFunction(CellValues):
    """CellValues whose values are a finite, read-only float64 array."""

    def __post_init__(self):
        import numpy as np

        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"expected {self.grid.n_cells} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in grid function")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def require_density(u: GridFunction) -> None:
    """Reject profiles that leave [0, 1] by more than DENSITY_TOL."""
    lo = float(u.values.min())
    hi = float(u.values.max())
    if lo < -DENSITY_TOL or hi > 1.0 + DENSITY_TOL:
        raise ValueError(f"density out of range: min={lo:.3e}, max={hi:.3e}")


def total_mass(u: GridFunction) -> float:
    """Midpoint-rule mass dx * sum(u_i)."""
    return float(u.grid.dx * u.values.sum())


def write_profile_csv(u: GridFunction, path) -> None:
    write_csv(path, "x,u", (u.grid.centers, u.values))
