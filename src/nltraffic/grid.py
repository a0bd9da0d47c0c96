"""Uniform 1-d grids and profiles sampled on them.

Everything downstream works with cell averages on a uniform grid: cell i
spans [x_left + i*dx, x_left + (i+1)*dx] and carries the value u_i
attached to the cell center x_i = x_left + (i + 1/2)*dx.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# admissible overshoot outside [0, 1] before a profile stops being a density
DENSITY_TOL = 1e-8


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
            raise ValueError(f"empty domain [x_left, x_right] = [{self.x_left}, {self.x_right}]")
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

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class GridFunction:
    """A real profile sampled at the cell centers of a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"expected {self.grid.n_cells} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in grid function")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: GridSpec, f) -> "GridFunction":
        return cls(grid, np.asarray(f(grid.centers), dtype=float))

    @property
    def x(self) -> np.ndarray:
        return self.grid.centers


def require_density(u: GridFunction) -> None:
    """Reject profiles that leave [0, 1] by more than DENSITY_TOL."""
    lo = float(u.values.min())
    hi = float(u.values.max())
    if lo < -DENSITY_TOL or hi > 1.0 + DENSITY_TOL:
        raise ValueError(f"density out of range: min={lo:.3e}, max={hi:.3e}")


def total_mass(u: GridFunction) -> float:
    """Midpoint-rule mass dx * sum(u_i)."""
    return float(u.grid.dx * u.values.sum())


def spatial_derivative(u: GridFunction) -> GridFunction:
    """Central differences inside, one-sided second-order at the two edges."""
    return GridFunction(u.grid, np.gradient(u.values, u.grid.dx, edge_order=2))


# ---------------------------------------------------------------------------
# serialization: CSV of numeric columns in full double precision, and JSON


def format_float(v: float) -> str:
    return f"{v:.17g}"


def write_csv(path, header: str, columns) -> None:
    """Write header, then row i of columns with each field as format_float's text."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def write_profile_csv(u: GridFunction, path) -> None:
    write_csv(path, "x,u", (u.x, u.values))


def write_json(path, obj) -> None:
    """Write obj as JSON indented by 2 with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
