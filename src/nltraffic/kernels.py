"""Look-ahead kernels and the nonlocal density average.

The model is the scalar conservation law

    u_t + (u (1 - u) exp(-ubar))_x = 0,      0 <= u <= 1,

where ubar(x) = (K * u)(x) averages the density that drivers see ahead of
them.  Supported kernel variants:

    zero       no look-ahead at all, ubar = 0 (classical LWR)
    sk         unit window, ubar(x) = int_x^{x+1} u
    sk:L=<l>   rescaled window of length l
    infinite   everything ahead, ubar(x) = int_x^inf u
    uniform    global average, ubar = total mass everywhere
    linear     unit window with downstream de-weighting 2(1 - (y - x))

Windowed variants integrate the piecewise-constant reconstruction of the
cell values exactly, which gives linear partial-cell weights at a window
edge that falls mid-cell (no O(dx) jumps as the edge crosses a cell
boundary).  Off-grid density to the right is taken to be zero, so the
solver evaluates the average on its occupied cells alone, handing the
uniform kernel the whole line's mass.

Every variant costs O(n) per call, whatever L/dx: with P the primitive of
the reconstruction and R that of P, sk and sk:L give ubar(x) = P(x + L) -
P(x) and linear, by parts, ubar(x) = 2 [R(x + 1) - R(x) - P(x)].  On a
uniform grid every window end lies the same whole number of cells plus the
same fraction past its cell center.  Cancellation can leave ubar at -1e-16;
it is clamped to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, total_mass  # noqa: F401  (traced by perfbench)

_KINDS = ("zero", "sk", "sk_scaled", "infinite", "uniform", "linear")


@dataclass(frozen=True)
class Kernel:
    kind: str
    length: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "sk_scaled":
            if self.length is None or not (0 < self.length < math.inf):
                raise ValueError(f"window length must be finite and > 0, got {self.length}")
        elif self.length is not None:
            raise ValueError(f"kernel {self.kind!r} takes no length parameter")

    @property
    def window(self) -> float:
        """Length of the look-ahead window (inf for infinite/uniform)."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("sk", "linear"):
            return 1.0
        if self.kind == "sk_scaled":
            return float(self.length)
        return math.inf

    @property
    def weight_sup(self) -> float:
        """Largest pointwise kernel weight; bounds ubar by weight_sup * mass."""
        return 2.0 if self.kind == "linear" else (0.0 if self.kind == "zero" else 1.0)

    def __str__(self) -> str:
        if self.kind == "sk_scaled":
            return f"sk:L={self.length:g}"
        return self.kind

    @property
    def tag(self) -> str:
        """Filesystem-safe label, used in experiment bundle directories."""
        if self.kind == "sk_scaled":
            return f"sk_L{self.length:g}"
        return self.kind


ZERO = Kernel("zero")
SK_UNIT = Kernel("sk")
INFINITE = Kernel("infinite")
UNIFORM = Kernel("uniform")
LINEAR = Kernel("linear")


def sk_scaled(length: float) -> Kernel:
    return Kernel("sk_scaled", float(length))


def parse_kernel(text: str) -> Kernel:
    """Parse the CLI spelling: zero | sk | infinite | uniform | linear | sk:L=<l>."""
    s = text.strip().lower()
    if s in ("zero", "sk", "infinite", "uniform", "linear"):
        return Kernel(s)
    if s.startswith("sk:l="):
        try:
            length = float(s[5:])
        except ValueError:
            raise ValueError(f"bad kernel window length in {text!r}") from None
        return sk_scaled(length)
    raise ValueError(f"unknown kernel {text!r}")


@dataclass(frozen=True)
class NonlocalField:
    """ubar = K * u and the slow-down factor exp(-ubar) on the same grid."""

    ubar: GridFunction
    factor: GridFunction


def lookahead_average(values: np.ndarray, dx: float, kernel: Kernel, mass=None) -> np.ndarray:
    """ubar = K * u for cell values on a uniform grid of spacing dx.

    values may be the cells [a, b) of a line that is 0 to the right of them;
    mass is then the whole line's dx * sum of its cells, the uniform
    kernel's average, and defaults to that of values.
    """
    n = len(values)
    kind = kernel.kind
    if kind == "zero":
        return np.zeros(n)
    if kind == "uniform":
        return np.full(n, dx * values.sum() if mass is None else mass)
    if kind == "infinite":
        # suffix sums: int_{x_i}^{inf} u = dx * (sum_{j>i} u_j + u_i / 2)
        suffix = np.cumsum(values[::-1])[::-1]
        return dx * (suffix - 0.5 * values)

    # cell units with edges at the integers: x_i sits at i + 1/2, the window
    # end at i + q + f; the first m window ends lie inside the domain
    end = 0.5 + kernel.window / dx
    q, f = int(end), end % 1.0
    m = max(n - q, 0)
    cum = np.zeros(n + 1)  # P at the cell edges, in units of dx
    np.cumsum(values, out=cum[1:])
    ubar = np.empty(n)
    if kind == "linear":
        # R at the cell edges, in units of dx**2 (trapezoid rule is exact on P)
        cum2 = np.zeros(n + 1)
        np.cumsum(0.5 * (cum[:-1] + cum[1:]), out=cum2[1:])
        ubar[:m] = cum2[q:n] + f * cum[q:n] + (0.5 * f * f) * values[q:]
        ubar[m:] = cum2[n] + (np.arange(m, n) + (q + f - n)) * cum[n]
        ubar -= cum2[:-1] + 0.5 * cum[:-1] + 0.125 * values
        ubar *= dx
        ubar -= cum[:-1] + 0.5 * values
        ubar *= 2.0 * dx
    else:
        np.subtract(cum[q:n], cum[:m], out=ubar[:m])
        ubar[:m] += f * values[q:]
        np.subtract(cum[n], cum[m:n], out=ubar[m:])
        ubar -= 0.5 * values
        ubar *= dx
    return np.maximum(ubar, 0.0, out=ubar)


def nonlocal_field(u: GridFunction, kernel: Kernel) -> NonlocalField:
    """Evaluate ubar = K * u and exp(-ubar) for one of the kernel variants.

    Requires u >= -1e-6 componentwise; a more negative value signals a
    corrupted density rather than roundoff.
    """
    if float(u.values.min()) < -1e-6:
        raise ValueError(f"negative density (min {u.values.min():.3e}) in ubar")
    ubar = lookahead_average(u.values, u.grid.dx, kernel)
    return NonlocalField(
        ubar=GridFunction(u.grid, ubar), factor=GridFunction(u.grid, np.exp(-ubar))
    )
