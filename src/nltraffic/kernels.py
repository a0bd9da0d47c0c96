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

The four look-ahead variants cost O(n) whatever L/dx: all come from the
density ahead Q(x) = int_x^inf u, a suffix sum and so exactly 0 past the
data, and S(x) = int_x^inf Q.  With e = x + L, sk, sk:L and infinite give
ubar(x) = Q(x) - Q(e) and linear, by parts, 2 [Q(x) - S(x) + S(e)], set to
exactly 0 where Q(x) = Q(e).  Cancellation can leave ubar at -1e-16; it is
clamped to zero.  The solver calls lookahead_average; nonlocal_field, the
benchmark's entry point, averages a GridFunction behind a density guard.
Only the averages load numpy, so Kernel and parse_kernel import without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .grid import GridFunction, require_density, total_mass

if TYPE_CHECKING:
    import numpy as np

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
        """The CLI spelling, which parse_kernel reads back to this kernel."""
        if self.kind != "sk_scaled":
            return self.kind
        short = f"{self.length:g}"  # where %g is exact, else the shortest exact digits
        return f"sk:L={short if float(short) == self.length else repr(self.length)}"

    @property
    def tag(self) -> str:
        """Filesystem-safe label, used in experiment bundle directories."""
        return str(self).replace(":L=", "_L")


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


def lookahead_average(values: np.ndarray, dx: float, kernel: Kernel, mass: float) -> np.ndarray:
    """ubar = K * u for cell values on a uniform grid of spacing dx.

    values may be the cells [a, b) of a line that is 0 to the right of them;
    mass is the whole line's dx * sum of its cells, the uniform kernel's
    average.
    """
    import numpy as np

    n = len(values)
    if kernel.kind == "zero":
        return np.zeros(n)
    if kernel.kind == "uniform":
        return np.full(n, mass)
    # cell units with edges at the integers: x_i sits at i + 1/2, the window
    # end at i + q + f; the first m window ends lie inside the domain, the
    # rest past all data, where Q and S are 0
    end = 0.5 + min(kernel.window / dx, n)
    q, f = int(end), end % 1.0
    m = n - q
    Q = np.cumsum(values[::-1])[::-1]  # at the left cell edges, in units of dx
    ubar = Q - 0.5 * values  # Q(x_i)
    box = ubar.copy() if kernel.kind == "linear" else ubar
    if m:  # else every window end lies past the data, where Q is 0 (always so for infinite)
        box[:m] -= Q[q:] - f * values[q:]  # Q(x_i) - Q(e_i)
    if kernel.kind == "linear":
        # S at the left cell edges, in units of dx**2 (the midpoint rule is exact on Q)
        S = np.cumsum(ubar[::-1])[::-1]
        area = S - 0.5 * Q + 0.125 * values  # S(x_i) - S(e_i)
        area[:m] -= S[q:] - f * Q[q:] + (0.5 * f * f) * values[q:]
        area *= dx
        ubar -= area
        ubar[box == 0.0] = 0.0
        ubar *= 2.0
    ubar *= dx
    return np.maximum(ubar, 0.0, out=ubar)


def nonlocal_field(u: GridFunction, kernel: Kernel) -> np.ndarray:
    """ubar = K * u on the cells of u's grid, for one of the kernel variants and a density u."""
    require_density(u)
    return lookahead_average(u.values, u.grid.dx, kernel, total_mass(u))
