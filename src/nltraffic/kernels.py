"""Look-ahead kernels and the nonlocal density average.

The model is the scalar conservation law

    u_t + (u (1 - u) exp(-ubar))_x = 0,      0 <= u <= 1,

where ubar(x) = (K * u)(x) averages the density that drivers see ahead of
them.  A kernel is a shape and the length L of its window ahead:

    box        ubar(x) = int_x^{x+L} u, one family for L in [0, inf]: zero
               (L = 0, classical LWR), sk (L = 1), infinite (L = inf, all
               ahead) and sk:L=<l> for any other L
    uniform    global average, ubar = total mass everywhere (L = inf)
    linear     unit window with downstream de-weighting 2(1 - (y - x)) (L = 1)

So sk:L=0, sk:L=1 and sk:L=inf are accepted, and are the boxes zero, sk and
infinite, reported and bundled under those names (kernel_sk for sk:L=1).

Windowed variants integrate the piecewise-constant reconstruction of the
cell values exactly, which gives linear partial-cell weights at a window
edge that falls mid-cell (no O(dx) jumps as the edge crosses a cell
boundary).  Off-grid density to the right is taken to be zero, so the
solver evaluates the average on its occupied cells alone, handing the
uniform kernel the whole line's mass.

Boxes and linear cost O(n) whatever L/dx: all come from the density ahead
Q(x) = int_x^inf u, a suffix sum and so exactly 0 past the data, and
S(x) = int_x^inf Q.  With e = x + L, a box gives ubar(x) = Q(x) - Q(e) and
linear, by parts, 2 [Q(x) - S(x) + S(e)], set to exactly 0 where
Q(x) = Q(e).  Cancellation can leave ubar at -1e-16; it is clamped to zero.
The solver calls lookahead_average; nonlocal_field, the benchmark's entry
point, averages a GridFunction behind a density guard.  Only the averages
load numpy, so Kernel and parse_kernel import without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .grid import GridFunction, require_density, total_mass

if TYPE_CHECKING:
    import numpy as np

_BOX_NAMES = {0.0: "zero", 1.0: "sk", math.inf: "infinite"}
_FIXED_LENGTHS = {"linear": 1.0, "uniform": math.inf}


@dataclass(frozen=True)
class Kernel:
    shape: str  # box, linear or uniform
    length: float  # of the window ahead: [0, inf] for a box, fixed for the others

    def __post_init__(self):
        if self.shape == "box" and not 0.0 <= self.length <= math.inf:  # NaN fails too
            raise ValueError(f"window length must lie in [0, inf], got {self.length}")
        if self.shape != "box" and _FIXED_LENGTHS.get(self.shape) != self.length:
            raise ValueError(f"no kernel of shape {self.shape!r} and length {self.length}")

    @property
    def weight_sup(self) -> float:
        """Largest pointwise kernel weight; bounds ubar by weight_sup * mass."""
        return 2.0 if self.shape == "linear" else (1.0 if self.length else 0.0)

    def __str__(self) -> str:
        """The CLI spelling, which parse_kernel reads back to this kernel."""
        if self.shape != "box":
            return self.shape
        if self.length in _BOX_NAMES:
            return _BOX_NAMES[self.length]
        # %g where it reads back exactly in no more digits than repr (a subnormal's may not)
        short, exact = f"{self.length:g}", repr(self.length)
        digits = [len(s.split("e")[0].replace(".", "").strip("0")) for s in (short, exact)]
        return f"sk:L={short if float(short) == self.length and digits[0] <= digits[1] else exact}"

    @property
    def tag(self) -> str:
        """Filesystem-safe label, used in experiment bundle directories."""
        return str(self).replace(":L=", "_L")


ZERO = Kernel("box", 0.0)
SK_UNIT = Kernel("box", 1.0)
INFINITE = Kernel("box", math.inf)
UNIFORM = Kernel("uniform", math.inf)
LINEAR = Kernel("linear", 1.0)
_NAMED = {str(k): k for k in (ZERO, SK_UNIT, INFINITE, UNIFORM, LINEAR)}


def parse_kernel(text: str) -> Kernel:
    """Parse the CLI spelling: zero | sk | infinite | uniform | linear | sk:L=<l>."""
    s = text.strip().lower()
    if s in _NAMED:
        return _NAMED[s]
    if s.startswith("sk:l="):
        try:
            length = float(s[5:])
        except ValueError:
            raise ValueError(f"bad kernel window length in {text!r}") from None
        return Kernel("box", length)
    raise ValueError(f"unknown kernel {text!r}")


def lookahead_average(values: np.ndarray, dx: float, kernel: Kernel, mass: float) -> np.ndarray:
    """ubar = K * u for cell values on a uniform grid of spacing dx.

    values may be the cells [a, b) of a line that is 0 to the right of them;
    mass is the whole line's dx * sum of its cells, the uniform kernel's
    average.
    """
    import numpy as np

    n = len(values)
    if kernel.length == 0.0:
        return np.zeros(n)
    if kernel.shape == "uniform":
        return np.full(n, mass)
    # cell units with edges at the integers: x_i sits at i + 1/2, the window
    # end at i + q + f; the first m window ends lie inside the domain, the
    # rest past all data, where Q and S are 0
    end = 0.5 + min(kernel.length / dx, n)
    q, f = int(end), end % 1.0
    m = n - q
    Q = np.cumsum(values[::-1])[::-1]  # at the left cell edges, in units of dx
    ubar = Q - 0.5 * values  # Q(x_i)
    box = ubar.copy() if kernel.shape == "linear" else ubar
    if m:  # else every window end lies past the data, where Q is 0 (always so for infinite)
        box[:m] -= Q[q:] - f * values[q:]  # Q(x_i) - Q(e_i)
    if kernel.shape == "linear":
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
