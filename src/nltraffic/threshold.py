"""Critical-slope threshold for characteristic initial data.

Along a characteristic of the look-ahead model the density u and the slope
d = u_x obey an autonomous system (see characteristics.py).  Whether d
blows up in finite time or decays is decided by the starting point's
position relative to a curve d = sigma(u) in the (u, d) phase plane.
sigma solves the singular ODE

    sigma'(x) = [2 sigma^2 - (3x - 5x^2) sigma - x^3 (1 - x)] / [-x^2 (1 - x)]

with sigma(0) = 0, sigma'(0) = 1.  The product x (1 - x) satisfies the ODE
identically, so sigma(u) = u (1 - u) is the implementation.  The tests keep
an RK4 integration of the ODE from its series seed as an independent
oracle.  A curve costs nothing to build, so default_curve() builds one per
call.  The whole module works on Python floats, and none of it loads numpy:
write_threshold_csv tabulates the curve, and classify_initial_data judges a
sampled profile with the slope np.gradient(u, dx, edge_order=2) would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import pairwise
from typing import TYPE_CHECKING

from .writers import write_csv

if TYPE_CHECKING:
    from .grid import CellValues

# admissible overshoot outside [0, 1] before a profile stops being a density
DENSITY_TOL = 1e-8

# verdict dead band: |margin| <= tau is treated as "on the curve"
STRICTNESS_TAU = 1e-10

SUBCRITICAL = "SUBCRITICAL"
SUPERCRITICAL = "SUPERCRITICAL"


class ThresholdCurve:
    """The critical-slope curve sigma(u) = u (1 - u).

    u_boost is the largest u2 such that sigma(u) >= (3/4) u on [0, u2]
    (u (1 - u) >= 3u/4 exactly when u <= 1/4), needed by the slope-floor
    estimate in characteristics.py.
    """

    u_boost = 0.25

    def eval(self, u: float) -> float:
        """sigma(u) for a density u in [0, 1]; u within DENSITY_TOL of it is clipped, nan refused."""
        if not -DENSITY_TOL <= u <= 1.0 + DENSITY_TOL:
            raise ValueError(f"sigma is only defined for densities in [0, 1], got u = {u}")
        u = min(max(float(u), 0.0), 1.0)
        return u * (1.0 - u)


def default_curve() -> ThresholdCurve:
    return ThresholdCurve()


@dataclass(frozen=True)
class Classification:
    """Verdict plus the extremal witness point of an initial profile.

    For SUPERCRITICAL the witness maximizes margin = u0'(x) - sigma(u0(x))
    and margin > 0; for SUBCRITICAL it minimizes sigma(u0) - u0' and margin
    is that minimal distance below the curve; it is negative when the point
    lies in the dead band (0, tau] above it: too close to call.  d and sigma
    hold every cell's slope and sigma(u0) for the overlay; record() omits them.
    """

    verdict: str
    x0: float
    u0_at_x0: float
    d0_at_x0: float
    margin: float
    d: list[float] = field(default_factory=list, repr=False, compare=False)
    sigma: list[float] = field(default_factory=list, repr=False, compare=False)

    def record(self) -> dict:
        """The verdict and its witness, as classification.json holds them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def classify_initial_data(u0: CellValues) -> Classification:
    """Decide whether any point of u0 starts above the threshold curve.

    u0 holds floats or an array; ThresholdCurve.eval refuses a non-density.
    The slope is the second-order grid derivative of the samples, so u0 must
    be resolved: adjacent cell values may not jump by more than 0.5.
    """
    values = u0.values.tolist() if hasattr(u0.values, "tolist") else u0.values
    sigma = list(map(default_curve().eval, values))
    if any(abs(b - a) > 0.5 for a, b in pairwise(values)):
        raise ValueError("initial profile under-resolved: adjacent jump > 0.5")
    d = gradient(values, u0.grid.dx)
    margins = [slope - sig for slope, sig in zip(d, sigma)]
    i = max(range(len(margins)), key=margins.__getitem__)  # the first maximum, as argmax's
    top = margins[i]
    witness = (u0.grid.centers[i], values[i], d[i])
    if top > STRICTNESS_TAU:
        return Classification(SUPERCRITICAL, *witness, top, d, sigma)
    return Classification(SUBCRITICAL, *witness, -top, d, sigma)


def gradient(values: list[float], dx: float) -> list[float]:
    """np.gradient(values, dx, edge_order=2) on floats, bit for bit: central
    differences inside, end_slopes at the two ends."""
    left, right = end_slopes(values, dx)
    two_dx = 2.0 * dx
    return [left, *[(b - a) / two_dx for a, b in zip(values, values[2:])], right]


def end_slopes(values, dx: float) -> tuple[float, float]:
    """np.gradient(values, dx, edge_order=2)'s one-sided end slopes, bit for bit."""
    left = (-1.5 / dx) * values[0] + (2.0 / dx) * values[1] + (-0.5 / dx) * values[2]
    right = (0.5 / dx) * values[-3] + (-2.0 / dx) * values[-2] + (1.5 / dx) * values[-1]
    return left, right


def write_threshold_csv(curve: ThresholdCurve, path, n_samples: int = 1001) -> None:
    """Tabulate (u, sigma(u)) at n_samples >= 2 evenly spaced u in [0, 1]."""
    if n_samples < 2:
        raise ValueError(f"samples must be at least 2, got {n_samples}")
    us = linspace(0.0, 1.0, n_samples)
    write_csv(path, "u,sigma", (us, [curve.eval(u) for u in us]))


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 2 evenly spaced floats from start to stop, bit for bit numpy.linspace's."""
    step = (stop - start) / (num - 1)
    out = [0.0] * num  # one request, so that a size too large to allocate fails at once
    for i in range(num - 1):  # the else branch is numpy's, for a step that rounds to 0
        out[i] = (i * step if step else i / (num - 1) * (stop - start)) + start
    out[-1] = stop
    return out
