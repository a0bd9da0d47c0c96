"""Numerical laboratory for a nonlocal traffic-flow conservation law.

Drivers slow down in response to the traffic density seen in a look-ahead
window, with an exponential (Arrhenius-type) slow-down factor.  The package
provides the threshold curve separating globally smooth from blowing-up
initial data, characteristic-based slope dynamics with analytic blow-up
bounds, a finite-volume solver for several look-ahead kernels, and a small
catalog of reference scenarios plus a CLI.

The top level carries the names of the README's library example and
default_curve; every other name is imported from its own module.
"""

from .characteristics import supercritical_bounds
from .grid import GridFunction, GridSpec
from .kernels import INFINITE
from .scenarios import bump_init
from .solver import evolve
from .threshold import classify_initial_data, default_curve

__version__ = "0.1.0"
