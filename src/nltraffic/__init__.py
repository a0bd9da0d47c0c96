"""Numerical laboratory for a nonlocal traffic-flow conservation law.

Drivers slow down in response to the traffic density seen in a look-ahead
window, with an exponential (Arrhenius-type) slow-down factor.  The package
provides the threshold curve separating globally smooth from blowing-up
initial data, characteristic-based slope dynamics with analytic blow-up
bounds, a finite-volume solver for several look-ahead kernels, and a small
catalog of reference scenarios plus a CLI.

The top level carries the names of the README's library example and
default_curve; every other name is imported from its own module.  A top-level
name imports its module on first use, so `import nltraffic` loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    "supercritical_bounds": "characteristics", "GridFunction": "grid", "GridSpec": "grid",
    "INFINITE": "kernels", "bump_init": "scenarios", "evolve": "solver",
    "classify_initial_data": "threshold", "default_curve": "threshold",
}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
