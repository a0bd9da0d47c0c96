"""The benchmark's span tracer still finds every function it wraps.

perfbench/spans.py patches functions where the calling module binds them,
so renaming or dropping one of those names breaks only a traced benchmark
run.  This test loads the tracer by path and installs every layer.
"""

import importlib.util
from pathlib import Path

from nltraffic.grid import GridFunction, GridSpec
from nltraffic.kernels import SK_UNIT
from nltraffic.scenarios import bump_init
from nltraffic.solver import evolve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_installs_and_uninstalls():
    spans = _load_spans()

    def bound():
        return [spans._resolve(owner).__dict__[attr] for owner, attr, _ in spans.ALL_LAYERS]

    before = bound()
    tracer = spans.Tracer()
    try:
        tracer.install(spans.ALL_LAYERS)
        grid = GridSpec(-6.0, 10.0, 100)
        evolve(GridFunction.from_callable(grid, bump_init), SK_UNIT, 0.05)
    finally:
        tracer.uninstall()
    assert bound() == before
    # the step loop calls the flux through the solver module's global
    assert "solver.numerical_flux" in {span[0] for span in tracer.spans}
