"""In-memory span tracing of nltraffic's layers, installed from outside.

Tracing replaces a public function with a timing wrapper at the place
where the calling module binds it: `nonlocal_field` is wrapped as
`nltraffic.solver` sees it, so every call the solver makes passes through
the wrapper, while the package itself is not edited.  Each span records a
name, a start, an end and its parent span.  A layer's self time is its
span minus the spans of its direct children; the process is
single-threaded, so spans nest strictly.

This module imports nothing from nltraffic at import time, so the CLI
child script can time `import nltraffic.cli` after importing it.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

now_ns = time.perf_counter_ns


def _kernel_tag(args, kwargs) -> str:
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    return kernel.tag


def _subcommand(args, kwargs) -> str:
    return args[0].subcommand


# (owner, attribute, span name).  A span name ending in "." is completed
# per call by the function SUFFIX names for it.
ALL_LAYERS = (
    # the solver's view of the kernels and the grid
    ("nltraffic.solver", "nonlocal_field", "kernels.nonlocal_field."),
    ("nltraffic.solver", "numerical_flux", "solver.numerical_flux"),
    ("nltraffic.solver", "gradient_indicator", "solver.gradient_indicator"),
    ("nltraffic.solver", "total_mass", "grid.total_mass"),
    ("nltraffic.kernels", "total_mass", "grid.total_mass"),
    ("nltraffic.solver.Diagnostics", "write_csv", "solver.Diagnostics.write_csv"),
    # run_experiment's view of the layers below it
    ("nltraffic.scenarios", "evolve", "solver.evolve"),
    ("nltraffic.scenarios", "write_profile_csv", "grid.write_profile_csv"),
    ("nltraffic.scenarios", "classify_initial_data", "threshold.classify_initial_data"),
    ("nltraffic.scenarios", "write_threshold_csv", "threshold.write_threshold_csv"),
    ("nltraffic.scenarios", "default_curve", "threshold.default_curve"),
    ("nltraffic.threshold", "default_curve", "threshold.default_curve"),
    ("nltraffic.characteristics", "default_curve", "threshold.default_curve"),
    # the command line's view
    ("nltraffic.cli", "dispatch", "cli.dispatch."),
    ("nltraffic.cli", "run_experiment", "scenarios.run_experiment"),
    ("nltraffic.cli", "default_curve", "threshold.default_curve"),
    ("nltraffic.cli", "write_threshold_csv", "threshold.write_threshold_csv"),
    ("nltraffic.cli", "supercritical_bounds", "characteristics.supercritical_bounds"),
    ("nltraffic.cli", "integrate_characteristic", "characteristics.integrate_characteristic"),
    ("nltraffic.cli", "phase_trajectory", "characteristics.phase_trajectory"),
)

# Only the operation boundary: one span per kernel evolve, used by the
# untraced passes to time operations at negligible cost.
OP_LAYERS = (("nltraffic.scenarios", "evolve", "solver.evolve"),)

SUFFIX = {"kernels.nonlocal_field.": _kernel_tag, "cli.dispatch.": _subcommand}

CONSTRUCTIONS = "grid.GridFunction.constructions"
PROFILE_BYTES = "grid.write_profile_csv.bytes"


def _resolve(dotted: str):
    """Import the module part of a dotted name and walk the rest."""
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class Tracer:
    """Span recorder that patches functions and can undo its patches."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent_index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, now_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = now_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        suffix = SUFFIX.get(name)

        def traced(*args, **kwargs):
            span = self.open(name + suffix(args, kwargs) if suffix else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, layers=ALL_LAYERS, count_grid: bool = True) -> None:
        for owner_name, attr, span_name in layers:
            owner = _resolve(owner_name)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), span_name))
        if not count_grid:
            return
        from nltraffic.grid import GridFunction

        init = GridFunction.__post_init__
        counts = self.counts

        def counted_init(gf):
            counts[CONSTRUCTIONS] += 1
            init(gf)

        self._patch(GridFunction, "__post_init__", counted_init)

        import nltraffic.scenarios as scenarios

        write = scenarios.write_profile_csv

        def sized_write(u, path):
            write(u, path)
            counts[PROFILE_BYTES] += os.path.getsize(path)

        self._patch(scenarios, "write_profile_csv", sized_write)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent] plus the counts."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def load(path) -> tuple[list[list], Counter]:
    """Spans and counts from a file written by Tracer.dump."""
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], Counter(data["counts"])


def summarize(spans: list[list]) -> dict:
    """Per-name call count, total and self seconds over a whole span list."""
    calls: Counter = Counter()
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for name, start, end, parent in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_ns[name] += dur
        if parent >= 0:
            self_ns[spans[parent][0]] -= dur
    return {
        name: {"calls": calls[name], "total_s": total[name] * 1e-9, "self_s": self_ns[name] * 1e-9}
        for name in calls
    }
