"""Benchmark of the nltraffic lab: recipe runs and cold command-line queries.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload bump-compare --seed 1 --seconds 60 --trace 0
    python3 perfbench/selftest.py        # the correctness gate catches corruption

The load comes from one client in a closed loop: the next operation starts
when the previous one has finished, in this process or in one child
process at a time, with no thread or process pool.

Workloads:

bump-compare     run_experiment(RECIPES["supercritical-compare"]): n = 4000,
                 kernels zero, sk, infinite, uniform to t = 4, full bundle.
                 Kernel cost (sk averages a 250-cell window) and per-step
                 solver work dominate, so kernel and step changes show here.
subinit-compare  RECIPES["subcritical-compare"]: the same solver loop, but at
                 dx = 0.06 the sk window is 17 cells, so kernels are a small
                 share and the CSV writers a larger one.  A kernel-only change
                 should leave it flat.  It runs only when asked for by name:
                 BENCHMARK.json leaves it out, because every layer it times
                 is timed on bump-compare too, and two workloads leave room
                 for 60-second runs (see the last paragraph).
cli-cold         fresh `python -m nltraffic.cli` processes, one after another:
                 classify (bump and subinit), bounds, phase-portrait (time and
                 phase mode) and threshold-curve.  Import and the threshold
                 curve build dominate; the solver and kernels do no work.

The recipe workloads take fixed data and ignore --seed.  On cli-cold the
seed draws the (u0, d0) points, one pair per pass, on both sides of
sigma(u) = u (1 - u), from the seed grid of scripts/phase_sweep.py.

A pass is one run_experiment call, or one round of the six CLI commands.
An operation is one kernel's evolve or one CLI invocation; each is checked
(see checks.py), and a failed check counts as a failed operation.

End-to-end metrics (--trace 0), gated by BENCHMARK.json:

    setup_s       median wall time of fresh interpreters that run
                  `import nltraffic` and the first default_curve(), one
                  before each pass and the rest after the last pass
    wall_s        median wall time of one pass (untraced: only the evolve
                  calls are timed, to count cell-steps per second)
    peak_rss_mib  peak resident set: of this process on the recipe
                  workloads, median over the CLI processes on cli-cold

and, printed but not gated because they exist on one kind of workload:
cell_steps_per_s (sum n*steps / sum evolve time), cli_latency_p50_s,
cli_latency_tail_s and ops_failed_frac.

Per-layer metrics (--trace 1) come from a separate run in which passes
alternate between untraced and traced; trace.overhead_frac compares the
two.  trace.accounted_frac is the share of a traced pass's wall time spent
in named layers: on the recipe workloads it leaves out the self time of
scenarios.run_experiment, the span around the whole pass; on cli-cold,
interpreter start-up and exit lie outside every span.  Self times and
counts are per pass (median over the traced passes), cli.import_s and
cli.dispatch_s.<subcommand> per invocation, and
kernels.nonlocal_field_us.<kernel>.n<cells> are per-call microbenchmarks
on the bump datum, run before the passes and within the run's seconds.
threshold.default_curve.build_s is the time spent in default_curve(); the
recipe workloads build the curve during set-up, so on them it only counts
cache hits.  Spans are written to perfbench_out/trace/
at exit.

On a shared two-core host the machine's speed drifts by tens of percent
over tens of seconds, with other tenants' load; that drift, not the
program, sets the run-to-run spread, and is why the timing bounds in
BENCHMARK.json are wide.  Only longer runs average it out: the median
bump-compare pass over 60-second windows of one long trace spread about
0.10 (IQR / median) against 0.155 over 32-second windows, while the
fastest pass, a low quantile of passes or of solver steps, and the sum of
per-kernel minima all spread more than the median.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import timeit
from collections import Counter
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import checks
import spans
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench_out"

RECIPE_OF = {"bump-compare": "supercritical-compare", "subinit-compare": "subcritical-compare"}
WORKLOADS = (*RECIPE_OF, "cli-cold")
KERNEL_TAGS = ("zero", "sk", "infinite", "uniform")
MICRO_KERNELS = ("zero", "sk", "sk:L=2.5", "infinite", "uniform", "linear")
MICRO_SIZES = (1000, 4000, 16000)
CLI_SUBCOMMANDS = ("classify", "bounds", "phase-portrait", "threshold-curve")
# the (u0, d0) grid of scripts/phase_sweep.py: d0 = sigma(u0) + shift
SWEEP_U0 = (0.2, 0.35, 0.5, 0.65, 0.8)
SWEEP_SHIFTS_ABOVE = (0.01, 0.05, 0.2)
SWEEP_SHIFTS_BELOW = (-0.05, -0.01)
SWEEP_T_END = 200.0
# set-up samples: one before each pass, the rest after the last pass, so
# that set-up and passes see the machine at the same moments
SETUP_SAMPLES = 10
# fewest passes per run, and per kind of pass when a traced run alternates
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
CHILD_TIMEOUT_S = 60.0
SETUP_CODE = "import nltraffic; nltraffic.default_curve()"
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {"kernels.nonlocal_field.calls": "count"}
    units.update({f"kernels.nonlocal_field.{t}.self_s": "s" for t in KERNEL_TAGS})
    for spelling in MICRO_KERNELS:
        tag = spelling.replace(":L=", "_L")
        units.update({f"kernels.nonlocal_field_us.{tag}.n{n}": "us" for n in MICRO_SIZES})
    units["solver.steps"] = "count"
    for layer in ("evolve", "numerical_flux", "gradient_indicator", "Diagnostics.write_csv"):
        units[f"solver.{layer}.self_s"] = "s"
    units.update({f"solver.us_per_step.{t}": "us" for t in KERNEL_TAGS})
    units["solver.cell_steps_per_s"] = "1/s"
    units.update({
        spans.CONSTRUCTIONS: "count",
        "grid.total_mass.calls": "count",
        "grid.total_mass.self_s": "s",
        "grid.write_profile_csv.self_s": "s",
        spans.PROFILE_BYTES: "bytes",
        "scenarios.run_experiment.self_s": "s",
        "scenarios.bytes_written": "bytes",
        "threshold.default_curve.build_s": "s",
        "threshold.classify_initial_data.self_s": "s",
        "threshold.write_threshold_csv.self_s": "s",
        "characteristics.integrate_characteristic.self_s": "s",
        "characteristics.phase_trajectory.self_s": "s",
        "characteristics.supercritical_bounds.self_s": "s",
        "cli.import_s": "s",
    })
    units.update({f"cli.dispatch_s.{c}": "s" for c in CLI_SUBCOMMANDS})
    units["trace.overhead_frac"] = "frac"
    units["trace.accounted_frac"] = "frac"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# machine facts and child processes


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts() -> str:
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        "unknown",
    )
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    l3 = f"{int(l3[:-1]) // 1024} MiB" if l3.endswith("K") else l3 or "unknown"
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg} {version(pkg)}")
        except PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return (
        f"machine: nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, L3 {l3}, "
        f"python {sys.version.split()[0]}, {', '.join(versions)}"
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stderr_path: Path) -> tuple[int, str, float, float]:
    """Run cmd from the repository root and wait for it.

    Returns (exit code, stdout, wall seconds from spawn to exit, peak RSS
    in MiB).  A child still running after CHILD_TIMEOUT_S is killed.
    """
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def measure_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters doing import + first curve build."""
    samples = []
    err = WORK / "setup.err"
    for _ in range(count):
        code, _, wall, _ = spawn([sys.executable, "-c", SETUP_CODE], err)
        if code != 0:
            raise BenchError(f"set-up exited {code}: {err.read_text()[-800:]}")
        samples.append(wall)
    return samples


def timed_passes(seconds: float, run_pass, min_passes: int, before_pass) -> None:
    """Call before_pass(), run_pass(0), before_pass(), run_pass(1), ... until the time is up."""
    start = time.perf_counter()
    done = 0
    while True:
        before_pass()
        run_pass(done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + 0.5 * elapsed / done >= seconds:
            return


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def merge(total: dict, summary: dict) -> dict:
    for name, row in summary.items():
        acc = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]
    return total


def layer_metrics(summary, counts, steps, evolve_s, n_cells, wall, bytes_written, root=None):
    """Per-layer metrics of one traced pass.

    root names the span that wraps the whole timed pass, if any; its self
    time is the pass's time outside every named layer, so
    trace.accounted_frac leaves it out.
    """

    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    m = {
        "kernels.nonlocal_field.calls": sum(
            row["calls"] for name, row in summary.items()
            if name.startswith("kernels.nonlocal_field.")
        )
    }
    for tag in KERNEL_TAGS:
        m[f"kernels.nonlocal_field.{tag}.self_s"] = get(f"kernels.nonlocal_field.{tag}")
    m["solver.steps"] = sum(steps.values())
    for layer in ("evolve", "numerical_flux", "gradient_indicator", "Diagnostics.write_csv"):
        m[f"solver.{layer}.self_s"] = get(f"solver.{layer}")
    for tag in KERNEL_TAGS:
        m[f"solver.us_per_step.{tag}"] = (
            1e6 * evolve_s[tag] / steps[tag] if steps.get(tag) else 0.0
        )
    evolve_total = sum(evolve_s.values())
    m["solver.cell_steps_per_s"] = (
        n_cells * m["solver.steps"] / evolve_total if evolve_total else 0.0
    )
    m[spans.CONSTRUCTIONS] = counts[spans.CONSTRUCTIONS]
    m["grid.total_mass.calls"] = get("grid.total_mass", "calls")
    m["grid.total_mass.self_s"] = get("grid.total_mass")
    m["grid.write_profile_csv.self_s"] = get("grid.write_profile_csv")
    m[spans.PROFILE_BYTES] = counts[spans.PROFILE_BYTES]
    m["scenarios.run_experiment.self_s"] = get("scenarios.run_experiment")
    m["scenarios.bytes_written"] = bytes_written
    m["threshold.default_curve.build_s"] = get("threshold.default_curve")
    for name in (
        "threshold.classify_initial_data",
        "threshold.write_threshold_csv",
        "characteristics.integrate_characteristic",
        "characteristics.phase_trajectory",
        "characteristics.supercritical_bounds",
    ):
        m[f"{name}.self_s"] = get(name)
    m["trace.accounted_frac"] = sum(
        row["self_s"] for name, row in summary.items() if name != root
    ) / wall
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; counts stay whole numbers."""
    out = {}
    for name in per_pass[0] if per_pass else ():
        values = [p[name] for p in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def kernel_microbench() -> dict:
    """Median microseconds per nonlocal_field call on the bump datum."""
    from nltraffic.grid import GridFunction, GridSpec
    from nltraffic.kernels import nonlocal_field, parse_kernel
    from nltraffic.scenarios import bump_init

    out = {}
    for n in MICRO_SIZES:
        u = GridFunction.from_callable(GridSpec(-6.0, 10.0, n), bump_init)
        for spelling in MICRO_KERNELS:
            kernel = parse_kernel(spelling)
            timer = timeit.Timer(lambda: nonlocal_field(u, kernel))
            number, _ = timer.autorange()
            per_call = statistics.median(timer.repeat(5, number)) / number
            out[f"kernels.nonlocal_field_us.{kernel.tag}.n{n}"] = 1e6 * per_call
    return out


# ---------------------------------------------------------------------------
# workloads


class Run:
    """What one benchmark run measured."""

    def __init__(self):
        self.walls: dict[bool, list[float]] = {False: [], True: []}  # per pass
        self.attempted = 0
        self.problems: list[str] = []
        self.layers: list[dict] = []
        self.notes: list[str] = []
        self.extra_layers: dict[str, float] = {}
        self.peak_rss_mib = 0.0

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{op}: {'; '.join(problems)}")

    def wall_s(self, traced: bool = False) -> float:
        """Median wall time of a pass."""
        return statistics.median(self.walls[traced] or [0.0])


def run_compare(workload: str, seconds: float, trace: bool, trace_dir: Path, before_pass) -> Run:
    import nltraffic
    from nltraffic.scenarios import RECIPES, customized, run_experiment

    recipe = RECIPES[RECIPE_OF[workload]]
    nltraffic.default_curve()  # set-up; its cost is what setup_s measures
    run_experiment(customized(recipe, n_cells=400), WORK / "warmup")
    shutil.rmtree(WORK / "warmup")

    run = Run()
    out = WORK / "bundle"
    untraced_ops: list[tuple[dict, dict]] = []  # (steps, evolve_s) per pass
    tracers: dict[int, Tracer] = {}  # traced passes, written out at the end
    steps_seen: dict[str, int] = {}

    def one_pass(i: int) -> None:
        traced = trace and i % 2 == 1
        tracer = Tracer()
        if traced:
            tracer.install(spans.ALL_LAYERS)
        else:
            tracer.install(spans.OP_LAYERS, count_grid=False)
        call = tracer.wrap(run_experiment, "scenarios.run_experiment")
        start = time.perf_counter()
        try:
            result = call(recipe, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        wall = time.perf_counter() - start
        tracer.uninstall()

        if isinstance(result, Exception):
            for tag in KERNEL_TAGS:
                run.record(f"pass {i} {tag}", [f"run_experiment raised {result!r}"])
            shutil.rmtree(out, ignore_errors=True)
            return
        for tag, problems in checks.check_experiment(result, recipe, out).items():
            run.record(f"pass {i} {tag}", problems)
        steps = {tag: len(d.t) - 1 for tag, d in result.diagnostics.items()}
        steps_seen.update(steps)
        evolves = [s for s in tracer.spans if s[0] == "solver.evolve"]
        evolve_s = {k.tag: (s[2] - s[1]) * 1e-9 for k, s in zip(recipe.kernels, evolves)}
        run.walls[traced].append(wall)
        if traced:
            tracers[i] = tracer
            run.layers.append(layer_metrics(
                spans.summarize(tracer.spans), tracer.counts, steps, evolve_s,
                recipe.n_cells, wall, sum((out / f).stat().st_size for f in result.files),
                root="scenarios.run_experiment",
            ))
        else:
            untraced_ops.append((steps, evolve_s))
        shutil.rmtree(out)

    timed_passes(seconds, one_pass, 2 * MIN_TRACE_PASSES if trace else MIN_PASSES, before_pass)
    for i, tracer in tracers.items():
        tracer.dump(trace_dir / f"{workload}-pass{i}.json")

    cell_steps = sum(recipe.n_cells * sum(st.values()) for st, _ in untraced_ops)
    evolve_time = sum(sum(ev.values()) for _, ev in untraced_ops)
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.notes += [
        f"seed: unused, {workload} runs the fixed {recipe.name} recipe data",
        f"working set: {recipe.n_cells}-cell float64 arrays of {recipe.n_cells * 8 // 1000} KB, "
        "cache-resident against the L3 above, so bandwidth and roofline metrics are omitted",
        f"counts per pass: solver.steps = {sum(steps_seen.values())} "
        f"({', '.join(f'{t} {s}' for t, s in steps_seen.items())})",
        f"cell_steps_per_s = {cell_steps / evolve_time if evolve_time else 0.0:.6g} 1/s "
        "(sum n*steps / sum evolve time, untraced passes)",
    ]
    return run


def cli_commands(rng: random.Random) -> list[tuple[list[str], tuple]]:
    """One pass of CLI commands with their expected outcomes.

    The (u0, d0) points are drawn from the seed grid of scripts/phase_sweep.py,
    one above and one below sigma(u0) = u0 (1 - u0); like that script, bounds
    uses m = 0 (the CLI default) and the time-mode portrait the factor 1.
    """
    u0 = rng.choice(SWEEP_U0)
    sigma = u0 * (1.0 - u0)
    d_super = sigma + rng.choice(SWEEP_SHIFTS_ABOVE)
    d_sub = sigma + rng.choice(SWEEP_SHIFTS_BELOW)
    r = repr
    return [
        (["classify", "--datum", "bump"], ("verdict", "SUPERCRITICAL")),
        (["classify", "--datum", "subinit"], ("verdict", "SUBCRITICAL")),
        (["bounds", "--d0", r(d_super), "--u0", r(u0)], ("t_star",)),
        (
            ["phase-portrait", "--d0", r(d_super), "--u0", r(u0), "--factor", "1",
             "--t-end", r(SWEEP_T_END)],
            ("blowup", SWEEP_T_END),
        ),
        (["phase-portrait", "--d0", r(d_sub), "--u0", r(u0)], ("below_curve",)),
        (["threshold-curve", "--samples", "1001"], ("curve", 1001)),
    ]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with TAIL_BEYOND samples above it.

    None when that sample would not lie above the median.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND  # 1-based rank
    if k < len(ordered) / 2:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def run_cli(seed: int, seconds: float, trace: bool, trace_dir: Path, before_pass) -> Run:
    rng = random.Random(seed)
    run = Run()
    cli_latencies: list[float] = []  # untraced invocations
    rss: list[float] = []
    imports: list[float] = []
    dispatch: dict[str, list[float]] = {c: [] for c in CLI_SUBCOMMANDS}
    out_root = WORK / "cli"
    out_root.mkdir(parents=True, exist_ok=True)

    def one_pass(i: int) -> None:
        traced = trace and i % 2 == 1
        latencies = []
        summary: dict = {}
        counts: Counter = Counter()
        written = 0
        for j, (argv, expect) in enumerate(cli_commands(rng)):
            out = out_root / f"cmd{j}"
            spans_path = trace_dir / f"cli-cold-pass{i}-cmd{j}.json"
            head = (
                [sys.executable, str(HERE / "cli_child.py"), str(spans_path)]
                if traced else [sys.executable, "-m", "nltraffic.cli"]
            )
            code, stdout, took, peak = spawn([*head, *argv, "--out", str(out)], out_root / "err")
            latencies.append(took)
            try:
                problems = checks.check_cli(expect, code, stdout, out)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            run.record(f"pass {i} {' '.join(argv)}", problems)
            if traced:
                written += dir_bytes(out) if out.exists() else 0
                if spans_path.is_file():
                    child_spans, child_counts = spans.load(spans_path)
                    child = spans.summarize(child_spans)
                    merge(summary, child)
                    counts.update(child_counts)
                    imports.append(child["cli.import"]["total_s"])
                    for sub in CLI_SUBCOMMANDS:
                        if f"cli.dispatch.{sub}" in child:
                            dispatch[sub].append(child[f"cli.dispatch.{sub}"]["total_s"])
            else:
                rss.append(peak)
                cli_latencies.append(took)
            shutil.rmtree(out, ignore_errors=True)
        run.walls[traced].append(sum(latencies))
        if traced:
            run.layers.append(
                layer_metrics(summary, counts, {}, {}, 0, sum(latencies), written)
            )

    timed_passes(seconds, one_pass, 2 * MIN_TRACE_PASSES if trace else MIN_PASSES, before_pass)
    shutil.rmtree(out_root, ignore_errors=True)

    run.peak_rss_mib = statistics.median(rss)
    tail = tail_percentile(cli_latencies)
    run.notes += [
        f"seed: {seed}, draws the (u0, d0) points of the cli-cold passes",
        f"cli_latency_p50_s = {statistics.median(cli_latencies):.6g} s "
        f"(median of {len(cli_latencies)} invocations)",
        f"cli_latency_tail_s = {tail[1]:.6g} s (p{tail[0]:.0f}, {TAIL_BEYOND} of "
        f"{len(cli_latencies)} invocations beyond it)"
        if tail else f"cli_latency_tail_s: n/a, fewer than {2 * TAIL_BEYOND} invocations",
    ]
    if trace:
        run.extra_layers = {
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            **{f"cli.dispatch_s.{c}": statistics.median(v) if v else 0.0
               for c, v in dispatch.items()},
        }
    return run


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nltraffic" / "__init__.py").is_file():
        raise BenchError(f"no nltraffic sources under {SRC}")
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    trace = bool(args.trace)

    measure_setup(1)  # compiles the bytecode
    # a traced run spends its seconds on the microbenchmarks first, then on passes
    start = time.perf_counter()
    micro = kernel_microbench() if trace else {}
    seconds = max(0.0, args.seconds - (time.perf_counter() - start))
    setup: list[float] = []

    def before_pass() -> None:
        if not trace and len(setup) < SETUP_SAMPLES:
            setup.extend(measure_setup(1))

    if args.workload == "cli-cold":
        run = run_cli(args.seed, seconds, trace, trace_dir, before_pass)
    else:
        run = run_compare(args.workload, seconds, trace, trace_dir, before_pass)
    if not trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))

    failed = len(run.problems)
    lines = [
        f"nltraffic benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        machine_facts(),
        "load: one client, closed loop, one operation at a time, no thread pool",
        *run.notes,
        f"passes: {len(run.walls[False])} untraced, {len(run.walls[True])} traced",
        *([f"setup_s samples: {SETUP_SAMPLES} fresh interpreters running `{SETUP_CODE}`"]
          if setup else []),
        f"ops_failed_frac = {failed / run.attempted:.6g} "
        f"({failed} failed of {run.attempted} attempted)",
        *[f"FAILED {p}" for p in run.problems[:10]],
    ]
    if trace:
        metrics = median_metrics(run.layers)
        metrics.update(run.extra_layers)
        metrics.update(micro)
        untraced = run.wall_s()
        metrics["trace.overhead_frac"] = run.wall_s(traced=True) / untraced - 1.0 if untraced else 0.0
        units = per_layer_units()
        metrics = {name: metrics.get(name, 0.0) for name in units}
        lines.append(f"spans: {trace_dir.relative_to(ROOT)}/")
    else:
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": run.wall_s(),
            "peak_rss_mib": run.peak_rss_mib,
        }
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"{name} = {shown} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
