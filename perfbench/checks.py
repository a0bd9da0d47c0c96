"""Correctness gates for the benchmark's operations.

An operation is one kernel's evolve inside a recipe run, or one CLI
invocation.  Each gate returns a list of problems; an operation with any
problem counts as failed.  The gates only read results, so the self-test
can feed them corrupted copies.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

DENSITY_TOL = 1e-8
MASS_DRIFT_PER_CELL = 1e-12
# how many solver steps t_detect may move from its reference value
T_DETECT_STEPS = 2

# Reference outcome of each recipe at n = 4000, measured when this benchmark
# was added: the classifier verdict and, per kernel, the breakdown detection
# time (None: the kernel must not detect a breakdown).
RECIPE_REFERENCE = {
    "supercritical-compare": {
        "verdict": "SUPERCRITICAL",
        "t_detect": {"zero": 0.6786, "sk": 0.8694, "infinite": 1.2384, "uniform": 1.0579},
    },
    "subcritical-compare": {
        "verdict": "SUBCRITICAL",
        "t_detect": {"zero": 6.075, "sk": 10.125, "infinite": None, "uniform": 16.2058},
    },
}


def check_kernel(diag, n_cells: int, t_ref: float | None) -> list[str]:
    """Gate one kernel's evolve: detection, t_detect, mass drift, range."""
    problems = []
    report = diag.blowup
    if report.detected != (t_ref is not None):
        want = "a breakdown" if t_ref is not None else "no breakdown"
        problems.append(f"expected {want}, detected={report.detected}")
    elif t_ref is not None:
        times = diag.t
        step = max(b - a for a, b in zip(times, times[1:]))
        if not abs(report.t_detect - t_ref) <= T_DETECT_STEPS * step:
            problems.append(
                f"t_detect {report.t_detect!r} is more than {T_DETECT_STEPS} steps "
                f"({step:.3g} each) from {t_ref}"
            )
    if not diag.max_mass_drift <= MASS_DRIFT_PER_CELL * n_cells:
        problems.append(f"mass drift {diag.max_mass_drift:.3e} > {MASS_DRIFT_PER_CELL}*n")
    lo, hi = min(diag.min_u), max(diag.max_u)
    if lo < -DENSITY_TOL or hi > 1.0 + DENSITY_TOL:
        problems.append(f"density left [0, 1]: [{lo:.3e}, {hi:.3e}]")
    return problems


def check_experiment(result, recipe, out_dir) -> dict[str, list[str]]:
    """Problems per kernel tag of one run_experiment result.

    A problem of the whole bundle (verdict, missing files) is charged to
    every kernel, since each kernel's operation produced part of it.
    """
    reference = RECIPE_REFERENCE[recipe.name]
    shared = []
    verdict = result.classification.verdict
    if verdict != reference["verdict"]:
        shared.append(f"verdict {verdict} != {reference['verdict']}")
    missing = [f for f in result.files if not (Path(out_dir) / f).is_file()]
    if missing:
        shared.append(f"{len(missing)} listed bundle files missing, e.g. {missing[0]}")
    problems = {}
    for kernel in recipe.kernels:
        tag = kernel.tag
        diag = result.diagnostics.get(tag)
        if diag is None:
            problems[tag] = shared + ["no diagnostics for this kernel"]
        else:
            t_ref = reference["t_detect"][tag]
            problems[tag] = shared + check_kernel(diag, recipe.n_cells, t_ref)
    return problems


def _last_line(stdout: str) -> str:
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _printed_number(stdout: str, pattern: str) -> float | None:
    match = re.fullmatch(pattern, _last_line(stdout))
    return float(match.group(1)) if match else None


def _csv_rows(path: Path) -> tuple[str, list[list[float]]]:
    header, *rows = path.read_text().splitlines()
    return header, [[float(v) for v in row.split(",")] for row in rows]


def check_cli(expect: tuple, returncode: int, stdout: str, out_dir) -> list[str]:
    """Gate one CLI invocation against its expected outcome.

    expect is one of ("verdict", name), ("t_star",), ("blowup", t_end),
    ("below_curve",) or ("curve", samples).
    """
    if returncode != 0:
        return [f"exit code {returncode}: {_last_line(stdout)!r}"]
    out = Path(out_dir)
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return ["no manifest.json"]
    missing = [f for f in json.loads(manifest.read_text())["files"] if not (out / f).is_file()]
    if missing:
        return [f"{len(missing)} files listed in the manifest missing, e.g. {missing[0]}"]
    kind = expect[0]
    if kind == "verdict":
        got = _last_line(stdout)
        return [] if got == expect[1] else [f"verdict {got!r} != {expect[1]!r}"]
    if kind == "t_star":
        t = _printed_number(stdout, r"T_star_sharp = (\S+)")
        ok = t is not None and math.isfinite(t) and t > 0
        return [] if ok else [f"no finite positive T_star_sharp in {_last_line(stdout)!r}"]
    if kind == "blowup":
        t = _printed_number(stdout, r"slope blow-up at t = (\S+)")
        ok = t is not None and 0 < t <= expect[1]
        return [] if ok else [f"no blow-up within t <= {expect[1]}: {_last_line(stdout)!r}"]
    if kind == "below_curve":
        # a path that starts below sigma(u) = u(1-u) never crosses it
        header, rows = _csv_rows(out / "trajectory.csv")
        above = [u for u, d in rows if d > u * (1.0 - u) + 1e-9]
        if header != "u,d" or len(rows) < 2 or above:
            return [f"phase path crosses sigma(u) (header {header!r}, {len(rows)} rows)"]
        return []
    if kind == "curve":
        header, rows = _csv_rows(out / "threshold_curve.csv")
        off = [u for u, s in rows if abs(s - u * (1.0 - u)) > 1e-12]
        if header != "u,sigma" or len(rows) != expect[1] or off:
            return [f"threshold curve wrong ({len(rows)} rows, {len(off)} off u(1-u))"]
        return []
    raise ValueError(f"unknown expectation {expect!r}")
