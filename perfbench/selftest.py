"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one real subcritical-compare recipe and one real round of the cli-cold
commands, requires the gate to pass them, then corrupts one result at a
time (a flipped verdict, a shifted t_detect, a wrong exit code, ...) and
requires the gate to count each corruption as a failed operation.  Exits
0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import sys

import checks
import run as bench

SELFTEST = bench.WORK / "selftest"


def failed_ops(problems_by_op: dict[str, list[str]]) -> int:
    """Failed operations as the benchmark run counts them."""
    tally = bench.Run()
    for op, problems in problems_by_op.items():
        tally.record(op, problems)
    return len(tally.problems)


def recipe_cases(result, recipe, out):
    """(name, corrupted result, expected failed kernels) for one recipe run."""
    flipped = dataclasses.replace(result.classification, verdict="SUPERCRITICAL")
    yield "verdict flipped", dataclasses.replace(result, classification=flipped), 4

    def with_diag(tag, change):
        diags = copy.deepcopy(result.diagnostics)
        change(diags[tag])
        return dataclasses.replace(result, diagnostics=diags)

    def shift_t_detect(d):
        step = d.t[-1] - d.t[-2]
        d.blowup = dataclasses.replace(d.blowup, t_detect=d.blowup.t_detect + 3 * step)

    def detect(d):
        d.blowup = dataclasses.replace(d.blowup, detected=True, t_detect=1.0)

    yield "t_detect off by 3 steps", with_diag("zero", shift_t_detect), 1
    yield "smooth kernel detects", with_diag("infinite", detect), 1
    yield "mass drift", with_diag("sk", lambda d: setattr(d, "max_mass_drift", 1e-6)), 1
    yield "negative density", with_diag("uniform", lambda d: d.min_u.append(-1e-6)), 1
    missing = dataclasses.replace(result, files=[*result.files, f"{recipe.name}/gone.csv"])
    yield "bundle file missing", missing, 4


def cli_cases(expect, code, stdout, out):
    """(name, corrupted (code, stdout), expected failed) for one CLI result."""
    kind = expect[0]
    yield "exit code 3", (3, stdout), 1
    if kind == "verdict":
        other = "SUBCRITICAL" if expect[1] == "SUPERCRITICAL" else "SUPERCRITICAL"
        yield "verdict flipped", (code, other + "\n"), 1
    elif kind == "t_star":
        yield "T_star_sharp nan", (code, "T_star_sharp = nan\n"), 1
    elif kind == "blowup":
        yield "no blow-up printed", (code, ""), 1


def corrupt_file(out, kind):
    """Break the artifact a CLI check reads; returns a name or None."""
    if kind == "below_curve":
        with open(out / "trajectory.csv", "a") as fh:
            fh.write("0.5,0.3\n")  # sigma(0.5) = 0.25
        return "phase path above sigma"
    if kind == "curve":
        path = out / "threshold_curve.csv"
        path.write_text(path.read_text().replace("0.25\n", "0.2500001\n"))
        return "sigma off u(1-u)"
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"].append("gone.csv")
    (out / "manifest.json").write_text(json.dumps(manifest))
    return "manifest lists a missing file"


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    from nltraffic.scenarios import RECIPES, run_experiment

    shutil.rmtree(SELFTEST, ignore_errors=True)
    SELFTEST.mkdir(parents=True)
    misses = []

    def expect(name, got, want):
        status = "caught" if got == want else "MISSED"
        print(f"{status}: {name} ({got} failed operations, want {want})")
        if got != want:
            misses.append(name)

    recipe = RECIPES["subcritical-compare"]
    out = SELFTEST / "bundle"
    result = run_experiment(recipe, out)
    expect("clean recipe run", failed_ops(checks.check_experiment(result, recipe, out)), 0)
    for name, bad, want in recipe_cases(result, recipe, out):
        expect(f"recipe: {name}", failed_ops(checks.check_experiment(bad, recipe, out)), want)

    for j, (argv, exp) in enumerate(bench.cli_commands(random.Random(0))):
        out = SELFTEST / f"cmd{j}"
        cmd = [sys.executable, "-m", "nltraffic.cli", *argv, "--out", str(out)]
        code, stdout, _, _ = bench.spawn(cmd, SELFTEST / "err")
        label = f"cli {argv[0]} {exp[0]}"
        expect(f"{label}: clean", failed_ops({label: checks.check_cli(exp, code, stdout, out)}), 0)
        for name, (bad_code, bad_out), want in cli_cases(exp, code, stdout, out):
            got = failed_ops({label: checks.check_cli(exp, bad_code, bad_out, out)})
            expect(f"{label}: {name}", got, want)
        name = corrupt_file(out, exp[0])
        expect(f"{label}: {name}", failed_ops({label: checks.check_cli(exp, code, stdout, out)}), 1)

    shutil.rmtree(SELFTEST)
    print(f"self-test: {'FAILED, missed ' + ', '.join(misses) if misses else 'every corruption caught'}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
