"""Command-line front end.

Subcommands: classify, evolve, compare-kernels, phase-portrait, phase-sweep,
threshold-curve, bounds.  All output lands under --out as CSV/JSON plus a
manifest.json recording the effective options and the files written.
classify, evolve and compare-kernels run one Experiment and print its
verdict, then one line per kernel: breakdown or smooth, and mass drift.
Density is checked by ThresholdCurve.eval (classify) and require_runnable.

Options may also come from a flat config file (--config) of `key = value`
lines with `#` comments; explicit command-line flags win over the file,
which wins over built-in defaults.  Exit codes: 0 success, 2 validation
error or a size too large to allocate, 3 numerical failure (a diagnostic
dump is written).  Only evolve and compare-kernels, which step the solver,
load numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .characteristics import (
    ConstantFactor,
    integrate_characteristic,
    phase_trajectory,
    supercritical_bounds,
)
from .threshold import default_curve, write_threshold_csv
from .writers import write_csv, write_json

if TYPE_CHECKING:
    from .scenarios import Experiment, ExperimentResult


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config's `key = value` lines into `--key value` flags before the explicit ones."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    if argv[0].startswith("-"):  # the file's flags go after the subcommand, argv[0]
        raise ValueError("--config: give it after the subcommand")
    if path.startswith("--"):
        raise ValueError(f"--config: expected a file name, got {path!r}")
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (ValueError, OSError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"--config: {exc}") from None
    flags: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"--config: {path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.extend(["--" + key.replace("_", "-"), value])
    return argv[:1] + flags + argv[1:]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--config", default=None, help="key = value options file")

    parser = argparse.ArgumentParser(
        prog="nltraffic",
        description="nonlocal traffic-flow laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_grid_opts(p):
        p.add_argument("--datum", default="bump", help="initial profile name")
        p.add_argument("--n-cells", type=int, default=4000)
        p.add_argument("--x-left", type=float, default=None)
        p.add_argument("--x-right", type=float, default=None)

    p = sub.add_parser("classify", parents=[common], help="threshold verdict for a datum")
    add_grid_opts(p)

    p = sub.add_parser("evolve", parents=[common], help="evolve one kernel")
    add_grid_opts(p)
    p.add_argument("--kernel", default="infinite", help="look-ahead kernel")
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--snapshots", default=None, help="comma list of times")

    p = sub.add_parser(
        "compare-kernels", parents=[common], help="all four reference kernels"
    )
    add_grid_opts(p)
    p.add_argument("--t-end", type=float, default=None)

    p = sub.add_parser(
        "phase-portrait", parents=[common], help="one characteristic trajectory"
    )
    p.add_argument("--d0", type=float, required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--u-end", type=float, default=None, help="phase mode: stop density")
    p.add_argument("--factor", type=float, default=None, help="time mode: constant factor")
    p.add_argument("--t-end", type=float, default=10.0)

    sub.add_parser("phase-sweep", parents=[common], help="25 characteristics straddling sigma")

    p = sub.add_parser(
        "threshold-curve", parents=[common], help="tabulate the critical curve"
    )
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("bounds", parents=[common], help="analytic blow-up certificate")
    p.add_argument("--d0", type=float, required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--m", type=float, default=0.0)

    return parser


def _is_negative_value(token: str) -> bool:
    try:
        [float(s) for s in token.split(",") if s]
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join `--opt -inf` and `--opt -0.5,1` into `--opt=-inf` and `--opt=-0.5,1`.

    argparse takes a token such as -inf, -nan, -1e3 or -0.5,1 for an option of
    its own, so the option would lose its value and the validation of that
    value would never run.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _is_negative_value(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def parse_args(argv: list[str]):
    return build_parser().parse_args(_attach_negative_values(_inject_config(list(argv))))


def _experiment(args) -> Experiment:
    """The Experiment that the options of classify, evolve or compare-kernels describe.

    --datum picks the profile, --x-left/--x-right replace the ends of its
    recommended domain and --n-cells sets the resolution.  classify evolves
    no kernel, evolve the one --kernel names, and compare-kernels runs the
    datum's recipe in RECIPES, to --t-end if given.
    """
    from .kernels import parse_kernel
    from .scenarios import RECIPES, Experiment, even_snapshots, get_datum
    datum = get_datum(args.datum)
    datum = replace(datum, domain=(
        datum.domain[0] if args.x_left is None else args.x_left,
        datum.domain[1] if args.x_right is None else args.x_right,
    ))
    if args.subcommand == "classify":
        return Experiment(name=f"classify-{datum.name}", datum=datum, kernels=(),
                          n_cells=args.n_cells)
    if args.subcommand == "compare-kernels":
        recipe = next(r for r in RECIPES.values() if r.datum.name == datum.name)
        t_end = recipe.t_end if args.t_end is None else args.t_end
        return replace(recipe, datum=datum, n_cells=args.n_cells, t_end=t_end,
                       snapshot_times=even_snapshots(t_end))
    try:
        kernel = parse_kernel(args.kernel)
    except ValueError as exc:
        raise ValueError(f"--kernel: {exc}") from None
    snaps = even_snapshots(args.t_end)
    if args.snapshots is not None:
        try:
            snaps = tuple(float(s) for s in args.snapshots.split(",") if s)
        except ValueError as exc:
            raise ValueError(f"--snapshots: {exc}") from None
    return Experiment(name=f"evolve-{datum.name}", datum=datum, kernels=(kernel,),
                      n_cells=args.n_cells, t_end=args.t_end, snapshot_times=snaps)


def _recorded(args) -> dict:
    """The command and its options, as manifest.json and failure_dump.json record them."""
    # an option that a mode ignores may be non-finite; JSON has no nan or inf
    options = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in sorted(vars(args).items()) if k != "subcommand"}
    return {"command": args.subcommand, "options": options}


def run_experiment(exp: Experiment, out_dir) -> ExperimentResult:
    """scenarios.run_experiment, imported at the first call: the other commands never load numpy."""
    from .scenarios import run_experiment
    return run_experiment(exp, out_dir)


def dispatch(args) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():  # refused before any work, not at the first write
        raise ValueError(f"--out: {out} exists and is not a directory")
    files: list[str] = []

    if args.subcommand in ("classify", "evolve", "compare-kernels"):
        exp = _experiment(args)
        # only a run that steps can fail numerically; () catches nothing: classify loads no solver
        failure = import_module(".solver", __package__).SolverFailure if exp.kernels else ()
        try:
            result = run_experiment(exp, out)
        except failure as exc:
            path = out / "failure_dump.json"
            write_json(path, {"error": str(exc), **exc.dump, **_recorded(args)})
            print(f"numerical failure: {exc} (dump: {path})", file=sys.stderr)
            return 3
        files += result.files
        print(result.classification.verdict)
        for tag, diag in result.diagnostics.items():
            rep = diag.blowup
            status = f"breakdown at t = {rep.t_detect:g}" if rep.detected else "smooth"
            print(f"{tag}: {status}, mass drift {diag.max_mass_drift:.3e}")

    elif args.subcommand == "phase-portrait":
        if args.factor is not None:
            traj = integrate_characteristic(
                args.d0, args.u0, ConstantFactor(args.factor), t_end=args.t_end
            )
            write_csv(out / "trajectory.csv", "t,d,u", (traj.t, traj.d, traj.u))
            if traj.blowup_time is not None:
                print(f"slope blow-up at t = {traj.blowup_time:g}")
        else:
            u_end = args.u_end if args.u_end is not None else args.u0 / 100.0
            traj = phase_trajectory(args.d0, args.u0, u_end)
            write_csv(out / "trajectory.csv", "u,d", (traj.u, traj.d))
        files.append("trajectory.csv")

    elif args.subcommand == "phase-sweep":
        curve = default_curve()
        rows = []
        for u0 in (0.2, 0.35, 0.5, 0.65, 0.8):
            sigma = curve.eval(u0)
            for shift in (-0.05, -0.01, 0.01, 0.05, 0.2):
                d0 = sigma + shift
                traj = integrate_characteristic(d0, u0, ConstantFactor(1.0), t_end=200.0)
                sharp = math.nan
                if shift > 0:
                    sharp = supercritical_bounds(d0, u0, m=0.0).T_star_sharp
                    files.append(f"traj_u{u0:g}_shift{shift:g}.csv")
                    write_csv(out / files[-1], "t,d,u", (traj.t, traj.d, traj.u))
                blown_up = traj.blowup_time is not None
                t_blowup = traj.blowup_time if blown_up else math.nan
                rows.append((u0, d0, shift, int(blown_up), t_blowup, sharp))
        write_csv(out / "sweep.csv", "u0,d0,shift,blown_up,t_blowup,T_star_sharp", list(zip(*rows)))
        files.append("sweep.csv")

    elif args.subcommand == "threshold-curve":
        write_threshold_csv(default_curve(), out / "threshold_curve.csv", args.samples)
        files.append("threshold_curve.csv")

    elif args.subcommand == "bounds":
        bounds = supercritical_bounds(args.d0, args.u0, args.m)
        write_json(out / "bounds.json", asdict(bounds))
        files.append("bounds.json")
        print(f"T_star_sharp = {bounds.T_star_sharp:g}")

    write_json(out / "manifest.json", {**_recorded(args), "files": sorted(files)})
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return dispatch(parse_args(argv))
    except SystemExit as exc:  # argparse's own errors, -h and --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}; lower --n-cells or --samples",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
