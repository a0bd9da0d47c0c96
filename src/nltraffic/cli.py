"""Command-line front end.

Subcommands: classify, evolve, compare-kernels, phase-portrait,
threshold-curve, bounds.  All output lands under --out as CSV/JSON plus a
manifest.json recording the effective options and the files written.

Options may also come from a flat config file (--config) of `key = value`
lines with `#` comments; explicit command-line flags win over the file,
which wins over built-in defaults.  Exit codes: 0 success, 2 validation
error or a size too large to allocate, 3 numerical failure (a diagnostic
dump is written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .characteristics import (
    ConstantFactor,
    integrate_characteristic,
    phase_trajectory,
    supercritical_bounds,
)
from .grid import write_csv, write_json
from .kernels import parse_kernel
from .scenarios import RECIPES, Experiment, get_datum, run_experiment
from .solver import SolverFailure
from .threshold import default_curve, write_threshold_csv


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config into flags placed before the explicit ones."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
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
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags.extend([flag, value])
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

    def add_grid_opts(p, with_kernel=False):
        p.add_argument("--datum", default="bump", help="initial profile name")
        p.add_argument("--n-cells", type=int, default=4000)
        p.add_argument("--x-left", type=float, default=None)
        p.add_argument("--x-right", type=float, default=None)
        if with_kernel:
            p.add_argument("--kernel", default="infinite", help="look-ahead kernel")

    p = sub.add_parser("classify", parents=[common], help="threshold verdict for a datum")
    add_grid_opts(p)

    p = sub.add_parser("evolve", parents=[common], help="evolve one kernel")
    add_grid_opts(p, with_kernel=True)
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--snapshots", default=None, help="comma list of times")
    p.add_argument(
        "--run-past-blowup",
        action="store_true",
        help="keep evolving after breakdown detection",
    )

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

    p = sub.add_parser(
        "threshold-curve", parents=[common], help="tabulate the critical curve"
    )
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("bounds", parents=[common], help="analytic blow-up certificate")
    p.add_argument("--d0", type=float, required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--m", type=float, default=0.0)

    return parser


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join `--opt -inf` into `--opt=-inf`.

    argparse takes a token such as -inf, -nan or -1e3 for an option of its
    own, so the option would lose its value and the validation of that value
    would never run.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _is_negative_number(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def parse_args(argv: list[str]):
    return build_parser().parse_args(_attach_negative_values(_inject_config(list(argv))))


def _experiment(args, name: str, kernels: tuple, **fields) -> Experiment:
    """The Experiment that the grid options of args describe.

    --datum picks the profile, --x-left/--x-right replace the ends of its
    recommended domain and --n-cells sets the resolution; fields set the rest.
    """
    datum = get_datum(args.datum)
    domain = (
        datum.domain[0] if args.x_left is None else args.x_left,
        datum.domain[1] if args.x_right is None else args.x_right,
    )
    return Experiment(
        name=name,
        datum=replace(datum, domain=domain),
        kernels=kernels,
        n_cells=args.n_cells,
        **fields,
    )


def _write_manifest(out: Path, args, files: list[str]) -> None:
    # an option that a mode ignores may be non-finite; JSON has no nan or inf
    options = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in sorted(vars(args).items())}
    manifest = {"command": args.subcommand, "options": options, "files": sorted(files)}
    write_json(out / "manifest.json", manifest)


def _even_snapshots(t_end: float) -> tuple:
    return tuple(i * t_end / 4 for i in range(5))


def dispatch(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    if args.subcommand == "classify":
        exp = _experiment(args, f"classify-{args.datum}", ())
        result = run_experiment(exp, out)
        files += result.files
        print(result.classification.verdict)

    elif args.subcommand == "evolve":
        kernel = parse_kernel_arg(args.kernel)
        if args.snapshots is not None:
            try:
                snaps = tuple(sorted(float(s) for s in args.snapshots.split(",") if s))
            except ValueError as exc:
                raise ValueError(f"--snapshots: {exc}") from None
        else:
            snaps = _even_snapshots(args.t_end)
        exp = _experiment(
            args,
            f"evolve-{args.datum}",
            (kernel,),
            t_end=args.t_end,
            snapshot_times=snaps,
            stop_on_blowup=not args.run_past_blowup,
        )
        result = run_experiment(exp, out)
        files += result.files
        report = result.diagnostics[kernel.tag].blowup
        if report.detected:
            print(f"breakdown detected at t = {report.t_detect:g}")
        else:
            print("no breakdown detected")

    elif args.subcommand == "compare-kernels":
        recipe = {
            "bump": RECIPES["supercritical-compare"],
            "subinit": RECIPES["subcritical-compare"],
        }[get_datum(args.datum).name]
        t_end = args.t_end if args.t_end is not None else recipe.t_end
        exp = _experiment(
            args,
            recipe.name,
            recipe.kernels,
            t_end=t_end,
            snapshot_times=_even_snapshots(t_end),
        )
        result = run_experiment(exp, out)
        files += result.files
        for tag, diag in result.diagnostics.items():
            rep = diag.blowup
            status = f"breakdown at t = {rep.t_detect:g}" if rep.detected else "smooth"
            print(f"{tag}: {status}")

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

    elif args.subcommand == "threshold-curve":
        write_threshold_csv(default_curve(), out / "threshold_curve.csv", args.samples)
        files.append("threshold_curve.csv")

    elif args.subcommand == "bounds":
        bounds = supercritical_bounds(args.d0, args.u0, args.m)
        write_json(out / "bounds.json", asdict(bounds))
        files.append("bounds.json")
        print(f"T_star_sharp = {bounds.T_star_sharp:g}")

    else:  # pragma: no cover
        raise ValueError(f"unknown subcommand {args.subcommand!r}")

    _write_manifest(out, args, files)
    return 0


def parse_kernel_arg(text: str):
    try:
        return parse_kernel(text)
    except ValueError as exc:
        raise ValueError(f"--kernel: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        return dispatch(args)
    except SystemExit as exc:  # argparse's own errors, -h and --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {exc}; lower --n-cells or --samples", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "failure_dump.json"
        write_json(path, {"error": str(exc), **exc.dump})
        print(f"numerical failure: {exc} (dump: {path})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
