"""Command-line interface: parsing, bundles, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nltraffic
from nltraffic import scenarios, solver
from nltraffic.characteristics import PHASE_SAMPLES, ConstantFactor, integrate_characteristic
from nltraffic.cli import _experiment, main, parse_args
from nltraffic.kernels import INFINITE, ZERO, Kernel
from nltraffic.scenarios import RECIPES, customized, run_experiment
from nltraffic.solver import SolverFailure

# what classify, evolve and compare-kernels print for each kernel, after the verdict
KERNEL_LINE = re.compile(r"[\w.]+: (breakdown at t = \S+|smooth), mass drift \d\.\d{3}e[-+]\d\d")
# what a bundle run prints on stderr for a kernel detected on its initial state
T0_WARNING = re.compile(r"warning: kernel \S+: breakdown detected at t = 0: .*; raise --n-cells")


def test_parse_defaults():
    args = parse_args(["classify"])
    assert args.subcommand == "classify"
    assert args.datum == "bump"
    assert args.n_cells == 4000
    assert args.out == "out"


# sk:L=0 and sk:L=inf are the boxes zero and infinite; these are not boxes
BAD_KERNELS = ("sk:L=-1", "sk:L=nan", "sk:L=-inf", "sk:L=x")


def evolved_kernel(spelling: str) -> Kernel:
    """The kernel that `evolve --kernel <spelling>` runs."""
    (kernel,) = _experiment(parse_args(["evolve", "--kernel", spelling])).kernels
    return kernel


def test_parse_kernel_round_trip():
    assert evolved_kernel("sk:L=2.5") == Kernel("box", 2.5)
    assert evolved_kernel("sk:L=0") == ZERO and evolved_kernel("sk:L=inf") == INFINITE
    for bad in BAD_KERNELS:
        with pytest.raises(ValueError, match="--kernel"):
            evolved_kernel(bad)


@pytest.mark.parametrize("spelling", BAD_KERNELS)
def test_bad_kernel_exits_2(tmp_path, capsys, spelling):
    code = main(
        ["evolve", "--kernel", spelling, "--n-cells", "200", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--kernel" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("subcommand", ["evolve", "compare-kernels"])
def test_non_finite_t_end_exits_2(tmp_path, capsys, subcommand, t_end):
    out = tmp_path / "bad"
    code = main([subcommand, "--n-cells", "200", "--t-end", t_end, "--out", str(out)])
    assert code == 2
    assert "error: argument --t-end: invalid finite value" in capsys.readouterr().err
    assert not any(p.is_file() for p in out.rglob("*"))  # nothing written


def test_non_finite_snapshot_exits_2(tmp_path, capsys):
    code = main(
        ["evolve", "--n-cells", "200", "--t-end", "1", "--snapshots", "0,nan",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "snapshot" in capsys.readouterr().err
    code = main(["evolve", "--n-cells", "200", "--snapshots", "abc", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --snapshots: could not convert string to float: 'abc'" in err


@pytest.mark.parametrize("snapshots, fname", [
    pytest.param(snapshots, fname, id=snapshots) for snapshots, fname in [
        ("0.05,0.050000000001", "snap_t0.05.csv"),
        ("0.05,0.05", "snap_t0.05.csv"),
        ("-0,0", "snap_t0.csv"),  # one time, though %g spells -0 apart
    ]
])
def test_colliding_snapshot_names_exit_2(tmp_path, capsys, snapshots, fname):
    """Two times that print alike would write one file twice: refused before any output."""
    out = tmp_path / "clash"
    argv = ["evolve", "--n-cells", "200", "--t-end", "0.1", f"--snapshots={snapshots}",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    first, second = (float(s) for s in snapshots.split(","))
    assert f"snapshot times {first!r} and {second!r} both name {fname}" in err
    assert not any(p.is_file() for p in out.rglob("*"))


def test_negative_zero_snapshot_is_named_snap_t0(tmp_path):
    out = tmp_path / "neg0"
    argv = ["evolve", "--n-cells", "200", "--t-end", "0.1", "--snapshots=-0", "--out", str(out)]
    assert main(argv) == 0
    kdir = out / "evolve-bump" / "kernel_infinite"
    assert (kdir / "snap_t0.csv").is_file()
    assert not (kdir / "snap_t-0.csv").exists()
    text = (out / "evolve-bump" / "metadata.json").read_text()
    assert json.loads(text)["snapshot_times"] == [0.0] and "-0.0" not in text


@pytest.mark.parametrize("spelling", ["--snapshots -0.5,0.1", "--snapshots=-0.5,0.1", "--config"])
def test_snapshot_list_led_by_a_negative_time_exits_2(tmp_path, capsys, spelling):
    """argparse would take -0.5,0.1 for an option: the list reaches the range check."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "neg"
    cfg.write_text("snapshots = -0.5,0.1\n")
    tail = ["--config", str(cfg)] if spelling == "--config" else spelling.split(" ")
    argv = ["evolve", "--n-cells", "200", "--t-end", "0.1", "--out", str(out), *tail]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "snapshot_times must lie in [0, t_end], got (-0.5, 0.1)" in err
    assert not any(p.is_file() for p in out.rglob("*"))


# each case's id is its own, so deleting a case renames no other
@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["evolve", "--n-cells", "2"], "n_cells", id="argv0-n_cells"),
        pytest.param(["classify", "--x-left", "5", "--x-right", "1"], "x_left",
                     id="argv1-x_left"),
        pytest.param(["evolve", "--t-end", "4", "--snapshots", "5"], "snapshot_times",
                     id="argv2-snapshot_times"),
        pytest.param(["bounds", "--d0", "0.4", "--u0", "0.5", "--m", "-1"], "m", id="argv3-m"),
        pytest.param(["bounds", "--d0", "0.1", "--u0", "0.5"], "d0", id="argv4-d0"),
        pytest.param(["evolve", "--datum", "bump", "--x-right", "0.5", "--kernel", "infinite"],
                     "x_right", id="argv5-x_right"),
        pytest.param(["evolve", "--datum", "subinit", "--x-right", "5", "--kernel", "sk"],
                     "x_right", id="argv6-x_right"),
        # any left cut of subinit is a density; one at its right end leaves no domain
        pytest.param(["classify", "--datum", "subinit", "--x-left", "40"], "x_left",
                     id="argv7-x_left"),
        # no cell center lies in |x| < 1, so the sampled bump is 0 everywhere
        pytest.param(["classify", "--datum", "bump", "--x-right", "1e6", "--n-cells", "100"],
                     "n_cells", id="argv8-n_cells"),
        pytest.param(["evolve", "--datum", "bump", "--x-right", "1e6", "--n-cells", "100"],
                     "x_right", id="argv9-x_right"),
        pytest.param(["phase-portrait", "--d0", "0.2", "--u0", "0.5", "--factor", "1",
                      "--t-end", "-1"], "t_end", id="argv10-t_end"),
        # the default snapshot times of t_end = 1e308 stay finite: the step budget refuses it
        pytest.param(["evolve", "--n-cells", "400", "--t-end", "1e308"], "n-cells",
                     id="argv11-n-cells"),
        pytest.param(["compare-kernels", "--n-cells", "400", "--t-end", "1e308"], "n-cells",
                     id="argv12-n-cells"),
    ],
)
def test_out_of_domain_option_is_named(tmp_path, capsys, argv, name):
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{name}\b", err), err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["render"]) == 2


def test_missing_required_option_exits_2(capsys):
    assert main(["bounds", "--u0", "0.5"]) == 2


def test_threshold_curve_bundle(tmp_path):
    out = tmp_path / "tc"
    assert main(["threshold-curve", "--samples", "11", "--out", str(out)]) == 0
    lines = (out / "threshold_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "u,sigma"
    assert lines[1] == "0,0"
    assert len(lines) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "threshold-curve"
    assert manifest["files"] == ["threshold_curve.csv"]
    assert manifest["options"]["samples"] == 11


def test_threshold_curve_rejects_single_sample(tmp_path, capsys):
    assert main(["threshold-curve", "--samples", "1", "--out", str(tmp_path)]) == 2
    assert "samples" in capsys.readouterr().err


def test_bounds_bundle(tmp_path, capsys):
    out = tmp_path / "b"
    code = main(
        ["bounds", "--d0", "0.4", "--u0", "0.5", "--m", "1", "--out", str(out)]
    )
    assert code == 0
    assert "T_star_sharp" in capsys.readouterr().out
    data = json.loads((out / "bounds.json").read_text())
    assert set(data) == {
        "t1", "d_minus", "d_plus", "T_star_sharp", "T_star_coarse", "C_star",
    }
    assert data["T_star_sharp"] > data["t1"] > 0
    # below u0 = 1/4 the slope floor is the margin: no certificate before the blow-up at 118.65
    assert main(["bounds", "--d0", "0.0485", "--u0", "0.05", "--out", str(tmp_path / "small")]) == 0
    line = capsys.readouterr().out
    assert line.startswith("T_star_sharp = ") and float(line.split("=")[1]) > 118.66


def test_bounds_rejects_subcritical_seed(tmp_path, capsys):
    code = main(
        ["bounds", "--d0", "0.1", "--u0", "0.5", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "option, value",
    [("m", "nan"), ("m", "inf"), ("m", "-inf"), ("d0", "nan"), ("u0", "nan")],
)
def test_bounds_non_finite_exits_2(tmp_path, capsys, option, value):
    argv = ["bounds", "--d0", "0.4", "--u0", "0.5", "--m", "0"]
    code = main(argv + [f"--{option}", value, "--out", str(tmp_path)])
    assert code == 2
    assert f"error: argument --{option}: invalid finite value" in capsys.readouterr().err


def test_classify_prints_verdict(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(
        ["classify", "--datum", "subinit", "--n-cells", "1000", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "SUBCRITICAL"
    report = json.loads((out / "classify-subinit" / "classification.json").read_text())
    assert report["verdict"] == "SUBCRITICAL"


def test_classify_prints_only_the_verdict(tmp_path, capsys):
    """classify evolves no kernel, so its report is the verdict line alone."""
    argv = ["classify", "--datum", "bump", "--n-cells", "400", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "SUPERCRITICAL\n"


def test_evolve_and_compare_kernels_print_the_same_kernel_line(tmp_path, capsys):
    """evolve --kernel sk is compare-kernels' sk run, and prints its line."""
    grid = ["--n-cells", "400", "--t-end", "1"]
    argv = ["evolve", "--kernel", "sk", *grid, "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    evolved = capsys.readouterr().out.splitlines()
    assert main(["compare-kernels", *grid, "--out", str(tmp_path / "c")]) == 0
    compared = capsys.readouterr().out.splitlines()
    assert len(evolved) == 2 and len(compared) == 5
    assert evolved[0] == compared[0] == "SUPERCRITICAL"
    assert KERNEL_LINE.fullmatch(evolved[1]) and evolved[1].startswith("sk: ")
    assert compared[2] == evolved[1]


def test_compare_kernels_writes_the_recipe_bundle(tmp_path, capsys):
    """compare-kernels --datum subinit is the subcritical-compare recipe at its --n-cells."""
    argv = ["compare-kernels", "--datum", "subinit", "--n-cells", "400"]
    assert main(argv + ["--out", str(tmp_path / "cli")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(T0_WARNING.fullmatch(line) for line in err), err
    run_experiment(customized(RECIPES["subcritical-compare"], n_cells=400), tmp_path / "lib")
    cli, lib = (tmp_path / d / "subcritical-compare" for d in ("cli", "lib"))
    files = sorted(p.relative_to(lib) for p in lib.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(cli) for p in cli.rglob("*") if p.is_file())
    assert len(files) == 4 + 4 * 7
    for rel in files:
        assert (cli / rel).read_bytes() == (lib / rel).read_bytes(), rel


def test_evolve_bundle_and_detection(tmp_path, capsys):
    out = tmp_path / "e"
    code = main(
        [
            "evolve", "--datum", "bump", "--kernel", "zero",
            "--n-cells", "500", "--t-end", "1.5", "--snapshots", "0,1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    verdict, line = capsys.readouterr().out.splitlines()
    kdir = out / "evolve-bump" / "kernel_zero"
    report = json.loads((kdir / "blowup.json").read_text())
    assert report["detected"] and 0.0 < report["t_detect"] < 1.5
    # detection stops nothing: the run reaches t_end and writes both snapshots
    assert (kdir / "snap_t0.csv").is_file()
    assert (kdir / "snap_t1.5.csv").is_file()
    last_t = float((kdir / "diagnostics.csv").read_text().split("\n")[-2].split(",")[0])
    assert last_t == 1.5
    assert verdict == "SUPERCRITICAL"
    assert KERNEL_LINE.fullmatch(line) and line.startswith(
        f"zero: breakdown at t = {report['t_detect']:g}, mass drift "
    ), line


def test_evolve_defaults_run_to_t_end(tmp_path, capsys):
    """At n = 400 the bump breaks down at t = 0, and the run still takes all five snapshots."""
    out = tmp_path / "smoke"
    assert main(["evolve", "--n-cells", "400", "--t-end", "0.1", "--out", str(out)]) == 0
    assert "breakdown at t = 0," in capsys.readouterr().out
    kdir = out / "evolve-bump" / "kernel_infinite"
    assert sorted(p.name for p in kdir.glob("snap_t*.csv")) == [
        "snap_t0.025.csv", "snap_t0.05.csv", "snap_t0.075.csv", "snap_t0.1.csv", "snap_t0.csv",
    ]
    last_t = float((kdir / "diagnostics.csv").read_text().split("\n")[-2].split(",")[0])
    assert last_t == 0.1


def test_evolve_snapshots_in_any_order(tmp_path, capsys):
    """CI's `--snapshots 0.1,0,0.05` writes the kernel directory that 0,0.05,0.1 writes, byte
    for byte; metadata.json lists the times as given."""
    bundles = []
    for order in ("0,0.05,0.1", "0.1,0,0.05"):
        out = tmp_path / f"run{len(bundles)}"
        argv = ["evolve", "--n-cells", "400", "--t-end", "0.1", "--snapshots", order]
        assert main(argv + ["--out", str(out)]) == 0
        bundles.append(out / "evolve-bump")
    kdirs = [b / "kernel_infinite" for b in bundles]
    names = sorted(p.name for p in kdirs[0].iterdir())
    assert names == sorted(p.name for p in kdirs[1].iterdir())
    assert {"snap_t0.csv", "snap_t0.05.csv", "snap_t0.1.csv"} <= set(names)
    for name in names:
        assert (kdirs[0] / name).read_bytes() == (kdirs[1] / name).read_bytes(), name
    # each snapshot is the state at its own time: a diagnostics row holds t = 0.05 exactly
    rows = (kdirs[0] / "diagnostics.csv").read_text().splitlines()[1:]
    assert 0.05 in [float(row.split(",")[0]) for row in rows]
    meta = [json.loads((b / "metadata.json").read_text()) for b in bundles]
    assert meta[1]["snapshot_times"] == [0.1, 0.0, 0.05]
    assert {**meta[1], "snapshot_times": meta[0]["snapshot_times"]} == meta[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--d0", "0.1", "--u0", "0.5"],
        ["compare-kernels", "--n-cells", "400", "--t-end", "1", "--x-right", "0.5"],
        ["evolve", "--kernel", "infinite", "--x-right", "0.5", "--n-cells", "400"],
    ],
    ids=["bounds", "compare-kernels", "evolve"],
)
def test_refused_run_creates_no_out_directory(tmp_path, capsys, argv):
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_evolve_reports_right_edge_contact(tmp_path, capsys):
    """A windowed kernel lets all density leave on the right; the run says so."""
    out = tmp_path / "edge"
    code = main(
        [
            "evolve", "--kernel", "sk", "--n-cells", "400", "--t-end", "30",
            "--out", str(out),
        ]
    )
    assert code == 0
    kdir = out / "evolve-bump" / "kernel_sk"
    report = json.loads((kdir / "blowup.json").read_text())
    assert report["boundary_contact_t"] == pytest.approx(7.320, abs=1e-3)
    last_mass = float((kdir / "diagnostics.csv").read_text().split("\n")[-2].split(",")[1])
    assert last_mass < 1e-100
    # at n = 400 the bump's initial gradient indicator already reaches 0.08/dx
    assert capsys.readouterr().err == (
        "warning: kernel sk: breakdown detected at t = 0: the initial gradient indicator "
        "2.14 reaches 0.08/dx = 2; raise --n-cells\n"
        "warning: kernel sk: density leaves through the right edge from t = 7.32014\n"
    )


def test_compare_kernels_reports_right_edge_contact(tmp_path, capsys):
    code = main(
        [
            "compare-kernels", "--datum", "bump", "--n-cells", "200",
            "--t-end", "30", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err.strip().split("\n")
    for i, tag in enumerate(("zero", "sk", "infinite", "uniform")):
        kdir = tmp_path / "supercritical-compare" / f"kernel_{tag}"
        contact = json.loads((kdir / "blowup.json").read_text())["boundary_contact_t"]
        assert err[2 * i].startswith(f"warning: kernel {tag}: breakdown detected at t = 0: ")
        assert err[2 * i + 1] == (
            f"warning: kernel {tag}: density leaves through the right edge from t = {contact:g}"
        )
    assert len(err) == 8


def test_compare_kernels_bundle(tmp_path, capsys):
    """Detection on the initial state is warned about once per kernel (n = 300, 400), else not."""
    tags = ("zero", "sk", "infinite", "uniform")
    for n, coarse in (("300", True), ("400", True), ("4000", False)):
        out = tmp_path / f"cmp{n}"
        code = main(
            [
                "compare-kernels", "--datum", "bump", "--n-cells", n,
                "--t-end", "0.4", "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        verdict, *lines = captured.out.splitlines()
        assert verdict == "SUPERCRITICAL"
        assert [line.split(":")[0] for line in lines] == list(tags)
        assert all(KERNEL_LINE.fullmatch(line) for line in lines), lines
        lines = [line.split(", mass drift ")[0] for line in lines]
        at_zero = [f"{tag}: breakdown at t = 0" for tag in tags]
        if coarse:
            assert lines == at_zero
            assert [line.split(": the initial")[0] for line in captured.err.splitlines()] == [
                f"warning: kernel {tag}: breakdown detected at t = 0" for tag in tags
            ]
            assert all(T0_WARNING.fullmatch(line) for line in captured.err.splitlines())
        else:
            assert not set(lines) & set(at_zero)
            assert captured.err == ""
        root = out / "supercritical-compare"
        for tag in tags:
            assert (root / f"kernel_{tag}" / "snap_t0.2.csv").is_file()
            assert (root / f"kernel_{tag}" / "diagnostics.csv").is_file()
            report = json.loads((root / f"kernel_{tag}" / "blowup.json").read_text())
            assert set(report) == {"detected", "t_detect", "boundary_contact_t"}


def test_phase_portrait_time_mode(tmp_path, capsys):
    out = tmp_path / "pp"
    code = main(
        [
            "phase-portrait", "--d0", "0.4", "--u0", "0.5",
            "--factor", "1.0", "--t-end", "30", "--out", str(out),
        ]
    )
    assert code == 0
    assert "slope blow-up at t =" in capsys.readouterr().out
    header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
    assert header == "t,d,u"


@pytest.mark.filterwarnings("error")
def test_phase_portrait_time_mode_to_a_huge_t_end(tmp_path, capsys):
    """A smooth path needs no steps: t_end = 1e300 runs, and no row lies above sigma.

    Near the float maximum |d0 - sigma(u0)| F passes it, yet no product may
    overflow: from u0 = 0 every row is the exact d = -1/(1 + 2F).
    """
    out = tmp_path / "far"
    code = main(
        [
            "phase-portrait", "--d0", "0.1", "--u0", "0.5",
            "--factor", "1", "--t-end", "1e300", "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    t, d, u = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, unpack=True)
    assert len(t) == 201 and t[-1] == 1e300
    assert np.all(d <= u * (1.0 - u))

    out = tmp_path / "max"
    code = main(
        [
            "phase-portrait", "--d0", "-1", "--u0", "0",
            "--factor", "1", "--t-end", "1.7e308", "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    t, d, u = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, unpack=True)
    assert len(t) == 201 and t[-1] == 1.7e308
    assert np.all(np.isfinite(d)) and np.all(u == 0.0)
    assert np.all(np.abs(d - -0.5 / (0.5 + t)) <= 1e-300)


def test_phase_portrait_phase_mode(tmp_path):
    out = tmp_path / "pm"
    code = main(
        [
            "phase-portrait", "--d0", "0.1", "--u0", "0.5",
            "--u-end", "0.1", "--out", str(out),
        ]
    )
    assert code == 0
    header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
    assert header == "u,d"


def test_phase_portrait_supercritical_phase_mode_fails(tmp_path, capsys):
    # the phase curve has a vertical asymptote above the requested stop: the
    # inputs decide that, so it is refused as out of the domain
    out = tmp_path / "boom"
    code = main(
        [
            "phase-portrait", "--d0", "1.0", "--u0", "0.5",
            "--u-end", "0.005", "--out", str(out),
        ]
    )
    assert code == 2
    assert not (out / "failure_dump.json").exists()
    err = capsys.readouterr().err
    assert err == "error: the slope blows up at u* = 0.436492, above u_end = 0.005\n"


def test_phase_sweep_bundle(tmp_path, capsys):
    """25 seeds around sigma: exactly the supercritical ones blow up, within their certificate."""
    out = tmp_path / "sweep"
    assert main(["phase-sweep", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    assert header == "u0,d0,shift,blown_up,t_blowup,T_star_sharp"
    assert len(lines) == 25
    traj_files = []
    for line in lines:
        u0, d0, shift, blown_up, t_blowup, sharp = map(float, line.split(","))
        assert blown_up == (shift > 0), line
        if shift > 0:
            assert 0.0 < t_blowup <= min(200.0, sharp), line
            traj_files.append(f"traj_u{u0:g}_shift{shift:g}.csv")
        else:
            assert math.isnan(t_blowup) and math.isnan(sharp), line
    assert len(traj_files) == 15
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "phase-sweep"
    assert manifest["files"] == sorted(["sweep.csv", *traj_files])
    assert all((out / name).read_text().startswith("t,d,u\n") for name in traj_files)


def run_python(args, timeout):
    """Run the interpreter on args in a fresh process that imports this nltraffic."""
    src = str(Path(nltraffic.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "extra, option",
    [
        pytest.param(["--factor", "1", "--t-end", "nan"], "--t-end", id="t_end-nan"),
        pytest.param(["--factor", "1", "--t-end", "inf"], "--t-end", id="t_end-inf"),
        pytest.param(["--factor", "1", "--t-end", "-inf"], "--t-end", id="t_end--inf"),
        pytest.param(["--factor", "1", "--d0", "nan"], "--d0", id="time-d0-nan"),
        pytest.param(["--factor", "1", "--u0", "nan"], "--u0", id="time-u0-nan"),
        pytest.param(["--d0", "nan"], "--d0", id="phase-d0-nan"),
        # an option that the mode ignores is refused too
        pytest.param(["--t-end", "nan"], "--t-end", id="phase-t_end-nan"),
        pytest.param(["--factor", "1", "--u-end", "inf"], "--u-end", id="time-u_end-inf"),
    ],
)
def test_phase_portrait_non_finite_exits_2(tmp_path, extra, option):
    """Rejected by name in a process that is killed if it hangs, with no manifest."""
    argv = ["phase-portrait", "--d0", "0.4", "--u0", "0.5", *extra]
    proc = run_python(["-m", "nltraffic.cli", *argv, "--out", str(tmp_path)], timeout=60)
    assert proc.returncode == 2
    assert f"error: argument {option}: invalid finite value" in proc.stderr
    assert not (tmp_path / "manifest.json").exists()


def test_hopeless_step_count_exits_2_at_once(tmp_path):
    """dx = 2.5e-7 may need ~1.8e7 steps: refused before the first, in a process killed if it runs on."""
    # at x = -0.99 the bump is about 1.5e-22: positive, yet 1 - 2u and the wave speed round to 1
    argv = ["evolve", "--datum", "bump", "--x-left", "-0.99", "--x-right", "-0.989999",
            "--n-cells", "4", "--t-end", "2", "--kernel", "zero"]
    proc = run_python(["-m", "nltraffic.cli", *argv, "--out", str(tmp_path)], timeout=30)
    assert proc.returncode == 2, proc.stderr
    dx = (-0.989999 - -0.99) / 4
    # one step more per snapshot time: the five default ones end a stretch each
    steps = 2 * (1.0 + 3e-8) / (solver.CFL * dx) + len(scenarios.even_snapshots(2.0))
    assert f"{steps:.3g} steps" in proc.stderr  # 1.78e+07
    assert "--x-left/--x-right" in proc.stderr and "--n-cells" in proc.stderr
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "evolve-bump").exists()


@pytest.mark.parametrize("x_left, code", [("-1e155", 0), ("-1e300", 2)])
def test_subinit_far_left_end_prints_no_warning(tmp_path, x_left, code):
    """Beyond |x| ~ 1e154 the square in 1/x^2 overflows to inf, and 1/inf = 0 is right.

    At -1e300 every cell center lies there: the all-zero sample is refused,
    and the error is all that stderr holds.
    """
    argv = ["classify", "--datum", "subinit", f"--x-left={x_left}", "--n-cells", "400"]
    proc = run_python(["-m", "nltraffic.cli", *argv, "--out", str(tmp_path)], timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    ["classify", "--datum", "subinit"],
    ["evolve", "--datum", "subinit", "--kernel", "zero", "--t-end", "1"],
])
def test_subinit_cut_inside_the_quintic_runs(tmp_path, capsys, argv):
    """The quintic on (-3, 0] is a valid density, so subinit on [-2.5, 40] runs."""
    assert main(argv + ["--x-left", "-2.5", "--n-cells", "400", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    (meta,) = tmp_path.glob("*-subinit/metadata.json")
    meta = json.loads(meta.read_text())
    assert meta["domain"] == [-2.5, 40.0] and "left_tail_mass" not in meta


def test_infinite_kernel_right_tail_exits_2_without_output(tmp_path, capsys):
    """The bump cut at x = 0.5 reaches the right edge: refused before any file is written.

    The zero kernel needs nothing past the cut, so it runs there.
    """
    argv = ["evolve", "--x-right", "0.5", "--n-cells", "400"]
    assert main(argv + ["--kernel", "infinite", "--out", str(tmp_path)]) == 2
    assert "tail mass" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []
    assert main(argv + ["--kernel", "zero", "--t-end", "1", "--out", str(tmp_path / "zero")]) == 0


@pytest.mark.parametrize("argv, sub", [
    pytest.param(["compare-kernels", "--n-cells", "4000", "--t-end", "2"], "", id="compare-kernels"),
    pytest.param(["bounds", "--d0", "0.4", "--u0", "0.5"], "", id="bounds"),
    pytest.param(["compare-kernels", "--n-cells", "400", "--t-end", "0.1"], "sub",
                 id="compare-kernels-under-a-file"),
])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, sub):
    """An --out that names an existing file, or a path under one, is refused by name
    before anything runs."""
    def no_evolve(*args):
        raise AssertionError("evolve called")

    monkeypatch.setattr(scenarios, "evolve", no_evolve)
    out = tmp_path / "F"
    out.write_bytes(b"keep\n")
    assert main(argv + ["--out", str(out / sub)]) == 2
    assert capsys.readouterr().err == f"error: --out: {out} exists and is not a directory\n"
    assert out.read_bytes() == b"keep\n"


def test_compare_kernels_refused_at_first_lookahead_kernel(tmp_path, capsys, monkeypatch):
    """The bump cut at x = 0.5: sk refuses it, and no kernel starts, zero included."""
    ran = []

    def counting_evolve(u0, kernel, *args):
        ran.append(kernel.tag)
        return real_evolve(u0, kernel, *args)

    real_evolve = scenarios.evolve
    monkeypatch.setattr(scenarios, "evolve", counting_evolve)
    argv = ["compare-kernels", "--n-cells", "400", "--t-end", "1", "--x-right", "0.5"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "x_right" in capsys.readouterr().err
    assert ran == []
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n-cells", str(10**15)],
        ["threshold-curve", "--samples", str(10**15)],
    ],
)
def test_unallocatable_size_exits_2(tmp_path, capsys, argv):
    """A list of 10**15 floats is refused at once; the error names both size options."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lower --n-cells or --samples" in err, err


def test_bounds_overflow_names_u0(tmp_path, capsys):
    """1/u0 overflows for a subnormal u0: the message gives u0, not only m."""
    assert main(["bounds", "--d0", "0.4", "--u0", "1e-320", "--out", str(tmp_path)]) == 2
    assert "u0 = 1e-320" in capsys.readouterr().err


def test_bounds_at_the_smallest_u0_names_u0(tmp_path, capsys):
    """u1 = u0/2 underflows to 0 for the smallest subnormal u0: the message gives both."""
    assert main(["bounds", "--d0", "0.26", "--u0", "5e-324", "--out", str(tmp_path)]) == 2
    assert "got u0 = 5e-324, u1 = 0.0" in capsys.readouterr().err


def test_readme_library_example_runs():
    """The README's one python block runs as printed, against the top-level imports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0].split("```")[0]], timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, peak, blowup, _ = proc.stdout.splitlines()
    assert verdict == "SUPERCRITICAL" and blowup.startswith("True ")
    assert peak.startswith("0.31")  # snaps[1.0]'s maximum


def test_cli_paths_load_no_scipy(tmp_path):
    """The commands that load numpy run with scipy's import blocked.

    sys.modules["scipy"] = None makes any `import scipy...` raise ImportError,
    so a scipy import anywhere on these paths fails its command outright.  The
    other commands load no numpy, and the two no-numpy scripts below block
    scipy too.
    """
    script = f"""
import json, sys
sys.modules["scipy"] = None
from nltraffic.cli import main

codes = []
for argv in (
    ["evolve", "--n-cells", "200", "--t-end", "0.1"],
    ["evolve", "--kernel", "linear", "--n-cells", "4000", "--t-end", "1"],
    ["evolve", "--kernel", "sk:L=2.5", "--n-cells", "4000", "--t-end", "1"],
    ["compare-kernels", "--n-cells", "400", "--t-end", "0.1"],
):
    codes.append(main(argv + ["--out", {str(tmp_path)!r} + "/" + str(len(codes))]))
print(json.dumps(codes))
"""
    proc = run_python(["-W", "error", "-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0], proc.stderr


def test_scalar_commands_load_no_numpy(tmp_path):
    """The float commands (bounds, threshold-curve, phase-portrait, phase-sweep) run without numpy.

    sys.modules["numpy"] = None makes any `import numpy` raise ImportError, which
    main does not catch, so a numpy import anywhere on these paths ends the script.
    scipy is blocked the same way, and warnings are errors.
    """
    script = f"""
import json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import nltraffic
nltraffic.default_curve()
from nltraffic.cli import main

codes = []
for argv in (
    ["bounds", "--d0", "0.4", "--u0", "0.5"],
    ["threshold-curve", "--samples", "11"],
    ["threshold-curve", "--samples", "1001"],
    ["phase-portrait", "--d0", "0.4", "--u0", "0.5", "--factor", "1", "--t-end", "30"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5", "--factor", "1", "--t-end", "1e300"],
    ["phase-portrait", "--d0", "-1", "--u0", "0", "--factor", "1", "--t-end", "1.7e308"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5", "--u-end", "1e-300"],
    ["phase-portrait", "--d0", "0.3", "--u0", "0.5", "--u-end", "1e-300"],
    ["phase-portrait", "--d0", "1.0", "--u0", "0.5", "--u-end", "0.005"],
    ["phase-sweep"],
):
    codes.append(main(argv + ["--out", {str(tmp_path)!r} + "/" + str(len(codes))]))
print(json.dumps(codes))
"""
    proc = run_python(["-W", "error", "-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0], proc.stderr
    assert proc.stdout.splitlines()[:2] == [
        "T_star_sharp = 250.117", "slope blow-up at t = 1.81483",
    ]
    assert proc.stderr.splitlines() == [
        "error: the slope blows up at u* = 0.231662, above u_end = 1e-300",
        "error: the slope blows up at u* = 0.436492, above u_end = 0.005",
    ]


def test_classify_loads_no_numpy(tmp_path):
    """classify samples and classifies on floats: with numpy and scipy blocked it runs and refuses."""
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from nltraffic.cli import main

results = []
for argv in (
    ["classify", "--datum", "bump"],
    ["classify", "--datum", "subinit"],
    ["classify", "--datum", "subinit", "--x-left", "-1e155", "--n-cells", "400"],
    ["classify", "--datum", "subinit", "--x-left", "-1e300"],
    ["classify", "--n-cells", "1000000000000000"],
    ["classify", "--datum", "nope"],
):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", {str(tmp_path)!r} + "/" + str(len(results))])
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""
    proc = run_python(["-W", "error", "-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    bump, subinit, far, zero, huge, unknown = json.loads(proc.stdout)
    assert bump == [0, "SUPERCRITICAL\n", ""]
    assert subinit == [0, "SUBCRITICAL\n", ""]
    assert far == [0, "SUBCRITICAL\n", ""]
    assert zero[0] == 2 and len(zero[2].splitlines()) == 1, zero
    assert huge[0] == 2 and "--n-cells" in huge[2], huge
    assert unknown[0] == 2 and "unknown datum 'nope'" in unknown[2], unknown


def test_samplers_match_numpy_linspace(tmp_path):
    """threshold_curve.csv's u and a characteristic's t are np.linspace's, bit for bit."""
    for n in (2, 3, 7, 1001, 4097):
        assert main(["threshold-curve", "--samples", str(n), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "threshold_curve.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == np.linspace(0.0, 1.0, n).tolist()
    blown = integrate_characteristic(0.4, 0.5, ConstantFactor(1.0), 30.0)
    assert blown.blowup_time is not None
    assert list(blown.t) == np.linspace(0.0, blown.blowup_time, PHASE_SAMPLES).tolist()
    for t_end in (30.0, 5e-324):  # 5e-324 / 200 rounds to 0: numpy's step for a denormal range
        smooth = integrate_characteristic(0.1, 0.5, ConstantFactor(1.0), t_end)
        assert smooth.blowup_time is None
        assert list(smooth.t) == np.linspace(0.0, t_end, PHASE_SAMPLES).tolist()


def test_solver_failure_writes_dump(tmp_path, capsys, monkeypatch):
    """The dump records the command and options in the form of manifest.json."""
    def boom(exp, out_dir):
        raise SolverFailure("synthetic failure", dump={"t": 0.5})

    monkeypatch.setattr("nltraffic.cli.run_experiment", boom)
    out = tmp_path / "sf"
    argv = ["evolve", "--n-cells", "300", "--x-left", "-5", "--x-right", "4", "--out", str(out)]
    code = main(argv)
    assert code == 3
    dump = json.loads((out / "failure_dump.json").read_text())
    assert dump["error"] == "synthetic failure"
    assert dump["t"] == 0.5
    assert dump["command"] == "evolve" and dump["options"]["x_left"] == -5.0
    monkeypatch.undo()
    argv[argv.index("-5")] = "-6"
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert dump["command"] == manifest["command"]
    assert dump["options"] == {**manifest["options"], "x_left": -5.0}


def test_factor_band_failure_exits_3_with_dump(tmp_path, capsys, monkeypatch):
    """A real SolverFailure of the solver's own checks: ubar < 0 puts the factor above 1."""
    monkeypatch.setattr("nltraffic.solver.lookahead_average",
                        lambda values, dx, kernel, mass: np.full(len(values), -1e-6))
    out = tmp_path / "band"
    code = main(["evolve", "--n-cells", "200", "--t-end", "0.1", "--out", str(out)])
    assert code == 3
    assert "numerical failure: slow-down factor left its admissible band" in capsys.readouterr().err
    dump = json.loads((out / "failure_dump.json").read_text())
    assert set(dump) == {"error", "t", "factor_min", "factor_max", "command", "options"}
    assert dump["t"] == 0.0 and dump["factor_max"] > 1.0
    assert not (out / "evolve-bump").exists()

    # the dump replays: its options as a config file give the same failure and the same dump
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(
        f"{key} = {value}\n" for key, value in dump["options"].items()
        if key not in ("out", "config") and value is not None
    ))
    other = tmp_path / "replay"
    assert main([dump["command"], "--config", str(cfg), "--out", str(other)]) == 3
    replayed = json.loads((other / "failure_dump.json").read_text())
    assert replayed["options"].pop("out") == str(other)
    assert replayed["options"].pop("config") == str(cfg)
    del dump["options"]["out"], dump["options"]["config"]
    assert replayed == dump


def test_evolve_smooth_run_prints_no_breakdown(tmp_path, capsys):
    out = tmp_path / "smooth"
    argv = ["evolve", "--datum", "subinit", "--kernel", "infinite", "--n-cells", "2000",
            "--t-end", "1", "--out", str(out)]
    assert main(argv) == 0
    verdict, line = capsys.readouterr().out.splitlines()
    assert verdict == "SUBCRITICAL"
    assert KERNEL_LINE.fullmatch(line) and line.startswith("infinite: smooth, mass drift "), line
    report = json.loads((out / "evolve-subinit" / "kernel_infinite" / "blowup.json").read_text())
    assert report["detected"] is False


def test_unknown_datum_exits_2(tmp_path, capsys):
    assert main(["classify", "--datum", "gauss", "--out", str(tmp_path)]) == 2
    assert "unknown datum" in capsys.readouterr().err


def test_determinism_across_runs(tmp_path):
    args = ["classify", "--datum", "bump", "--n-cells", "300"]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    first = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    second = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert first == second
    for rel in first:
        if rel.name == "manifest.json":
            continue  # differs only in the recorded --out path
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# curve sampling\nsamples = 21\n")
    out1 = tmp_path / "cfgd"
    assert main(["threshold-curve", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = (out1 / "threshold_curve.csv").read_text().strip().split("\n")
    assert len(rows) == 22  # config value applied

    out2 = tmp_path / "flag"
    code = main(
        [
            "threshold-curve", "--config", str(cfg),
            "--samples", "11", "--out", str(out2),
        ]
    )
    assert code == 0
    rows = (out2 / "threshold_curve.csv").read_text().strip().split("\n")
    assert len(rows) == 12  # explicit flag wins over the file


def test_config_equals_spelling(tmp_path):
    """--config=path reads the same file as --config path."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 21\n")
    out = tmp_path / "eq"
    assert main(["threshold-curve", f"--config={cfg}", "--out", str(out)]) == 0
    assert len((out / "threshold_curve.csv").read_text().strip().split("\n")) == 22


def test_config_value_is_passed_as_written(tmp_path, capsys):
    """`kernel = false` gives --kernel the value false, which it refuses by name."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = false\nn_cells = 200\nt_end = 0.1\n")
    assert parse_args(["evolve", "--config", str(cfg)]).kernel == "false"
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --kernel: ")
    assert not out.exists()


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples 21\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_args(["threshold-curve", "--config", str(cfg)])


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8", "malformed", "option",
                                  "before-subcommand"])
def test_bad_config_exits_2(tmp_path, capsys, case):
    """A --config that cannot be read as `key = value` lines, or that comes before the
    subcommand, is refused by name."""
    cfg = tmp_path / "run.cfg"
    if case == "directory":
        cfg.mkdir()
    elif case == "non-utf8":
        cfg.write_bytes(b"n_cells = 5\xff\n")
    elif case == "malformed":
        cfg.write_text("n_cells 5\n")
    elif case == "before-subcommand":
        cfg.write_text("datum = subinit\n")
    # "option": `--config --out o` would read --out as the file name
    argv = ["classify", "--config", "--out" if case == "option" else str(cfg)]
    if case == "before-subcommand":
        argv = argv[1:] + argv[:1]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config: ")
    assert case != "before-subcommand" or "after the subcommand" in err
    assert not out.exists()


def test_manifest_records_options_and_files(tmp_path):
    out = tmp_path / "m"
    assert main(["threshold-curve", "--samples", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"] == {
        "config": None, "out": str(out), "samples": 5,
    }
    assert manifest["command"] == "threshold-curve"
    for rel in manifest["files"]:
        assert (out / rel).is_file()


# each case's id is its own, so deleting a case renames no other
@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["classify", "--x-right", "inf"], "--x-right", id="argv0-x_right"),
        pytest.param(["evolve", "--x-left", "-inf", "--t-end", "0.5"], "--x-left",
                     id="argv1-x_left"),
        pytest.param(["classify", "--x-left", "-1e308", "--x-right", "1e308"], "x_left, x_right",
                     id="argv2-x_left, x_right"),
    ],
)
def test_non_finite_domain_exits_2(tmp_path, capsys, argv, name):
    """The error names the non-finite end's option alone, and both ends when their
    distance overflows."""
    out = tmp_path / "bad"
    assert main(argv + ["--n-cells", "200", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]  # argparse prints its usage first
    assert name in err
    for end in ("x_left", "x_right"):
        named = end in err or end.replace("_", "-") in err
        assert named == (end in name.replace("-", "_")), err
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize(
    "m, message",
    [
        ("705", "t1 overflows at m = 705.0"),
        ("710", "m = 710.0 is too large: exp(m) overflows"),
        ("1000", "m = 1000.0 is too large: exp(m) overflows"),
    ],
)
def test_bounds_overflowing_m_exits_2(tmp_path, capsys, m, message):
    argv = ["bounds", "--d0", "0.4", "--u0", "0.5", "--m", m, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--ssp2"],
        ["evolve", "--scheme", "llf"],
        ["compare-kernels", "--scheme", "godunov"],
        ["evolve", "--cfl", "0.3"],
        ["compare-kernels", "--cfl", "0.3"],
        ["evolve", "--run-past-blowup"],
    ],
    ids=["evolve-ssp2", "evolve-scheme", "compare-kernels-scheme", "evolve-cfl",
         "compare-kernels-cfl", "evolve-run-past-blowup"],
)
def test_removed_options_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "gone"
    assert main(argv + ["--n-cells", "200", "--t-end", "0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_removed_option_in_config_file_exits_2(tmp_path):
    for line in ("ssp2 = true", "cfl = 0.3", "run_past_blowup = true"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nn_cells = 200\nt_end = 0.1\n")
        out = tmp_path / "gone"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2, line
        assert not out.exists(), line


# ------------------------------------------------------------------ fuzzing

# values that broke input validation before, plus ordinary ones
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 705.0, 1e308)
NUMBER = st.sampled_from(SPECIAL) | st.floats(-2.0, 2.0)
# whole-number ends keep dx >= 1/200 on the drawn grids, so no run takes
# more than a few thousand steps
DOMAIN_END = st.sampled_from(SPECIAL) | st.integers(-8, 12).map(float)
T_END = st.sampled_from(SPECIAL[:5]) | st.floats(0.0, 2.0)
KERNELS = ("zero", "sk", "infinite", "uniform", "linear", "sk:L=0.5", "sk:L=0", "sk:L=inf")


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(
        ["classify", "evolve", "bounds", "phase-portrait", "phase-sweep", "threshold-curve"]
    ))
    argv = [sub]

    def option(name, values, required=True):
        if required or draw(st.booleans()):
            argv.extend([f"--{name}", repr(float(draw(values)))])

    if sub in ("classify", "evolve"):
        argv += ["--datum", draw(st.sampled_from(["bump", "subinit"]))]
        argv += ["--n-cells", str(draw(st.integers(4, 200)))]
        option("x-left", DOMAIN_END, required=False)
        option("x-right", DOMAIN_END, required=False)
    if sub == "evolve":
        argv += ["--kernel", draw(st.sampled_from(KERNELS))]
        option("t-end", T_END)
    elif sub == "bounds":
        option("d0", NUMBER)
        option("u0", NUMBER)
        option("m", NUMBER, required=False)
    elif sub == "phase-portrait":
        option("d0", NUMBER)
        option("u0", NUMBER)
        option("factor", NUMBER, required=False)
        option("t-end", T_END, required=False)
        option("u-end", NUMBER, required=False)
    elif sub == "threshold-curve":
        argv += ["--samples", str(draw(st.integers(-1, 50)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(argv=command_lines())
@example(argv=["classify", "--n-cells", "200", "--x-right", "inf"])
@example(argv=["bounds", "--d0", "0.4", "--u0", "0.5", "--m", "1000.0"])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_fuzz_exit_codes_and_json(argv):
    """Any option values give exit 0, 2 or 3, and only standard JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        code = main(argv + ["--out", tmp])
        assert time.perf_counter() - start < 10.0, argv
        assert code in (0, 2, 3), argv
        for path in Path(tmp).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
