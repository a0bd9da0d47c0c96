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
from nltraffic import scenarios
from nltraffic.cli import main, parse_args, parse_kernel_arg
from nltraffic.kernels import sk_scaled
from nltraffic.solver import SolverFailure


def test_parse_defaults():
    args = parse_args(["classify"])
    assert args.subcommand == "classify"
    assert args.datum == "bump"
    assert args.n_cells == 4000
    assert args.out == "out"


def test_parse_kernel_round_trip():
    assert parse_kernel_arg("sk:L=2.5") == sk_scaled(2.5)
    for bad in ("sk:L=-1", "sk:L=inf"):
        with pytest.raises(ValueError, match="--kernel"):
            parse_kernel_arg(bad)


def test_bad_kernel_exits_2(tmp_path, capsys):
    code = main(
        ["evolve", "--kernel", "sk:L=-1", "--n-cells", "200", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--kernel" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("subcommand", ["evolve", "compare-kernels"])
def test_non_finite_t_end_exits_2(tmp_path, capsys, subcommand, t_end):
    out = tmp_path / "bad"
    code = main([subcommand, "--n-cells", "200", "--t-end", t_end, "--out", str(out)])
    assert code == 2
    assert "t_end" in capsys.readouterr().err
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


@pytest.mark.parametrize("snapshots", ["0.05,0.050000000001", "0.05,0.05"])
def test_colliding_snapshot_names_exit_2(tmp_path, capsys, snapshots):
    """Two times that print alike would write one file twice: refused before any output."""
    out = tmp_path / "clash"
    argv = ["evolve", "--n-cells", "200", "--t-end", "0.1", "--run-past-blowup",
            "--snapshots", snapshots, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    first, second = snapshots.split(",")
    assert f"snapshot times {first} and {second} both name snap_t0.05.csv" in err
    assert not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize(
    "argv, name",
    [
        (["evolve", "--n-cells", "2"], "n_cells"),
        (["classify", "--x-left", "5", "--x-right", "1"], "x_left"),
        (["evolve", "--t-end", "4", "--snapshots", "5"], "snapshot_times"),
        (["bounds", "--d0", "0.4", "--u0", "0.5", "--m", "-1"], "m"),
        (["bounds", "--d0", "0.1", "--u0", "0.5"], "d0"),
        (["evolve", "--datum", "bump", "--x-right", "0.5", "--kernel", "infinite"], "x_right"),
        (["evolve", "--datum", "subinit", "--x-right", "5", "--kernel", "sk"], "x_right"),
        (["classify", "--datum", "subinit", "--x-left", "-2.5"], "x_left"),
        # no cell center lies in |x| < 1, so the sampled bump is 0 everywhere
        (["classify", "--datum", "bump", "--x-right", "1e6", "--n-cells", "100"], "n_cells"),
        (["evolve", "--datum", "bump", "--x-right", "1e6", "--n-cells", "100"], "x_right"),
        (["phase-portrait", "--d0", "0.2", "--u0", "0.5", "--factor", "1", "--t-end", "-1"],
         "t_end"),
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
    assert f"error: {option} must be finite" in capsys.readouterr().err


def test_classify_prints_verdict(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(
        ["classify", "--datum", "subinit", "--n-cells", "1000", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "SUBCRITICAL"
    report = json.loads((out / "classify-subinit" / "classification.json").read_text())
    assert report["verdict"] == "SUBCRITICAL"


def test_evolve_bundle_and_detection(tmp_path, capsys):
    out = tmp_path / "e"
    code = main(
        [
            "evolve", "--datum", "bump", "--kernel", "zero",
            "--n-cells", "500", "--t-end", "1.5", "--snapshots", "0,1.5",
            "--run-past-blowup", "--out", str(out),
        ]
    )
    assert code == 0
    assert "breakdown detected at t =" in capsys.readouterr().out
    kdir = out / "evolve-bump" / "kernel_zero"
    assert (kdir / "snap_t0.csv").is_file()
    assert (kdir / "snap_t1.5.csv").is_file()
    report = json.loads((kdir / "blowup.json").read_text())
    assert report["detected"] and 0.0 < report["t_detect"] < 1.5


def test_evolve_stops_at_detection_by_default(tmp_path):
    out = tmp_path / "e2"
    code = main(
        [
            "evolve", "--datum", "bump", "--kernel", "zero",
            "--n-cells", "500", "--t-end", "1.5", "--snapshots", "0,1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    kdir = out / "evolve-bump" / "kernel_zero"
    report = json.loads((kdir / "blowup.json").read_text())
    assert report["detected"]
    # the run halted early, so the t = 1.5 snapshot was never reached
    assert not (kdir / "snap_t1.5.csv").exists()


def test_evolve_reports_right_edge_contact(tmp_path, capsys):
    """A windowed kernel lets all density leave on the right; the run says so."""
    out = tmp_path / "edge"
    code = main(
        [
            "evolve", "--kernel", "sk", "--n-cells", "400", "--t-end", "30",
            "--run-past-blowup", "--out", str(out),
        ]
    )
    assert code == 0
    kdir = out / "evolve-bump" / "kernel_sk"
    report = json.loads((kdir / "blowup.json").read_text())
    assert report["boundary_contact_t"] == pytest.approx(7.326, abs=1e-3)
    last_mass = float((kdir / "diagnostics.csv").read_text().split("\n")[-2].split(",")[1])
    assert last_mass < 1e-100
    # at n = 400 the bump's initial gradient indicator already reaches 0.08/dx
    assert capsys.readouterr().err == (
        "warning: kernel sk: breakdown detected at t = 0: the initial gradient indicator "
        "2.14 reaches 0.08/dx = 2; raise --n-cells\n"
        "warning: kernel sk: density leaves through the right edge from t = 7.326\n"
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
    """Detection on the initial state is warned about once per kernel (n = 300), else not."""
    tags = ("zero", "sk", "infinite", "uniform")
    for n, coarse in (("300", True), ("4000", False)):
        out = tmp_path / f"cmp{n}"
        code = main(
            [
                "compare-kernels", "--datum", "bump", "--n-cells", n,
                "--t-end", "0.4", "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 4
        at_zero = [f"{tag}: breakdown at t = 0" for tag in tags]
        if coarse:
            assert lines == at_zero
            assert [line.split(": the initial")[0] for line in captured.err.splitlines()] == [
                f"warning: kernel {tag}: breakdown detected at t = 0" for tag in tags
            ]
        else:
            assert not set(lines) & set(at_zero)
            assert captured.err == ""
        root = out / "supercritical-compare"
        for tag in tags:
            assert (root / f"kernel_{tag}" / "snap_t0.2.csv").is_file()
            assert (root / f"kernel_{tag}" / "diagnostics.csv").is_file()


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


def run_python(args, timeout):
    """Run the interpreter on args in a fresh process that imports this nltraffic."""
    src = str(Path(nltraffic.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param(["--factor", "1", "--t-end", "nan"], "t_end must be", id="t_end-nan"),
        pytest.param(["--factor", "1", "--t-end", "inf"], "t_end must be", id="t_end-inf"),
        pytest.param(["--factor", "1", "--t-end", "-inf"], "t_end must be", id="t_end--inf"),
        pytest.param(["--factor", "1", "--d0", "nan"], "d0 must be", id="time-d0-nan"),
        pytest.param(["--factor", "1", "--u0", "nan"], "u0 must be", id="time-u0-nan"),
        pytest.param(["--d0", "nan"], "d0 must be", id="phase-d0-nan"),
    ],
)
def test_phase_portrait_non_finite_exits_2(tmp_path, extra, message):
    """Rejected by name in a process that is killed if it hangs."""
    argv = ["phase-portrait", "--d0", "0.4", "--u0", "0.5", *extra]
    proc = run_python(["-m", "nltraffic.cli", *argv, "--out", str(tmp_path)], timeout=60)
    assert proc.returncode == 2
    assert f"error: {message} finite" in proc.stderr


def test_hopeless_step_count_exits_2_at_once(tmp_path):
    """dx = 2.5e-7 may need ~1.8e7 steps: refused before the first, in a process killed if it runs on."""
    # at x = -0.99 the bump is about 1.5e-22: positive, yet 1 - 2u and the wave speed round to 1
    argv = ["evolve", "--datum", "bump", "--x-left", "-0.99", "--x-right", "-0.989999",
            "--n-cells", "4", "--t-end", "2", "--kernel", "zero"]
    proc = run_python(["-m", "nltraffic.cli", *argv, "--out", str(tmp_path)], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "1.78e+07 steps" in proc.stderr
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


def test_infinite_kernel_right_tail_exits_2_without_output(tmp_path, capsys):
    """The bump cut at x = 0.5 reaches the right edge: refused before any file is written."""
    argv = ["evolve", "--kernel", "infinite", "--x-right", "0.5", "--n-cells", "400"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "tail mass" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_compare_kernels_refused_at_first_lookahead_kernel(tmp_path, capsys, monkeypatch):
    """The bump cut at x = 0.5: zero runs, sk refuses, and the kernels after it never start."""
    ran = []

    def counting_evolve(u0, config):
        ran.append(config.kernel.tag)
        return real_evolve(u0, config)

    real_evolve = scenarios.evolve
    monkeypatch.setattr(scenarios, "evolve", counting_evolve)
    argv = ["compare-kernels", "--n-cells", "400", "--t-end", "1", "--x-right", "0.5"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "x_right" in capsys.readouterr().err
    assert ran == ["zero", "sk"]
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n-cells", str(10**15)],
        ["threshold-curve", "--samples", str(10**15)],
    ],
)
def test_unallocatable_size_exits_2(tmp_path, capsys, argv):
    """numpy refuses 10**15 doubles at once; the error names both size options."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lower --n-cells or --samples" in err, err


def test_bounds_overflow_names_u0(tmp_path, capsys):
    """1/u0 overflows for a subnormal u0: the message gives u0, not only m."""
    assert main(["bounds", "--d0", "0.4", "--u0", "1e-320", "--out", str(tmp_path)]) == 2
    assert "u0 = 1e-320" in capsys.readouterr().err


def test_readme_library_example_runs():
    """The README's one python block runs as printed, against the top-level imports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0].split("```")[0]], timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, blowup, _ = proc.stdout.splitlines()
    assert verdict == "SUPERCRITICAL" and blowup.startswith("True ")


def test_cli_paths_load_no_scipy(tmp_path):
    """No subcommand needs scipy: with its import blocked every one still runs.

    sys.modules["scipy"] = None makes any `import scipy...` raise ImportError,
    so a scipy import anywhere on these paths fails its command outright.
    """
    script = f"""
import json, sys
sys.modules["scipy"] = None
import nltraffic
nltraffic.default_curve()
from nltraffic.cli import main

codes = []
for argv in (
    ["classify", "--n-cells", "300"],
    ["bounds", "--d0", "0.4", "--u0", "0.5"],
    ["threshold-curve", "--samples", "11"],
    ["evolve", "--n-cells", "200", "--t-end", "0.1"],
    ["phase-portrait", "--d0", "0.4", "--u0", "0.5", "--factor", "1", "--t-end", "30"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5", "--u-end", "1e-300"],
    ["phase-portrait", "--d0", "0.3", "--u0", "0.5", "--u-end", "1e-300"],
    ["phase-portrait", "--d0", "0.1", "--u0", "0.5", "--factor", "1", "--t-end", "1e300"],
):
    codes.append(main(argv + ["--out", {str(tmp_path)!r} + "/" + str(len(codes))]))
print(json.dumps(codes))
"""
    proc = run_python(["-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 0], proc.stderr
    # d0 = 0.3 > sigma(0.5) = 0.25: the path blows up before u reaches 1e-300
    assert "u* = 0.231662, above u_end = 1e-300" in proc.stderr
    assert "slope blow-up at t = 1.81483" in proc.stdout


def test_solver_failure_writes_dump(tmp_path, capsys, monkeypatch):
    def boom(exp, out_dir):
        raise SolverFailure("synthetic failure", dump={"t": 0.5})

    monkeypatch.setattr("nltraffic.cli.run_experiment", boom)
    out = tmp_path / "sf"
    code = main(["classify", "--out", str(out)])
    assert code == 3
    dump = json.loads((out / "failure_dump.json").read_text())
    assert dump["error"] == "synthetic failure"
    assert dump["t"] == 0.5


def test_factor_band_failure_exits_3_with_dump(tmp_path, capsys, monkeypatch):
    """A real SolverFailure of the solver's own checks: ubar < 0 puts the factor above 1."""
    monkeypatch.setattr("nltraffic.solver.lookahead_average",
                        lambda values, dx, kernel, mass: np.full(len(values), -1e-6))
    out = tmp_path / "band"
    code = main(["evolve", "--n-cells", "200", "--t-end", "0.1", "--out", str(out)])
    assert code == 3
    assert "numerical failure: slow-down factor left its admissible band" in capsys.readouterr().err
    dump = json.loads((out / "failure_dump.json").read_text())
    assert set(dump) == {"error", "t", "factor_min", "factor_max"}
    assert dump["t"] == 0.0 and dump["factor_max"] > 1.0
    assert not (out / "evolve-bump").exists()


def test_evolve_smooth_run_prints_no_breakdown(tmp_path, capsys):
    out = tmp_path / "smooth"
    argv = ["evolve", "--datum", "subinit", "--kernel", "infinite", "--n-cells", "2000",
            "--t-end", "1", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "no breakdown detected\n"
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
    cfg.write_text("# curve sampling\nsamples = 21\nssp2 = false\n")
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


def test_config_boolean_true(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run_past_blowup = true\nn_cells = 200\n")
    args = parse_args(["evolve", "--config", str(cfg)])
    assert args.run_past_blowup is True
    assert args.n_cells == 200


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples 21\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_args(["threshold-curve", "--config", str(cfg)])


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8", "malformed", "option"])
def test_bad_config_exits_2(tmp_path, capsys, case):
    """A --config that cannot be read as `key = value` lines is refused by name."""
    cfg = tmp_path / "run.cfg"
    if case == "directory":
        cfg.mkdir()
    elif case == "non-utf8":
        cfg.write_bytes(b"n_cells = 5\xff\n")
    elif case == "malformed":
        cfg.write_text("n_cells 5\n")
    # "option": `--config --out o` would read --out as the file name
    argv = ["classify", "--config", "--out" if case == "option" else str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --config: ")
    assert not out.exists()


def test_manifest_records_options_and_files(tmp_path):
    out = tmp_path / "m"
    assert main(["threshold-curve", "--samples", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"] == {
        "config": None, "out": str(out), "samples": 5, "subcommand": "threshold-curve",
    }
    for rel in manifest["files"]:
        assert (out / rel).is_file()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classify", "--x-right", "inf"], "x_right"),
        (["evolve", "--x-left", "-inf", "--t-end", "0.5"], "x_left"),
        (["classify", "--x-left", "-1e308", "--x-right", "1e308"], "x_left, x_right"),
    ],
)
def test_non_finite_domain_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "bad"
    assert main(argv + ["--n-cells", "200", "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
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
    ],
    ids=["evolve-ssp2", "evolve-scheme", "compare-kernels-scheme", "evolve-cfl",
         "compare-kernels-cfl"],
)
def test_removed_options_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "gone"
    assert main(argv + ["--n-cells", "200", "--t-end", "0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_removed_option_in_config_file_exits_2(tmp_path):
    for line in ("ssp2 = true", "cfl = 0.3"):
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
KERNELS = ("zero", "sk", "infinite", "uniform", "linear", "sk:L=0.5")


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(
        ["classify", "evolve", "bounds", "phase-portrait", "threshold-curve"]
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
        if draw(st.booleans()):
            argv.append("--run-past-blowup")
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
