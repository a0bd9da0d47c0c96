"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `ACCEPTANCE <n> <name>: PASS/FAIL` line (also
collected into the terminal summary) and then asserts, so a red criterion
is visible both in the log and in the exit status.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from conftest import ACCEPTANCE_LINES
from nltraffic.characteristics import (
    CharState,
    ConstantFactor,
    blowup_time_bound,
    integrate_characteristic,
    phase_trajectory,
    supercritical_bounds,
    time_to_level,
)
from nltraffic.grid import GridFunction, total_mass
from nltraffic.kernels import UNIFORM, ZERO, sk_scaled
from nltraffic.scenarios import CATALOG, RECIPES, run_experiment
from nltraffic.solver import SolverConfig, evolve
from nltraffic.threshold import classify_initial_data, default_curve
from oracles import (
    CATALOG_VERDICTS, build_table, eta_crossing_time, front_position, phase_path_at,
    slope_roots,
)

COMPARE_TAGS = ("zero", "sk", "infinite", "uniform")


def record(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line + (f" ({detail})" if detail else "")


@pytest.fixture(scope="module")
def sup_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sup")
    start = time.perf_counter()
    result = run_experiment(RECIPES["supercritical-compare"], out)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def sub_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sub")
    start = time.perf_counter()
    result = run_experiment(RECIPES["subcritical-compare"], out)
    return result, time.perf_counter() - start


def test_criterion_1_threshold_consistency():
    start = time.perf_counter()
    u_nodes, sigma_nodes = build_table()  # the timing bound covers integration
    spline = CubicSpline(u_nodes, sigma_nodes)
    us = np.linspace(0.01, 0.99, 4901)
    gap = float(np.max(np.abs(spline(us) - us * (1.0 - us))))
    ends = (sigma_nodes[0], sigma_nodes[-1])
    h = u_nodes[1] - u_nodes[0]
    slope0 = (sigma_nodes[1] - sigma_nodes[0]) / h
    elapsed = time.perf_counter() - start
    curve_gap = float(np.max(np.abs(default_curve().eval(us) - spline(us))))
    ok = (
        gap <= 1e-6
        and curve_gap <= 1e-6
        and ends == (0.0, 0.0)
        and abs(slope0 - 1.0) <= 2e-4
        and elapsed < 1.0
    )
    record(1, "threshold curve consistency", ok,
           f"gap={gap:.2e} curve_gap={curve_gap:.2e} slope0={slope0:.6f} "
           f"elapsed={elapsed:.2f}s")


def test_criterion_2_classifier_verdicts():
    start = time.perf_counter()
    ok = True
    detail = []
    for n in (1000, 2000, 4000):
        for name, datum in CATALOG.items():
            got = classify_initial_data(datum.sample(n)).verdict
            detail.append(f"{name}@{n}={got}")
            ok = ok and got == CATALOG_VERDICTS[name]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    record(2, "classifier verdicts stable in resolution", ok,
           " ".join(detail) + f" elapsed={elapsed:.2f}s")


def test_criterion_3_invariant_region_and_blowup(curve):
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = -np.inf
    for _ in range(100):
        u0 = float(rng.uniform(0.05, 0.95))
        d0 = curve.eval(u0) - float(rng.uniform(0.02, 0.6))
        traj = integrate_characteristic(
            CharState(d=d0, u=u0),
            ConstantFactor(1.0),
            t_end=50.0,
            t_eval=np.linspace(0.0, 50.0, 1001),
        )
        worst = max(worst, float(np.max(traj.d - curve.eval(traj.u))))
    below_ok = worst <= 1e-6

    blow_ok = True
    for _ in range(50):
        u0 = float(rng.uniform(0.1, 0.9))
        d0 = curve.eval(u0) + float(rng.uniform(0.01, 0.5))
        b = supercritical_bounds(d0, u0, m=0.0)
        traj = integrate_characteristic(
            CharState(d=d0, u=u0),
            ConstantFactor(1.0),
            t_end=b.T_star_sharp + 1.0,
        )
        t_blow = traj.blowup_time
        blow_ok = blow_ok and t_blow is not None and t_blow <= b.T_star_sharp
    elapsed = time.perf_counter() - start
    ok = below_ok and blow_ok and elapsed < 30.0
    record(3, "invariant region and certified blow-up", ok,
           f"worst_excess={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_4_analytic_oracles():
    t1_ok = all(
        abs(time_to_level(u0, u1, m) - eta_crossing_time(u0, u1, m)) <= 1e-6
        for u0, u1, m in ((0.5, 0.25, 0.0), (0.9, 0.1, 0.7), (0.3, 0.05, 1.5))
    )

    bound = blowup_time_bound(0.4, 0.1, m=0.0, t1=0.0)
    dm, dp = bound.d_minus, bound.d_plus

    def escape(t, y):
        return y[0] - 1e9

    escape.terminal = True
    escape.direction = 1
    sol = solve_ivp(
        lambda t, y: 2.0 * (y[0] - dm) * (y[0] - dp),
        (0.0, 10.0 * bound.sharp),
        [0.4],
        events=escape,
        rtol=1e-10,
        atol=1e-12,
    )
    riccati_ok = (
        sol.t_events[0].size == 1
        and abs(sol.t_events[0][0] - bound.sharp) <= 0.01 * bound.sharp
    )

    roots_ok = slope_roots(1.0) == (-1.0, 0.0) and slope_roots(0.0) == (0.0, 0.0)
    record(4, "analytic oracle cross-checks", t1_ok and riccati_ok and roots_ok,
           f"t1_ok={t1_ok} riccati_ok={riccati_ok} roots_ok={roots_ok}")


def test_criterion_5_conservation_and_max_principle(sup_run, sub_run):
    ok = True
    detail = []
    runs = (("supercritical-compare", sup_run, 60.0), ("subcritical-compare", sub_run, 60.0))
    for name, (result, elapsed), t_budget in runs:
        n = 4000
        for tag, diag in result.diagnostics.items():
            drift = diag.max_mass_drift
            lo, hi = min(diag.min_u), max(diag.max_u)
            ok = ok and drift <= 1e-12 * n and lo >= -1e-8 and hi <= 1.0 + 1e-8
            detail.append(f"{name}/{tag}: drift={drift:.1e}")
        ok = ok and elapsed < t_budget
    record(5, "conservation and maximum principle", ok, " ".join(detail))


def test_criterion_6_subcritical_kernel_separation(sub_run):
    result, _ = sub_run
    reports = {tag: result.diagnostics[tag].blowup for tag in COMPARE_TAGS}
    fire_ok = all(
        reports[tag].detected and reports[tag].t_detect <= 20.0
        for tag in ("zero", "sk", "uniform")
    )
    quiet = result.diagnostics["infinite"].grad_indicator
    quiet_ok = (not reports["infinite"].detected) and max(quiet) < 10.0 * quiet[0]
    record(6, "only the unbounded horizon stays smooth", fire_ok and quiet_ok,
           f"detections={[(t, reports[t].t_detect) for t in COMPARE_TAGS]}")


def test_criterion_7_supercritical_breakdown_and_fronts(sup_run):
    result, _ = sup_run
    detect_ok = all(
        result.diagnostics[tag].blowup.detected
        and result.diagnostics[tag].blowup.t_detect <= 4.0
        for tag in COMPARE_TAGS
    )
    dx = result.snapshots["zero"][2.0].grid.dx
    order_ok = True
    fronts_seen = []
    for level in (0.05, 0.2):
        f = [front_position(result.snapshots[tag][2.0], level) for tag in COMPARE_TAGS]
        order_ok = order_ok and f[0] >= f[1] >= f[2] >= f[3] - dx
        fronts_seen.append((level, [round(v, 4) for v in f]))
    record(7, "breakdown for every kernel and front ordering", detect_ok and order_ok,
           f"fronts={fronts_seen}")


def test_compare_recipes_keep_density_inside(sup_run, sub_run):
    """No reference run loses density through the right edge."""
    for name, (result, _) in (("supercritical-compare", sup_run), ("subcritical-compare", sub_run)):
        contact = {tag: d.blowup.boundary_contact_t for tag, d in result.diagnostics.items()}
        assert contact == dict.fromkeys(COMPARE_TAGS), name


def test_criterion_8_reduction_limits():
    datum = CATALOG["bump"]
    n = 1000
    u0 = datum.sample(n)
    dx = u0.grid.dx
    m = total_mass(u0)
    t_fast = math.exp(-m)

    def final_profile(u_init, kernel, t_end):
        config = SolverConfig(
            grid=u_init.grid, kernel=kernel, t_end=t_end,
            snapshot_times=(t_end,), stop_on_blowup=False,
        )
        snaps, _ = evolve(u_init, config)
        return dict(snaps)[t_end]

    uni = final_profile(u0, UNIFORM, 1.0)
    zero = final_profile(u0, ZERO, t_fast)
    rescale_l1 = dx * float(np.abs(uni.values - zero.values).sum())

    # first-order scheme error at this resolution, estimated by refinement
    coarse = final_profile(datum.sample(n // 2), ZERO, t_fast)
    restricted = zero.values.reshape(n // 2, 2).mean(axis=1)
    scheme_err = coarse.grid.dx * float(np.abs(coarse.values - restricted).sum())
    rescale_ok = rescale_l1 <= 2.0 * scheme_err

    length = 1e-3
    sk = final_profile(u0, sk_scaled(length), 1.0)
    zero_t1 = final_profile(u0, ZERO, 1.0)
    sk_l1 = dx * float(np.abs(sk.values - zero_t1.values).sum())
    sk_ok = sk_l1 <= 10.0 * length

    record(8, "uniform and short-window reductions", rescale_ok and sk_ok,
           f"rescale_l1={rescale_l1:.2e} (budget {2*scheme_err:.2e}) "
           f"sk_l1={sk_l1:.2e} (budget {10*length:.2e})")


def test_criterion_9_factor_independent_phase_paths():
    us = np.linspace(0.45, 0.25, 15)
    matched = []
    for f, t_end in ((0.3, 50.0), (1.0, 15.0)):
        traj = integrate_characteristic(
            CharState(d=0.2, u=0.5),
            ConstantFactor(f),
            t_end=t_end,
            t_eval=np.linspace(0.0, t_end, 40001),
        )
        matched.append(np.interp(-us, -traj.u, traj.d))
    spread = float(np.max(np.abs(matched[0] - matched[1])))
    phase = phase_path_at(phase_trajectory(0.2, 0.5, 0.1), us)
    phase_gap = float(np.max(np.abs(matched[1] - phase)))
    ok = spread <= 1e-6 and phase_gap <= 1e-6
    record(9, "phase paths independent of the slow-down factor", ok,
           f"spread={spread:.2e} phase_gap={phase_gap:.2e}")
