#!/usr/bin/env python
"""Sweep characteristic seeds around the critical curve.

Usage: python scripts/phase_sweep.py [out_dir]

For a grid of (u0, d0) seeds straddling the threshold, follow each
characteristic with the frozen factor 1 and tabulate whether the slope blew
up, the blow-up time, and the analytic certificate when one applies.  Output
is a single sweep.csv, with nan where a seed has no blow-up time or no
certificate, plus per-seed trajectories (t,d,u) for the supercritical cases.
"""

import math
import sys
from pathlib import Path

from nltraffic.characteristics import (
    ConstantFactor,
    integrate_characteristic,
    supercritical_bounds,
)
from nltraffic.threshold import default_curve
from nltraffic.writers import write_csv


def main(argv):
    out = Path(argv[1]) if len(argv) > 1 else Path("results/phase-sweep")
    out.mkdir(parents=True, exist_ok=True)
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
                write_csv(
                    out / f"traj_u{u0:g}_shift{shift:g}.csv", "t,d,u", (traj.t, traj.d, traj.u)
                )
            blown_up = traj.blowup_time is not None
            t_blowup = traj.blowup_time if blown_up else math.nan
            rows.append((u0, d0, shift, int(blown_up), t_blowup, sharp))
    write_csv(out / "sweep.csv", "u0,d0,shift,blown_up,t_blowup,T_star_sharp", list(zip(*rows)))
    print(f"wrote {out}/sweep.csv ({len(rows)} seeds)")


if __name__ == "__main__":
    main(sys.argv)
