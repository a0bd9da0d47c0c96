#!/usr/bin/env python
"""Run the full experiment catalog into results/.

Usage: python scripts/run_experiments.py [out_dir] [n_cells]

Writes one bundle per recipe (classification, threshold overlay, per-kernel
snapshots, diagnostics and breakdown reports).  Grids default to the recipe
resolution; pass a cell count to override, e.g. a quick look at n=1000.
"""

import sys
from dataclasses import replace
from pathlib import Path

from nltraffic.scenarios import RECIPES, run_experiment


def main(argv):
    out = Path(argv[1]) if len(argv) > 1 else Path("results")
    n_cells = int(argv[2]) if len(argv) > 2 else None
    for name, exp in RECIPES.items():
        if n_cells is not None:
            exp = replace(exp, n_cells=n_cells)
        print(f"== {name} (n={exp.n_cells}) ==")
        result = run_experiment(exp, out)
        print(f"  verdict: {result.classification.verdict}")
        for tag, diag in result.diagnostics.items():
            rep = diag.blowup
            status = f"breakdown at t={rep.t_detect:g}" if rep.detected else "smooth"
            print(f"  {tag}: {status}, mass drift {diag.max_mass_drift:.3e}")
    print(f"bundles under {out}/")


if __name__ == "__main__":
    main(sys.argv)
