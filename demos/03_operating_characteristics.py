#!/usr/bin/env python3
"""Operating characteristics of one scenario over a reduced timing grid,
written out as results.csv plus the three-panel SVG heatmaps.

Run:  python demos/03_operating_characteristics.py     (a few seconds)
Outputs land in demos/output/.
"""

import dataclasses
import os
import time

from fast_trials.design import load_scenarios
from fast_trials.harness import run_grid
from fast_trials.reporting import render_heatmaps_svg, results_rows, write_results_csv

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "output")
os.makedirs(OUT, exist_ok=True)

(scenario,) = load_scenarios(os.path.join(HERE, "..", "scenarios", "both_arms_effective.json"))
# shrink the sweep so the demo stays quick: 4x4 grid, 250 replicates
scenario = dataclasses.replace(
    scenario,
    n_drop_grid=(90, 150, 210, 300),
    n_feas_grid=(90, 150, 210, 300),
    replicates=250,
)

print(f"sweeping {len(scenario.n_drop_grid) * len(scenario.n_feas_grid)} timing cells "
      f"x {scenario.replicates} replicates ...")
start = time.time()
results = run_grid(scenario, threads=os.cpu_count() or 1)
print(f"done in {time.time() - start:.1f}s\n")

print(f"{'n_drop':>7} {'n_feas':>7} {'first':>13} {'retain_ok':>10} {'proceed':>8} {'power':>7} {'fwer':>7}")
for oc in results:
    print(
        f"{oc.n_drop:>7} {oc.n_feas:>7} {oc.order_first:>13} "
        f"{oc.p_retain_correct:>10.3f} {oc.p_proceed:>8.3f} {oc.power:>7.3f} {oc.fwer:>7.3f}"
    )

csv_path = os.path.join(OUT, "results.csv")
svg_path = os.path.join(OUT, "heatmaps.svg")
write_results_csv(results, csv_path)
render_heatmaps_svg(results_rows(results), svg_path)
print(f"\nwrote {csv_path}")
print(f"wrote {svg_path}  (three panels: retention, proceed, power; darker = higher)")
print("\nreading the panels: power concentrates where the feasibility trigger is late")
print("(large n_feas) and the arm-dropping trigger is early (small n_drop).")
