"""Watching the law of large numbers kick in.

Runs the Monte Carlo harness at growing tree sizes, compares each mean
against the limiting constant, and exports the table as CSV.
"""

import csv
import os
import tempfile

from treedim import (
    ExperimentConfig,
    PAModel,
    PAParams,
    compare_to_constant,
    export,
    run_experiment,
)

model = PAModel(PAParams(2.0, -1))  # binary search trees
summaries = []
print("binary search trees, 300 trials each:")
print("    n      mean      stderr     |mean - c|")
for n in (100, 400, 1600):
    config = ExperimentConfig(
        model=model, n=n, trials=300, master_seed=61, statistic="beta_over_n"
    )
    summary = run_experiment(config)
    summaries.append(summary)
    print(
        f"{n:6d}  {summary.mean:.5f}  {summary.stderr:.5f}   {summary.abs_diff:.5f}"
    )

report = compare_to_constant(summaries[-1], tolerance=0.01)
print(
    f"\nat n = 1600: |mean - c| = {report.abs_diff:.5f} "
    f"(tolerance 0.01 -> {'pass' if report.within_tolerance else 'fail'}; "
    f"3-stderr band {report.band_halfwidth:.5f} -> "
    f"{'inside' if report.within_band else 'outside'})"
)

with tempfile.TemporaryDirectory() as folder:
    path = os.path.join(folder, "bst_convergence.csv")
    export(summaries, path)
    print(f"\nexported {len(summaries)} rows to {path}:")
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            mean, constant = float(row["mean"]), float(row["constant"])
            print(f"  n={row['n']}: mean={mean:.5f}, constant={constant:.5f}")
