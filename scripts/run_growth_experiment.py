#!/usr/bin/env python3
"""Sweep vector dimension and record how the deviation norm grows.

Runs the dimension-free case (gaussian-type coordinates in the 2-norm) and
the square-root-growth case (exponential coordinates in the 1-norm) over a
grid of dimensions, fits the log-log slopes, and writes the report CSV.
"""

import argparse
import sys

from subweibull import DistributionSpec
from subweibull.montecarlo import growth_suite, loglog_slope, reports_to_csv
from subweibull.verify import N_GRID


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20_240_817)
    parser.add_argument("--n-grid", default=",".join(map(str, N_GRID)))
    parser.add_argument("--output", default="growth_reports.csv")
    args = parser.parse_args()

    n_grid = [int(v) for v in args.n_grid.split(",")]
    suites = [
        ("dimension-free", DistributionSpec.pnormal(2.0), 2.0),
        ("sqrt-growth", DistributionSpec.exponential(), 1.0),
    ]
    all_reports = []
    for label, spec, p in suites:
        reports = growth_suite(spec, p, n_grid, args.trials, args.seed)
        slope = loglog_slope(n_grid, [r.emp_dev_norm for r in reports])
        norms = ", ".join(f"{r.emp_dev_norm:.4f}" for r in reports)
        print(f"{label} ({spec.family}, p={p}): slope {slope:+.4f}  norms [{norms}]")
        all_reports.extend(reports)

    with open(args.output, "w") as handle:
        handle.write(reports_to_csv(all_reports))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
