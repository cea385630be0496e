#!/usr/bin/env python3
"""Desk-scale reproduction of the three benchmark tables.

Runs the gene-effect comparison (two-stage baseline vs residual-based
estimator, smooth and nonsmooth effects), the correlation sweep for the
uncorrected / corrected / oracle curves, and the parameter-recovery stats,
printing each table and optionally writing full-precision CSVs.

    python scripts/reproduce_tables.py --reps 100 --out results/
"""

import argparse
import csv
from pathlib import Path

from genevar.simulation import SimDesign, run_experiment


def write_report(report, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["estimator", "bias2", "var", "mise"])
        for name in report.estimators:
            m = report.metrics[name]
            writer.writerow([name, repr(m.bias2), repr(m.var), repr(m.mise)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for full-precision CSVs")
    args = parser.parse_args()

    print("== gene-effect designs (two-stage baseline vs residual-based) ==")
    for mode in ("smooth", "gene"):
        design = SimDesign(rho=0.0, n_runs=args.reps, seed=args.seed,
                           effect_mode=mode)
        report = run_experiment(design, estimators=("two_stage", "replicate_average"))
        label = "smooth" if mode == "smooth" else "nonsmooth"
        print(f"-- {label} effects --")
        print(report.format_table())
        if args.out:
            write_report(report, args.out / f"effects_{label}.csv")
        print()

    print("== correlation sweep (uncorrected / corrected / oracle) ==")
    for rho in (-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8):
        design = SimDesign(rho=rho, n_runs=args.reps, seed=args.seed)
        report = run_experiment(
            design, estimators=("replicate_average", "corrected", "oracle"))
        print(f"-- rho = {rho:+.1f} --")
        print(report.format_table())
        if args.out:
            write_report(report, args.out / f"correlation_{rho:+.1f}.csv")
        print()


if __name__ == "__main__":
    main()
