#!/usr/bin/env python3
"""Desk-scale reproduction of the benchmark tables.

Runs ``genevar simulate`` for the gene-effect comparison (the table1
preset: two-stage baseline vs residual-based estimator, smooth and
nonsmooth effects) and for the correlation sweep (the table2 preset:
uncorrected / corrected / oracle curves, with the parameter-recovery
stats), printing each table.  Every design writes simulate's files
(report.csv, curves.csv, ise.csv, params.csv for table2, manifest.json)
to its own subdirectory of --out, or of a temporary directory removed at
the end when --out is not given.

    python scripts/reproduce_tables.py --reps 100 --out results/
"""

import argparse
import tempfile
from pathlib import Path

from genevar.cli import main as genevar

RHOS = (-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8)


def simulate(out, name, args, *flags):
    """One simulate run into out/name; stops on a nonzero exit code."""
    code = genevar(["simulate", *flags, "--reps", str(args.reps),
                    "--seed", str(args.seed), "--out", str(out / name),
                    "--format", "table"])
    if code:
        raise SystemExit(code)
    print()


def run(args, out):
    print("== gene-effect designs (two-stage baseline vs residual-based) ==")
    for mode in ("smooth", "nonsmooth"):
        print(f"-- {mode} effects --")
        simulate(out, f"effects_{mode}", args,
                 "--preset", "table1", "--alpha-mode", mode)

    print("== correlation sweep (uncorrected / corrected / oracle) ==")
    for rho in RHOS:
        print(f"-- rho = {rho:+.1f} --")
        simulate(out, f"correlation_{rho:+.1f}", args,
                 "--preset", "table2", "--rho", str(rho))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for simulate's outputs, one "
                             "subdirectory per design")
    args = parser.parse_args()
    if args.out is not None:
        run(args, args.out)
        return
    with tempfile.TemporaryDirectory() as tmp:
        run(args, Path(tmp))


if __name__ == "__main__":
    main()
