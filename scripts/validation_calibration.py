#!/usr/bin/env python3
"""Null calibration of the array-validation statistics.

Simulates replicated genes with known per-gene scales and no systematic
bias, then reports the uniformity of the chi-square statistic's p-values
and the empirical sizes of the normal-approximation statistics.

    python scripts/validation_calibration.py --reps 1000
"""

import argparse

import numpy as np
from scipy import stats

from genevar.model import ReplicatedArray
from genevar.inference import validation_tests


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--genes", type=int, default=19)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    g, i = args.genes, args.replicates
    sigma_g = rng.uniform(0.5, 2.0, g)
    x = np.full((g, i), 10.0)

    pvals = {name: np.empty(args.reps) for name in ("p1", "p2", "p3", "p4")}
    for r in range(args.reps):
        alpha = rng.normal(0, 1, g)
        y = alpha[:, None] + sigma_g[:, None] * rng.standard_normal((g, i))
        res = validation_tests(ReplicatedArray(x=x, y=y), sigma_g)
        for name in pvals:
            pvals[name][r] = getattr(res, name)

    print(f"null model: G={g}, I={i}, {args.reps} replications")
    print(f"{'stat':<6s} {'KS-p(uniform)':>14s} {'size@0.05':>10s} {'size@0.01':>10s}")
    for name, label in zip(("p1", "p2", "p3", "p4"), ("T1", "T2", "T3", "T4")):
        ks = stats.kstest(pvals[name], "uniform").pvalue
        s05 = np.mean(pvals[name] < 0.05)
        s01 = np.mean(pvals[name] < 0.01)
        print(f"{label:<6s} {ks:14.4f} {s05:10.3f} {s01:10.3f}")


if __name__ == "__main__":
    main()
