"""Command-line front end.

Commands
--------
estimate   variance curve + correlation report from a replicated-array CSV
validate   per-array bias tests T1..T4 with p-values
select     t-test vs z-test gene calls, counts grid, power report
simulate   benchmark presets (table1 / table2 / table3)

Every command takes --out, --bandwidth, --rho and --format; the three input
commands add --input and --grid, and run one load-and-fit step (_fit): the
grid from the pooled intensities, the fixed point, which checks the data,
and the intensity density.  simulate evaluates on the design's grid.  In
table format each command prints a summary to stdout: estimate one line
(rho, sigma1, sigma2, iterations, converged), the others a table.

The module itself imports only the standard library's argparse, math, os
and sys, so that --help and a usage error answer without numpy.  Once the
arguments parse, main makes the --out directory with pathlib; one that
cannot be made is a usage error, answered before any work.  Each command
imports, inside its function or the helpers it calls, the modules that it
runs: numpy and the fit's modules (model, io, correlation, smoothing) for
every command, asymptotics for estimate, inference for validate and select,
simulation for simulate, and hashlib and json for the manifest.  So a
process loads no more than its command needs.

Once a command has returned, main writes a manifest.json (flags, package
and library versions, input digests) sufficient to re-run bit-identically;
simulate's flags include its --seed.  By then the command's data is out of
scope, so hashlib and the digest do not load on top of it.  The manifest is
written on exit 0 and 5, never on 2, 3 or 4; a run that exits 3 or 4
leaves --out empty if it was new.  Exit codes:
0 success, 2 usage, 3 malformed input file, 4 invalid data for the requested
analysis, 5 estimation did not converge.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_INGESTION = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5

DEFAULT_ALPHAS = (0.05, 0.01, 0.005, 0.001)
DEFAULT_FOLD_CHANGES = (1.5, 2.0, 4.0)


def _float_list(text, low=-math.inf, high=math.inf):
    """Comma-separated floats, at least one, each strictly between low and
    high, which also rules out infinities and NaN."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    for value in values:
        if not low < value < high:
            raise argparse.ArgumentTypeError(
                f"{value!r} is not strictly between {low!r} and {high!r}")
    return values


def _levels(text):
    """Comma-separated significance levels, each in (0, 1)."""
    return _float_list(text, 0.0, 1.0)


def _int_list(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _pair_list(text):
    """'a:b,c:d' -> ((a, b), (c, d))."""
    pairs = []
    for tok in text.split(","):
        if tok.strip():
            a, _, b = tok.partition(":")
            try:
                pairs.append((int(a), int(b)))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad pair {tok.strip()!r}; expected 'a:b' with integer "
                    "indices") from None
    return tuple(pairs)


def _sha256(path) -> str:
    """The input's digest, read through one reusable 64 KB buffer."""
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while n := handle.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()


def _outdir(path):
    """Make the output directory with its parents if missing; "" is the
    current directory."""
    from pathlib import Path

    Path(path).mkdir(parents=True, exist_ok=True)


def _write_manifest(args):
    """manifest.json in --out: the command, its flags, the package and
    library versions and the --input's digest."""
    import json

    import numpy as np

    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "versions": {
            "genevar": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "inputs": ({args.input: _sha256(args.input)} if "input" in vars(args)
                   else {}),
    }
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True, indent=2,
                                default=str) + "\n")


def _fit(args, mset, rho):
    """The fit behind estimate, validate and select: the config from the
    pooled intensities, the fixed point (which checks the data) and the
    intensity density.  Returns (config, fixed point, density)."""
    import numpy as np

    from .correlation import fixed_point_solve
    from .model import EstimationConfig, GenevarError, TooFewArrays, default_grid
    from .smoothing import density_interpolator

    if rho is None and mset.n_arrays < 2:
        raise TooFewArrays(
            "J=1: replicate correlation is not estimable; pass --rho to pin it")
    pooled_x = mset.x.ravel()
    try:
        if args.grid and ":" in args.grid:
            lo, hi, n = args.grid.split(":")
            grid = np.linspace(float(lo), float(hi), int(n))
        elif args.grid:
            grid = default_grid(pooled_x, n_points=int(args.grid))
        else:
            grid = default_grid(pooled_x)
    except ValueError as exc:
        raise GenevarError(f"bad --grid {args.grid!r}: {exc}") from None
    config = EstimationConfig(bandwidth=args.bandwidth, grid=grid)
    fp = fixed_point_solve(mset, config, fixed_rho=rho)
    return config, fp, density_interpolator(pooled_x, config)


def cmd_estimate(args) -> int:
    from .asymptotics import corrected_curve_stderr
    from .io import read_table, write_csv

    mset = read_table(args.input)
    config, fp, density = _fit(args, mset, args.rho)
    est = fp.estimate
    curve = fp.curve
    stderr = corrected_curve_stderr(fp, mset.n_genes, mset.n_arrays, config,
                                    density)

    write_csv(os.path.join(args.out, "curve.csv"),
              ["x", "variance", "stderr", "flags"],
              [curve.grid, curve.values, stderr, curve.flags])
    write_csv(os.path.join(args.out, "correlation.csv"),
              ["rho", "sigma1", "sigma2", "rho_raw", "iterations",
               "converged", "clipped", "curve_change", "mode"],
              [[v] for v in (
                  est.rho, est.sigma1, est.sigma2,
                  fp.rho_raw if fp.rho_raw is not None else "",
                  est.iterations, est.converged, est.clipped,
                  fp.curve_change,
                  "paired" if mset.n_replicates == 2 else "pooled")])
    if args.format == "table":
        print(f"rho {est.rho:.4f}  sigma1 {est.sigma1:.4f}  "
              f"sigma2 {est.sigma2:.4f}  iterations {est.iterations}  "
              f"converged {est.converged}")
    if not est.converged:
        print("warning: fixed point did not converge "
              f"(iterations={est.iterations})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_validate(args) -> int:
    import numpy as np

    from .inference import gene_sigma, validation_tests
    from .io import read_table, write_csv
    from .model import NoReplicatedGenes

    mset = read_table(args.input)
    if mset.n_replicates < 2:
        raise NoReplicatedGenes(
            "validation needs genes with at least two replicates per array")
    _, fp, density = _fit(args, mset, args.rho)

    sigma = np.sqrt(np.clip(gene_sigma(fp.curve, mset.x, density), 0.0, None))
    results = [validation_tests(array, sigma[j], array_id=f"array{j + 1}")
               for j, array in enumerate(mset.arrays)]

    fields = ["array_id", "t1", "p1", "t2", "p2", "t3", "p3", "t4", "p4"]
    write_csv(os.path.join(args.out, "validation.csv"), fields,
              [[getattr(r, name) for r in results] for name in fields])
    if args.format == "table":
        print(f"{'array':<10s} {'p(T1)':>8s} {'p(T2)':>8s} {'p(T3)':>8s} {'p(T4)':>8s}")
        for r in results:
            print(f"{r.array_id:<10s} {r.p1:8.4f} {r.p2:8.4f} {r.p3:8.4f} {r.p4:8.4f}")
    return EXIT_OK


def _array_indices(n_arrays: int, indices):
    """0-based positions of 1-based array indices, each checked in order."""
    import numpy as np

    from .model import GenevarError

    for j in indices:
        if not 1 <= j <= n_arrays:
            raise GenevarError(f"array index {j} is outside 1..J (J={n_arrays})")
    return np.asarray(indices, dtype=np.intp) - 1


def _super_block(block):
    """The J arrays of a (J, N, I) block side by side as one read-only
    (1, N, J*I) block, whose row g holds gene g's spots array after array;
    one copy, which MultiArraySet keeps as it is."""
    import numpy as np

    n_arrays, n_genes, n_reps = block.shape
    out = np.empty((n_genes, n_arrays, n_reps))
    out[...] = block.transpose(1, 0, 2)
    out.setflags(write=False)
    return out.reshape(1, n_genes, n_arrays * n_reps)


def cmd_select(args) -> int:
    import numpy as np

    from .inference import (
        gene_sigma,
        power_increase,
        selection_counts,
        t_pvalues,
        z_pvalues,
    )
    from .io import read_table, write_csv
    from .model import MultiArraySet, TooFewArrays

    mset = read_table(args.input)
    x, y = mset.x, mset.y
    if args.swap_arrays:
        # dye-swapped arrays: their log ratios are negated
        y = y.copy()
        y[_array_indices(len(y), sorted(set(args.swap_arrays)))] *= -1.0
    if args.average_pairs:
        # listed array pairs averaged, e.g. a dye swap with its partner
        first, second = _array_indices(
            len(y), [j for pair in args.average_pairs for j in pair]).reshape(-1, 2).T
        x, y = 0.5 * (x[first] + x[second]), 0.5 * (y[first] + y[second])
    if len(y) < 2:
        raise TooFewArrays("gene selection needs at least two observations per gene")

    # View the J arrays as replicated columns of one super array; between-array
    # replicates are taken as uncorrelated unless --rho overrides.
    mset = MultiArraySet(x=_super_block(x), y=_super_block(y),
                         gene_ids=mset.gene_ids)
    del x, y  # the super set holds the only copy
    super_array = mset.arrays[0]
    _, fp, density = _fit(args, mset, args.rho if args.rho is not None else 0.0)
    sigma_hat = np.sqrt(np.clip(gene_sigma(fp.curve, super_array.x, density),
                                1e-12, None))

    n = super_array.n_replicates
    means = super_array.y.mean(axis=1)
    sample_sd = super_array.y.std(axis=1, ddof=1)
    t_stat, p_t, flagged = t_pvalues(means, sample_sd, n)
    z_stat, p_z = z_pvalues(means, sigma_hat, n)
    fold = 2.0 ** np.abs(means)

    write_csv(os.path.join(args.out, "gene_calls.csv"),
              ["gene_id", "mean", "sample_sd", "sigma_hat", "fold_change",
               "t_stat", "p_t", "z_stat", "p_z", "flagged"],
              [mset.gene_ids, means, sample_sd, sigma_hat, fold,
               t_stat, p_t, z_stat, p_z, flagged])

    counts_rows = selection_counts(p_t, p_z, fold, args.fold_changes, args.alphas)
    write_csv(os.path.join(args.out, "counts.csv"),
              ["fold_change", "alpha", "t_selected", "z_selected"],
              zip(*counts_rows))

    power = power_increase(means, sigma_hat, n, args.alphas,
                           sample_sd=sample_sd)
    write_csv(os.path.join(args.out, "power.csv"),
              ["alpha", "theoretical", "empirical"],
              [args.alphas, *zip(*power)])
    if args.format == "table":
        print(f"{'FC':>5s} {'alpha':>7s} {'t':>7s} {'z':>7s}")
        for fc, alpha, t_n, z_n in counts_rows:
            print(f"{fc:5.1f} {alpha:7.3f} {t_n:7d} {z_n:7d}")
    return EXIT_OK


PRESETS = {
    "table1": ("two_stage", "replicate_average"),
    "table2": ("replicate_average", "corrected", "oracle"),
    "table3": ("corrected",),
}


def cmd_simulate(args) -> int:
    from .io import write_csv
    from .simulation import SimDesign, run_experiment

    estimators = PRESETS[args.preset]
    design = SimDesign(
        n_genes=args.n_genes,
        n_replicates=args.replicates,
        n_arrays=args.arrays,
        rho=args.rho if args.rho is not None else 0.0,
        bandwidth=args.bandwidth,
        n_runs=args.reps,
        seed=args.seed,
        effect_mode="smooth" if args.alpha_mode == "smooth" else "gene",
    )
    report = run_experiment(design, estimators=estimators)

    names = report.estimators
    metrics = [report.metrics[name] for name in names]
    write_csv(os.path.join(args.out, "report.csv"),
              ["estimator", "bias2", "var", "mise"],
              [names, [m.bias2 for m in metrics], [m.var for m in metrics],
               [m.mise for m in metrics]])
    if report.parameter_stats:
        stats = report.parameter_stats
        fields = ["truth", "mean", "bias2", "var", "mse"]
        write_csv(os.path.join(args.out, "params.csv"), ["parameter", *fields],
                  [list(stats)] + [[getattr(p, f) for p in stats.values()]
                                   for f in fields])
    write_csv(os.path.join(args.out, "curves.csv"),
              ["x", "truth"] + [f"{name}_median_run" for name in names],
              [report.grid, report.truth] + [m.median_curve for m in metrics])
    write_csv(os.path.join(args.out, "ise.csv"), ["run", *names],
              [range(design.n_runs)] + [m.ise for m in metrics])
    if args.format == "table":
        print(report.format_table())
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--bandwidth", type=float, default=1.0,
                        help="kernel bandwidth in log2-intensity units")
    parser.add_argument("--rho", type=float, default=None,
                        help="override the replicate correlation")
    parser.add_argument("--format", choices=["csv", "table"], default="table")


def _add_input(parser):
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--grid", default=None,
                        help="'lo:hi:n' or point count (default 101, data-driven range)")
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genevar",
        description="Genewise variance estimation for replicated two-color arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="variance curve and correlation report")
    _add_input(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate", help="per-array bias tests T1..T4")
    _add_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("select", help="t-test vs z-test gene selection")
    _add_input(p)
    p.add_argument("--alphas", type=_levels, default=DEFAULT_ALPHAS,
                   help="comma-separated significance levels in (0, 1)")
    p.add_argument("--fold-changes", type=_float_list, default=DEFAULT_FOLD_CHANGES,
                   help="comma-separated finite fold-change thresholds")
    p.add_argument("--swap-arrays", type=_int_list, default=(),
                   help="1-based indices of dye-swapped arrays (ratios negated)")
    p.add_argument("--average-pairs", type=_pair_list, default=None,
                   help="1-based array pairs to average, e.g. '1:6,2:7'")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="benchmark presets")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=100, help="number of runs")
    p.add_argument("--n-genes", type=int, default=2000)
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--arrays", type=int, default=4)
    p.add_argument("--alpha-mode", choices=["smooth", "nonsmooth"],
                   default="nonsmooth", help="gene effects: a level per gene or a bump in x")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _outdir(args.out)
    except OSError as exc:
        parser.error(f"--out {args.out!r} cannot be made a directory: "
                     f"{exc.strerror or exc}")
    from .model import GenevarError, IngestionError

    try:
        code = args.func(args)
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except GenevarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_manifest(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
