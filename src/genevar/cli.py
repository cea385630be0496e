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

Each command imports inside its function the modules that only it runs
(asymptotics for estimate, inference for validate and select, simulation
for simulate), so that a process loads no more than its command needs.

Every command writes a manifest.json (flags, package and library versions,
input digests) sufficient to re-run bit-identically; simulate's flags include
its --seed.  Exit codes:
0 success, 2 usage, 3 malformed input file, 4 invalid data for the requested
analysis, 5 estimation did not converge.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    EstimationConfig,
    GenevarError,
    IngestionError,
    MultiArraySet,
    NoReplicatedGenes,
    TooFewArrays,
    default_grid,
)
from .correlation import fixed_point_solve
from .io import read_table, write_csv
from .smoothing import density_interpolator

EXIT_OK = 0
EXIT_INGESTION = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5

DEFAULT_ALPHAS = (0.05, 0.01, 0.005, 0.001)
DEFAULT_FOLD_CHANGES = (1.5, 2.0, 4.0)


def _float_list(text, low=-math.inf, high=math.inf):
    """Comma-separated floats, each strictly between low and high, which
    also rules out infinities and NaN."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
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


def _sha256(path: Path) -> str:
    """The input's digest, read in 1 MB blocks rather than whole."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(outdir: Path, command: str, args, inputs):
    manifest = {
        "command": command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "versions": {
            "genevar": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n")


def _fit(args, mset: MultiArraySet, rho):
    """The fit behind estimate, validate and select: the config from the
    pooled intensities, the fixed point (which checks the data) and the
    intensity density.  Returns (config, fixed point, density)."""
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

    mset = read_table(args.input)
    config, fp, density = _fit(args, mset, args.rho)
    est = fp.estimate
    curve = fp.curve
    stderr = corrected_curve_stderr(fp, mset.n_genes, mset.n_arrays, config,
                                    density)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "curve.csv", ["x", "variance", "stderr", "flags"],
              [curve.grid, curve.values, stderr, curve.flags])
    write_csv(outdir / "correlation.csv",
              ["rho", "sigma1", "sigma2", "rho_raw", "iterations",
               "converged", "clipped", "curve_change", "mode"],
              [[v] for v in (
                  est.rho, est.sigma1, est.sigma2,
                  fp.rho_raw if fp.rho_raw is not None else "",
                  est.iterations, est.converged, est.clipped,
                  fp.curve_change,
                  "paired" if mset.n_replicates == 2 else "pooled")])
    _write_manifest(outdir, "estimate", args, [args.input])
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
    from .inference import gene_sigma, validation_tests

    mset = read_table(args.input)
    if mset.n_replicates < 2:
        raise NoReplicatedGenes(
            "validation needs genes with at least two replicates per array")
    _, fp, density = _fit(args, mset, args.rho)

    sigma = np.sqrt(np.clip(gene_sigma(fp.curve, mset.x, density), 0.0, None))
    results = [validation_tests(array, sigma[j], array_id=f"array{j + 1}")
               for j, array in enumerate(mset.arrays)]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = ["array_id", "t1", "p1", "t2", "p2", "t3", "p3", "t4", "p4"]
    write_csv(outdir / "validation.csv", fields,
              [[getattr(r, name) for r in results] for name in fields])
    _write_manifest(outdir, "validate", args, [args.input])
    if args.format == "table":
        print(f"{'array':<10s} {'p(T1)':>8s} {'p(T2)':>8s} {'p(T3)':>8s} {'p(T4)':>8s}")
        for r in results:
            print(f"{r.array_id:<10s} {r.p1:8.4f} {r.p2:8.4f} {r.p3:8.4f} {r.p4:8.4f}")
    return EXIT_OK


def _array_indices(n_arrays: int, indices) -> np.ndarray:
    """0-based positions of 1-based array indices, each checked in order."""
    for j in indices:
        if not 1 <= j <= n_arrays:
            raise GenevarError(f"array index {j} is outside 1..J (J={n_arrays})")
    return np.asarray(indices, dtype=np.intp) - 1


def _super_block(block) -> np.ndarray:
    """The J arrays of a (J, N, I) block side by side as one read-only
    (1, N, J*I) block, whose row g holds gene g's spots array after array;
    one copy, which MultiArraySet keeps as it is."""
    n_arrays, n_genes, n_reps = block.shape
    out = np.empty((n_genes, n_arrays, n_reps))
    out[...] = block.transpose(1, 0, 2)
    out.setflags(write=False)
    return out.reshape(1, n_genes, n_arrays * n_reps)


def cmd_select(args) -> int:
    from .inference import (
        gene_sigma,
        power_increase,
        selection_counts,
        t_pvalues,
        z_pvalues,
    )

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

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "gene_calls.csv",
              ["gene_id", "mean", "sample_sd", "sigma_hat", "fold_change",
               "t_stat", "p_t", "z_stat", "p_z", "flagged"],
              [mset.gene_ids, means, sample_sd, sigma_hat, fold,
               t_stat, p_t, z_stat, p_z, flagged])

    counts_rows = selection_counts(p_t, p_z, fold, args.fold_changes, args.alphas)
    write_csv(outdir / "counts.csv",
              ["fold_change", "alpha", "t_selected", "z_selected"],
              zip(*counts_rows))

    power = power_increase(means, sigma_hat, n, args.alphas,
                           sample_sd=sample_sd)
    write_csv(outdir / "power.csv", ["alpha", "theoretical", "empirical"],
              [args.alphas, *zip(*power)])
    _write_manifest(outdir, "select", args, [args.input])

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

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = report.estimators
    metrics = [report.metrics[name] for name in names]
    write_csv(outdir / "report.csv", ["estimator", "bias2", "var", "mise"],
              [names, [m.bias2 for m in metrics], [m.var for m in metrics],
               [m.mise for m in metrics]])
    if report.parameter_stats:
        stats = report.parameter_stats
        fields = ["truth", "mean", "bias2", "var", "mse"]
        write_csv(outdir / "params.csv", ["parameter", *fields],
                  [list(stats)] + [[getattr(p, f) for p in stats.values()]
                                   for f in fields])
    write_csv(outdir / "curves.csv",
              ["x", "truth"] + [f"{name}_median_run" for name in names],
              [report.grid, report.truth] + [m.median_curve for m in metrics])
    write_csv(outdir / "ise.csv", ["run", *names],
              [range(design.n_runs)] + [m.ise for m in metrics])
    _write_manifest(outdir, "simulate", args, [])
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except GenevarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
