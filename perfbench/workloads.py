"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

A job is the unit that is timed.  Each workload says how to make its input
from a seed (outside the timed region), which genevar commands one job runs,
how many gene x replicate x array cells a job analyses, and how to check the
job's outputs against the generator's truth.  ``Workload.verify`` returns a
list of problems; an empty list means the outputs are correct.

Tolerances are loose enough that a numerical change of about 1e-4 relative
passes, and tight enough that a wrong curve, a wrong correlation or a
truncated file fails.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

N_GENES = 20_000
N_ARRAYS = 4
RHO = 0.4
SIM_GENES = 2_000
SIM_REPS = 50
SIM_RHO = 0.6
GRID_POINTS = 101

# Seed 1 gives |rho_hat - rho| = 0.0003, a curve L2 error of 1.8%, sigma_hat
# errors of 2.5% (median) and 6.8% (largest), and a mean rho_hat of 0.6001.
RHO_TOL = 0.02            # |rho_hat - rho|
CURVE_L2_TOL = 0.06       # density-weighted relative L2 error of the curve
SIGMA_MEDIAN_TOL = 0.10   # median |sigma_hat / sigma - 1| over genes
SIGMA_MAX_TOL = 0.30      # largest |sigma_hat / sigma - 1| over genes
SIM_RHO_TOL = 0.02        # |mean rho_hat - 0.6| over 50 runs


@dataclass(frozen=True)
class Job:
    """Everything a job's commands and checks need, made once per run."""

    seed: int
    input_path: Optional[Path]
    truth: object


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_input: Callable          # (seed, workdir) -> (Job, input record)
    commands: Callable            # (job, outdir) -> list of CLI argv lists
    cells_per_job: int
    check: Callable               # (job, outdir) -> list of problems

    def verify(self, job, outdir):
        """Problems with a job's outputs; a missing or malformed file is one."""
        try:
            return self.check(job, outdir)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return [f"missing or malformed output: {exc!r}"]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_rows(path: Path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _write_input(seed, workdir, n_reps):
    from genevar.io import write_table
    from genevar.simulation import SimDesign, generate_set

    design = SimDesign(n_genes=N_GENES, n_replicates=n_reps,
                       n_arrays=N_ARRAYS, rho=RHO, seed=seed)
    mset = generate_set(design, 0)
    path = Path(workdir) / f"input_i{n_reps}_n{N_GENES}.csv"
    write_table(mset, path)
    record = {"path": path.name, "sha256": _sha256(path),
              "rows": N_GENES * n_reps * N_ARRAYS, "bytes": path.stat().st_size,
              "design": {"n_genes": N_GENES, "n_replicates": n_reps,
                         "n_arrays": N_ARRAYS, "rho": RHO, "seed": seed}}
    return mset, path, record


# --------------------------------------------------------------------------
# estimate_i3_n20k
# --------------------------------------------------------------------------

def _estimate_input(seed, workdir):
    _, path, record = _write_input(seed, workdir, 3)
    return Job(seed=seed, input_path=path, truth=None), record


def _estimate_commands(job, outdir):
    return [["estimate", "--input", str(job.input_path),
             "--out", str(outdir / "estimate")]]


def check_estimate(job, outdir):
    from genevar.simulation import intensity_density, variance_function

    problems = []
    curve = _read_rows(outdir / "estimate" / "curve.csv")
    corr = _read_rows(outdir / "estimate" / "correlation.csv")
    if len(curve) != GRID_POINTS:
        problems.append(f"curve.csv has {len(curve)} rows, not {GRID_POINTS}")
    if len(corr) != 1:
        return problems + [f"correlation.csv has {len(corr)} rows, not 1"]
    if corr[0]["converged"] != "True":
        problems.append("fixed point did not converge")
    rho = float(corr[0]["rho"])
    if not abs(rho - RHO) <= RHO_TOL:
        problems.append(f"rho {rho:.4f} is not within {RHO_TOL} of {RHO}")
    if problems:
        return problems

    grid = np.array([float(r["x"]) for r in curve])
    values = np.array([float(r["variance"]) for r in curve])
    stderr = np.array([float(r["stderr"]) for r in curve])
    flags = np.array([int(r["flags"]) for r in curve])
    clean = flags == 0
    if not clean.any():
        return ["every grid point is flagged"]
    if not np.all(np.isfinite(stderr[clean])):
        problems.append("stderr is not finite at an unflagged grid point")
    weights = intensity_density(grid[clean])
    truth = variance_function(grid[clean])
    err = math.sqrt(float(np.sum(weights * (values[clean] - truth) ** 2))
                    / float(np.sum(weights * truth ** 2)))
    if not err <= CURVE_L2_TOL:
        problems.append(f"variance curve relative L2 error {err:.4f} "
                        f"exceeds {CURVE_L2_TOL}")
    return problems


# --------------------------------------------------------------------------
# genewise_i2_n20k
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GenewiseTruth:
    gene_ids: tuple
    sigma: np.ndarray   # per-gene scale implied by the true curve and density


def _genewise_input(seed, workdir):
    from genevar.simulation import intensity_density, variance_function

    mset, path, record = _write_input(seed, workdir, 2)
    # select pools the J arrays into one super array and reads each gene's
    # scale off the curve, weighted by the intensity density at that gene's
    # intensities; the truth applies the same rule to the true curve and the
    # true density.
    x = np.hstack([a.x for a in mset.arrays])
    dens = intensity_density(x)
    sigma = np.sqrt((dens * variance_function(x)).sum(axis=1) / dens.sum(axis=1))
    truth = GenewiseTruth(gene_ids=mset.gene_ids, sigma=sigma)
    return Job(seed=seed, input_path=path, truth=truth), record


def _genewise_commands(job, outdir):
    return [["validate", "--input", str(job.input_path),
             "--out", str(outdir / "validate")],
            ["select", "--input", str(job.input_path),
             "--out", str(outdir / "select")]]


def _non_increasing(seq):
    return all(a >= b for a, b in zip(seq, seq[1:]))


def check_genewise(job, outdir):
    problems = []
    validation = _read_rows(outdir / "validate" / "validation.csv")
    calls = _read_rows(outdir / "select" / "gene_calls.csv")
    counts = _read_rows(outdir / "select" / "counts.csv")

    if len(validation) != N_ARRAYS:
        problems.append(f"validation.csv has {len(validation)} rows, not {N_ARRAYS}")
    for row in validation:
        stats = [float(row[k]) for k in ("t1", "t2", "t3", "t4")]
        pvals = [float(row[k]) for k in ("p1", "p2", "p3", "p4")]
        if not all(math.isfinite(v) for v in stats):
            problems.append(f"{row['array_id']}: non-finite statistic")
        if not all(0.0 <= p <= 1.0 for p in pvals):
            problems.append(f"{row['array_id']}: p-value outside [0, 1]")

    truth = job.truth
    if len(calls) != len(truth.gene_ids):
        problems.append(f"gene_calls.csv has {len(calls)} rows, "
                        f"not {len(truth.gene_ids)}")
    else:
        index = {g: k for k, g in enumerate(truth.gene_ids)}
        order = np.array([index[r["gene_id"]] for r in calls])
        sigma_hat = np.array([float(r["sigma_hat"]) for r in calls])
        rel = np.abs(sigma_hat / truth.sigma[order] - 1.0)
        if not np.all(np.isfinite(rel)):
            problems.append("sigma_hat is not finite for every gene")
        elif not (np.median(rel) <= SIGMA_MEDIAN_TOL and rel.max() <= SIGMA_MAX_TOL):
            problems.append(f"sigma_hat off the truth: median relative error "
                            f"{np.median(rel):.4f}, largest {rel.max():.4f}")

    grid = {}
    for row in counts:
        grid[float(row["fold_change"]), float(row["alpha"])] = (
            int(row["t_selected"]), int(row["z_selected"]))
    folds = sorted({fc for fc, _ in grid})
    alphas = sorted({a for _, a in grid}, reverse=True)
    if len(grid) != len(counts) or len(grid) != len(folds) * len(alphas) or not grid:
        return problems + ["counts.csv is not a full fold-change x alpha grid"]
    for col, test in enumerate(("t", "z")):
        for alpha in alphas:
            if not _non_increasing([grid[fc, alpha][col] for fc in folds]):
                problems.append(f"{test} counts grow with fold change at alpha={alpha}")
        for fc in folds:
            if not _non_increasing([grid[fc, a][col] for a in alphas]):
                problems.append(f"{test} counts grow as alpha shrinks at fc={fc}")
    return problems


# --------------------------------------------------------------------------
# simulate_tables_n2k
# --------------------------------------------------------------------------

def _simulate_input(seed, workdir):
    record = {"path": None, "sha256": None, "rows": 0, "bytes": 0,
              "design": {"n_genes": SIM_GENES, "reps": SIM_REPS,
                         "rho": SIM_RHO, "seed": seed}}
    return Job(seed=seed, input_path=None, truth=None), record


def _simulate_commands(job, outdir):
    common = ["--n-genes", str(SIM_GENES), "--reps", str(SIM_REPS),
              "--seed", str(job.seed)]
    return [["simulate", "--preset", "table2", "--rho", str(SIM_RHO), *common,
             "--out", str(outdir / "table2")],
            ["simulate", "--preset", "table1", *common,
             "--out", str(outdir / "table1")]]


def _mise(rows):
    return {r["estimator"]: float(r["mise"]) for r in rows}


def check_simulate(job, outdir):
    problems = []
    table2 = _mise(_read_rows(outdir / "table2" / "report.csv"))
    table1 = _mise(_read_rows(outdir / "table1" / "report.csv"))
    params = {r["parameter"]: r for r in _read_rows(outdir / "table2" / "params.csv")}
    if not table2["corrected"] < table2["replicate_average"]:
        problems.append("table2: corrected MISE is not below replicate_average")
    if not table1["replicate_average"] < table1["two_stage"]:
        problems.append("table1: replicate_average MISE is not below two_stage")
    rho = float(params["rho"]["mean"])
    if not abs(rho - SIM_RHO) <= SIM_RHO_TOL:
        problems.append(f"table2: mean rho {rho:.4f} is not within "
                        f"{SIM_RHO_TOL} of {SIM_RHO}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="estimate_i3_n20k",
            why="one estimate on 20k genes, I=3, J=4: ingestion and the KDE "
                "dominate, with 4 large fits and 101 delta-method SEs",
            make_input=_estimate_input,
            commands=_estimate_commands,
            cells_per_job=N_GENES * 3 * N_ARRAYS,
            check=check_estimate),
        Workload(
            name="genewise_i2_n20k",
            why="validate then select on 20k genes, I=2, J=4: the per-gene "
                "scale loop dominates and the I=2 route skips the SEs",
            make_input=_genewise_input,
            commands=_genewise_commands,
            cells_per_job=2 * N_GENES * 2 * N_ARRAYS,
            check=check_genewise),
        Workload(
            name="simulate_tables_n2k",
            why="table2 then table1 presets at 2k genes x 50 runs: many small "
                "cache-resident fits, no ingestion, no inference",
            make_input=_simulate_input,
            commands=_simulate_commands,
            cells_per_job=2 * SIM_REPS * SIM_GENES * 3 * N_ARRAYS,
            check=check_simulate),
    )
}
