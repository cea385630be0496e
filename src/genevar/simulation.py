"""Synthetic-data generator and the metric harness for estimator studies.

The benchmark design: N genes, I within-array replicates, J independent
arrays.  Intensities come from a mixture — with probability 0.7 the density
0.0004 (x-6)^3 on (6, 16) (quantile 6 + 10 u^{1/4}), otherwise Uniform[6, 16].
The variance function is

    s^2(x) = 0.15 + 0.015 (12 - x)^2  for x < 12,  0.15 otherwise.

Gene effects: the first n_active genes get standard Laplace levels, the rest
are zero, held fixed across the J arrays of one run ("gene" mode); the
alternative "smooth" mode makes the effect the bump
exp(-1/(1-(x-13)^2)) on (12, 14) evaluated at each spot's intensity.
Noise rows are equicorrelated standard normal with correlation rho, drawn
through the Cholesky factor of the equicorrelation matrix.

Each run is seeded from (seed, run, array), so every run is bit-reproducible
on its own, whatever runs precede it.  run_experiment maps the runs
through _forking.run, which shares them among forked children in
contiguous blocks (with one worker, all runs in process), and writes the
curves into slots in run order, so the report does not depend on the
worker count.  Per grid point x_k over T runs,
with estimate m_t(x_k) and truth v(x_k):

    B_k = mean_t m_t(x_k) - v(x_k),   S_k = var_t m_t(x_k),
    MSE_k = B_k^2 + S_k,

and the reported Bias^2 / VAR / MISE are their averages weighted by the true
intensity density at the grid points.  ISE_t is the weighted squared error of
run t alone.  Displayed values follow the x1000 convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _forking
from .model import (
    CorrelationEstimate,
    EstimationConfig,
    GenevarError,
    MultiArraySet,
    TooFewReplicates,
    check_rho,
)
from .correlation import fixed_point_solve
from .estimators import (
    average_curves,
    correct,
    replicate_curves,
    two_stage_curve,
    uncorrected_curve,
)

X_LOW = 6.0
X_KINK = 12.0   # the variance function's break point
X_HIGH = 16.0
_GAUSS_NODES = 32
POLY_WEIGHT = 0.7
GRID = np.linspace(X_LOW, X_HIGH, 101)  # where every design is evaluated
GRID.setflags(write=False)


def intensity_density(x) -> np.ndarray:
    """Mixture density of the intensity design on [6, 16]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= X_LOW) & (x <= X_HIGH)
    return np.where(inside, POLY_WEIGHT * 0.0004 * (x - X_LOW) ** 3 + 0.03, 0.0)


def poly_component_quantile(u) -> np.ndarray:
    """Inverse CDF of the polynomial component: 6 + 10 u^{1/4}."""
    return X_LOW + 10.0 * np.asarray(u, dtype=float) ** 0.25


def sample_intensities(shape, rng) -> np.ndarray:
    u = rng.random(shape)
    pick_poly = rng.random(shape) < POLY_WEIGHT
    return np.where(pick_poly, poly_component_quantile(u), X_LOW + 10.0 * u)


def variance_function(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 0.15 + 0.015 * (12.0 - x) ** 2 * (x < 12.0)


def variance_curvature(x) -> np.ndarray:
    """Analytic (s^2)''."""
    return 0.03 * (np.asarray(x, dtype=float) < 12.0)


def smooth_effect(x) -> np.ndarray:
    """Bump effect exp(-1/(1-(x-13)^2)) on (12, 14), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    t = 1.0 - (x - 13.0) ** 2
    out = np.zeros(x.shape)
    m = t > 0
    out[m] = np.exp(-1.0 / t[m])
    return out


def sample_effects(n_active: int, n_genes: int, rng) -> np.ndarray:
    if n_active > n_genes:
        raise GenevarError("n_active cannot exceed n_genes")
    effects = np.zeros(n_genes)
    if n_active:
        effects[:n_active] = rng.laplace(0.0, 1.0, size=n_active)
    return effects


def sample_noise(n_genes: int, n_reps: int, rho: float, rng) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with unit variances and equicorrelation rho."""
    check_rho(rho, n_reps)
    cov = (1.0 - rho) * np.eye(n_reps) + rho * np.ones((n_reps, n_reps))
    factor = np.linalg.cholesky(cov)
    return rng.standard_normal((n_genes, n_reps)) @ factor.T


def scale_moments(variance_fn: Callable = variance_function):
    """(E[s(X)], E[s(X)^2]) under the intensity design.

    Composite Gauss-Legendre with _GAUSS_NODES nodes on [X_LOW, X_KINK] and
    [X_KINK, X_HIGH], for the design's variance function and an injected one
    alike.  On each piece the design's s^2 times the density is a polynomial
    of degree 5, which the rule integrates exactly.
    """
    u, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    s1 = s2 = 0.0
    for lo, hi in ((X_LOW, X_KINK), (X_KINK, X_HIGH)):
        half = 0.5 * (hi - lo)
        t = lo + half * (u + 1.0)
        v = np.asarray(variance_fn(t), dtype=float)
        fw = half * w * intensity_density(t)
        s1 += float(fw @ np.sqrt(np.clip(v, 0.0, None)))
        s2 += float(fw @ v)
    return s1, s2


@dataclass(frozen=True, eq=False)
class SimDesign:
    """One benchmark configuration.

    effect_mode 'gene' draws per-gene levels; 'smooth' uses the bump effect
    of the intensity.  variance_fn is an injection point for constant or
    degenerate noise studies; the truth and oracle moments follow it.  Every
    design is evaluated on the module's GRID, 101 points over [X_LOW, X_HIGH].
    """

    n_genes: int = 2000
    n_replicates: int = 3
    n_arrays: int = 4
    n_active: int = 250
    rho: float = 0.0
    bandwidth: float = 1.0
    n_runs: int = 100
    seed: int = 0
    effect_mode: str = "gene"
    variance_fn: Callable = variance_function

    def __post_init__(self):
        if self.n_runs < 1:
            raise GenevarError(f"n_runs={self.n_runs} (--reps) must be at least 1")
        if self.n_replicates < 2:
            raise TooFewReplicates(
                f"n_replicates={self.n_replicates} (--replicates) must be at least 2")
        if self.n_active > self.n_genes:
            raise GenevarError(
                f"n_genes={self.n_genes} (--n-genes) is below the design's "
                f"{self.n_active} active genes; use at least {self.n_active}")
        check_rho(self.rho, self.n_replicates)
        if self.effect_mode not in ("gene", "smooth"):
            raise GenevarError("effect_mode must be 'gene' or 'smooth'")

    def config(self) -> EstimationConfig:
        return EstimationConfig(bandwidth=self.bandwidth, grid=GRID)


def _rng(design: SimDesign, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(design.seed, spawn_key=key))


def generate_set(design: SimDesign, run: int) -> MultiArraySet:
    """All J arrays of one run; effects are shared across the arrays."""
    shape = (design.n_genes, design.n_replicates)
    effects = sample_effects(design.n_active, design.n_genes, _rng(design, run, 0))
    x = np.empty((design.n_arrays, *shape))
    y = np.empty_like(x)
    for j in range(design.n_arrays):
        rng = _rng(design, run, j + 1)
        x[j] = sample_intensities(shape, rng)
        eps = sample_noise(*shape, design.rho, rng)
        scale = np.sqrt(np.clip(design.variance_fn(x[j]), 0.0, None))
        mean = smooth_effect(x[j]) if design.effect_mode == "smooth" else effects[:, None]
        y[j] = mean + scale * eps
    # read-only blocks, which the set keeps without a copy
    x.setflags(write=False)
    y.setflags(write=False)
    return MultiArraySet(x=x, y=y, gene_ids=_gene_ids(design.n_genes))


@functools.lru_cache(maxsize=1)
def _gene_ids(n_genes: int) -> tuple:
    """g1..gN, built once for the runs of a design rather than per run."""
    return tuple(f"g{k + 1}" for k in range(n_genes))


# Estimator names accepted by run_experiment.
ESTIMATORS = ("replicate_average", "corrected", "oracle", "two_stage")


def _run_once(design: SimDesign, run: int, estimators, truth_moments):
    # Every curve estimator is averaged across the J arrays of the run (the
    # multi-array averaging convention); correlation comes from all arrays.
    config = design.config()
    mset = generate_set(design, run)
    out = {}
    params = None

    if "replicate_average" in estimators:
        if design.n_replicates == 2:
            raise GenevarError("replicate_average needs I >= 3")
        out["replicate_average"] = np.mean(
            [average_curves(replicate_curves(a, config)).values
             for a in mset.arrays], axis=0)

    uncorrected = None
    if "corrected" in estimators:
        fp = fixed_point_solve(mset, config)
        est = fp.estimate
        out["corrected"] = fp.curve.values
        params = (est.rho, est.sigma1, est.sigma2)
        uncorrected = fp.uncorrected

    if "oracle" in estimators:
        if uncorrected is None:
            uncorrected = [uncorrected_curve(a, config) for a in mset.arrays]
        s1_true, s2_true = truth_moments
        est = CorrelationEstimate(rho=design.rho, sigma1=s1_true,
                                  sigma2=s2_true, iterations=0,
                                  converged=True, n_reps=design.n_replicates)
        out["oracle"] = np.mean(
            [correct(c, est).values for c in uncorrected], axis=0)

    if "two_stage" in estimators:
        out["two_stage"] = np.mean(
            [two_stage_curve(a, config).values for a in mset.arrays], axis=0)

    return out, params


@dataclass(frozen=True)
class EstimatorMetrics:
    bias2: float
    var: float
    mise: float
    ise: np.ndarray           # per-run weighted squared error
    median_run: int           # index of the median-ISE run
    median_curve: np.ndarray  # that run's curve, for plotting
    mean_curve: np.ndarray    # average curve across runs


@dataclass(frozen=True)
class ParameterStats:
    """Squared bias / variance / MSE of a scalar estimate across runs."""
    truth: float
    mean: float
    bias2: float
    var: float
    mse: float


@dataclass(frozen=True)
class SimulationReport:
    design: SimDesign
    estimators: tuple
    metrics: dict
    parameter_stats: Optional[dict]
    grid: np.ndarray
    truth: np.ndarray
    weights: np.ndarray

    def format_table(self) -> str:
        """Bias^2 / VAR / MISE, x1000, two decimals."""
        lines = ["estimator        Bias^2     VAR      MISE   (x 10^3)"]
        for name in self.estimators:
            m = self.metrics[name]
            lines.append(
                f"{name:<15s} {1e3 * m.bias2:8.2f} {1e3 * m.var:8.2f} "
                f"{1e3 * m.mise:8.2f}")
        if self.parameter_stats:
            lines.append("")
            lines.append("parameter        Bias^2     VAR       MSE   (x 10^6)")
            for name, p in self.parameter_stats.items():
                lines.append(
                    f"{name:<15s} {1e6 * p.bias2:8.2f} {1e6 * p.var:9.2f} "
                    f"{1e6 * p.mse:9.2f}")
        return "\n".join(lines)


def run_experiment(design: SimDesign,
                   estimators=("replicate_average", "corrected", "oracle")
                   ) -> SimulationReport:
    """Run design.n_runs simulations and reduce them to a report.

    The runs go through _forking.run: with n = _forking.workers() > 1 and
    more than one run, they are cut into n contiguous shares, each computed
    in a forked child while this process only waits; with one worker every run
    runs in this process.  To use fewer cores, narrow the affinity (e.g.
    with taskset).  An error raised inside a run is raised here.  Results are
    bit-identical for a given seed, whatever the worker count: each run is
    seeded on its own, its curves land in preallocated slots in run order
    and all reductions are plain numpy sums over fixed-shape arrays.
    """
    for name in estimators:
        if name not in ESTIMATORS:
            raise GenevarError(f"unknown estimator {name!r}")
    # numpy loads numpy.random on first use: here once, not in each child
    import numpy.random  # noqa: F401
    truth_moments = scale_moments(design.variance_fn)
    t_runs = design.n_runs
    curves = {name: np.empty((t_runs, GRID.size)) for name in estimators}
    params = np.full((t_runs, 3), np.nan)
    jobs = [(design, t, estimators, truth_moments) for t in range(t_runs)]
    for t, (out, par) in enumerate(_forking.run(_run_once, jobs)):
        for name in estimators:
            curves[name][t] = out[name]
        if par is not None:
            params[t] = par

    truth = np.asarray(design.variance_fn(GRID), dtype=float)
    weights = intensity_density(GRID)
    wsum = weights.sum()

    metrics = {}
    for name in estimators:
        arr = curves[name]
        mean_curve = arr.mean(axis=0)
        b = mean_curve - truth
        s = ((arr - mean_curve) ** 2).mean(axis=0)
        mse = b * b + s
        ise = ((arr - truth) ** 2) @ weights / wsum
        order = np.argsort(ise, kind="stable")
        median_run = int(order[t_runs // 2])
        metrics[name] = EstimatorMetrics(
            bias2=float((b * b) @ weights / wsum),
            var=float(s @ weights / wsum),
            mise=float(mse @ weights / wsum),
            ise=ise,
            median_run=median_run,
            median_curve=arr[median_run],
            mean_curve=mean_curve,
        )

    parameter_stats = None
    if "corrected" in estimators:
        s1_true, s2_true = truth_moments
        truths = {"rho": design.rho, "sigma1": s1_true, "sigma2": s2_true}
        parameter_stats = {}
        for col, (name, tv) in enumerate(truths.items()):
            vals = params[:, col]
            mean = float(vals.mean())
            bias2 = (mean - tv) ** 2
            var = float(vals.var())
            parameter_stats[name] = ParameterStats(
                truth=tv, mean=mean, bias2=bias2, var=var, mse=bias2 + var)

    return SimulationReport(design=design, estimators=tuple(estimators),
                            metrics=metrics, parameter_stats=parameter_stats,
                            grid=GRID, truth=truth, weights=weights)
