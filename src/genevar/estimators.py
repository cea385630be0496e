"""Variance-curve estimators.

Three uncorrected estimators of the variance function come from smoothing
the synthetic responses Z of an array (synthetic.synthetic_responses) on
its intensities X:

  * one curve per replicate column,
  * their pointwise average,
  * a single pooled fit over all N*I pairs.

With correlated replicates those curves estimate the shifted target
eta^2(x) = s^2(x) - 2 rho s1 s(x) + rho s1^2, where s1 = E[s(X)].  Solving
that quadratic for s(x) and always taking the larger root gives the
correlation-corrected curve

    s_hat(x) = rho s1 + sqrt(rho^2 s1^2 - rho s1^2 + eta^2(x)).

The I=2 case collapses to smoothing the squared half-differences, with target
s^2(x)/4 + s2/4 - rho s1 s(x)/2 and corrected root
rho s1 + sqrt(rho^2 s1^2 - s2 + 4 eta^2(x)).
uncorrected_curve picks the paired or the pooled fit by the array's
replicate count, and correct the matching root by corr.n_reps; the fixed
point and the simulation harness go through them.

A naive two-stage baseline treats the gene effect as a smooth function of
intensity: smooth Y on X, then smooth the squared residuals.  It is badly
biased when the gene effects are not smooth in X.

Every fit here is smoothing.fit_curve: the curves on config.grid, and the
baseline's stage-1 mean fit on _STAGE1_NODES equispaced points spanning the
data.  It needs no sorted input.
"""

from __future__ import annotations

import numpy as np

from .model import (
    FLAG_CLAMPED,
    FLAG_NEGATIVE_DISCRIMINANT,
    CorrelationEstimate,
    DegenerateWindow,
    EstimationConfig,
    GenevarError,
    InvalidReplicateCount,
    ReplicatedArray,
    VarianceCurve,
)
from .smoothing import ScatterData, fit_curve
from .synthetic import synthetic_responses

_STAGE1_NODES = 512


def replicate_curves(array: ReplicatedArray, config: EstimationConfig):
    """One unclamped curve per replicate column i, smoothing (X[:, i], Z[:, i])."""
    x, z = array.x, synthetic_responses(array)
    return tuple(
        fit_curve(ScatterData(x[:, i], z[:, i]), config)
        for i in range(x.shape[1])
    )


def average_curves(curves) -> VarianceCurve:
    """Pointwise mean of curves on a common grid.

    A grid point is evaluable only where every input is; flags are OR-ed.
    """
    curves = tuple(curves)
    if not curves:
        raise GenevarError("no curves to average")
    grid = curves[0].grid
    for c in curves[1:]:
        if not np.array_equal(c.grid, grid):
            raise GenevarError("curves are on different grids")
    values = np.mean([c.values for c in curves], axis=0)
    flags = np.zeros(grid.shape, dtype=np.uint8)
    for c in curves:
        flags |= c.flags
    return VarianceCurve(grid=grid, values=values, flags=flags)


def pooled_curve(array: ReplicatedArray, config: EstimationConfig) -> VarianceCurve:
    """Single fit pooling all N*I pairs (X_gi, Z_gi)."""
    return fit_curve(
        ScatterData(array.x.ravel(), synthetic_responses(array).ravel()), config)


def paired_difference_curve(array: ReplicatedArray,
                            config: EstimationConfig) -> VarianceCurve:
    """I=2 estimator: smooth (Y_g1 - Y_g2)^2 / 4 against both intensity
    columns, concatenated into 2N pairs."""
    if array.n_replicates != 2:
        raise InvalidReplicateCount("paired estimator requires exactly I=2")
    z = 0.25 * (array.y[:, 0] - array.y[:, 1]) ** 2
    data = ScatterData(
        np.concatenate([array.x[:, 0], array.x[:, 1]]),
        np.concatenate([z, z]),
    )
    return fit_curve(data, config)


def uncorrected_curve(array: ReplicatedArray,
                      config: EstimationConfig) -> VarianceCurve:
    """The uncorrected curve of one array: the paired-difference fit at I=2,
    the pooled synthetic-response fit at I >= 3."""
    if array.n_replicates == 2:
        return paired_difference_curve(array, config)
    return pooled_curve(array, config)


def correct(eta: VarianceCurve, corr: CorrelationEstimate) -> VarianceCurve:
    """Correlation-corrected variance curve from an uncorrected_curve, by the
    root that matches corr.n_reps: the paired root at I=2, the pooled one at
    I >= 3.

    Always the larger root: it is the one continuous in rho that stays
    nonnegative for rho < 0.  Returned squared, as a variance curve.
    Negative discriminants arise from sampling noise near the curve minimum;
    they are clamped to zero and flagged rather than abort the analysis.
    """
    r, s1 = corr.rho, corr.sigma1
    if corr.n_reps == 2:
        disc = r * r * s1 * s1 - corr.sigma2 + 4.0 * eta.values
    else:
        disc = r * r * s1 * s1 - r * s1 * s1 + eta.values
    neg = np.isfinite(disc) & (disc < 0)
    sigma = r * s1 + np.sqrt(np.clip(disc, 0.0, None))
    clamped = np.isfinite(sigma) & (sigma < 0)
    sigma = np.clip(sigma, 0.0, None)
    flags = np.array(eta.flags, dtype=np.uint8, copy=True)
    flags[neg] |= FLAG_NEGATIVE_DISCRIMINANT
    flags[clamped] |= FLAG_CLAMPED
    return VarianceCurve(grid=eta.grid, values=sigma * sigma, flags=flags)


def two_stage_curve(array: ReplicatedArray, config: EstimationConfig) -> VarianceCurve:
    """Naive baseline: fit a mean curve to pooled (X, Y), then smooth the
    squared residuals on X.

    The stage-1 fit is fit_curve on _STAGE1_NODES equispaced points spanning
    the data, interpolated to the data points; binning and interpolation
    errors are far below the noise level.  Nodes that do not increase, from
    a single distinct intensity or a spread within rounding, are all
    degenerate.  Stage 2 is fit_curve on config.grid.
    """
    x, y = array.x.ravel(), array.y.ravel()
    nodes = np.linspace(x.min(), x.max(), _STAGE1_NODES)
    n_degenerate = _STAGE1_NODES
    if np.all(np.diff(nodes) > 0):
        stage1 = fit_curve(ScatterData(x, y), EstimationConfig(
            bandwidth=config.bandwidth, grid=nodes))
        n_degenerate = int(np.count_nonzero(~stage1.evaluable))
    if n_degenerate:
        raise DegenerateWindow(
            f"stage-1 mean fit undefined at {n_degenerate} grid points")
    # np.interp walks sorted points about ten times as fast as unsorted ones
    order = np.argsort(x)
    mean = np.empty_like(x)
    mean[order] = np.interp(x[order], stage1.grid, stage1.values)
    resid2 = (y - mean) ** 2
    return fit_curve(ScatterData(x, resid2), config)
