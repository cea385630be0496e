"""Variance-curve estimators.

Three uncorrected estimators of the variance function come from smoothing
synthetic responses Z on intensities X:

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
uncorrected_curve and correct pick between the two routes by the replicate
count; the fixed point and the simulation harness go through them.

A naive two-stage baseline treats the gene effect as a smooth function of
intensity: smooth Y on X, then smooth the squared residuals.  It is badly
biased when the gene effects are not smooth in X.

Every fit here comes from linearly binned moments on a lattice through the
equispaced evaluation points (smoothing._lattice_fit, which fits windows
too sparse to bin exactly): the curves on config.grid through
smoothing.fit_curve, and the baseline's stage-1 mean fit through
smoothing.local_linear_binned.  Neither needs sorted input.
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
from .smoothing import ScatterData, fit_curve, local_linear_binned
from .synthetic import SyntheticData, synthetic_responses

_STAGE1_NODES = 512


def replicate_curves(sdata: SyntheticData, config: EstimationConfig):
    """One unclamped curve per replicate column i, smoothing (X[:, i], Z[:, i])."""
    x, z = sdata.source.x, sdata.z
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


def pooled_curve(sdata: SyntheticData, config: EstimationConfig) -> VarianceCurve:
    """Single fit pooling all N*I pairs (X_gi, Z_gi)."""
    return fit_curve(
        ScatterData(sdata.source.x.ravel(), sdata.z.ravel()), config)


def _root_to_variance(grid, root, disc, base_flags):
    # Negative discriminants arise from sampling noise near the curve minimum;
    # clamp to zero and flag rather than abort the whole analysis.
    neg = np.isfinite(disc) & (disc < 0)
    safe = np.sqrt(np.clip(disc, 0.0, None))
    sigma = root + safe
    clamped = np.isfinite(sigma) & (sigma < 0)
    sigma = np.clip(sigma, 0.0, None)
    flags = np.array(base_flags, dtype=np.uint8, copy=True)
    flags[neg] |= FLAG_NEGATIVE_DISCRIMINANT
    flags[clamped] |= FLAG_CLAMPED
    return VarianceCurve(grid=grid, values=sigma * sigma, flags=flags)


def correct_curve(eta: VarianceCurve, corr: CorrelationEstimate) -> VarianceCurve:
    """Correlation-corrected variance curve from a pooled (I >= 3) curve.

    Always the larger root: it is the one continuous in rho that stays
    nonnegative for rho < 0.  Returned squared, as a variance curve.
    """
    r, s1 = corr.rho, corr.sigma1
    disc = r * r * s1 * s1 - r * s1 * s1 + eta.values
    return _root_to_variance(eta.grid, r * s1, disc, eta.flags)


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


def correct_paired_curve(eta2: VarianceCurve,
                         corr: CorrelationEstimate) -> VarianceCurve:
    """Correlation-corrected variance curve for the I=2 route."""
    r, s1 = corr.rho, corr.sigma1
    disc = r * r * s1 * s1 - corr.sigma2 + 4.0 * eta2.values
    return _root_to_variance(eta2.grid, r * s1, disc, eta2.flags)


def uncorrected_curve(array: ReplicatedArray,
                      config: EstimationConfig) -> VarianceCurve:
    """The uncorrected curve of one array: the paired-difference fit at I=2,
    the pooled synthetic-response fit at I >= 3."""
    if array.n_replicates == 2:
        return paired_difference_curve(array, config)
    return pooled_curve(synthetic_responses(array), config)


def correct(eta: VarianceCurve, corr: CorrelationEstimate) -> VarianceCurve:
    """Corrected curve from an uncorrected_curve, by the root that matches
    corr.n_reps (the pooled root when it is unset)."""
    if corr.n_reps == 2:
        return correct_paired_curve(eta, corr)
    return correct_curve(eta, corr)


def two_stage_curve(array: ReplicatedArray, config: EstimationConfig) -> VarianceCurve:
    """Naive baseline: fit a mean curve to pooled (X, Y), then smooth the
    squared residuals on X.

    The stage-1 fit is evaluated on _STAGE1_NODES equispaced points spanning
    the data (local_linear_binned) and interpolated to the data points;
    binning and interpolation errors are far below the noise level.  Stage 2
    is fit_curve.
    """
    x, y = array.x.ravel(), array.y.ravel()
    dense, vals, degenerate = local_linear_binned(
        ScatterData(x, y), config, _STAGE1_NODES)
    if degenerate.any():
        raise DegenerateWindow(
            f"stage-1 mean fit undefined at {int(degenerate.sum())} grid points")
    resid2 = (y - np.interp(x, dense, vals)) ** 2
    return fit_curve(ScatterData(x, resid2), config)

