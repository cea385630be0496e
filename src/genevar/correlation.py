"""Replicate-correlation estimation via variance components and a fixed point.

With J >= 2 independent arrays, between- and within-array variance components

    s2_B,g = I/(J-1) * sum_j (Ybar_gj - Ybar_g)^2
    s2_W,g = 1/(J(I-1)) * sum_j sum_i (Y_gij - Ybar_gj)^2

yield the REML-style ratio

    rho_raw = (sum s2_B - sum s2_W) / (sum s2_B + (I-1) sum s2_W),

which under a heteroscedastic noise scale converges to rho * s1^2 / s2, not
rho.  Multiplying by s2 / s1^2 corrects it, but s1 = E[s(X)] and s2 =
E[s(X)^2] are themselves functionals of the unknown variance curve, so the
corrected correlation and the curve are solved jointly:

  1. initialise the corrected curve with the pooled uncorrected curve;
  2. read s1, s2 off the current curve at the observed intensities and set
     rho = rho_raw * s2 / s1^2;
  3. re-derive the corrected curve from the uncorrected one with (rho, s1);
  4. repeat 2-3 until successive rho values, and s1 relative to its size,
     move less than the tolerance.

Multiple arrays enter the curve side only through averaging: the uncorrected
per-array curves are averaged for the iteration, and the final corrected
curve is the average of the per-array corrected curves sharing one rho.

Step 2 reads s1 and s2 as the means of VarianceCurve.scale_at over the
n pooled intensities without evaluating it there.  With t an intensity's
position in its interval [x_k, x_k+1] (0 below the first node, 1 above the
last), its scale s = (1 - t) a_k + t a_k+1 between the node scales
a_k = sqrt(v_k) has s^2 = (1-t) a_k^2 + t a_k+1^2 - t (1-t) (a_k+1 - a_k)^2.
So with each node's tent weight T_j, the sum of 1 - t over interval j and of
t over interval j - 1 (linear binning, Fan & Marron 1994), and each
interval's bend C_k, the sum of t (1 - t) over interval k,

    n s1 = sum_j T_j a_j,   n s2 = sum_j T_j a_j^2 - sum_k C_k (a_k+1 - a_k)^2.

_NodeWeights computes T and C once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (
    CorrelationEstimate,
    EstimationConfig,
    GenevarError,
    MultiArraySet,
    NonpositiveSigma,
    TooFewArrays,
    TooFewReplicates,
    VarianceCurve,
    ZeroDenominator,
    chunks,
    validate,
)
from .estimators import (
    average_curves,
    correct,
    uncorrected_curve,
)

RHO_MARGIN = 1e-6  # keeps the equicorrelation matrix strictly positive definite
CONVERGENCE_TOL = 1e-3  # on the rho move and the relative sigma1 move
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class VarianceComponents:
    """Per-gene between-array and within-array variance components."""

    s_between: np.ndarray
    s_within: np.ndarray


def variance_components(mset: MultiArraySet) -> VarianceComponents:
    """Exact per-gene components from a set of J >= 2 arrays."""
    if mset.n_arrays < 2:
        raise TooFewArrays(f"J={mset.n_arrays}; need J >= 2")
    if mset.n_replicates < 2:
        raise TooFewReplicates("variance components need I >= 2")
    j, n, i = mset.y.shape
    s_between, s_within = np.empty(n), np.empty(n)
    for lo, hi in chunks(n, j * i):
        y = mset.y[:, lo:hi]                   # (J, genes, I)
        array_means = y.mean(axis=2)           # (J, genes)
        grand = _array_sum(array_means) / j    # (genes,)
        s_between[lo:hi] = i / (j - 1) * _array_sum((array_means - grand) ** 2)
        deviations = y - array_means[:, :, None]
        deviations *= deviations               # squared in place
        s_within[lo:hi] = _array_sum(deviations.sum(axis=2)) / (j * (i - 1))
    return VarianceComponents(s_between=s_between, s_within=s_within)


def _array_sum(a):
    """a.sum(axis=0) of a (J, genes) table, adding the arrays' rows one
    after another.  That is numpy's order for two genes or more, but it
    sums one gene's column pairwise, so a chunk of one gene would differ
    in the last bits from the same gene taken with others."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def raw_correlation(vc: VarianceComponents, n_reps: int) -> float:
    """REML-style ratio; estimates rho * s1^2 / s2 under the model."""
    sb = float(vc.s_between.sum())
    sw = float(vc.s_within.sum())
    den = sb + (n_reps - 1) * sw
    if den <= 0:
        raise ZeroDenominator("all-constant data: variance components vanish")
    return (sb - sw) / den


def corrected_correlation(rho_raw: float, sigma1: float, sigma2: float,
                          n_reps: int):
    """Moment-corrected correlation rho_raw * sigma2 / sigma1^2, clipped to
    RHO_MARGIN inside the range model.check_rho accepts.  Returns (value,
    clipped), where clipped says the unclipped value fell outside it."""
    if not sigma1 > 0:
        raise NonpositiveSigma("sigma1 must be positive")
    rho = rho_raw * sigma2 / (sigma1 * sigma1)
    lo = -1.0 / (n_reps - 1) + RHO_MARGIN
    hi = 1.0 - RHO_MARGIN
    clipped = rho < lo or rho > hi
    return float(min(max(rho, lo), hi)), clipped


class _NodeWeights:
    """The tent weights and bends of a sample of points over the evaluable
    nodes of a curve, each divided by the sample size, from which moments()
    gives the means of its scale and squared scale at those points (see the
    module docstring).

    The points are taken model.CHUNK_ROWS at a time through chunk-sized
    buffers, so no temporary grows with them.  The sums add up chunk by
    chunk, so unlike the per-gene passes they depend on CHUNK_ROWS in
    their last bits.  Each point's interval is the one np.interp uses,
    np.searchsorted(nodes, p, side="right") - 1 within 0..m-2.  It is
    guessed from the mean node spacing, and searched only for the points
    whose guessed interval does not hold them: a few by the nodes when the
    nodes are equispaced, more when they have a gap.
    """

    def __init__(self, points, grid, evaluable):
        if not evaluable.any():
            raise GenevarError("variance curve has no evaluable points")
        self.evaluable = evaluable
        nodes = grid[evaluable]
        m = nodes.size
        self.tent, self.bend = np.zeros(m), np.zeros(m - 1)
        if m == 1:
            self.tent[0] = 1.0
            return
        width = np.diff(nodes)
        spacing = (nodes[-1] - nodes[0]) / (m - 1)
        bounds = chunks(points.size)
        rows = bounds[0][1]  # the first chunk is the largest
        buffers = (np.empty(rows), np.empty(rows), np.empty(rows),
                   np.empty(rows, np.intp), np.empty(rows, bool),
                   np.empty(rows, bool), np.empty(rows, bool))
        for lo, hi in bounds:
            p = points[lo:hi]
            g, t, s, k, miss, test, beyond = (b[:hi - lo] for b in buffers)
            np.subtract(p, nodes[0], out=g)
            g /= spacing
            np.clip(g, 0.0, m - 2, out=g)
            k[...] = g  # truncated, as astype(np.intp)
            # miss = (p < nodes[k]) & (k > 0) | (p >= nodes[k+1]) & (k < m-2),
            # with k within 0..m-2, so that take's clip mode, which writes
            # out unbuffered, clips nothing
            np.less(p, np.take(nodes, k, out=g, mode="clip"), out=miss)
            miss &= np.greater(k, 0, out=test)
            np.greater_equal(p, np.take(nodes[1:], k, out=g, mode="clip"),
                             out=beyond)
            beyond &= np.less(k, m - 2, out=test)
            miss |= beyond
            if miss.any():
                k[miss] = np.clip(
                    np.searchsorted(nodes, p[miss], side="right") - 1, 0, m - 2)
            np.subtract(p, np.take(nodes, k, out=g, mode="clip"), out=t)
            t /= np.take(width, k, out=g, mode="clip")
            np.clip(t, 0.0, 1.0, out=t)
            np.subtract(1.0, t, out=s)
            self.tent[:-1] += np.bincount(k, s, m - 1)
            self.tent[1:] += np.bincount(k, t, m - 1)
            self.bend += np.bincount(k, np.multiply(s, t, out=g), m - 1)
        self.tent /= points.size
        self.bend /= points.size

    def moments(self, values):
        """(mean scale, mean squared scale) at the points of the curve
        with these values, as scale_at takes them."""
        a = np.sqrt(np.clip(values[self.evaluable], 0.0, None))
        step = np.diff(a)
        return (float(self.tent @ a),
                float(self.tent @ (a * a) - self.bend @ (step * step)))


@dataclass(frozen=True)
class FixedPointResult:
    estimate: CorrelationEstimate
    curve: VarianceCurve              # mean of per-array corrected curves
    uncorrected: tuple                # raw per-array curves fed to the root
    rho_raw: Optional[float]          # REML ratio, None when rho was fixed
    curve_change: float               # sup-norm curve move on the last iteration


def fixed_point_solve(mset: MultiArraySet, config: EstimationConfig, *,
                      fixed_rho: Optional[float] = None) -> FixedPointResult:
    """Jointly estimate (rho, s1, s2) and the corrected variance curve.

    A fixed_rho pins the correlation, whose move is then zero, so a single
    array suffices.  The estimate is the last iterate's: non-convergence
    within MAX_ITERATIONS is reported through its converged flag, never
    raised, and its clipped flag is that iterate's corrected_correlation
    flag, so a clipped rho at convergence lies within CONVERGENCE_TOL of
    the bound.  A pinned rho is never clipped.
    """
    validate(mset)
    n_reps = mset.n_replicates

    uncorrected = tuple(uncorrected_curve(a, config) for a in mset.arrays)
    eta_mean = average_curves(uncorrected)

    rho_raw = None if fixed_rho is not None \
        else raw_correlation(variance_components(mset), n_reps)

    # The starting curve, and every correct(eta_mean, .) after it, is finite
    # exactly where eta_mean is: its evaluable nodes are weighed once.
    weights = _NodeWeights(mset.x.reshape(-1), eta_mean.grid,
                           np.isfinite(eta_mean.values))
    # Initial corrected-curve guess.  The pooled curve already targets the
    # variance scale for I >= 3; the paired curve targets roughly half of it.
    current = np.clip(eta_mean.values, 0.0, None)
    if n_reps == 2:
        current = 2.0 * current

    rho = float(fixed_rho) if fixed_rho is not None else 0.0
    clipped = False
    prev = None  # the previous iterate's (rho, sigma1)

    for iterations in range(1, MAX_ITERATIONS + 1):
        sigma1, sigma2 = weights.moments(current)
        if sigma1 <= 0:
            raise NonpositiveSigma(
                "estimated mean noise scale is zero; data appear constant")
        if fixed_rho is None:
            proposal, clipped = corrected_correlation(
                rho_raw, sigma1, sigma2, n_reps)
            # Averaging successive iterates keeps the update contractive: at
            # strong correlation the raw step overshoots (the discriminant
            # clamp kicks in on alternate iterations) and would settle into a
            # two-cycle instead of the fixed point.
            rho = proposal if prev is None else 0.5 * (prev[0] + proposal)
        est = CorrelationEstimate(rho=rho, sigma1=sigma1, sigma2=sigma2,
                                  iterations=iterations, converged=False,
                                  clipped=clipped, n_reps=n_reps)
        corrected = correct(eta_mean, est)
        # The curve update is damped for the same reason as the rho update:
        # the paired-route scale map has derivative -1 at its fixed point
        # (a neutral two-cycle), and near clamped discriminants the I >= 3
        # map loses smoothness as well.
        new_values = 0.5 * (current + corrected.values)
        curve_change = float(np.nanmax(np.abs(new_values - current)))
        current = new_values
        # rho alone is blind to the curve's scale (it feeds through the
        # scale-invariant ratio sigma2/sigma1^2), so track sigma1 as well;
        # otherwise the iteration can stop while the scale transient from
        # the uncorrected initialisation is still running.  The sigma1 move
        # is relative, so the stopping point does not depend on the units of
        # y; rho is unitless and its move stays absolute (zero when pinned).
        converged = prev is not None and max(
            abs(sigma1 - prev[1]) / sigma1, abs(rho - prev[0])) < CONVERGENCE_TOL
        if converged:
            break
        prev = rho, sigma1

    estimate = replace(est, converged=converged)
    return FixedPointResult(
        estimate=estimate,
        curve=average_curves(correct(c, estimate) for c in uncorrected),
        uncorrected=uncorrected,
        rho_raw=rho_raw,
        curve_change=curve_change,
    )
