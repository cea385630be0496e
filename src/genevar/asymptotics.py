"""Closed-form asymptotic bias and variance of the variance-curve estimators.

Every function takes values, not functions: the moments as a
CorrelationEstimate (rho, s1 = E[s(X)], s2 = E[s^2(X)] and I = n_reps), and
arrays of s(x) and f(x) at the points of interest, with N genes and
bandwidth h.  Results are arrays of the same shape, elementwise.  The kernel
constants C_K and D_K are the tricube's, from model.

For the per-replicate curves at a point x, with s2x = s^2(x):

    V1 = D_K / (N h f(x)) * { 2 s2x^2
         + (4 + 4(I-1)(I-3)) / ((I-1)(I-2)^2) * s2 s2x
         + 2 / ((I-1)(I-2)) * s2^2 }
    V2 = (1/N) * { 4/(I-1)^2 s2x^2 - 8/(I-1)^2 s2 s2x
         + 2(I-3)/((I-1)^2 (I-2)) * s2^2 }

V1 is the per-curve variance, V2 the (one order smaller) cross-replicate
covariance; their average curve has variance V1/I + (1 - 1/I) V2.  V2 is a
covariance and may be negative.

For the pooled curve under replicate correlation rho the same structure holds
with polynomial coefficients C2..C4 (first order) and D0..D4 (second order)
in s(x), listed in closed form below; the pooled-curve variance is
V* = V1'/I + ((I-1)/I) V2'.  At rho = 0 they reduce exactly to V1, V2.
These closed forms need I >= 3.

The bias is curve_bias(curvature, h) = (h^2 / 2) C_K (target)''(x), where the
caller supplies the target's second derivative: s^2 for the per-replicate
curves, eta^2 = s^2 - 2 rho s1 s + rho s1^2 for the pooled curve, so
(eta^2)'' = (s^2)'' - 2 rho s1 s''.

The covariance matrix of a gene's synthetic-response vector (uncorrelated
noise) and of its residual-square vector are also evaluated in closed form
from the gene's spot variances s^2(x_g1), ..., s^2(x_gI); they satisfy
B A B^T = Omega with B the unbiasing matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    C_K,
    D_K,
    CorrelationEstimate,
    EstimationConfig,
    GenevarError,
    InvalidReplicateCount,
)
from .correlation import FixedPointResult
from .synthetic import unbiasing_matrix


def _closed_form_reps(corr: CorrelationEstimate, n_genes: int,
                      bandwidth: float) -> int:
    if n_genes < 1:
        raise GenevarError("need N >= 1")
    if not bandwidth > 0:
        raise GenevarError("bandwidth must be positive")
    if corr.n_reps < 3:
        raise InvalidReplicateCount("formulas hold for I >= 3")
    return corr.n_reps


def curve_bias(curvature, bandwidth: float):
    """(h^2 / 2) C_K times the target's second derivative, elementwise."""
    if not bandwidth > 0:
        raise GenevarError("bandwidth must be positive")
    return 0.5 * bandwidth ** 2 * C_K * np.asarray(curvature, dtype=float)


def replicate_curve_asymptotics(corr: CorrelationEstimate, scale, density,
                                n_genes: int, bandwidth: float):
    """(V1, V2) of the per-replicate curves where s(x) = scale and
    f(x) = density, for I >= 3."""
    i = _closed_form_reps(corr, n_genes, bandwidth)
    s2x = np.asarray(scale, dtype=float) ** 2
    s4x = s2x * s2x
    s2 = corr.sigma2
    v1 = D_K / (n_genes * bandwidth * np.asarray(density, dtype=float)) * (
        2.0 * s4x
        + (4.0 + 4.0 * (i - 1) * (i - 3)) / ((i - 1) * (i - 2) ** 2) * s2 * s2x
        + 2.0 / ((i - 1) * (i - 2)) * s2 * s2
    )
    v2 = (
        4.0 / (i - 1) ** 2 * s4x
        - 8.0 / (i - 1) ** 2 * s2 * s2x
        + 2.0 * (i - 3) / ((i - 1) ** 2 * (i - 2)) * s2 * s2
    ) / n_genes
    return v1, v2


def synthetic_response_cov(spot_variances) -> np.ndarray:
    """Covariance matrix of a gene's synthetic-response vector under
    uncorrelated noise, given its spot variances s^2(x_g1), ..., s^2(x_gI)."""
    s = np.asarray(spot_variances, dtype=float)
    i = s.size
    if i < 3:
        raise InvalidReplicateCount("need I >= 3")
    total = s.sum()
    total_sq = (s * s).sum()
    all_ordered_pairs = total * total - total_sq
    omega = np.empty((i, i))
    for a in range(i):
        omega[a, a] = (
            2.0 * s[a] ** 2
            + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * all_ordered_pairs
            + 4.0 * (i - 3) / ((i - 1) * (i - 2) ** 2) * s[a] * (total - s[a])
        )
        for b in range(a + 1, i):
            rest1 = total - s[a] - s[b]
            rest2 = total_sq - s[a] ** 2 - s[b] ** 2
            rest_pairs = rest1 * rest1 - rest2
            val = (
                4.0 / (i - 1) ** 2 * s[a] * s[b]
                + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * rest_pairs
                - 4.0 / ((i - 1) ** 2 * (i - 2)) * rest1 * (s[a] + s[b])
            )
            omega[a, b] = omega[b, a] = val
    return omega


def residual_square_cov(spot_variances) -> np.ndarray:
    """Covariance matrix of a gene's residual-square vector under
    uncorrelated noise, given its spot variances s^2(x_g1), ..., s^2(x_gI)."""
    s = np.asarray(spot_variances, dtype=float)
    i = s.size
    if i < 3:
        raise InvalidReplicateCount("need I >= 3")
    total = s.sum()
    total_sq = (s * s).sum()
    i4 = float(i) ** 4
    a_mat = np.empty((i, i))
    for a in range(i):
        rest1 = total - s[a]
        rest2 = total_sq - s[a] ** 2
        a_mat[a, a] = (
            2.0 * (i - 1) ** 4 / i4 * s[a] ** 2
            + 4.0 * (i - 1) ** 2 / i4 * s[a] * rest1
            + 2.0 / i4 * rest2
            + 4.0 / i4 * 0.5 * (rest1 * rest1 - rest2)
        )
        for b in range(a + 1, i):
            r1 = total - s[a] - s[b]
            r2 = total_sq - s[a] ** 2 - s[b] ** 2
            val = (
                2.0 * (i - 1) ** 2 / i4 * (s[a] ** 2 + s[b] ** 2)
                + 4.0 * (i - 1) ** 2 / i4 * s[a] * s[b]
                - 4.0 * (i - 1) / i4 * r1 * (s[a] + s[b])
                + 4.0 / i4 * 0.5 * (r1 * r1 - r2)
                + 2.0 / i4 * r2
            )
            a_mat[a, b] = a_mat[b, a] = val
    return a_mat


def cov_identity_residual(spot_variances) -> float:
    """Max abs entry of B A B^T - Omega; zero up to rounding by construction."""
    omega = synthetic_response_cov(spot_variances)
    a_mat = residual_square_cov(spot_variances)
    b = unbiasing_matrix(omega.shape[0])
    return float(np.max(np.abs(b @ a_mat @ b.T - omega)))


def _c_coefficients(rho, s1, s2, i):
    c2 = (4.0 * (1 + rho ** 2) * s2
          + (4.0 * rho * (i - 2) + 4.0 * rho ** 2 * (2 * i - 3)) * s1 ** 2) / (i - 1)
    c3 = -(8.0 * rho ** 2 * (i - 3) * s1 ** 3
           + 8.0 * (rho ** 2 + rho) * s1 * s2) / (i - 1)
    c4 = 2.0 / ((i - 1) * (i - 2)) * (
        (1 + rho ** 2) * s2 ** 2
        + 2.0 * (rho ** 2 + rho) * (i - 3) * s1 ** 2 * s2
        + (i - 3) * (i - 4) * rho ** 2 * s1 ** 4
    )
    return c2, c3, c4


def _d_coefficients(rho, s1, s2, i):
    d0 = 2.0 * (rho ** 2 - 4.0 * rho / (i - 1) + 2.0 * (1 + rho ** 2) / (i - 1) ** 2)
    d1 = 8.0 / (i - 1) ** 2 * ((2 * i - 4) * rho - (i * i - 4 * i + 5) * rho ** 2) * s1
    d2 = (
        4.0 / ((i - 1) ** 2 * (i - 2)) * (
            (i - 3) ** 2 * rho ** 2 + ((i - 2) ** 2 + 1) * rho - 2.0 * (i - 2)) * s2
        + 4.0 * (i - 3) / ((i - 1) ** 2 * (i - 2)) * (
            (3.0 * (i - 2) * (i - 3) + 2.0) * rho ** 2 - 2.0 * (i - 2) * rho) * s1 ** 2
    )
    d3 = -8.0 * (i - 3) ** 2 / ((i - 1) ** 2 * (i - 2)) * (
        (rho ** 2 + rho) * s1 * s2 + (i - 4) * rho ** 2 * s1 ** 3)
    d4 = 4.0 / ((i - 1) ** 2 * (i - 2) ** 2) * (
        (1 + rho ** 2) * math.comb(i - 2, 2) * s2 ** 2
        + 6.0 * (rho ** 2 + rho) * math.comb(i - 2, 3) * s1 ** 2 * s2
        + 12.0 * rho ** 2 * math.comb(i - 2, 4) * s1 ** 4
    )
    return d0, d1, d2, d3, d4


def pooled_curve_asymptotics(corr: CorrelationEstimate, scale, density,
                             n_genes: int, bandwidth: float):
    """(V1', V2', V*) of the pooled curve where s(x) = scale and
    f(x) = density, any rho, I >= 3."""
    i = _closed_form_reps(corr, n_genes, bandwidth)
    rho, s1, s2 = corr.rho, corr.sigma1, corr.sigma2
    sx = np.asarray(scale, dtype=float)
    c2, c3, c4 = _c_coefficients(rho, s1, s2, i)
    d0, d1, d2, d3, d4 = _d_coefficients(rho, s1, s2, i)
    v1p = D_K / (n_genes * bandwidth * np.asarray(density, dtype=float)) * (
        2.0 * sx ** 4 - 8.0 * rho * s1 * sx ** 3 + c2 * sx ** 2 + c3 * sx + c4)
    v2p = (d0 * sx ** 4 + d1 * sx ** 3 + d2 * sx ** 2 + d3 * sx + d4) / n_genes
    vstar = v1p / i + (i - 1) / i * v2p
    return v1p, v2p, vstar


def corrected_curve_se(eta_var, eta_val, corr: CorrelationEstimate):
    """Delta-method standard error of the corrected variance, elementwise.

    The correction maps z to (rho s1 + sqrt(rho^2 s1^2 - rho s1^2 + z))^2,
    whose derivative is psi(z) = rho s1 / sqrt(rho^2 s1^2 - rho s1^2 + z) + 1.
    The result is NaN where that discriminant is not positive.
    """
    r, s1 = corr.rho, corr.sigma1
    disc = r * r * s1 * s1 - r * s1 * s1 + np.asarray(eta_val, dtype=float)
    root = np.sqrt(np.where(disc > 0, disc, np.nan))
    return np.abs(r * s1 / root + 1.0) * np.sqrt(eta_var)


def corrected_curve_stderr(fp: FixedPointResult, n_genes: int, n_arrays: int,
                           config: EstimationConfig, density) -> np.ndarray:
    """Delta-method standard errors of the fixed point's corrected curve.

    At the grid points where the curve and the mean uncorrected curve are
    defined, the plug-in pooled-curve variance V* (scale fp.curve.scale_at,
    density floored at 1e-12), divided by J because the curve averages J
    per-array fits, goes through corrected_curve_se.  Entries stay NaN
    elsewhere, where the discriminant is not positive, and everywhere when
    I < 3 (the closed forms need I >= 3).
    """
    curve, est = fp.curve, fp.estimate
    stderr = np.full(curve.grid.shape, np.nan)
    if est.n_reps < 3:
        return stderr
    eta_mean = np.mean([c.values for c in fp.uncorrected], axis=0)
    ok = curve.evaluable & np.isfinite(curve.values) & np.isfinite(eta_mean)
    x = curve.grid[ok]
    vstar = pooled_curve_asymptotics(
        est, curve.scale_at(x), np.maximum(density(x), 1e-12), n_genes,
        config.bandwidth)[2]
    stderr[ok] = corrected_curve_se(vstar / n_arrays, eta_mean[ok], est)
    return stderr
