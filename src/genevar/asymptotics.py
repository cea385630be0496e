"""Closed-form asymptotic bias and variance of the variance-curve estimators.

For the per-replicate curves at a point x, with s2x = s^2(x), s1 = E[s(X)],
s2 = E[s^2(X)], kernel moments c_k / d_k, N genes, bandwidth h and density f:

    bias(x) = (h^2 / 2) c_k (s^2)''(x)
    V1 = d_k / (N h f(x)) * { 2 s2x^2
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

The covariance matrix of a gene's synthetic-response vector (uncorrelated
noise) and of its residual-square vector are also evaluated in closed form;
they satisfy B A B^T = Omega with B the unbiasing matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    TRICUBE,
    CorrelationEstimate,
    EstimationConfig,
    GenevarError,
    InvalidReplicateCount,
    KernelSpec,
    ZeroDiscriminant,
)
from .correlation import FixedPointResult
from .synthetic import unbiasing_matrix


FD_STEP = 0.01  # central-difference step, 1e-3 of a ten-unit intensity range


@dataclass(frozen=True)
class AsymptoticContext:
    """Everything the variance formulas need at one design.

    sigma_fn maps intensity to noise scale s(x) (truth in simulations, a
    plug-in otherwise); f_x is the intensity density.  curvature_fn, when
    given, supplies (s^2)'' analytically; scale_curvature_fn supplies s''.
    Otherwise second derivatives fall back to central differences with step
    FD_STEP.
    """

    sigma_fn: Callable[[np.ndarray], np.ndarray]
    sigma1: float
    sigma2: float
    rho: float
    f_x: Callable[[np.ndarray], np.ndarray]
    kernel: KernelSpec
    n_genes: int
    bandwidth: float
    n_reps: int
    curvature_fn: Optional[Callable] = None
    scale_curvature_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.n_genes < 1 or self.n_reps < 2:
            raise InvalidReplicateCount("need N >= 1 and I >= 2")
        if not self.bandwidth > 0:
            raise GenevarError("bandwidth must be positive")


def _second_difference(fn, x):
    step = FD_STEP
    return (float(fn(x + step)) - 2.0 * float(fn(x)) + float(fn(x - step))) / step ** 2


def _variance_curvature(ctx: AsymptoticContext, x: float) -> float:
    if ctx.curvature_fn is not None:
        return float(ctx.curvature_fn(x))
    return _second_difference(lambda t: ctx.sigma_fn(t) ** 2, x)


def replicate_curve_asymptotics(ctx: AsymptoticContext, x: float):
    """(bias, V1, V2) of the per-replicate curves at x, for I >= 3."""
    i = ctx.n_reps
    if i < 3:
        raise InvalidReplicateCount("formulas hold for I >= 3")
    s2x = float(ctx.sigma_fn(x)) ** 2
    s4x = s2x * s2x
    s2 = ctx.sigma2
    bias = 0.5 * ctx.bandwidth ** 2 * ctx.kernel.c_k * _variance_curvature(ctx, x)
    v1 = ctx.kernel.d_k / (ctx.n_genes * ctx.bandwidth * float(ctx.f_x(x))) * (
        2.0 * s4x
        + (4.0 + 4.0 * (i - 1) * (i - 3)) / ((i - 1) * (i - 2) ** 2) * s2 * s2x
        + 2.0 / ((i - 1) * (i - 2)) * s2 * s2
    )
    v2 = (
        4.0 / (i - 1) ** 2 * s4x
        - 8.0 / (i - 1) ** 2 * s2 * s2x
        + 2.0 * (i - 3) / ((i - 1) ** 2 * (i - 2)) * s2 * s2
    ) / ctx.n_genes
    return bias, v1, v2


def synthetic_response_cov(x_row, sigma_fn) -> np.ndarray:
    """Covariance matrix of a gene's synthetic-response vector under
    uncorrelated noise, conditional on the gene's intensity row."""
    s = np.asarray(sigma_fn(np.asarray(x_row, dtype=float)), dtype=float) ** 2
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


def residual_square_cov(x_row, sigma_fn) -> np.ndarray:
    """Covariance matrix of a gene's residual-square vector under
    uncorrelated noise, conditional on the gene's intensity row."""
    s = np.asarray(sigma_fn(np.asarray(x_row, dtype=float)), dtype=float) ** 2
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


def cov_identity_residual(x_row, sigma_fn) -> float:
    """Max abs entry of B A B^T - Omega; zero up to rounding by construction."""
    i = len(np.atleast_1d(x_row))
    b = unbiasing_matrix(i)
    omega = synthetic_response_cov(x_row, sigma_fn)
    a_mat = residual_square_cov(x_row, sigma_fn)
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


def _shifted_target_curvature(ctx: AsymptoticContext, x: float) -> float:
    # (eta^2)'' where eta^2(x) = s^2(x) - 2 rho s1 s(x) + rho s1^2
    if ctx.curvature_fn is not None and ctx.scale_curvature_fn is not None:
        return float(ctx.curvature_fn(x)) \
            - 2.0 * ctx.rho * ctx.sigma1 * float(ctx.scale_curvature_fn(x))
    def eta2(t):
        st = float(ctx.sigma_fn(t))
        return st * st - 2.0 * ctx.rho * ctx.sigma1 * st + ctx.rho * ctx.sigma1 ** 2
    return _second_difference(eta2, x)


def pooled_curve_asymptotics(ctx: AsymptoticContext, x: float):
    """(bias, V1', V2', V*) of the pooled curve at x, any rho, I >= 3."""
    i = ctx.n_reps
    if i < 3:
        raise InvalidReplicateCount("formulas hold for I >= 3")
    rho, s1, s2 = ctx.rho, ctx.sigma1, ctx.sigma2
    sx = float(ctx.sigma_fn(x))
    c2, c3, c4 = _c_coefficients(rho, s1, s2, i)
    d0, d1, d2, d3, d4 = _d_coefficients(rho, s1, s2, i)
    v1p = ctx.kernel.d_k / (ctx.n_genes * ctx.bandwidth * float(ctx.f_x(x))) * (
        2.0 * sx ** 4 - 8.0 * rho * s1 * sx ** 3 + c2 * sx ** 2 + c3 * sx + c4)
    v2p = (d0 * sx ** 4 + d1 * sx ** 3 + d2 * sx ** 2 + d3 * sx + d4) / ctx.n_genes
    vstar = v1p / i + (i - 1) / i * v2p
    bias = 0.5 * ctx.bandwidth ** 2 * ctx.kernel.c_k * _shifted_target_curvature(ctx, x)
    return bias, v1p, v2p, vstar


def corrected_curve_se(eta_var: float, eta_val: float,
                       corr: CorrelationEstimate) -> float:
    """Delta-method standard error of the corrected variance at one point.

    The correction maps z to (rho s1 + sqrt(rho^2 s1^2 - rho s1^2 + z))^2,
    whose derivative is psi(z) = rho s1 / sqrt(rho^2 s1^2 - rho s1^2 + z) + 1.
    """
    r, s1 = corr.rho, corr.sigma1
    disc = r * r * s1 * s1 - r * s1 * s1 + eta_val
    if disc <= 0:
        raise ZeroDiscriminant("discriminant must be positive for the delta method")
    psi = r * s1 / math.sqrt(disc) + 1.0
    return abs(psi) * math.sqrt(eta_var)


def corrected_curve_stderr(fp: FixedPointResult, n_genes: int, n_arrays: int,
                           config: EstimationConfig, density) -> np.ndarray:
    """Delta-method standard errors of the fixed point's corrected curve.

    At each grid point the plug-in pooled-curve variance V*, divided by J
    because the curve averages J per-array fits, goes through
    corrected_curve_se; the plug-in scale is fp.curve.scale_at and density
    gives f(x).  Entries stay NaN where the curve or the mean uncorrected
    curve is undefined, where the discriminant is not positive, and
    everywhere when I < 3 (the closed forms need I >= 3).
    """
    curve, est = fp.curve, fp.estimate
    stderr = np.full(curve.grid.shape, np.nan)
    if est.n_reps < 3:
        return stderr
    eta_mean = np.mean([c.values for c in fp.uncorrected], axis=0)
    ok = curve.evaluable & np.isfinite(curve.values) & np.isfinite(eta_mean)

    def f_x(t):
        return max(float(density(t)[0]), 1e-12)

    ctx = AsymptoticContext(
        sigma_fn=curve.scale_at, sigma1=est.sigma1, sigma2=est.sigma2,
        rho=est.rho, f_x=f_x, kernel=TRICUBE, n_genes=n_genes,
        bandwidth=config.bandwidth, n_reps=est.n_reps)
    for k in np.flatnonzero(ok):
        vstar = pooled_curve_asymptotics(ctx, float(curve.grid[k]))[3] / n_arrays
        try:
            stderr[k] = corrected_curve_se(vstar, float(eta_mean[k]), est)
        except ZeroDiscriminant:
            pass
    return stderr
