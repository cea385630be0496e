"""Validation tests for normalized arrays and variance-aware gene selection.

Validation statistics, for G genes with I replicates each and known (or
plugged-in) per-gene noise scales sigma_g, with D_gi = Y_gi - Ybar_g:

    T1 = sum_g sum_i D_gi^2 / sigma_g^2                     ~ chi2, df (I-1)G
    T2 = sum_g sum_i |D_gi| / sigma_g                       ~ approx normal
    T3 = (sum D^2 - (I-1) sum sigma_g^2) / sqrt(2(I-1) sum sigma_g^4)
    T4 = (sum |D| - lambda_I sum sigma_g) / (kappa_I sqrt(sum sigma_g^2))

lambda_I = sqrt(2 I (I-1) / pi) is the exact mean of sum_i |e_i - ebar| for a
standard normal I-vector and kappa_I^2 its variance.  Each d_i = e_i - ebar
has variance v = (I-1)/I and each pair correlation r = -1/(I-1); the absolute
moment of a bivariate normal, E|d_i||d_j| = (2v/pi)(sqrt(1-r^2) + r asin r)
(Nabeya 1951), gives the closed form

    kappa_I^2 = I v (1 - 2/pi) + I (I-1) (E|d_i||d_j| - 2v/pi).

T2 is standardized here as
(T2 - G lambda_I) / (sqrt(G) kappa_I).  p-values are upper-tail: unremoved
systematic biases inflate residuals and push every statistic up.

These null moments take the replicates of a gene as uncorrelated.  A
within-gene correlation rho > 0 shrinks the residuals (at a common scale,
E sum_i D_gi^2 = (I-1)(1-rho) sigma_g^2), so the p-values climb towards 1:
on a 20k-gene I=2 generate_set input at rho = 0.4, T1/((I-1)G) reads
0.67-0.69 and all 16 p-values are 1.0.  (1-rho) sigma_g^2 is no exact null
when the replicates' scales differ; on that input it would over-reject.

Gene selection compares the classical one-sample t-test against a z-test that
plugs in the smoothed genewise standard deviation, plus the expected
theoretical power difference between the two tests.

The p-values, critical values and the noncentral-t power come from
genevar.distributions, in numpy and the standard library: importing scipy's
special functions cost about 0.25 s and 20 MB per process, more than the
p-values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    chi2_sf,
    normal_critical,
    normal_sf,
    t_power,
    t_two_sided,
)
from .model import (
    GenevarError,
    NonpositiveSigma,
    ReplicatedArray,
    TooFewReplicates,
    VarianceCurve,
    ZeroDensityEverywhere,
    validate,
)

@dataclass(frozen=True)
class TestConstants:
    """Moments of the absolute-residual sum for one gene at unit scale."""

    lambda_i: float
    kappa_i: float


def test_constants(n_reps: int) -> TestConstants:
    """lambda_I and kappa_I in closed form."""
    if n_reps < 2:
        raise TooFewReplicates("constants need I >= 2")
    i = n_reps
    v = (i - 1) / i
    r = -1.0 / (i - 1)
    abs_cross = 2.0 * v / math.pi * (math.sqrt(1.0 - r * r) + r * math.asin(r))
    kappa_sq = i * v * (1.0 - 2.0 / math.pi) \
        + i * (i - 1) * (abs_cross - 2.0 * v / math.pi)
    return TestConstants(lambda_i=math.sqrt(2.0 * i * (i - 1) / math.pi),
                         kappa_i=math.sqrt(kappa_sq))


@dataclass(frozen=True)
class ValidationResult:
    array_id: str
    t1: float
    p1: float
    t2: float
    p2: float
    t3: float
    p3: float
    t4: float
    p4: float


def validation_tests(array: ReplicatedArray, sigma_g,
                     array_id: str = "") -> ValidationResult:
    """All four statistics with upper-tail p-values for one array."""
    validate(array)
    sigma_g = np.asarray(sigma_g, dtype=float)
    g_count, i = array.y.shape
    if sigma_g.shape != (g_count,):
        raise GenevarError("sigma_g must give one scale per gene")
    if np.any(sigma_g <= 0) or not np.all(np.isfinite(sigma_g)):
        raise NonpositiveSigma("sigma_g entries must be positive and finite")
    const = test_constants(i)

    d = array.y - array.y.mean(axis=1, keepdims=True)
    sq = (d * d).sum(axis=1)
    ab = np.abs(d).sum(axis=1)

    t1 = float((sq / sigma_g ** 2).sum())
    p1 = chi2_sf(t1, (i - 1) * g_count)

    t2 = float((ab / sigma_g).sum())
    z2 = (t2 - g_count * const.lambda_i) / (np.sqrt(g_count) * const.kappa_i)
    p2 = float(normal_sf(z2))

    t3 = float((sq.sum() - (i - 1) * (sigma_g ** 2).sum())
               / np.sqrt(2.0 * (i - 1) * (sigma_g ** 4).sum()))
    p3 = float(normal_sf(t3))

    t4 = float((ab.sum() - const.lambda_i * sigma_g.sum())
               / (const.kappa_i * np.sqrt((sigma_g ** 2).sum())))
    p4 = float(normal_sf(t4))

    return ValidationResult(array_id=array_id, t1=t1, p1=p1, t2=t2, p2=p2,
                            t3=t3, p3=p3, t4=t4, p4=p4)


def gene_sigma(curve: VarianceCurve, x, density):
    """Density-weighted mean of the variance curve at each gene's intensities.

    One gene's intensities lie along the last axis of x, and the mean is
    taken over that axis: a 1-d row gives one float, an (N, m) matrix gives
    an array of N values.  Off-grid intensities go through
    curve.variance_at.  density is called once, on all intensities
    flattened; ZeroDensityEverywhere is raised when any gene's weights all
    vanish.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    flat = pts.ravel()
    vals = curve.variance_at(flat).reshape(pts.shape)
    w = np.asarray(density(flat), dtype=float).reshape(pts.shape)
    if np.any(w < 0):
        raise GenevarError("density weights must be nonnegative")
    total = w.sum(axis=-1)
    if np.any(total <= 0):
        raise ZeroDensityEverywhere(
            "density vanishes at every intensity of a gene")
    vals *= w  # in place: two full-size arrays, not three
    out = vals.sum(axis=-1) / total
    return float(out) if pts.ndim == 1 else out


def t_pvalues(means, sd, n):
    """Two-sided t statistics and p-values, with the degenerate-SD rule:
    s = 0 gives p = 0 for a nonzero mean (certain signal) and p = 1
    otherwise, flagged.  Returns (stat, p, degenerate_mask)."""
    means = np.asarray(means, dtype=float)
    sd = np.asarray(sd, dtype=float)
    degenerate = sd == 0
    safe = np.where(degenerate, 1.0, sd)
    stat = np.sqrt(n) * means / safe
    p = t_two_sided(stat, n - 1)
    p = np.where(degenerate, np.where(means != 0, 0.0, 1.0), p)
    with np.errstate(invalid="ignore"):
        stat = np.where(degenerate,
                        np.where(means != 0, np.sign(means) * np.inf, 0.0),
                        stat)
    return stat, p, degenerate


def z_pvalues(means, sigma, n):
    """Two-sided normal statistics and p-values.  Returns (stat, p)."""
    means = np.asarray(means, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise NonpositiveSigma("z-test needs positive genewise scales")
    stat = np.sqrt(n) * means / sigma
    return stat, 2.0 * normal_sf(np.abs(stat))


def selection_counts(p_t, p_z, fold, fold_changes, alphas):
    """Genes selected by the t-test and the z-test over a threshold grid.

    A gene is selected when p < alpha and its fold change 2^|mean| exceeds
    fc.  Returns one (fc, alpha, t_count, z_count) row per pair, fold
    changes outermost.
    """
    def count(p, alpha, fc):
        return int(np.sum((p < alpha) & (fold > fc)))

    return [(fc, alpha, count(p_t, alpha, fc), count(p_z, alpha, fc))
            for fc in fold_changes for alpha in alphas]


def power_increase(means, sigma_g, n: int, alphas, sample_sd=None):
    """(theoretical, empirical) power gain of the z-test over the t-test,
    one pair per level in alphas.

    Theoretical: for each gene with nonzero mean, delta = mean / sigma_g and

        P_z(delta) = Phi(-z_{a/2} - sqrt(n) delta) + Phi(-z_{a/2} + sqrt(n) delta)
        P_t(delta) = P(|T'| > t_{a/2, n-1}),  T' noncentral t, ncp sqrt(n) delta,

    averaged across qualifying genes.  Empirical: difference in rejection
    counts over all genes divided by the total gene count; the t-test uses
    sample_sd when provided (sigma_g otherwise).  Neither the observed
    p-values nor the noncentral-t weights depend on the level, so each is
    computed once for all of alphas.
    """
    means = np.asarray(means, dtype=float)
    sigma_g = np.asarray(sigma_g, dtype=float)
    if np.any(sigma_g <= 0):
        raise NonpositiveSigma("power comparison needs positive scales")

    nonzero = means != 0
    if nonzero.any():
        ncp = np.sqrt(n) * means[nonzero] / sigma_g[nonzero]
        theoretical = []
        for alpha, p_t in zip(alphas, t_power(ncp, n - 1, alphas)):
            zcrit = normal_critical(alpha)
            p_z = normal_sf(zcrit + ncp) + normal_sf(zcrit - ncp)
            theoretical.append(float(np.mean(p_z - p_t)))
    else:
        theoretical = [0.0] * len(alphas)

    sd = sigma_g if sample_sd is None else np.asarray(sample_sd, dtype=float)
    _, p_z_obs = z_pvalues(means, sigma_g, n)
    _, p_t_obs, _ = t_pvalues(means, sd, n)
    empirical = [float((np.sum(p_z_obs < alpha) - np.sum(p_t_obs < alpha))
                       / means.size) for alpha in alphas]
    return list(zip(theoretical, empirical))
