import dataclasses

import numpy as np
import pytest

from genevar.asymptotics import (
    corrected_curve_se,
    corrected_curve_stderr,
    cov_identity_residual,
    curve_bias,
    pooled_curve_asymptotics,
    replicate_curve_asymptotics,
    residual_square_cov,
    synthetic_response_cov,
)
from genevar.correlation import fixed_point_solve
from genevar.model import (
    C_K,
    D_K,
    CorrelationEstimate,
    InvalidReplicateCount,
    VarianceCurve,
)
from genevar.simulation import (
    SimDesign,
    generate_set,
    intensity_density,
    sample_intensities,
    scale_moments,
    variance_curvature,
    variance_function,
)
from genevar.smoothing import density_interpolator
from genevar.synthetic import synthetic_responses, unbiasing_matrix
from conftest import make_array


def moments(rho, sigma1, sigma2, n_reps=3):
    return CorrelationEstimate(rho=rho, sigma1=sigma1, sigma2=sigma2,
                               iterations=0, converged=True, n_reps=n_reps)


def benchmark_moments(rho=0.0, n_reps=3):
    s1, s2 = scale_moments()
    return moments(rho, s1, s2, n_reps)


def benchmark_scale(x):
    return np.sqrt(variance_function(x))


def benchmark_replicate(x, rho=0.0, n_reps=3, n_genes=2000):
    """(V1, V2) of the benchmark design at x, bandwidth 1."""
    return replicate_curve_asymptotics(
        benchmark_moments(rho, n_reps), benchmark_scale(x),
        intensity_density(x), n_genes, 1.0)


def benchmark_pooled(x, rho=0.0, n_reps=3, n_genes=2000):
    """(V1', V2', V*) of the benchmark design at x, bandwidth 1."""
    return pooled_curve_asymptotics(
        benchmark_moments(rho, n_reps), benchmark_scale(x),
        intensity_density(x), n_genes, 1.0)


def scale_curvature(x):
    """Analytic s'' for the benchmark design's noise scale s = sqrt(s^2)."""
    x = np.asarray(x, dtype=float)
    v = variance_function(x)
    vp = np.where(x < 12.0, -0.03 * (12.0 - x), 0.0)
    vpp = variance_curvature(x)
    return vpp / (2.0 * np.sqrt(v)) - vp ** 2 / (4.0 * v ** 1.5)


def replicate_bias(x):
    return curve_bias(variance_curvature(x), 1.0)


def pooled_bias(x, rho):
    s1, _ = scale_moments()
    return curve_bias(variance_curvature(x) - 2.0 * rho * s1 * scale_curvature(x),
                      1.0)


class TestReplicateCurveAsymptotics:
    def test_constant_scale_closed_form(self):
        sigma0, i, n = 0.8, 4, 1000
        v1, v2 = replicate_curve_asymptotics(
            moments(0.0, sigma0, sigma0 ** 2, n_reps=i), sigma0, 0.25, n, 1.0)
        bias = curve_bias(0.0, 1.0)
        assert bias == 0.0
        s4 = sigma0 ** 4
        v1_expected = D_K / (n * 1.0 * 0.25) * s4 * (
            2.0 + (4 + 4 * (i - 1) * (i - 3)) / ((i - 1) * (i - 2) ** 2)
            + 2.0 / ((i - 1) * (i - 2)))
        v2_expected = s4 / n * (4 - 8 + 2 * (i - 3) / (i - 2)) / (i - 1) ** 2
        assert v1 == pytest.approx(v1_expected, rel=1e-12)
        assert v2 == pytest.approx(v2_expected, rel=1e-12)

    def test_bias_zero_on_flat_region(self):
        # the benchmark variance function is constant for x >= 12
        bias = replicate_bias(13.0)
        assert bias == 0.0

    def test_bias_on_quadratic_region(self):
        bias = replicate_bias(8.0)
        assert bias == pytest.approx(0.5 * C_K * 0.03, rel=1e-12)

    def test_first_order_variance_integral_identity(self, rng):
        # V1 equals d_k/(N h f(x)) times the mean of the synthetic-response
        # variance with X_i pinned at x and the other spots drawn from the
        # design density (Monte Carlo integration oracle)
        x0, n_draws, n_genes = 8.0, 200_000, 2000
        rows = sample_intensities((n_draws, 3), rng)
        rows[:, 0] = x0
        s = benchmark_scale(rows) ** 2
        i = 3
        total = s.sum(axis=1)
        total_sq = (s * s).sum(axis=1)
        omega_00 = (2.0 * s[:, 0] ** 2
                    + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * (total ** 2 - total_sq)
                    + 4.0 * (i - 3) / ((i - 1) * (i - 2) ** 2)
                    * s[:, 0] * (total - s[:, 0]))
        mc = D_K / (n_genes * 1.0 * intensity_density(x0)) * omega_00.mean()
        mc_se = D_K / (n_genes * intensity_density(x0)) \
            * omega_00.std() / np.sqrt(n_draws)
        v1, _ = benchmark_replicate(x0, n_genes=n_genes)
        assert abs(v1 - mc) < 3 * mc_se

    def test_second_order_covariance_integral_identity(self, rng):
        # N * V2 equals the mean synthetic-response covariance with X_i and
        # X_j both pinned at x and the rest drawn from the design density
        x0, n_draws, n_genes = 8.0, 200_000, 2000
        rows = sample_intensities((n_draws, 3), rng)
        rows[:, 0] = x0
        rows[:, 1] = x0
        omegas = np.empty(n_draws)
        s = benchmark_scale(rows) ** 2
        i = 3
        total = s.sum(axis=1)
        total_sq = (s * s).sum(axis=1)
        rest1 = total - s[:, 0] - s[:, 1]
        rest2 = total_sq - s[:, 0] ** 2 - s[:, 1] ** 2
        omegas = (4.0 / (i - 1) ** 2 * s[:, 0] * s[:, 1]
                  + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * (rest1 ** 2 - rest2)
                  - 4.0 / ((i - 1) ** 2 * (i - 2)) * rest1 * (s[:, 0] + s[:, 1]))
        _, v2 = benchmark_replicate(x0, n_genes=n_genes)
        mc = omegas.mean() / n_genes
        mc_se = omegas.std() / np.sqrt(n_draws) / n_genes
        assert abs(v2 - mc) < 3 * mc_se

    def test_requires_three_replicates(self):
        with pytest.raises(InvalidReplicateCount):
            replicate_curve_asymptotics(moments(0.0, 0.5, 0.25, n_reps=2),
                                        0.5, 0.25, 1000, 1.0)


class TestCovarianceMatrices:
    def test_unit_scale_three_replicates(self):
        # constant unit scale: Omega = 2 B (diagonal 5, off-diagonal -1)
        omega = synthetic_response_cov(np.ones(3))
        assert np.allclose(np.diag(omega), 5.0)
        assert np.allclose(omega[~np.eye(3, dtype=bool)], -1.0)

    def test_unit_scale_residual_cov(self):
        a = residual_square_cov(np.ones(3))
        assert np.allclose(np.diag(a), 72.0 / 81.0)
        assert np.allclose(a[~np.eye(3, dtype=bool)], 2.0 / 9.0)

    def test_zero_scale_gives_zero_matrix(self):
        a = residual_square_cov(np.zeros(3))
        assert np.allclose(a, 0.0)

    @pytest.mark.parametrize("i", [3, 4, 5])
    def test_transform_identity(self, i, rng):
        # B A B^T = Omega to machine precision for random scale rows
        s2_row = benchmark_scale(rng.uniform(6, 16, i)) ** 2
        assert cov_identity_residual(s2_row) < 1e-10
        b = unbiasing_matrix(i)
        a = residual_square_cov(s2_row)
        omega = synthetic_response_cov(s2_row)
        assert np.allclose(b @ a @ b.T, omega, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        s2_row = benchmark_scale(rng.uniform(6, 16, 4)) ** 2
        omega = synthetic_response_cov(s2_row)
        perm = np.array([2, 0, 3, 1])
        permuted = synthetic_response_cov(s2_row[perm])
        assert np.allclose(omega[np.ix_(perm, perm)], permuted, atol=1e-12)

    def test_diagonal_dominates_twice_fourth_power(self, rng):
        x_row = rng.uniform(6, 16, 5)
        omega = synthetic_response_cov(benchmark_scale(x_row) ** 2)
        s4 = variance_function(x_row) ** 2
        assert np.all(np.diag(omega) >= 2.0 * s4 - 1e-12)

    def test_monte_carlo_covariance(self, rng):
        # empirical covariance of Z for a fixed intensity row under
        # uncorrelated noise matches Omega entrywise
        x_row = np.array([7.5, 10.0, 13.5])
        n = 300_000
        sig = benchmark_scale(x_row)
        y = sig * rng.standard_normal((n, 3))
        z = synthetic_responses(make_array(y, x=np.tile(x_row, (n, 1))))
        emp = np.cov(z.T)
        omega = synthetic_response_cov(sig ** 2)
        centered = z - z.mean(axis=0)
        for a in range(3):
            for b in range(3):
                m22 = np.mean(centered[:, a] ** 2 * centered[:, b] ** 2)
                se = np.sqrt(max(m22 - emp[a, b] ** 2, 0.0) / n)
                assert abs(emp[a, b] - omega[a, b]) < 3 * se


class TestPooledCurveAsymptotics:
    @pytest.mark.parametrize("i", [3, 4, 5, 10])
    def test_reduces_to_uncorrelated_formulas(self, i):
        x0 = 9.0
        v1, v2 = benchmark_replicate(x0, n_reps=i)
        v1p, v2p, vstar = benchmark_pooled(x0, n_reps=i)
        bias_r, bias_p = replicate_bias(x0), pooled_bias(x0, 0.0)
        assert v1p == pytest.approx(v1, rel=1e-12)
        assert v2p == pytest.approx(v2, rel=1e-12)
        assert bias_p == pytest.approx(bias_r, rel=1e-12)
        assert vstar == pytest.approx(v1 / i + (i - 1) / i * v2, rel=1e-12)

    def test_binomial_terms_vanish_at_three_replicates(self):
        # D4 collects C(I-2, k) factors that all vanish at I=3
        est = benchmark_moments(rho=0.6, n_reps=3)
        from genevar.asymptotics import _d_coefficients
        d_coeffs = _d_coefficients(0.6, est.sigma1, est.sigma2, 3)
        assert d_coeffs[4] == 0.0

    def test_variances_positive(self):
        for rho in (-0.3, 0.0, 0.5):
            for x0 in (7.0, 10.0, 14.0):
                v1p, _, vstar = benchmark_pooled(x0, rho=rho)
                assert v1p > 0
                assert vstar > 0

    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_array_call_matches_pointwise_calls(self, rho):
        xs = np.linspace(6.5, 15.5, 19)
        together = (benchmark_replicate(xs, rho=rho)
                    + benchmark_pooled(xs, rho=rho))
        for k, x in enumerate(xs):
            alone = (benchmark_replicate(x, rho=rho)
                     + benchmark_pooled(x, rho=rho))
            for arr, val in zip(together, alone):
                assert arr.shape == xs.shape
                assert arr[k] == pytest.approx(float(val), rel=1e-15, abs=0.0)

    def test_shifted_target_bias_flat_region(self):
        # on the flat region both (s^2)'' and s'' vanish
        bias = pooled_bias(13.5, 0.6)
        assert bias == 0.0


class TestDeltaMethod:
    def test_zero_correlation_passthrough(self):
        est = CorrelationEstimate(rho=0.0, sigma1=0.5, sigma2=0.3,
                                  iterations=0, converged=True, n_reps=3)
        assert corrected_curve_se(4.0, 0.2, est) == pytest.approx(2.0)

    def test_constant_scale_inflation(self):
        # psi((1 - rho) s0^2) = 1 / (1 - rho)
        rho, s0 = 0.4, 0.8
        est = CorrelationEstimate(rho=rho, sigma1=s0, sigma2=s0 ** 2,
                                  iterations=0, converged=True, n_reps=3)
        got = corrected_curve_se(1.0, (1 - rho) * s0 ** 2, est)
        assert got == pytest.approx(1.0 / (1 - rho), rel=1e-12)

    def test_matches_finite_difference(self):
        rho, s1 = 0.35, 0.45
        est = CorrelationEstimate(rho=rho, sigma1=s1, sigma2=s1 ** 2 + 0.02,
                                  iterations=0, converged=True, n_reps=3)
        z = 0.21
        eps = 1e-6

        def transform(v):
            return (rho * s1 + np.sqrt(rho ** 2 * s1 ** 2 - rho * s1 ** 2 + v)) ** 2

        fd = (transform(z + eps) - transform(z - eps)) / (2 * eps)
        psi = corrected_curve_se(1.0, z, est)
        assert abs(psi - abs(fd)) < 1e-5

    def test_nonpositive_discriminant_gives_nan(self):
        # rho = 0.5, s1 = 1: disc = eta - 0.25 and psi = 0.5 / sqrt(disc) + 1
        est = CorrelationEstimate(rho=0.5, sigma1=1.0, sigma2=1.1,
                                  iterations=0, converged=True, n_reps=3)
        eta_val = np.array([0.25 - 0.5, 0.25, 0.5, 1.25])
        eta_var = np.array([1.0, 1.0, 4.0, 9.0])
        se = corrected_curve_se(eta_var, eta_val, est)
        assert np.array_equal(se, [np.nan, np.nan, 2.0 * 2.0, 1.5 * 3.0],
                              equal_nan=True)


def fitted(n_reps, unit_config):
    mset = generate_set(SimDesign(n_genes=600, n_replicates=n_reps, rho=0.3,
                                  seed=9), 0)
    fp = fixed_point_solve(mset, unit_config)
    return mset, fp, density_interpolator(mset.x.ravel(), unit_config)


class TestCorrectedCurveStderr:
    def test_two_replicates_all_nan(self, unit_config):
        mset, fp, density = fitted(2, unit_config)
        se = corrected_curve_stderr(fp, mset.n_genes, mset.n_arrays,
                                    unit_config, density)
        assert se.shape == unit_config.grid.shape
        assert np.all(np.isnan(se))

    def test_matches_pointwise_delta_method(self, unit_config):
        mset, fp, density = fitted(3, unit_config)
        se = corrected_curve_stderr(fp, mset.n_genes, mset.n_arrays,
                                    unit_config, density)
        est = fp.estimate
        ok = fp.curve.evaluable
        x = unit_config.grid[ok]
        eta = np.mean([c.values for c in fp.uncorrected], axis=0)[ok]
        vstar = pooled_curve_asymptotics(
            est, fp.curve.scale_at(x), np.maximum(density(x), 1e-12),
            mset.n_genes, 1.0)[2]
        assert np.array_equal(
            se[ok], corrected_curve_se(vstar / mset.n_arrays, eta, est))
        assert np.all(np.isnan(se[~ok]))
        assert np.isfinite(se[fp.curve.flags == 0]).all()

    def test_nonpositive_discriminant_gives_nan(self, unit_config):
        mset, fp, density = fitted(3, unit_config)
        k = 40
        uncorrected = []
        for c in fp.uncorrected:
            values = c.values.copy()
            values[k] = -10.0  # rho^2 s1^2 - rho s1^2 + eta < 0
            uncorrected.append(VarianceCurve(grid=c.grid, values=values,
                                             flags=c.flags))
        broken = dataclasses.replace(fp, uncorrected=tuple(uncorrected))
        base = corrected_curve_stderr(fp, mset.n_genes, mset.n_arrays,
                                      unit_config, density)
        se = corrected_curve_stderr(broken, mset.n_genes, mset.n_arrays,
                                    unit_config, density)
        assert np.isfinite(base[k]) and np.isnan(se[k])
        others = np.arange(se.size) != k
        assert np.array_equal(se[others], base[others], equal_nan=True)
