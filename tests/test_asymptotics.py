import dataclasses

import numpy as np
import pytest

from genevar.asymptotics import (
    AsymptoticContext,
    corrected_curve_se,
    corrected_curve_stderr,
    cov_identity_residual,
    pooled_curve_asymptotics,
    replicate_curve_asymptotics,
    residual_square_cov,
    synthetic_response_cov,
)
from genevar.correlation import fixed_point_solve
from genevar.model import (
    CorrelationEstimate,
    InvalidReplicateCount,
    VarianceCurve,
    ZeroDiscriminant,
    tricube_kernel,
)
from genevar.simulation import (
    SimDesign,
    generate_set,
    intensity_density,
    sample_intensities,
    scale_curvature,
    scale_moments,
    variance_curvature,
    variance_function,
)
from genevar.smoothing import density_interpolator
from genevar.synthetic import synthetic_responses, unbiasing_matrix
from conftest import make_array


def benchmark_context(rho=0.0, n_genes=2000, n_reps=3, analytic=True):
    s1, s2 = scale_moments()
    kwargs = {}
    if analytic:
        kwargs = dict(curvature_fn=variance_curvature,
                      scale_curvature_fn=scale_curvature)
    return AsymptoticContext(
        sigma_fn=lambda x: np.sqrt(variance_function(x)),
        sigma1=s1, sigma2=s2, rho=rho, f_x=intensity_density,
        kernel=tricube_kernel(), n_genes=n_genes, bandwidth=1.0,
        n_reps=n_reps, **kwargs)


def constant_context(sigma0, rho=0.0, n_reps=3, n_genes=1000):
    return AsymptoticContext(
        sigma_fn=lambda x: np.full_like(np.asarray(x, dtype=float), sigma0),
        sigma1=sigma0, sigma2=sigma0 ** 2, rho=rho,
        f_x=lambda x: np.full_like(np.asarray(x, dtype=float), 0.25),
        kernel=tricube_kernel(), n_genes=n_genes, bandwidth=1.0,
        n_reps=n_reps, curvature_fn=lambda x: 0.0,
        scale_curvature_fn=lambda x: 0.0)


class TestReplicateCurveAsymptotics:
    def test_constant_scale_closed_form(self):
        sigma0, i, n = 0.8, 4, 1000
        ctx = constant_context(sigma0, n_reps=i, n_genes=n)
        bias, v1, v2 = replicate_curve_asymptotics(ctx, 10.0)
        assert bias == 0.0
        s4 = sigma0 ** 4
        k = tricube_kernel()
        v1_expected = k.d_k / (n * 1.0 * 0.25) * s4 * (
            2.0 + (4 + 4 * (i - 1) * (i - 3)) / ((i - 1) * (i - 2) ** 2)
            + 2.0 / ((i - 1) * (i - 2)))
        v2_expected = s4 / n * (4 - 8 + 2 * (i - 3) / (i - 2)) / (i - 1) ** 2
        assert v1 == pytest.approx(v1_expected, rel=1e-12)
        assert v2 == pytest.approx(v2_expected, rel=1e-12)

    def test_bias_zero_on_flat_region(self):
        # the benchmark variance function is constant for x >= 12
        ctx = benchmark_context()
        bias, _, _ = replicate_curve_asymptotics(ctx, 13.0)
        assert bias == 0.0

    def test_bias_on_quadratic_region(self):
        ctx = benchmark_context()
        bias, _, _ = replicate_curve_asymptotics(ctx, 8.0)
        k = tricube_kernel()
        assert bias == pytest.approx(0.5 * k.c_k * 0.03, rel=1e-12)

    def test_finite_difference_curvature_fallback(self):
        ctx = benchmark_context(analytic=False)
        bias, _, _ = replicate_curve_asymptotics(ctx, 8.0)
        k = tricube_kernel()
        assert bias == pytest.approx(0.5 * k.c_k * 0.03, rel=1e-4)

    def test_first_order_variance_integral_identity(self, rng):
        # V1 equals d_k/(N h f(x)) times the mean of the synthetic-response
        # variance with X_i pinned at x and the other spots drawn from the
        # design density (Monte Carlo integration oracle)
        x0, n_draws = 8.0, 200_000
        ctx = benchmark_context()
        sigma_fn = ctx.sigma_fn
        rows = sample_intensities((n_draws, 3), rng)
        rows[:, 0] = x0
        s = sigma_fn(rows) ** 2
        i = 3
        total = s.sum(axis=1)
        total_sq = (s * s).sum(axis=1)
        omega_00 = (2.0 * s[:, 0] ** 2
                    + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * (total ** 2 - total_sq)
                    + 4.0 * (i - 3) / ((i - 1) * (i - 2) ** 2)
                    * s[:, 0] * (total - s[:, 0]))
        k = tricube_kernel()
        mc = k.d_k / (ctx.n_genes * 1.0 * intensity_density(x0)) * omega_00.mean()
        mc_se = k.d_k / (ctx.n_genes * intensity_density(x0)) \
            * omega_00.std() / np.sqrt(n_draws)
        _, v1, _ = replicate_curve_asymptotics(ctx, x0)
        assert abs(v1 - mc) < 3 * mc_se

    def test_second_order_covariance_integral_identity(self, rng):
        # N * V2 equals the mean synthetic-response covariance with X_i and
        # X_j both pinned at x and the rest drawn from the design density
        x0, n_draws = 8.0, 200_000
        ctx = benchmark_context()
        rows = sample_intensities((n_draws, 3), rng)
        rows[:, 0] = x0
        rows[:, 1] = x0
        omegas = np.empty(n_draws)
        s = ctx.sigma_fn(rows) ** 2
        i = 3
        total = s.sum(axis=1)
        total_sq = (s * s).sum(axis=1)
        rest1 = total - s[:, 0] - s[:, 1]
        rest2 = total_sq - s[:, 0] ** 2 - s[:, 1] ** 2
        omegas = (4.0 / (i - 1) ** 2 * s[:, 0] * s[:, 1]
                  + 2.0 / ((i - 1) ** 2 * (i - 2) ** 2) * (rest1 ** 2 - rest2)
                  - 4.0 / ((i - 1) ** 2 * (i - 2)) * rest1 * (s[:, 0] + s[:, 1]))
        _, _, v2 = replicate_curve_asymptotics(ctx, x0)
        mc = omegas.mean() / ctx.n_genes
        mc_se = omegas.std() / np.sqrt(n_draws) / ctx.n_genes
        assert abs(v2 - mc) < 3 * mc_se

    def test_requires_three_replicates(self):
        ctx = constant_context(0.5, n_reps=2)
        with pytest.raises(InvalidReplicateCount):
            replicate_curve_asymptotics(ctx, 10.0)


class TestCovarianceMatrices:
    def test_unit_scale_three_replicates(self):
        # constant unit scale: Omega = 2 B (diagonal 5, off-diagonal -1)
        omega = synthetic_response_cov([7.0, 9.0, 12.0], lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert np.allclose(np.diag(omega), 5.0)
        assert np.allclose(omega[~np.eye(3, dtype=bool)], -1.0)

    def test_unit_scale_residual_cov(self):
        a = residual_square_cov([7.0, 9.0, 12.0], lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert np.allclose(np.diag(a), 72.0 / 81.0)
        assert np.allclose(a[~np.eye(3, dtype=bool)], 2.0 / 9.0)

    def test_zero_scale_gives_zero_matrix(self):
        a = residual_square_cov([7.0, 9.0, 12.0], lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert np.allclose(a, 0.0)

    @pytest.mark.parametrize("i", [3, 4, 5])
    def test_transform_identity(self, i, rng):
        # B A B^T = Omega to machine precision for random scale rows
        x_row = rng.uniform(6, 16, i)
        sigma_fn = lambda x: np.sqrt(variance_function(x))
        assert cov_identity_residual(x_row, sigma_fn) < 1e-10
        b = unbiasing_matrix(i)
        a = residual_square_cov(x_row, sigma_fn)
        omega = synthetic_response_cov(x_row, sigma_fn)
        assert np.allclose(b @ a @ b.T, omega, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        x_row = rng.uniform(6, 16, 4)
        sigma_fn = lambda x: np.sqrt(variance_function(x))
        omega = synthetic_response_cov(x_row, sigma_fn)
        perm = np.array([2, 0, 3, 1])
        permuted = synthetic_response_cov(x_row[perm], sigma_fn)
        assert np.allclose(omega[np.ix_(perm, perm)], permuted, atol=1e-12)

    def test_diagonal_dominates_twice_fourth_power(self, rng):
        x_row = rng.uniform(6, 16, 5)
        sigma_fn = lambda x: np.sqrt(variance_function(x))
        omega = synthetic_response_cov(x_row, sigma_fn)
        s4 = variance_function(x_row) ** 2
        assert np.all(np.diag(omega) >= 2.0 * s4 - 1e-12)

    def test_monte_carlo_covariance(self, rng):
        # empirical covariance of Z for a fixed intensity row under
        # uncorrelated noise matches Omega entrywise
        x_row = np.array([7.5, 10.0, 13.5])
        sigma_fn = lambda x: np.sqrt(variance_function(x))
        n = 300_000
        sig = sigma_fn(x_row)
        y = sig * rng.standard_normal((n, 3))
        z = synthetic_responses(make_array(y, x=np.tile(x_row, (n, 1))))
        emp = np.cov(z.T)
        omega = synthetic_response_cov(x_row, sigma_fn)
        centered = z - z.mean(axis=0)
        for a in range(3):
            for b in range(3):
                m22 = np.mean(centered[:, a] ** 2 * centered[:, b] ** 2)
                se = np.sqrt(max(m22 - emp[a, b] ** 2, 0.0) / n)
                assert abs(emp[a, b] - omega[a, b]) < 3 * se


class TestPooledCurveAsymptotics:
    @pytest.mark.parametrize("i", [3, 4, 5, 10])
    def test_reduces_to_uncorrelated_formulas(self, i):
        ctx = benchmark_context(rho=0.0, n_reps=i)
        x0 = 9.0
        bias_r, v1, v2 = replicate_curve_asymptotics(ctx, x0)
        bias_p, v1p, v2p, vstar = pooled_curve_asymptotics(ctx, x0)
        assert v1p == pytest.approx(v1, rel=1e-12)
        assert v2p == pytest.approx(v2, rel=1e-12)
        assert bias_p == pytest.approx(bias_r, rel=1e-12)
        assert vstar == pytest.approx(v1 / i + (i - 1) / i * v2, rel=1e-12)

    def test_binomial_terms_vanish_at_three_replicates(self):
        # D4 collects C(I-2, k) factors that all vanish at I=3
        ctx = benchmark_context(rho=0.6, n_reps=3)
        from genevar.asymptotics import _d_coefficients
        d_coeffs = _d_coefficients(0.6, ctx.sigma1, ctx.sigma2, 3)
        assert d_coeffs[4] == 0.0

    def test_variances_positive(self):
        for rho in (-0.3, 0.0, 0.5):
            ctx = benchmark_context(rho=rho)
            for x0 in (7.0, 10.0, 14.0):
                _, v1p, _, vstar = pooled_curve_asymptotics(ctx, x0)
                assert v1p > 0
                assert vstar > 0

    def test_shifted_target_bias_flat_region(self):
        # on the flat region both (s^2)'' and s'' vanish
        ctx = benchmark_context(rho=0.6)
        bias, _, _, _ = pooled_curve_asymptotics(ctx, 13.5)
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

    def test_zero_discriminant_rejected(self):
        est = CorrelationEstimate(rho=0.5, sigma1=1.0, sigma2=1.1,
                                  iterations=0, converged=True, n_reps=3)
        with pytest.raises(ZeroDiscriminant):
            corrected_curve_se(1.0, 0.25 - 0.5, est)


def fitted(n_reps, unit_config):
    mset = generate_set(SimDesign(n_genes=600, n_replicates=n_reps, rho=0.3,
                                  seed=9), 0)
    fp = fixed_point_solve(mset, unit_config)
    return mset, fp, density_interpolator(mset.pooled_x(), unit_config)


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
        ctx = AsymptoticContext(
            sigma_fn=fp.curve.scale_at, sigma1=est.sigma1, sigma2=est.sigma2,
            rho=est.rho, f_x=lambda t: max(float(density(t)[0]), 1e-12),
            kernel=tricube_kernel(), n_genes=mset.n_genes, bandwidth=1.0,
            n_reps=3)
        k = 60
        eta = np.mean([c.values[k] for c in fp.uncorrected])
        vstar = pooled_curve_asymptotics(ctx, float(unit_config.grid[k]))[3]
        assert se[k] == corrected_curve_se(vstar / mset.n_arrays, float(eta), est)
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
