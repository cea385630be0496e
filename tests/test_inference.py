import numpy as np
import pytest
from scipy import stats

from genevar import inference
from genevar.inference import (
    gene_sigma,
    power_increase,
    selection_counts,
    t_pvalues,
    validation_tests,
    z_pvalues,
)

constants_for = inference.test_constants
from genevar.model import (
    FLAG_DEGENERATE,
    EstimationConfig,
    NonpositiveSigma,
    TooFewReplicates,
    VarianceCurve,
    ZeroDensityEverywhere,
)
from genevar.smoothing import density_interpolator
from conftest import make_array


class TestConstantsComputation:
    def test_lambda_closed_forms(self):
        assert constants_for(10).lambda_i == pytest.approx(np.sqrt(180.0 / np.pi))
        assert constants_for(2).lambda_i == pytest.approx(np.sqrt(4.0 / np.pi))

    def test_kappa_two_replicates_exact(self):
        # I=2: sum |e_i - ebar| = |e_1 - e_2|, a half-normal of variance 2
        assert constants_for(2).kappa_i == pytest.approx(
            np.sqrt(2.0 * (1.0 - 2.0 / np.pi)), rel=1e-15)

    @pytest.mark.parametrize("n_reps", [2, 3, 4, 10])
    def test_kappa_matches_monte_carlo(self, n_reps):
        # oracle: the sample variance of the absolute-residual sum, within
        # 4 Monte Carlo standard errors of the closed-form kappa_I^2
        rng = np.random.default_rng(20100802 + n_reps)
        e = rng.standard_normal((400_000, n_reps))
        v = np.abs(e - e.mean(axis=1, keepdims=True)).sum(axis=1)
        dev2 = (v - v.mean()) ** 2
        se = dev2.std() / np.sqrt(v.size)
        assert abs(dev2.mean() - constants_for(n_reps).kappa_i ** 2) < 4 * se

    def test_kappa_matches_absolute_residual_mean(self):
        # the Monte Carlo mean of the absolute-residual sum must sit at
        # lambda_I; check the generator through a small moment identity
        rng = np.random.default_rng(3)
        e = rng.standard_normal((200_000, 6))
        v = np.abs(e - e.mean(axis=1, keepdims=True)).sum(axis=1)
        lam = np.sqrt(2 * 6 * 5 / np.pi)
        assert v.mean() == pytest.approx(lam, abs=3 * v.std() / np.sqrt(v.size))

    def test_requires_two_replicates(self):
        with pytest.raises(TooFewReplicates):
            constants_for(1)


def null_array(rng, g=19, i=10, sigma=None):
    sigma = np.ones(g) if sigma is None else sigma
    alpha = rng.normal(0, 1, g)
    y = alpha[:, None] + sigma[:, None] * rng.standard_normal((g, i))
    return make_array(y, x=np.full((g, i), 10.0)), sigma


class TestValidationTests:
    def test_zero_residuals_maximal_pvalues(self):
        y = np.tile(np.array([[1.0], [2.0], [-1.0]]), (1, 4))
        arr = make_array(y, x=np.full((3, 4), 10.0))
        res = validation_tests(arr, np.ones(3))
        assert res.t1 == 0.0
        assert res.p1 == pytest.approx(1.0)
        assert res.t3 < 0
        assert res.p3 > 0.95
        assert res.p4 > 0.95

    def test_scale_equivariance(self, rng):
        arr, sigma = null_array(rng)
        base = validation_tests(arr, sigma)
        c = 2.7
        mean = arr.y.mean(axis=1, keepdims=True)
        scaled = make_array(mean + c * (arr.y - mean), x=arr.x)
        res = validation_tests(scaled, c * sigma)
        assert res.t1 == pytest.approx(base.t1, rel=1e-12)
        assert res.t2 == pytest.approx(base.t2, rel=1e-12)
        assert res.t3 == pytest.approx(base.t3, rel=1e-12)
        assert res.t4 == pytest.approx(base.t4, rel=1e-12)

    def test_inflated_scales_give_large_pvalues(self, rng):
        arr, sigma = null_array(rng)
        res = validation_tests(arr, 10.0 * sigma)
        assert min(res.p1, res.p2, res.p3, res.p4) > 0.99

    def test_residual_inflation_gives_small_pvalues(self, rng):
        arr, sigma = null_array(rng)
        mean = arr.y.mean(axis=1, keepdims=True)
        inflated = make_array(mean + 3.0 * (arr.y - mean), x=arr.x)
        res = validation_tests(inflated, sigma)
        assert max(res.p1, res.p2, res.p3, res.p4) < 0.01

    def test_null_calibration_smoke(self):
        rng = np.random.default_rng(11)
        p1s = []
        for _ in range(200):
            arr, sigma = null_array(rng)
            p1s.append(validation_tests(arr, sigma).p1)
        assert stats.kstest(p1s, "uniform").pvalue > 1e-3

    def test_nonpositive_sigma_rejected(self, rng):
        arr, sigma = null_array(rng)
        sigma = sigma.copy()
        sigma[0] = 0.0
        with pytest.raises(NonpositiveSigma):
            validation_tests(arr, sigma)


class TestGeneSigma:
    def test_constant_curve(self):
        curve = VarianceCurve(grid=np.linspace(6, 16, 11), values=np.full(11, 0.3))
        got = gene_sigma(curve, [7.0, 12.0, 15.0], lambda p: np.ones_like(p))
        assert got == pytest.approx(0.3)

    def test_two_point_equal_weights(self):
        curve = VarianceCurve(grid=np.array([0.0, 1.0]), values=np.array([1.0, 3.0]))
        got = gene_sigma(curve, [0.0, 1.0], lambda p: np.ones_like(p))
        assert got == pytest.approx(2.0)

    def test_matches_weighted_mean_definition(self, rng):
        grid = np.linspace(6, 16, 21)
        curve = VarianceCurve(grid=grid, values=rng.uniform(0.1, 1.0, 21))
        pts = rng.uniform(6, 16, 5)
        density = lambda p: 0.05 * np.asarray(p) + 0.1
        weights = density(pts)
        got = gene_sigma(curve, pts, density)
        vals = np.interp(pts, grid, curve.values)
        expected = float((vals * weights).sum() / weights.sum())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_density_rejected(self):
        curve = VarianceCurve(grid=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))
        with pytest.raises(ZeroDensityEverywhere):
            gene_sigma(curve, [0.5], lambda p: np.zeros_like(p))

    def test_matrix_matches_row_by_row(self, rng):
        grid = np.linspace(6, 16, 101)
        values = rng.uniform(0.1, 1.0, grid.size)
        flags = np.where(rng.random(grid.size) < 0.1, FLAG_DEGENERATE, 0)
        curve = VarianceCurve(grid=grid, values=values, flags=flags)
        x = rng.uniform(6, 16, (500, 3))
        config = EstimationConfig(bandwidth=1.0, grid=grid)
        density = density_interpolator(x, config)
        got = gene_sigma(curve, x, density)
        rows = np.array([gene_sigma(curve, x[g], density) for g in range(x.shape[0])])
        assert got.shape == (500,)
        assert np.array_equal(got, rows)
        assert isinstance(gene_sigma(curve, x[0], density), float)

    def test_matrix_rejects_a_zero_density_row(self):
        curve = VarianceCurve(grid=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))
        x = np.array([[0.6, 0.8], [0.2, 0.4], [0.9, 0.7]])
        with pytest.raises(ZeroDensityEverywhere):
            gene_sigma(curve, x, lambda p: (p > 0.5).astype(float))


class TestSelectGenes:
    def test_zero_mean_never_selected(self):
        _, p_t, _ = t_pvalues([0.0], [1.0], 5)
        _, p_z = z_pvalues([0.0], [1.0], 5)
        rows = selection_counts(p_t, p_z, np.array([1.0]), [0.0], [0.99])
        assert rows == [(0.0, 0.99, 0, 0)]

    def test_z_example_selection_boundary(self):
        # mean 1, scale 1, n = 5: z = sqrt(5), two-sided p = 2 Phi(-sqrt(5))
        p_expected = 2 * stats.norm.sf(np.sqrt(5.0))
        assert p_expected == pytest.approx(0.0253, abs=5e-4)
        _, p_z = z_pvalues([1.0], [1.0], 5)
        assert p_z[0] == pytest.approx(p_expected, abs=1e-12)
        fold = 2.0 ** np.abs(np.array([1.0]))
        assert fold[0] == pytest.approx(2.0)
        rows = selection_counts(np.ones(1), p_z, fold, [1.0], [0.05, 0.01])
        assert [z_n for _, _, _, z_n in rows] == [1, 0]

    def test_fold_change_filter(self):
        _, p_z = z_pvalues([0.4], [0.01], 5)
        fold = 2.0 ** np.abs(np.array([0.4]))
        # 2^0.4 = 1.32 < 1.5 despite a tiny p-value
        assert selection_counts(p_z, p_z, fold, [1.5], [0.05]) == [(1.5, 0.05, 0, 0)]

    def test_degenerate_sd_rule(self):
        means = np.array([1.0, 0.0])
        _, p_t, flagged = t_pvalues(means, [0.0, 0.0], 5)
        assert list(p_t) == [0.0, 1.0]
        assert flagged[0]
        rows = selection_counts(p_t, np.ones(2), 2.0 ** np.abs(means), [0.0], [0.05])
        assert rows == [(0.0, 0.05, 1, 0)]

    def test_t_and_z_statistics_tie(self, rng):
        # identical scale estimates give identical statistics; the decisions
        # coincide once the critical values are swapped
        means = rng.normal(0, 2, 50)
        sd = rng.uniform(0.5, 2.0, 50)
        n = 5
        t_stat, p_t, _ = t_pvalues(means, sd, n)
        z_stat, p_z = z_pvalues(means, sd, n)
        assert np.allclose(t_stat, z_stat, atol=1e-12)
        alpha = 0.05
        t_crit = stats.t.ppf(1 - alpha / 2, n - 1)
        z_crit = stats.norm.ppf(1 - alpha / 2)
        assert np.array_equal(p_t < alpha, np.abs(z_stat) > t_crit)
        assert np.array_equal(p_z < alpha, np.abs(t_stat) > z_crit)
        [(_, _, t_n, z_n)] = selection_counts(p_t, p_z, 2.0 ** np.abs(means),
                                              [0.0], [alpha])
        assert (t_n, z_n) == (int(np.sum(np.abs(z_stat) > t_crit)),
                              int(np.sum(np.abs(t_stat) > z_crit)))

    def test_pvalues_monotone_in_effect(self):
        means = np.linspace(0.0, 3.0, 16)
        _, p_t, _ = t_pvalues(means, np.ones(16), 5)
        _, p_z = z_pvalues(means, np.ones(16), 5)
        assert np.all(np.diff(p_t) <= 1e-15)
        assert np.all(np.diff(p_z) <= 1e-15)

    def test_counts_grid_order(self):
        p = np.array([0.001, 0.02, 0.2])
        fold = np.array([3.0, 1.8, 5.0])
        rows = selection_counts(p, p / 10, fold, [1.5, 2.0], [0.05, 0.01])
        assert rows == [(1.5, 0.05, 2, 3), (1.5, 0.01, 1, 2),
                        (2.0, 0.05, 1, 2), (2.0, 0.01, 1, 1)]


class TestPowerIncrease:
    def test_null_case_exact_zero(self):
        [(theo, emp)] = power_increase(np.zeros(10), np.ones(10), 5, [0.05])
        assert theo == 0.0

    def test_single_gene_positive_gain(self):
        [(theo, _)] = power_increase([1.0], [1.0], 5, [0.05])
        assert theo > 0.0
        # direct check of both power functions at delta = 1
        zcrit = stats.norm.ppf(0.975)
        p_z = stats.norm.cdf(-zcrit - np.sqrt(5)) + stats.norm.cdf(-zcrit + np.sqrt(5))
        assert 0 < theo < p_z

    def test_t_power_against_monte_carlo(self):
        # noncentral-t power at delta = 1, n = 5, alpha = 0.05 vs simulation
        rng = np.random.default_rng(17)
        n, delta, alpha = 5, 1.0, 0.05
        draws = rng.standard_normal((200_000, n)) + delta
        t_obs = np.sqrt(n) * draws.mean(axis=1) / draws.std(axis=1, ddof=1)
        tcrit = stats.t.ppf(1 - alpha / 2, n - 1)
        emp_power = np.mean(np.abs(t_obs) > tcrit)
        ncp = np.sqrt(n) * delta
        p_t = stats.nct.sf(tcrit, n - 1, ncp) + stats.nct.cdf(-tcrit, n - 1, ncp)
        se = np.sqrt(emp_power * (1 - emp_power) / t_obs.size)
        assert abs(emp_power - p_t) < 3 * se
        [(theo, _)] = power_increase([delta], [1.0], n, [alpha])
        zcrit = stats.norm.ppf(1 - alpha / 2)
        p_z = stats.norm.cdf(-zcrit - ncp) + stats.norm.cdf(-zcrit + ncp)
        assert theo == pytest.approx(p_z - p_t, abs=1e-12)

    def test_extreme_noncentrality_is_finite(self):
        [(theo, _)] = power_increase([20.0, -18.0], [0.4, 0.4], 5, [0.001])
        assert np.isfinite(theo)
        assert abs(theo) < 1e-6  # both tests have power ~ 1 there

    def test_empirical_counts_difference(self, rng):
        means = np.concatenate([np.zeros(500), rng.laplace(0, 1, 100)])
        sigma = np.full(600, 0.5)
        sd = sigma * np.sqrt(rng.chisquare(4, 600) / 4)
        [(theo, emp)] = power_increase(means, sigma, 5, [0.01], sample_sd=sd)
        assert theo > 0
        assert emp >= 0

    def test_levels_in_one_call_match_one_at_a_time(self, rng):
        means = np.concatenate([np.zeros(50), rng.laplace(0, 1, 50)])
        sigma = rng.uniform(0.3, 0.8, 100)
        sd = sigma * np.sqrt(rng.chisquare(4, 100) / 4)
        alphas = (0.05, 0.01, 0.005, 0.001)
        rows = power_increase(means, sigma, 5, alphas, sample_sd=sd)
        assert rows == [power_increase(means, sigma, 5, [alpha], sample_sd=sd)[0]
                        for alpha in alphas]
