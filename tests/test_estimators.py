import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genevar.estimators import (
    average_curves,
    correct,
    paired_difference_curve,
    pooled_curve,
    replicate_curves,
    two_stage_curve,
    uncorrected_curve,
)
from genevar.model import (
    FLAG_DEGENERATE,
    FLAG_NEGATIVE_DISCRIMINANT,
    CorrelationEstimate,
    DegenerateWindow,
    GenevarError,
    InvalidReplicateCount,
    VarianceCurve,
)
from genevar.smoothing import ScatterData, fit_curve, local_linear_at
from conftest import constant_sigma_set, make_array


def estimate(rho, sigma1, sigma2, n_reps=3):
    return CorrelationEstimate(rho=rho, sigma1=sigma1, sigma2=sigma2,
                               iterations=0, converged=True, n_reps=n_reps)


@pytest.fixture(scope="module")
def const_set():
    return constant_sigma_set(sigma0=0.7, rho=0.0, n_genes=8000, n_arrays=1, seed=5)


class TestReplicateCurves:
    def test_constant_scale_recovery(self, const_set, unit_config):
        curves = replicate_curves(const_set.arrays[0], unit_config)
        assert len(curves) == 3
        interior = (unit_config.grid > 8) & (unit_config.grid < 15)
        for c in curves:
            assert np.nanmax(np.abs(c.values[interior] - 0.49)) < 0.2

    def test_single_gene_degenerate_everywhere(self, unit_config):
        arr = make_array(np.array([[0.1, -0.2, 0.4]]))
        for c in replicate_curves(arr, unit_config):
            assert np.all(c.flags & FLAG_DEGENERATE)
            assert np.all(np.isnan(c.values))

    def test_bundle_consistency(self, const_set, unit_config):
        per_replicate = replicate_curves(const_set.arrays[0], unit_config)
        stacked = np.array([c.values for c in per_replicate])
        assert np.allclose(average_curves(per_replicate).values,
                           stacked.mean(axis=0), equal_nan=True)


class TestAverageCurves:
    def test_identical_curves(self):
        grid = np.linspace(0, 1, 5)
        c = VarianceCurve(grid=grid, values=np.arange(5.0))
        avg = average_curves([c, c, c])
        assert np.array_equal(avg.values, c.values)

    def test_two_constant_curves(self):
        grid = np.linspace(0, 1, 4)
        a = VarianceCurve(grid=grid, values=np.zeros(4))
        b = VarianceCurve(grid=grid, values=np.full(4, 2.0))
        assert np.array_equal(average_curves([a, b]).values, np.ones(4))

    def test_matches_direct_mean(self, rng):
        grid = np.linspace(0, 1, 7)
        curves = [VarianceCurve(grid=grid, values=rng.normal(size=7))
                  for _ in range(5)]
        avg = average_curves(curves)
        direct = np.mean([c.values for c in curves], axis=0)
        assert np.allclose(avg.values, direct, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        a = VarianceCurve(grid=np.array([0.0, 1.0]), values=np.zeros(2))
        b = VarianceCurve(grid=np.array([0.0, 2.0]), values=np.zeros(2))
        with pytest.raises(GenevarError):
            average_curves([a, b])

    def test_degenerate_point_poisons_average(self):
        grid = np.array([0.0, 1.0])
        a = VarianceCurve(grid=grid, values=np.array([1.0, np.nan]),
                          flags=np.array([0, FLAG_DEGENERATE], dtype=np.uint8))
        b = VarianceCurve(grid=grid, values=np.array([3.0, 5.0]))
        avg = average_curves([a, b])
        assert avg.values[0] == 2.0
        assert np.isnan(avg.values[1])
        assert avg.flags[1] & FLAG_DEGENERATE


class TestPooledCurve:
    def test_uncorrelated_constant_scale(self, const_set, unit_config):
        curve = pooled_curve(const_set.arrays[0], unit_config)
        interior = (unit_config.grid > 8) & (unit_config.grid < 15)
        assert np.nanmax(np.abs(curve.values[interior] - 0.49)) < 0.1

    def test_correlated_constant_scale_shifted_target(self, unit_config):
        # with constant scale s0 the pooled curve estimates (1 - rho) s0^2
        ms = constant_sigma_set(sigma0=0.7, rho=0.6, n_genes=4000,
                                n_arrays=1, seed=6)
        curve = pooled_curve(ms.arrays[0], unit_config)
        interior = (unit_config.grid > 7) & (unit_config.grid < 15)
        assert np.nanmax(np.abs(curve.values[interior] - 0.4 * 0.49)) < 0.08


class TestCorrectCurve:
    def test_zero_correlation_is_identity(self, rng):
        grid = np.linspace(0, 1, 9)
        eta = VarianceCurve(grid=grid, values=rng.uniform(0.1, 1.0, 9))
        got = correct(eta, estimate(0.0, 0.5, 0.3))
        assert np.allclose(got.values, eta.values, atol=1e-15)

    @pytest.mark.parametrize("sigma0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("rho", [-0.4, 0.0, 0.6])
    def test_constant_scale_closed_root(self, sigma0, rho):
        # eta^2 = (1 - rho) s0^2 and sigma1 = s0 solve back to exactly s0^2
        grid = np.linspace(0, 1, 5)
        eta = VarianceCurve(grid=grid, values=np.full(5, (1 - rho) * sigma0 ** 2))
        got = correct(eta, estimate(rho, sigma0, sigma0 ** 2))
        assert np.allclose(got.values, sigma0 ** 2, atol=1e-12)

    def test_negative_discriminant_clamped_and_flagged(self):
        grid = np.array([0.0, 1.0])
        eta = VarianceCurve(grid=grid, values=np.array([-0.5, 0.4]))
        got = correct(eta, estimate(0.5, 0.6, 0.4))
        # disc = 0.25*0.36 - 0.5*0.36 + eta = -0.09 + eta
        assert got.flags[0] & FLAG_NEGATIVE_DISCRIMINANT
        assert got.values[0] == pytest.approx((0.5 * 0.6) ** 2)
        assert not (got.flags[1] & FLAG_NEGATIVE_DISCRIMINANT)

    def test_monotone_in_rho_when_curve_dominates(self):
        # increasing in rho wherever eta > sigma1 / 2, which holds on the
        # benchmark-scale curves tested here
        grid = np.linspace(0, 1, 6)
        eta_vals = np.linspace(0.15, 0.69, 6)
        sigma1 = 0.42
        prev = None
        for rho in np.linspace(-0.4, 0.8, 25):
            got = correct(VarianceCurve(grid=grid, values=eta_vals),
                          estimate(rho, sigma1, sigma1 ** 2 + 0.01))
            if prev is not None:
                assert np.all(got.values >= prev - 1e-12)
            prev = got.values


class TestPairedEstimator:
    def test_equal_replicates_zero_curve(self, unit_config, rng):
        x = rng.uniform(6, 16, size=(500, 2))
        y1 = rng.normal(size=500)
        arr = make_array(np.column_stack([y1, y1]), x=x)
        curve = paired_difference_curve(arr, unit_config)
        assert np.nanmax(np.abs(curve.values)) < 1e-12

    def test_uncorrelated_constant_scale_half_target(self, unit_config):
        # constant s0, rho = 0: the paired curve estimates s0^2 / 2
        ms = constant_sigma_set(sigma0=0.7, rho=0.0, n_genes=6000,
                                n_reps=2, n_arrays=1, seed=8)
        curve = paired_difference_curve(ms.arrays[0], unit_config)
        interior = (unit_config.grid > 7) & (unit_config.grid < 15)
        assert np.nanmax(np.abs(curve.values[interior] - 0.245)) < 0.06

    def test_conditional_variance_relation(self, unit_config):
        # benchmark design with I=2: the curve at interior points estimates
        # s^2(x)/4 + s2/4 - rho s1 s(x) / 2 (moments by quadrature)
        from genevar.simulation import SimDesign, generate_set, scale_moments, variance_function

        rho = 0.5
        d = SimDesign(n_genes=20000, n_replicates=2, n_arrays=1, rho=rho,
                      n_runs=1, seed=77)
        ms = generate_set(d, 0)
        curve = paired_difference_curve(ms.arrays[0], unit_config)
        s1, s2 = scale_moments()
        for x0 in (8.0, 11.0, 14.0):
            k = int(np.argmin(np.abs(unit_config.grid - x0)))
            sx = np.sqrt(variance_function(x0))
            expected = 0.25 * sx ** 2 + 0.25 * s2 - 0.5 * rho * s1 * sx
            assert curve.values[k] == pytest.approx(expected, abs=0.02)

    def test_requires_two_replicates(self, unit_config, rng):
        with pytest.raises(InvalidReplicateCount):
            paired_difference_curve(make_array(rng.normal(size=(10, 3))), unit_config)

    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5])
    def test_paired_root_constant_scale(self, rho):
        # eta^2 = s0^2 (2 - 2 rho) / 4; discriminant (1 - rho)^2 s0^2
        sigma0 = 0.8
        grid = np.linspace(0, 1, 4)
        eta = VarianceCurve(grid=grid,
                            values=np.full(4, 0.25 * (2 - 2 * rho) * sigma0 ** 2))
        got = correct(eta, estimate(rho, sigma0, sigma0 ** 2, n_reps=2))
        assert np.allclose(got.values, sigma0 ** 2, atol=1e-12)

    def test_paired_root_zero_rho_substitution(self):
        # rho = 0: variance = 4 eta^2 - sigma2, clamped at zero
        grid = np.linspace(0, 1, 3)
        eta = VarianceCurve(grid=grid, values=np.array([0.2, 0.05, 0.01]))
        got = correct(eta, estimate(0.0, 0.5, 0.3, n_reps=2))
        expected = np.clip(4 * eta.values - 0.3, 0.0, None)
        assert np.allclose(got.values, expected, atol=1e-12)
        assert got.flags[2] & FLAG_NEGATIVE_DISCRIMINANT


class TestTwoStage:
    def test_zero_response_zero_curve(self, unit_config, rng):
        x = rng.uniform(6, 16, size=(400, 3))
        curve = two_stage_curve(make_array(np.zeros((400, 3)), x=x), unit_config)
        assert np.nanmax(np.abs(curve.values)) < 1e-18

    def test_dense_grid_matches_exact_stage1(self, unit_config):
        from genevar.simulation import SimDesign, generate_set

        ms = generate_set(SimDesign(n_genes=800, n_runs=1, seed=4), 0)
        array = ms.arrays[0]
        fast = two_stage_curve(array, unit_config)
        # reference: the stage-1 mean fit evaluated exactly at every data point
        xs, ys = array.x.ravel(), array.y.ravel()
        mean_hat, degenerate = local_linear_at(ScatterData(xs, ys), unit_config, xs)
        assert not degenerate.any()
        exact = fit_curve(ScatterData(xs, (ys - mean_hat) ** 2), unit_config)
        rel = np.nanmax(np.abs(fast.values - exact.values)) / np.nanmean(exact.values)
        assert rel < 1e-3

    def test_sorted_stage1_lookup_matches_unsorted(self, unit_config):
        # reference: stage 1 interpolated at the intensities in data order
        from genevar.estimators import _STAGE1_NODES
        from genevar.model import EstimationConfig
        from genevar.simulation import SimDesign, generate_set

        array = generate_set(SimDesign(n_genes=800, n_runs=1, seed=4), 0).arrays[1]
        x, y = array.x.ravel(), array.y.ravel()
        nodes = np.linspace(x.min(), x.max(), _STAGE1_NODES)
        stage1 = fit_curve(ScatterData(x, y), EstimationConfig(
            bandwidth=unit_config.bandwidth, grid=nodes))
        resid2 = (y - np.interp(x, stage1.grid, stage1.values)) ** 2
        reference = fit_curve(ScatterData(x, resid2), unit_config)
        got = two_stage_curve(array, unit_config)
        assert np.array_equal(got.values, reference.values, equal_nan=True)
        assert np.array_equal(got.flags, reference.flags)

    def test_constant_scale_no_effects(self, unit_config):
        ms = constant_sigma_set(sigma0=0.6, rho=0.0, n_genes=4000,
                                n_arrays=1, seed=9)
        curve = two_stage_curve(ms.arrays[0], unit_config)
        interior = (unit_config.grid > 7) & (unit_config.grid < 15)
        assert np.nanmax(np.abs(curve.values[interior] - 0.36)) < 0.06

    def test_stage1_gap_wider_than_window_raises(self, unit_config, rng):
        # clusters on [6, 7] and [10, 11]: stage-1 nodes in the gap have an
        # empty window at h = 1
        x = np.where(rng.random((300, 3)) < 0.5, 6.0, 10.0) + rng.random((300, 3))
        with pytest.raises(DegenerateWindow, match="stage-1 mean fit undefined"):
            two_stage_curve(make_array(rng.normal(size=(300, 3)), x=x), unit_config)

    def test_stage1_single_intensity_raises(self, unit_config, rng):
        x = np.full((300, 3), 9.0)
        with pytest.raises(DegenerateWindow, match="at 512 grid points"):
            two_stage_curve(make_array(rng.normal(size=(300, 3)), x=x), unit_config)

    def test_stage1_spread_within_rounding_raises(self, unit_config, rng):
        # two intensities 1e-13 apart: the 512 nodes cannot increase
        x = 9.0 + 1e-13 * (rng.random((300, 3)) < 0.5)
        with pytest.raises(DegenerateWindow, match="at 512 grid points"):
            two_stage_curve(make_array(rng.normal(size=(300, 3)), x=x), unit_config)


class TestCorrectIsNonnegative:
    """Both roots return sigma^2 with sigma clipped at zero, so every finite
    corrected value is >= 0 whatever eta and rho; the fixed point's average
    of such curves needs no final clamp."""

    route = st.sampled_from([2, 3]).flatmap(lambda i: st.tuples(
        st.just(i), st.floats(-1.0 / (i - 1), 1.0,
                              exclude_min=True, exclude_max=True)))

    @settings(max_examples=200, deadline=None)
    @given(route=route,
           sigma1=st.floats(1e-3, 1e3),
           spread=st.floats(1.0, 10.0),
           eta=st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(np.nan)),
                        min_size=1, max_size=20))
    def test_finite_values_nonnegative(self, route, sigma1, spread, eta):
        n_reps, rho = route
        corr = CorrelationEstimate(rho=rho, sigma1=sigma1,
                                   sigma2=spread * sigma1 ** 2, iterations=0,
                                   converged=True, n_reps=n_reps)
        got = correct(VarianceCurve(grid=np.arange(len(eta), dtype=float),
                                    values=eta), corr)
        finite = np.isfinite(got.values)
        assert np.all(got.values[finite] >= 0)
        assert np.array_equal(finite, np.isfinite(eta))


class TestRoute:
    """uncorrected_curve picks the estimator of the replicate count; it must
    be exactly the function it stands for."""

    @pytest.fixture(params=[2, 3])
    def array(self, request):
        from genevar.simulation import SimDesign, generate_set

        d = SimDesign(n_genes=500, n_replicates=request.param, n_arrays=1,
                      rho=0.3, seed=5)
        return generate_set(d, 0).arrays[0]

    def test_uncorrected_curve(self, array, unit_config):
        got = uncorrected_curve(array, unit_config)
        if array.n_replicates == 2:
            want = paired_difference_curve(array, unit_config)
        else:
            want = pooled_curve(array, unit_config)
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert np.array_equal(got.flags, want.flags)
