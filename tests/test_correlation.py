import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from genevar import correlation, model
from genevar.correlation import (
    VarianceComponents,
    corrected_correlation,
    fixed_point_solve,
    raw_correlation,
    variance_components,
)
from genevar.model import (
    EstimationConfig,
    MultiArraySet,
    NonpositiveSigma,
    TooFewArrays,
    VarianceCurve,
    ZeroDenominator,
    default_grid,
)
from genevar.simulation import SimDesign, generate_set, intensity_density, variance_function
from genevar.smoothing import density_interpolator
from conftest import constant_sigma_set, make_array, stack_set


def two_array_set(y1, y2, x=None, rng=None):
    a = make_array(y1, x=x, rng=rng or np.random.default_rng(0))
    return stack_set([a.x, a.x], [a.y, np.asarray(y2, dtype=float)])


class TestVarianceComponents:
    def test_identical_data_gives_zero(self):
        y = np.ones((4, 3))
        vc = variance_components(two_array_set(y, y))
        assert np.allclose(vc.s_between, 0.0)
        assert np.allclose(vc.s_within, 0.0)

    def test_hand_example(self):
        # J=2, I=2; one gene with array means 0 and 2:
        # s_B = I/(J-1) * ((0-1)^2 + (2-1)^2) = 4
        vc = variance_components(two_array_set(np.array([[0.0, 0.0]]),
                                               np.array([[2.0, 2.0]])))
        assert vc.s_between[0] == pytest.approx(4.0)
        assert vc.s_within[0] == pytest.approx(0.0)

    def test_matches_brute_force(self, rng):
        j, n, i = 3, 6, 4
        ys = [rng.normal(size=(n, i)) for _ in range(j)]
        x = rng.uniform(6, 16, size=(n, i))
        ms = stack_set([x] * j, ys)
        vc = variance_components(ms)
        y = np.stack(ys)
        for g in range(n):
            array_means = [y[a, g].mean() for a in range(j)]
            grand = np.mean(array_means)
            sb = i / (j - 1) * sum((m - grand) ** 2 for m in array_means)
            sw = sum((y[a, g, r] - array_means[a]) ** 2
                     for a in range(j) for r in range(i)) / (j * (i - 1))
            assert vc.s_between[g] == pytest.approx(sb, abs=1e-12)
            assert vc.s_within[g] == pytest.approx(sw, abs=1e-12)

    def test_single_array_rejected(self, rng):
        a = make_array(rng.normal(size=(3, 3)), rng=rng)
        ms = stack_set([a.x], [a.y])
        with pytest.raises(TooFewArrays):
            variance_components(ms)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("n_arrays, n_reps", [(4, 3), (2, 2)])
    def test_chunks_leave_the_components_unchanged(self, chunk, n_arrays,
                                                   n_reps, monkeypatch):
        # 203 genes, not a multiple of the genes in a chunk
        ms = generate_set(SimDesign(n_genes=203, n_replicates=n_reps,
                                    n_arrays=n_arrays, n_active=0, rho=0.4,
                                    seed=2), 0)
        # the chunked pass first, so that no result of the default one
        # lies in the memory it gets
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        vc = variance_components(ms)
        monkeypatch.undo()
        whole = variance_components(ms)
        assert np.array_equal(vc.s_between, whole.s_between)
        assert np.array_equal(vc.s_within, whole.s_within)


class TestRawCorrelation:
    def test_balanced_components_give_zero(self):
        vc = VarianceComponents(s_between=np.array([1.0, 2.0]),
                                s_within=np.array([2.0, 1.0]))
        assert raw_correlation(vc, 3) == pytest.approx(0.0)

    def test_no_within_variance_gives_one(self):
        vc = VarianceComponents(s_between=np.array([1.0]),
                                s_within=np.array([0.0]))
        assert raw_correlation(vc, 4) == pytest.approx(1.0)

    def test_constant_data_rejected(self):
        vc = VarianceComponents(s_between=np.zeros(3), s_within=np.zeros(3))
        with pytest.raises(ZeroDenominator):
            raw_correlation(vc, 3)

    def test_estimates_attenuated_correlation(self):
        # under a varying noise scale the raw ratio estimates
        # rho * s1^2 / s2, not rho
        rho = 0.4
        d = SimDesign(rho=rho, n_genes=40000, n_arrays=2, n_active=0,
                      n_runs=1, seed=13)
        ms = generate_set(d, 0)
        got = raw_correlation(variance_components(ms), ms.n_replicates)
        f = intensity_density
        s1 = integrate.quad(lambda t: np.sqrt(variance_function(t)) * f(t), 6, 16, limit=200)[0]
        s2 = integrate.quad(lambda t: variance_function(t) * f(t), 6, 16, limit=200)[0]
        assert got == pytest.approx(rho * s1 ** 2 / s2, abs=0.01)


class TestCorrectedCorrelation:
    def test_zero_passthrough(self):
        value, clipped = corrected_correlation(0.0, 0.5, 0.3, 3)
        assert value == 0.0 and not clipped

    def test_constant_scale_factor_one(self):
        value, clipped = corrected_correlation(0.37, 0.5, 0.25, 3)
        assert value == pytest.approx(0.37) and not clipped

    def test_benchmark_factor(self):
        # correction factor s2 / s1^2 for the benchmark design, by quadrature
        f = intensity_density
        s1 = integrate.quad(lambda t: np.sqrt(variance_function(t)) * f(t), 6, 16, limit=200)[0]
        s2 = integrate.quad(lambda t: variance_function(t) * f(t), 6, 16, limit=200)[0]
        factor = s2 / s1 ** 2
        assert factor == pytest.approx(1.0442, abs=1e-3)
        value, _ = corrected_correlation(0.5, s1, s2, 3)
        assert value == pytest.approx(0.5 * factor, abs=1e-12)

    def test_clipping_flagged(self):
        value, clipped = corrected_correlation(0.99, 0.5, 0.3, 3)
        assert clipped and value < 1.0
        value, clipped = corrected_correlation(-0.9, 0.5, 0.3, 3)
        assert clipped and value > -0.5

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(NonpositiveSigma):
            corrected_correlation(0.5, 0.0, 0.3, 3)


class TestFixedPoint:
    def test_uncorrelated_data(self, unit_config):
        d = SimDesign(rho=0.0, n_runs=1, seed=23)
        fp = fixed_point_solve(generate_set(d, 0), unit_config)
        assert abs(fp.estimate.rho) < 0.02
        assert fp.estimate.converged
        # at rho ~ 0 the corrected curve stays close to the pooled curve
        eta_mean = np.mean([c.values for c in fp.uncorrected], axis=0)
        assert np.nanmax(np.abs(fp.curve.values - np.clip(eta_mean, 0, None))) < 0.02

    def test_constant_scale_moments_and_rho(self, unit_config):
        ms = constant_sigma_set(sigma0=0.6, rho=0.5, n_genes=3000, seed=3)
        fp = fixed_point_solve(ms, unit_config)
        est = fp.estimate
        assert est.sigma2 == pytest.approx(est.sigma1 ** 2, rel=0.02)
        assert est.rho == pytest.approx(fp.rho_raw, abs=0.02)
        assert est.rho == pytest.approx(0.5, abs=0.05)

    def test_moment_inequality(self, unit_config):
        d = SimDesign(rho=0.6, n_runs=1, seed=29)
        fp = fixed_point_solve(generate_set(d, 0), unit_config)
        assert fp.estimate.sigma2 >= fp.estimate.sigma1 ** 2 - 1e-10

    def test_nonconvergence_flag_not_exception(self, unit_config,
                                               monkeypatch):
        monkeypatch.setattr(correlation, "MAX_ITERATIONS", 1)
        d = SimDesign(rho=0.6, n_runs=1, seed=47)
        fp = fixed_point_solve(generate_set(d, 0), unit_config)
        assert not fp.estimate.converged
        assert fp.estimate.iterations == 1

    def test_clipped_is_the_last_iterates_flag(self, unit_config,
                                               monkeypatch):
        # at rho = 0.9 the first proposals, off the uncorrected curve, are
        # clipped at the bound; the fixed point settles at rho ~ 0.901,
        # inside the range
        ms = generate_set(SimDesign(n_genes=2000, n_replicates=3, rho=0.9,
                                    seed=0), 0)
        fp = fixed_point_solve(ms, unit_config)
        assert fp.estimate.converged
        assert 0.9 < fp.estimate.rho < 1.0 - 2 * correlation.CONVERGENCE_TOL
        assert not fp.estimate.clipped
        monkeypatch.setattr(correlation, "MAX_ITERATIONS", 1)
        first = fixed_point_solve(ms, unit_config).estimate
        assert first.clipped and first.rho == 1.0 - correlation.RHO_MARGIN

    def test_fixed_rho_is_never_clipped(self, unit_config):
        ms = generate_set(SimDesign(n_genes=2000, n_replicates=3, rho=0.9,
                                    seed=0), 0)
        assert not fixed_point_solve(ms, unit_config,
                                     fixed_rho=0.3).estimate.clipped

    def test_paired_route_recovers_constant_scale(self, unit_config):
        ms = constant_sigma_set(sigma0=0.6, rho=0.4, n_genes=6000,
                                n_reps=2, n_arrays=4, seed=11)
        fp = fixed_point_solve(ms, unit_config)
        assert fp.estimate.rho == pytest.approx(0.4, abs=0.06)
        interior = (unit_config.grid > 8) & (unit_config.grid < 15)
        assert np.nanmax(np.abs(fp.curve.values[interior] - 0.36)) < 0.08

    def test_fixed_rho_single_array(self, unit_config):
        d = SimDesign(rho=0.0, n_runs=1, seed=53, n_arrays=1)
        fp = fixed_point_solve(generate_set(d, 0), unit_config, fixed_rho=0.0)
        assert fp.estimate.rho == 0.0
        assert fp.estimate.converged
        assert fp.rho_raw is None

    def test_missing_arrays_rejected(self, unit_config):
        d = SimDesign(rho=0.0, n_runs=1, seed=59, n_arrays=1)
        with pytest.raises(TooFewArrays):
            fixed_point_solve(generate_set(d, 0), unit_config)

    def test_curve_change_diagnostic_small_at_convergence(self, unit_config):
        d = SimDesign(rho=0.4, n_runs=1, seed=61)
        fp = fixed_point_solve(generate_set(d, 0), unit_config)
        assert fp.estimate.converged
        assert fp.curve_change < 0.05


def transformed(mset, xy_map):
    """mset with each array's (x, y) replaced by xy_map(x, y)."""
    x, y = zip(*(xy_map(a.x, a.y) for a in mset.arrays))
    return MultiArraySet(x=np.stack(x), y=np.stack(y), gene_ids=mset.gene_ids)


# the unit_config fixture's settings; class-scoped fixtures and hypothesis
# tests cannot take the function-scoped fixture
CONFIG = EstimationConfig(bandwidth=1.0, grid=np.linspace(6.0, 16.0, 101))


class TestScaleEquivariance:
    """Scaling y by c scales the curve by c^2 and leaves rho and the
    iteration count unchanged, on the I >= 3 route and the fixed-rho one."""

    @pytest.fixture(scope="class")
    def base_set(self):
        return generate_set(SimDesign(n_genes=2000, rho=0.4, seed=7), 0)

    @pytest.mark.parametrize("fixed_rho", [None, 0.4])
    @pytest.mark.parametrize("k", [-10, 3, 7])
    def test_power_of_two_scaling_is_exact(self, base_set, k, fixed_rho):
        # multiplying by 2^k is exact in binary floating point, so every
        # intermediate scales exactly and the outputs must match bit for bit
        c = 2.0 ** k
        base = fixed_point_solve(base_set, CONFIG, fixed_rho=fixed_rho)
        got = fixed_point_solve(transformed(base_set, lambda x, y: (x, c * y)),
                                CONFIG, fixed_rho=fixed_rho)
        assert got.estimate.rho == base.estimate.rho
        assert got.estimate.iterations == base.estimate.iterations
        assert got.estimate.sigma1 / c == base.estimate.sigma1
        assert np.array_equal(got.curve.values / c ** 2, base.curve.values,
                              equal_nan=True)

    @pytest.mark.parametrize("c", [1e-3, 3.0, 100.0])
    def test_general_scaling(self, base_set, c):
        base = fixed_point_solve(base_set, CONFIG)
        got = fixed_point_solve(transformed(base_set, lambda x, y: (x, c * y)),
                                CONFIG)
        assert got.estimate.iterations == base.estimate.iterations
        assert got.estimate.rho == pytest.approx(base.estimate.rho, rel=1e-9)
        assert got.estimate.sigma1 / c == pytest.approx(base.estimate.sigma1,
                                                        rel=1e-9)
        np.testing.assert_allclose(got.curve.values / c ** 2, base.curve.values,
                                   rtol=1e-9, atol=0)


class TestShiftEquivariance:
    """Shifting every intensity and the grid by the same c moves the fit
    along with them: equal iterations, and rho, sigma1 and the curve equal
    up to rounding, on the paired route and the I >= 3 one."""

    @pytest.mark.parametrize("n_reps", [2, 3])
    @pytest.mark.parametrize("c", [-5.0, 0.37, 40.0])
    def test_shift_with_grid(self, n_reps, c):
        ms = generate_set(SimDesign(n_genes=2000, n_replicates=n_reps,
                                    rho=0.4, seed=7), 0)
        base = fixed_point_solve(ms, CONFIG)
        shifted = EstimationConfig(bandwidth=CONFIG.bandwidth,
                                   grid=CONFIG.grid + c)
        got = fixed_point_solve(transformed(ms, lambda x, y: (x + c, y)),
                                shifted)
        assert got.estimate.iterations == base.estimate.iterations
        assert got.estimate.rho == pytest.approx(base.estimate.rho, rel=1e-9)
        assert got.estimate.sigma1 == pytest.approx(base.estimate.sigma1,
                                                    rel=1e-9)
        np.testing.assert_allclose(got.curve.values, base.curve.values,
                                   rtol=1e-9, atol=0)
        # the binned density moves with x too
        np.testing.assert_allclose(
            density_interpolator(ms.x.ravel() + c, shifted)(shifted.grid),
            density_interpolator(ms.x.ravel(), CONFIG)(CONFIG.grid),
            rtol=1e-9, atol=0)


def two_cluster_set(n_reps, n_genes=1000, seed=3):
    """Two arrays whose intensities lie in [6, 9] and [12, 15] only, with
    noise scale sqrt(0.2 + 0.02 x)."""
    rng = np.random.default_rng(seed)
    shape = (2, n_genes, n_reps)
    x = np.where(rng.random(shape) < 0.5, 6.0, 12.0) + 3.0 * rng.random(shape)
    y = rng.normal(size=shape) * np.sqrt(0.2 + 0.02 * x)
    return MultiArraySet(x=x, y=y,
                         gene_ids=tuple(f"g{k + 1}" for k in range(n_genes)))


def on_and_beside_nodes(mset, grid):
    """mset with its first intensities moved onto the grid's nodes and to
    the floats just below and above each, where the interval a point
    falls in changes."""
    x = np.array(mset.x)
    flat = x.reshape(-1)
    below, above = np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)
    moved = np.concatenate([grid, below, above])
    flat[:moved.size] = moved
    return MultiArraySet(x=x, y=mset.y, gene_ids=mset.gene_ids)


class TestMomentLookup:
    """The fixed point reads sigma1 and sigma2 off the curve at the pooled
    intensities through per-interval node weights; that changes only the
    rounding of the means of VarianceCurve.scale_at."""

    @staticmethod
    def first_iteration(mset, cfg, monkeypatch):
        monkeypatch.setattr(correlation, "MAX_ITERATIONS", 1)
        fp = fixed_point_solve(mset, cfg)
        start = np.clip(np.mean([c.values for c in fp.uncorrected], axis=0),
                        0.0, None) * (2.0 if mset.n_replicates == 2 else 1.0)
        return fp.estimate, start

    @staticmethod
    def assert_scale_means(est, mset, cfg, start):
        scale = VarianceCurve(grid=cfg.grid, values=start).scale_at(
            mset.x.ravel())
        assert est.iterations == 1
        assert est.sigma1 == pytest.approx(scale.mean(), rel=1e-14)
        assert est.sigma2 == pytest.approx((scale * scale).mean(), rel=1e-14)

    @pytest.mark.parametrize("n_reps", [2, 3])
    def test_first_iteration_moments(self, n_reps, monkeypatch):
        ms = generate_set(SimDesign(n_genes=1000, n_replicates=n_reps,
                                    rho=0.4, seed=13), 0)
        # undefined points at both ends, which the lookup must skip
        cfg = EstimationConfig(bandwidth=0.5, grid=np.linspace(4.0, 18.0, 141))
        est, start = self.first_iteration(ms, cfg, monkeypatch)
        assert np.isnan(start[[0, -1]]).all()
        self.assert_scale_means(est, ms, cfg, start)

    @pytest.mark.parametrize("n_reps", [2, 3])
    def test_intensities_beyond_both_ends_and_on_the_nodes(self, n_reps,
                                                          monkeypatch):
        cfg = EstimationConfig(bandwidth=1.0, grid=np.linspace(7.3, 14.9, 77))
        ms = on_and_beside_nodes(
            generate_set(SimDesign(n_genes=1000, n_replicates=n_reps,
                                   rho=0.4, seed=13), 0), cfg.grid)
        est, start = self.first_iteration(ms, cfg, monkeypatch)
        assert np.isfinite(start).all()
        x = ms.x.ravel()
        assert (x < cfg.grid[0]).any() and (x > cfg.grid[-1]).any()
        assert np.isin(cfg.grid, x).all()
        self.assert_scale_means(est, ms, cfg, start)

    @pytest.mark.parametrize("n_reps", [2, 3])
    def test_nodes_with_an_interior_gap(self, n_reps, monkeypatch):
        ms = two_cluster_set(n_reps)
        cfg = EstimationConfig(bandwidth=0.5, grid=np.linspace(6.0, 15.0, 91))
        est, start = self.first_iteration(ms, cfg, monkeypatch)
        # the evaluable nodes are not one run of the grid
        run = np.flatnonzero(np.isfinite(start))
        assert run[-1] - run[0] + 1 > run.size
        assert np.isfinite(start[[0, -1]]).all()
        self.assert_scale_means(est, ms, cfg, start)

    @pytest.mark.parametrize("n_reps", [2, 3])
    def test_one_point_grid(self, n_reps):
        # one node: the scale is flat, so sigma2 is sigma1 squared and the
        # correction leaves rho_raw as it is
        ms = generate_set(SimDesign(n_genes=1000, n_replicates=n_reps,
                                    rho=0.4, seed=13), 0)
        cfg = EstimationConfig(bandwidth=1.0,
                               grid=default_grid(ms.x, n_points=1))
        fp = fixed_point_solve(ms, cfg)
        assert fp.estimate.sigma2 == fp.estimate.sigma1 ** 2
        assert fp.estimate.rho == fp.rho_raw
        assert not fp.estimate.clipped

    @pytest.mark.parametrize("n_reps", [2, 3])
    @pytest.mark.parametrize("design", ["both_ends", "interior_gap"])
    def test_weights_built_once_over_the_finite_nodes(self, n_reps, design,
                                                      monkeypatch):
        if design == "both_ends":
            ms = generate_set(SimDesign(n_genes=1000, n_replicates=n_reps,
                                        rho=0.4, seed=13), 0)
            grid = np.linspace(4.0, 18.0, 141)
        else:
            ms = two_cluster_set(n_reps)
            grid = np.linspace(6.0, 15.0, 91)
        built = []

        class Counted(correlation._NodeWeights):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(correlation, "_NodeWeights", Counted)
        fp = fixed_point_solve(ms, EstimationConfig(bandwidth=0.5, grid=grid))
        assert fp.estimate.iterations > 1
        assert len(built) == 1
        finite = np.isfinite(
            np.mean([c.values for c in fp.uncorrected], axis=0))
        assert not finite.all()
        np.testing.assert_array_equal(built[0].evaluable, finite)


class TestExactInvariances:
    """Relabelling genes, replicates or arrays, and adding a per-gene
    constant a_g to y, leave the fixed point unchanged up to rounding."""

    @pytest.fixture(scope="class", params=[2, 3])
    def case(self, request):
        ms = generate_set(SimDesign(n_genes=400, n_replicates=request.param,
                                    n_arrays=3, rho=0.4, seed=17), 0)
        return ms, fixed_point_solve(ms, CONFIG)

    @staticmethod
    def assert_same_fit(got, base):
        assert got.estimate.iterations == base.estimate.iterations
        assert abs(got.estimate.rho - base.estimate.rho) < 1e-12
        np.testing.assert_allclose(got.curve.values, base.curve.values,
                                   rtol=1e-12, atol=0)

    @staticmethod
    def assert_same_density(got, base):
        # binning sums the intensities in input order, unlike a sorted pass
        np.testing.assert_allclose(
            density_interpolator(got.x.ravel(), CONFIG)(CONFIG.grid),
            density_interpolator(base.x.ravel(), CONFIG)(CONFIG.grid),
            rtol=1e-12, atol=0)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_gene_permutation(self, case, seed):
        ms, base = case
        perm = np.random.default_rng(seed).permutation(ms.n_genes)
        ids = tuple(ms.gene_ids[g] for g in perm)
        got = MultiArraySet(x=ms.x[:, perm], y=ms.y[:, perm], gene_ids=ids)
        self.assert_same_fit(fixed_point_solve(got, CONFIG), base)
        self.assert_same_density(got, ms)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_replicate_permutation(self, case, seed):
        ms, base = case
        perm = np.random.default_rng(seed).permutation(ms.n_replicates)
        got = transformed(ms, lambda x, y: (x[:, perm], y[:, perm]))
        self.assert_same_fit(fixed_point_solve(got, CONFIG), base)
        self.assert_same_density(got, ms)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_array_permutation(self, case, seed):
        ms, base = case
        perm = np.random.default_rng(seed).permutation(ms.n_arrays)
        got = MultiArraySet(x=ms.x[perm], y=ms.y[perm], gene_ids=ms.gene_ids)
        self.assert_same_fit(fixed_point_solve(got, CONFIG), base)
        self.assert_same_density(got, ms)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 10.0))
    def test_per_gene_shift(self, case, seed, spread):
        ms, base = case
        a_g = spread * np.random.default_rng(seed).standard_normal(ms.n_genes)
        got = transformed(ms, lambda x, y: (x, y + a_g[:, None]))
        self.assert_same_fit(fixed_point_solve(got, CONFIG), base)
