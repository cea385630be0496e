import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genevar import model, smoothing
from genevar.estimators import two_stage_curve
from genevar.model import (
    C_K,
    FLAG_DEGENERATE,
    DegenerateWindow,
    EstimationConfig,
    GenevarError,
    NonFinite,
    tricube,
)
from genevar.smoothing import (
    ScatterData,
    density_interpolator,
    fit_curve,
    kde_values,
    local_linear_at,
)
from conftest import make_array


def config_for(grid, h=1.0):
    return EstimationConfig(bandwidth=h, grid=np.asarray(grid, dtype=float))


def fit_at(data, config, x0):
    """Local linear value and degenerate flag at the single point x0."""
    values, degenerate = local_linear_at(data, config, [x0])
    return values[0], degenerate[0]


def fit_value(data, config, x0):
    value, degenerate = fit_at(data, config, x0)
    assert not degenerate
    return float(value)


def assert_degenerate(data, config, x0):
    value, degenerate = fit_at(data, config, x0)
    assert degenerate
    assert np.isnan(value)


def kde_at(x, config, x0):
    return float(kde_values(x, config, [x0])[0])


def direct_weighted_fit(x, z, h, x0):
    """Independent oracle: explicit weighted least squares of degree 1."""
    w = np.asarray(tricube((x - x0) / h)) / h
    design = np.column_stack([np.ones_like(x), x - x0])
    wd = design * w[:, None]
    beta, *_ = np.linalg.lstsq(wd.T @ design, wd.T @ z, rcond=None)
    return beta[0]


class TestLocalLinear:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.integers(0, 1000))
    def test_reproduces_constants(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 4, 40)
        data = ScatterData(x, np.full(40, c))
        x0 = float(rng.uniform(0.5, 3.5))
        assert fit_value(data, config_for([x0]), x0) == pytest.approx(c, abs=1e-9 + 1e-9 * abs(c))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 1000))
    def test_reproduces_linear_functions(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 4, 60)
        data = ScatterData(x, a + b * x)
        x0 = float(rng.uniform(0.5, 3.5))
        expected = a + b * x0
        got = fit_value(data, config_for([x0]), x0)
        assert got == pytest.approx(expected, abs=1e-8 * (1 + abs(expected)))

    def test_quadratic_bias_and_oracle(self):
        # z = x^2 on a uniform design: the fit at 0.5 carries the
        # second-derivative smoothing bias ~ c_K h^2 and must agree with a
        # direct normal-equation solve exactly.
        x = np.linspace(0.0, 1.0, 201)
        z = x ** 2
        h, x0 = 0.2, 0.5
        got = fit_value(ScatterData(x, z), config_for([x0], h=h), x0)
        oracle = direct_weighted_fit(x, z, h, x0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert abs(got - 0.25) < C_K * h ** 2 * 1.5

    def test_matches_explicit_weight_formula(self, rng):
        # weights h^-1 K(u) (S2 - u S1) / (S2 S0 - S1^2), S_l = sum K_h u^l
        x = rng.uniform(0, 2, 25)
        z = rng.normal(size=25)
        h, x0 = 0.7, 1.1
        u = (x - x0) / h
        kh = np.asarray(tricube(u)) / h
        s = [np.sum(kh * u ** l) for l in range(3)]
        weights = kh * (s[2] - u * s[1]) / (s[2] * s[0] - s[1] ** 2)
        assert abs(weights.sum() - 1.0) < 1e-10
        assert abs(np.sum(weights * (x - x0))) < 1e-10
        expected = float(np.sum(weights * z))
        got = fit_value(ScatterData(x, z), config_for([x0], h=h), x0)
        assert got == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 3, 30)
        z = rng.normal(size=30)
        perm = rng.permutation(30)
        x0 = 1.5
        cfg = config_for([x0])
        a = fit_value(ScatterData(x, z), cfg, x0)
        b = fit_value(ScatterData(x[perm], z[perm]), cfg, x0)
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_duplication_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 3, 20)
        z = rng.normal(size=20)
        x0 = 1.5
        cfg = config_for([x0])
        a = fit_value(ScatterData(x, z), cfg, x0)
        b = fit_value(ScatterData(np.tile(x, 2), np.tile(z, 2)), cfg, x0)
        assert a == pytest.approx(b, abs=1e-10)

    def test_empty_window_raises(self):
        data = ScatterData(np.array([0.0, 0.1, 0.2]), np.array([1.0, 2.0, 3.0]))
        assert_degenerate(data, config_for([5.0]), 5.0)

    def test_single_point_window_raises(self):
        data = ScatterData(np.array([0.0, 10.0]), np.array([1.0, 2.0]))
        assert_degenerate(data, config_for([0.1]), 0.1)

    def test_tied_x_only_window_raises(self):
        data = ScatterData(np.full(5, 2.0), np.arange(5.0))
        assert_degenerate(data, config_for([2.0]), 2.0)

    def test_ties_with_spread_are_fine(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        z = np.array([1.0, 1.0, 1.0, 3.0, 3.0])
        got = fit_value(ScatterData(x, z), config_for([1.5], h=2.0), 1.5)
        assert got == pytest.approx(2.0, abs=1e-9)


    def test_vectorized_equals_scalar_fit(self, rng):
        x = rng.uniform(0, 5, 80)
        z = rng.normal(size=80)
        grid = np.linspace(0.5, 4.5, 9)
        cfg = config_for(grid)
        values, degenerate = local_linear_at(ScatterData(x, z), cfg, grid)
        assert not degenerate.any()
        for k, x0 in enumerate(grid):
            assert values[k] == pytest.approx(
                fit_value(ScatterData(x, z), cfg, float(x0)), abs=1e-12)


class TestFitCurve:
    def test_edge_points_flagged_not_interpolated(self):
        x = np.linspace(0, 1, 50)
        z = np.ones(50)
        grid = np.array([0.5, 5.0])
        curve = fit_curve(ScatterData(x, z), config_for(grid))
        assert curve.flags[0] == 0
        assert curve.flags[1] & FLAG_DEGENERATE
        assert np.isnan(curve.values[1])

    def test_benchmark_draw_is_finite_everywhere(self, unit_config):
        # the benchmark intensity density is bounded away from zero on
        # [6, 16], so a full-size draw must give an evaluable curve
        from genevar.simulation import SimDesign, generate_set
        from genevar.synthetic import synthetic_responses

        array = generate_set(SimDesign(n_runs=1, seed=3), 0).arrays[0]
        z = synthetic_responses(array)
        curve = fit_curve(ScatterData(array.x.ravel(), z.ravel()), unit_config)
        assert np.all(np.isfinite(curve.values))
        assert np.all(curve.flags == 0)


class TestKde:
    def test_single_point_peak(self):
        assert kde_at(np.array([0.0]), config_for([0.0]), 0.0) == pytest.approx(70.0 / 81.0)

    def test_outside_support_zero(self):
        assert kde_at(np.array([0.0, 0.5]), config_for([0.0]), 3.0) == 0.0

    def test_matches_brute_force(self, rng):
        x = rng.normal(size=200)
        cfg = config_for([0.0], h=0.4)
        for x0 in (-0.7, 0.0, 1.3):
            brute = float(np.sum(np.asarray(tricube((x - x0) / 0.4)))) / (200 * 0.4)
            assert kde_at(x, cfg, x0) == pytest.approx(brute, abs=1e-12)

    def test_uniform_density_estimate(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 200_000)
        got = kde_at(x, config_for([0.5], h=0.05), 0.5)
        # interior point of a flat density: MC + smoothing error only
        assert got == pytest.approx(1.0, abs=0.03)

    def test_vectorized_matches_scalar(self, rng):
        x = rng.normal(size=100)
        cfg = config_for([0.0], h=0.5)
        pts = np.array([-1.0, 0.2, 0.9])
        vec = kde_values(x, cfg, pts)
        for k, p in enumerate(pts):
            assert vec[k] == pytest.approx(kde_at(x, cfg, float(p)), abs=1e-12)

    def test_empty_sample_rejected(self, unit_config):
        with pytest.raises(GenevarError):
            kde_at(np.array([]), unit_config, 0.0)


class TestBinnedDensity:
    """density_interpolator bins the sample on the lattice engine.  At its
    nodes it stays within 1e-5 max(exact) of the exact kde_values (a bound
    fixed before measuring), and it is never negative:
    its node values are sums of nonnegative shares times nonnegative taps,
    and it interpolates linearly between them."""

    @pytest.fixture(scope="class", params=[300, 20_000])
    def pooled(self, request):
        from genevar.simulation import SimDesign, generate_set

        return generate_set(SimDesign(n_genes=request.param, n_replicates=3,
                                      n_arrays=4, rho=0.4, seed=1), 0).x.ravel()

    @pytest.mark.parametrize("h", [0.05, 1.0, 10.0, 1e4])
    def test_matches_exact_kde_at_nodes(self, pooled, h):
        config = config_for([0.0], h=h)
        nodes = np.linspace(pooled.min() - h, pooled.max() + h,
                            smoothing._DENSITY_NODES)
        binned = density_interpolator(pooled, config)(nodes)
        exact = kde_values(pooled, config, nodes)
        assert np.all(binned >= 0.0)
        assert np.max(np.abs(binned - exact)) <= 1e-5 * exact.max()

    @pytest.mark.parametrize("h", [0.05, 1.0])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_chunks_leave_the_density_unchanged(self, pooled, h, chunk,
                                                monkeypatch):
        # every chunk's left shares, then every chunk's right ones: the
        # additions of one pass over the whole sample, in its order
        config = config_for([0.0], h=h)
        nodes = np.linspace(pooled.min() - h, pooled.max() + h,
                            smoothing._DENSITY_NODES)
        monkeypatch.setattr(model, "CHUNK_ROWS", pooled.size)
        whole = density_interpolator(pooled, config)(nodes)
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        assert np.array_equal(density_interpolator(pooled, config)(nodes), whole)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(NonFinite):
            density_interpolator(np.array([8.0, np.nan, 9.0]), config_for([0.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_sample_rejected(self, bad):
        # the check reads the least and greatest values only
        with pytest.raises(NonFinite):
            density_interpolator(np.array([8.0, bad, 9.0]), config_for([0.0]))


def full_sample_oracle(x, z, h, points):
    """Fit values, flags and KDE at points from weights over the whole
    sample, with no window search; the moments go through _solve."""
    pts = np.asarray(points, dtype=float)
    u = (x[None, :] - pts[:, None]) / h
    k = tricube(u)
    w = k / h
    wu = w * u
    values, degenerate = smoothing._solve(
        w.sum(axis=1), wu.sum(axis=1), (wu * u).sum(axis=1), w @ z, wu @ z)
    return values, degenerate, k.sum(axis=1) / (x.size * h)


class TestExactPass:
    """The per-point window pass against weights over the whole sample."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=60),
           st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           st.sampled_from([0.1, 0.35, 1.0, 2.5]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_full_sample_oracle(self, ticks, points, h, seed):
        # x on a coarse lattice gives ties, points beyond it empty windows;
        # bounds fixed before measuring
        x = 0.25 * np.asarray(ticks, dtype=float)
        z = np.random.default_rng(seed).normal(size=x.size)
        config = config_for([0.0], h=h)
        values, degenerate = local_linear_at(ScatterData(x, z), config, points)
        oracle, oracle_degenerate, oracle_kde = full_sample_oracle(
            x, z, h, points)
        assert np.array_equal(degenerate, oracle_degenerate)
        assert np.isnan(values[degenerate]).all()
        ok = ~degenerate
        np.testing.assert_allclose(values[ok], oracle[ok], rtol=0, atol=1e-6)
        np.testing.assert_allclose(kde_values(x, config, points), oracle_kde,
                                   rtol=1e-12, atol=0)


class TestDegenerateRule:
    """The rule compares the determinant with S_0^2, so it is free of the
    scale of x and h."""

    @pytest.mark.parametrize("k", [-10, 10, 20])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        # scaling x, the grid and h by 2^k leaves u unchanged and scales
        # every moment by a power of two, so flags and values stay bit for
        # bit; sparse edges put some points on the exact fit, and the empty
        # stretch and the tie at 20 flag others
        c = 2.0 ** k
        x = np.concatenate([rng.uniform(6.0, 16.0, 400), [20.0, 20.0]])
        z = rng.chisquare(1, x.size)
        grid = np.linspace(5.0, 21.0, 161)
        base_data, scaled_data = ScatterData(x, z), ScatterData(c * x, z)
        base, scaled = config_for(grid, h=0.5), config_for(c * grid, h=c * 0.5)
        curve = fit_curve(base_data, base)
        scaled_curve = fit_curve(scaled_data, scaled)
        assert curve.evaluable.any() and not curve.evaluable.all()
        assert np.array_equal(curve.flags, scaled_curve.flags)
        assert np.array_equal(curve.values, scaled_curve.values, equal_nan=True)
        exact = local_linear_at(base_data, base, grid)
        scaled_exact = local_linear_at(scaled_data, scaled, c * grid)
        assert np.array_equal(exact[1], scaled_exact[1])
        assert np.array_equal(exact[0], scaled_exact[0], equal_nan=True)


class TestBinned:
    """fit_curve approximates the exact pass at equispaced points; the exact
    local_linear_at is the oracle.  The first tests fit at two_stage_curve's
    stage-1 nodes, 512 spanning the data."""

    @pytest.mark.parametrize("effect_mode", ["gene", "smooth"])
    def test_table1_design_within_bound(self, effect_mode):
        # two_stage_curve's stage 1 on the table1 design: 2000 genes, I=3,
        # J=4, the 512 nodes; bound fixed at 1e-4 sd(y) before measuring
        from genevar.simulation import SimDesign, generate_set

        design = SimDesign(n_runs=3, seed=1, effect_mode=effect_mode)
        config = config_for([6.0])
        for run in range(design.n_runs):
            for array in generate_set(design, run).arrays:
                data = ScatterData(array.x.ravel(), array.y.ravel())
                nodes = np.linspace(data.x.min(), data.x.max(), 512)
                curve = fit_curve(data, config_for(nodes))
                exact, exact_degenerate = local_linear_at(data, config, nodes)
                assert curve.evaluable.all() and not exact_degenerate.any()
                assert np.max(np.abs(curve.values - exact)) <= 1e-4 * np.std(data.z)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=60),
           st.sampled_from([0.1, 0.35, 1.0, 2.5]),
           st.integers(0, 2 ** 32 - 1))
    def test_exact_degenerate_nodes_stay_degenerate(self, ticks, h, seed):
        # lattice x: ties, gaps wider than 2h and a single distinct x
        x = 0.25 * np.asarray(ticks, dtype=float)
        z = np.random.default_rng(seed).normal(size=x.size)
        data, config = ScatterData(x, z), config_for([0.0], h=h)
        nodes = np.linspace(x.min(), x.max(), 512)
        _, exact_degenerate = local_linear_at(data, config, nodes)
        if x.min() == x.max():
            # no grid spans a single x; two_stage_curve takes every node
            # as degenerate
            assert exact_degenerate.all()
            with pytest.raises(DegenerateWindow, match="at 512 grid points"):
                two_stage_curve(make_array(z[:, None], x=x[:, None]), config)
            return
        curve = fit_curve(data, config_for(nodes, h=h))
        assert not np.any(exact_degenerate & curve.evaluable)
        assert np.array_equal(np.isnan(curve.values), ~curve.evaluable)

    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_chunks_leave_the_fit_unchanged(self, chunk, monkeypatch):
        # the unit and the z-weighted sums both bin chunk by chunk
        from genevar.simulation import SimDesign, generate_set

        array = generate_set(SimDesign(n_genes=2000, seed=5), 0).arrays[0]
        data = ScatterData(array.x.ravel(), array.y.ravel())
        config = config_for(np.linspace(6.0, 16.0, 101), h=0.5)
        monkeypatch.setattr(model, "CHUNK_ROWS", data.x.size)
        whole = fit_curve(data, config)
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        curve = fit_curve(data, config)
        assert np.array_equal(curve.values, whole.values, equal_nan=True)
        assert np.array_equal(curve.flags, whole.flags)

    def test_cached_taps_leave_the_fits_unchanged(self):
        # h = 1 on a 0.1 grid and h = 0.5 on a 0.0499 grid both take 26
        # lattice steps per grid step and taps of reach 260, with u = r/260
        # and u = r/260.52: taps cached by reach alone would serve both
        from genevar.simulation import SimDesign, generate_set

        array = generate_set(SimDesign(n_genes=2000, seed=5), 0).arrays[0]
        data = ScatterData(array.x.ravel(), array.y.ravel())
        coarse = config_for(np.linspace(6.0, 16.0, 101), h=1.0)
        fine = config_for(np.linspace(6.0, 15.98, 201), h=0.5)
        smoothing._taps.cache_clear()
        first = fit_curve(data, coarse)
        second = fit_curve(data, fine)
        third = fit_curve(data, coarse)
        assert np.array_equal(third.values, first.values, equal_nan=True)
        smoothing._taps.cache_clear()
        alone = fit_curve(data, fine)
        assert np.array_equal(second.values, alone.values, equal_nan=True)
        taps = smoothing._taps(4, 0.25, 1.0)
        assert taps is smoothing._taps(4, 0.25, 1.0)
        assert not taps.flags.writeable

    def test_constant_response_reproduced(self, rng):
        x = rng.uniform(6.0, 16.0, 3000)
        curve = fit_curve(ScatterData(x, np.full(x.size, 2.5)),
                          config_for(np.linspace(x.min(), x.max(), 512)))
        assert curve.evaluable.all()
        assert np.max(np.abs(curve.values - 2.5)) <= 1e-12 * 2.5

    def test_single_distinct_x_is_degenerate_without_division(self):
        array = make_array(np.arange(50.0)[:, None], x=np.full((50, 1), 9.0))
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateWindow, match="at 512 grid points"):
                two_stage_curve(array, config_for([6.0]))

    # the rest fit on config.grid

    def test_fit_curve_table2_design_within_bound(self):
        # the table2 design (2000 genes, J=4, rho=0.6), seed 1, runs 0-2:
        # each array's replicate columns and I=3 pooled fit, and the I=2
        # paired fit on the same design with two replicates; bound fixed
        # at 2e-4 sd(z) before measuring
        from genevar.simulation import SimDesign, generate_set
        from genevar.synthetic import synthetic_responses

        fits = []
        for n_reps in (3, 2):
            design = SimDesign(n_runs=3, seed=1, rho=0.6, n_replicates=n_reps)
            for run in range(design.n_runs):
                for array in generate_set(design, run).arrays:
                    if n_reps == 2:
                        z = 0.25 * (array.y[:, 0] - array.y[:, 1]) ** 2
                        fits.append(ScatterData(array.x.T.ravel(),
                                                np.concatenate([z, z])))
                        continue
                    x, z = array.x, synthetic_responses(array)
                    fits.extend(ScatterData(x[:, i], z[:, i]) for i in range(3))
                    fits.append(ScatterData(x.ravel(), z.ravel()))
        assert len(fits) == 3 * 4 * 4 + 3 * 4
        config = design.config()
        for data in fits:
            curve = fit_curve(data, config)
            exact, exact_degenerate = local_linear_at(data, config, config.grid)
            assert not exact_degenerate.any() and curve.evaluable.all()
            assert np.max(np.abs(curve.values - exact)) <= 2e-4 * np.std(data.z)

    @settings(max_examples=100, deadline=None)
    @example(ticks=[0, 4], start=1e-8, n_points=1, spacing=0.05, h=1.0, seed=0)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=60),
           st.floats(-4.0, 4.0), st.integers(1, 40),
           st.sampled_from([0.05, 0.1, 0.25, 0.3]),
           st.sampled_from([0.1, 0.35, 1.0, 2.5]),
           st.integers(0, 2 ** 32 - 1))
    def test_fit_curve_flags_equal_the_exact_pass(
            self, ticks, start, n_points, spacing, h, seed):
        # lattice x: ties, gaps wider than 2h, a single distinct x, and
        # grids reaching past the data
        x = 0.25 * np.asarray(ticks, dtype=float)
        z = np.random.default_rng(seed).normal(size=x.size)
        grid = start + spacing * np.arange(n_points)
        data, config = ScatterData(x, z), config_for(grid, h=h)
        curve = fit_curve(data, config)
        degenerate = ~curve.evaluable
        _, exact_degenerate = local_linear_at(data, config, grid)
        assert np.array_equal(degenerate, exact_degenerate)
        assert np.array_equal(np.isnan(curve.values), degenerate)

    @pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 1e-6, 5.0]],
                             ids=["second_x_at_window_edge", "near_tie"])
    def test_fit_curve_flags_what_the_lattice_cannot_resolve(self, x):
        # at x0 = 1e-8, h = 1: a second x 1e-8 inside the window's edge, and
        # two x 1e-6 apart with the third outside the window, carry too
        # little spread for the exact determinant rule; linear binning
        # would smear either onto a lattice step, so such windows take the
        # exact fit
        x = np.asarray(x)
        data = ScatterData(x, np.arange(x.size, dtype=float))
        config = config_for([1e-8])
        assert local_linear_at(data, config, config.grid)[1].all()
        curve = fit_curve(data, config)
        assert not curve.evaluable.any() and np.isnan(curve.values).all()

    def test_fit_curve_evaluates_a_close_pair_the_exact_pass_evaluates(self):
        # h = 1 on a 0.1 grid (lattice step ~0.0038): the windows around
        # 10 hold only two x, 0.003 apart, which the exact determinant rule
        # resolves (det ~7e-6); the fit must not flag them
        x = np.array([10.0, 10.003])
        data = ScatterData(x, np.array([1.0, 2.0]))
        config = config_for(np.linspace(6.0, 16.0, 101))
        exact, exact_degenerate = local_linear_at(data, config, config.grid)
        curve = fit_curve(data, config)
        assert (~exact_degenerate).sum() == 19
        assert np.array_equal(curve.evaluable, ~exact_degenerate)
        np.testing.assert_allclose(curve.values[curve.evaluable],
                                   exact[~exact_degenerate], rtol=1e-9)

    @pytest.mark.parametrize("h", [0.05, 0.2, 1.0, 1000.0])
    def test_fit_curve_sparse_input_within_bound(self, h):
        # the 300-gene, J=4 input of the CLI tests on its default grid: each
        # array's replicate columns and I=3 pooled fit hold from none to a
        # few hundred x per window; the flags must be the exact pass's and
        # the values within the module's 1e-4 sd(z)
        from genevar.model import default_grid
        from genevar.simulation import SimDesign, generate_set
        from genevar.synthetic import synthetic_responses

        ms = generate_set(SimDesign(n_genes=300, n_active=40, n_arrays=4,
                                    rho=0.3, n_runs=1, seed=101), 0)
        config = config_for(
            default_grid(np.concatenate([a.x.ravel() for a in ms.arrays])), h=h)
        for array in ms.arrays:
            x, z = array.x, synthetic_responses(array)
            for data in [ScatterData(x[:, i], z[:, i]) for i in range(3)] + [
                    ScatterData(x.ravel(), z.ravel())]:
                curve = fit_curve(data, config)
                exact, exact_degenerate = local_linear_at(data, config,
                                                          config.grid)
                assert np.array_equal(curve.evaluable, ~exact_degenerate)
                ok = curve.evaluable
                assert np.all(np.abs(curve.values[ok] - exact[ok])
                              <= 1e-4 * np.std(data.z))

    def test_fit_curve_constant_response_reproduced(self, rng):
        x = rng.uniform(6.0, 16.0, 3000)
        curve = fit_curve(ScatterData(x, np.full(x.size, 2.5)),
                          config_for(np.linspace(6.0, 16.0, 101)))
        assert curve.evaluable.all()
        assert np.max(np.abs(curve.values - 2.5)) <= 1e-12 * 2.5

    @pytest.mark.parametrize("c", [0.1, 2.9, 7.1, 40.0])
    def test_refinement_does_not_flip_under_rounding(self, rng, c):
        # g = 0.1 and h = 0.8 put the exact g _TAPS_PER_H / h on the integer
        # 32; the shifted grids' spacings round it to 32 + 1e-14 (c = 0.1,
        # 7.1), 32 - 7e-15 (2.9) and 32 (40), and a different refinement
        # would move values by ~1e-5
        h = 0.1 * smoothing._TAPS_PER_H / 32
        x = rng.uniform(6.0, 16.0, 2000)
        z = rng.chisquare(1, x.size)
        grid = np.linspace(6.0, 16.0, 101)
        base = fit_curve(ScatterData(x, z), config_for(grid, h=h))
        shifted = fit_curve(ScatterData(x + c, z), config_for(grid + c, h=h))
        np.testing.assert_allclose(shifted.values, base.values, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("h", [1e-5, 0.05, 1000.0, 1e4])
    def test_memory_bounded_at_extreme_bandwidths(self, h):
        # a narrow window asks for a long lattice, a wide one for long taps;
        # both stay within one row of _LATTICE_MAX bins and the flags keep
        # the exact pass's
        import tracemalloc

        from genevar.simulation import SimDesign, generate_set

        array = generate_set(SimDesign(n_genes=300, n_active=40, n_runs=1,
                                       seed=101), 0).arrays[0]
        data = ScatterData(array.x.ravel(), array.y.ravel())
        config = config_for(np.linspace(6.0, 16.0, 101), h=h)
        tracemalloc.start()
        try:
            curve = fit_curve(data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * smoothing._LATTICE_MAX + (1 << 20)
        _, exact_degenerate = local_linear_at(data, config, config.grid)
        assert not np.any(exact_degenerate & curve.evaluable)

    def test_lattice_too_long_at_unit_refinement_raises(self):
        # a grid step of 1e-7 over data spanning 10: even one lattice node
        # per grid step is 1e8 nodes
        x = np.linspace(0.0, 10.0, 50)
        config = config_for(5.0 + 1e-7 * np.arange(11), h=1.0)
        with pytest.raises(GenevarError, match="lattice nodes"):
            fit_curve(ScatterData(x, x), config)
