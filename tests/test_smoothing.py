import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genevar import smoothing
from genevar.model import (
    FLAG_DEGENERATE,
    TRICUBE,
    EstimationConfig,
    GenevarError,
    tricube_kernel,
)
from genevar.smoothing import (
    ScatterData,
    fit_curve,
    kde_values,
    local_linear_at,
)


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
    k = tricube_kernel()
    w = np.asarray(k.evaluate((x - x0) / h)) / h
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
        c_k = tricube_kernel().c_k
        assert abs(got - 0.25) < c_k * h ** 2 * 1.5

    def test_matches_explicit_weight_formula(self, rng):
        # weights h^-1 K(u) (S2 - u S1) / (S2 S0 - S1^2), S_l = sum K_h u^l
        x = rng.uniform(0, 2, 25)
        z = rng.normal(size=25)
        h, x0 = 0.7, 1.1
        k = tricube_kernel()
        u = (x - x0) / h
        kh = np.asarray(k.evaluate(u)) / h
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


class TestFitCurve:
    def test_pointwise_equals_scalar_fit(self, rng):
        x = rng.uniform(0, 5, 80)
        z = rng.normal(size=80)
        grid = np.linspace(0.5, 4.5, 9)
        cfg = config_for(grid)
        curve = fit_curve(ScatterData(x, z), cfg)
        for k, x0 in enumerate(grid):
            assert curve.values[k] == pytest.approx(
                fit_value(ScatterData(x, z), cfg, float(x0)), abs=1e-12)

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

        ms = generate_set(SimDesign(n_runs=1, seed=3), 0)
        sd = synthetic_responses(ms.arrays[0])
        curve = fit_curve(ScatterData(sd.source.x.ravel(), sd.z.ravel()), unit_config)
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
        k = tricube_kernel()
        for x0 in (-0.7, 0.0, 1.3):
            brute = float(np.sum(np.asarray(k.evaluate((x - x0) / 0.4)))) / (200 * 0.4)
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


class TestSlabs:
    """The window pass bounds memory by splitting a run's rows into slabs;
    the slab size must not change the results."""

    @staticmethod
    def both(monkeypatch, fn):
        from genevar import smoothing

        monkeypatch.setattr(smoothing, "_SLAB_CELLS", 1 << 62)
        whole = fn()
        monkeypatch.setattr(smoothing, "_SLAB_CELLS", 1)
        return whole, fn()

    def test_kde_bit_identical_one_row_per_slab(self, monkeypatch, rng):
        x = rng.normal(size=20_000)
        pts = np.concatenate([rng.uniform(-4, 4, 3000), [-9.0, 9.0]])
        whole, rows = self.both(
            monkeypatch, lambda: kde_values(x, config_for([0.0], h=0.3), pts))
        assert np.array_equal(whole, rows)

    def test_local_linear_one_row_per_slab(self, monkeypatch, rng):
        # the benchmark design; the moment sums' last bits depend on how
        # BLAS blocks a slab, so values agree to rounding, not bit for bit
        from genevar.simulation import sample_intensities, variance_function

        x = np.concatenate([sample_intensities(60_000, rng), [30.0, 30.0]])
        data = ScatterData(x=x, z=variance_function(x) * rng.chisquare(1, x.size))
        pts = np.concatenate([np.linspace(6, 16, 101), x[:3000], [30.0, 40.0]])
        cfg = config_for([6.0])
        (v_whole, d_whole), (v_rows, d_rows) = self.both(
            monkeypatch, lambda: local_linear_at(data, cfg, pts))
        assert d_whole[-2:].all()
        assert np.array_equal(d_whole, d_rows)
        ok = ~d_whole
        np.testing.assert_allclose(v_rows[ok], v_whole[ok], rtol=1e-12, atol=0)
        assert np.isnan(v_rows[~ok]).all()


def reference_pass(xs, points, h, reduce, outs):
    """The window pass with fresh matrices per slab: u and
    TRICUBE.evaluate(u) are allocated for each slab, over the same runs and
    slabs as smoothing._window_pass."""
    order = np.argsort(points, kind="stable")
    sorted_pts = points[order]
    halfwidth = TRICUBE.support_halfwidth * h
    for start, stop in smoothing._chunk_bounds(sorted_pts, halfwidth):
        lo = np.searchsorted(xs, sorted_pts[start] - halfwidth, side="left")
        hi = np.searchsorted(xs, sorted_pts[stop - 1] + halfwidth, side="right")
        if hi <= lo:
            continue
        rows = max(1, smoothing._SLAB_CELLS // int(hi - lo))
        for first in range(start, stop, rows):
            last = min(first + rows, stop)
            u = (xs[lo:hi][None, :] - sorted_pts[first:last, None]) / h
            parts = reduce(slice(lo, hi), u, TRICUBE.evaluate(u))
            for out, part in zip(outs, parts):
                out[order[first:last]] = part


def reference_local_linear(data, config, points):
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    order_x = np.argsort(data.x, kind="stable")
    xs, zs = data.x[order_x], data.z[order_x]
    h = config.bandwidth

    def intercepts(window, u, w):
        zw = zs[window]
        w /= h
        wu = w * u
        s0 = w.sum(axis=1)
        s1 = wu.sum(axis=1)
        s2 = np.einsum("ij,ij->i", wu, u)
        t0 = w @ zw
        t1 = wu @ zw
        det = s0 * s2 - s1 * s1
        ok = det > 1e-12 * (s0 * h * h + 1e-300)
        safe = np.where(ok, det, 1.0)
        return np.where(ok, (s2 * t0 - s1 * t1) / safe, np.nan), ~ok

    values = np.full(pts.shape, np.nan)
    degenerate = np.ones(pts.shape, dtype=bool)
    reference_pass(xs, pts, h, intercepts, (values, degenerate))
    return values, degenerate


def reference_kde(x, config, points):
    x = np.asarray(x, dtype=float).ravel()
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    h = config.bandwidth
    sums = np.zeros(pts.shape)
    reference_pass(np.sort(x), pts, h,
                   lambda window, u, w: (w.sum(axis=1),), (sums,))
    return sums / (x.size * h)


def assert_matches_reference(data, config, points):
    values, degenerate = local_linear_at(data, config, points)
    ref_values, ref_degenerate = reference_local_linear(data, config, points)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(values, ref_values, equal_nan=True)
    assert np.array_equal(kde_values(data.x, config, points),
                          reference_kde(data.x, config, points))


class TestReusedBuffers:
    """The window pass reuses three buffers across slabs; weights, moments
    and results must be bit for bit those of fresh matrices per slab."""

    def test_tricube_out_path_is_the_formula(self, rng):
        u = np.concatenate([rng.uniform(-1.5, 1.5, 999), [-1.0, 0.0, 1.0]])
        a = np.minimum(np.abs(u), 1.0)
        t = 1.0 - a * a * a
        formula = (70.0 / 81.0) * t * t * t
        assert np.array_equal(TRICUBE.evaluate(u), formula)
        out, scratch = np.empty_like(u), np.empty_like(u)
        assert TRICUBE.evaluate(u, out, scratch) is out
        assert np.array_equal(out, formula)
        t = 1.0 - 0.5 * 0.5 * 0.5
        assert TRICUBE.evaluate(-0.5) == (70.0 / 81.0) * t * t * t

    def test_benchmark_design(self, rng):
        # the simulation's intensity design with the 101-point grid and the
        # 512 stage-1 nodes of two_stage_curve
        from genevar.simulation import sample_intensities, variance_function

        x = sample_intensities(60_000, rng)
        data = ScatterData(x=x, z=variance_function(x) * rng.chisquare(1, x.size))
        pts = np.concatenate([np.linspace(6, 16, 101),
                              np.linspace(x.min(), x.max(), 512)])
        assert_matches_reference(data, config_for([6.0]), pts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=60),
           st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           st.sampled_from([0.1, 0.35, 1.0, 2.5]),
           st.sampled_from([1, 5, 64, 1 << 62]),
           st.integers(0, 2 ** 32 - 1))
    def test_small_designs_with_ties_and_empty_windows(
            self, ticks, points, h, slab_cells, seed):
        # x on a coarse lattice gives ties, points beyond it empty windows,
        # and small slab budgets windows of varying size in one pass
        x = 0.25 * np.asarray(ticks, dtype=float)
        z = np.random.default_rng(seed).normal(size=x.size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smoothing, "_SLAB_CELLS", slab_cells)
            assert_matches_reference(ScatterData(x, z), config_for([0.0], h=h),
                                     points)


class TestBinned:
    """local_linear_binned approximates the exact pass at equispaced nodes;
    the exact local_linear_at is the oracle."""

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
                nodes, values, degenerate = smoothing.local_linear_binned(
                    data, config, 512)
                exact, exact_degenerate = local_linear_at(data, config, nodes)
                assert not degenerate.any() and not exact_degenerate.any()
                assert np.max(np.abs(values - exact)) <= 1e-4 * np.std(data.z)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=60),
           st.sampled_from([0.1, 0.35, 1.0, 2.5]),
           st.integers(0, 2 ** 32 - 1))
    def test_exact_degenerate_nodes_stay_degenerate(self, ticks, h, seed):
        # lattice x: ties, gaps wider than 2h and a single distinct x
        x = 0.25 * np.asarray(ticks, dtype=float)
        z = np.random.default_rng(seed).normal(size=x.size)
        data, config = ScatterData(x, z), config_for([0.0], h=h)
        nodes, values, degenerate = smoothing.local_linear_binned(data, config, 512)
        _, exact_degenerate = local_linear_at(data, config, nodes)
        assert not np.any(exact_degenerate & ~degenerate)
        assert np.array_equal(np.isnan(values), degenerate)

    def test_constant_response_reproduced(self, rng):
        x = rng.uniform(6.0, 16.0, 3000)
        nodes, values, degenerate = smoothing.local_linear_binned(
            ScatterData(x, np.full(x.size, 2.5)), config_for([6.0]), 512)
        assert np.array_equal(nodes, np.linspace(x.min(), x.max(), 512))
        assert not degenerate.any()
        assert np.max(np.abs(values - 2.5)) <= 1e-12 * 2.5

    def test_single_distinct_x_is_degenerate_without_division(self):
        with np.errstate(all="raise"):
            nodes, values, degenerate = smoothing.local_linear_binned(
                ScatterData(np.full(50, 9.0), np.arange(50.0)), config_for([6.0]), 8)
        assert np.array_equal(nodes, np.full(8, 9.0))
        assert degenerate.all() and np.isnan(values).all()
