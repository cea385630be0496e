import math

import numpy as np
import pytest

from genevar.model import (
    C_K,
    D_K,
    FLAG_DEGENERATE,
    GRID_TRIM,
    CorrelationEstimate,
    EstimationConfig,
    GenevarError,
    InvalidRho,
    MultiArraySet,
    NonFinite,
    ReplicatedArray,
    ShapeMismatch,
    TooFewReplicates,
    VarianceCurve,
    _quantiles,
    check_rho,
    default_grid,
    tricube,
    validate,
)
from conftest import make_array, stack_set


class TestValidate:
    def test_well_formed_accepted(self, rng):
        arr = make_array(rng.normal(size=(3, 3)), rng=rng)
        assert validate(arr) is arr

    def test_nan_rejected(self, rng):
        y = rng.normal(size=(3, 3))
        y[1, 2] = np.nan
        with pytest.raises(NonFinite):
            validate(make_array(y, rng=rng))

    def test_inf_rejected(self, rng):
        x = rng.uniform(6, 16, size=(3, 3))
        x[0, 0] = np.inf
        with pytest.raises(NonFinite):
            validate(make_array(rng.normal(size=(3, 3)), x=x))

    def test_single_replicate_rejected(self, rng):
        with pytest.raises(TooFewReplicates):
            validate(make_array(rng.normal(size=(4, 1)), rng=rng))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            ReplicatedArray(x=np.zeros((3, 3)), y=np.zeros((3, 2)))

    def test_set_checked_whole(self, rng):
        ms = stack_set([rng.uniform(6, 16, (3, 3))] * 2,
                       [rng.normal(size=(3, 3))] * 2)
        assert validate(ms) is ms
        y = ms.y.copy()
        y[1, 2, 0] = np.nan
        with pytest.raises(NonFinite):
            validate(MultiArraySet(x=ms.x, y=y, gene_ids=ms.gene_ids))
        with pytest.raises(TooFewReplicates):
            validate(MultiArraySet(x=ms.x[:, :, :1], y=ms.y[:, :, :1],
                                   gene_ids=ms.gene_ids))

    def test_arrays_are_readonly(self, rng):
        arr = make_array(rng.normal(size=(3, 3)), rng=rng)
        with pytest.raises(ValueError):
            arr.y[0, 0] = 1.0


class TestMultiArraySet:
    def test_consistent_set(self, rng):
        a = make_array(rng.normal(size=(3, 2)), rng=rng)
        ms = stack_set([a.x, a.x], [a.y, a.y + 1.0])
        assert ms.n_arrays == 2 and ms.n_genes == 3 and ms.n_replicates == 2
        assert ms.gene_ids == ("g1", "g2", "g3")
        assert np.array_equal(ms.arrays[1].y, a.y + 1.0)

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            MultiArraySet(x=np.zeros((2, 3, 2)), y=np.zeros((2, 4, 2)),
                          gene_ids=("a", "b", "c"))
        with pytest.raises(ShapeMismatch):
            MultiArraySet(x=np.zeros((3, 2)), y=np.zeros((3, 2)),
                          gene_ids=("a", "b", "c"))
        with pytest.raises(ShapeMismatch):
            MultiArraySet(x=np.zeros((0, 3, 2)), y=np.zeros((0, 3, 2)),
                          gene_ids=("a", "b", "c"))

    def test_gene_id_count_must_match(self):
        with pytest.raises(ShapeMismatch):
            MultiArraySet(x=np.zeros((1, 3, 2)), y=np.zeros((1, 3, 2)),
                          gene_ids=("a", "b"))

    def test_arrays_are_views_of_the_blocks(self, rng):
        x, y = rng.uniform(6, 16, (3, 4, 2)), rng.normal(size=(3, 4, 2))
        ms = MultiArraySet(x=x, y=y, gene_ids=tuple("abcd"))
        for j, a in enumerate(ms.arrays):
            assert a.x.shape == (4, 2)
            assert np.shares_memory(a.x, ms.x) and np.shares_memory(a.y, ms.y)
            assert np.array_equal(a.x, x[j]) and np.array_equal(a.y, y[j])
        with pytest.raises(ValueError):
            ms.arrays[0].y[0, 0] = 1.0


class TestCopyRule:
    """An input array is kept only when it is read-only float64 and its base
    is None or read-only; anything a writeable array can change is copied."""

    def test_writeable_input_copied(self, rng):
        x = rng.uniform(6, 16, (2, 3, 2))
        ms = MultiArraySet(x=x, y=x, gene_ids=("a", "b", "c"))
        assert not np.shares_memory(ms.x, x)
        x[0, 0, 0] = -1.0
        assert ms.x[0, 0, 0] != -1.0

    def test_readonly_view_of_writeable_array_copied(self, rng):
        x = rng.uniform(6, 16, (2, 3, 2))
        view = x[:]
        view.setflags(write=False)
        ms = MultiArraySet(x=view, y=view, gene_ids=("a", "b", "c"))
        assert not np.shares_memory(ms.x, x)
        a = ReplicatedArray(x=view[0], y=view[0])
        assert not np.shares_memory(a.x, x)

    def test_readonly_owner_and_its_views_kept(self, rng):
        x = rng.uniform(6, 16, (2, 3, 2))
        x.setflags(write=False)
        ms = MultiArraySet(x=x, y=x, gene_ids=("a", "b", "c"))
        assert ms.x is x
        assert ReplicatedArray(x=x[1], y=x[1]).x.base is x

    def test_other_dtype_copied(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        x.setflags(write=False)
        ms = MultiArraySet(x=x, y=x, gene_ids=("a", "b"))
        assert ms.x.dtype == float and not ms.x.flags.writeable


class TestKernels:
    def test_tricube_moments(self):
        # second moment has the closed form 2*(70/81)*(1/12)
        assert abs(C_K - 35.0 / 243.0) < 1e-10
        # roughness from the binomial expansion of (1-u^3)^6
        series = sum(math.comb(6, j) * (-1) ** j / (3 * j + 1) for j in range(7))
        assert abs(D_K - 2.0 * (70.0 / 81.0) ** 2 * series) < 1e-9

    def test_tricube_normalized_and_peak(self):
        assert abs(float(tricube(0.0)) - 70.0 / 81.0) < 1e-12
        assert float(tricube(1.5)) == 0.0
        assert float(tricube(-1.0)) == 0.0
        u = np.linspace(-1, 1, 401)
        assert np.all(np.asarray(tricube(u)) >= 0)
        fine = np.linspace(-1, 1, 200_001)
        assert abs(np.trapezoid(tricube(fine), fine) - 1.0) < 1e-9

    def test_tricube_is_the_formula(self, rng):
        u = np.concatenate([rng.uniform(-1.5, 1.5, 999), [-1.0, 0.0, 1.0]])
        a = np.minimum(np.abs(u), 1.0)
        t = 1.0 - a * a * a
        assert np.array_equal(tricube(u),
                              (70.0 / 81.0) * t * t * t)
        t = 1.0 - 0.5 * 0.5 * 0.5
        assert tricube(-0.5) == (70.0 / 81.0) * t * t * t


class TestConfig:
    def test_grid_must_increase(self):
        with pytest.raises(GenevarError):
            EstimationConfig(bandwidth=1.0, grid=np.array([1.0, 1.0, 2.0]))

    def test_bandwidth_positive(self):
        with pytest.raises(GenevarError):
            EstimationConfig(bandwidth=0.0, grid=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("h", [math.inf, 1e308])
    def test_bandwidth_finite(self, h):
        # 1e308 is finite, but its square, which the degenerate rule uses, is not
        with pytest.raises(NonFinite, match="bandwidth must be finite"):
            EstimationConfig(bandwidth=h, grid=np.array([1.0, 2.0]))

    def test_grid_finiteness_checked_before_order(self):
        with pytest.raises(NonFinite, match="non-finite"):
            EstimationConfig(bandwidth=1.0, grid=np.linspace(np.nan, 9.0, 5))

    @pytest.mark.parametrize("grid", [np.geomspace(1.0, 10.0, 5),
                                      [0.0, 1.0, 2.0001]])
    def test_grid_must_be_equispaced(self, grid):
        with pytest.raises(GenevarError, match="grid must be equispaced"):
            EstimationConfig(bandwidth=1.0, grid=np.asarray(grid))

    @pytest.mark.parametrize("grid", [np.linspace(6.0, 16.0, 101) + 40.0,
                                      np.linspace(1e6, 1e6 + 1.0, 101),
                                      [3.0]])
    def test_equispaced_up_to_rounding_accepted(self, grid):
        EstimationConfig(bandwidth=1.0, grid=np.asarray(grid))

    def test_default_grid_trims_tails(self, rng):
        x = rng.normal(size=20000)
        grid = default_grid(x, n_points=51)
        assert grid.size == 51
        assert grid[0] == np.quantile(x, 0.005)
        assert grid[-1] == np.quantile(x, 0.995)
        assert grid[0] > x.min() and grid[-1] < x.max()
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 201, 20000])
    def test_quantiles_match_numpy(self, n):
        rng = np.random.default_rng(n)
        q = [0.0, GRID_TRIM, 0.25, 0.5, 1.0 - GRID_TRIM, 1.0]
        for x in (rng.normal(size=n), np.round(rng.uniform(6, 16, n), 1),
                  np.full(n, 2.5)):
            np.testing.assert_array_equal(_quantiles(x, q), np.quantile(x, q))
            x[n // 2] = np.nan
            np.testing.assert_array_equal(_quantiles(x, q), np.quantile(x, q))

    def test_default_grid_rejects_degenerate(self):
        with pytest.raises(GenevarError):
            default_grid(np.full(10, 3.0))


class TestCurveAndEstimate:
    def test_curve_length_checked(self):
        with pytest.raises(ShapeMismatch):
            VarianceCurve(grid=np.array([1.0, 2.0]), values=np.array([1.0]))

    def test_estimate_moment_consistency_enforced(self):
        with pytest.raises(GenevarError):
            CorrelationEstimate(rho=0.0, sigma1=1.0, sigma2=0.5,
                                iterations=1, converged=True, n_reps=3)

    @pytest.mark.parametrize("sigma1", [1e-4, 1.0, 1e4])
    def test_moment_tolerance_is_relative(self, sigma1):
        # sigma2 = sigma1^2 / 2 is inconsistent at every scale of y; a
        # rounding-size shortfall is not
        with pytest.raises(GenevarError):
            CorrelationEstimate(rho=0.0, sigma1=sigma1,
                                sigma2=0.5 * sigma1 ** 2,
                                iterations=1, converged=True, n_reps=3)
        CorrelationEstimate(rho=0.0, sigma1=sigma1,
                            sigma2=sigma1 ** 2 * (1.0 - 1e-12),
                            iterations=1, converged=True, n_reps=3)

    def test_estimate_rho_bound(self):
        with pytest.raises(InvalidRho):
            CorrelationEstimate(rho=-0.6, sigma1=0.5, sigma2=0.3,
                                iterations=1, converged=True, n_reps=3)
        est = CorrelationEstimate(rho=-0.4, sigma1=0.5, sigma2=0.3,
                                  iterations=1, converged=True, n_reps=3)
        assert est.rho == -0.4

    @pytest.mark.parametrize("n_reps", [0, 1])
    def test_single_replicate_rejected(self, n_reps):
        # -1/(I-1) is undefined at I=1: a GenevarError, not a ZeroDivisionError
        with pytest.raises(TooFewReplicates):
            check_rho(0.0, n_reps)
        with pytest.raises(TooFewReplicates):
            CorrelationEstimate(rho=0.0, sigma1=0.5, sigma2=0.3,
                                iterations=1, converged=True, n_reps=n_reps)


class TestCurveLookup:
    def test_skips_flagged_and_nan_points(self):
        curve = VarianceCurve(grid=np.array([0.0, 1.0, 2.0, 3.0]),
                              values=np.array([1.0, np.nan, 5.0, 100.0]),
                              flags=np.array([0, 0, 0, FLAG_DEGENERATE]))
        got = curve.variance_at([0.5, 1.5, 2.5, -1.0])
        assert np.array_equal(got, [2.0, 4.0, 5.0, 1.0])

    def test_scale_clamps_before_interpolating(self):
        curve = VarianceCurve(grid=np.array([0.0, 1.0, 2.0, 3.0]),
                              values=np.array([-1.0, 4.0, np.nan, 9.0]))
        assert np.array_equal(curve.scale_at([0.5, 2.0]), [1.0, 2.5])

    @pytest.mark.parametrize("values, flags", [
        ([np.nan, np.nan], [0, 0]),
        ([1.0, 2.0], [FLAG_DEGENERATE, FLAG_DEGENERATE]),
        ([np.nan, 2.0], [0, FLAG_DEGENERATE]),
    ])
    def test_nothing_evaluable_raises(self, values, flags):
        curve = VarianceCurve(grid=np.array([0.0, 1.0]), values=np.array(values),
                              flags=np.array(flags))
        with pytest.raises(GenevarError):
            curve.variance_at([0.5])
        with pytest.raises(GenevarError):
            curve.scale_at([0.5])

    def test_matches_inline_interpolation_bitwise(self, rng):
        grid = np.linspace(6.0, 16.0, 101)
        values = rng.normal(0.3, 0.2, grid.size)
        values[rng.random(grid.size) < 0.1] = np.nan
        flags = np.where(rng.random(grid.size) < 0.1, FLAG_DEGENERATE, 0)
        curve = VarianceCurve(grid=grid, values=values, flags=flags)
        pts = rng.uniform(5.0, 17.0, (300, 4))
        ok = (flags == 0) & np.isfinite(values)
        assert np.array_equal(curve.variance_at(pts),
                              np.interp(pts, grid[ok], values[ok]))
        assert np.array_equal(
            curve.scale_at(pts),
            np.interp(pts, grid[ok], np.sqrt(np.clip(values[ok], 0.0, None))))
