"""genevar.distributions against scipy.special as the oracle.

Relative tolerances apply where the reference exceeds 1e-300.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from genevar.distributions import (
    chi2_sf,
    normal_critical,
    normal_sf,
    t_critical,
    t_power,
    t_two_sided,
)

ALPHAS = (0.05, 0.01, 0.005, 0.001)
DFS = (1, 2, 3, 4, 5, 7, 10, 30, 100, 200)


def assert_relative(got, ref, rtol):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    keep = np.abs(ref) > 1e-300
    assert keep.any()
    assert np.all(np.abs(got[keep] - ref[keep]) <= rtol * np.abs(ref[keep]))
    assert np.all(np.abs(got[~keep]) <= 1e-290)


class TestNormal:
    def test_tail_matches_ndtr(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, 1e-12, -1e-12]])
        assert_relative(normal_sf(x), special.ndtr(-x), 1e-12)

    def test_keeps_shape(self):
        assert normal_sf(np.zeros((2, 3))).shape == (2, 3)
        assert float(normal_sf(0.0)) == 0.5

    @pytest.mark.parametrize("alpha", ALPHAS + (0.5, 1e-6, 1e-12))
    def test_critical_matches_ndtri(self, alpha):
        assert normal_critical(alpha) == pytest.approx(
            -special.ndtri(alpha / 2.0), rel=1e-12)


class TestStudentT:
    T = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 1500),
                        -np.geomspace(1e-4, 50.0, 200)])

    @pytest.mark.parametrize("df", list(range(1, 31)) + [37, 50, 64, 100, 150, 199, 200])
    def test_tail_matches_stdtr(self, df):
        # below |t| = 1e-4 scipy's stdtr itself loses digits near p = 1
        assert_relative(t_two_sided(self.T, df),
                        2.0 * special.stdtr(df, -np.abs(self.T)), 1e-11)

    def test_cauchy_closed_form(self):
        # df = 1: P(|T| > t) = (2/pi) atan(1/t), down to t far below 1e-4
        t = np.geomspace(1e-12, 1e3, 400)
        exact = 2.0 / np.pi * np.arctan2(1.0, t)
        assert_relative(t_two_sided(t, 1), exact, 1e-14)

    def test_two_df_closed_form(self):
        # df = 2: P(|T| > t) = 1 - t/sqrt(2 + t^2) = 2/(r (r + t)), r = sqrt(2 + t^2)
        t = np.geomspace(1e-12, 1e3, 400)
        r = np.sqrt(2.0 + t * t)
        assert_relative(t_two_sided(t, 2), 2.0 / (r * (r + t)), 1e-14)

    @pytest.mark.parametrize("df", DFS)
    def test_zero_gives_one(self, df):
        assert t_two_sided(np.zeros(3), df).tolist() == [1.0, 1.0, 1.0]

    def test_nonfinite(self):
        p = t_two_sided([np.inf, -np.inf, np.nan], 4)
        assert p[0] == 0.0 and p[1] == 0.0 and np.isnan(p[2])

    @pytest.mark.parametrize("df", DFS + (500, 1000))
    def test_critical_matches_stdtrit(self, df):
        for alpha in ALPHAS + (0.5, 0.2, 0.1, 1e-4, 1e-6, 1e-10):
            # the lower quantile avoids rounding 1 - alpha/2
            ref = -special.stdtrit(df, alpha / 2.0)
            assert t_critical(alpha, df) == pytest.approx(ref, rel=1e-12)


class TestChiSquare:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 37, 100, 1000, 20_000,
                                    100_000, 1_000_000])
    def test_tail_matches_chdtrc(self, df):
        sd = math.sqrt(2.0 * df)
        xs = np.concatenate([np.linspace(max(0.0, df - 12 * sd), df + 40 * sd, 300),
                             np.geomspace(1e-8, 0.5, 30) * df])
        got = [chi2_sf(x, df) for x in xs]
        assert_relative(got, special.chdtrc(df, xs), 1e-9)

    def test_two_df_is_exponential(self):
        for x in (1e-10, 0.3, 2.0, 17.0, 600.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-14)

    def test_edges(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(math.inf, 10) == 0.0
        assert math.isnan(chi2_sf(math.nan, 10))


def far_tail(df, c, ncp):
    """P(T' < -c) for ncp > 0: with T' = (Z + ncp)/S and S = sqrt(chi2_df/df),
    the mean over S of Phi(-ncp - c S), by quadrature up to the S where
    Phi falls below Phi(-40)."""
    half = 0.5 * df
    log_norm = math.log(2.0) + half * math.log(half) - math.lgamma(half)

    def integrand(s):
        if s == 0.0:
            return 0.0
        density = math.exp(log_norm + (df - 1) * math.log(s) - half * s * s)
        return density * special.ndtr(-ncp - c * s)
    return integrate.quad(integrand, 0.0, 40.0 / c, epsabs=1e-16)[0]


def nct_power(df, alpha, ncp):
    """scipy's two-sided power P(T' > c) + P(T' < -c).  nctdtr can return
    NaN for the far tail (the one opposite the sign of ncp) from |ncp| of
    about 5; there the tail comes from far_tail."""
    c = -special.stdtrit(df, alpha / 2.0)
    upper = special.nctdtr(df, -ncp, -c)
    lower = special.nctdtr(df, ncp, -c)
    assert not np.isnan(upper[ncp >= 0]).any()
    assert not np.isnan(lower[ncp <= 0]).any()
    for tail, sign in ((upper, -1.0), (lower, 1.0)):
        for k in np.flatnonzero(np.isnan(tail)):
            tail[k] = far_tail(df, c, sign * ncp[k])
    return upper + lower


class TestNoncentralPower:
    NCP = np.concatenate([np.linspace(-20.0, 20.0, 401), [1e-8, 30.0, 38.0, 40.0, 60.0]])

    @pytest.mark.parametrize("df", DFS)
    def test_matches_nctdtr(self, df):
        power = t_power(self.NCP, df, ALPHAS)
        assert power.shape == (len(ALPHAS), self.NCP.size)
        for alpha, row in zip(ALPHAS, power):
            assert np.max(np.abs(row - nct_power(df, alpha, self.NCP))) <= 1e-13

    @pytest.mark.parametrize("df", DFS)
    def test_zero_ncp_gives_alpha(self, df):
        power = t_power([0.0, 1e-12, -1e-9], df, ALPHAS)
        for alpha, row in zip(ALPHAS, power):
            assert row == pytest.approx([alpha] * 3, abs=1e-15)

    @pytest.mark.parametrize("df", [7, 30, 200])
    def test_lambda_beyond_exp_range_gives_one(self, df):
        # lambda = ncp^2/2 > 745, where exp(-lambda) underflows
        ncp = np.array([39.0, -40.0, 100.0, 1e4])
        assert np.all(t_power(ncp, df, ALPHAS) == 1.0)

    def test_heavy_tail_beyond_exp_range(self):
        # df = 1, lambda = 800: the power still falls short of 1 by about
        # 2e-3, so the Poisson weights must not underflow at j = 0
        ncp = np.array([40.0])
        [got] = t_power(ncp, 1, [0.05])
        assert 1.0 - got[0] > 1e-3
        assert got[0] == pytest.approx(nct_power(1, 0.05, ncp)[0], abs=1e-13)

    def test_order_of_ncp_is_kept(self):
        ncp = np.array([5.0, -0.5, 2.0, 0.0, 12.0])
        power = t_power(ncp, 4, ALPHAS)
        for k in range(ncp.size):
            assert np.array_equal(power[:, k], t_power(ncp[k:k + 1], 4, ALPHAS)[:, 0])
