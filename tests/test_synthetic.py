import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genevar.model import InvalidReplicateCount, TooFewReplicates
from genevar.synthetic import residual_squares, synthetic_responses, unbiasing_matrix
from conftest import make_array


class TestResidualSquares:
    def test_identical_replicates(self):
        arr = make_array(np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(residual_squares(arr), np.zeros((1, 3)))

    def test_hand_example(self):
        arr = make_array(np.array([[0.0, 0.0, 3.0]]))
        assert np.allclose(residual_squares(arr), [[1.0, 1.0, 4.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_matches_definition(self, seed, n_reps):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(5, n_reps))
        got = residual_squares(make_array(y, rng=rng))
        for g in range(5):
            mean = y[g].sum() / n_reps
            for i in range(n_reps):
                assert got[g, i] == pytest.approx((y[g, i] - mean) ** 2, abs=1e-12)

    def test_single_replicate_rejected(self):
        with pytest.raises(TooFewReplicates):
            residual_squares(make_array(np.zeros((2, 1))))


class TestUnbiasingMatrix:
    def test_three_replicates(self):
        b = unbiasing_matrix(3)
        assert np.allclose(np.diag(b), 2.5)
        off = b[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_four_replicates(self):
        b = unbiasing_matrix(4)
        assert np.allclose(np.diag(b), 11.0 / 6.0)
        assert np.allclose(b[0, 1], -1.0 / 6.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 12))
    def test_row_sums(self, n_reps):
        b = unbiasing_matrix(n_reps)
        assert np.allclose(b.sum(axis=1), n_reps / (n_reps - 1))
        assert np.allclose(b, b.T)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 10), st.floats(-5, 5))
    def test_constant_vector_identity(self, n_reps, c):
        b = unbiasing_matrix(n_reps)
        got = b @ np.full(n_reps, c)
        assert np.allclose(got, n_reps / (n_reps - 1) * c)

    def test_too_few_replicates(self):
        with pytest.raises(InvalidReplicateCount):
            unbiasing_matrix(2)


class TestSyntheticResponses:
    def test_zero_residuals(self):
        z = synthetic_responses(make_array(np.array([[1.0, 1.0, 1.0]])))
        assert np.array_equal(z, np.zeros((1, 3)))

    def test_hand_example(self):
        # residual squares (1, 1, 4) -> B r = (0, 0, 9)
        z = synthetic_responses(make_array(np.array([[0.0, 0.0, 3.0]])))
        assert np.allclose(z, [[0.0, 0.0, 9.0]])

    def test_rejects_two_replicates(self):
        with pytest.raises(InvalidReplicateCount):
            synthetic_responses(make_array(np.zeros((3, 2))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_commutes_with_gene_permutation(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(6, 4))
        x = rng.uniform(6, 16, size=(6, 4))
        perm = rng.permutation(6)
        z_full = synthetic_responses(make_array(y, x=x))
        z_perm = synthetic_responses(make_array(y[perm], x=x[perm]))
        assert np.allclose(z_full[perm], z_perm, atol=1e-12)

    def test_conditional_mean_uncorrelated(self):
        # fixed intensity row, uncorrelated noise: mean of Z recovers the
        # per-spot variances within Monte Carlo error
        rng = np.random.default_rng(99)
        x_row = np.array([7.0, 9.5, 14.0])
        sigma = np.array([0.8, 0.5, 0.3])
        n = 400_000
        y = sigma * rng.standard_normal((n, 3))
        arr = make_array(y, x=np.tile(x_row, (n, 1)))
        z = synthetic_responses(arr)
        mean = z.mean(axis=0)
        se = z.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mean - sigma ** 2) < 3 * se)

    def test_conditional_mean_correlated(self):
        # under correlation the conditional mean picks up the pairwise
        # cross terms:
        #   E[Z_i | X] = s_i^2 - 2 rho/(I-1) * s_i * sum_{j!=i} s_j
        #              + 2 rho/((I-1)(I-2)) * sum_{j<k; j,k != i} s_j s_k
        from genevar.simulation import sample_noise

        rng = np.random.default_rng(7)
        rho = 0.5
        x_row = np.array([6.5, 10.0, 15.0, 12.0])
        sigma = np.array([0.9, 0.45, 0.3, 0.38])
        n = 400_000
        eps = sample_noise(n, 4, rho, rng)
        arr = make_array(sigma * eps, x=np.tile(x_row, (n, 1)))
        z = synthetic_responses(arr)

        i_count = 4
        expected = np.empty(i_count)
        for i in range(i_count):
            others = [j for j in range(i_count) if j != i]
            cross = sum(sigma[j] * sigma[k] for a, j in enumerate(others)
                        for k in others[a + 1:])
            expected[i] = (sigma[i] ** 2
                           - 2.0 * rho / (i_count - 1) * sigma[i] * sigma[others].sum()
                           + 2.0 * rho / ((i_count - 1) * (i_count - 2)) * cross)
        mean = z.mean(axis=0)
        se = z.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mean - expected) < 3 * se)
