import numpy as np
import pytest

from genevar.model import EstimationConfig, MultiArraySet, ReplicatedArray


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_config():
    return EstimationConfig(bandwidth=1.0, grid=np.linspace(6.0, 16.0, 101))


def make_array(y, x=None, rng=None):
    """Small ReplicatedArray helper; x defaults to values spread over [6, 16]."""
    y = np.asarray(y, dtype=float)
    if x is None:
        if rng is None:
            rng = np.random.default_rng(0)
        x = rng.uniform(6.0, 16.0, size=y.shape)
    return ReplicatedArray(x=np.asarray(x, dtype=float), y=y)


def stack_set(xs, ys):
    """MultiArraySet of the (N, I) arrays xs[j], ys[j], genes g1..gN."""
    x, y = np.stack(xs), np.stack(ys)
    return MultiArraySet(x=x, y=y,
                         gene_ids=tuple(f"g{k + 1}" for k in range(x.shape[1])))


def constant_sigma_set(sigma0, rho, n_genes=2000, n_reps=3, n_arrays=4, seed=0):
    """Arrays with constant noise scale sigma0 and equicorrelation rho."""
    from genevar.simulation import sample_intensities, sample_noise

    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n_arrays):
        xs.append(sample_intensities((n_genes, n_reps), rng))
        ys.append(sigma0 * sample_noise(n_genes, n_reps, rho, rng))
    return stack_set(xs, ys)
