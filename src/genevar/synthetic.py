"""Turn squared within-gene residuals into synthetic regression responses.

With I >= 3 replicates, the conditional means of the squared residuals
(Y_gi - Ybar_g)^2 form a linear system in the unknown per-spot variances.
Its closed-form inverse is the symmetric I x I matrix

    B = ((I^2 - I) Id - E) / ((I - 1)(I - 2)),

with Id the identity and E the all-ones matrix.  Applying B to each gene's
residual-square vector yields synthetic responses Z whose conditional mean,
for uncorrelated replicates, is exactly the variance function evaluated at
that spot's intensity.  Z entries can be negative; they are deliberately not
clamped here because clamping before smoothing would bias the regression.
"""

from __future__ import annotations

import numpy as np

from .model import (
    InvalidReplicateCount,
    ReplicatedArray,
    TooFewReplicates,
)


def residual_squares(array: ReplicatedArray) -> np.ndarray:
    """Per-spot squared deviations from the gene mean, (Y_gi - Ybar_g)^2."""
    if array.n_replicates < 2:
        raise TooFewReplicates("residuals need at least two replicates")
    d = array.y - array.y.mean(axis=1, keepdims=True)
    d *= d
    return d


def unbiasing_matrix(n_reps: int) -> np.ndarray:
    """Closed-form inverse map from residual squares to variances.

    Diagonal (I^2 - I - 1)/((I-1)(I-2)), off-diagonal -1/((I-1)(I-2)); each
    row sums to I/(I-1).  Generated analytically, never inverted numerically.
    """
    i = int(n_reps)
    if i < 3:
        raise InvalidReplicateCount(
            f"I={i}: the linear system collapses below three replicates")
    return ((i * i - i) * np.eye(i) - np.ones((i, i))) / ((i - 1) * (i - 2))


def synthetic_responses(array: ReplicatedArray) -> np.ndarray:
    """The (N, I) synthetic responses, the unbiasing matrix applied rowwise:
    Z_g = B r_g, paired spot by spot with array.x."""
    b = unbiasing_matrix(array.n_replicates)
    return residual_squares(array) @ b
