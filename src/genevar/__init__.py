"""Nonparametric genewise variance estimation for replicated two-color arrays."""

import os

# One OpenBLAS thread, set before numpy (and scipy) first load OpenBLAS.  No
# matrix product here is large enough to use a BLAS thread pool (the largest
# is about (101 x 521) . (521 x 3)): on a 2-core host, `estimate` at 100k
# genes took 2.88 s with the pool and 2.95 s without, within run-to-run
# spread.  Building the pool costs about 70 ms per OpenBLAS copy, and numpy
# and scipy.special each load their own: `import numpy` went 0.245 -> 0.177 s
# and `import numpy, scipy.special` 0.578 -> 0.433 s.  Unpinned, the forked
# workers of `run_experiment` oversubscribe the cores; there, adding the pool
# raised a `simulate` job's CPU time from 2.38 to 2.67 s.  A value the caller
# set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .model import (
    CorrelationEstimate,
    DegenerateWindow,
    EstimationConfig,
    GenevarError,
    IngestionError,
    InvalidReplicateCount,
    InvalidRho,
    MultiArraySet,
    NonFinite,
    NonpositiveSigma,
    NoReplicatedGenes,
    ReplicatedArray,
    ShapeMismatch,
    TooFewArrays,
    TooFewReplicates,
    VarianceCurve,
    ZeroDenominator,
    ZeroDensityEverywhere,
    default_grid,
    validate,
)
from .smoothing import (
    ScatterData,
    density_interpolator,
    fit_curve,
    kde_values,
    local_linear_at,
)
from .synthetic import residual_squares, synthetic_responses, unbiasing_matrix
from .estimators import (
    average_curves,
    correct,
    paired_difference_curve,
    pooled_curve,
    replicate_curves,
    two_stage_curve,
    uncorrected_curve,
)
from .correlation import (
    FixedPointResult,
    VarianceComponents,
    corrected_correlation,
    fixed_point_solve,
    raw_correlation,
    variance_components,
)
from .asymptotics import (
    corrected_curve_se,
    corrected_curve_stderr,
    curve_bias,
    pooled_curve_asymptotics,
    replicate_curve_asymptotics,
    residual_square_cov,
    synthetic_response_cov,
)
from .inference import (
    TestConstants,
    ValidationResult,
    gene_sigma,
    power_increase,
    selection_counts,
    test_constants,
    validation_tests,
)
from .simulation import (
    SimDesign,
    SimulationReport,
    intensity_density,
    run_experiment,
    sample_intensities,
    sample_noise,
    scale_moments,
    variance_function,
)
from .io import read_table, write_table
