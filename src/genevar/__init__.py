"""Nonparametric genewise variance estimation for replicated two-color arrays."""

__version__ = "0.1.0"

from .model import (
    CorrelationEstimate,
    DegenerateWindow,
    EstimationConfig,
    GenevarError,
    IngestionError,
    InvalidReplicateCount,
    InvalidRho,
    KernelSpec,
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
    ZeroDiscriminant,
    default_grid,
    tricube_kernel,
    validate,
)
from .smoothing import (
    ScatterData,
    density_interpolator,
    fit_curve,
    kde_values,
    local_linear_at,
)
from .synthetic import SyntheticData, residual_squares, synthetic_responses, unbiasing_matrix
from .estimators import (
    average_curves,
    correct,
    correct_curve,
    correct_paired_curve,
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
    AsymptoticContext,
    corrected_curve_se,
    corrected_curve_stderr,
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
