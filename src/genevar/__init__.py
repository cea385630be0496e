"""Nonparametric genewise variance estimation for replicated two-color arrays."""

import importlib
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

# The public names, each resolved from its module on first access (PEP 562),
# so that a process imports only the modules it uses: `genevar estimate`
# never loads inference, distributions or simulation.
_EXPORTS = {
    "model": (
        "CorrelationEstimate", "DegenerateWindow", "EstimationConfig",
        "GenevarError", "IngestionError", "InvalidReplicateCount",
        "InvalidRho", "MultiArraySet", "NonFinite", "NonpositiveSigma",
        "NoReplicatedGenes", "ReplicatedArray", "ShapeMismatch",
        "TooFewArrays", "TooFewReplicates", "VarianceCurve", "ZeroDenominator",
        "ZeroDensityEverywhere", "default_grid", "validate",
    ),
    "smoothing": (
        "ScatterData", "density_interpolator", "fit_curve", "kde_values",
        "local_linear_at",
    ),
    "synthetic": (
        "residual_squares", "synthetic_responses", "unbiasing_matrix",
    ),
    "estimators": (
        "average_curves", "correct", "paired_difference_curve", "pooled_curve",
        "replicate_curves", "two_stage_curve", "uncorrected_curve",
    ),
    "correlation": (
        "FixedPointResult", "VarianceComponents", "corrected_correlation",
        "fixed_point_solve", "raw_correlation", "variance_components",
    ),
    "asymptotics": (
        "corrected_curve_se", "corrected_curve_stderr", "curve_bias",
        "pooled_curve_asymptotics", "replicate_curve_asymptotics",
        "residual_square_cov", "synthetic_response_cov",
    ),
    "inference": (
        "TestConstants", "ValidationResult", "gene_sigma", "power_increase",
        "selection_counts", "test_constants", "validation_tests",
    ),
    "simulation": (
        "SimDesign", "SimulationReport", "intensity_density", "run_experiment",
        "sample_intensities", "sample_noise", "scale_moments",
        "variance_function",
    ),
    "io": (
        "read_table", "write_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
