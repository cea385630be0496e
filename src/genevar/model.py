"""Core data model for replicated two-color microarray measurements.

A gene g on an array contributes I replicated spots.  Each spot yields a
log2 ratio Y and a log2 intensity X, modelled as

    Y = a_g + s(X) * eps,

where a_g is a per-gene expression effect (a nuisance parameter whose count
grows with the number of genes), s(.) is a smooth noise-scale function of
intensity, and the noise vector of a gene is standard normal with a common
within-gene correlation rho.  Everything downstream estimates s(.)^2 and rho
from such data.

Regression and density smoothing use one fixed kernel, the tricube TRICUBE;
its constants c_k = int u^2 K and d_k = int K^2, which set the asymptotic
bias and variance, are closed forms.

All containers here are immutable after construction (their arrays are made
read-only), so they can be shared freely between callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GenevarError(Exception):
    """Base class for all data and estimation errors raised by this package."""


class ShapeMismatch(GenevarError):
    """Array dimensions are inconsistent."""


class NonFinite(GenevarError):
    """Input contains NaN or infinite entries."""


class TooFewReplicates(GenevarError):
    """Fewer than two replicates; within-gene differences are undefined."""


class InvalidReplicateCount(GenevarError):
    """Operation requires at least three replicates."""


class TooFewArrays(GenevarError):
    """Correlation estimation requires at least two independent arrays."""


class DegenerateWindow(GenevarError):
    """No local identifiability: kernel window holds < 2 distinct x values."""


class ZeroDenominator(GenevarError):
    """Variance-component sums vanish (all-constant data)."""


class InvalidRho(GenevarError):
    """Correlation outside the positive-definiteness range of the model."""


class ZeroDiscriminant(GenevarError):
    """Root discriminant is non-positive; delta-method derivative undefined."""


class NonpositiveSigma(GenevarError):
    """Per-gene noise scale must be strictly positive."""


class ZeroDensityEverywhere(GenevarError):
    """All density weights vanish at the gene's intensities."""


class NoReplicatedGenes(GenevarError):
    """Validation tests need at least one gene with >= 2 replicates."""


class IngestionError(GenevarError):
    """Malformed input file."""


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric probability-density kernel with compact support.

    Attributes
    ----------
    evaluate : callable
        Vectorized u -> K(u); zero outside [-support_halfwidth, support_halfwidth].
        evaluate(u, out, scratch) writes K(u) into out and overwrites
        scratch, allocating nothing.
    support_halfwidth : float
    c_k : float
        Second moment, int u^2 K(u) du.
    d_k : float
        Roughness, int K(u)^2 du.
    """

    evaluate: Callable[..., np.ndarray]
    support_halfwidth: float
    c_k: float
    d_k: float


def _tricube(u, out=None, scratch=None):
    """K(u), written into out when out and scratch (float arrays of u's
    shape, scratch overwritten) are given, else into fresh arrays.  Either
    way the operation order is a = min(|u|, 1), t = 1 - a*a*a,
    K = ((70/81) t) t t."""
    # clipping |u| at 1 makes the cube factor vanish outside the support,
    # avoiding a branch on large weight matrices
    u = np.asarray(u, dtype=float)
    if out is None:
        out, scratch = np.empty(u.shape), np.empty(u.shape)
    a = np.minimum(np.abs(u, out=out), 1.0, out=out)
    cube = np.multiply(a, a, out=scratch)
    cube *= a
    t = np.subtract(1.0, cube, out=out)
    k = np.multiply(70.0 / 81.0, t, out=scratch)
    k *= t
    np.multiply(k, t, out=out)
    return out if out.ndim else out[()]


# (70/81)(1-|u|^3)^3 on [-1, 1].  c_k = 2 (70/81) / 12 = 35/243, and
# d_k = 2 (70/81)^2 sum_j C(6, j) (-1)^j / (3j + 1) = 175/247 from the
# binomial expansion of (1-u^3)^6.
TRICUBE = KernelSpec(_tricube, 1.0, c_k=35.0 / 243.0, d_k=175.0 / 247.0)


def tricube_kernel() -> KernelSpec:
    """The smoothing kernel, (70/81)(1-|u|^3)^3 on [-1, 1]."""
    return TRICUBE


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimationConfig:
    """Smoothing settings shared by all estimators.

    bandwidth is in log2-intensity units; grid is the strictly increasing,
    equispaced sequence of evaluation points for variance curves (the
    binned fits place a lattice node on every grid point).  A grid whose
    steps differ by more than rounding (a relative 1e-9, or a few ulps of
    its largest point) raises GenevarError.
    """

    bandwidth: float
    grid: np.ndarray

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise GenevarError("bandwidth must be positive")
        # the degenerate-window rule scales with h^2, so that must be finite
        h = float(self.bandwidth)
        if not np.isfinite(h * h):
            raise NonFinite("bandwidth must be finite, with a finite square")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise GenevarError("grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(grid)):
            raise NonFinite("grid contains non-finite values")
        if grid.size > 1:
            steps = np.diff(grid)
            if not np.all(steps > 0):
                raise GenevarError("grid must be strictly increasing")
            spacing = (grid[-1] - grid[0]) / (grid.size - 1)
            slack = 1e-9 * spacing + 8 * np.spacing(np.abs(grid).max())
            if np.abs(steps - spacing).max() > slack:
                raise GenevarError("grid must be equispaced")
        object.__setattr__(self, "grid", _readonly(grid))


GRID_TRIM = 0.005   # mass trimmed from each tail by default_grid


def default_grid(x, n_points: int = 101) -> np.ndarray:
    """Equispaced grid over the central (1 - 2*GRID_TRIM) mass of the pooled
    intensities.  Real data needs a data-driven range; trimming keeps the
    endpoints inside the region where the design density is not vanishing."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise GenevarError("cannot build a grid from empty data")
    lo, hi = np.quantile(x, [GRID_TRIM, 1.0 - GRID_TRIM])
    if not hi > lo:
        raise GenevarError("degenerate intensity range; cannot build a grid")
    return np.linspace(lo, hi, n_points)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicatedArray:
    """One array: N genes by I replicates of log2 intensities and log2 ratios."""

    x: np.ndarray
    y: np.ndarray
    gene_ids: tuple

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2:
            raise ShapeMismatch("x and y must be 2-d (genes x replicates)")
        if x.shape != y.shape:
            raise ShapeMismatch(f"x shape {x.shape} != y shape {y.shape}")
        ids = tuple(map(str, self.gene_ids))
        if len(ids) != x.shape[0]:
            raise ShapeMismatch(
                f"{len(ids)} gene ids for {x.shape[0]} gene rows")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "gene_ids", ids)

    @property
    def n_genes(self) -> int:
        return self.x.shape[0]

    @property
    def n_replicates(self) -> int:
        return self.x.shape[1]


def validate(array: ReplicatedArray) -> ReplicatedArray:
    """Check model invariants; returns the input unchanged when they hold.

    Non-finite entries are rejected rather than dropped: silent filtering
    would change N and bias every smoother downstream.
    """
    if array.n_genes < 1:
        raise ShapeMismatch("need at least one gene")
    if array.n_replicates < 2:
        raise TooFewReplicates(
            f"I={array.n_replicates}; within-gene residuals need I >= 2")
    if not np.all(np.isfinite(array.x)):
        raise NonFinite("x contains non-finite entries")
    if not np.all(np.isfinite(array.y)):
        raise NonFinite("y contains non-finite entries")
    return array


@dataclass(frozen=True)
class MultiArraySet:
    """J independent arrays sharing gene ids and replicate count."""

    arrays: tuple

    def __post_init__(self):
        arrays = tuple(self.arrays)
        if len(arrays) < 1:
            raise ShapeMismatch("need at least one array")
        first = arrays[0]
        for a in arrays[1:]:
            if a.x.shape != first.x.shape:
                raise ShapeMismatch("all arrays must share N and I")
            if a.gene_ids != first.gene_ids:
                raise ShapeMismatch("all arrays must share gene ids")
        object.__setattr__(self, "arrays", arrays)

    @property
    def n_arrays(self) -> int:
        return len(self.arrays)

    @property
    def n_genes(self) -> int:
        return self.arrays[0].n_genes

    @property
    def n_replicates(self) -> int:
        return self.arrays[0].n_replicates

    @property
    def gene_ids(self) -> tuple:
        return self.arrays[0].gene_ids

    def stacked_y(self) -> np.ndarray:
        """(J, N, I) stack of log ratios."""
        return np.stack([a.y for a in self.arrays])

    def pooled_x(self) -> np.ndarray:
        return np.concatenate([a.x.ravel() for a in self.arrays])


# ---------------------------------------------------------------------------
# Curves and correlation estimates
# ---------------------------------------------------------------------------

# Bit flags attached per grid point.
FLAG_DEGENERATE = 1           # no local identifiability at this point
FLAG_CLAMPED = 2              # value clamped up to zero
FLAG_NEGATIVE_DISCRIMINANT = 4  # root discriminant clamped to zero


@dataclass(frozen=True)
class VarianceCurve:
    """A variance function evaluated on a grid.

    values are squared log-ratio units; flags carries the per-point bit flags
    above.  Degenerate points hold NaN values and are never silently
    interpolated.
    """

    grid: np.ndarray
    values: np.ndarray
    flags: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = _readonly(np.asarray(self.grid, dtype=float))
        values = _readonly(np.asarray(self.values, dtype=float))
        if grid.shape != values.shape or grid.ndim != 1:
            raise ShapeMismatch("grid and values must be equal-length 1-d arrays")
        flags = self.flags
        if flags is None:
            flags = np.zeros(grid.shape, dtype=np.uint8)
        else:
            flags = np.array(flags, dtype=np.uint8, copy=True)
            if flags.shape != grid.shape:
                raise ShapeMismatch("flags length must match grid")
        flags.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "flags", flags)

    @property
    def evaluable(self) -> np.ndarray:
        """Mask of grid points with a defined value."""
        return (self.flags & FLAG_DEGENERATE) == 0

    def _evaluable_points(self):
        ok = self.evaluable & np.isfinite(self.values)
        if not ok.any():
            raise GenevarError("variance curve has no evaluable points")
        return self.grid[ok], self.values[ok]

    def variance_at(self, points) -> np.ndarray:
        """Variance at arbitrary points, linearly interpolated over the
        evaluable grid points (flagged and NaN points are skipped; beyond the
        end points the nearest evaluable value is held)."""
        grid, values = self._evaluable_points()
        return np.interp(points, grid, values)

    def scale_at(self, points) -> np.ndarray:
        """Noise scale sqrt(max(variance, 0)) at arbitrary points, interpolated
        over the same evaluable grid points as variance_at."""
        grid, values = self._evaluable_points()
        return np.interp(points, grid, np.sqrt(np.clip(values, 0.0, None)))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Replicate correlation and noise-scale moments.

    sigma1 estimates the mean noise scale E[s(X)] and sigma2 the mean squared
    scale E[s(X)^2]; sigma2 >= sigma1^2 up to rounding because sigma2 averages
    the squares of the same curve evaluations (Jensen).
    """

    rho: float
    sigma1: float
    sigma2: float
    iterations: int
    converged: bool
    clipped: bool = False
    n_reps: Optional[int] = None

    def __post_init__(self):
        if not self.sigma1 > 0:
            raise NonpositiveSigma(f"sigma1={self.sigma1!r} must be positive")
        if not self.sigma2 > 0:
            raise NonpositiveSigma(f"sigma2={self.sigma2!r} must be positive")
        if self.sigma2 < self.sigma1 ** 2 * (1.0 - 1e-8):
            raise GenevarError(
                "sigma2 < sigma1^2 beyond tolerance; moment pair is inconsistent")
        if self.n_reps is not None:
            lo = -1.0 / (self.n_reps - 1)
            if not (lo < self.rho < 1.0):
                raise InvalidRho(
                    f"rho={self.rho!r} outside ({lo}, 1) for I={self.n_reps}")
