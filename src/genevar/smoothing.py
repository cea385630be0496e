"""Local linear kernel regression and kernel density estimation.

The regression engine fits, at each evaluation point x0, a weighted
least-squares line to (x, z) with weights K((x - x0)/h)/h and returns the
intercept.  Writing u = (x - x0)/h, w = K(u)/h and S_l = sum w u^l,
T_l = sum w u^l z, the intercept is

    (S_2 T_0 - S_1 T_1) / (S_0 S_2 - S_1^2),

which reproduces constants and linear functions exactly.  A point is
degenerate when the normal-equation determinant S_0 S_2 - S_1^2 falls below
1e-12 * (S_0 h^2 + eps): fewer than two distinct x values carry weight there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FLAG_DEGENERATE,
    DegenerateWindow,
    EstimationConfig,
    GenevarError,
    NonFinite,
    ShapeMismatch,
    VarianceCurve,
)

_DET_RTOL = 1e-12
_DET_FLOOR = 1e-300
_CHUNK_MAX = 256


def _chunk_bounds(points, halfwidth):
    """Split sorted points into runs whose span stays within one kernel
    halfwidth (capped at _CHUNK_MAX), so each run shares a tight data window."""
    bounds = []
    start = 0
    m = points.size
    while start < m:
        stop = int(np.searchsorted(points, points[start] + halfwidth, side="right"))
        stop = max(start + 1, min(stop, start + _CHUNK_MAX, m))
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ScatterData:
    """Paired design points and responses for one smoothing problem."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
            raise ShapeMismatch("x and z must be equal-length 1-d arrays")
        if x.size == 0:
            raise ShapeMismatch("empty scatter data")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise NonFinite("scatter data contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)


def _eval_sorted(xs, zs, kernel, h, points):
    """Evaluate the local linear fit at sorted points against sorted data."""
    values = np.full(points.shape, np.nan)
    degenerate = np.ones(points.shape, dtype=bool)
    halfwidth = kernel.support_halfwidth * h
    for start, stop in _chunk_bounds(points, halfwidth):
        p = points[start:stop]
        lo = np.searchsorted(xs, p[0] - halfwidth, side="left")
        hi = np.searchsorted(xs, p[-1] + halfwidth, side="right")
        if hi <= lo:
            continue
        xw = xs[lo:hi]
        zw = zs[lo:hi]
        u = (xw[None, :] - p[:, None]) / h
        w = kernel.evaluate(u)
        w /= h
        wu = w * u
        s0 = w.sum(axis=1)
        s1 = wu.sum(axis=1)
        s2 = np.einsum("ij,ij->i", wu, u)
        t0 = w @ zw
        t1 = wu @ zw
        det = s0 * s2 - s1 * s1
        ok = det > _DET_RTOL * (s0 * h * h + _DET_FLOOR)
        safe = np.where(ok, det, 1.0)
        vals = np.where(ok, (s2 * t0 - s1 * t1) / safe, np.nan)
        values[start:stop] = vals
        degenerate[start:stop] = ~ok
    return values, degenerate


def local_linear_at(data: ScatterData, config: EstimationConfig, points):
    """Local linear fit at arbitrary points.

    Returns (values, degenerate_mask); degenerate points hold NaN.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise NonFinite("evaluation points must be finite")
    order_x = np.argsort(data.x, kind="stable")
    xs = data.x[order_x]
    zs = data.z[order_x]
    order_p = np.argsort(pts, kind="stable")
    vals_sorted, deg_sorted = _eval_sorted(
        xs, zs, config.kernel, config.bandwidth, pts[order_p])
    values = np.empty_like(vals_sorted)
    degenerate = np.empty_like(deg_sorted)
    values[order_p] = vals_sorted
    degenerate[order_p] = deg_sorted
    return values, degenerate


def local_linear_fit(data: ScatterData, config: EstimationConfig, x0: float) -> float:
    """Local linear intercept estimate at a single point x0.

    Raises DegenerateWindow when the kernel window at x0 holds fewer than two
    distinct design points.
    """
    values, degenerate = local_linear_at(data, config, [float(x0)])
    if degenerate[0]:
        raise DegenerateWindow(f"no local identifiability at x0={x0!r}")
    return float(values[0])


def fit_curve(data: ScatterData, config: EstimationConfig) -> VarianceCurve:
    """Local linear fit over config.grid; degenerate grid points are flagged
    (value NaN), never interpolated."""
    values, degenerate = local_linear_at(data, config, config.grid)
    flags = np.where(degenerate, FLAG_DEGENERATE, 0).astype(np.uint8)
    return VarianceCurve(grid=config.grid, values=values, flags=flags)


def kde_values(x, config: EstimationConfig, points) -> np.ndarray:
    """Kernel density estimate (1/(n h)) sum K((x_g - x0)/h) at each point.

    Reuses the estimation kernel and bandwidth by default; pass a config with
    a different kernel or bandwidth to override.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise GenevarError("kde needs at least one observation")
    if not np.all(np.isfinite(x)):
        raise NonFinite("kde sample contains non-finite entries")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    xs = np.sort(x)
    h = config.bandwidth
    halfwidth = config.kernel.support_halfwidth * h
    order_p = np.argsort(pts, kind="stable")
    sorted_pts = pts[order_p]
    out_sorted = np.zeros(sorted_pts.shape)
    for start, stop in _chunk_bounds(sorted_pts, halfwidth):
        p = sorted_pts[start:stop]
        lo = np.searchsorted(xs, p[0] - halfwidth, side="left")
        hi = np.searchsorted(xs, p[-1] + halfwidth, side="right")
        if hi <= lo:
            continue
        u = (xs[lo:hi][None, :] - p[:, None]) / h
        out_sorted[start:stop] = config.kernel.evaluate(u).sum(axis=1)
    out = np.empty_like(out_sorted)
    out[order_p] = out_sorted / (x.size * h)
    return out


def density_interpolator(sample, config: EstimationConfig, n_points: int = 512):
    """Density of sample evaluated once on a dense grid, then interpolated;
    avoids a fresh kernel pass per gene on large inputs.  Returns a callable
    mapping points to density values."""
    sample = np.asarray(sample, dtype=float).ravel()
    pad = config.kernel.support_halfwidth * config.bandwidth
    grid = np.linspace(sample.min() - pad, sample.max() + pad, n_points)
    dens = kde_values(sample, config, grid)

    def density(points):
        return np.interp(np.atleast_1d(np.asarray(points, dtype=float)),
                         grid, dens)

    return density


def kde(x, config: EstimationConfig, x0: float) -> float:
    """Density estimate at a single point."""
    return float(kde_values(x, config, [float(x0)])[0])
