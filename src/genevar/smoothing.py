"""Local linear kernel regression and kernel density estimation.

Both run on one kernel-window pass (_window_pass) with the fixed tricube
kernel of model.TRICUBE: the evaluation points are sorted once, walked in
runs that share a data window, and each run gets its raw weights K(u).
Regression forms weighted moment sums from them; the density sums them.
The pass allocates its u, weight and scratch matrices once and reuses them
for every slab of rows, so the per-slab reductions may overwrite the weights
and the scratch but must not keep views of any of them.

The regression engine fits, at each evaluation point x0, a weighted
least-squares line to (x, z) with weights K((x - x0)/h)/h and returns the
intercept.  Writing u = (x - x0)/h, w = K(u)/h and S_l = sum w u^l,
T_l = sum w u^l z, the intercept is

    (S_2 T_0 - S_1 T_1) / (S_0 S_2 - S_1^2),

which reproduces constants and linear functions exactly.  A point is
degenerate when the normal-equation determinant S_0 S_2 - S_1^2 falls below
1e-12 * (S_0 h^2 + eps): fewer than two distinct x values carry weight there.
_solve applies that rule and the formula to the moments of both fits below.

local_linear_binned approximates the same fit at equispaced nodes from
linearly binned moments; it serves the two-stage baseline's stage-1 mean
fit, where it is several times cheaper.  Every other curve, and every test
oracle, uses the exact pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FLAG_DEGENERATE,
    TRICUBE,
    EstimationConfig,
    GenevarError,
    NonFinite,
    ShapeMismatch,
    VarianceCurve,
)

_DET_RTOL = 1e-12
_DET_FLOOR = 1e-300
_CHUNK_MAX = 256
_SLAB_CELLS = 1 << 18   # 2 MB per float matrix of one slab
_DENSITY_NODES = 512
_BIN_REFINE = 4         # bins per node spacing in local_linear_binned


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


def _window_pass(xs, points, h, reduce, outs):
    """Fill outs with reduce's results over the kernel windows of points.

    Walks points in sorted order, in _chunk_bounds runs, and finds each run's
    data window in the sorted sample xs with one searchsorted pair.  The
    run's rows are then split into slabs of at most _SLAB_CELLS cells (at
    least one row each), so memory stays bounded however dense the window.
    reduce(window, u, w, scratch) gets the slice of xs within a kernel
    halfwidth of the run, u = (xs[window] - x0) / h, the raw weights K(u)
    and a scratch matrix, all of shape (slab length, window length), and
    returns one per-point array for each array in outs, which is written at
    the slab's positions in points.  Points with an empty window keep the
    initial values of outs.

    Every slab's matrices are views of three buffers allocated once per
    pass and sized by the largest slab, so the next slab overwrites them:
    reduce may overwrite w and scratch but must not keep a view of u, w or
    scratch after it returns.
    """
    order = np.argsort(points, kind="stable")
    sorted_pts = points[order]
    halfwidth = TRICUBE.support_halfwidth * h
    slabs = []
    for start, stop in _chunk_bounds(sorted_pts, halfwidth):
        lo = int(np.searchsorted(xs, sorted_pts[start] - halfwidth, side="left"))
        hi = int(np.searchsorted(xs, sorted_pts[stop - 1] + halfwidth, side="right"))
        if hi <= lo:
            continue
        rows = max(1, _SLAB_CELLS // (hi - lo))
        slabs.extend((first, min(first + rows, stop), lo, hi)
                     for first in range(start, stop, rows))
    if not slabs:
        return
    cells = max((last - first) * (hi - lo) for first, last, lo, hi in slabs)
    buffers = [np.empty(cells) for _ in range(3)]
    for first, last, lo, hi in slabs:
        shape = (last - first, hi - lo)
        u, w, scratch = (b[:shape[0] * shape[1]].reshape(shape) for b in buffers)
        np.subtract(xs[lo:hi][None, :], sorted_pts[first:last, None], out=u)
        u /= h
        TRICUBE.evaluate(u, w, scratch)
        parts = reduce(slice(lo, hi), u, w, scratch)
        for out, part in zip(outs, parts):
            out[order[first:last]] = part


def _solve(s0, s1, s2, t0, t1, h):
    """(intercept, degenerate) from the window moments; degenerate points,
    where the determinant fails the 1e-12 rule, hold NaN."""
    det = s0 * s2 - s1 * s1
    ok = det > _DET_RTOL * (s0 * h * h + _DET_FLOOR)
    safe = np.where(ok, det, 1.0)
    return np.where(ok, (s2 * t0 - s1 * t1) / safe, np.nan), ~ok


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
    h = config.bandwidth

    def intercepts(window, u, w, scratch):
        zw = zs[window]
        w /= h
        wu = np.multiply(w, u, out=scratch)
        s0 = w.sum(axis=1)
        s1 = wu.sum(axis=1)
        s2 = np.einsum("ij,ij->i", wu, u)
        t0 = w @ zw
        t1 = wu @ zw
        return _solve(s0, s1, s2, t0, t1, h)

    values = np.full(pts.shape, np.nan)
    degenerate = np.ones(pts.shape, dtype=bool)
    _window_pass(xs, pts, h, intercepts, (values, degenerate))
    return values, degenerate


def local_linear_binned(data: ScatterData, config: EstimationConfig, n_nodes):
    """Local linear fit at n_nodes equispaced nodes spanning the data, from
    linearly binned moments (Fan & Marron 1994).

    Each (x, z) is split linearly between the two nearest points of a grid
    _BIN_REFINE times finer than the nodes; the moments at each node are a
    discrete convolution of the bin counts and response sums with the taps
    K(u) u^l / h.  Besides the determinant rule, a node is degenerate when
    its open window (x0 - h, x0 + h) holds fewer than two distinct x.
    n_nodes must be at least 2.  Returns (nodes, values, degenerate);
    degenerate nodes hold NaN.
    """
    h = config.bandwidth
    distinct = np.unique(data.x)
    lo, hi = distinct[0], distinct[-1]
    nodes = np.linspace(lo, hi, n_nodes)
    sparse = (np.searchsorted(distinct, nodes + h, side="left")
              - np.searchsorted(distinct, nodes - h, side="right")) < 2
    if hi == lo:
        return nodes, np.full(nodes.shape, np.nan), sparse
    bins = _BIN_REFINE * (n_nodes - 1) + 1
    step = (hi - lo) / (bins - 1)
    pos = (data.x - lo) / step
    left = np.minimum(pos.astype(np.intp), bins - 2)
    right_share = pos - left
    index = np.concatenate([left, left + 1])
    share = np.concatenate([1.0 - right_share, right_share])
    zshare = share * np.concatenate([data.z, data.z])
    binned = np.stack([np.bincount(index, weights=share, minlength=bins),
                       np.bincount(index, weights=zshare, minlength=bins)])
    # taps at bin offsets -reach..reach; no bin lies further off than bins - 1
    reach = min(int(h / step), bins - 1)
    u = np.arange(-reach, reach + 1) * (step / h)
    w = TRICUBE.evaluate(u) / h
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(binned, ((0, 0), (reach, reach))), u.size, axis=1)
    counts, sums = windows[:, ::_BIN_REFINE] @ np.stack([w, w * u, w * u * u], axis=1)
    s0, s1, s2 = counts.T
    t0, t1, _ = sums.T
    values, degenerate = _solve(s0, s1, s2, t0, t1, h)
    return nodes, np.where(sparse, np.nan, values), degenerate | sparse


def fit_curve(data: ScatterData, config: EstimationConfig) -> VarianceCurve:
    """Local linear fit over config.grid; degenerate grid points are flagged
    (value NaN), never interpolated."""
    values, degenerate = local_linear_at(data, config, config.grid)
    flags = np.where(degenerate, FLAG_DEGENERATE, 0).astype(np.uint8)
    return VarianceCurve(grid=config.grid, values=values, flags=flags)


def kde_values(x, config: EstimationConfig, points) -> np.ndarray:
    """Kernel density estimate (1/(n h)) sum K((x_g - x0)/h) at each point,
    with the estimation kernel and config.bandwidth."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise GenevarError("kde needs at least one observation")
    if not np.all(np.isfinite(x)):
        raise NonFinite("kde sample contains non-finite entries")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    h = config.bandwidth
    sums = np.zeros(pts.shape)
    _window_pass(np.sort(x), pts, h,
                 lambda window, u, w, scratch: (w.sum(axis=1),), (sums,))
    return sums / (x.size * h)


def density_interpolator(sample, config: EstimationConfig):
    """Density of sample evaluated once on a dense grid of _DENSITY_NODES
    points, then interpolated; avoids a fresh kernel pass per gene on large
    inputs.  Returns a callable mapping points to density values."""
    sample = np.asarray(sample, dtype=float).ravel()
    pad = TRICUBE.support_halfwidth * config.bandwidth
    grid = np.linspace(sample.min() - pad, sample.max() + pad, _DENSITY_NODES)
    dens = kde_values(sample, config, grid)

    def density(points):
        return np.interp(np.atleast_1d(np.asarray(points, dtype=float)),
                         grid, dens)

    return density
