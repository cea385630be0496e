"""Local linear kernel regression and kernel density estimation.

The regression engine fits, at each evaluation point x0, a weighted
least-squares line to (x, z) with weights K((x - x0)/h)/h, K the fixed
tricube kernel of model.TRICUBE, and returns the intercept.  Writing
u = (x - x0)/h, w = K(u)/h and S_l = sum w u^l, T_l = sum w u^l z, the
intercept is

    (S_2 T_0 - S_1 T_1) / (S_0 S_2 - S_1^2),

which reproduces constants and linear functions exactly.  A point is
degenerate when the normal-equation determinant S_0 S_2 - S_1^2 falls below
1e-12 * (S_0 h^2 + eps): fewer than two distinct x values carry weight there.
_solve applies that rule and the formula to the moments of both routes below.

Curves on equispaced points -- fit_curve on config.grid and
local_linear_binned on the two-stage baseline's stage-1 nodes -- come from
one lattice engine, _lattice_fit: linear binning onto a lattice through the
points, then the moments by a discrete convolution with the kernel taps
(Fan & Marron 1994; Wand 1994).  Points whose window holds too few x for
binning get the exact fit instead.  The degenerate flags agree with the
exact pass's on every design tested, and the values are within 1e-4 sd(z)
of it on the benchmark designs and on a 300-gene input at bandwidths from
0.05 to 1000; that bound is measured, not proved.

local_linear_at (the exact fit at arbitrary points, and the tests' oracle),
the lattice engine's sparse windows and kde_values run on one exact
kernel-window pass (_window_pass): the evaluation points are sorted once,
walked in runs that share a data window, and each run gets its raw weights
K(u).  Regression forms weighted moment sums from them; the density sums
them.  The pass allocates its u, weight and scratch matrices once and
reuses them for every slab of rows, so the per-slab reductions may
overwrite the weights and the scratch but must not keep views of any of them.
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
# lattice steps per bandwidth in _lattice_fit, at least: the binning error
# falls like the step squared, and 256 keeps it below 1e-4 sd(z) on the
# table2 design (measured 8.5e-5; 3.5e-4 at 128)
_TAPS_PER_H = 256
_LATTICE_MAX = 1 << 19  # lattice nodes per binned fit, at most (4 MB per row of bins)
# x per lattice-fit window, at least; sparser windows get the exact fit.  At
# 32 the 300-gene, J=4 CLI input stays within 3e-5 sd(z) of exact at every
# bandwidth from 0.05 to 1 (16: 3e-5, 8: 3e-4), and no window of the
# 2000-gene benchmark designs at h = 1 holds fewer (the least holds 42)
_EXACT_BELOW = 32


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


def _exact_fit(xs, zs, h, points):
    """Exact local linear fit at points from the sample (xs, zs) sorted by
    x, by one _window_pass.  Returns (values, degenerate); degenerate points
    hold NaN."""

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

    values = np.full(points.shape, np.nan)
    degenerate = np.ones(points.shape, dtype=bool)
    _window_pass(xs, points, h, intercepts, (values, degenerate))
    return values, degenerate


def local_linear_at(data: ScatterData, config: EstimationConfig, points):
    """Local linear fit at arbitrary points.

    Returns (values, degenerate_mask); degenerate points hold NaN.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise NonFinite("evaluation points must be finite")
    order_x = np.argsort(data.x, kind="stable")
    return _exact_fit(data.x[order_x], data.z[order_x], config.bandwidth, pts)


def _lattice_fit(data: ScatterData, h, points):
    """Local linear fit at equispaced points from linearly binned moments
    (Fan & Marron 1994; Wand 1994), with the exact fit where a window holds
    too few x for binning.  Returns (values, degenerate); degenerate points
    hold NaN.

    points must be strictly increasing with a common spacing g, or a single
    point (then g = h / _TAPS_PER_H).  The lattice step is g / R, with R the
    smallest integer that makes it at most s / _TAPS_PER_H, where s is h or,
    if smaller, a quarter of the range of x: the binning error grows with
    the step relative to the spread of x in a window, which is about h for
    a narrow window and the data's own spread for a wide one.  R is found up
    to a relative 1e-9, so that rounding in g, h or x cannot flip it; every
    point is then a lattice node.  Each (x, z) is split linearly between its
    two nearest nodes with np.bincount, and the moments at the points are
    one strided matmul of the bin counts and response sums with the taps
    K(u) u^l / h.  The lattice and the taps are cropped to the nodes where
    the data meet a window of some point.  Where that would still take more
    than _LATTICE_MAX nodes, R is lowered, so the step exceeds
    s / _TAPS_PER_H and the binned values lose accuracy; if R = 1 is still
    too fine, GenevarError is raised.

    A point whose window, shrunk by one lattice step to
    (x0 - h + step, x0 + h - step), holds fewer than _EXACT_BELOW x, or x
    spanning no more than one step, is fitted by the exact pass instead,
    values and degenerate flags both.  Binning cannot resolve x closer than
    a step, and it smears a datum near the window's edge onto an inner
    node, far above its exact weight; in a sparse window that moves the
    fit by up to several sd(z), and it flags points the exact rule
    evaluates or evaluates points it flags.  So the flags are the exact
    pass's wherever such a window decides them, and elsewhere each binned
    point has at least _EXACT_BELOW x spread over more than a step.
    """
    n = points.size
    spacing = (points[-1] - points[0]) / (n - 1) if n > 1 else h / _TAPS_PER_H
    rel = (data.x - points[0]) / spacing          # data positions, in units of g
    lo_x, hi_x = rel.min(), rel.max()
    furthest = max(hi_x, n - 1 - lo_x)            # from any point to any datum
    scale = min(h, 0.25 * (hi_x - lo_x) * spacing) if hi_x > lo_x else h
    refine = int(min(max(np.ceil(spacing * _TAPS_PER_H / scale * (1.0 - 1e-9)),
                         1.0), _LATTICE_MAX))
    while True:
        # taps reach at most the furthest datum's node
        reach = int(min(np.floor(h / spacing * refine), furthest * refine + 1.0))
        # the points whose windows can hold data; the lattice spans their windows
        first = max(0, int(np.ceil(lo_x - (reach + 1) / refine)))
        last = min(n - 1, int(np.floor(hi_x + (reach + 1) / refine)))
        size = (last - first) * refine + 2 * reach + 1
        if size <= _LATTICE_MAX or refine == 1:
            break
        refine = max(1, min(refine - 1, refine * _LATTICE_MAX // size))
    if size > _LATTICE_MAX:
        raise GenevarError(
            f"a binned fit needs {size} lattice nodes, more than {_LATTICE_MAX}: "
            "the grid spacing is too fine for the data range")
    step = spacing / refine
    values = np.full(n, np.nan)
    degenerate = np.ones(n, dtype=bool)
    if first <= last:
        # lattice nodes 0..size-1, node 0 at point first's window edge; data
        # off the lattice land on the discarded nodes -1 and size (and size+1)
        pos = np.clip(rel * refine - (first * refine - reach), -1.0, size)
        left = np.floor(pos)
        right_share = pos - left
        index = np.concatenate([left, left + 1.0]).astype(np.intp) + 1
        share = np.concatenate([1.0 - right_share, right_share])
        zshare = share * np.concatenate([data.z, data.z])
        u = np.arange(-reach, reach + 1) * (step / h)
        w = TRICUBE.evaluate(u) / h
        taps = np.stack([w, w * u, w * u * u], axis=1)

        def moments(weights, n_taps):
            bins = np.bincount(index, weights=weights, minlength=size + 3)
            windows = np.lib.stride_tricks.sliding_window_view(
                bins[1:size + 1], u.size)[::refine]
            return (windows @ taps[:, :n_taps]).T

        s0, s1, s2 = moments(share, 3)
        t0, t1 = moments(zshare, 2)
        values[first:last + 1], degenerate[first:last + 1] = _solve(
            s0, s1, s2, t0, t1, h)
    xs = np.sort(data.x)
    lo = np.searchsorted(xs, points - (h - step), side="right")
    hi = np.searchsorted(xs, points + (h - step), side="left")
    spread = xs[np.maximum(hi - 1, 0)] - xs[np.minimum(lo, xs.size - 1)]
    sparse = (hi - lo < _EXACT_BELOW) | (spread <= step)
    if sparse.any():
        order = np.argsort(data.x, kind="stable")
        values[sparse], degenerate[sparse] = _exact_fit(
            xs, data.z[order], h, points[sparse])
    return values, degenerate


def local_linear_binned(data: ScatterData, config: EstimationConfig, n_nodes):
    """Local linear fit at n_nodes equispaced nodes spanning the data, by
    the lattice engine of _lattice_fit.  n_nodes must be at least 2.
    Returns (nodes, values, degenerate); degenerate nodes hold NaN."""
    lo, hi = data.x.min(), data.x.max()
    nodes = np.linspace(lo, hi, n_nodes)
    if hi == lo:
        return nodes, np.full(nodes.shape, np.nan), np.ones(nodes.shape, dtype=bool)
    return (nodes, *_lattice_fit(data, config.bandwidth, nodes))


def fit_curve(data: ScatterData, config: EstimationConfig) -> VarianceCurve:
    """Local linear fit over the equispaced config.grid by the lattice
    engine of _lattice_fit; degenerate grid points are flagged (value NaN),
    never interpolated.  See the module docstring for how close the values
    and flags are to the exact pass's."""
    values, degenerate = _lattice_fit(data, config.bandwidth, config.grid)
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
